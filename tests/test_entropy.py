import math
import random

import pytest

from entrank import (
    MathDomainError,
    directional_entropy,
    entropy_function_of,
    mahler_measure,
    nonexpansive_candidates,
    parse_spec,
    place_spec,
    sphere_extrema,
)
from entrank.entropy import sample_sphere_extrema_2d
from tests.conftest import ratio_shift_spec

LOG2, LOG3 = math.log(2), math.log(3)
EMAX = math.hypot(LOG2, LOG3)
EMIN = LOG2 * LOG3 / EMAX


@pytest.fixture(scope="module")
def ef23(x2x3):
    return entropy_function_of(x2x3)


# ---------------------------------------------------------------------------
# directional entropy
# ---------------------------------------------------------------------------

def test_h_values(ef23):
    assert abs(directional_entropy(ef23, (1, 1)) - math.log(6)) < 1e-12
    assert abs(directional_entropy(ef23, (1, 0)) - LOG2) < 1e-12
    assert abs(directional_entropy(ef23, (0, 1)) - LOG3) < 1e-12
    assert directional_entropy(ef23, (0, 0)) == 0.0


def test_h_ratio_shift_family():
    for k in (1, 2, 5):
        ps = place_spec(ratio_shift_spec(k))
        ef = entropy_function_of(ps)
        assert abs(directional_entropy(ef, (k, 1)) - LOG3) < 1e-9


def test_h_homogeneous_and_convex(ef23):
    rng = random.Random(23)
    for _ in range(50):
        x = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        y = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        lam = rng.uniform(0.1, 5.0)
        hx = directional_entropy(ef23, x)
        assert abs(directional_entropy(ef23, tuple(lam * v for v in x)) - lam * hx) < 1e-9
        mid = tuple((a + b) / 2 for a, b in zip(x, y))
        hy = directional_entropy(ef23, y)
        assert directional_entropy(ef23, mid) <= (hx + hy) / 2 + 1e-12


def test_h_positive_on_lattice(ef23):
    for n1 in range(-10, 11):
        for n2 in range(-10, 11):
            if (n1, n2) != (0, 0):
                assert directional_entropy(ef23, (n1, n2)) > 0.05


def test_lipschitz(ef23):
    # every cone gradient is a subset sum of the weighted Lyapunov vectors,
    # so sum of m * |l|_2 bounds the Euclidean Lipschitz constant of h
    lip = sum(t.weight * math.hypot(*t.l) for t in ef23.terms)
    assert lip <= 2 * (LOG2 + LOG3)
    rng = random.Random(31)
    for _ in range(100):
        x = (rng.uniform(-4, 4), rng.uniform(-4, 4))
        y = (rng.uniform(-4, 4), rng.uniform(-4, 4))
        dh = abs(directional_entropy(ef23, x) - directional_entropy(ef23, y))
        assert dh <= lip * math.dist(x, y) + 1e-12


# ---------------------------------------------------------------------------
# sphere extrema
# ---------------------------------------------------------------------------

def test_sphere_extrema_x2x3(ef23):
    ex = sphere_extrema(ef23)
    assert abs(ex.max_value - EMAX) < 1e-9
    assert abs(ex.min_value - EMIN) < 1e-9
    unit = (LOG2 / EMAX, LOG3 / EMAX)
    assert min(math.dist(ex.argmax, unit), math.dist(ex.argmax, (-unit[0], -unit[1]))) < 1e-9
    # argmin lies on the expansion-balance line
    assert abs(ex.argmin[0] * LOG2 + ex.argmin[1] * LOG3) < 1e-9


def test_sphere_extrema_agrees_with_sampling(ef23):
    ex = sphere_extrema(ef23)
    smax, smin = sample_sphere_extrema_2d(ef23, samples=1_000_000)
    assert abs(smax - ex.max_value) < 1e-9
    assert abs(smin - ex.min_value) < 1e-9


def test_sphere_extrema_d1():
    spec = parse_spec({"d": 1, "components": [
        {"multiplicity": 1, "char": 0, "min_poly": [0, 1], "xi": [[2, 1]]}]})
    ef = entropy_function_of(place_spec(spec))
    ex = sphere_extrema(ef)
    assert abs(ex.max_value - LOG2) < 1e-12
    assert abs(ex.min_value - LOG2) < 1e-12


def test_sphere_extrema_ratio_shift_min():
    for k in (1, 2, 5):
        ef = entropy_function_of(place_spec(ratio_shift_spec(k)))
        ex = sphere_extrema(ef)
        assert ex.min_value <= LOG3 / math.sqrt(1 + k * k) + 1e-9


def test_sphere_extrema_empty_rejected(ledrappier):
    ef = entropy_function_of(ledrappier)
    assert not ef.terms
    with pytest.raises(MathDomainError):
        sphere_extrema(ef)


def test_sphere_extrema_d3_matches_sampling():
    spec = parse_spec({"d": 3, "components": [
        {"multiplicity": 1, "char": 0, "min_poly": [0, 1],
         "xi": [[2, 1], [3, 1], [5, 1]]}]})
    ef = entropy_function_of(place_spec(spec))
    ex = sphere_extrema(ef)
    import numpy as np

    rng = np.random.default_rng(4)
    pts = rng.normal(size=(200_000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    weights = np.array([t.weight for t in ef.terms], dtype=float)
    lmat = np.array([t.l for t in ef.terms])
    vals = weights @ np.clip(lmat @ pts.T, 0.0, None)
    assert ex.max_value >= vals.max() - 1e-9
    assert ex.min_value <= vals.min() + 1e-9
    assert ex.max_value - vals.max() < 0.05
    assert vals.min() - ex.min_value < 0.05


# ---------------------------------------------------------------------------
# non-expansive candidates
# ---------------------------------------------------------------------------

def test_nonexpansive_x2x3(ef23):
    planes = nonexpansive_candidates(ef23)
    assert len(planes) == 3
    normals = sorted(tuple(round(abs(c), 6) for c in hp.normal) for hp in planes)
    assert (0.0, 1.0) in [tuple(sorted(n)) for n in normals]
    balance = (LOG2 / EMAX, LOG3 / EMAX)
    assert any(max(abs(a - b) for a, b in zip(hp.normal, balance)) < 1e-9
               for hp in planes)


def test_nonexpansive_d1_empty():
    spec = parse_spec({"d": 1, "components": [
        {"multiplicity": 1, "char": 0, "min_poly": [0, 1], "xi": [[2, 1]]}]})
    ef = entropy_function_of(place_spec(spec))
    assert nonexpansive_candidates(ef) == []


def test_nonexpansive_merges_parallel_directions():
    # xi = (4, 2): l_inf = (2, 1) log2 and l_2 = -(2, 1) log2 are parallel
    spec = parse_spec({"d": 2, "components": [
        {"multiplicity": 1, "char": 0, "min_poly": [0, 1], "xi": [[4, 1], [2, 1]]}]})
    ef = entropy_function_of(place_spec(spec))
    planes = nonexpansive_candidates(ef)
    assert len(planes) == 1
    assert max(abs(a - b) for a, b in zip(planes[0].normal, (2 / 5**0.5, 1 / 5**0.5))) < 1e-12


# ---------------------------------------------------------------------------
# Mahler measure
# ---------------------------------------------------------------------------

def test_mahler_basic():
    assert abs(mahler_measure([-2, 1]).value - LOG2) < 1e-10
    mm = mahler_measure([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
    assert abs(mm.value - 0.162357) < 1e-4
    assert mm.error_bound < 1e-8
    assert abs(mahler_measure([-1, -1, 1]).value - math.log((1 + 5**0.5) / 2)) < 1e-10


def test_mahler_cyclotomic_vanishes():
    for coeffs in ([1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1], [1, 0, 0, 0, 1]):
        assert abs(mahler_measure(coeffs).value) < 1e-10


def test_mahler_repeated_roots():
    # squarefree parts keep the root search on simple roots
    assert abs(mahler_measure([-8, 12, -6, 1]).value - 3 * LOG2) < 1e-10  # (x - 2)^3
    assert abs(mahler_measure([1, 3, 3, 1]).value) < 1e-10  # (x + 1)^3
    mm = mahler_measure([4, 0, -5, 0, 1])  # (x^2 - 1)(x^2 - 4), then squared
    sq = mahler_measure([16, 0, -40, 0, 33, 0, -10, 0, 1])
    assert abs(sq.value - 2 * mm.value) < 1e-10 and sq.error_bound < 1e-8


def test_mahler_handles_x_factors_and_leading_coefficient():
    assert abs(mahler_measure([0, 0, -2, 1]).value - LOG2) < 1e-10
    assert abs(mahler_measure([0, 3]).value - LOG3) < 1e-12  # m(3x) = log 3
    with pytest.raises(MathDomainError):
        mahler_measure([0])


def test_mahler_multiplicative():
    rng = random.Random(77)
    for _ in range(10):
        p = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1]
        q = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1]
        pq = [sum(p[i] * q[k - i] for i in range(len(p)) if 0 <= k - i < len(q))
              for k in range(len(p) + len(q) - 1)]
        mp_ = mahler_measure(p)
        mq = mahler_measure(q)
        mpq = mahler_measure(pq)
        assert abs(mpq.value - mp_.value - mq.value) < 1e-8
