import json
import math
import random
from pathlib import Path

import mpmath as mp
import pytest

from entrank import (
    EntropyFunction,
    MathDomainError,
    directional_entropy,
    entropy_function_of,
    mahler_measure,
    nonexpansive_candidates,
    parse_spec,
    place_spec,
    sphere_extrema,
)
from entrank.entropy import EntropyTerm, sample_sphere_extrema_2d
from tests.conftest import ratio_shift_spec

SWEEP_EXTREMA = Path(__file__).with_name("data") / "sweep_extrema.json"

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


def _sampled_extrema(ef, count, seed):
    """max and min of h over seeded uniform points of the sphere."""
    np = pytest.importorskip("numpy")
    pts = np.random.default_rng(seed).normal(size=(count, ef.d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    weights = np.array([t.weight for t in ef.terms], dtype=float)
    lmat = np.array([t.l for t in ef.terms], dtype=float)
    vals = weights @ np.clip(lmat @ pts.T, 0.0, None)
    return float(vals.max()), float(vals.min())


def _ef(d, rows):
    return EntropyFunction(d, tuple(EntropyTerm(m, tuple(float(c) for c in l)) for m, l in rows))


def _assert_attained(ef, ex):
    # the extrema are h at the returned unit vectors
    tol = 1e-12 * (1.0 + ex.max_value)
    for x, value in ((ex.argmax, ex.max_value), (ex.argmin, ex.min_value)):
        assert abs(math.hypot(*x) - 1.0) < 1e-12
        assert abs(directional_entropy(ef, x) - value) <= tol
    assert ex.method == "exact"


def test_sphere_extrema_d3_matches_sampling():
    spec = parse_spec({"d": 3, "components": [
        {"multiplicity": 1, "char": 0, "min_poly": [0, 1],
         "xi": [[2, 1], [3, 1], [5, 1]]}]})
    ef = entropy_function_of(place_spec(spec))
    ex = sphere_extrema(ef)
    _assert_attained(ef, ex)
    # max at the archimedean row (log 2, log 3, log 5); min on the x3 = 0 plane
    assert abs(ex.max_value - math.sqrt(LOG2**2 + LOG3**2 + math.log(5) ** 2)) < 1e-12
    assert abs(ex.min_value - EMIN) < 1e-12
    smax, smin = _sampled_extrema(ef, 200_000, 4)
    assert ex.max_value >= smax - 1e-12 and ex.min_value <= smin + 1e-12
    assert ex.max_value - smax < 0.05 and smin - ex.min_value < 0.05


def test_sphere_extrema_random_d2_against_sampling():
    rng = random.Random(2026)
    for _ in range(40):
        ef = _ef(2, [(rng.randint(1, 3), (rng.uniform(-2, 2), rng.uniform(-2, 2)))
                     for _ in range(rng.randint(1, 7))])
        ex = sphere_extrema(ef)
        _assert_attained(ef, ex)
        smax, smin = sample_sphere_extrema_2d(ef, samples=20_000)
        # the grid holds every kink, so the minimum is sampled exactly and
        # the maximum to the grid's curvature error
        assert smax - 1e-12 <= ex.max_value <= smax + 1e-6 * (1 + smax)
        assert abs(ex.min_value - smin) <= 1e-12 * (1 + smax)


@pytest.mark.parametrize("d", [3, 4])
def test_sphere_extrema_random_high_d_against_sampling(d):
    rng = random.Random(300 + d)
    for k in range(12):
        ef = _ef(d, [(rng.randint(1, 3), tuple(rng.uniform(-2, 2) for _ in range(d)))
                     for _ in range(rng.randint(2, 7))])
        ex = sphere_extrema(ef)
        _assert_attained(ef, ex)
        smax, smin = _sampled_extrema(ef, 20_000, k)
        assert ex.max_value >= smax - 1e-12 and ex.min_value <= smin + 1e-12


def test_sphere_extrema_opposite_rows():
    # l and -l share one hyperplane, whose two sides give opposite c_S:
    # h = 2 |l . x| has max 2 |l| and min 0
    l = (0.75, -1.25)
    ex = sphere_extrema(_ef(2, [(2, l), (2, (-l[0], -l[1]))]))
    assert ex.max_value == 2 * math.hypot(*l) and ex.min_value == 0.0
    assert abs(ex.argmin[0] * l[0] + ex.argmin[1] * l[1]) < 1e-15
    # x^2 + x + 2: the complex place and one place above 2 have opposite rows
    spec = parse_spec({"d": 2, "components": [
        {"multiplicity": 1, "char": 0, "min_poly": [2, 1, 1], "xi": [[0, 1, 1, 1], [0, 1, 1, 1]]}]})
    ef = entropy_function_of(place_spec(spec))
    ex = sphere_extrema(ef)
    _assert_attained(ef, ex)
    assert abs(ex.max_value - math.sqrt(2) * LOG2) < 1e-12 and ex.min_value == 0.0
    # with a third row in d = 3: h = |l . x| + max(u . x, 0)
    l, u = (1.0, -0.5, 0.25), (0.5, 2.0, -1.0)
    ef = _ef(3, [(1, l), (1, tuple(-c for c in l)), (1, u)])
    ex = sphere_extrema(ef)
    _assert_attained(ef, ex)
    top = max(math.dist(u, l), math.dist(u, tuple(-c for c in l)))  # |u - l|, |u + l|
    assert abs(ex.max_value - top) < 1e-12 and ex.min_value == 0.0


def test_sphere_extrema_merges_coincident_hyperplanes():
    # rows along one direction add up within each side of their hyperplane
    l, u = (0.5, -1.5), (1.25, 0.75)
    split = sphere_extrema(_ef(2, [(1, l), (1, (2 * l[0], 2 * l[1])), (3, (-l[0], -l[1])), (1, u)]))
    merged = sphere_extrema(_ef(2, [(3, l), (3, (-l[0], -l[1])), (1, u)]))
    assert split == merged


def test_sphere_extrema_rank_deficient_d3():
    # the rows sum to 0 and span only a plane: the minimum is exactly 0, on
    # the kernel line (1, 1, -1)
    ef = _ef(3, [(1, (1.0, 0.5, 1.5)), (1, (-1.0, 0.0, -1.0)), (1, (0.0, -0.5, -0.5))])
    ex = sphere_extrema(ef)
    _assert_attained(ef, ex)
    assert ex.min_value == 0.0
    assert max(abs(a - b / math.sqrt(3)) for a, b in zip(ex.argmin, (1, 1, -1))) < 1e-15
    smax, _smin = _sampled_extrema(ef, 20_000, 9)
    assert smax - 1e-12 <= ex.max_value <= smax + 0.05


def test_sphere_extrema_d1_weights_ties_and_zero_rows():
    ex = sphere_extrema(_ef(1, [(2, (0.5,)), (1, (-0.75,))]))
    assert (ex.max_value, ex.argmax, ex.min_value, ex.argmin) == (1.0, (1.0,), 0.75, (-1.0,))
    # an exact tie goes to the lexicographically greatest direction
    ex = sphere_extrema(_ef(1, [(1, (0.5,)), (1, (-0.5,))]))
    assert (ex.max_value, ex.argmax, ex.min_value, ex.argmin) == (0.5, (1.0,), 0.5, (1.0,))
    for d in (1, 2, 3):
        ex = sphere_extrema(_ef(d, [(1, (0.0,) * d)]))
        assert ex.max_value == ex.min_value == 0.0


def test_sphere_extrema_extreme_magnitudes():
    # one scale 2^-E holds a subnormal and 1e300 alike; only the results are rounded
    ef = _ef(2, [(1, (1e300, 5e-324)), (1, (-1e-300, 2.0)), (2, (0.0, -3e-310))])
    ex = sphere_extrema(ef)
    _assert_attained(ef, ex)
    assert ex.max_value == 1e300 and ex.argmax == (1.0, 2e-300) and ex.min_value == 0.0


def test_sphere_extrema_match_the_float_route_on_sweep_specs():
    # sweep seeds 1.0-3.0; values of the route this one replaced
    specs = json.loads(SWEEP_EXTREMA.read_text(encoding="utf-8"))["specs"]
    assert len(specs) == 330
    for s in specs:
        ex = sphere_extrema(_ef(2, [(t[0], t[1:]) for t in s["terms"]]))
        assert abs(ex.max_value - s["max"]) <= 1e-12 and abs(ex.min_value - s["min"]) <= 1e-12


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


def _float_merged_normals(ef):
    """The unit normals merged within 1e-10, leading entry above 1e-15 made
    positive: the float rule that the exact primitive-normal merge replaced."""
    out = []
    for t in ef.terms:
        norm = math.hypot(*t.l)
        if norm == 0.0:
            continue
        unit = tuple(c / norm for c in t.l)
        if next(c for c in unit if abs(c) > 1e-15) < 0:
            unit = tuple(-c for c in unit)
        if not any(max(abs(a - b) for a, b in zip(u, unit)) < 1e-10 for u in out):
            out.append(unit)
    return out


def test_nonexpansive_exact_merge_matches_the_float_rule():
    # sweep seeds 1.0-3.0 and every shipped spec with char-0 places in d >= 2
    efs = [_ef(2, [(t[0], t[1:]) for t in s["terms"]])
           for s in json.loads(SWEEP_EXTREMA.read_text(encoding="utf-8"))["specs"]]
    specs = Path(__file__).parent.parent / "specs"
    for path in sorted(specs.glob("*.json")):
        ef = entropy_function_of(place_spec(parse_spec(json.loads(path.read_text()))))
        if ef.d >= 2 and ef.terms:
            efs.append(ef)
    assert len(efs) == 330 + 5
    for ef in efs:
        planes = nonexpansive_candidates(ef)
        assert [hp.normal for hp in planes] == _float_merged_normals(ef)


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


def test_mahler_bound_holds_with_huge_coefficients():
    # c * prod (a x - b) has m = log|c| + sum log max(|a|, |b|), taken here
    # at 300 bits; at these sizes one ulp of the double is far above 1e-14
    rng = random.Random(400)

    def draw(*exponents):
        return rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.choice(exponents))

    for _ in range(16):
        c = draw(1, 200, 400)
        poly, sizes = [c], [abs(c)]
        for _k in range(rng.randint(0, 3)):
            a, b = draw(1, 6, 12), draw(1, 6, 12)
            poly = [-b * u + a * v for u, v in zip(poly + [0], [0] + poly)]
            sizes.append(max(abs(a), abs(b)))
        mm = mahler_measure(poly)
        with mp.workprec(300):
            want = mp.fsum(mp.log(v) for v in sizes)
            assert abs(mm.value - want) <= mm.error_bound <= 1e-8


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


def test_mahler_early_exit_equals_yuns_route(monkeypatch):
    # a monic P with a nonzero discriminant is its own one squarefree part:
    # on seeded monic squarefree polynomials of degree 1..8 Yun's route
    # gives that part, and with the early exit switched off (discriminant
    # read as 0) the measure and its bound are the same
    import entrank.entropy as entropy

    rng = random.Random(515)
    polys = []
    while len(polys) < 60:
        p = [rng.randint(-4, 4) for _ in range(rng.randint(1, 8))] + [1]
        if p[0] and len(entropy.poly_gcd(p, entropy.poly_derivative(p))) == 1:
            polys.append(p)
    calls = []
    yun = entropy._squarefree_parts
    monkeypatch.setattr(entropy, "_squarefree_parts", lambda p: calls.append(p) or yun(p))
    fast = [mahler_measure(p) for p in polys]
    assert calls == []
    assert all(yun(p) == [(tuple(p), 1)] for p in polys)
    monkeypatch.setattr(entropy, "discriminant", lambda p: 0)
    assert [mahler_measure(p) for p in polys] == fast
    assert len(calls) == len(polys)


@pytest.mark.parametrize("poly", [[-1, -1, 1], [1, 1, 1, 1, 1, 1, 1]])  # x^2 - x - 1, Phi_7
def test_mahler_doubles_precision_until_the_bound_meets_the_target(monkeypatch, poly):
    import entrank.entropy as entropy

    precs, root_discs = [], entropy.root_discs

    def spy(coeffs, prec):
        precs.append(prec)
        return root_discs(coeffs, prec)

    monkeypatch.setattr(entropy, "MAHLER_TARGET_ERROR", 1e-70)
    monkeypatch.setattr(entropy, "root_discs", spy)
    mm = mahler_measure(poly)
    assert precs == [128, 256]
    assert mm.error_bound - math.ulp(mm.value) <= 1e-70 / 2
    with mp.workprec(600):
        roots = mp.polyroots([mp.mpf(c) for c in reversed(poly)], maxsteps=200, extraprec=600)
        want = mp.fsum(mp.log(max(1, abs(r))) for r in roots)
        assert abs(mm.value - want) <= mm.error_bound
