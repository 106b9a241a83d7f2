import io
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from mpmath.libmp import from_man_exp

from entrank import (
    ConsistencyError,
    MathDomainError,
    count_composite,
    entropy_function_of,
    g_value,
    parse_spec,
    phi_v,
    place_spec,
    point_record,
    shell_scan,
    write_records_csv,
)
from entrank.scan import lattice_shell_points

from tests.test_counting import x2x3_oracle

LOG2, LOG3 = math.log(2), math.log(3)
SQRT2 = math.sqrt(2)


def f_value(ps, n):
    """log |F(alpha^n)| / |n|_2 straight from the count, independent of point_record."""
    return math.log(count_composite(ps, n).value) / math.sqrt(sum(v * v for v in n))


@pytest.fixture(scope="module")
def pc23(x2x3):
    return x2x3.placed_char0()[0][0]


@pytest.fixture(scope="module")
def golden(golden_mean_spec):
    return place_spec(golden_mean_spec)


@pytest.fixture(scope="module")
def golden2_ledrappier():
    # golden mean at multiplicity 2 times the Ledrappier component
    return place_spec(parse_spec({"d": 2, "components": [
        {"multiplicity": 2, "char": 0, "min_poly": [-1, -1, 1],
         "xi": [[0, 1, 1, 1], [2, 1, 0, 1]]},
        {"multiplicity": 1, "char": 2,
         "generators": [{"terms": [{"exp": [0, 0], "coeff": 1},
                                   {"exp": [1, 0], "coeff": 1},
                                   {"exp": [0, 1], "coeff": 1}]}]},
    ]}))


# ---------------------------------------------------------------------------
# phi_v
# ---------------------------------------------------------------------------

def test_phi_v_branches(pc23):
    # pc23.places: the archimedean place, then the 2-adic and 3-adic ones
    from entrank.numberfield import DEFAULT_PREC

    (ball, widen), ord2, _ord3 = phi_v(pc23, (1, 1))
    with mp.workprec(200):  # the ball is integers at scale 2^-DEFAULT_PREC
        re, rad = (mp.ldexp(v, -DEFAULT_PREC) for v in (ball.re, ball.rad))
        assert abs(re + mp.log(6)) <= rad < 1e-30  # phi = 1/6
    assert ball.im == 0 and widen == 0
    assert ord2 == 1  # phi = 6 above 2
    # |xi^(-1,0)|_2 = |1/2|_2 = 2 > 1, so the inverse branch returns 2
    assert phi_v(pc23, (-1, 0))[1] == 1


def test_phi_v_rejects_zero(pc23):
    with pytest.raises(MathDomainError):
        phi_v(pc23, (0, 0))


def test_phi_v_reads_finite_ords_from_placement(golden, monkeypatch):
    import entrank.numberfield as numberfield

    pc = golden.placed_char0()[0][0]
    assert any(place.kind == "finite" for place in pc.places)
    vectors = [(7, 3), (7, -3), (-2, 5)]
    expected = [phi_v(pc, n) for n in vectors]

    def no_ord_v(place, x):
        raise AssertionError("phi_v reached ord_v")

    monkeypatch.setattr(numberfield, "ord_v", no_ord_v)
    assert [phi_v(pc, n) for n in vectors] == expected
    # ord_v(xi^(1,0)) = ord_v(theta) = 0 above 2: the <= branch keeps xi^n
    k = next(i for i, place in enumerate(pc.places) if place.kind == "finite")
    assert phi_v(pc, (1, 0))[k] == 0
    assert phi_v(pc, (7, -3))[k] == 3  # |xi^n|_v = 4^3 > 1: phi = xi^(-n), ord 3


def _precisions_requested(monkeypatch):
    """Record every precision log_sigma_ball asks embeddings for, from cold
    caches: both are cleared first, so that no answer an earlier test left
    in log_sigma_ball's cache hides a request."""
    import entrank.numberfield as numberfield

    numberfield.log_sigma_ball.cache_clear()
    numberfield.embeddings.cache_clear()
    seen = []
    inner = numberfield.embeddings

    def recording(field, prec=numberfield.DEFAULT_PREC):
        seen.append(prec)
        return inner(field, prec)

    monkeypatch.setattr(numberfield, "embeddings", recording)
    return seen


@pytest.mark.parametrize("n", [(20000, 12000), (-20000, 12000)])
def test_point_record_far_out_without_escalation(golden, monkeypatch, n):
    # the exact coordinates of 1 - xi^(-n) here run to ~14,000 bits; the
    # balls for sigma_v(xi_i) need only O(log |n|) of them
    seen = _precisions_requested(monkeypatch)
    rec = point_record(golden, n)
    assert rec.count == count_composite(golden, tuple(-v for v in n)).value
    assert abs(rec.f - (rec.h_hat + rec.g)) <= 1e-12
    assert seen == []  # no precision beyond DEFAULT_PREC


def test_point_record_tie_widens_instead_of_escalating(monkeypatch):
    # |(3 + 4i)/5| = 1, so n . l_v = 0 along the whole n2 = 0 axis
    ps = place_spec(parse_spec({"d": 2, "components": [
        {"char": 0, "min_poly": [1, 0, 1], "xi": [[3, 5, 4, 5], [2, 1, 0, 1]]}]}))
    pc = ps.placed_char0()[0][0]
    seen = _precisions_requested(monkeypatch)
    rec = point_record(ps, (5, 0))
    assert rec.count == 1681
    assert abs(rec.f - (rec.h_hat + rec.g)) <= 1e-12
    assert seen == []  # the tie does not escalate
    (ball, widen), *_finite = phi_v(pc, (5, 0))
    assert 0 < widen <= 5 * ball.rad  # weight 2 times (|Re t| + rad), and |Re t| <= rad


def _log_one_minus_phi_exact(pc, place, n, prec=1024):
    """log |1 - phi_v(n)|_v from the exact element: the pre-ball route, at
    prec bits, so that it resolves terms far below 2^-DEFAULT_PREC."""
    from entrank.numberfield import log_abs_v_ball, log_sigma_ball

    field, xi = pc.component.field, pc.component.xi
    xn = field.pow_vector(xi, n)
    mid, rad = log_abs_v_ball(place, xn)
    assert abs(mid) > rad  # no ties in these fields
    phi = field.pow_vector(xi, tuple(-v for v in n)) if mid > 0 else xn
    ball = log_sigma_ball(place, field.sub(field.one(), phi), prec)
    return (_exact(ball.re, place.weight - 1 - prec), _exact(ball.rad, place.weight - 1 - prec))


def _exact(m: int, e: int) -> mp.mpf:
    """m 2^e as an mpf, exactly."""
    return mp.make_mpf(from_man_exp(m, e))


GOLDEN_DOC = {"min_poly": [-1, -1, 1], "xi": [[0, 1, 1, 1], [2, 1, 0, 1]]}


# points whose archimedean terms lie in the far tail, |sigma_v(phi_v)| < 2^-wp
FAR_TAIL_POINTS = {(-1, -1, 1): [(2000, 1200), (-2000, 1200)],  # golden mean
                   (0, 1): [(1, -90), (100, 30), (0, 100)]}  # x2x3


@pytest.mark.parametrize("doc, weights", [
    (GOLDEN_DOC, {1}),
    ({"min_poly": [-2, 0, 0, 1], "xi": [[0, 1, 1, 1, 0, 1], [1, 1, 1, 1, 0, 1]]},
     {1, 2}),  # Q(2^(1/3)), xi = (theta, 1 + theta)
    ({"min_poly": [1, 0, 1], "xi": [[2, 1, 1, 1], [3, 1, 0, 1]]}, {2}),  # Q(i), (2 + i, 3)
    ({"min_poly": [0, 1], "xi": [[2, 1], [3, 1]]}, {1}),  # x2x3
])
def test_arch_terms_match_exact_element_route(doc, weights):
    from mpmath.libmp import mpf_abs

    from entrank.numberfield import DEFAULT_PREC, _scaled

    far = FAR_TAIL_POINTS.get(tuple(doc["min_poly"]), [])
    ps = place_spec(parse_spec({"d": 2, "components": [dict(doc, char=0)]}))
    pc = ps.placed_char0()[0][0]
    rng = random.Random(len(doc["min_poly"]))
    checked = set()
    points = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(25)]
    for n in points + far:
        if n == (0, 0):
            continue
        for k, place in enumerate(pc.places):
            if place.kind != "arch":
                continue
            value, term, widen = _arch_term(pc, k, n, DEFAULT_PREC)
            rho = _exact(term.rho, -DEFAULT_PREC)
            mid, rad_exact = _log_one_minus_phi_exact(pc, place, n)
            assert widen == 0 and rho < 1e-25
            assert abs(value - mid) <= rho + rad_exact
            if n in far:  # the far tail: |sigma_v(phi_v)| < 2^-wp, so the term is below it
                assert 0 < abs(value) < 2.0**-100
                # the term is good to a relative 2^-80 (or underflow) against the exact route
                assert abs(value - mid) <= rad_exact + max(abs(value) * 2.0**-80, math.ulp(0.0))
                # rho is |tail| rounded up, plus the tail's radius, which rounds up to one unit
                assert term.rho - _scaled(mpf_abs(term.tail), DEFAULT_PREC, "c") == 1
            checked.add(place.weight)
    assert checked == weights


def _arch_term(pc, k, n, prec):
    """(value, term, widen) for archimedean place k at n: value is weight
    log |1 - sigma_v(phi_v(n))| as an mpf at 400 bits, from the exact factor
    and far-tail term of the ExpFactor term that one_minus_exp_factor gives."""
    from entrank.scan import _phi_ball, one_minus_exp_factor

    ball, parts, widen, _lift = _phi_ball(pc, k, n, prec)
    term = one_minus_exp_factor(pc.places[k], ball, parts, prec)
    with mp.workprec(400):
        value = mp.log(_exact(term.man, term.exp)) + mp.make_mpf(term.tail)
    return value, term, widen


def _pair_factor(place, t, parts, prec):
    """one_minus_exp_factor as it was when it returned its radii as pairs
    (m, e), m 2^e, for the product check to convert: (man, exp, tail, ea,
    rad, ea_rad), or None. The oracle for the integer bounds."""
    from mpmath.libmp import fzero

    from entrank.numberfield import _ceil_shift
    from entrank.scan import _cos_sin_entry, _exp_entry

    rad = t.rad
    if rad > 1 << (prec - 1):
        return None
    wp = prec - 32 + rad.bit_length()
    wq = -(-(wp + 8 + len(parts).bit_length()) // 32) * 32
    em, ee = 1, 0
    for x, _y in parts:
        if x:
            m, e = _exp_entry(x, prec, wq)
            em, ee = em * m, ee + e
    k = em.bit_length() - wq
    if k > 0:
        em, ee = em >> k, ee + k
    weight = place.weight
    if weight == 1:
        xr, xi, s = (-em if t.im else em), 0, ee
    else:
        ur, ui = 1 << wq, 0
        for _x, y in parts:
            if y:
                c, si = _cos_sin_entry(y, prec, wq)
                ur, ui = (ur * c - ui * si) >> wq, (ur * si + ui * c) >> wq
        xr, xi, s = em * ur, em * ui, ee - wq
    sc = prec + 16
    r = rad << 16
    eps = 1 << max(sc + 5 - wp, 0)
    f = _ceil_shift((r + _ceil_shift(r * r, sc) + eps) * ((1 << sc) + eps), sc)
    ea_rad = (1, -wp - 4)
    if em.bit_length() + ee <= -wp:
        value = from_man_exp(xi * xi - xr * xr - (xr << (1 - s)), 2 * s + weight - 2)
        tail = 2 * f + eps + _ceil_shift(eps * eps, sc)
        return 1, 0, value, (em, ee), ((em * tail) << (weight - 1), ee - sc), ea_rad
    delta = em * f
    one = 1 << -s
    if weight == 1:
        man, exp = abs(one - xr), s
        d = man << (sc + s - ee)
    else:
        man, exp = (one - xr) ** 2 + xi * xi, 2 * s
        k = sc + s - ee
        d = math.isqrt(man << 2 * k if k >= 0 else man >> -2 * k)
    gap = d - 1 - delta
    if gap <= 0:
        return None
    moved = -(-(weight * delta << prec) // gap)
    return man, exp, fzero, (em, ee), (moved, -prec), ea_rad


def _pair_up(m, e):
    """ceil(m 2^(e + DEFAULT_PREC)): a pair at the product check's scale, as
    the check converted it."""
    from entrank.numberfield import DEFAULT_PREC, _ceil_shift

    e += DEFAULT_PREC
    return m << e if e >= 0 else _ceil_shift(m, -e)


def _pair_rho(place, prec, ball, widen, lift, term):
    """One archimedean place's share of rho, converted from the pairs."""
    from mpmath.libmp import fzero, mpf_abs

    from entrank.numberfield import DEFAULT_PREC, _scaled

    _man, _exp, tail, _ea, rad, ea_rad = term
    rho = _pair_up(*rad) + _pair_up(widen, -prec)
    if tail != fzero:
        rho += _scaled(mpf_abs(tail), DEFAULT_PREC, "c")
    if lift:
        rho += place.weight * (_pair_up(ball.rad, -prec) + _pair_up(*ea_rad)) + 1
    return rho


DIFFERENTIAL_DOCS = [
    GOLDEN_DOC,  # two real places
    {"min_poly": [1, 0, 1], "xi": [[2, 1, 1, 1], [3, 1, 0, 1]]},  # Q(i): one complex place
    {"min_poly": [-2, 0, 0, 1], "xi": [[0, 1, 1, 1, 0, 1], [1, 1, 1, 1, 0, 1]]},  # both kinds
]


def test_integer_bounds_equal_the_pair_conversion():
    # seeded: rho and ea_rad at scale 2^-DEFAULT_PREC equal the pairs of the
    # pair-returning kernel converted as the product check converted them,
    # at real and complex places, in both branches, at three precisions,
    # lifted and not; every other field is unchanged
    from mpmath.libmp import mpf_abs

    from entrank.numberfield import DEFAULT_PREC, _scaled
    from entrank.scan import _phi_ball, one_minus_exp_factor

    rng = random.Random(20300)
    covered = set()
    for doc in DIFFERENTIAL_DOCS:
        pc = place_spec(parse_spec({"d": 2, "components": [dict(doc, char=0)]})
                        ).placed_char0()[0][0]
        points = [(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(12)]
        points += [(v * a, v * b) for a, b in [(2000, 1200), (100, 30)] for v in (1, -1)]
        for n, prec in itertools.product(points, (128, 256, 512)):
            if n == (0, 0):
                continue
            for k, place in enumerate(pc.places):
                if place.kind != "arch":
                    continue
                ball, parts, _widen, lift = _phi_ball(pc, k, n, prec)
                term, pair = (f(place, ball, parts, prec)
                              for f in (one_minus_exp_factor, _pair_factor))
                if pair is None:
                    assert term is None
                    continue
                assert tuple(term[:4]) == pair[:4]
                assert term.rho == (_pair_up(*pair[4])
                                    + _scaled(mpf_abs(pair[2]), DEFAULT_PREC, "c"))
                assert term.ea_rad == _pair_up(*pair[5])
                covered.add((place.weight, term.man == 1, prec, lift > 0))
    assert covered == set(itertools.product((1, 2), (False, True), (128, 256, 512),
                                            (False, True)))


@pytest.mark.parametrize("doc, top", [(doc, 128) for doc in DIFFERENTIAL_DOCS] + [
    ({"min_poly": [0, 1], "xi": [[2 ** 112, 2 ** 112 + 1], [3, 1]]}, 256)])  # escalates
def test_point_rho_equals_the_pair_conversion(doc, top, monkeypatch):
    # the whole rho that point_record hands the product check, against the
    # sum of _pair_rho over the places, with the pair kernel's escalation
    import entrank.scan as scan
    from entrank.numberfield import DEFAULT_PREC

    ps = place_spec(parse_spec({"d": 2, "components": [dict(doc, char=0)]}))
    pc = ps.placed_char0()[0][0]
    seen, reached = [], set()
    check, log_term = scan._check_product, scan._log_one_minus_phi
    monkeypatch.setattr(scan, "_check_product", lambda *args: seen.append(args[-1]) or check(*args))
    monkeypatch.setattr(scan, "_log_one_minus_phi",
                        lambda *args: seen.append(args[2]) or log_term(*args))
    rng = random.Random(20301)
    for n in [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(20)] + [(1, 0)]:
        if n == (0, 0):
            continue
        seen.clear()
        point_record(ps, n)
        point, rho = seen
        want = 0
        for k, (place, o) in enumerate(zip(pc.places, point.ords)):
            if o is not None:
                continue
            prec = DEFAULT_PREC // 2
            while True:
                prec *= 2
                ball, parts, widen, lift = scan._phi_ball(pc, k, n, prec)
                if (pair := _pair_factor(place, ball, parts, prec)) is not None:
                    break
            reached.add(prec)
            want += _pair_rho(place, prec, ball, widen, lift, pair)
        assert rho == want
    assert max(reached) == top


def test_escalation_when_the_first_evaluation_cannot_separate(monkeypatch):
    # log xi ~ 2^-112, so |1 - sigma(phi)| ~ 2^-112: below the rounding of the
    # first evaluation at DEFAULT_PREC, separated after one doubling
    from entrank.numberfield import DEFAULT_PREC

    big = 2**112  # 2^112 + 1 has small factors, which placement must find
    ps = place_spec(parse_spec({"d": 1, "components": [
        {"char": 0, "min_poly": [0, 1], "xi": [[big + 1, big]]}]}))
    seen = _precisions_requested(monkeypatch)
    rec = point_record(ps, (1,))
    assert 2 * DEFAULT_PREC in seen and max(seen) == 2 * DEFAULT_PREC
    assert rec.count == 1  # |(2^112 + 1) - 2^112|
    assert abs(rec.g - (rec.f - rec.h_hat)) <= 1e-12
    # the archimedean term is log |1 - 1/xi| = -log(2^112 + 1); the finite ones are 0
    assert rec.g == pytest.approx(-math.log(big + 1), rel=1e-15)


def _fine_sign(pc, k, n):
    """The sign of n . l_v from sums of the balls at 4 DEFAULT_PREC bits: the
    reference for the integer sign test at DEFAULT_PREC."""
    from entrank.numberfield import DEFAULT_PREC, compare_abs_to_one, log_sigma_ball

    place = pc.places[k]
    balls = [log_sigma_ball(place, x, 4 * DEFAULT_PREC) for x in pc.component.xi]
    re = sum(v * b.re for v, b in zip(n, balls))
    rad = sum(abs(v) * b.rad for v, b in zip(n, balls))
    return compare_abs_to_one(place, (place.weight * re, place.weight * rad))


@pytest.mark.parametrize("doc", [
    GOLDEN_DOC,
    {"min_poly": [-2, 0, 0, 1], "xi": [[0, 1, 1, 1, 0, 1], [1, 1, 1, 1, 0, 1]]},
    {"min_poly": [1, 0, 1], "xi": [[2, 1, 1, 1], [3, 1, 0, 1]]},
    {"min_poly": [1, 0, 1], "xi": [[3, 5, 4, 5], [2, 1, 0, 1]]},  # |(3 + 4i)/5| = 1: ties
])
def test_integer_sign_matches_mpf_sign(doc):
    from entrank.numberfield import compare_abs_to_one

    pc = place_spec(parse_spec({"d": 2, "components": [dict(doc, char=0)]})).placed_char0()[0][0]
    sides = set()
    for n in itertools.product(range(-6, 7), repeat=2):
        if n == (0, 0):
            continue
        for k, (place, phi) in enumerate(zip(pc.places, phi_v(pc, n))):
            if place.kind != "arch":
                continue
            s = sum(v * row.re for v, row in zip(n, pc.rows[k]))
            r = sum(abs(v) * row.rad for v, row in zip(n, pc.rows[k]))
            side = compare_abs_to_one(place, (place.weight * s, place.weight * r))
            assert side == _fine_sign(pc, k, n)
            assert (phi[1] > 0) == (side == 0)  # phi_v widens exactly on ties
            sides.add(side)
    assert sides == ({-1, 0, 1} if doc["xi"][0] == [3, 5, 4, 5] else {-1, 1})


def _g_reference(ps, n, prec=300):
    """f - h(n_hat) at prec bits: the log of the exact count minus the
    Lyapunov maxima, with log |sigma_v(xi_i)| at prec + 20 bits."""
    from entrank.numberfield import log_sigma_ball

    with mp.workprec(prec):
        total = mp.log(count_composite(ps, n).value)
        for pc, mult in ps.placed_char0():
            for place, ords in zip(pc.places, pc.rows):
                if place.kind == "arch":
                    row = [_exact(log_sigma_ball(place, x, prec + 20).re,
                                  place.weight - 1 - prec - 20) for x in pc.component.xi]
                else:
                    row = [-o * place.res_degree * mp.log(place.p) for o in ords]
                total -= mult * max(0, sum(v * c for v, c in zip(n, row)))
        return total / mp.sqrt(sum(v * v for v in n))


@pytest.mark.parametrize("n", [(41, 0), (47, 0), (31, -30)])
def test_g_where_place_terms_cancel_matches_high_precision_reference(golden, n):
    # on the n2 = 0 axis the two real places give terms near +-1e-9 that
    # cancel to near 1e-18; (31, -30) is a point without that cancellation
    from entrank.numberfield import DEFAULT_PREC

    pc = golden.placed_char0()[0][0]
    terms = [float(_arch_term(pc, k, n, DEFAULT_PREC)[0])
             for k, place in enumerate(pc.places) if place.kind == "arch"]
    norm = math.sqrt(sum(v * v for v in n))
    g = point_record(golden, n).g
    if n[1] == 0:
        assert abs(g) < 1e-6 * max(abs(t) for t in terms) / norm
    ref = _g_reference(golden, n)
    assert abs(g - ref) <= 4 * math.ulp(max(abs(t) for t in terms)) / norm
    # the archimedean factors are multiplied before the one log and float
    # conversion, so g keeps its own digits, not only those of the terms
    assert abs(g - ref) <= 4 * math.ulp(g)


# ---------------------------------------------------------------------------
# f and g
# ---------------------------------------------------------------------------

def test_f_values(x2x3):
    assert abs(f_value(x2x3, (1, 1)) - math.log(5) / SQRT2) < 1e-12
    assert abs(f_value(x2x3, (-5, 3)) - math.log(5) / math.sqrt(34)) < 1e-12


def test_f_zero_when_count_is_one(x2x3):
    assert f_value(x2x3, (-2, 1)) == 0.0


def test_g_value_both_routes(x2x3):
    g = g_value(x2x3, (1, 1))
    assert abs(g - (-math.log(Fraction(6, 5)) / SQRT2)) < 1e-12
    # deep diagonal: g is numerically zero at double precision
    assert abs(g_value(x2x3, (20, 20))) < 1e-13
    n = (-5, 3)
    h_hat = (5 * LOG2) / math.sqrt(34)  # only the 2-adic term is active
    expected = f_value(x2x3, n) - h_hat
    assert abs(g_value(x2x3, n) - expected) < 1e-12


def test_g_bounded_by_place_count(x2x3):
    pc, _ = x2x3.placed_char0()[0]
    cap = len(pc.places) * LOG2
    for n in [(1, 1), (2, -1), (-5, 3), (7, 4), (-8, 5)]:
        assert g_value(x2x3, n) <= cap / math.sqrt(sum(v * v for v in n)) + 1e-12


def test_point_record_identity(x2x3):
    for n in [(1, 1), (3, -2), (-5, 3), (6, 0)]:
        rec = point_record(x2x3, n)
        assert abs(rec.f - rec.g - rec.h_hat) < 1e-12
        assert rec.count == x2x3_oracle(*n)


def test_point_record_checks_the_count_it_reports(golden, monkeypatch):
    import entrank.counting as counting

    assert point_record(golden, (7, 3)).count == 295
    true_count = counting._count_char0_at

    def doubled(pc, n, point):
        return 2 * true_count(pc, n, point)

    monkeypatch.setattr(counting, "_count_char0_at", doubled)
    with pytest.raises(ConsistencyError):
        point_record(golden, (7, 3))


def test_shell_scan_calls_point_record_once_per_point_in_order(golden, monkeypatch):
    # the benchmark times each point by wrapping this module global
    import entrank.scan as scan
    from entrank.action import iter_shell_points

    inner, seen = scan.point_record, []

    def recording(ps, n):
        seen.append(n)
        return inner(ps, n)

    monkeypatch.setattr(scan, "point_record", recording)
    monkeypatch.delenv("ENTRANK_WORKERS", raising=False)
    report = scan.shell_scan(golden, 3.0, 9.0)
    assert seen == list(iter_shell_points(2, 3.0, 9.0)) == [r.n for r in report.records]
    assert len(seen) == 114


def _bump_first(monkeypatch, name, field, bump, place=None):
    """Wrap entrank.scan's name so that its first result other than None
    (at place, when one is given), an ExpFactor, has field (an integer, or
    the mantissa of a pair) off by a relative bump; returns the list that
    records the wrapped call's arguments."""
    import entrank.scan as scan

    inner = getattr(scan, name)
    calls = []

    def perturbed(*args):
        out = inner(*args)
        if out is None or calls or place not in (None, args[0]):
            return out
        calls.append(args)
        value = getattr(out, field)
        m = value[0] if isinstance(value, tuple) else value
        m += int(m * Fraction(bump))
        return out._replace(**{field: (m, value[1]) if isinstance(value, tuple) else m})

    monkeypatch.setattr(scan, name, perturbed)
    return calls


@pytest.mark.parametrize("bump", [0.0, 1e-20])
def test_point_record_catches_a_tiny_error_in_one_term(golden, monkeypatch, bump):
    # a float tolerance on f = g + h would let 1e-20 through; proven radii do not
    calls = _bump_first(monkeypatch, "one_minus_exp_factor", "man", bump)
    if bump:
        with pytest.raises(ConsistencyError):
            point_record(golden, (7, 3))
    else:
        assert point_record(golden, (7, 3)).count == 295
    assert calls[0][0].kind == "arch"


@pytest.mark.parametrize("bump", [0.0, 1e-20])
def test_point_record_catches_a_tiny_error_in_a_lifted_ea(golden, monkeypatch, bump):
    # at (7, 3) the real place at 1.618... is lifted, so its ea enters A
    from entrank.numberfield import DEFAULT_PREC
    from entrank.scan import _phi_ball

    pc = golden.placed_char0()[0][0]
    assert [_phi_ball(pc, k, (7, 3), DEFAULT_PREC)[3] > 0 for k in (0, 1)] == [False, True]
    calls = _bump_first(monkeypatch, "one_minus_exp_factor", "ea", bump, pc.places[1])
    if bump:
        with pytest.raises(ConsistencyError):
            point_record(golden, (7, 3))
    else:
        assert point_record(golden, (7, 3)).count == 295
    assert len(calls) == 1


@pytest.mark.parametrize("bump", [0.0, 1e-20])
def test_point_record_catches_a_tiny_error_in_a_prime_power(golden, monkeypatch, bump):
    # at (7, -40) |xi^n|_v = 4^40 above 2, so the count has the factor 2^80
    import entrank.scan as scan

    inner, seen = scan._prime_power, []

    def perturbed(p, k):
        seen.append((p, k))
        q = inner(p, k)
        return q + int(q * Fraction(bump))

    monkeypatch.setattr(scan, "_prime_power", perturbed)
    n = (7, -40)
    if bump:
        with pytest.raises(ConsistencyError):
            point_record(golden, n)
    else:
        assert point_record(golden, n).count == count_composite(golden, n).value
    assert seen == [(2, 80)]


def test_float_guard_catches_a_wrong_final_log(golden, monkeypatch):
    # the product check reads M exactly; only the float guard sees g's log
    import entrank.scan as scan
    from mpmath.libmp import from_float, mpf_add

    inner = scan.safe_mpf_log
    monkeypatch.setattr(scan, "safe_mpf_log",
                        lambda x, prec, rnd: mpf_add(inner(x, prec, rnd), from_float(1e-6)))
    with pytest.raises(ConsistencyError, match="do not sum to log count"):
        point_record(golden, (7, 3))


def test_product_check_in_integers():
    from entrank.numberfield import DEFAULT_PREC
    from entrank.scan import _check_product

    one = 1 << DEFAULT_PREC
    # M = 3/4, A = 1, count * P+ = 3, P- = 4: exact, so rho = 0 passes
    _check_product((1,), (3, -2), (1, 0), 3, 4, 0)
    with pytest.raises(ConsistencyError):
        _check_product((1,), (3, -2), (1, 0), 4, 4, 0)
    # off by 1/4 relatively: e^rho - 1 >= 1/4 from rho = log(5/4) = 0.223
    _check_product((1,), (3, -2), (1, 0), 4, 4, int(0.23 * one))
    with pytest.raises(ConsistencyError):
        _check_product((1,), (3, -2), (1, 0), 4, 4, int(0.2 * one))
    # a radius of 2^200 nats passes at once, building no 4^(2^200)
    _check_product((1,), (1, 0), (1, 0), 10**9, 1, one << 200)


def test_g_where_the_archimedean_product_is_a_quarter(golden):
    # at (1, -1) the exact M is |N(theta/2 - 1)| = 1/4, beside the mpmath
    # 1.3.0 log defect that safe_mpf_log guards (test_safe_mpf_log_near_a_quarter)
    rec = point_record(golden, (1, -1))
    assert rec.count == 1
    assert rec.g == -0.9802581434685471


def _one_component(d, min_poly, xi):
    return place_spec(parse_spec({"d": d, "components": [
        {"char": 0, "min_poly": min_poly, "xi": xi}]}))


@pytest.mark.parametrize("min_poly, xi, zero_at, count", [
    ([4, -3, 1], [1, 1, -1, 1], 4, 16),  # 1 - theta, theta^2 - 3 theta + 4 = 0
    ([3, 4, -4, 1], [-2, 1, 3, 1, -1, 1], 1, 12),  # -2 + 3 theta - theta^2
])
def test_g_is_exactly_zero_where_one_integer_comparison_decides_it(min_poly, xi, zero_at, count):
    # every archimedean place lifted (or none) and count = |N(xi^n)| P-
    # (or P-): g is 0.0, not a last-bit residue near 1e-40
    ps = _one_component(1, min_poly, [xi])
    for k in range(1, 6):
        for n in ((k,), (-k,)):
            rec = point_record(ps, n)
            assert (rec.g == 0.0) == (k == zero_at), (n, rec.g)
            if k == zero_at:
                assert rec.count == count


def _exact_zero_identity(ps, n, count, thetas) -> bool:
    """Whether g = 0 at n is decided by count = P- |N(xi^n)|^[all lifted]
    with no archimedean place lifted or every one (thetas: the roots of
    min_poly at 60 digits), in exact arithmetic apart from the lifting:
    P- = prod over finite v of max(1, |xi^n|_v) is the leading coefficient
    of the primitive integer multiple of charpoly(xi^n) (Gauss's lemma)."""
    (pc, _), = ps.entries
    field = pc.component.field
    x = field.pow_vector(pc.component.xi, n)
    cp = field.charpoly(x)
    den = math.lcm(*(c.denominator for c in cp))
    p_neg = den // math.gcd(*(int(c * den) for c in cp))
    with mp.workdps(60):
        lifted = [abs(mp.polyval(x.num[::-1], z)) > x.den * (1 + mp.mpf(10) ** -40)
                  for z in thetas]
    if not any(lifted):
        return count == p_neg
    return all(lifted) and count == p_neg * abs(cp[0])


def test_g_is_zero_only_where_the_exact_identity_holds():
    # seeded one-component specs of degree 2..4: g is 0.0 at exactly the
    # points where _exact_zero_identity holds
    from entrank.errors import SpecError, UnsupportedPrimeError

    rng = random.Random(2)
    zeros = points = 0
    for d, radius, specs in ((1, 8, 90), (2, 2, 30)):
        while specs:
            degree = rng.randint(2, 4)
            min_poly = [rng.randint(-4, 4) for _ in range(degree)] + [1]
            xi = [[c for _ in range(degree) for c in (rng.randint(-2, 2), rng.choice((1, 1, 2)))]
                  for _ in range(d)]
            try:
                ps = _one_component(d, min_poly, xi)
            except (SpecError, UnsupportedPrimeError):
                continue
            specs -= 1
            with mp.workdps(60):
                thetas = mp.polyroots(min_poly[::-1], maxsteps=100, extraprec=200)
            for n in itertools.product(range(-radius, radius + 1), repeat=d):
                try:
                    rec = point_record(ps, n)
                except MathDomainError:  # n = 0, or xi^n = 1
                    continue
                points += 1
                zeros += rec.g == 0.0
                assert (rec.g == 0.0) == _exact_zero_identity(ps, n, rec.count, thetas), (
                    min_poly, xi, n, rec.g)
    assert points > 2000 and zeros >= 25


SHIPPED_CHAR0 = ["gaussian_split", "golden_mean", "ratio_shift_k1", "ratio_shift_k2",
                 "ratio_shift_k5", "times2_rationals", "x2x3"]


SCAN_PIN = json.loads((Path(__file__).parent / "data" / "scan_records_pin.json").read_text())


@pytest.mark.parametrize("name", sorted(SCAN_PIN["specs"]))
def test_scan_records_match_the_recorded_pin(name):
    # (n, count, f, h_hat, g) bit for bit over r in [1, 12]: the shipped
    # char-0 specs, three fields with complex places (one with ties) and a
    # cubic whose places above 5, 179 and 2347 leave a cofactor block
    pin = SCAN_PIN["specs"][name]
    rep = shell_scan(place_spec(parse_spec(pin["spec"])), SCAN_PIN["r_min"], SCAN_PIN["r_max"])
    got = [[list(r.n), r.count, r.f.hex(), r.h_hat.hex(), r.g.hex()] for r in rep.records]
    assert got == pin["records"]


@pytest.mark.parametrize("name", SHIPPED_CHAR0 + ["golden2_ledrappier"])
def test_h_hat_matches_the_float_entropy_function(name, golden2_ledrappier):
    # h_hat comes from the integer sums that g forms; directional_entropy is
    # the float reference, l . n summed term by term
    from pathlib import Path

    from entrank import directional_entropy, load_spec

    ps = (golden2_ledrappier if name == "golden2_ledrappier" else
          place_spec(load_spec(str(Path(__file__).parent.parent / "specs" / f"{name}.json"))))
    ef = entropy_function_of(ps)
    rng = random.Random(name)
    points = {tuple(rng.randint(-40, 40) for _ in range(ps.d)) for _ in range(40)} - {(0,) * ps.d}
    for n in sorted(points):
        ref = directional_entropy(ef, n) / math.sqrt(sum(v * v for v in n))
        assert abs(point_record(ps, n).h_hat - ref) <= 1e-14


def test_point_record_identity_golden_mean(golden):
    rep = shell_scan(golden, 1.0, 6.5)
    assert len(rep.records) > 64
    for rec in rep.records:
        assert abs(rec.f - (rec.h_hat + rec.g)) <= 1e-12
        assert count_composite(golden, tuple(-v for v in rec.n)).value == rec.count


def test_point_record_mixed_spec(golden, golden2_ledrappier, ledrappier):
    for n in [(1, 1), (3, -2), (7, 3), (4, 0), (-5, 8)]:
        mixed = point_record(golden2_ledrappier, n)
        gold = point_record(golden, n)
        led = point_record(ledrappier, n)
        assert mixed.count == gold.count**2 * led.count
        assert abs(mixed.g - 2 * gold.g) < 1e-12
        assert abs(mixed.h_hat - 2 * gold.h_hat) < 1e-12
        assert g_value(golden2_ledrappier, n) == mixed.g


def test_point_record_charp_has_no_decomposition(ledrappier):
    rec = point_record(ledrappier, (3, 0))
    assert rec.count == 4
    assert rec.h_hat == 0.0 and rec.g == 0.0
    assert rec.f > 0


# ---------------------------------------------------------------------------
# shell scans
# ---------------------------------------------------------------------------

def _brute_force_shell_points(d, r_min, r_max):
    r = int(r_max)
    return sorted((n for n in itertools.product(range(-r, r + 1), repeat=d)
                   if any(n) and next(v for v in n if v) > 0
                   and r_min**2 <= sum(v * v for v in n) <= r_max**2),
                  key=lambda n: (math.isqrt(sum(v * v for v in n)), n))


def test_lattice_shell_points_structure():
    # against a brute-force filter of the cube: one representative per +-n
    # pair (first nonzero entry positive), ordered by (unit shell, lexicographic),
    # whether taken lazily or as a list
    from entrank.action import iter_shell_points

    for d, r_min, r_max in [(1, 0, 6.5), (1, 2.5, 9.0), (1, 3, 3), (1, 0, 0.5),
                            (2, 0, 4.0), (2, 1.0, 3.5), (2, 2.2, 7.1), (2, 5, 5),
                            (2, math.sqrt(8), 6), (3, 0, 3.0), (3, 1.5, 3.2), (3, 2, 4.6),
                            (3, 3.9, 4.1)]:
        expected = _brute_force_shell_points(d, r_min, r_max)
        assert list(iter_shell_points(d, r_min, r_max)) == expected
        assert lattice_shell_points(d, r_min, r_max) == expected


def test_scan_budget_bounds_the_enumeration(x2x3, monkeypatch):
    # a huge r_max costs only the shells the budget reaches
    import entrank.action as action

    shells = []
    inner = action._points_with_square_norm_in

    def recording(d, a, b):
        shells.append(a)
        return inner(d, a, b)

    monkeypatch.setattr(action, "_points_with_square_norm_in", recording)
    rep = shell_scan(x2x3, 1.0, 100000.0, budget=5)
    assert rep.partial
    assert [r.n for r in rep.records] == _brute_force_shell_points(2, 1.0, 2.5)[:5]
    assert shells == [1, 4]  # shell 1 holds 4 points, shell 2 the fifth and sixth


def test_scan_small_annulus(x2x3):
    rep = shell_scan(x2x3, 1.0, 5.5)
    assert len(rep.records) == 48
    assert not rep.partial and not rep.has_charp
    # symmetry exploitation is sound: counts at -n equal counts at n, so the
    # extrema match a full-lattice evaluation
    from entrank import count_composite

    full_counts = set()
    for n in rep.records:
        full_counts.add(n.count)
        assert count_composite(x2x3, tuple(-v for v in n.n)).value == n.count
    assert max(full_counts) == max(r.count for r in rep.records)


def test_scan_estimates_and_positivity(x2x3):
    rep = shell_scan(x2x3, 40.0, 50.0)
    assert 1.20 <= rep.c1_estimate <= 1.30
    assert 0.30 <= rep.c2_estimate <= 0.59
    assert rep.c2_estimate <= rep.c1_estimate
    assert all(r.f > 0 for r in rep.records)
    assert min(r.f for r in rep.records) > 0.30
    assert rep.c2_trimmed >= rep.c2_estimate
    assert rep.c1_trimmed <= rep.c1_estimate


def test_scan_g_decay(x2x3):
    rep10 = shell_scan(x2x3, 9.5, 10.5)
    rep40 = shell_scan(x2x3, 39.5, 40.5)
    assert max(abs(r.g) for r in rep40.records) < max(abs(r.g) for r in rep10.records)


def test_scan_budget_flags_partial(x2x3):
    rep = shell_scan(x2x3, 1.0, 9.0, budget=20)
    assert rep.partial and len(rep.records) == 20


def test_scan_budget_below_one_is_a_domain_error(x2x3):
    for budget in (0, -1):
        with pytest.raises(MathDomainError, match="budget"):
            shell_scan(x2x3, 1.0, 3.0, budget=budget)
    rep = shell_scan(x2x3, 1.0, 3.0, budget=1)
    assert rep.partial and len(rep.records) == 1


def test_g_runs_ord_v_only_where_n_ords_is_zero(golden, monkeypatch):
    import entrank.counting as counting

    def no_pass(field, p, x, support):
        raise AssertionError("the point reached valuations_above")

    # ords above 2 are (0, 1): at (7, 3) the 2-adic term is 0 without a valuation pass
    monkeypatch.setattr(counting, "valuations_above", no_pass)
    assert point_record(golden, (7, 3)).count == 295
    # g from ord_v(xi^n - 1) - min(n . ords, 0) at every finite place; the
    # only place above 2 reads ord_2 N(xi^n - 1) / f_v, still without a pass
    for n, g in [((7, 0), -0.00016956363296430056), ((3, 0), -0.4812118250596034)]:
        assert point_record(golden, n).g == pytest.approx(g, rel=1e-12, abs=1e-15)


def test_g_takes_one_valuation_pass_per_prime(monkeypatch):
    # at (0, 1) n . ords = 0 at both places above 3 and at the one above 89
    # in the support; count and g share one pass at each of those primes
    import entrank.counting as counting

    ps = place_spec(parse_spec({"d": 2, "components": [
        {"char": 0, "min_poly": [3, 3, 1, -2, 1],
         "xi": [[1, 3, 1, 1, 0, 1, 0, 1], [2, 1, 0, 1, 1, 2, 0, 1]]}]}))
    calls = []

    def recording(field, p, x, support, inner=counting.valuations_above):
        calls.append(p)
        return inner(field, p, x, support)

    monkeypatch.setattr(counting, "valuations_above", recording)
    point_record(ps, (0, 1))
    assert calls == [3, 89]  # one pass per prime per point, count and g together


@pytest.mark.parametrize("doc", [
    {"d": 2, "components": [{"char": 0, "min_poly": [0, 1], "xi": [[2, 1], [3, 1]]}]},
    {"d": 2, "components": [{"char": 0, "min_poly": [-1, -1, 1],
                             "xi": [[0, 1, 1, 1], [2, 1, 0, 1]]}]},
    {"d": 2, "components": [{"char": 0, "min_poly": [3, 3, 1, -2, 1],
                             "xi": [[1, 3, 1, 1, 0, 1, 0, 1], [2, 1, 0, 1, 1, 2, 0, 1]]}]},
])
def test_finite_g_term_is_zero_where_n_ords_is_nonzero(doc):
    # ultrametric: ord_v(xi^n) = o != 0 forces ord_v(xi^n - 1) = min(o, 0)
    from entrank.numberfield import ord_v

    pc = place_spec(parse_spec(doc)).placed_char0()[0][0]
    field = pc.component.field
    for n in itertools.product(range(-4, 5), repeat=2):
        xn = field.pow_vector(pc.component.xi, n)
        if xn == field.one():
            continue
        x = field.sub(xn, field.one())
        for place, ords in zip(pc.places, pc.rows):
            o = place.kind == "finite" and sum(v * c for v, c in zip(n, ords))
            if o:  # a finite place with n . ords != 0
                assert ord_v(place, x) == min(o, 0)


def test_scan_inverts_each_xi_once(golden, monkeypatch):
    monkeypatch.setenv("ENTRANK_WORKERS", "1")
    from entrank.numberfield import NumberField, _pow_cached

    calls = []
    inv = NumberField.inv

    def counting_inv(self, x):
        calls.append(x)
        return inv(self, x)

    monkeypatch.setattr(NumberField, "inv", counting_inv)
    _pow_cached.cache_clear()
    rep = shell_scan(golden, 1.0, 6.5)
    assert len(rep.records) > 64
    assert len(calls) <= golden.d


def test_scan_workers_capped_at_cpu_count(golden, monkeypatch):
    # a stand-in pool records its size and maps serially: no process starts
    import concurrent.futures

    import entrank.scan as scan

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(scan.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("ENTRANK_WORKERS", "100000")
    rep = shell_scan(golden, 1.0, 6.5)
    assert len(rep.records) > 64  # the worker path needs > 64 points
    assert sizes == [2]
    monkeypatch.setattr(scan.os, "cpu_count", lambda: None)  # unknown: one process
    assert shell_scan(golden, 1.0, 6.5).records == rep.records
    assert sizes == [2]


def test_scan_process_pool_matches_serial(golden, monkeypatch):
    # two real worker processes, so the PlacedSpec (places, DyadicBall rows,
    # field) is pickled to each; 114 points are above the 64-point cut-over
    import concurrent.futures

    import entrank.scan as scan

    monkeypatch.delenv("ENTRANK_WORKERS", raising=False)
    serial = shell_scan(golden, 3.0, 9.0)
    sizes = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(scan.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("ENTRANK_WORKERS", "2")
    pooled = shell_scan(golden, 3.0, 9.0)
    assert sizes == [2] and len(pooled.records) == 114
    assert pooled.records == serial.records and pooled.shells == serial.shells


def test_scan_parallel_matches_serial(x2x3, golden, monkeypatch):
    monkeypatch.setenv("ENTRANK_WORKERS", "1")
    small = shell_scan(x2x3, 1.0, 4.5)
    serial = [shell_scan(ps, 1.0, 6.5).records for ps in (x2x3, golden)]
    # the worker path needs > 64 points
    monkeypatch.setenv("ENTRANK_WORKERS", "2")
    for ps, records in zip((x2x3, golden), serial):
        parallel = shell_scan(ps, 1.0, 6.5)
        assert parallel.records == records
        assert len(small.records) < len(parallel.records)


def test_scan_ledrappier_axis_zero_limit(ledrappier):
    # counts along (2^k, 0) are exactly 1, so f vanishes there
    for k in range(0, 6):
        rec = point_record(ledrappier, (2**k, 0))
        assert rec.count == 1 and rec.f == 0.0


def test_csv_format(x2x3):
    rep = shell_scan(x2x3, 1.0, 2.5)
    buf = io.StringIO()
    write_records_csv(rep.records, buf, 2)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "n1,n2,count,f,h_hat,g"
    assert len(lines) == len(rep.records) + 1
    first = lines[1].split(",")
    assert first[2].isdigit()
    float(first[3]), float(first[4]), float(first[5])

