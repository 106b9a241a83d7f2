import math
import random
import time
from fractions import Fraction

import pytest

from entrank.algebra import (discriminant, factor_int, is_prime, ord_p, poly_derivative, poly_gcd,
                             resultant)
from entrank.errors import MathDomainError, SpecError, UnsupportedPrimeError
from entrank.numberfield import (
    Element,
    _dedekind_p_maximal,
    archimedean_places,
    build_field,
    compare_abs_to_one,
    embeddings,
    finite_places_above,
    log_abs_v,
    log_abs_v_ball,
    ord_v,
    support_mod_p,
    valuations_above,
)
from entrank.polyfactor import gf_from_int_poly, gf_squarefree_parts

GOLDEN = build_field([-1, -1, 1])
Q = build_field([0, 1])
GAUSS = build_field([1, 0, 1])
PRIMES_BELOW_60 = [p for p in range(2, 60) if is_prime(p)]


def _seeded_fields(seed: int, count: int, max_degree: int):
    """count fields of degree 2..max_degree with random monic minimal polynomials."""
    rng = random.Random(seed)
    fields = []
    while len(fields) < count:
        degree = rng.randint(2, max_degree)
        try:
            fields.append(build_field([rng.randint(-5, 5) for _ in range(degree)] + [1]))
        except SpecError:  # reducible
            continue
    return fields


def _mp_disc(scale: int, a: int, b: int, r: int | None):
    """The disc of radius r 2^-scale around (a + ib) 2^-scale, as root_discs
    and Embedding hold it in integers, read back as an exact mpc centre and
    mpf radius (mp.inf for r = None)."""
    import mpmath as mp
    from mpmath.libmp import from_man_exp

    centre = mp.make_mpc((from_man_exp(a, -scale), from_man_exp(b, -scale)))
    return centre, mp.inf if r is None else mp.make_mpf(from_man_exp(r, -scale))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_build_field_rationals():
    assert Q.degree == 1
    assert Q.real_embeddings == 1 and Q.complex_pairs == 0


def test_build_field_golden_embeddings():
    assert GOLDEN.degree == 2
    embs = embeddings(GOLDEN)
    vals = sorted(float(_mp_disc(e.scale, e.re, e.im, e.rad)[0].real) for e in embs)
    assert abs(vals[0] + 0.6180339887498949) < 1e-12
    assert abs(vals[1] - 1.6180339887498949) < 1e-12
    assert all(e.is_real for e in embs)


@pytest.mark.parametrize("min_poly", [
    [-1, -1, 1], [1, 0, 1], [-2, 0, 0, 1], [1, -3, 2, 0, 1, 1],
    [1, 1, 0, -1, -1, -1, -1, -1, 1], [3, 3, 1, -2, 1],
])
def test_embedding_discs_hold_the_roots(min_poly):
    import mpmath as mp

    field = build_field(min_poly)
    embs = embeddings(field)
    with mp.workprec(600):
        roots = mp.polyroots(list(reversed(min_poly)), maxsteps=400, extraprec=600)
        for e in embs:
            centre, err = _mp_disc(e.scale, e.re, e.im, e.rad)
            assert 0 <= err < mp.mpf(2) ** -128  # 0 when polyroots hits a root exactly
            near = [z for z in roots if abs(z - centre) <= err]
            assert len(near) == 1  # the disc is proven to hold exactly this root
            assert (abs(mp.im(near[0])) < mp.mpf(2) ** -500) == e.is_real


@pytest.mark.parametrize("min_poly", [[0, 1], [-3, 1], [7, 1]])
def test_degree_one_embedding_is_exact(min_poly, monkeypatch):
    import entrank.numberfield as nf

    calls = []
    root_discs = nf.root_discs

    def recording(coeffs, prec):
        calls.append(coeffs)
        return root_discs(coeffs, prec)

    monkeypatch.setattr(nf, "root_discs", recording)
    (emb,) = embeddings.__wrapped__(build_field(min_poly))
    assert calls == [tuple(min_poly)]  # the general path, no branch of its own
    assert emb.is_real
    assert (emb.re, emb.im, emb.rad) == (-min_poly[0] << emb.scale, 0, 0)


def _root_disc_cases():
    """Seeded squarefree integer polynomials of degree 2..12 (leading
    coefficient not always 1), a clustered one, ones with coefficients
    near 10^90 whose roots are moderate: products of (a x - b), a and b
    near 10^30, a tighter cluster and (x - 1)(x - 2)...(x - 12)."""
    rng = random.Random(2024)
    cases = [(-2, 200, -5000, 0, 0, 0, 0, 0, 1)]  # x^8 - 2(50x - 1)^2: roots 1/50 +- 6e-9
    while len(cases) < 25:
        f = [rng.randint(-9, 9) for _ in range(rng.randint(2, 12))] + [rng.choice((1, -2, 3))]
        if f[0] and len(poly_gcd(f, poly_derivative(f))) == 1:
            cases.append(tuple(f))
    for degree in (2, 3, 5):
        f = [1]
        for _ in range(degree):
            a, b = rng.randint(10**29, 10**31), rng.randint(-10**31, 10**31)
            f = [x - y for x, y in zip([0] + [a * c for c in f], [b * c for c in f] + [0])]
        cases.append(tuple(f))
    cases.append((-2, 800, -80000) + (0,) * 9 + (1,))  # x^12 - 2(200x - 1)^2: 1/200 +- 6e-17
    f = [1]
    for k in range(1, 13):
        f = [x - y for x, y in zip([0] + f, [k * c for c in f] + [0])]
    cases.append(tuple(f))
    return cases


ROOT_DISC_CASES = _root_disc_cases()


@pytest.mark.parametrize("coeffs", ROOT_DISC_CASES,
                         ids=[f"{i}-deg{len(f) - 1}" for i, f in enumerate(ROOT_DISC_CASES)])
def test_root_discs_hold_one_root_each(coeffs):
    import mpmath as mp

    from entrank.numberfield import DEFAULT_PREC, root_discs

    scale, found = root_discs(coeffs, DEFAULT_PREC)
    assert len(found) == len(coeffs) - 1
    discs = [_mp_disc(scale, *d) for d in found]
    with mp.workprec(600):
        ref = mp.polyroots(list(reversed(coeffs)), maxsteps=2000, extraprec=600)
        for z, r in discs:
            assert 0 <= r < mp.mpf(2) ** -DEFAULT_PREC
            assert sum(abs(w - z) <= r for w in ref) == 1
        # and each reference root lies in one disc
        assert all(sum(abs(w - z) <= r for z, r in discs) == 1 for w in ref)


def test_coincident_starts_give_infinite_radii_and_embeddings_double(monkeypatch):
    # two equal starts make both products exactly 0: neither moves and both
    # radii are infinite, so embeddings doubles the precision and isolates.
    # x^3 - 100x^2 - 1 has roots near +-0.1i and 100; with both near starts
    # on 0.1i the far root still converges, fast since 0.2 << 100
    import mpmath as mp

    import entrank.numberfield as nf

    field = build_field([-1, 0, -100, 1])
    starts, root_discs = nf._float_root_starts, nf.root_discs.__wrapped__
    precs, coinciding = [], [2]  # the direct call below and embeddings' first

    def near_pair_coincides(coeffs, s):
        ys = sorted(starts(coeffs, s), key=abs)
        coinciding[0] -= 1
        return [ys[0], ys[0], ys[2]] if coinciding[0] >= 0 else ys

    def recording(coeffs, prec):
        precs.append(prec)
        return root_discs(coeffs, prec)

    monkeypatch.setattr(nf, "_float_root_starts", near_pair_coincides)
    monkeypatch.setattr(nf, "root_discs", recording)
    scale, discs = root_discs(field.min_poly, nf.DEFAULT_PREC)
    assert [r is None for _a, _b, r in discs] == [True, True, False]
    assert discs[0][:2] == discs[1][:2]
    assert abs(_mp_disc(scale, *discs[2])[0] - 100) < 1e-3
    embs = embeddings.__wrapped__(field)
    assert precs == [nf.DEFAULT_PREC, 2 * nf.DEFAULT_PREC]
    with mp.workprec(600):
        roots = mp.polyroots([1, -100, 0, -1], maxsteps=400, extraprec=600)
        for e in embs:
            centre, err = _mp_disc(e.scale, e.re, e.im, e.rad)
            assert sum(abs(z - centre) <= err for z in roots) == 1


def test_tiny_roots_resolve_at_the_default_precision(monkeypatch):
    # 1 + 10^400 x^2 has roots +-10^-200 i: the scale follows the root bound,
    # so its discs are finite and tight at 128 bits and Mahler needs no doubling
    import mpmath as mp

    import entrank.entropy as entropy
    from entrank.numberfield import DEFAULT_PREC, root_discs

    coeffs = (1, 0, 10**400)
    scale, found = root_discs(coeffs, DEFAULT_PREC)
    discs = [_mp_disc(scale, *d) for d in found]
    with mp.workprec(1000):
        tiny = mp.mpf(10) ** -200
        for (z, r), root in zip(sorted(discs, key=lambda d: d[0].imag), (-tiny, tiny)):
            assert abs(z - mp.mpc(0, root)) <= r < tiny * mp.mpf(2) ** -DEFAULT_PREC
    precs = []

    def recording(cs, prec):
        precs.append(prec)
        return root_discs.__wrapped__(cs, prec)

    monkeypatch.setattr(entropy, "root_discs", recording)
    mm = entropy.mahler_measure(coeffs)
    # the radii vanish below the one ulp that the double's rounding adds
    assert precs == [DEFAULT_PREC] and mm.error_bound == math.ulp(mm.value)


def test_eval_embedding_ball_holds_the_value():
    # the integer ball for A(sigma(theta)) holds A at the 600-bit root its
    # disc isolates, and is far below the default precision
    import mpmath as mp

    from entrank.numberfield import eval_embedding

    rng = random.Random(7)
    for field in _seeded_fields(7, 30, 8):
        with mp.workprec(600):
            roots = mp.polyroots(list(reversed(field.min_poly)), maxsteps=400, extraprec=600)
        for emb in embeddings(field):
            x = field.element([Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                               for _ in range(field.degree)])
            vr, vi, rad, t = eval_embedding(emb, x)
            centre, err = _mp_disc(emb.scale, emb.re, emb.im, emb.rad)
            with mp.workprec(600):
                (root,) = [z for z in roots if abs(z - centre) <= err]
                val = mp.mpf(0)
                for a in reversed(x.num):
                    val = val * root + a
                assert abs(val * 2**t - mp.mpc(vr, vi)) <= rad
                assert mp.ldexp(rad, -t) < mp.mpf(2) ** -128


def _sweep_polys(count: int = 40):
    """Seeded monic irreducible polynomials of degree 2..8 with coefficients
    in [-3, 3], drawn as the benchmark's spec sweep draws them."""
    rng = random.Random(1)
    out = []
    while len(out) < count:
        f = [rng.randint(-3, 3) for _ in range(rng.randint(2, 8))] + [1]
        try:
            build_field(f)
        except SpecError:
            continue
        out.append(tuple(f))
    return out


def test_root_disc_radii_are_tight_upper_bounds():
    # the integer radius is at least the Weierstrass value computed at 600
    # bits from the same centres, and above it by a relative 2^-100 at most
    import mpmath as mp

    from entrank.numberfield import DEFAULT_PREC, root_discs

    for coeffs in ROOT_DISC_CASES + _sweep_polys():
        scale, found = root_discs(coeffs, DEFAULT_PREC)
        discs = [_mp_disc(scale, *d) for d in found]
        n = len(discs)
        with mp.workprec(600):
            for i, (z, r) in enumerate(discs):
                val = mp.mpf(0)
                for c in reversed(coeffs):
                    val = val * z + c
                den = mp.mpf(coeffs[-1])
                for j, (w, _r) in enumerate(discs):
                    if j != i:
                        den *= z - w
                ref = n * abs(val) / abs(den)
                assert ref <= r <= ref * (1 + mp.mpf(2) ** -100), coeffs


def test_touching_discs_are_not_disjoint():
    from entrank.numberfield import _discs_disjoint

    one = 1 << 300  # discs (a, b, r) at the scale 2^-300, where 1 stands for 2^-300
    assert not _discs_disjoint([(0, 0, one), (2 * one, 0, one)])
    assert _discs_disjoint([(0, 0, one), (2 * one + 1, 0, one)])
    # |(4 + 5i) - (1 + i)| = 5 = 2 + 3
    assert not _discs_disjoint([(one, one, 2 * one), (4 * one, 5 * one, 3 * one)])
    assert _discs_disjoint([(one, one, 2 * one), (4 * one, 5 * one, 3 * one - 1)])
    assert not _discs_disjoint([(0, 0, None), (100 * one, 0, one)])
    assert _discs_disjoint([(0, 0, None)])


@pytest.mark.parametrize("coeffs, root", [((-7, 1), 7), ((12, -3), 4), ((0, 5), 0),
                                          ((-(3 << 200), 1), 3 << 200)])
def test_root_discs_degree_one_is_exact(coeffs, root):
    from entrank.numberfield import DEFAULT_PREC, root_discs

    scale, (disc,) = root_discs(coeffs, DEFAULT_PREC)
    assert disc == (root << scale, 0, 0)


def test_log_abs_v_ball_reads_the_placement_cache():
    # placement calls log_sigma_ball(place, x); log_abs_v_ball must hit the
    # same cache entry, not a new one keyed on an explicit precision
    from entrank.action import Char0Component, compute_places
    from entrank.numberfield import log_sigma_ball

    xi = GOLDEN.element([Fraction(3, 5), Fraction(-7, 2)])
    pc = compute_places(Char0Component(field=GOLDEN, xi=(xi,)))
    before = log_sigma_ball.cache_info()
    for k, place in enumerate(pc.places):
        if place.kind == "arch":
            assert float(log_abs_v_ball(place, xi)[0]) == pc.lyapunov[k][0]
    after = log_sigma_ball.cache_info()
    assert after.hits == before.hits + 2 and after.misses == before.misses


def test_log_abs_v_ball_holds_the_value():
    # the ball is exact fractions with power-of-two denominators, so the
    # mpf reads below are exact at 600 bits
    import mpmath as mp

    field = build_field([-2, 0, 0, 1])
    x = field.element([Fraction(-3, 7), Fraction(5, 2), Fraction(1, 3)])
    with mp.workprec(600):
        t = mp.cbrt(2)
        for place, z in zip(archimedean_places(field), [t, t * mp.expjpi(mp.mpf(2) / 3)]):
            mid, rad = (mp.mpf(v.numerator) / v.denominator for v in log_abs_v_ball(place, x))
            exact = place.weight * mp.log(abs(-mp.mpf(3) / 7 + mp.mpf(5) / 2 * z + z * z / 3))
            assert abs(mid - exact) <= rad < mp.mpf(2) ** -100


def _uncut_log_sigma_ball(place, x, prec):
    """log_sigma_ball as it was before the centre was cut to work + 64 bits:
    the same libmp calls on eval_embedding's exact integers."""
    from mpmath.libmp import fone, from_int, from_man_exp, mpf_abs, mpf_add, mpf_atan2, mpf_div
    from mpmath.libmp import mpf_mul, mpf_shift

    from entrank.numberfield import (MAX_PREC, OUTWARD, DyadicBall, _scaled, eval_embedding,
                                     safe_mpf_log)

    work = prec
    while True:
        emb = embeddings(place.field, work)[place.embedding_index]
        vr, vi, rad, t = eval_embedding(emb, x)
        m2 = vr * vr + vi * vi
        if 4 * rad * rad < m2:
            wp = work + 20
            square = mpf_div(from_man_exp(m2, -2 * t), from_int(x.den ** 2), wp, "n")
            re = mpf_shift(safe_mpf_log(square, wp, "n"), -1)
            im = (from_int(int(vr < 0)) if emb.is_real
                  else mpf_atan2(from_int(vi), from_int(vr), wp, "n"))
            u = mpf_div(from_int(rad), from_int(math.isqrt(m2) - rad), wp, "c")
            slack = mpf_shift(mpf_add(mpf_add(fone, mpf_abs(re), wp, "n"), mpf_abs(im), wp, "n"),
                              4 - prec)
            radius = mpf_mul(mpf_add(u, slack, wp, "n"), OUTWARD, wp, "n")
            return DyadicBall(_scaled(re, prec, "n"), int(vr < 0) if emb.is_real
                              else _scaled(im, prec, "n"), _scaled(radius, prec, "c") + 1)
        assert work < MAX_PREC
        work *= 2


def test_log_sigma_ball_cut_matches_the_uncut_ball():
    # seeded: the cut centre is read at work + 20 bits as the full one was,
    # so on fields of degree 2..8, random elements and their powers, at 128
    # and 256 bits, every ball equals the uncut computation's; the cut is
    # taken in at least 90 percent of them
    from entrank.numberfield import eval_embedding, log_sigma_ball

    rng = random.Random(3117)
    cut = total = 0
    for field in _seeded_fields(3117, 40, 8):
        base = field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                              for _ in range(field.degree)])
        if base.is_zero():
            continue
        for x in (base, field.pow(base, rng.randint(2, 40)), field.pow(base, -rng.randint(1, 9))):
            for place in archimedean_places(field):
                for prec in (128, 256):
                    assert log_sigma_ball.__wrapped__(place, x, prec) == _uncut_log_sigma_ball(
                        place, x, prec)
                    vr, vi, _rad, _t = eval_embedding(embeddings(field, prec)[
                        place.embedding_index], x)
                    cut += max(vr.bit_length(), vi.bit_length()) > prec + 64
                    total += 1
    assert total >= 700 and cut >= 0.9 * total


def _full_root_discs(coeffs, prec):
    """root_discs as it was before each conjugate pair was iterated once:
    every start on its own, with the same sweeps, stop and radii."""
    import entrank.numberfield as nf
    from mpmath.libmp import from_float

    n, lead = len(coeffs) - 1, coeffs[-1]
    s = nf._root_scale(coeffs)
    scale = prec + 60 - min(s, 0)
    ws = [tuple(nf._scaled(from_float(c), s + scale, "n") for c in (y.real, y.imag))
          for y in nf._float_root_starts(coeffs, s)]
    for _ in range(nf._sweep_cap(n, s, scale)):
        fps, steps = [], []
        for i, (a, b) in enumerate(ws):
            fr, fi = nf._horner(coeffs, a, b, scale)
            pr, pi = lead, 0
            for j, (c, d) in enumerate(ws):
                if j != i:
                    pr, pi = pr * (a - c) - pi * (b - d), pr * (b - d) + pi * (a - c)
            den = pr * pr + pi * pi
            fps.append((fr * fr + fi * fi, den))
            steps.append(((2 * (fr * pr + fi * pi) + den) // (2 * den),
                          (2 * (fi * pr - fr * pi) + den) // (2 * den)) if den else (0, 0))
        if all(-1 <= u <= 1 and -1 <= v <= 1 for u, v in steps):
            break
        ws = [(a - u, b - v) for (a, b), (u, v) in zip(ws, steps)]
    else:
        raise AssertionError(f"the full iteration did not converge on {coeffs}")
    radii = [nf._sqrt_ratio_up(n * n * f2, p2 << 2 * scale, prec + 40) if p2 else None
             for f2, p2 in fps]
    fine = max([scale] + [t for _root, t in filter(None, radii)])
    return fine, tuple((a << (fine - scale), b << (fine - scale),
                        None if r is None else r[0] << (fine - r[1]))
                       for (a, b), r in zip(ws, radii))


def _near_real_pair(k: int) -> tuple[int, ...]:
    """x^2 - 2 10^k x + 10^(2k) + 1, with roots 10^k +- i."""
    return (10 ** (2 * k) + 1, -2 * 10**k, 1)


def _symmetric_cases():
    """Seeded squarefree integer polynomials of degree 2..8, monic and not,
    then nearly-real pairs, a tight cluster, and the tiny-root and huge-root
    polynomials of the CI's Mahler checks."""
    rng = random.Random(4242)
    cases = []
    while len(cases) < 60:
        f = [rng.randint(-6, 6) for _ in range(rng.randint(2, 8))] + [rng.choice((1, 1, -2, 3))]
        if f[0] and len(poly_gcd(f, poly_derivative(f))) == 1:
            cases.append(tuple(f))
    seeded = len(cases)
    cases += [_near_real_pair(k) for k in (1, 3, 6, 8, 20)]
    cases.append((-2, 200, -5000, 0, 0, 0, 0, 0, 1))  # x^8 - 2(50x - 1)^2: 1/50 +- 6e-9
    cases.append((-3 * 10**30, 3 + 4 * 10**330, -4 * 10**300 - 10**630, 10**600))
    cases.append((-4 * 10**600, 2 + 6 * 10**900, -3 * 10**300 - 2 * 10**1200, 10**600))
    return seeded, cases


def test_symmetric_iteration_matches_the_full_one():
    # where the float starts pair up, every complex disc has its exact
    # mirror, every real-root disc is centred on the axis, and each disc
    # meets exactly one disc of the full iteration; elsewhere root_discs is
    # the full iteration
    import entrank.numberfield as nf

    seeded, cases = _symmetric_cases()
    paired = 0
    for k, coeffs in enumerate(cases):
        s = nf._root_scale(coeffs)
        twins = nf._conjugate_twins(coeffs, s, nf._float_root_starts(coeffs, s))
        scale, discs = nf.root_discs(coeffs, nf.DEFAULT_PREC)
        full_scale, full = _full_root_discs(coeffs, nf.DEFAULT_PREC)
        if twins is None:  # the same loop as the oracle's
            assert (scale, discs) == (full_scale, full), coeffs
            continue
        paired += k < seeded
        for i, ((a, b, r), t) in enumerate(zip(discs, twins)):
            assert discs[t] == (a, -b, r) and (t == i) == (b == 0), coeffs
        top = max(scale, full_scale)
        mine = [[v if v is None else v << (top - scale) for v in d] for d in discs]
        theirs = [[v if v is None else v << (top - full_scale) for v in d] for d in full]
        for d in mine:
            assert sum(not nf._discs_disjoint([d, e]) for e in theirs) == 1, coeffs
    assert paired >= 0.9 * seeded
    # floats cannot tell 10^8 +- i from a double root: both routes iterate every start
    near = _near_real_pair(8)
    assert nf._conjugate_twins(near, nf._root_scale(near), nf._float_root_starts(
        near, nf._root_scale(near))) is None


def test_mirrored_sweeps_past_the_cap_fall_back_to_the_full_iteration(monkeypatch):
    # with one sweep allowed to the mirrored route, which needs more from
    # double-precision starts, root_discs iterates every start on its own
    import entrank.numberfield as nf

    coeffs, caps, attempts = (3, 1, 0, -2, 1), [1], []
    sweep_cap, sweeps = nf._sweep_cap, nf._durand_kerner

    def recording(coeffs, ws, twins, scale, cap):
        out = sweeps(coeffs, ws, twins, scale, cap)
        attempts.append((list(twins), out is None))
        return out

    monkeypatch.setattr(nf, "_sweep_cap", lambda *a: caps.pop() if caps else sweep_cap(*a))
    monkeypatch.setattr(nf, "_durand_kerner", recording)
    assert nf.root_discs.__wrapped__(coeffs, nf.DEFAULT_PREC) == _full_root_discs(
        coeffs, nf.DEFAULT_PREC)
    (twins, failed), (plain, converged) = attempts
    assert twins != plain == [0, 1, 2, 3] and failed and not converged


def test_log_sigma_ball_matches_the_full_iteration_route(monkeypatch):
    # seeded elements of fields of degree 2..8 and of Q(i) as x^2 - 2 10^k x
    # + 10^(2k) + 1: the balls at 128 and 256 bits are the ones the full
    # iteration's embeddings give
    import functools

    import entrank.numberfield as nf

    rng = random.Random(977)
    fields = _seeded_fields(977, 24, 8) + [build_field(_near_real_pair(k)) for k in (3, 20)]
    cases = []
    for field in fields:
        x = field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in range(field.degree)])
        if x.is_zero():
            continue
        for y in (x, field.pow(x, rng.randint(2, 30))):
            cases += [(place, y, prec) for place in archimedean_places(field)
                      for prec in (128, 256)]
    balls = [nf.log_sigma_ball.__wrapped__(*case) for case in cases]
    monkeypatch.setattr(nf, "root_discs", functools.lru_cache(maxsize=None)(_full_root_discs))
    monkeypatch.setattr(nf, "embeddings", functools.lru_cache(maxsize=None)(
        nf.embeddings.__wrapped__))
    assert [nf.log_sigma_ball.__wrapped__(*case) for case in cases] == balls
    assert len(cases) >= 200


def test_build_field_rejects_reducible():
    with pytest.raises(SpecError):
        build_field([-1, 0, 1])  # t^2 - 1


@pytest.mark.parametrize("min_poly, witness", [
    ([1, 2, 1], "x + 1"),  # a square: the witness is gcd(f, f')
    ([-6, 1, 1], "x - 2"),
    ([2, 0, 3, 0, 1], "x^2 + 1"),  # no integer root: Zassenhaus
    ([0, 0, 1], "x"),
    ([9, -6, 1, 0, 0, 0, 0, 0, 0], "x - 3"),  # trailing zeros are trimmed
])
def test_build_field_reducible_witness_text(min_poly, witness):
    with pytest.raises(SpecError) as err:
        build_field(min_poly)
    assert str(err.value) == f"min_poly is reducible; factor found: {witness}"


def test_embeddings_accept_seeded_irreducible_fields():
    # embeddings raises unless the real discs it isolates match the Sturm count
    for field in _seeded_fields(61, 500, 6):
        embs = embeddings(field)
        assert sum(e.is_real for e in embs) == field.real_embeddings
        assert len(embs) == field.real_embeddings + field.complex_pairs


@pytest.mark.parametrize("min_poly", [
    # two roots above the real axis share a real part; a sort by the centres
    # found at 256 bits put them in the other order than at 128
    (15, 58, 121, 164, 147, 86, 33, 8, 1), (25, -96, 180, -212, 169, -92, 34, -8, 1),
] + [field.min_poly for field in _seeded_fields(83, 12, 8)])
def test_an_embedding_index_names_one_root_at_every_precision(min_poly):
    from entrank.numberfield import DEFAULT_PREC, log_sigma_ball

    field = build_field(list(min_poly))
    theta = field.element([0, 1] + [0] * (field.degree - 2))
    for place in archimedean_places(field):  # a log at 128 and 256 bits, one root
        lo, hi = log_sigma_ball(place, theta), log_sigma_ball(place, theta, 2 * DEFAULT_PREC)
        slack = (lo.rad << DEFAULT_PREC) + hi.rad  # at the scale 2^-256
        assert abs((lo.re << DEFAULT_PREC) - hi.re) <= slack
        assert place.weight == 1 or abs((lo.im << DEFAULT_PREC) - hi.im) <= slack
    base = embeddings(field)
    for prec in (2 * DEFAULT_PREC, 4 * DEFAULT_PREC):
        for e, f in zip(base, embeddings(field, prec), strict=True):
            k = f.scale - e.scale  # the finer disc meets the base disc of its index
            assert k >= 0 and e.is_real == f.is_real
            gap = ((e.re << k) - f.re) ** 2 + ((e.im << k) - f.im) ** 2
            assert gap <= ((e.rad << k) + f.rad) ** 2


def test_build_field_large_integer_root():
    # the integer-root candidates come from the factorization of c0, not from
    # trial division up to sqrt|c0|
    p = 10**9 + 7
    with pytest.raises(SpecError, match=f"factor found: x - {p}$"):
        build_field([-p * p, 0, 1])
    assert build_field([10**14 + 31, 0, 1]).complex_pairs == 1


def test_build_field_two_large_primes_in_constant_term():
    # c0 = p q with p, q > 10^16: trial division leaves a composite cofactor,
    # which is not factored (Pollard rho would need about 10^8 steps);
    # Zassenhaus decides, and the witness is the linear factor of least |r|
    def next_prime(n):
        n += 1
        while not is_prime(n):
            n += 1
        return n

    p, q = next_prime(10**16), next_prime(3 * 10**16)
    start = time.perf_counter()
    assert build_field([-(p * q), 0, 1]).real_embeddings == 2
    with pytest.raises(SpecError, match=f"factor found: x - {p}$"):
        build_field([p * q, -(p + q), 1])
    with pytest.raises(SpecError, match=f"factor found: x \\+ {p}$"):
        build_field([-p * q, p - q, 1])  # (x + p)(x - q)
    with pytest.raises(SpecError, match=f"factor found: x - {p}$"):
        build_field([-p * p, 0, 1])  # roots +-p: the positive one on a tie
    assert time.perf_counter() - start < 1


def test_build_field_rejects_non_monic_and_big_degree():
    with pytest.raises(SpecError):
        build_field([1, 2])
    with pytest.raises(SpecError):
        build_field([1] + [0] * 8 + [1])  # degree 9


def test_gauss_signature():
    assert GAUSS.real_embeddings == 0 and GAUSS.complex_pairs == 1


# ---------------------------------------------------------------------------
# norms and arithmetic
# ---------------------------------------------------------------------------

def test_norm_examples():
    assert Q.norm(Q.element([Fraction(5, 32)])) == Fraction(5, 32)
    assert GOLDEN.norm(GOLDEN.element([-1, 2])) == -5  # 2 theta - 1
    assert GOLDEN.norm(GOLDEN.element([0, 1])) == -1  # theta


def test_norm_of_zero_rejected():
    with pytest.raises(MathDomainError):
        GOLDEN.norm(GOLDEN.zero())


def test_norm_is_multiplicative():
    rng = random.Random(5)
    for _ in range(25):
        x = GOLDEN.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)])
        y = GOLDEN.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)])
        if x.is_zero() or y.is_zero():
            continue
        assert GOLDEN.norm(GOLDEN.mul(x, y)) == GOLDEN.norm(x) * GOLDEN.norm(y)


def test_inverse_and_pow_vector():
    x = GOLDEN.element([-1, 2])
    assert GOLDEN.mul(x, GOLDEN.inv(x)) == GOLDEN.one()
    th = GOLDEN.element([0, 1])
    two = GOLDEN.element([2, 0])
    # theta^3 = 2 theta + 1, so theta^3 / 4 = (1/4, 1/2)
    assert GOLDEN.pow_vector((th, two), (3, -2)) == GOLDEN.element([Fraction(1, 4), Fraction(1, 2)])


def test_negative_powers_share_one_cached_inverse(monkeypatch):
    from entrank.numberfield import NumberField, _pow_cached

    calls = []
    inv = NumberField.inv

    def counting_inv(self, x):
        calls.append(x)
        return inv(self, x)

    monkeypatch.setattr(NumberField, "inv", counting_inv)
    _pow_cached.cache_clear()
    x = GOLDEN.element([3, -7])
    x3 = GOLDEN.pow(x, -3)
    assert GOLDEN.mul(x3, GOLDEN.pow(x, 3)) == GOLDEN.one()
    assert GOLDEN.mul(GOLDEN.pow(x, -5), GOLDEN.pow(x, 5)) == GOLDEN.one()
    assert GOLDEN.pow_vector((x, x), (-2, 4)) == GOLDEN.pow(x, 2)
    assert calls == [x]


def test_root_of_unity_order():
    assert Q.root_of_unity_order(Q.element([-1])) == 2
    assert Q.root_of_unity_order(Q.element([1])) == 1
    assert Q.root_of_unity_order(Q.element([2])) is None
    assert GOLDEN.root_of_unity_order(GOLDEN.element([0, 1])) is None
    x = GAUSS.element([Fraction(3, 5), Fraction(4, 5)])  # (3 + 4i) / 5: norm 1, not integral
    assert GAUSS.norm(x) == 1 and GAUSS.root_of_unity_order(x) is None


@pytest.mark.parametrize("min_poly, root, m, unit", [
    # -zeta_5 generates the roots of unity of Q(zeta_5); 1 + zeta_5 is a unit
    ([1, 1, 1, 1, 1], [0, -1, 0, 0], 10, [1, 1, 0, 0]),
    ([1, 0, 0, 0, 1], [0, 1, 0, 0], 8, [1, 1, 0, -1]),  # zeta_8; 1 + sqrt 2
    ([1, 0, -1, 0, 1], [0, 1, 0, 0], 12, [1, 1, 0, 0]),  # zeta_12; 1 + zeta_12
])
def test_root_of_unity_order_finds_every_root_of_unity(min_poly, root, m, unit):
    field = build_field(min_poly)
    zeta = field.element(root)
    powers = [field.pow(zeta, k) for k in range(m)]
    assert len(set(powers)) == m
    assert [field.root_of_unity_order(x) for x in powers] == [m // math.gcd(m, k)
                                                              for k in range(m)]
    # an integral unit of norm 1 passes the norm test and takes the full route
    u = field.element(unit)
    assert field.norm(u) == 1 and all(c.denominator == 1 for c in field.charpoly(u))
    assert field.root_of_unity_order(u) is None


def test_integral_norm_is_the_resultant():
    # A of degree 1..8 over monic f of degree 1..8, zero constant terms
    # included, coefficients up to 10^30: the norm is Res(f, A), the
    # Sylvester determinant, on every route the degrees take
    import entrank.numberfield as nf
    from tests.test_algebra import _sylvester_resultant

    rng = random.Random(1902)
    determinants = 0
    for _ in range(600):
        big = rng.choice((3, 10**6, 10**30))
        f = [rng.randint(-big, big) for _ in range(rng.randint(1, 8))] + [1]
        a = [rng.randint(-big, big) for _ in range(rng.randint(1, 8))] + [rng.randint(1, big)]
        if rng.random() < 0.3:
            f[0] = 0
        if rng.random() < 0.3:
            a[0] = 0
        determinants += 2 < len(a) < len(f)
        assert nf._integral_norm.__wrapped__(tuple(f), tuple(a)) == _sylvester_resultant(f, a)
    assert determinants >= 150


# ---------------------------------------------------------------------------
# places
# ---------------------------------------------------------------------------

def test_places_above_rationals():
    pl = finite_places_above(Q, 2)
    assert len(pl) == 1 and pl[0].res_degree == 1 and pl[0].ram_index == 1


def test_places_golden_inert_2():
    pl = finite_places_above(GOLDEN, 2)
    assert len(pl) == 1 and pl[0].res_degree == 2 and pl[0].ram_index == 1


def test_places_golden_ramified_5():
    pl = finite_places_above(GOLDEN, 5)
    assert len(pl) == 1 and pl[0].res_degree == 1 and pl[0].ram_index == 2


def test_places_split_and_degree_sum():
    for field, p in ((GOLDEN, 11), (GAUSS, 5), (GAUSS, 2), (GOLDEN, 19)):
        pl = finite_places_above(field, p)
        assert sum(q.res_degree * q.ram_index for q in pl) == field.degree


def test_ord_v_examples():
    vq2 = finite_places_above(Q, 2)[0]
    assert ord_v(vq2, Q.element([Fraction(5, 32)])) == -5
    v2 = finite_places_above(GOLDEN, 2)[0]
    assert ord_v(v2, GOLDEN.element([-1, 2])) == 0
    assert ord_v(v2, GOLDEN.element([2, 0])) == 1


def test_ord_v_split_prime():
    places = finite_places_above(GAUSS, 5)
    z = GAUSS.element([2, 1])  # 2 + i, norm 5
    vals = sorted(ord_v(p, z) for p in places)
    assert vals == [0, 1]
    zbar = GAUSS.element([2, -1])
    assert sorted(ord_v(p, zbar) for p in places) == [0, 1]
    # conjugates sit at different places
    assert [ord_v(p, z) for p in places] != [ord_v(p, zbar) for p in places]


def test_ord_v_additive_at_split_prime():
    places = finite_places_above(GAUSS, 5)
    rng = random.Random(17)
    for _ in range(15):
        x = GAUSS.element([rng.randint(-6, 6), rng.randint(-6, 6)])
        y = GAUSS.element([rng.randint(-6, 6), rng.randint(-6, 6)])
        if x.is_zero() or y.is_zero():
            continue
        xy = GAUSS.mul(x, y)
        for p in places:
            assert ord_v(p, xy) == ord_v(p, x) + ord_v(p, y)


def test_valuations_above_split_the_norm():
    # seeded fields of degree 2..6 at primes below 60 with several places:
    # sum f_v ord_v(x) = ord_p N(x), ord_v(xy) = ord_v(x) + ord_v(y), ord_v(p) = e_v
    rng = random.Random(41)
    split_primes = 0
    for field in _seeded_fields(41, 30, 6):
        for p in PRIMES_BELOW_60:
            try:
                places = finite_places_above(field, p)
            except UnsupportedPrimeError:
                continue
            if len(places) < 2:
                continue
            split_primes += 1
            zeros = [0] * (field.degree - 1)
            assert (valuations_above(field, p, field.element([p] + zeros))
                    == tuple(v.ram_index for v in places))
            for _ in range(3):
                x, y = (field.mul(  # times (theta - a)^k to reach positive valuations
                    field.element([Fraction(rng.randint(-9, 9), rng.choice((1, 2, p)))
                                   for _ in range(field.degree)]),
                    field.pow(field.element([-rng.randrange(p), 1] + zeros[1:]),
                              rng.randint(0, 3)))
                    for _ in range(2))
                if x.is_zero() or y.is_zero():
                    continue
                vx, vy = valuations_above(field, p, x), valuations_above(field, p, y)
                assert sum(v.res_degree * o for v, o in zip(places, vx)) == ord_p(field.norm(x), p)
                assert (valuations_above(field, p, field.mul(x, y))
                        == tuple(a + b for a, b in zip(vx, vy)))
                assert tuple(ord_v(v, x) for v in places) == vx
    assert split_primes >= 20


def _check_support_split(field, p: int, xs, ys) -> tuple[bool, bool]:
    """Checks the split keyed by support_mod_p(field, p, xs) against the
    full split at p, on the valuations of ys too; returns (the support is
    None, the split left a cofactor block)."""
    import entrank.numberfield as nf

    support = support_mod_p(field, p, xs)
    full = finite_places_above(field, p)
    places = finite_places_above(field, p, support)
    if support is None:
        kept = full
    else:  # the full split's places where some x is not a unit
        columns = [valuations_above(field, p, x) for x in xs]
        kept = [v for v, ords in zip(full, zip(*columns)) if any(ords)]
    assert [v.label() for v in places] == [v.label() for v in kept]
    split, whole = nf._local_split(field, p, support), nf._local_split(field, p, None)
    assert split.factors == tuple(whole.factors[v.index] for v in kept)
    cofactor = len(split.blocks) > len(places)
    assert all(v.siblings == len(places) + cofactor for v in places)
    outside = [v for v in full if v not in kept]
    for y in ys:
        vals = valuations_above(field, p, y)
        assert valuations_above(field, p, y, support) == tuple(vals[v.index] for v in kept)
        assert [ord_v(v, y) for v in places] == [vals[v.index] for v in kept]
        if cofactor:  # shares of the integral part a: one lifted resultant per block
            a = field.element(y.num)
            va = valuations_above(field, p, a)
            k = 1 << ord_p(field.norm(a), p).bit_length()
            shares = [ord_p(resultant(block, a.num), p)
                      for block in nf._lifted_local_factors(field, p, k, support)]
            assert shares[:-1] == [v.res_degree * va[v.index] for v in kept]
            assert shares[-1] == sum(v.res_degree * va[v.index] for v in outside)
    return support is None, cofactor


def test_support_split_is_the_full_split_restricted():
    # seeded fields of degree 2..8 at the primes below 60 and at the large
    # primes of their elements' norms; p dividing a denominator of xs keys
    # the full split, and the support split of the others must be the full
    # split restricted to the places where some xs_i is not a unit
    rng = random.Random(53)
    kinds = set()
    large = 0
    for field in _seeded_fields(53, 16, 8):
        zeros = [0] * (field.degree - 1)
        x0, x1 = (field.element([Fraction(rng.randint(-2, 2), rng.choice((1, 1, 1, 2, 3)))
                                 for _ in range(field.degree)]) for _ in range(2))
        if x0.is_zero() or x1.is_zero():
            continue
        norm_primes = {q for x in (x0, x1) for q in factor_int(field.norm(x).numerator)}
        for p in PRIMES_BELOW_60 + sorted(q for q in norm_primes if q > 60):
            try:
                finite_places_above(field, p)
            except UnsupportedPrimeError:
                continue
            large += p > 60
            over_p = field.element([Fraction(1, p)] + zeros)
            xs = [field.mul(x0, field.pow(field.element([-rng.randrange(p), 1] + zeros[1:]),
                                          rng.randint(0, 2))), x1]
            ys = xs + [field.sub(field.mul(x0, x1), field.one()), field.sub(x0, x1),
                       field.mul(x0, over_p)]
            kinds.add(_check_support_split(field, p, xs, ys))
            kinds.add(_check_support_split(field, p, [field.mul(x1, over_p), x0], ys))
    assert {(True, False), (False, True), (False, False)} <= kinds and large >= 10


def _gauss_point(k: int, j: int):
    return GAUSS.mul(GAUSS.pow(GAUSS.element([2, 1]), k), GAUSS.pow(GAUSS.element([2, -1]), j))


def test_reused_lift_gives_the_same_valuations():
    # (2 + i)^k (2 - i)^j at p = 5 in a seeded order, so v_total = k + j and
    # the lift precision it asks for go up and down; valuations read from
    # the cached lifts must be what fresh lifts give
    import entrank.numberfield as nf

    pairs = [(k, j) for k in range(13) for j in range(13)]
    random.Random(5).shuffle(pairs)
    places = finite_places_above(GAUSS, 5)  # theta = 3, then theta = 2 mod 5
    nf._lifted_local_factors.cache_clear()
    for k, j in pairs:
        x = _gauss_point(k, j)
        got = valuations_above(GAUSS, 5, x)
        assert got == (k, j)
        assert sum(v.res_degree * o for v, o in zip(places, got)) == ord_p(GAUSS.norm(x), 5)
    for k, j in pairs:
        nf._lifted_local_factors.cache_clear()
        nf._integral_norm.cache_clear()
        assert valuations_above(GAUSS, 5, _gauss_point(k, j)) == (k, j)  # from a fresh lift


def test_one_lift_serves_every_lower_precision():
    # a lift to 5^k is the lift to 5^16 reduced mod 5^k
    import entrank.numberfield as nf

    top = nf._lifted_local_factors(GAUSS, 5, 16)
    for k in (8, 2, 16, 4, 1):
        assert nf._lifted_local_factors(GAUSS, 5, k) == [tuple(c % 5**k for c in blk)
                                                          for blk in top]


@pytest.mark.parametrize("steps", [(2, 8, 16), (4, 16, 32), (1, 2, 4, 8, 16)])
def test_continued_lifts_match_a_lift_from_p(steps):
    # the local lifts asked for in a sequence of precisions each equal a
    # lift from p to a higher precision reduced mod p^k, byte for byte
    import entrank.numberfield as nf
    from entrank.polyfactor import hensel_lift_factors

    nf._lifted_local_factors.cache_clear()
    pairs = 0
    for field in [GAUSS, GOLDEN] + _seeded_fields(41, 8, 6):
        for p in (2, 3, 5, 7, 11, 13):
            try:
                blocks = [list(b) for b in nf._local_split(field, p, None).blocks]
            except UnsupportedPrimeError:
                continue
            ref = hensel_lift_factors(field.min_poly, blocks, p, 2 * steps[-1])
            for k in steps:
                got = nf._lifted_local_factors(field, p, k)
                assert got == [tuple(c % p**k for c in blk) for blk in ref]
            pairs += len(blocks) > 1
    assert pairs >= 20


def _sweep_components(seed: str):
    """(field, xi) of the benchmark's spec-sweep specs for one seed: the same
    draws as perfbench's generator, kept where the field parses."""
    from entrank import parse_spec

    rng = random.Random(seed)
    out = []
    for degree, wanted in {2: 12, 3: 12, 4: 12, 5: 48, 6: 12, 7: 12, 8: 12}.items():
        kept = 0
        while kept < wanted:
            min_poly = [rng.randint(-3, 3) for _ in range(degree)] + [1]
            xi = [[x for _ in range(degree)
                   for x in (rng.randint(-2, 2), rng.choice((1, 1, 1, 2, 3)))]
                  for _ in range(2)]
            try:
                comp = parse_spec({"d": 2, "components": [
                    {"char": 0, "min_poly": min_poly, "xi": xi}]}).components[0][0]
            except SpecError:
                continue
            out.append((comp.field, comp.xi))
            kept += 1
    return out


def _split_or_error(field, p, support):
    import entrank.numberfield as nf

    try:
        return nf._local_split.__wrapped__(field, p, support)
    except UnsupportedPrimeError:
        return "unsupported"


def test_squarefree_shortcut_is_the_full_split(monkeypatch):
    # where p does not divide disc(min_poly) the split takes f mod p as its
    # one squarefree part; with the discriminant read as 0 every prime takes
    # the squarefree decomposition, and the two must agree on factors, e_v,
    # f_v and blocks, on the fields of the sweep's seeds 1.0-2.0: at every
    # support prime keyed by its support as placement keys it, and at every
    # prime up to 50 with support=None (on seed 1.0, to keep the time down)
    import entrank.numberfield as nf

    cases = []
    for seed in ("1.0", "1.1", "2.0"):
        for field, xs in _sweep_components(seed):
            if seed == "1.0":
                cases += [(field, p, None) for p in range(2, 51) if is_prime(p)]
            denominators = {c.denominator for x in xs for c in field.charpoly(x)}
            denominators |= {(c / field.charpoly(x)[0]).denominator
                             for x in xs for c in field.charpoly(x)}
            for p in sorted({q for den in denominators for q in factor_int(den)}):
                cases.append((field, p, support_mod_p(field, p, xs)))
    shortcut = [_split_or_error(field, p, support) for field, p, support in cases]
    monkeypatch.setattr(nf, "discriminant", lambda f: 0)
    assert [_split_or_error(field, p, support) for field, p, support in cases] == shortcut
    squarefree = sum(discriminant(field.min_poly) % p != 0 for field, p, _s in cases)
    assert squarefree >= 0.8 * len(cases) and shortcut.count("unsupported") >= 20
    with pytest.raises(UnsupportedPrimeError):  # 2 divides [O_K : Z[sqrt -3]]
        nf._local_split.__wrapped__(build_field([3, 0, 1]), 2, None)


def test_support_primes_read_in_integers_match_the_fractions():
    # placement reads the denominators of charpoly(xi) and charpoly(1/xi)
    # off the cached integer core; the Fraction reading gives the same primes
    from entrank.action import _support_primes

    checked = 0
    for seed in ("1.0", "2.0"):
        for field, xs in _sweep_components(seed):
            denominators = {c.denominator for x in xs for c in field.charpoly(x)}
            denominators |= {(c / field.charpoly(x)[0]).denominator
                             for x in xs for c in field.charpoly(x)}
            want = sorted({q for den in denominators for q in factor_int(den)})
            assert _support_primes(field, xs) == want
            checked += len(want) > 0
    assert checked >= 200


def test_root_of_unity_order_reads_integers():
    # (-1 + theta)/2 and (1 + theta)/2 in Q(sqrt -3) are integral over a
    # denominator 2, of orders 3 and 6; (1 + theta)/2 in Q(sqrt 5) is an
    # integral unit of norm -1 but no root of unity
    sqrt_m3, sqrt_5 = build_field([3, 0, 1]), build_field([-5, 0, 1])
    assert sqrt_m3.root_of_unity_order(sqrt_m3.element([Fraction(-1, 2), Fraction(1, 2)])) == 3
    assert sqrt_m3.root_of_unity_order(sqrt_m3.element([Fraction(1, 2), Fraction(1, 2)])) == 6
    golden = sqrt_5.element([Fraction(1, 2), Fraction(1, 2)])
    assert [c.denominator for c in sqrt_5.charpoly(golden)] == [1, 1, 1]
    assert sqrt_5.charpoly(golden)[0] == -1 and sqrt_5.root_of_unity_order(golden) is None
    zeta5 = build_field([1, 1, 1, 1, 1])
    assert zeta5.root_of_unity_order(zeta5.element([0, -1, 0, 0])) == 10
    # seeded: None wherever the Fraction charpoly is not integral or its
    # constant term is not +-1
    rng = random.Random(12)
    for field in _seeded_fields(12, 40, 8):
        x = field.element([Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                           for _ in range(field.degree)])
        if x.is_zero():
            continue
        cp = field.charpoly(x)
        if abs(cp[0]) != 1 or any(c.denominator != 1 for c in cp):
            assert field.root_of_unity_order(x) is None


def test_dedekind_criterion_holds_where_p_squared_misses_the_discriminant():
    # p^2 not dividing disc(f) already makes Z[theta] p-maximal, so running
    # the criterion at every prime must accept every such p
    checked = 0
    for field in _seeded_fields(43, 60, 8):
        disc = discriminant(field.min_poly)
        for p in PRIMES_BELOW_60:
            if disc % (p * p):
                checked += 1
                parts = gf_squarefree_parts(gf_from_int_poly(field.min_poly, p), p)
                assert _dedekind_p_maximal(field.min_poly, p, parts)
    assert checked >= 500
    with pytest.raises(UnsupportedPrimeError):  # 2 divides [O_K : Z[sqrt -3]]
        finite_places_above(build_field([3, 0, 1]), 2)


def test_abs_v_examples():
    arch = archimedean_places(Q)[0]
    assert abs(log_abs_v(arch, Q.element([Fraction(-5, 32)])) - math.log(5 / 32)) < 1e-15
    vq2 = finite_places_above(Q, 2)[0]
    assert log_abs_v(vq2, Q.element([Fraction(5, 32)])) == math.log(32.0)
    a_golden = archimedean_places(GOLDEN)
    th = GOLDEN.element([0, 1])
    vals = sorted(log_abs_v(p, th) for p in a_golden)
    assert abs(vals[1] - math.log(1.618033988749895)) < 1e-12


def test_log_abs_v_examples():
    arch = archimedean_places(Q)[0]
    two = Q.element([2])
    assert abs(log_abs_v(arch, two) - math.log(2)) < 1e-12
    v2 = finite_places_above(Q, 2)[0]
    assert abs(log_abs_v(v2, two) + math.log(2)) < 1e-15
    v3 = finite_places_above(Q, 3)[0]
    assert log_abs_v(v3, two) == 0.0
    # exact at the archimedean place of Q: log 1 is 0, not a rounding residue
    assert log_abs_v(arch, Q.element([-1])) == 0.0
    big = Q.element([Fraction(3**700, 2**900)])
    assert abs(log_abs_v(arch, big) - (700 * math.log(3) - 900 * math.log(2))) < 1e-9


def test_compare_abs_to_one():
    # the archimedean branch test reads a ball for log |x|_v
    arch = archimedean_places(GOLDEN)[1]  # embedding ~1.618
    assert compare_abs_to_one(arch, log_abs_v_ball(arch, GOLDEN.element([0, 1]))) == 1
    assert compare_abs_to_one(arch, log_abs_v_ball(arch, GOLDEN.element([1, -1]))) == -1
    assert compare_abs_to_one(arch, (1e-30, 2e-30)) == 0  # the ball still contains 0
    with pytest.raises(MathDomainError):
        compare_abs_to_one(finite_places_above(Q, 2)[0], (1.0, 0.0))


def _support_places(field, x):
    nrm = field.norm(x)
    primes = sorted(set(factor_int(nrm.numerator)) | set(factor_int(nrm.denominator)))
    out = list(archimedean_places(field))
    for p in primes:
        out.extend(finite_places_above(field, p))
    return out


@pytest.mark.parametrize("field", [Q, GOLDEN, GAUSS])
def test_product_formula(field):
    rng = random.Random(field.degree * 31)
    done = 0
    while done < 12:
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(field.degree)]
        x = field.element(coords)
        if x.is_zero():
            continue
        done += 1
        total = sum(log_abs_v(p, x) for p in _support_places(field, x))
        assert abs(total) < 1e-12  # float conversion limits the cancellation


@pytest.mark.parametrize("field", [GOLDEN, GAUSS])
def test_archimedean_product_is_norm(field):
    rng = random.Random(field.degree * 57)
    for _ in range(10):
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(field.degree)]
        x = field.element(coords)
        if x.is_zero():
            continue
        total = sum(log_abs_v(p, x) for p in archimedean_places(field))
        assert abs(total - math.log(abs(float(field.norm(x))))) < 1e-9


def test_ord_p_norm_consistency_unique_place():
    # f_v = 2 at the inert place: |2|_v = 4^{-1}
    v2 = finite_places_above(GOLDEN, 2)[0]
    assert log_abs_v(v2, GOLDEN.element([2, 0])) == math.log(0.25)
    assert ord_p(GOLDEN.norm(GOLDEN.element([2, 0])), 2) == 2
    # differential against the norm, denominators included: 2 is inert in
    # Q(sqrt5) (f = 2) and ramified in Q(i) (f = 1), one place above it each
    rng = random.Random(29)
    for field in (GOLDEN, GAUSS):
        place = finite_places_above(field, 2)[0]
        assert place.siblings == 1
        for _ in range(40):
            x = field.element([Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 4, 8, 12]))
                               for _ in range(2)])
            if x.is_zero():
                continue
            v = ord_p(field.norm(x), 2)
            assert v % place.res_degree == 0
            assert ord_v(place, x) == v // place.res_degree


@pytest.mark.parametrize("min_poly, coords", [
    ([-2, 1], [Fraction(3, 4)]),
    ([-5, 0, 1], [Fraction(1, 2), Fraction(1, 2)]),
    ([3, 1, 1], [Fraction(-2), Fraction(-2, 3)]),
    ([3, 3, 1, -2, 1], [Fraction(-1), Fraction(0), Fraction(-1, 3), Fraction(0)]),
])
def test_charpoly_annihilates_and_carries_the_norm(min_poly, coords):
    field = build_field(min_poly)
    x = field.element(coords)
    cp = field.charpoly(x)
    assert len(cp) == field.degree + 1 and cp[-1] == 1
    assert cp[0] == (-1) ** field.degree * field.norm(x)
    acc, power = field.zero(), field.one()
    for c in cp:  # Cayley-Hamilton: cp(x) = 0
        acc = field.add(acc, field.mul(field.element([c] + [0] * (field.degree - 1)), power))
        power = field.mul(power, x)
    assert acc.is_zero()


# ---------------------------------------------------------------------------
# the element format against a Fraction reference
# ---------------------------------------------------------------------------

def _differential_fields():
    """Degrees 1-8: Q, Q(theta) with theta = -3, golden mean, Q(i), Q(2^(1/3)),
    and seeded monic irreducibles of degree 4-8 accepted by parse_spec."""
    from entrank import parse_spec

    fields = [Q, build_field([3, 1]), GOLDEN, GAUSS, build_field([-2, 0, 0, 1])]
    rng = random.Random(4242)
    for degree in range(4, 9):
        while True:
            min_poly = [rng.randint(-3, 3) for _ in range(degree)] + [1]
            try:
                spec = parse_spec({"d": 1, "components": [
                    {"char": 0, "min_poly": min_poly, "xi": [[1, 1] + [0, 1] * (degree - 1)]}]})
            except SpecError:
                continue
            fields.append(spec.components[0][0].field)
            break
    return fields


def _coords(x):
    return [Fraction(a, x.den) for a in x.num]


def _ref_mul(field, a, b):
    """a * b mod min_poly on Fraction coordinates."""
    n, f = field.degree, field.min_poly
    prod = [Fraction(0)] * (2 * n - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] += u * v
    for i in range(2 * n - 2, n - 1, -1):  # theta^i = theta^(i-n) (theta^n - min_poly)
        t = prod.pop()
        for j in range(n):
            prod[i - n + j] -= t * f[j]
    return prod


def _ref_solve(field, a, X=0):
    """(det(X - M), solution t of (X - M) t = e_0) for M the matrix of
    multiplication by a, by Gauss-Jordan elimination over Fractions."""
    n = field.degree
    cols = [_ref_mul(field, a, [Fraction(int(i == j)) for i in range(n)]) for j in range(n)]
    rows = [[X * (i == j) - cols[j][i] for j in range(n)] + [Fraction(int(i == 0))]
            for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return Fraction(0), None
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                k = rows[r][c]
                rows[r] = [v - k * w for v, w in zip(rows[r], rows[c])]
    return det, [row[n] for row in rows]


def _ref_inv(field, a):
    det, t = _ref_solve(field, a)
    assert det != 0
    return [-c for c in t]  # (-M) t = e_0


def _ref_pow(field, a, k):
    base = _ref_inv(field, a) if k < 0 else a
    acc = [Fraction(1)] + [Fraction(0)] * (field.degree - 1)
    for _ in range(abs(k)):
        acc = _ref_mul(field, acc, base)
    return acc


def _canonical(x):
    return x.den > 0 and math.gcd(x.den, *x.num) == 1 and all(type(a) is int for a in x.num)


@pytest.mark.parametrize("field", _differential_fields(), ids=lambda f: f"deg{f.degree}")
def test_element_arithmetic_matches_fraction_reference(field):
    rng = random.Random(1000 + sum(field.min_poly) + 17 * field.degree)
    n = field.degree

    def rand_coords():
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]

    one = field.one()
    for _ in range(12):
        a, b = rand_coords(), rand_coords()
        x, y = field.element(a), field.element(b)
        assert _coords(x) == a and _canonical(x)
        for got, want in [(field.add(x, y), [u + v for u, v in zip(a, b)]),
                          (field.sub(x, y), [u - v for u, v in zip(a, b)]),
                          (field.mul(x, y), _ref_mul(field, a, b))]:
            assert _canonical(got) and _coords(got) == want
        if x.is_zero():
            continue
        inv = field.inv(x)
        assert _canonical(inv) and _coords(inv) == _ref_inv(field, a)
        assert field.mul(x, inv) == one
        for k in (-3, -1, 0, 2, 5):
            got = field.pow(x, k)
            assert _canonical(got) and _coords(got) == _ref_pow(field, a, k)
        assert field.norm(x) == (-1) ** n * _ref_solve(field, a)[0]  # det(-M) = (-1)^n N(x)
        # charpoly(X) = det(X - M) at degree + 1 points
        cp = field.charpoly(x)
        for X in range(-1, n + 1):
            assert sum(c * X**j for j, c in enumerate(cp)) == _ref_solve(field, a, X)[0]


@pytest.mark.parametrize("field", [Q, GOLDEN, build_field([-2, 0, 0, 1])],
                         ids=lambda f: f"deg{f.degree}")
def test_equal_values_compare_and_hash_equal(field):
    n = field.degree
    half = field.element([Fraction(2, 4)] + [Fraction(6, 4)] * (n - 1))
    same = field.element([Fraction(1, 2)] + [Fraction(3, 2)] * (n - 1))
    assert half == same and hash(half) == hash(same)
    assert (half.num, half.den) == ((1,) + (3,) * (n - 1), 2)
    # numerators with a common factor reach the same lowest terms
    x = field.element([Fraction(3, 7)] + [Fraction(-9, 14)] * (n - 1))
    six = field.element([6] + [0] * (n - 1))
    by_add = field.add(field.add(x, x), field.add(field.add(x, x), field.add(x, x)))
    by_mul = field.mul(six, x)
    assert by_add == by_mul and hash(by_add) == hash(by_mul)
    assert by_mul.den == 7 and math.gcd(by_mul.den, *by_mul.num) == 1
    assert field.sub(x, x) == field.zero() and field.zero().den == 1
    assert field.mul(x, field.inv(x)) == field.one()
    assert len({half, same, field.element(_coords(half))}) == 1


def test_log_abs_one_minus_exp_declines_a_ball_wider_than_half():
    # t = -1 +- r at scale 2^-128: r = 1/2 is evaluated, any wider ball is not
    import mpmath as mp
    from mpmath.libmp import from_man_exp

    from entrank.numberfield import DyadicBall
    from entrank.scan import one_minus_exp_factor

    for place in (archimedean_places(GOLDEN)[0], archimedean_places(GAUSS)[0]):
        t = DyadicBall(-(1 << 128), 0, 1 << 127)
        term = one_minus_exp_factor(place, t, [(t.re, t.im)], 128)
        with mp.workprec(200):
            value = mp.log(mp.make_mpf(from_man_exp(term.man, term.exp)))
            rad = mp.ldexp(term.rho, -128)
            assert abs(value - place.weight * mp.log(1 - mp.exp(-1))) <= rad
        wide = DyadicBall(-(1 << 128), 0, (1 << 127) + 1)
        assert one_minus_exp_factor(place, wide, [(wide.re, wide.im)], 128) is None


def test_safe_mpf_log_near_a_quarter():
    # mpmath 1.3.0's mpf_log gives 7.9e-31 here; log((2^100 + 1) 2^-102)
    # is -log 4 + 2^-100 to within 2^-200
    import mpmath as mp
    from mpmath.libmp import from_man_exp, mpf_log, to_float

    from entrank.numberfield import safe_mpf_log

    x = from_man_exp(2**100 + 1, -102)
    assert to_float(safe_mpf_log(x, 53, "n"), rnd="n") == -math.log(4)
    with mp.workprec(300):
        exact = mp.log(mp.make_mpf(x))
        got = mp.make_mpf(safe_mpf_log(x, 200, "n"))
        assert abs(got - exact) <= abs(exact) * mp.mpf(2) ** -199
    # away from 1/4 it is libmp's own log
    for y in (from_man_exp(3, -3), from_man_exp(2**60 + 1, -61), from_man_exp(7, 5)):
        assert safe_mpf_log(y, 100, "n") == mpf_log(y, 100, "n")
