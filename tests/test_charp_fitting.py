"""Char-p counts for d <= 2 come from one exact sequence: in d = 2 the
generators' gcd G, counted as the width of its Newton polygon, less on the
polygon's edge lines the drops read from per-edge tables that placement
builds, plus the finite quotient R/J by the cofactors; in d = 1, deg gcd(G,
u^|n| - 1). The level-chain closed form and the Hermite loop on the full
presentation at n itself (both kept here as oracles), Groebner bases and
the window oracle are the independent references."""

import math
import random
import re
import time
from collections import Counter
from itertools import product

import pytest

import entrank.counting
from entrank import (
    CharPComponent,
    ConsistencyError,
    LaurentPolynomial,
    MathDomainError,
    ResourceLimitError,
    charp_window_oracle,
    count_composite,
    count_prime_charp,
    ledrappier_axis_closed_form,
    parse_spec,
    place_spec,
)
from entrank.action import iter_shell_points, mixing_check
from entrank.counting import _axis_generators as axis_generators
from entrank.counting import _charp_base_generators as base_generators
from entrank.counting import _groebner_dim as groebner_dim
from entrank.counting import _relation_for as relation_for
from entrank.counting import charp_membership_violations, finite_quotient_dim
from entrank.groebner import GroebnerBasis
from entrank.polyfactor import GfPoly, gf_add, gf_divmod, gf_factor, gf_gcd, gf_mul, gf_sub


def fitting_dim(pc: CharPComponent, n):
    try:
        res = count_prime_charp(pc, n)
    except MathDomainError as e:
        assert "infinite" in str(e)
        return None
    q, dim = res.factored
    assert q == pc.q and res.value == q**dim
    return dim


def laurent_mul(f: dict, g: dict, q: int) -> dict:
    out: dict = {}
    for a, c in f.items():
        for b, e in g.items():
            k = tuple(x + y for x, y in zip(a, b))
            out[k] = (out.get(k, 0) + c * e) % q
    return {k: v for k, v in out.items() if v}


def random_case(rng: random.Random):
    """A random ideal with 1-3 generators and a direction n. About a third
    of the ideals lie inside (u^k - 1) for some k dividing n, which makes
    the count infinite."""
    q = rng.choice([2, 3, 5])
    d = rng.choice([1, 2])
    while True:
        n = tuple(rng.randint(-6, 6) for _ in range(d))
        if any(n):
            break
    common = None
    if rng.random() < 0.3:
        t = rng.choice([1, 2]) if all(v % 2 == 0 for v in n) else 1
        k = tuple(v // t for v in n)
        common = {tuple(max(v, 0) for v in k): 1, tuple(max(-v, 0) for v in k): q - 1}
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {tuple(rng.randint(-1, 2) for _ in range(d)): rng.randrange(1, q)
                 for _ in range(rng.randint(2, 4))}
        if common:
            terms = laurent_mul(terms, common, q)
        if terms:
            gens.append(LaurentPolynomial(terms=tuple(sorted(terms.items()))))
    return CharPComponent(q=q, d=d, generators=tuple(gens)), n


@pytest.fixture(scope="module")
def led_pc(ledrappier):
    return ledrappier.charp()[0][0]


def test_fitting_matches_groebner_seeded():
    rng = random.Random(20060915)
    seen = {"finite": 0, "infinite": 0}
    for _ in range(250):
        pc, n = random_case(rng)
        expected = groebner_dim(pc, n)
        assert fitting_dim(pc, n) == expected, (pc, n)
        seen["infinite" if expected is None else "finite"] += 1
    assert seen["infinite"] >= 25 and seen["finite"] >= 150, seen


@pytest.mark.parametrize("q, d, terms, n", [
    # neither end of any cyclic lift has a unit coefficient until the shear k = 1
    (3, 2, [[((1, 1), 1), ((1, 0), 1), ((0, 0), 1), ((0, 1), 1), ((0, 2), 1)]], (4, 0)),
    # unit only at the low end: the presentation is flipped by w1 -> 1/w1
    (3, 2, [[((1, 1), 1), ((1, 0), 1), ((0, 0), 2)]], (4, 0)),
    # leading coefficient w2^k with k > 0; at (-12, 0) only after a cyclic lift
    (2, 2, [[((1, 2), 1), ((0, 0), 1), ((0, 1), 1)], [((0, 3), 1), ((1, 0), 1)]], (6, 0)),
    (2, 2, [[((0, 0), 1), ((1, 0), 1), ((0, 1), 1)]], (-12, 0)),
    # a modulus of w1-degree 2, and two generators off the axes
    (5, 2, [[((2, 1), 3), ((1, 0), 1), ((0, 2), 4)]], (5, -5)),
    (2, 2, [[((2, 1), 1), ((2, 0), 1), ((0, 0), 1)], [((1, 1), 1), ((0, 0), 1)]], (3, 3)),
    # d = 1, with and without generators
    (3, 1, [[((0,), 1), ((2,), 1)], [((-1,), 2), ((3,), 1)]], (12,)),
    (5, 1, [], (7,)),
    (2, 2, [], (2, 1)),
    # every shear leaves two terms in each w1-class: the modulus is w1^g - 1
    (5, 2, [[((0, 0), 1), ((0, 1), 1), ((1, 0), 2), ((1, 1), 2)]], (2, 0)),
])
def test_fitting_matches_groebner_chosen(q, d, terms, n):
    pc = CharPComponent(q=q, d=d, generators=tuple(
        LaurentPolynomial(terms=tuple(sorted(t))) for t in terms))
    assert fitting_dim(pc, n) == groebner_dim(pc, n)


F3_IDEAL = CharPComponent(q=3, d=2, generators=(LaurentPolynomial(terms=(
    ((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((1, 0), 1), ((1, 1), 1))),))


def test_shear_gives_a_modulus_where_no_lift_does():
    # (1 + u2) u1 + 1 + u2 + u2^2 over F_3: in the Hermite oracle's
    # presentation no cyclic lift has a unit leading w1-coefficient, but
    # after the shear k = 1 one has w1-degree 2
    assert hermite_oracle(F3_IDEAL, (4, 0)) == groebner_dim(F3_IDEAL, (4, 0))
    assert hermite_oracle(F3_IDEAL, (513, 0)) == 1026
    assert count_prime_charp(F3_IDEAL, (513, 0)).factored == (3, 1026)


def image(v, e) -> tuple[int, ...]:
    return tuple(sum(r * x for r, x in zip(row, e)) for row in v)


def transformed(pc: CharPComponent, v) -> CharPComponent:
    """The component under the ring automorphism u^e -> u^(V e)."""
    return CharPComponent(q=pc.q, d=pc.d, generators=tuple(
        LaurentPolynomial(terms=tuple(sorted((image(v, e), c) for e, c in gen.terms)))
        for gen in pc.generators))


def test_count_is_invariant_under_unimodular_maps():
    rng = random.Random(1990)
    cases = 0
    while cases < 200:
        pc, n = random_case(rng)
        if pc.d != 2:
            continue
        while True:
            v = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            if abs(v[0][0] * v[1][1] - v[0][1] * v[1][0]) == 1:
                break
        assert fitting_dim(transformed(pc, v), image(v, n)) == fitting_dim(pc, n), (pc, n, v)
        cases += 1
    for v in ([[0, -1], [1, 0]], [[2, 1], [1, 1]], [[1, 0], [3, 1]]):
        res = count_prime_charp(transformed(F3_IDEAL, v), image(v, (513, 0)))
        assert res.factored == (3, 1026), v


def test_d1_closed_forms_at_large_n():
    rng = random.Random(2005)
    for q in (2, 3, 5):
        n = rng.randint(1, 10**5) * rng.choice([-1, 1])
        zero = CharPComponent(q=q, d=1, generators=())
        assert count_prime_charp(zero, (n,)).factored == (q, abs(n))
        for _ in range(4):
            k = rng.randint(1, 12)
            n = rng.randint(1, 10**5) * rng.choice([-1, 1])
            pc = CharPComponent(q=q, d=1, generators=(
                LaurentPolynomial(terms=(((0,), q - 1), ((k,), 1))),))
            assert count_prime_charp(pc, (n,)).factored == (q, math.gcd(k, n)), (q, k, n)


@pytest.mark.parametrize("n", [96, 100, 1024, 99999])
def test_closed_form_deep_axis(led_pc, n):
    assert count_prime_charp(led_pc, (n, 0)) == ledrappier_axis_closed_form(n)
    assert count_prime_charp(led_pc, (-n, 0)).value == ledrappier_axis_closed_form(n).value
    assert count_prime_charp(led_pc, (0, n)).value == ledrappier_axis_closed_form(n).value


def test_window_oracle_fibonacci_direction(led_pc):
    w = charp_window_oracle(led_pc, (89, 55))
    assert w.stabilized and w.count.value == 2**144
    assert count_prime_charp(led_pc, (89, 55)) == w.count


def test_large_vectors_count_fast(led_pc):
    # 2^987 at (610, 377) was confirmed by the window oracle, which takes
    # seconds there; on the F_3 ideal each count is a few gcds in F_3[w1]
    for pc, n, e in [(led_pc, (610, 377), 987), (led_pc, (1024, 0), 0),
                     (F3_IDEAL, (4096, 0), 8190), (F3_IDEAL, (16384, 0), 32766),
                     (F3_IDEAL, (65536, 0), 131070), (F3_IDEAL, (65536, 131072), 262144)]:
        t0 = time.perf_counter()
        res = count_prime_charp(pc, n)
        assert time.perf_counter() - t0 < 1.0, n
        assert res.factored == (pc.q, e) and res.value == pc.q**e


def test_counts_past_the_bit_cap_are_refused(led_pc):
    # q^dim is formed only while dim * ceil(log2 q) stays within
    # COUNT_BITS_CAP: on Ledrappier (q = 2) the width at (k - 1, 1) is k
    cap = entrank.counting.COUNT_BITS_CAP
    assert count_prime_charp(led_pc, (cap - 1, 1)).factored == (2, cap)
    with pytest.raises(ResourceLimitError, match=re.escape(f"n={(cap, 1)} is 2^{cap + 1}")):
        count_prime_charp(led_pc, (cap, 1))
    # over F_3 the bound is 2 dim: 3^524288 is admitted (3^262144, the
    # largest count the CI prints, has half that bound), 3^524289 is not
    assert count_prime_charp(F3_IDEAL, (131072, 262144)).factored == (3, cap // 2)
    with pytest.raises(ResourceLimitError, match=re.escape(f"is 3^{cap // 2 + 1},")):
        count_prime_charp(F3_IDEAL, (131072, 262145))


def test_count_is_even_in_n(led_pc):
    rng = random.Random(5)
    for _ in range(20):
        n = (rng.randint(-60, 60), rng.randint(-60, 60))
        if any(n):
            neg = (-n[0], -n[1])
            assert count_prime_charp(led_pc, n) == count_prime_charp(led_pc, neg), n


def test_composite_factored_from_component():
    spec = parse_spec({"d": 2, "components": [
        {"multiplicity": 2, "char": 2,
         "generators": [{"terms": [{"exp": [0, 0], "coeff": 1},
                                   {"exp": [1, 0], "coeff": 1},
                                   {"exp": [0, 1], "coeff": 1}]}]}]})
    res = count_composite(place_spec(spec), (610, 377))
    assert res.factored == (2, 2 * 987) and res.value == 2**(2 * 987)
    assert res.per_component == ((2**987, 2),)


def test_placement_builds_the_decomposition():
    # place_spec builds each d <= 2 char-p component's decomposition, edge
    # tables included, so that no count builds one; d >= 3 builds none
    cache = entrank.counting._decomposition
    cache.cache_clear()
    ps = place_spec(parse_spec({"d": 2, "components": [
        {"char": 3, "generators": [{"terms": [{"exp": [0, 0], "coeff": 1}, {"exp": [2, 1], "coeff": 1},
                                              {"exp": [1, 3], "coeff": 2}]}]},
        {"char": 2, "generators": [{"terms": [{"exp": [0, 0], "coeff": 1},
                                              {"exp": [1, 0], "coeff": 1}]}]}]}))
    assert cache.cache_info().misses == 2
    for n in [(0, 1), (3, 2), (-2, -1), (4, 2)]:  # (4, 2) lies on an edge line of the first
        count_composite(ps, n)
    assert cache.cache_info().misses == 2
    place_spec(parse_spec({"d": 3, "components": [{"char": 2, "generators": [
        {"terms": [{"exp": [0, 0, 0], "coeff": 1}, {"exp": [1, 1, 1], "coeff": 1}]}]}]}))
    assert cache.cache_info().misses == 2


def test_no_groebner_basis_for_d_at_most_2(monkeypatch, led_pc):
    class Forbidden:
        def __init__(self, *args, **kwargs):
            raise AssertionError("GroebnerBasis built")

    monkeypatch.setattr(entrank.counting, "GroebnerBasis", Forbidden)
    entrank.counting._decomposition.cache_clear()
    rng = random.Random(11)
    several = []
    for _ in range(40):
        pc, n = random_case(rng)
        if pc.d == 2 and len(pc.generators) > 1:
            several.append((pc, n))
            continue
        fitting_dim(pc, n)
    for n in [(1, 1), (100, 0), (-13, 21)]:
        count_prime_charp(led_pc, n)
    assert charp_membership_violations(led_pc, 6) == []
    # several generators with a unit cofactor u^e (every third planted
    # ideal), and several generators in d = 1: J = R, so no basis either
    unit_cofactor = _planted_common_factors(36, 36, 2)[::3] + _planted_common_factors(37, 4, 1)
    for pc in unit_cofactor:
        assert len(pc.generators) > 1 and (finite_quotient_dim(pc) == 0 or pc.d == 1)
        for n in [(1, 1), (2, -3), (0, 3), (4, 0)] if pc.d == 2 else [(1,), (-4,), (6,)]:
            fitting_dim(pc, n)
        if pc.d == 2:
            charp_membership_violations(pc, 5)
    d3 = CharPComponent(q=2, d=3, generators=(
        LaurentPolynomial(terms=(((0, 0, 0), 1), ((1, 0, 0), 1), ((0, 1, 1), 1))),))
    with pytest.raises(AssertionError, match="GroebnerBasis built"):
        count_prime_charp(d3, (1, 0, 0))
    # several generators in d = 2: one basis, of the cofactors' ideal J, per
    # component however many n are counted, and none for the n themselves
    built = []
    real = GroebnerBasis
    monkeypatch.setattr(entrank.counting, "GroebnerBasis",
                        lambda *args: built.append(args) or real(*args))
    entrank.counting._decomposition.cache_clear()
    for pc, n in several:
        built.clear()
        for k in range(1, 9):
            fitting_dim(pc, (k * n[0], -k * n[1]))
        assert len(built) == 1, pc
    assert len(several) >= 8, len(several)


def _one_generator_components(seed: int, count: int):
    """Ledrappier, the F_3 ideal, and count seeded one-generator ideals over
    F_2, F_3 or F_5 with 3-6 terms whose exponents lie in [0, 3]^2."""
    rng = random.Random(seed)
    out = [CharPComponent(q=2, d=2, generators=(LaurentPolynomial(
        terms=(((0, 0), 1), ((0, 1), 1), ((1, 0), 1))),)), F3_IDEAL]
    while len(out) < count + 2:
        q = rng.choice([2, 3, 5])
        terms = {(rng.randint(0, 3), rng.randint(0, 3)): rng.randrange(1, q)
                 for _ in range(rng.randint(3, 6))}
        if len(terms) >= 3:
            out.append(CharPComponent(q=q, d=2, generators=(
                LaurentPolynomial(terms=tuple(sorted(terms.items()))),)))
    return out


def test_frobenius_scales_the_exponent():
    # in characteristic p, u^(q^j m) - 1 = (u^m - 1)^(q^j). A = R/(f) is
    # Cohen-Macaulay of dimension 1, so where the count at m is finite x =
    # u^m - 1 is a nonzerodivisor on A, each x^i A / x^(i+1) A is A / xA,
    # and the exponent at q^j m is q^j times the exponent at m
    checked = 0
    for pc in _one_generator_components(478, 18):
        for m in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]:
            dim = fitting_dim(pc, m)
            if dim is None:
                continue
            for j in (1, 2):
                assert fitting_dim(pc, tuple(pc.q**j * v for v in m)) == pc.q**j * dim, (pc, m, j)
                checked += 1
    assert checked >= 150, checked


def test_frobenius_scales_the_groebner_exponent():
    # the same identity read from the Groebner oracle: dim at q m is q times
    # dim at m, and both equal the Fitting exponent
    rng = random.Random(2828)
    checked = 0
    for i in range(10):
        q = (2, 3)[i % 2]
        terms = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randrange(1, q) for _ in range(4)}
        pc = CharPComponent(q=q, d=2, generators=(
            LaurentPolynomial(terms=tuple(sorted(terms.items()))),))
        for m in [(1, 0), (0, 1), (1, 1), (1, -1)]:
            qm = tuple(q * v for v in m)
            dim = groebner_dim(pc, m)
            assert dim == fitting_dim(pc, m), (pc, m)
            if dim is None:
                continue
            assert groebner_dim(pc, qm) == q * dim == fitting_dim(pc, qm), (pc, m)
            checked += 1
    assert checked >= 30, checked


def test_reduced_count_matches_the_direct_route():
    # count_prime_charp counts a one-generator d = 2 component at the q-free
    # part m of n and scales by q^j; the Hermite oracle taken at q^j m
    # itself must agree, finite or infinite
    seen = {"finite": 0, "infinite": 0}
    for pc in _one_generator_components(478, 18):
        for m in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]:
            dim = hermite_oracle(pc, m)
            for j in (1, 2):
                n = tuple(pc.q**j * v for v in m)
                scaled = None if dim is None else pc.q**j * dim
                assert fitting_dim(pc, n) == hermite_oracle(pc, n) == scaled, (pc, m, j)
                seen["infinite" if dim is None else "finite"] += 1
    assert seen["finite"] >= 190 and seen["infinite"] >= 2, seen


@pytest.mark.parametrize("d, terms, exponents", [
    # d = 1: (1 + u)^2 over F_2, where u - 1 is not a non-zero-divisor
    (1, [[((0,), 1), ((2,), 1)]], {(1,): 1, (2,): 2, (4,): 2, (8,): 2}),
    # two generators: the quotient by 1 + u1, 1 + u2 is F_2 in every direction
    (2, [[((0, 0), 1), ((1, 0), 1)], [((0, 0), 1), ((0, 1), 1)]],
     {(1, 0): 1, (2, 0): 1, (4, 0): 1}),
])
def test_frobenius_scaling_needs_one_generator_in_d2(d, terms, exponents):
    pc = CharPComponent(q=2, d=d, generators=tuple(
        LaurentPolynomial(terms=tuple(t)) for t in terms))
    for n, e in exponents.items():
        assert fitting_dim(pc, n) == e == groebner_dim(pc, n), n


def test_reduced_infinite_count_names_the_callers_n():
    pc = CharPComponent(q=2, d=2, generators=(
        LaurentPolynomial(terms=(((0, 0), 1), ((1, 0), 1))),))
    with pytest.raises(MathDomainError, match=r"n=\(4, 0\)"):
        count_prime_charp(pc, (4, 0))


# ---------------------------------------------------------------------------
# The Hermite oracle: the Fitting ideal of a presentation over A = F_q[w2^+-]
# (Einsiedler-Ward; Lind-Schmidt-Ward 1990). A unimodular change of
# coordinates, sheared if need be, sends n to (g, 0), so the quotient is a
# finitely generated module over the PID A, presented over A[w1]/(m) = A^D
# for a modulus m whose leading w1-coefficient is a unit. dim is the Laurent
# span of the gcd of the maximal minors, from a column Hermite form over
# F_q[w2], a Euclid loop whose column operations keep the ideal of maximal
# minors; the count is infinite exactly when that gcd is 0. d = 1 is the
# d = 2 quotient by u2 - 1, at (n, 0). It counts at n itself, with no
# Frobenius scaling and no gcd, so it shares no step with count_prime_charp.
# ---------------------------------------------------------------------------

W1Poly = list[list[int]]  # polynomial in w1, ascending, with coefficients in F_q[w2]


def _as_d2(pc: CharPComponent, n):
    """(pc, n), a d = 1 component taken as the d = 2 ring modulo u2 - 1 at (n, 0)."""
    if pc.d == 2:
        return pc, n
    gens = tuple(LaurentPolynomial(terms=tuple(((e, 0), c) for (e,), c in gen.terms))
                 for gen in pc.generators)
    gens += (LaurentPolynomial(terms=(((0, 0), pc.q - 1), ((0, 1), 1))),)
    return CharPComponent(q=pc.q, d=2, generators=gens), (n[0], 0)


def _w1_poly(poly: dict) -> W1Poly:
    """poly as a polynomial in w1 over F_q[w2], divided by its lowest w1 power."""
    low = min(a for a, _j in poly)
    out: W1Poly = [[] for _ in range(max(a for a, _j in poly) - low + 1)]
    for (a, j), c in poly.items():
        coeff = out[a - low]
        coeff.extend([0] * (j + 1 - len(coeff)))
        coeff[j] = c
    return out


def _ord_w2(f: GfPoly) -> int:
    return next(i for i, c in enumerate(f) if c)


def _laurent_span(f: GfPoly) -> int:
    """deg - ord_w2: the F_q-dimension of A/(f)."""
    return len(f) - 1 - _ord_w2(f)


def _reduce(p: W1Poly, m: W1Poly, q: int) -> tuple[W1Poly, int]:
    """(r, s) with r = w2^s * (p mod m) in A[w1], r free of any common w2 factor.

    The leading w1-coefficient of m must be a monomial c * w2^k, a unit of A;
    each division step multiplies by the power of w2 that keeps every
    coefficient inside F_q[w2].
    """
    p = list(p)
    deg = len(m) - 1
    k = len(m[-1]) - 1
    inv = pow(m[-1][k], -1, q)
    s = 0
    while len(p) > deg:
        top = p.pop()
        if not top:
            continue
        lift = max(0, k - _ord_w2(top))
        if lift:
            p = [[0] * lift + c if c else c for c in p]
            top = [0] * lift + top
            s += lift
        f = [c * inv % q for c in top[k:]]
        shift = len(p) - deg
        for i, mc in enumerate(m[:-1]):
            p[shift + i] = gf_sub(p[shift + i], gf_mul(f, mc, q), q)
    strip = min((_ord_w2(c) for c in p if c), default=0)
    if strip:
        p = [c[strip:] if c else c for c in p]
    return p, s - strip


def _mul(a: W1Poly, b: W1Poly, q: int) -> W1Poly:
    out: W1Poly = [[] for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = gf_add(out[i + j], gf_mul(x, y, q), q)
    return out


def _w1_power_minus_one(g: int, m: W1Poly, q: int) -> W1Poly:
    """A unit multiple of (w1^g - 1) mod m, by square-and-multiply."""
    acc: W1Poly = [[1]]
    e = 0  # w1^(bits so far) mod m = w2^-e * acc
    for bit in bin(g)[2:]:
        acc, s = _reduce(_mul(acc, acc, q), m, q)
        e = 2 * e + s
        if bit == "1":
            acc, s = _reduce([[]] + acc, m, q)
            e += s
    # w1^g - 1 = w2^-e * (acc - w2^e)
    if e < 0:
        acc = [[0] * -e + c if c else c for c in acc]
        e = 0
    return [gf_sub(acc[0], [0] * e + [1], q)] + acc[1:]


def _fitting_dim(columns: list[W1Poly], rows: int, q: int) -> int | None:
    """Laurent span of the gcd of the maximal minors of a rows x len(columns)
    matrix over A, or None when that gcd is 0.

    Column Hermite elimination over F_q[w2]: in each row a Euclidean loop
    of column operations leaves one pivot column, whose diagonal entry is a
    factor of the gcd; the other columns are zero in that row and carry on.
    Column operations over F_q[w2] keep the ideal of maximal minors, so the
    diagonal's product spans it. The columns still active at row i are zero
    above it, so each Euclid step updates rows i and below only, row i
    taking the division's remainder.
    """
    dim = 0
    for i in range(rows):
        active = [c for c in columns if c[i]]
        columns = [c for c in columns if not c[i]]
        if not active:
            return None
        while len(active) > 1:
            active.sort(key=lambda c: len(c[i]))
            pivot = active[0]
            survivors = [pivot]
            for col in active[1:]:
                quo, rem = gf_divmod(col[i], pivot[i], q)
                col = col[:i] + [rem] + [gf_sub(x, gf_mul(quo, y, q), q)
                                         for x, y in zip(col[i + 1:], pivot[i + 1:])]
                (survivors if col[i] else columns).append(col)
            active = survivors
        dim += _laurent_span(active[0][i])
    return dim


def _presentation(pc: CharPComponent, n) -> tuple[list[W1Poly], int] | None:
    """(columns, rows): F_q[w1^+-, w2^+-]/(generators, w1^g - 1) as the
    cokernel of a rows x len(columns) matrix over A = F_q[w2^+-], presented
    over A[w1]/(m) = A^rows; None when m is a unit and the quotient is 0.

    m is the shortest of w1^g - 1 and the generator lifts whose top w1-class
    is one term, a unit of A. Each cyclic lift spans the same ideal; with the
    classes sorted, the one cut at r_i has top r_(i-1) and degree
    (r_(i-1) - r_i) mod g, and top r_i after w1 -> 1/w1. When k = 0 gives no
    lift and g > 1, the shears w1^a w2^b -> w1^(a + kb) w2^b, k < t (the most
    terms of a generator), are tried too: U's second row added k times to its
    first keeps U n = (g, 0). Bound: fix a term w1^a0 w2^b0 of a generator of
    t terms and w2-span B. Another term w1^a w2^b joins its class under shear
    k iff k (b - b0) = a0 - a mod g: never if b = b0, else for k spaced at
    least g / B apart. If g >= t B, each rules out at most one k < t, so some
    k < t leaves the fixed term alone, the top class of a lift. So w1^g - 1
    wins only when g < t B, and then g^2 < t |n|_1 (exponent span).

    Each relation other than m gives the columns h, w1 h, ..., w1^(rows - 1) h
    mod m.
    """
    pc, n = _as_d2(pc, n)
    q = pc.q
    g, gens_w = axis_generators(pc, n)
    # (degree, generators, index of m, class sent to w1^0, direction): w1^g - 1 first
    best = (g, gens_w, None, 0, 1)
    for k in range(max(map(len, gens_w), default=1)):
        if k == 1 and (best[2] is not None or g == 1):
            break
        sheared = [{((a + k * j) % g, j): c for (a, j), c in p.items()} for p in gens_w]
        for i, poly in enumerate(sheared):
            sizes = Counter(a for a, _j in poly)
            classes = sorted(sizes)
            for prev, cut in zip(classes[-1:] + classes[:-1], classes):
                deg = (prev - cut) % g
                for top, origin, sign in ((prev, cut, 1), (cut, prev, -1)):
                    if sizes[top] == 1 and deg < best[0]:
                        best = (deg, sheared, i, origin, sign)
    _deg, sheared, i, origin, sign = best
    relations = [_w1_poly({(sign * (a - origin) % g, j): c for (a, j), c in p.items()})
                 for p in sheared]
    if i is None:  # the modulus is w1^g - 1
        m = [[q - 1]] + [[] for _ in range(g - 1)] + [[1]]
    else:
        m = relations.pop(i)
        if len(m) == 1:
            return None  # m is a monomial, a unit
        relations.append(_w1_power_minus_one(g, m, q))
    rows = len(m) - 1
    columns = []
    for h in relations:  # h, w1 h, ..., w1^(rows - 1) h mod m
        cols = [_reduce(h, m, q)[0]]
        while len(cols) < rows:
            cols.append(_reduce([[]] + cols[-1], m, q)[0])
        columns += [c + [[] for _ in range(rows - len(c))] for c in cols]
    return columns, rows


def hermite_oracle(pc: CharPComponent, n) -> int | None:
    """dim at n itself, with no Frobenius scaling, from the Hermite/Euclid
    loop on the full presentation, square or not."""
    pres = _presentation(pc, n)
    return 0 if pres is None else _fitting_dim(*pres, pc.q)


def _random_laurent(rng: random.Random, q: int, d: int, terms: int, top: int) -> dict:
    while True:
        out = {tuple(rng.randint(0, top) for _ in range(d)): rng.randrange(1, q)
               for _ in range(terms)}
        if len(out) > 1:
            return out


def _planted_common_factors(seed: int, count: int, d: int):
    """count seeded ideals G h_1, ..., G h_k over F_2, F_3 or F_5 with k = 2
    or 3. A third have a cofactor u^e, a unit, so that J = (h_i) is the
    whole ring; in d = 2 a third have G divisible by u^m - 1, which makes
    the count infinite on the multiples of m."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        q = rng.choice([2, 3, 5])
        common = _random_laurent(rng, q, d, rng.randint(2, 3), 2)
        if d == 2 and i % 3 == 1:
            m = rng.choice([(1, 0), (0, 1), (1, 1)])
            common = laurent_mul(common, {(0, 0): q - 1, m: 1}, q)
        cofactors = [_random_laurent(rng, q, d, rng.randint(2, 3), 2)
                     for _ in range(rng.randint(2, 3))]
        if i % 3 == 0:
            cofactors[rng.randrange(len(cofactors))] = {
                tuple(rng.randint(-1, 1) for _ in range(d)): 1}
        out.append(CharPComponent(q=q, d=d, generators=tuple(
            LaurentPolynomial(terms=tuple(sorted(laurent_mul(common, h, q).items())))
            for h in cofactors)))
    return out


def test_closed_form_and_fitting_routes_match_the_hermite_oracle(monkeypatch):
    # count_prime_charp counts the gcd G in d = 2 (one generator is its own
    # G), as the width of its Newton polygon, less on the polygon's edge
    # lines the drops from the edge table of n's direction, and adds the
    # finite part R/J when D > 0; d = 1 takes deg gcd(G, u^|n| - 1) from the
    # same decomposition, with none of the d = 2 steps. The Hermite loop on
    # the full presentation at n itself is the oracle for every route, and
    # Groebner bases for the small n
    routes = []
    for name in ("_edge_drops", "_finite_part_dim"):
        def spy(*args, _name=name, _f=getattr(entrank.counting, name)):
            routes.append(_name)
            return _f(*args)
        monkeypatch.setattr(entrank.counting, name, spy)
    rng = random.Random(32)
    cases = [(pc, n) for pc in _one_generator_components(321, 16)
             for n in [(1, 0), (3, -2), (5, 8), (4, 0), (6, 9), (-10, 4), (9, 0), (12, -18)]]
    for _ in range(24):
        q = rng.choice([2, 3, 5])
        gens = [{(rng.randint(-1, 2), rng.randint(-1, 2)): rng.randrange(1, q)
                 for _ in range(rng.randint(2, 4))} for _ in range(rng.randint(2, 3))]
        pc = CharPComponent(q=q, d=2, generators=tuple(
            LaurentPolynomial(terms=tuple(sorted(t.items()))) for t in gens))
        cases += [(pc, n) for n in [(1, 1), (2, -5), (0, 3), (4, 2), (-6, 0)]]
    # planted infinite counts: 1 + u1 and (1 + u1)(1 + u2) over F_2 vanish on
    # u1 = 1, two generators with the common factor 1 + u1 u2 on u1 u2 = 1
    u1 = CharPComponent(q=2, d=2, generators=(
        LaurentPolynomial(terms=(((0, 0), 1), ((1, 0), 1))),))
    u1u2 = CharPComponent(q=2, d=2, generators=(
        LaurentPolynomial(terms=(((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), 1))),))
    diagonal = CharPComponent(q=3, d=2, generators=(
        LaurentPolynomial(terms=(((0, 0), 2), ((1, 1), 1))),
        LaurentPolynomial(terms=(((0, 0), 1), ((0, 1), 2), ((1, 1), 2), ((1, 2), 1))),))
    cases += [(u1, n) for n in [(1, 0), (4, 0), (3, 0), (2, 2)]]
    cases += [(u1u2, n) for n in [(1, 0), (0, 2), (3, 0), (0, 6), (1, 1)]]
    cases += [(diagonal, n) for n in [(1, 1), (-2, -2), (1, 0), (6, 3)]]
    # several generators with planted common factors, in d = 2 and d = 1
    cases += [(pc, n) for pc in _planted_common_factors(36, 36, 2)
              for n in [(1, 1), (2, -3), (0, 3), (4, 2), (-6, 0), (3, 0), (1, 0)]]
    cases += [(pc, (n,)) for pc in _planted_common_factors(37, 12, 1) for n in (1, -4, 6, 12)]
    # d = 1 with no generators, and (1 + u)^2 over F_2
    zero = CharPComponent(q=3, d=1, generators=())
    square = CharPComponent(q=2, d=1, generators=(
        LaurentPolynomial(terms=(((0,), 1), ((2,), 1))),))
    cases += [(zero, (n,)) for n in (1, 5, -7)] + [(square, (n,)) for n in (1, 2, 4, -8)]
    seen, dims, lines = Counter(), set(), Counter()
    for pc, n in cases:
        routes.clear()
        got = fitting_dim(pc, n)
        if pc.d == 1:
            kind, want = "d = 1", []
        else:
            # one generator's exponents are G's up to a shift, read here
            # without the decomposition
            if len(pc.generators) == 1:
                kind, dim, exps = "one generator", 0, [e for e, _c in pc.generators[0].terms]
            else:
                dim = finite_quotient_dim(pc)
                dims.add(dim)
                kind = "D > 0" if dim else "D = 0"
                exps = [(e1, e2) for e1, e2, _c in entrank.counting._decomposition(pc).terms]
            on_line = _on_edge_line(exps, n)
            lines[on_line] += 1
            want = ["_edge_drops"] if on_line else []
            if dim and got is not None:
                want.append("_finite_part_dim")
        assert routes == want, (pc, n, routes)
        assert got == hermite_oracle(pc, n), (pc, n)
        if max(map(abs, n)) <= 3:
            assert got == groebner_dim(pc, n), (pc, n)
        seen[kind, got is None] += 1
    for kind in ("one generator", "D > 0", "D = 0"):
        assert seen[kind, False] >= 5 and seen[kind, True] >= 1, seen
    assert seen["d = 1", False] >= 40 and max(dims) >= 3, (seen, dims)
    assert min(lines.values()) >= 100, lines


def _on_edge_line(exps, n) -> bool:
    """n is parallel to an edge of the Newton polygon of the exponents
    (e1, e2): two of them take the largest or the smallest s = n1 e2 -
    n2 e1. False for a single exponent, whose polygon is a point."""
    s = sorted(n[0] * e2 - n[1] * e1 for e1, e2 in exps)
    return len(s) > 1 and (s[0] == s[1] or s[-2] == s[-1])


def _width(exps, n) -> int:
    """The width of the Newton polygon of the exponents across n."""
    s = [n[0] * e2 - n[1] * e1 for e1, e2 in exps]
    return max(s) - min(s)


def closed_form_oracle(terms, q: int, n) -> int | None:
    """dim R/(G, u^n - 1) for G != 0 and q not dividing gcd(n), or None when
    infinite, from the levels of G at n itself: g B minus the drops of the
    two gcd chains gcd(w1^g - 1, C_b0, ..., C_bj), walked from each end,
    each step dropping the chain's degree times the gap to the next level
    (the closed form the edge tables regroup)."""
    counting = entrank.counting
    g, levels = counting._w1_levels(terms, n)
    drops = 0
    for walk in (levels, levels[::-1]):
        common = counting._gcd_with_w1_power_minus_one(g, walk[0][1], q)
        for (b, _c), (b_next, c_next) in zip(walk, walk[1:]):
            if len(common) == 1:
                break
            drops += (len(common) - 1) * abs(b_next - b)
            common = gf_gcd(common, c_next, q)
        if len(common) > 1:
            return None  # a root of w1^g - 1 shared by every level
    return g * (levels[-1][0] - levels[0][0]) - drops


def oracle_dim(pc: CharPComponent, n) -> int | None:
    """The exponent at n from the closed-form oracle: the width off the edge
    lines of G's polygon, on them the oracle at the q-free part m of n =
    q^j m times q^j; plus the finite part R/J where D > 0."""
    dec = entrank.counting._decomposition(pc)
    exps = [(e1, e2) for e1, e2, _c in dec.terms]
    if not exps:
        return None
    if _on_edge_line(exps, n):
        m, scale = n, 1
        while not (m[0] % pc.q or m[1] % pc.q):
            m, scale = (m[0] // pc.q, m[1] // pc.q), scale * pc.q
        dim = closed_form_oracle(dec.terms, pc.q, m)
        if dim is None:
            return None
        dim *= scale
    else:
        dim = _width(exps, n)
    return dim + (entrank.counting._finite_part_dim(dec, n, pc.q) if dec.dim else 0)


def test_counts_off_the_edge_lines_are_the_polygons_width():
    # where n is parallel to no edge of the Newton polygon N(f), both end
    # w2-levels of f are single terms, neither gcd chain drops, and the
    # exponent is the width of N(f) across n (Einsiedler-Lind 2004). Each
    # such count is checked against the closed-form oracle called at the
    # q-free part m of n = q^j m and scaled by q^j; on the edge lines the
    # count equals the width, falls below it, or is infinite
    seen = Counter()
    for pc in _one_generator_components(99, 80):
        exps = [e for e, _c in pc.generators[0].terms]
        terms = entrank.counting._decomposition(pc).terms
        for n in product(range(-12, 13), repeat=2):
            if not any(n):
                continue
            got, width = fitting_dim(pc, n), _width(exps, n)
            if not _on_edge_line(exps, n):
                m, scale = n, 1
                while not (m[0] % pc.q or m[1] % pc.q):
                    m, scale = (m[0] // pc.q, m[1] // pc.q), scale * pc.q
                assert got == width == closed_form_oracle(terms, pc.q, m) * scale, (pc, n)
                seen["width"] += 1
            elif got is None:
                seen["infinite"] += 1
            else:
                assert got <= width, (pc, n)
                seen["equal" if got == width else "below"] += 1
    assert seen == {"width": 45940, "equal": 1816, "below": 3256, "infinite": 156}, seen


def test_edge_tables_match_the_closed_form_oracle():
    # every n in [-12, 12]^2 \ 0 and eight large n on edge lines, for
    # seeded one-generator ideals and planted several-generator ones: the
    # count from the edge tables is the level-chain oracle's exponent
    large = [(720, 0), (0, -2187), (3125, 3125), (-840, 840), (600, 1200), (1260, -630),
             (1024, 3072), (-4096, 0)]
    points = [n for n in product(range(-12, 13), repeat=2) if any(n)] + large
    comps = (_one_generator_components(99, 80) + _one_generator_components(5150, 40)
             + _planted_common_factors(36, 36, 2) + _planted_common_factors(4242, 60, 2))
    seen = Counter()
    for pc in comps:
        for n in points:
            got = fitting_dim(pc, n)
            assert got == oracle_dim(pc, n), (pc, n)
            seen[got is None] += 1
    assert seen == {False: 139040 - 2062, True: 2062}, seen


def _with_edges(monkeypatch, change):
    """Count with _decomposition's edge tables replaced by change(edges)."""
    real = entrank.counting._decomposition
    monkeypatch.setattr(entrank.counting, "_decomposition",
                        lambda pc: (dec := real(pc))._replace(edges=change(dec.edges)))


class _LookupLog(dict):
    """A dict that appends to asked each key looked up with get."""

    def __init__(self, items, asked: list):
        super().__init__(items)
        self.asked = asked

    def get(self, key, default=None):
        self.asked.append(key)
        return super().get(key, default)


def test_a_closed_form_past_the_width_is_refused(monkeypatch, led_pc):
    # on an edge line the exponent can fall below the width of G's Newton
    # polygon across n but never exceed it, nor fall below 0: a table gap
    # made negative (an exponent past the width) or inflated (an exponent
    # below 0) is a ConsistencyError naming the n that was asked for, and
    # off the edge lines no table is read
    for bump in (lambda gap: -1, lambda gap: gap + 50):
        asked = []
        _with_edges(monkeypatch, lambda edges, bump=bump, asked=asked: _LookupLog(
            {e: tuple((block, cycle, bump(gap)) for block, cycle, gap in table)
             for e, table in edges.items()}, asked))
        assert fitting_dim(led_pc, (5, -7)) == 7 and asked == []
        for n in [(6, 0), (0, -3), (12, -12), (-5, 5)]:
            with pytest.raises(ConsistencyError, match=re.escape(f"n={n}")):
                count_prime_charp(led_pc, n)
        assert len(asked) == 4


def _component(q: int, terms) -> CharPComponent:
    return CharPComponent(q=q, d=2, generators=(LaurentPolynomial(terms=tuple(sorted(terms))),))


def _blocks(pc, e):
    """The (block, gap) pairs of the edge table along e."""
    return sorted((tuple(block), gap) for block, _c, gap in entrank.counting._decomposition(pc).edges[e])


def test_edge_tables_follow_the_polygons_shape():
    # the hull of G's exponents names the table keys, both signs of each
    # edge direction; each count is checked against the Hermite loop and,
    # at small n, Groebner bases
    axes = {(1, 0), (-1, 0), (0, 1), (0, -1)}
    shapes = {
        # a single term, a unit: no edge, and every count is q^0
        "point": (_component(3, [((2, 1), 1)]), set()),
        # collinear terms: a segment, whose one level divides itself
        "segment": (_component(2, [((0, 0), 1), ((1, 0), 1)]), {(1, 0), (-1, 0)}),
        "three on a line": (_component(2, [((0, 0), 1), ((1, 0), 1), ((3, 0), 1)]),
                            {(1, 0), (-1, 0)}),
        # a parallelogram with both ends non-monomial: (1 + u1)(1 + u2) and
        # one whose faces are parted by a monomial level
        "(1 + u1)(1 + u2)": (_component(3, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((1, 1), 1)]),
                             axes),
        "parted": (_component(2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((0, 2), 1),
                                  ((1, 2), 1)]), axes),
        # a face factor of degree 2, 1 + w + w^2 of order 3
        "degree 2": (_component(2, [((0, 0), 1), ((1, 0), 1), ((2, 0), 1), ((0, 1), 1)]),
                     {(1, 0), (-1, 0), (-2, 1), (2, -1), (0, 1), (0, -1)}),
    }
    for name, (pc, keys) in shapes.items():
        assert set(entrank.counting._decomposition(pc).edges) == keys, name
        for n in [(1, 0), (2, 0), (3, 0), (6, 0), (9, 0), (0, 2), (3, 3), (2, -1), (12, -6)]:
            got = fitting_dim(pc, n)
            assert got == hermite_oracle(pc, n), (name, n)
            if max(map(abs, n)) <= 3:
                assert got == groebner_dim(pc, n), (name, n)
    assert fitting_dim(shapes["point"][0], (5, 7)) == 0
    assert fitting_dim(shapes["segment"][0], (4, 0)) is None
    assert _blocks(shapes["three on a line"][0], (1, 0)) == [((1, 1, 0, 1), None)]
    assert _blocks(shapes["(1 + u1)(1 + u2)"][0], (1, 0)) == [((1, 1), None)] * 2
    assert _blocks(shapes["parted"][0], (1, 0)) == [((1, 1), 1)] * 2
    assert _blocks(shapes["degree 2"][0], (1, 0)) == [((1, 1, 1), 1)]
    assert [fitting_dim(shapes["degree 2"][0], (g, 0)) for g in range(1, 13)] == [
        1, 2, 1, 4, 5, 2, 7, 8, 7, 10, 11, 4]


def test_a_block_of_equal_degree_factors_drops_per_root():
    # the face (1 + w + w^4)(1 + w + w^2 + w^3 + w^4) over F_2 is one block
    # of degree 4: its roots have orders 15 and 5, so at (g, 0) it drops 4
    # where 5 divides g and 8 where 15 does, with no split into factors
    face = gf_mul([1, 1, 0, 0, 1], [1, 1, 1, 1, 1], 2)
    pc = _component(2, [((a, 0), 1) for a, c in enumerate(face) if c] + [((3, 1), 1)])
    assert _blocks(pc, (1, 0)) == [(tuple(face), 1)]
    for g in [1, 3, 5, 10, 15, 30, 45, 60, 75]:
        n = (g, 0)
        want = g - (g & -g) * (8 if g % 15 == 0 else 4 if g % 5 == 0 else 0)  # g & -g = 2^j
        assert fitting_dim(pc, n) == want == oracle_dim(pc, n) == hermite_oracle(pc, n), n


def test_a_tie_along_no_tabled_edge_is_refused(monkeypatch, led_pc):
    # a count whose n ties at an end of N(G) needs the table of n's
    # direction: with (1, 0) taken out, (4, 0) is a ConsistencyError naming
    # n, while (-6, 0) still reads the table of (-1, 0)
    _with_edges(monkeypatch, lambda edges: {e: t for e, t in edges.items() if e != (1, 0)})
    with pytest.raises(ConsistencyError, match=re.escape("n=(4, 0)")):
        count_prime_charp(led_pc, (4, 0))
    assert fitting_dim(led_pc, (-6, 0)) == 4 == ledrappier_axis_closed_form(6).factored[1]


def test_width_plus_the_finite_part_matches_the_hermite_oracle():
    # several generators off the edge lines of G's Newton polygon: the width
    # of G's polygon across n plus D - rank(U1^n1 U2^n2 - 1) is the count
    # of the full presentation at n
    counting = entrank.counting
    seen = Counter()
    for pc in _planted_common_factors(36, 36, 2):
        dec = counting._decomposition(pc)
        exps = [(e1, e2) for e1, e2, _c in dec.terms]
        for n in product(range(-7, 8), repeat=2):
            if not any(n) or _on_edge_line(exps, n):
                continue
            finite = counting._finite_part_dim(dec, n, pc.q) if dec.dim else 0
            assert _width(exps, n) + finite == hermite_oracle(pc, n) == fitting_dim(pc, n), (pc, n)
            seen[dec.dim > 0] += 1
    assert min(seen[True], seen[False]) >= 1000, seen


def test_one_generator_closed_form_matches_the_hermite_oracle():
    # seeded Laurent generators against the Hermite loop at n itself, with
    # no Frobenius scaling; planted infinite counts phi(u^m) h, where phi is
    # an irreducible factor of w^k - 1 over F_q and n = k m
    rng = random.Random(33)
    seen = {"finite": 0, "infinite": 0}
    for i in range(400):
        q = rng.choice([2, 3, 5, 7])
        terms = {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randrange(1, q)
                 for _ in range(rng.randint(1, 6))}
        while True:
            n = (rng.randint(-40, 40), rng.randint(-40, 40))
            if any(n):
                break
        planted = i % 8 == 0
        if planted:
            sign = rng.choice([-1, 1])
            m = (sign * rng.randint(1, 4), rng.randint(-4, 4))
            k = rng.randint(1, 40 // max(map(abs, m)))
            phi, _mult = rng.choice(gf_factor([q - 1] + [0] * (k - 1) + [1], q))
            phi_u = {(j * m[0], j * m[1]): c for j, c in enumerate(phi) if c}
            terms, n = laurent_mul(phi_u, terms, q), (k * m[0], k * m[1])
        pc = CharPComponent(q=q, d=2, generators=(
            LaurentPolynomial(terms=tuple(sorted(terms.items()))),))
        expected = hermite_oracle(pc, n)
        assert fitting_dim(pc, n) == expected, (pc, n)
        if planted:
            assert expected is None, (pc, n)
        seen["infinite" if expected is None else "finite"] += 1
    assert seen["finite"] >= 300 and seen["infinite"] >= 50, seen


def test_one_generator_membership_matches_groebner():
    # u^n - 1 in (f) by exact division, against the Groebner normal form at
    # every |n| <= 5; planted members phi(u^m) u^e with phi | w^k - 1
    rng = random.Random(4800)
    comps = _one_generator_components(4800, 12)
    for _ in range(12):
        q = rng.choice([2, 3, 5])
        m = rng.choice([(1, 0), (0, 1), (1, 1), (2, -1), (-1, 2)])
        k = rng.choice([1, 2, 3])
        phi = {(0, 0): q - 1, (k * m[0], k * m[1]): 1}  # u^(k m) - 1
        if rng.random() < 0.5:
            phi = {(0, 0): 1, m: 1}  # 1 + u^m, a factor of u^(2m) - 1 when q = 2
        shift = (rng.randint(-2, 2), rng.randint(-2, 2))
        comps.append(CharPComponent(q=q, d=2, generators=(LaurentPolynomial(terms=tuple(sorted(
            ((a + shift[0], b + shift[1]), c) for (a, b), c in phi.items()))),)))
    planted = 0
    for pc in comps:
        gb = GroebnerBasis(pc.q, *base_generators(pc))
        got = charp_membership_violations(pc, 5)
        want = [n for n in iter_shell_points(2, 0, 5)
                if not gb.normal_form(relation_for(pc, n))]
        assert got == want, pc
        planted += len(got)
    assert planted >= 20, planted


def test_membership_from_the_gcd_matches_groebner():
    # several generators and d = 1: with D = 0, I = (G) and u^n - 1 lies in
    # I iff G divides it, against the Groebner normal form at every
    # |n| <= 5; planted members have G = u^m - 1 or, over F_2, 1 + u^m. With
    # D > 0 membership is refused, and mixing_check names D instead. In
    # d = 1, R/(G) is finite whenever G is not a unit: D is all of R/I
    rng = random.Random(4900)
    comps = _planted_common_factors(49, 12, 2) + _planted_common_factors(50, 8, 1)
    for _ in range(10):
        d, q = rng.choice([1, 2]), rng.choice([2, 3])
        m = tuple(rng.randint(0, 2) for _ in range(d))
        common = {(0,) * d: q - 1 if rng.random() < 0.5 else 1, m: 1} if any(m) else {m: 1}
        unit = {tuple(rng.randint(-1, 1) for _ in range(d)): 1}
        cofactors = [_random_laurent(rng, q, d, 2, 2), unit]
        comps.append(CharPComponent(q=q, d=d, generators=tuple(
            LaurentPolynomial(terms=tuple(sorted(laurent_mul(common, h, q).items())))
            for h in cofactors)))
    checked = members = 0
    refused = Counter()
    for pc in comps:
        gb = GroebnerBasis(pc.q, *base_generators(pc))
        if dim := finite_quotient_dim(pc):
            with pytest.raises(MathDomainError, match="finite quotient of dimension"):
                charp_membership_violations(pc, 5)
            if pc.d == 1:
                assert dim == gb.standard_monomial_count(), pc
            refused[pc.d] += 1
            continue
        want = [n for n in iter_shell_points(pc.d, 0, 5)
                if not gb.normal_form(relation_for(pc, n))]
        assert charp_membership_violations(pc, 5) == want, pc
        checked += 1
        members += len(want)
    assert checked >= 12 and min(refused[1], refused[2]) >= 5 and members >= 10, (
        checked, refused, members)
    two = parse_spec({"d": 2, "components": [{"char": 2, "generators": [
        {"terms": [{"exp": e, "coeff": 1} for e in ([0, 0], [1, 0], [1, 1], [0, 2])]},
        {"terms": [{"exp": e, "coeff": 1} for e in ([0, 0], [0, 1], [2, 0], [1, 1])]}]}]})
    assert mixing_check(two, 48).violations == (
        "components[0]: finite quotient of dimension 1: not mixing",)
    # R/(1 + u + u^4) over F_2 is F_16, on which u^15 acts trivially: found
    # at any radius, not only from 15 on
    f16 = parse_spec({"d": 1, "components": [{"char": 2, "generators": [
        {"terms": [{"exp": [e], "coeff": 1} for e in (0, 1, 4)]}]}]})
    assert mixing_check(f16, 8).violations == (
        "components[0]: finite quotient of dimension 4: not mixing",)


def test_membership_rejects_on_cross_products_before_building_levels(monkeypatch):
    # _divides_relation against the levels route it replaced, at every
    # |n| <= 12 of the seeded one-generator ideals and of planted members
    # 1 + u^m over F_2; the levels of G (here the generator itself) are
    # built only at the points with one
    counting = entrank.counting
    w1_levels = counting._w1_levels
    comps = _one_generator_components(77, 20) + [
        CharPComponent(q=2, d=2, generators=(LaurentPolynomial(
            terms=(((1, -2), 1), ((1 + m1, m2 - 2), 1))),)) for m1, m2 in ((1, 0), (2, -1), (1, 3))]
    built, members = [], 0
    monkeypatch.setattr(counting, "_w1_levels", lambda f, n: built.append(n) or w1_levels(f, n))
    for pc in comps:
        terms = counting._decomposition(pc).terms
        for n in iter_shell_points(2, 0, 12):
            g, levels = w1_levels(terms, n)
            want = len(levels) == 1 and len(counting._gcd_with_w1_power_minus_one(
                g, levels[0][1], pc.q)) == len(levels[0][1])
            built.clear()
            assert counting._divides_relation(terms, pc.q, n) == want, (pc, n)
            assert built == ([n] if len(levels) == 1 else [])
            members += want
    assert members >= 20
