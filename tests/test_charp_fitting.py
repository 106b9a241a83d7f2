"""Char-p counts for d <= 2 come from a closed form in the w2-levels for
one generator in d = 2 and from the Fitting ideal elsewhere; the Hermite
loop on the full presentation at n itself, Groebner bases and the window
oracle are the independent references here."""

import math
import random
import time
from collections import Counter

import pytest

import entrank.counting
from entrank import (
    CharPComponent,
    LaurentPolynomial,
    MathDomainError,
    charp_window_oracle,
    count_composite,
    count_prime_charp,
    ledrappier_axis_closed_form,
    parse_spec,
    place_spec,
)
from entrank.action import iter_shell_points
from entrank.counting import _charp_base_generators as base_generators
from entrank.counting import _fitting_dim as hermite_dim
from entrank.counting import _fitting_dim_d2 as fitting_dim_d2
from entrank.counting import _groebner_dim as groebner_dim
from entrank.counting import _presentation as presentation
from entrank.counting import _relation_for as relation_for
from entrank.counting import charp_membership_violations
from entrank.groebner import GroebnerBasis
from entrank.polyfactor import gf_factor


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
    # (1 + u2) u1 + 1 + u2 + u2^2 over F_3: no cyclic lift has a unit leading
    # w1-coefficient, but after the shear k = 1 one has w1-degree 2
    assert fitting_dim(F3_IDEAL, (4, 0)) == groebner_dim(F3_IDEAL, (4, 0))
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


def test_no_groebner_basis_for_d_at_most_2(monkeypatch, led_pc):
    class Forbidden:
        def __init__(self, *args, **kwargs):
            raise AssertionError("GroebnerBasis built")

    monkeypatch.setattr(entrank.counting, "GroebnerBasis", Forbidden)
    rng = random.Random(11)
    for _ in range(40):
        pc, n = random_case(rng)
        fitting_dim(pc, n)
    for n in [(1, 1), (100, 0), (-13, 21)]:
        count_prime_charp(led_pc, n)
    assert charp_membership_violations(led_pc, 6) == []
    d3 = CharPComponent(q=2, d=3, generators=(
        LaurentPolynomial(terms=(((0, 0, 0), 1), ((1, 0, 0), 1), ((0, 1, 1), 1))),))
    with pytest.raises(AssertionError, match="GroebnerBasis built"):
        count_prime_charp(d3, (1, 0, 0))


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
    # part m of n and scales by q^j; the Fitting ideal taken at q^j m itself
    # must agree, finite or infinite
    seen = {"finite": 0, "infinite": 0}
    for pc in _one_generator_components(478, 18):
        for m in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]:
            dim = fitting_dim_d2(pc, m)
            for j in (1, 2):
                n = tuple(pc.q**j * v for v in m)
                scaled = None if dim is None else pc.q**j * dim
                assert fitting_dim(pc, n) == fitting_dim_d2(pc, n) == scaled, (pc, m, j)
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


def hermite_oracle(pc: CharPComponent, n) -> int | None:
    """dim at n itself, with no Frobenius scaling, from the Hermite/Euclid
    loop on the full presentation, square or not."""
    pres = presentation(pc, n)
    return 0 if pres is None else hermite_dim(*pres, pc.q)


def test_closed_form_and_fitting_routes_match_the_hermite_oracle(monkeypatch):
    # count_prime_charp takes the closed form for one generator in d = 2 and
    # the Hermite loop for several; the Hermite loop on the full presentation
    # at n itself is the oracle for both, and Groebner bases for the small n
    routes = []
    for name in ("_one_generator_dim", "_fitting_dim"):
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
    seen = Counter()
    for pc, n in cases:
        routes.clear()
        got = fitting_dim(pc, n)
        assert len(routes) <= 1, (pc, n, routes)
        assert got == hermite_oracle(pc, n), (pc, n)
        if max(map(abs, n)) <= 3:
            assert got == groebner_dim(pc, n), (pc, n)
        seen[routes[0] if routes else "unit modulus", got is None] += 1
    for route in ("_one_generator_dim", "_fitting_dim"):
        assert seen[route, False] >= 5 and seen[route, True] >= 1, seen


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


def test_membership_rejects_on_cross_products_before_building_levels(monkeypatch):
    # _divides_relation against the levels route it replaced, at every
    # |n| <= 12 of the seeded one-generator ideals and of planted members
    # 1 + u^m over F_2; the levels are built only at the points with one
    counting = entrank.counting
    w1_levels = counting._w1_levels
    comps = _one_generator_components(77, 20) + [
        CharPComponent(q=2, d=2, generators=(LaurentPolynomial(
            terms=(((1, -2), 1), ((1 + m1, m2 - 2), 1))),)) for m1, m2 in ((1, 0), (2, -1), (1, 3))]
    built, members = [], 0
    monkeypatch.setattr(counting, "_w1_levels", lambda pc, n: built.append(n) or w1_levels(pc, n))
    for pc in comps:
        for n in iter_shell_points(2, 0, 12):
            g, levels = w1_levels(pc, n)
            want = len(levels) == 1 and len(counting._gcd_with_w1_power_minus_one(
                g, levels[0][1], pc.q)) == len(levels[0][1])
            built.clear()
            assert counting._divides_relation(pc, n) == want, (pc, n)
            assert built == ([n] if len(levels) == 1 else [])
            members += want
    assert members >= 20
