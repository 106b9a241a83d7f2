import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from entrank import (
    ConsistencyError,
    MathDomainError,
    ResourceLimitError,
    charp_window_oracle,
    count_composite,
    count_prime_char0,
    count_prime_charp,
    ledrappier_axis_closed_form,
    parse_spec,
    place_spec,
)
from entrank import groebner, phi_v, point_record
from entrank.groebner import GroebnerBasis
from entrank.numberfield import finite_places_above

SPECS = Path(__file__).parent.parent / "specs"


def strip_23(x: Fraction) -> int:
    """Numerator of |x| with every factor of 2 and 3 removed: the elementary
    count oracle for the times-2-times-3 system."""
    n = abs(x.numerator)
    for p in (2, 3):
        while n % p == 0:
            n //= p
    return n


def x2x3_oracle(n1: int, n2: int) -> int:
    return strip_23(Fraction(2) ** n1 * Fraction(3) ** n2 - 1)


@pytest.fixture(scope="module")
def x2x3_pc(x2x3):
    return x2x3.placed_char0()[0][0]


@pytest.fixture(scope="module")
def led_pc(ledrappier):
    return ledrappier.charp()[0][0]


# ---------------------------------------------------------------------------
# char 0
# ---------------------------------------------------------------------------

def test_spot_values_from_grid(x2x3_pc):
    assert count_prime_char0(x2x3_pc, (1, 1)).value == 5
    assert count_prime_char0(x2x3_pc, (-5, 3)).value == 5
    assert count_prime_char0(x2x3_pc, (3, 0)).value == 7
    assert count_prime_char0(x2x3_pc, (4, 0)).value == 5
    assert count_prime_char0(x2x3_pc, (5, 0)).value == 31


def test_diagonal_counts(x2x3_pc):
    for n in range(1, 6):
        assert count_prime_char0(x2x3_pc, (n, n)).value == 6**n - 1


def test_d1_doubling_map():
    spec = parse_spec({"d": 1, "components": [
        {"multiplicity": 1, "char": 0, "min_poly": [0, 1], "xi": [[2, 1]]}]})
    pc = place_spec(spec).placed_char0()[0][0]
    assert count_prime_char0(pc, (10,)).value == 1023
    for n in range(1, 12):
        assert count_prime_char0(pc, (n,)).value == 2**n - 1


def test_elementary_oracle_agreement(x2x3_pc):
    for n1 in range(-8, 9):
        for n2 in range(-8, 9):
            if n1 == 0 and n2 == 0:
                continue
            assert count_prime_char0(x2x3_pc, (n1, n2)).value == x2x3_oracle(n1, n2), (n1, n2)


def test_count_symmetry(x2x3_pc):
    for n in [(1, 1), (-5, 3), (2, -7), (4, 0), (0, 3)]:
        neg = tuple(-v for v in n)
        assert count_prime_char0(x2x3_pc, n).value == count_prime_char0(x2x3_pc, neg).value


def test_zero_vector_rejected(x2x3_pc):
    with pytest.raises(MathDomainError, match="identity"):
        count_prime_char0(x2x3_pc, (0, 0))


def test_non_mixing_direction_rejected():
    spec = parse_spec({"d": 1, "components": [
        {"multiplicity": 1, "char": 0, "min_poly": [0, 1], "xi": [[-1, 1]]}]})
    pc = place_spec(spec).placed_char0()[0][0]
    with pytest.raises(MathDomainError, match="not mixing"):
        count_prime_char0(pc, (2,))


def test_golden_mean_counts_are_integers(golden_mean_spec):
    pc = place_spec(golden_mean_spec).placed_char0()[0][0]
    # integrality is asserted inside; exercise a spread of directions
    for n in [(1, 0), (0, 1), (1, 1), (2, -1), (-3, 2), (4, 3)]:
        assert count_prime_char0(pc, n).value >= 1


def test_golden_mean_lucas_counts():
    # xi = (theta) alone: no finite places, so |F| along n is the archimedean
    # norm |N(theta^n - 1)| = |L_n - 1 - (-1)^n| (Lucas numbers L_n), the
    # classical fixed-point count of the golden toral automorphism
    spec = parse_spec({"d": 1, "components": [
        {"multiplicity": 1, "char": 0, "min_poly": [-1, -1, 1], "xi": [[0, 1, 1, 1]]}]})
    pc = place_spec(spec).placed_char0()[0][0]
    assert len(pc.places) == 2  # both archimedean
    lucas = [2, 1]
    while len(lucas) < 10:
        lucas.append(lucas[-1] + lucas[-2])
    for n in range(1, 9):
        expected = abs(lucas[n] - 1 - (-1) ** n)
        assert count_prime_char0(pc, (n,)).value == expected


def test_count_takes_one_norm(golden_mean_spec, monkeypatch):
    # the place above 2 is the only one there, so its share of the norm is
    # read off the norm the count already holds
    from entrank.numberfield import NumberField

    pc = place_spec(golden_mean_spec).placed_char0()[0][0]
    calls = []
    norm = NumberField.norm

    def counting_norm(self, x):
        calls.append(x)
        return norm(self, x)

    monkeypatch.setattr(NumberField, "norm", counting_norm)
    assert count_prime_char0(pc, (7, 3)).value == 295
    assert len(calls) == 1


@pytest.mark.parametrize("doc, expected", [
    # t^2 + t + 3 = 0, xi = (-2 - 2t/3, -1 - t/2). Confirmed by the product
    # formula: the prime-to-{2,3,5} part of |N(xi^n - 1)| times 5^ord at the
    # place t = 1 mod 5, the only place above 2, 3 or 5 outside the support.
    ({"d": 2, "components": [{"char": 0, "min_poly": [3, 1, 1],
                              "xi": [[-2, 1, -2, 3], [-1, 1, -1, 2]]}]},
     {(1, 1): 1, (2, -1): 925, (3, 2): 2209}),
    # N(xi_1 xi_2 - 1) = 2971/9 with 2971 prime, and both places above 3
    # in the support
    ({"d": 2, "components": [{"char": 0, "min_poly": [3, 3, 1, -2, 1],
                              "xi": [[1, 1, 0, 1, 1, 1, 0, 1],
                                     [-1, 1, 0, 1, -1, 3, 0, 1]]}]},
     {(1, 1): 2971}),
    # (1 + sqrt5)/2 on the model t^2 - 5: 2 divides its coordinate
    # denominators and the index [O_K : Z[t]], but xi is a unit above 2, so
    # 2 stays out of the support and the counts are the golden mean's
    ({"d": 1, "components": [{"char": 0, "min_poly": [-5, 0, 1],
                              "xi": [[1, 2, 1, 2]]}]},
     {(1,): 1, (2,): 1, (3,): 4, (4,): 5, (5,): 11, (8,): 45}),
])
def test_support_prime_selection(doc, expected):
    pc = place_spec(parse_spec(doc)).placed_char0()[0][0]
    for n, value in expected.items():
        assert count_prime_char0(pc, n).value == value, n
        assert count_prime_char0(pc, tuple(-v for v in n)).value == value, n


# two support places above 3, where xi_2 has ords (2, -2)
TWO_ABOVE_3 = {"d": 2, "components": [{"char": 0, "min_poly": [3, 3, 1, -2, 1],
                                       "xi": [[1, 1, 0, 1, 1, 1, 0, 1],
                                              [-1, 1, 0, 1, -1, 3, 0, 1]]}]}


def test_count_rejects_non_integral_place_product(monkeypatch):
    # at (1, 0) both places above 3 have n . ords = 0, so valuations_above
    # runs there; one valuation too many at each such place leaves 3^-2 in
    # the product, which the per-prime guard reports
    import entrank.counting as counting

    pc = place_spec(parse_spec(TWO_ABOVE_3)).placed_char0()[0][0]
    assert count_prime_char0(pc, (1, 0)).value > 0
    inner = counting.valuations_above
    monkeypatch.setattr(counting, "valuations_above",
                        lambda field, p, x, support: tuple(v + 1 for v in inner(field, p, x, support)))
    with pytest.raises(ConsistencyError, match="support places above 3 carry"):
        count_prime_char0(pc, (1, 0))


@pytest.mark.parametrize("doc, n", [
    (TWO_ABOVE_3, (1, 1)),  # both places above 3 have n . ords != 0
    ({"d": 2, "components": [{"char": 0, "min_poly": [0, 1], "xi": [[2, 1], [3, 1]]}]},
     (3, -2)),  # the only place above 3
])
def test_count_guard_catches_a_corrupt_ord_row(doc, n):
    # no valuation is taken at 3, so a wrong ord_v(xi_2) row there still
    # gives an integer product, but its share of ord_3 N(xi^n - 1) is off
    import dataclasses

    pc = place_spec(parse_spec(doc)).placed_char0()[0][0]
    rows = list(pc.rows)
    k = next(k for k, place in enumerate(pc.places) if place.p == 3 and rows[k][1] * n[1] < 0)
    rows[k] = (rows[k][0], rows[k][1] + (1 if rows[k][1] > 0 else -1))
    bad = dataclasses.replace(pc, rows=tuple(rows))
    assert count_prime_char0(pc, n).value > 0
    with pytest.raises(ConsistencyError, match="support places above 3 carry"):
        count_prime_char0(bad, n)


SWEEP_VECTORS = ((1, 0), (0, 1), (1, 1), (-1, -1), (1, -1), (2, -1), (-2, 1), (2, 1),
                 (1, 2), (3, 0), (0, 2))


def _sweep_like_docs(seed: int, count: int):
    """Seeded d = 2 docs shaped like the spec-sweep benchmark's: monic
    minimal polynomials of degree 2..8 with coefficients in [-3, 3], and
    xi coordinates p/q with p in [-2, 2], q in {1, 2, 3}."""
    rng = random.Random(seed)
    for _ in range(count):
        degree = rng.randint(2, 8)
        yield {"d": 2, "components": [{
            "char": 0, "min_poly": [rng.randint(-3, 3) for _ in range(degree)] + [1],
            "xi": [[x for _ in range(degree)
                    for x in (rng.randint(-2, 2), rng.choice((1, 1, 1, 2, 3)))]
                   for _ in range(2)]}]}


def _lifted_shares(field, p: int, x, support) -> tuple[list[int], tuple[int, ...]]:
    """(ord_p Res(F, A) per block F of the split above p, the cofactor block
    last when there is one, and ord_v(x) per place of the split) from one
    resultant per Hensel-lifted block, x = A(theta)/c."""
    from entrank.algebra import ord_p, resultant
    from entrank.numberfield import _integral_norm, _lifted_local_factors

    v_total = ord_p(_integral_norm(field.min_poly, x.num), p)
    blocks = _lifted_local_factors(field, p, 1 << v_total.bit_length(), support)
    shares = [ord_p(resultant(block, x.num), p) for block in blocks]
    den_ord = ord_p(x.den, p) if x.den % p == 0 else 0
    return shares, tuple(v // place.res_degree - place.ram_index * den_ord
                         for v, place in zip(shares, finite_places_above(field, p, support)))


def test_count_route_matches_valuations_on_sweep_specs(monkeypatch):
    # counts from the n . ords rule, the sole-place norm rule and the shared
    # pass equal counts with every ord read through ord_v, and
    # valuations_above equals one lifted resultant per block of the split
    # placement used, lifting only where more than one block takes a share
    import entrank.numberfield as numberfield
    from entrank.errors import SpecError, UnsupportedPrimeError

    lifts = []
    inner = numberfield._lifted_local_factors
    monkeypatch.setattr(numberfield, "_lifted_local_factors",
                        lambda *args: lifts.append(args) or inner(*args))
    specs = counts = index_primes = 0
    unlifted = set()  # (e > 1, f > 1) of places that took all of v_total without a lift
    for doc in _sweep_like_docs(20261, 90):
        try:
            spec = parse_spec(doc)
        except SpecError:
            continue
        try:
            pc = place_spec(spec).placed_char0()[0][0]
        except UnsupportedPrimeError:
            index_primes += 1
            continue
        specs += 1
        field = pc.component.field
        supports = {place.p: place.support for place in pc.places if place.kind == "finite"}
        for n in SWEEP_VECTORS:
            x = field.sub(field.pow_vector(pc.component.xi, n), field.one())
            if x.is_zero():
                continue
            expected = abs(field.norm(x))
            for place in pc.places:
                if place.kind == "finite":
                    o = numberfield.ord_v(place, x)
                    expected *= Fraction(place.p) ** (-place.res_degree * o)
            assert count_prime_char0(pc, n).value == expected, (doc, n)
            counts += 1
            for p, support in sorted(supports.items()):
                lifts.clear()
                got = numberfield.valuations_above(field, p, x, support)
                lifted = bool(lifts)
                shares, ords = _lifted_shares(field, p, x, support)
                assert got == ords, (doc, n, p)
                takers = [i for i, v in enumerate(shares) if v]
                assert lifted == (len(takers) > 1), (doc, n, p)
                if len(takers) == 1 and len(shares) > 1 and takers[0] < len(ords):
                    place = finite_places_above(field, p, support)[takers[0]]
                    unlifted.add((place.ram_index > 1, place.res_degree > 1))
    assert specs >= 40 and counts >= 400 and index_primes >= 1
    assert {(True, False), (False, True)} <= unlifted


def test_index_prime_raises_unsupported_not_consistency():
    from entrank.errors import UnsupportedPrimeError

    # 2 divides [O_K : Z[sqrt(-3)]], and xi = 2 puts 2 in the support
    with pytest.raises(UnsupportedPrimeError):
        place_spec(parse_spec({"d": 1, "components": [
            {"char": 0, "min_poly": [3, 0, 1], "xi": [[2, 1, 0, 1]]}]}))


def test_growth_matches_entropy(x2x3_pc):
    k = 20
    val = count_prime_char0(x2x3_pc, (k, k)).value
    assert abs(math.log(val) / k - math.log(6)) < 0.01


# ---------------------------------------------------------------------------
# char p
# ---------------------------------------------------------------------------

def test_closed_form_values():
    assert ledrappier_axis_closed_form(1).value == 1
    assert ledrappier_axis_closed_form(2).value == 1
    assert ledrappier_axis_closed_form(3).value == 4
    assert ledrappier_axis_closed_form(12).value == 256
    assert ledrappier_axis_closed_form(12).factored == (2, 8)
    with pytest.raises(MathDomainError):
        ledrappier_axis_closed_form(0)


def test_groebner_matches_closed_form_axis(led_pc):
    for n in range(1, 17):
        got = count_prime_charp(led_pc, (n, 0))
        assert got.value == ledrappier_axis_closed_form(n).value, n
        assert got.factored[0] == 2


def test_groebner_offaxis_samples(led_pc):
    assert count_prime_charp(led_pc, (3, 0)).value == 4
    assert count_prime_charp(led_pc, (4, 0)).value == 1
    assert count_prime_charp(led_pc, (6, 0)).value == 16
    assert count_prime_charp(led_pc, (1, 1)).value == 4
    assert count_prime_charp(led_pc, (-8, 8)).value == 1


def test_groebner_membership_budget_is_per_call(monkeypatch):
    # <x + 1> over F_2: the normal form of x^6 + 1 takes 6 steps and that of
    # x^20 + 1 takes 20, against a budget of 10 per call
    monkeypatch.setattr(groebner, "MAX_REDUCTIONS", 10)
    gb = GroebnerBasis(2, 1, [{(1,): 1, (0,): 1}])
    for _ in range(3):
        assert gb.normal_form({(6,): 1, (0,): 1}) == {}
    with pytest.raises(ResourceLimitError):
        gb.normal_form({(20,): 1, (0,): 1})
    assert gb.normal_form({(6,): 1, (0,): 1}) == {}


def test_groebner_stops_once_the_ideal_is_the_ring(monkeypatch):
    # x^2 y^2 + x y^2 + 1 and x y + x^2 y^2 over F_2 span the whole ring: no
    # S-polynomial is formed once a constant is in the basis, the minimal
    # basis is {1}, every normal form is 0 and no monomial is standard
    formed = []
    s_poly = GroebnerBasis._s_poly
    monkeypatch.setattr(GroebnerBasis, "_s_poly", lambda self, *args: formed.append(
        (0, 0) in self.lms) or s_poly(self, *args))
    gb = GroebnerBasis(2, 2, [{(2, 2): 1, (1, 2): 1, (0, 0): 1}, {(1, 1): 1, (2, 2): 1}])
    assert formed and not any(formed)
    assert gb.basis == [{(0, 0): 1}] and gb.standard_monomials() == []
    assert gb.normal_form({(3, 1): 1, (0, 0): 1}) == {}


def test_charp_symmetry(led_pc):
    for n in [(1, 1), (2, -3), (-5, 3), (4, 6)]:
        neg = tuple(-v for v in n)
        assert count_prime_charp(led_pc, n).value == count_prime_charp(led_pc, neg).value


def test_charp_infinite_count_detected():
    spec = parse_spec({"d": 2, "components": [
        {"multiplicity": 1, "char": 2, "generators": []}]})
    comp = spec.components[0][0]
    with pytest.raises(MathDomainError, match="infinite"):
        count_prime_charp(comp, (1, 0))


# ---------------------------------------------------------------------------
# window oracle
# ---------------------------------------------------------------------------

def test_window_oracle_axis(led_pc):
    w = charp_window_oracle(led_pc, (3, 0), window=8)
    assert w.stabilized and w.count.value == 4
    w = charp_window_oracle(led_pc, (5, 0), window=8)
    assert w.stabilized and w.count.value == 16


def test_window_oracle_crosses_groebner(led_pc):
    for n in [(2, 2), (1, 1), (-5, 3), (2, -3), (4, 6)]:
        w = charp_window_oracle(led_pc, n, window=8)
        assert w.stabilized
        assert w.count.value == count_prime_charp(led_pc, n).value, n


def test_window_oracle_inconclusive_is_not_an_error(led_pc):
    # deep axis point with a tiny window: must decline, not lie
    w = charp_window_oracle(led_pc, (32, 0), window=8)
    assert not w.stabilized and w.count is None


def test_window_oracle_rejects_wrong_dimension():
    spec = parse_spec({"d": 1, "components": [
        {"multiplicity": 1, "char": 2,
         "generators": [{"terms": [{"exp": [0], "coeff": 1}, {"exp": [1], "coeff": 1}]}]}]})
    with pytest.raises(MathDomainError, match="d = 2"):
        charp_window_oracle(spec.components[0][0], (1,))


# ---------------------------------------------------------------------------
# composite counts
# ---------------------------------------------------------------------------

def test_multiplicity_two():
    spec = parse_spec({"d": 2, "components": [
        {"multiplicity": 2, "char": 0, "min_poly": [0, 1], "xi": [[2, 1], [3, 1]]}]})
    ps = place_spec(spec)
    res = count_composite(ps, (1, 1))
    assert res.value == 25
    assert res.per_component == ((5, 2),)
    assert not res.upper_bound_only


def test_mixed_composite():
    spec = parse_spec({"d": 2, "components": [
        {"multiplicity": 1, "char": 0, "min_poly": [0, 1], "xi": [[2, 1], [3, 1]]},
        {"multiplicity": 1, "char": 2,
         "generators": [{"terms": [{"exp": [0, 0], "coeff": 1},
                                   {"exp": [1, 0], "coeff": 1},
                                   {"exp": [0, 1], "coeff": 1}]}]}]})
    ps = place_spec(spec)
    res = count_composite(ps, (3, 0))
    assert res.value == 28  # 7 * 4
    assert res.per_component == ((7, 1), (4, 1))


def test_non_noetherian_tagged():
    spec = parse_spec({"d": 1, "noetherian": False, "components": [
        {"multiplicity": 1, "char": 0, "min_poly": [0, 1], "xi": [[2, 1]]}]})
    ps = place_spec(spec)
    res = count_composite(ps, (3,))
    assert res.value == 7 and res.upper_bound_only


def test_log_count_upper_bound(x2x3):
    # crude exponential bound from Lyapunov data
    pc, mult = x2x3.placed_char0()[0]
    s = sum(mult * sum(abs(v) for v in row) for row in pc.lyapunov)
    bound_coeff = s + math.log(2) * len(pc.places)
    for n in [(1, 1), (-5, 3), (7, -2), (8, 8)]:
        cnt = count_composite(x2x3, n).value
        assert math.log(cnt) <= bound_coeff * max(abs(v) for v in n) + 1e-9


@pytest.fixture(scope="module")
def golden_ps(golden_mean_spec):
    return place_spec(golden_mean_spec)


@pytest.mark.parametrize("n, text", [
    ((0, 0), "identity direction: infinitely many fixed points"),
    ((3,), "n has 1 entries, component expects 2"),
    ((3, 0, 5), "n has 3 entries, component expects 2"),
])
@pytest.mark.parametrize("entry", ["count_prime_char0", "count_prime_charp", "count_composite",
                                   "charp_window_oracle", "phi_v", "point_record"])
def test_every_lattice_vector_entry_point_shares_the_gate(entry, n, text, golden_ps, ledrappier):
    # zip would truncate a long vector and unpacking would fail on a short
    # one: each entry point refuses both, and n = 0, with the gate's text
    fn, target = {
        "count_prime_char0": (count_prime_char0, golden_ps.placed_char0()[0][0]),
        "count_prime_charp": (count_prime_charp, ledrappier.charp()[0][0]),
        "count_composite": (count_composite, golden_ps),
        "charp_window_oracle": (charp_window_oracle, ledrappier.charp()[0][0]),
        "phi_v": (phi_v, golden_ps.placed_char0()[0][0]),
        "point_record": (point_record, golden_ps),
    }[entry]
    with pytest.raises(MathDomainError) as e:
        fn(target, n)
    assert str(e.value) == text


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def test_lifting_the_exponent_on_golden_mean_at_two(golden_mean_spec):
    # phi^3 - 1 = 2 phi and phi^3 + 1 = 2 phi^2 have ord 1 at the inert 2,
    # so ord_v(phi^(3 2^j) - 1) = 1 + 1 + j - 1 = j + 1 (phi^6 - 1 = 4(2 phi + 1))
    from entrank.counting import char0_point

    pc = place_spec(golden_mean_spec).placed_char0()[0][0]
    assert pc.places[2].p == 2
    assert [char0_point(pc, (3 << j, 0)).ords[2] for j in range(1, 8)] == list(range(2, 9))


def test_lifting_the_exponent_on_two_plus_i_at_five():
    # eta = 2 + i is -1 mod the place theta = 2 above 5 and eta^2 - 1 =
    # 2(1 + 2i) has ord 1 there, so ord(eta^(2k) - 1) = 1 + ord_5(k); at
    # the place theta = -2, which holds eta, eta^(2k) - 1 is a unit
    from entrank.algebra import ord_p
    from entrank.numberfield import build_field, valuations_above

    field = build_field([1, 0, 1])
    eta = field.element([2, 1])
    for k in range(1, 126):
        x = field.sub(field.pow(eta, 2 * k), field.one())
        assert valuations_above(field, 5, x) == (0, 1 + ord_p(k, 5)), k


def test_lifting_the_exponent_on_seeded_fields():
    # eta integral and a unit at v above p <= 7, o the least k with
    # ord_v(eta^k - 1) > 0 (a divisor of p^f_v - 1): eta^k - 1 is a unit at v
    # for o not dividing k, and where a = ord_v(eta^o - 1) > e_v / (p - 1),
    # ord_v(eta^(o k') - 1) = a + e_v ord_p(k') for k' <= 2 p^2
    from entrank.algebra import ord_p
    from entrank.errors import SpecError, UnsupportedPrimeError
    from entrank.numberfield import build_field, ord_v

    rng = random.Random(2828)
    fields, units, lifted = 16, 0, 0
    while fields:
        degree = rng.randint(2, 4)
        try:
            field = build_field([rng.randint(-5, 5) for _ in range(degree)] + [1])
        except SpecError:  # reducible
            continue
        eta = field.element([rng.randint(-3, 3) for _ in range(degree)])
        if eta.is_zero() or field.root_of_unity_order(eta) is not None:
            continue
        fields -= 1
        for p in (2, 3, 5, 7):
            try:
                places = finite_places_above(field, p)
            except UnsupportedPrimeError:  # p divides the index
                continue
            for v in places:
                def ord_minus_one(k):
                    return ord_v(v, field.sub(field.pow(eta, k), field.one()))

                if ord_v(v, eta):
                    continue  # not a unit at v
                q = p**v.res_degree - 1
                o = min(k for k in range(1, q + 1) if q % k == 0 and ord_minus_one(k))
                if 2 * p * p * o > 1000:
                    continue  # powers too large for a quick test
                assert all(ord_minus_one(k) == 0 for k in range(1, 3 * o) if k % o), (field, eta, v)
                units += 1
                a = ord_minus_one(o)
                if a * (p - 1) > v.ram_index:
                    for k in range(1, 2 * p * p + 1):
                        assert ord_minus_one(o * k) == a + v.ram_index * ord_p(k, p), (
                            field, eta, v, k)
                    lifted += 1
    assert (units, lifted) == (68, 54)


@pytest.mark.parametrize("name", sorted(p.name for p in SPECS.glob("*.json")))
def test_dold_congruences_along_rays(name):
    # a_k = |F(alpha^(k m))|; alpha^m has O_m(k) = (1/k) sum_{j | k} mu(k/j) a_j
    # closed orbits of length exactly k, a nonnegative integer for every k
    from entrank import load_spec

    ps = place_spec(load_spec(str(SPECS / name)))
    rays = {tuple(int(i == j) for j in range(ps.d)) for i in range(ps.d)} | {(1,) * ps.d}
    for m in sorted(rays):
        a = [count_composite(ps, tuple(k * v for v in m)).value for k in range(1, 13)]
        for k in range(1, 13):
            total = sum(_mobius(k // j) * a[j - 1] for j in range(1, k + 1) if k % j == 0)
            assert total >= 0 and total % k == 0, (name, m, k)


def test_dold_congruences_on_sweep_like_specs():
    # the congruences of test_dold_congruences_along_rays on each axis and
    # (1, 1) of seeded sweep-shaped specs; specs refused by parse_spec or
    # placement (reducible, index divisor) and non-mixing rays are skipped
    from entrank.errors import SpecError, UnsupportedPrimeError

    checked = 0
    for doc in _sweep_like_docs(20263, 240):
        try:
            ps = place_spec(parse_spec(doc))
        except (SpecError, UnsupportedPrimeError):
            continue
        for m in ((1, 0), (0, 1), (1, 1)):
            try:
                a = [count_composite(ps, (k * m[0], k * m[1])).value for k in range(1, 13)]
            except MathDomainError:  # some xi^(k m) = 1: not mixing along m
                continue
            checked += 1
            for k in range(1, 13):
                total = sum(_mobius(k // j) * a[j - 1] for j in range(1, k + 1) if k % j == 0)
                assert total >= 0 and total % k == 0, (doc, m, k)
    assert checked == 463
