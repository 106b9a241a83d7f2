import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from entrank.algebra import (
    MILLER_RABIN_PROVEN_BELOW,
    discriminant,
    factor_int,
    is_prime,
    ord_p,
    poly_derivative,
    poly_divexact,
    poly_gcd,
    poly_str,
    rank_mod_q,
    real_root_count,
    resultant,
    trial_factor,
)
from entrank.errors import MathDomainError


def _mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def test_resultant_linear_pair():
    assert resultant([-2, 1], [-3, 1]) == -1


def test_resultant_golden_mean_times_linear():
    # 4 * ((1/2)^2 - 1/2 - 1) = -5
    assert resultant([-1, -1, 1], [-1, 2]) == -5


def test_resultant_with_monomial():
    assert resultant([1, 0, 1], [0, 1]) == 1


def test_resultant_both_zero_rejected():
    with pytest.raises(MathDomainError):
        resultant([], [])


def _random_poly(rng, max_deg=4, monic=False):
    deg = rng.randint(0, max_deg)
    return [rng.randint(-5, 5) for _ in range(deg)] + [1 if monic else rng.randint(1, 5)]


def test_resultant_swap_sign():
    # both sides are a first argument once, so both are monic
    rng = random.Random(7)
    for _ in range(60):
        f, g = _random_poly(rng, monic=True), _random_poly(rng, monic=True)
        sign = -1 if ((len(f) - 1) * (len(g) - 1)) % 2 else 1
        assert resultant(f, g) == sign * resultant(g, f)


def _sylvester_resultant(f, g):
    """Res(f, g) by the Bareiss determinant of the Sylvester matrix."""
    from entrank.algebra import _bareiss_det, poly_trim

    f, g = poly_trim(f)[::-1], poly_trim(g)[::-1]
    n, m = len(f) - 1, len(g) - 1
    rows = [[0] * i + f + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + g + [0] * (n - 1 - i) for i in range(n)]
    return _bareiss_det(rows)


def test_linear_resultant_matches_the_sylvester_determinant():
    # a linear side takes the Horner route; both orders, non-monic sides,
    # zero constant terms and zero high coefficients (trimmed)
    rng = random.Random(17)
    for _ in range(400):
        f = [rng.randint(-9, 9), rng.choice((-7, -2, -1, 1, 3, 10**12))] + [0] * rng.randint(0, 2)
        g = ([rng.choice((0, rng.randint(-99, 99)))]
             + [rng.randint(-99, 99) for _ in range(rng.randint(0, 8))]
             + [rng.choice((-5, -1, 1, 2, 9))] + [0] * rng.randint(0, 2))
        assert resultant(f, g) == _sylvester_resultant(f, g), (f, g)
        assert resultant(g, f) == _sylvester_resultant(g, f), (g, f)


def test_resultant_multiplicative_in_first_argument():
    rng = random.Random(11)
    for _ in range(30):
        f1, f2 = _random_poly(rng, 3, monic=True), _random_poly(rng, 3, monic=True)
        g = _random_poly(rng, 3)
        assert resultant(_mul(f1, f2), g) == resultant(f1, g) * resultant(f2, g)


def _lifted_blocks():
    """Hensel-lifted local factors of degree >= 2 (monic, coefficients up
    to p^k): of x^4 - 3x^3 - x^2 + 3x - 2 at 2, lifted to 2^8 as its
    placement lifts them, and of seeded monic fields at 2, 3, 5 and 7."""
    from entrank.errors import SpecError, UnsupportedPrimeError
    from entrank.numberfield import _lifted_local_factors, build_field

    rng = random.Random(2708)
    cases = [((-2, 3, -1, -3, 1), 2, 8)]
    while len(cases) < 60:
        f = tuple(rng.randint(-3, 3) for _ in range(rng.randint(3, 8))) + (1,)
        cases.append((f, rng.choice((2, 3, 5, 7)), rng.choice((2, 8, 32))))
    blocks = set()
    for f, p, k in cases:
        try:
            lifted = _lifted_local_factors(build_field(f), p, k)
        except (SpecError, UnsupportedPrimeError):
            continue
        blocks.update(b for b in lifted if len(b) > 2)
    return sorted(blocks)


def test_resultant_is_the_sylvester_determinant():
    # the determinant of multiplication by g mod the monic f: f of degree
    # 2..8 with coefficients up to 10^30, or a lifted local factor; g of
    # degree 0..9, deg g >= deg f (reduced mod f first) and zero constant
    # terms included. A non-monic f of degree >= 2 against g of degree >= 2
    # is refused.
    rng = random.Random(2707)
    lifted = _lifted_blocks()
    assert len(lifted) >= 40
    reduced = 0
    for i in range(2000):
        big = rng.choice((3, 10**6, 10**30))
        if i % 4 == 0:
            f = list(lifted[i // 4 % len(lifted)])
        else:
            f = [rng.randint(-big, big) for _ in range(rng.randint(2, 8))] + [1]
        g = [rng.randint(-big, big) for _ in range(rng.randint(0, 9))] + [rng.randint(1, big)]
        if len(g) > 1 and rng.random() < 0.3:
            g[0] = 0
        reduced += len(g) >= len(f)
        assert resultant(f, g) == _sylvester_resultant(f, g), (f, g)
        if len(g) > 2:
            f[-1] = rng.choice((-1, 2, big))
            with pytest.raises(MathDomainError):
                resultant(f, g)
    assert reduced >= 600


def test_discriminant_quadratic():
    # b^2 - 4ac for x^2 + bx + c
    assert discriminant([-1, -1, 1]) == 5
    assert discriminant([1, 0, 1]) == -4


def test_poly_gcd_divides_both_with_planted_factor():
    # d is primitive with a positive leading coefficient and divides f and g
    # in Z[x], on pairs with a planted common factor
    rng = random.Random(31)
    for _ in range(40):
        common = [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))] + [1]
        f = _mul(common, [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1])
        g = _mul(common, [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
        if not any(g):
            continue
        d = poly_gcd(f, g)
        assert d[-1] > 0 and math.gcd(*d) == 1 and len(d) >= len(common)
        assert poly_divexact(f, d) is not None and poly_divexact(g, d) is not None
    assert poly_gcd([], []) == []
    assert poly_gcd([0, -6, 0, 0], [0, 0, 4]) == [0, 1]


def test_poly_divexact_rejects_inexact_quotients():
    assert poly_divexact([-4, 0, 1], [-2, 1]) == [2, 1]
    assert poly_divexact([2, 4, 2], [2, 2]) == [1, 1]
    assert poly_divexact([1, 0, 1], [1, 1]) is None  # remainder 2
    assert poly_divexact([1, 1], [0, 2]) is None  # quotient 1/2 over Q only
    assert poly_divexact([], [3, 1]) == []


def test_poly_str():
    assert poly_str([1, 2, 1]) == "x^2 + 2*x + 1"
    assert poly_str([0, -1]) == "-x"
    assert poly_str([-3, 0, 0, 1]) == "x^3 - 3"
    assert poly_str([0, 0, -2]) == "-2*x^2"
    assert poly_str([]) == "0"


# ---------------------------------------------------------------------------
# p-adic order
# ---------------------------------------------------------------------------

def test_ord_p_examples():
    assert ord_p(Fraction(5, 32), 2) == -5
    assert ord_p(Fraction(27, 32), 3) == 3
    assert ord_p(Fraction(10), 7) == 0


def test_ord_p_rejects_zero_and_composite():
    with pytest.raises(MathDomainError):
        ord_p(Fraction(0), 2)
    with pytest.raises(MathDomainError):
        ord_p(Fraction(1), 4)


def test_ord_p_keeps_rejecting_composites_once_primes_are_cached():
    # the primality test is cached per modulus: a composite still raises on
    # every call, before and after its prime factors have been used
    for _ in range(2):
        for composite in (1, 0, -7, 4, 709 * 719, 3**40):
            with pytest.raises(MathDomainError, match="requires a prime"):
                ord_p(Fraction(709 * 719), composite)
        assert ord_p(Fraction(709 * 719), 709) == 1


@pytest.mark.parametrize("p", [2, 3, 709, 2**61 - 1])
def test_ord_p_binary_descent_reads_every_exponent(p):
    for k in range(70):
        for m in (1, p - 1, p + 1):
            assert ord_p(Fraction(p**k * m, 7), p) == k
            assert ord_p(Fraction(-m, p**k), p) == -k


@given(st.integers(-999, 999).filter(bool), st.integers(1, 999),
       st.integers(-999, 999).filter(bool), st.integers(1, 999),
       st.sampled_from([2, 3, 5, 7]))
def test_ord_p_additive(a, b, c, d, p):
    x, y = Fraction(a, b), Fraction(c, d)
    assert ord_p(x * y, p) == ord_p(x, p) + ord_p(y, p)


@given(st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**6))
def test_fraction_inverse_is_exact(a, b):
    x = Fraction(a, b)
    assert x * (1 / x) == 1


def test_log_fraction_huge_values():
    # log |x| of a rational is log_abs_v at the archimedean place of Q
    from entrank.numberfield import archimedean_places, build_field, log_abs_v

    q = build_field([0, 1])
    arch = archimedean_places(q)[0]
    x = q.element([Fraction(6**200 - 1, 6**200)])
    assert abs(log_abs_v(arch, x)) < 1e-150
    assert abs(log_abs_v(arch, q.element([2**5000])) - 5000 * math.log(2)) < 1e-9


# ---------------------------------------------------------------------------
# F_q linear algebra
# ---------------------------------------------------------------------------

def test_fq_rank_examples():
    assert rank_mod_q([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2) == 3
    assert rank_mod_q([[0] * 4 for _ in range(4)], 3) == 0
    assert rank_mod_q([[1, 1], [1, 1]], 2) == 1


def _naive_rank(entries, q):
    """Largest k with a nonsingular k x k minor (determinant mod q)."""
    n, m = len(entries), len(entries[0])

    def det(rows, cols):
        sub = [[entries[r][c] % q for c in cols] for r in rows]
        if len(sub) == 1:
            return sub[0][0] % q
        total = 0
        for j in range(len(sub)):
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            sign = -1 if j % 2 else 1
            total += sign * sub[0][j] * det_list(minor)
        return total % q

    def det_list(sub):
        if len(sub) == 1:
            return sub[0][0]
        total = 0
        for j in range(len(sub)):
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            sign = -1 if j % 2 else 1
            total += sign * sub[0][j] * det_list(minor)
        return total

    for k in range(min(n, m), 0, -1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(m), k):
                if det(rows, cols) % q:
                    return k
    return 0


@pytest.mark.parametrize("q", [2, 3, 5])
def test_fq_rank_matches_minor_rank(q):
    rng = random.Random(q * 100 + 9)
    for _ in range(15):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        entries = [[rng.randrange(q) for _ in range(m)] for _ in range(n)]
        assert rank_mod_q([row[:] for row in entries], q) == _naive_rank(entries, q)


# ---------------------------------------------------------------------------
# primes, factorization, real roots
# ---------------------------------------------------------------------------

def test_is_prime_small_and_carmichael():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**31 - 1)
    # the least strong pseudoprimes to the prime bases up to 37 and up to 41
    assert not is_prime(399165290221 * 798330580441)
    assert 1287836182261 * 2575672364521 == MILLER_RABIN_PROVEN_BELOW


def test_factor_int_roundtrip():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 10**12)
        fac = factor_int(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def _wheel_to_the_end(n):
    """trial_factor's answer by the wheel alone, run to min(sqrt(n), 100,000)."""
    n, out = abs(n), {}
    if n <= 1:
        return out, 1
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f, i, wheel = 7, 0, (4, 2, 4, 2, 4, 6, 2, 6)
    while f * f <= n and f < 100_000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += wheel[i]
        i = (i + 1) % 8
    return out, n


def _random_prime(rng, lo, hi):
    while True:
        p = rng.randrange(lo, hi)
        if is_prime(p):
            return p


def test_trial_factor_stopping_at_a_prime_cofactor_changes_nothing():
    # below 2^20, at squares of primes near 10^5 (so near 10^10), at two
    # primes above 10^5 (a composite cofactor), and at smooth parts times a
    # large prime, the early exit gives the full wheel's answer
    rng = random.Random(2020)
    pseudoprime = 399165290221 * 798330580441  # to the bases up to 37, not 41
    cases = [0, 1, -1, 2, 1 << 20, (1 << 20) + 7, -(10**6 + 3) * 4, pseudoprime,
             7 * pseudoprime, 11 * MILLER_RABIN_PROVEN_BELOW]
    cases += [rng.randrange(1 << 20) for _ in range(300)]
    for _ in range(12):
        p = _random_prime(rng, 90_000, 110_000)
        q = _random_prime(rng, 10**5, 10**7)
        r = _random_prime(rng, 1 << 20, 1 << 40)
        smooth = rng.choice((1, 2, 12, 7**3 * 11, 99_991))
        cases += [p * p, smooth * p * p, p * q, smooth * p * q, smooth * r, -smooth * r * r]
    for n in cases:
        assert trial_factor(n) == _wheel_to_the_end(n), n


def test_real_root_count():
    assert real_root_count([-1, -1, 1]) == 2  # golden mean
    assert real_root_count([1, 0, 1]) == 0  # x^2 + 1
    assert real_root_count([0, 1]) == 1
    assert real_root_count([-2, 0, 0, 1]) == 1  # x^3 - 2
    assert real_root_count([1, 0, 0, 0, 1]) == 0  # x^4 + 1
    assert real_root_count([6, -5, 1, 0]) == 2  # trailing zeros are trimmed
    assert real_root_count([2, -4]) == 1  # a negative leading coefficient


# ---------------------------------------------------------------------------
# the integer helpers against sympy (skipped when sympy is not installed)
# ---------------------------------------------------------------------------

def _seeded_monic_polys(seed, count):
    """Monic integer polynomials of degree 1-10; about 30 % carry a planted square factor."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.3:
            g = [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))] + [1]
            yield _mul(_mul(g, g), [rng.randint(-3, 3) for _ in range(rng.randint(0, 6))] + [1])
        else:
            yield [rng.randint(-6, 6) for _ in range(rng.randint(1, 10))] + [1]


def test_integer_helpers_match_sympy():
    sympy = pytest.importorskip("sympy")
    from entrank.entropy import _squarefree_parts
    from entrank.polyfactor import irreducible_over_q

    x = sympy.symbols("x")

    def ascending(g):  # primitive, with a positive leading coefficient
        cs = [int(c) for c in reversed(g.primitive()[1].all_coeffs())]
        return cs if cs[-1] > 0 else [-c for c in cs]

    squares = 0
    for f in _seeded_monic_polys(5150, 300):
        P = sympy.Poly(f[::-1], x)
        squares += P.degree() > P.sqf_part().degree()
        assert real_root_count(f) == P.sqf_part().count_roots()
        assert poly_gcd(f, poly_derivative(f)) == ascending(sympy.gcd(P, P.diff(x)))
        parts = sorted((tuple(ascending(g)), k) for g, k in P.sqf_list()[1])
        assert sorted(_squarefree_parts(f)) == parts
        assert irreducible_over_q(f)[0] == P.is_irreducible
    assert squares >= 60


def test_factor_int_raises_on_an_unproven_prime():
    from entrank.errors import ResourceLimitError

    # the bound itself is a strong pseudoprime to every base is_prime tries
    assert is_prime(MILLER_RABIN_PROVEN_BELOW)
    for n in (MILLER_RABIN_PROVEN_BELOW, 12 * MILLER_RABIN_PROVEN_BELOW):
        with pytest.raises(ResourceLimitError, match="probable prime of 82 bits"):
            factor_int(n)
    p = 3317044064679887385961813  # the largest prime below the bound
    assert factor_int(4 * p) == {2: 2, p: 1}


_ONE_PLUS_U = [{"exp": [0], "coeff": 1}, {"exp": [1], "coeff": 1}]


@pytest.mark.parametrize("route", [
    "finite_places_above", "ord_p", "gf_factor", "factor_int", "spec char"])
def test_every_prime_route_shares_the_proof_gate(route):
    # the bound is a strong pseudoprime to every base is_prime tries: each
    # route that goes on to use a modulus as prime refuses it the same way
    from entrank.action import parse_spec
    from entrank.errors import ResourceLimitError
    from entrank.numberfield import build_field, finite_places_above
    from entrank.polyfactor import gf_factor

    b = MILLER_RABIN_PROVEN_BELOW
    call = {
        "finite_places_above": lambda: finite_places_above(build_field([0, 1]), b),
        "ord_p": lambda: ord_p(3 * b, b),
        "gf_factor": lambda: gf_factor([1, 0, 1], b),
        "factor_int": lambda: factor_int(b),
        "spec char": lambda: parse_spec({"d": 1, "components": [
            {"char": b, "generators": [{"terms": _ONE_PLUS_U}]}]}),
    }[route]
    with pytest.raises(ResourceLimitError, match="probable prime of 82 bits is not proven prime"):
        call()


def test_factor_int_stops_pollard_rho_at_its_step_cap():
    from entrank.errors import ResourceLimitError

    p, q = 10**16 + 61, 3 * 10**16 + 29  # the primes after 10^16 and 3 * 10^16
    assert is_prime(p) and is_prime(q)
    with pytest.raises(ResourceLimitError, match="Pollard rho"):
        factor_int(p * q)
    assert factor_int((10**6 + 3) * (10**6 + 33)) == {10**6 + 3: 1, 10**6 + 33: 1}
