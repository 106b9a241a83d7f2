import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from entrank.algebra import (
    AlgebraError,
    Poly,
    discriminant,
    factor_int,
    is_prime,
    log_fraction,
    ord_p,
    poly_ext_gcd,
    rank_mod_q,
    real_root_count,
    resultant,
)


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def test_resultant_linear_pair():
    assert resultant(Poly.of([-2, 1]), Poly.of([-3, 1])) == -1


def test_resultant_golden_mean_times_linear():
    # 4 * ((1/2)^2 - 1/2 - 1) = -5
    assert resultant(Poly.of([-1, -1, 1]), Poly.of([-1, 2])) == -5


def test_resultant_with_monomial():
    assert resultant(Poly.of([1, 0, 1]), Poly.of([0, 1])) == 1


def test_resultant_both_zero_rejected():
    with pytest.raises(AlgebraError):
        resultant(Poly.of([]), Poly.of([]))


def test_resultant_rational_scaling():
    f = Poly.of([Fraction(1, 2), Fraction(1, 3), 1])
    g = Poly.of([Fraction(-2, 5), 1])
    # Res(f, g) = f(2/5) since g is monic linear
    assert resultant(f, g) == f(Fraction(2, 5))


def _random_poly(rng, max_deg=4):
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [rng.randint(1, 5)]
    return Poly.of(coeffs)


def test_resultant_swap_sign():
    rng = random.Random(7)
    for _ in range(60):
        f, g = _random_poly(rng), _random_poly(rng)
        sign = -1 if (f.degree * g.degree) % 2 else 1
        assert resultant(f, g) == sign * resultant(g, f)


def test_resultant_multiplicative_in_first_argument():
    rng = random.Random(11)
    for _ in range(30):
        f1, f2, g = _random_poly(rng, 3), _random_poly(rng, 3), _random_poly(rng, 3)
        assert resultant(f1 * f2, g) == resultant(f1, g) * resultant(f2, g)


def test_discriminant_quadratic():
    # b^2 - 4ac for x^2 + bx + c
    assert discriminant(Poly.of([-1, -1, 1])) == 5
    assert discriminant(Poly.of([1, 0, 1])) == -4


def test_poly_ext_gcd_identity():
    # d is the monic gcd and t*g = d mod f, on pairs with a planted common factor
    rng = random.Random(31)
    for _ in range(40):
        common = Poly.of([rng.randint(-3, 3) for _ in range(rng.randint(0, 2))] + [1])
        f = common * Poly.of([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1])
        g = common * Poly.of([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(rng.randint(1, 4))])
        if g.is_zero():
            continue
        d, t = poly_ext_gcd(f, g)
        assert d.is_monic() and d.degree >= common.degree
        assert f.divmod(d)[1].is_zero() and g.divmod(d)[1].is_zero()
        assert (t * g - d).divmod(f)[1].is_zero()
    assert poly_ext_gcd(Poly.of([]), Poly.of([])) == (Poly.of([]), Poly.of([]))


# ---------------------------------------------------------------------------
# p-adic order
# ---------------------------------------------------------------------------

def test_ord_p_examples():
    assert ord_p(Fraction(5, 32), 2) == -5
    assert ord_p(Fraction(27, 32), 3) == 3
    assert ord_p(Fraction(10), 7) == 0


def test_ord_p_rejects_zero_and_composite():
    with pytest.raises(AlgebraError):
        ord_p(Fraction(0), 2)
    with pytest.raises(AlgebraError):
        ord_p(Fraction(1), 4)


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
    import math

    x = Fraction(6**200 - 1, 6**200)
    assert abs(log_fraction(x)) < 1e-150
    assert abs(log_fraction(Fraction(2**5000)) - 5000 * math.log(2)) < 1e-9


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


def test_real_root_count():
    assert real_root_count(Poly.of([-1, -1, 1])) == 2  # golden mean
    assert real_root_count(Poly.of([1, 0, 1])) == 0  # x^2 + 1
    assert real_root_count(Poly.of([0, 1])) == 1
    assert real_root_count(Poly.of([-2, 0, 0, 1])) == 1  # x^3 - 2
    assert real_root_count(Poly.of([1, 0, 0, 0, 1])) == 0  # x^4 + 1
