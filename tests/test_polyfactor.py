import random

import pytest

from entrank.algebra import discriminant
from entrank.polyfactor import (
    KRONECKER_MIN_LEN,
    _gf_mul_kronecker,
    factor_monic_int_poly,
    gf_factor,
    gf_from_int_poly,
    gf_mul,
    gf_trim,
    hensel_lift_factors,
    irreducible_over_q,
    unity_order_candidates,
)


def _int_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _reassemble(factors, p):
    out = [1]
    for f, mult in factors:
        for _ in range(mult):
            out = gf_mul(out, f, p)
    return out


def test_gf_factor_golden_mean_mod_2_irreducible():
    f = gf_from_int_poly([-1, -1, 1], 2)
    factors = gf_factor(f, 2)
    assert factors == [([1, 1, 1], 1)]


def test_gf_factor_golden_mean_mod_5_ramified():
    f = gf_from_int_poly([-1, -1, 1], 5)
    factors = gf_factor(f, 5)
    assert factors == [([2, 1], 2)]  # (t + 2)^2


def test_gf_factor_splits_mod_11():
    f = gf_from_int_poly([-1, -1, 1], 11)
    factors = gf_factor(f, 11)
    assert len(factors) == 2 and all(m == 1 for _g, m in factors)
    assert _reassemble(factors, 11) == f


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_gf_factor_random_roundtrip(p):
    rng = random.Random(100 + p)
    for _ in range(25):
        deg = rng.randint(1, 7)
        f = [rng.randrange(p) for _ in range(deg)] + [1]
        factors = gf_factor(f, p)
        assert _reassemble(factors, p) == f
        for g, _m in factors:
            assert g[-1] == 1  # monic irreducible parts


def test_gf_factor_handles_pth_powers():
    # (t^2 + t + 1)^2 mod 2 has zero derivative
    sq = gf_mul([1, 1, 1], [1, 1, 1], 2)
    assert gf_factor(sq, 2) == [([1, 1, 1], 2)]


@pytest.mark.parametrize("p, root", [(2, None), (3, None), (5, None), (2**61 - 1, None),
                                     (3**20, 3), (2**64, 2)])
def test_gf_mul_matches_schoolbook(p, root):
    # lengths on both sides of the Kronecker threshold, balanced and not; the
    # p^k moduli are the Hensel ones, where leading coefficients root and
    # p / root multiply to 0 and leave trailing zeros to trim
    rng = random.Random(p % 1000003)
    t = KRONECKER_MIN_LEN
    shapes = [(0, 0), (0, t), (1, 1), (1, 3 * t), (t - 1, t - 1), (t - 1, 5 * t),
              (t, t), (t, 5 * t), (3 * t, 2 * t), (200, 300)]
    for a, b in shapes:
        for _ in range(3):
            f = [rng.randrange(p) for _ in range(a)]
            g = [rng.randrange(p) for _ in range(b)]
            if root:
                f[-1:] = [root] * min(a, 1)
                g[-1:] = [p // root] * min(b, 1)
            want = gf_trim([c % p for c in _int_mul(f, g)])
            assert gf_mul(f, g, p) == want, (a, b)
            if f and g:
                assert _gf_mul_kronecker(f, g, p) == want, (a, b)


def test_gf_mul_kronecker_edges():
    assert _gf_mul_kronecker([1], [1], 2) == [1]
    assert _gf_mul_kronecker([3], [3], 9) == []
    assert _gf_mul_kronecker([4, 0, 0], [0, 5], 7) == [0, 6]
    # every slot at its bound min(len) (p - 1)^2, the case a carry would spoil
    f = [256] * 40
    assert _gf_mul_kronecker(f, f, 257) == gf_trim([c % 257 for c in _int_mul(f, f)])


def test_hensel_lift_product_matches():
    f = [1, 0, 0, 0, 1]  # x^4 + 1
    modular = [g for g, _ in gf_factor(gf_from_int_poly(f, 3), 3)]
    lifted = hensel_lift_factors(f, modular, 3, 4)
    m = 3 ** (2 ** 2)  # lifting doubles exponents: reaches 3^4
    prod = [1]
    for blk in lifted:
        out = [0] * (len(prod) + len(blk) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(blk):
                out[i + j] = (out[i + j] + a * b) % m
        prod = out
    expected = [c % m for c in (1, 0, 0, 0, 1)]
    assert prod == expected
    for blk, orig in zip(lifted, modular):
        assert [c % 3 for c in blk] == orig


def test_factor_x4_plus_1_irreducible():
    # reducible mod every prime, irreducible over Q
    assert factor_monic_int_poly([1, 0, 0, 0, 1]) == [(1, 0, 0, 0, 1)]


def test_build_field_takes_the_discriminant_once(monkeypatch):
    # the squarefree test and Zassenhaus's choice of primes share one
    # discriminant, so x^4 + 1 (which reaches Zassenhaus) costs one resultant
    # from a cold discriminant cache
    import entrank.algebra as algebra
    from entrank import build_field

    algebra._discriminant.cache_clear()
    calls = []
    inner = algebra.resultant

    def counting(f, g):
        calls.append((tuple(f), tuple(g)))
        return inner(f, g)

    monkeypatch.setattr(algebra, "resultant", counting)
    assert build_field([1, 0, 0, 0, 1]).degree == 4
    assert len(calls) == 1


def test_factor_products():
    f = [-1, 0, 1]  # (x-1)(x+1)
    got = factor_monic_int_poly(f)
    assert got == [(-1, 1), (1, 1)]
    g = _int_mul(_int_mul([-1, -1, 1], [1, 1, 1]), [-2, 1])
    parts = factor_monic_int_poly(g)
    assert sorted(len(p) - 1 for p in parts) == [1, 2, 2]
    prod = [1]
    for p in parts:
        prod = _int_mul(prod, p)
    assert prod == g


def test_irreducible_over_q():
    ok, witness = irreducible_over_q([-1, -1, 1])
    assert ok and witness is None
    ok, witness = irreducible_over_q([-1, 0, 1])
    assert not ok and witness is not None and len(witness) >= 2
    # non-squarefree input yields the gcd witness
    ok, witness = irreducible_over_q([1, 2, 1])
    assert not ok and witness == (1, 1)


def test_unity_order_candidates():
    assert unity_order_candidates(1) == [1, 2]
    assert set(unity_order_candidates(2)) == {1, 2, 3, 4, 6}
    cands = unity_order_candidates(8)
    assert {1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20, 24, 30}.issubset(set(cands))
    assert all(n <= 130 for n in cands)


# ---------------------------------------------------------------------------
# sympy as an independent oracle (skipped when sympy is not installed)
# ---------------------------------------------------------------------------

def _random_monic(rng, deg, lo, hi):
    return [rng.randint(lo, hi) for _ in range(deg)] + [1]


def _mod_p_cases(rng, p):
    """Dense monic polynomials of degree 1-8, and g^e * h with e = 2 or 3."""
    for _ in range(15):
        yield _random_monic(rng, rng.randint(1, 8), 0, p - 1)
    for _ in range(15):
        g = _random_monic(rng, rng.randint(1, 2), 0, p - 1)
        f = _random_monic(rng, rng.randint(1, 2), 0, p - 1)
        for _ in range(rng.randint(2, 3)):
            f = gf_mul(f, g, p)
        yield f


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gf_factor_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(4000 + p)
    for f in _mod_p_cases(rng, p):
        _lc, theirs = sympy.Poly(f[::-1], x, modulus=p).factor_list()
        expected = sorted(([int(c) % p for c in reversed(g.all_coeffs())], m) for g, m in theirs)
        assert sorted(gf_factor(f, p)) == expected


def test_factor_monic_int_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(4100)
    checked = 0
    while checked < 40:
        f = [1]
        for _ in range(rng.randint(1, 3)):
            f = _int_mul(f, _random_monic(rng, rng.randint(1, 3), -4, 4))
        if len(f) > 9 or len(f) < 2 or discriminant(f) == 0:
            continue
        _content, theirs = sympy.factor_list(sympy.Poly(f[::-1], x))
        expected = sorted(tuple(int(c) for c in reversed(g.all_coeffs())) for g, _m in theirs)
        assert all(m == 1 for _g, m in theirs)
        got = sorted(factor_monic_int_poly(f))
        assert got == expected
        checked += 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hensel_lift_product_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(4200 + p)
    lifted_cases = 0
    while lifted_cases < 10:
        f = _random_monic(rng, rng.randint(2, 8), -9, 9)
        modular = gf_factor(gf_from_int_poly(f, p), p)
        if len(modular) < 2 or any(m > 1 for _g, m in modular):
            continue
        target = rng.randint(1, 9)
        lifted = hensel_lift_factors(f, [g for g, _m in modular], p, target)
        k = 1
        while k < target:
            k *= 2
        prod = sympy.Poly([1], x)
        for blk, (orig, _m) in zip(lifted, modular):
            assert blk[-1] == 1 and [c % p for c in blk] == orig
            prod = prod * sympy.Poly(blk[::-1], x)
        got = [int(c) % p**k for c in reversed(prod.all_coeffs())]
        assert got == [c % p**k for c in f]
        lifted_cases += 1
