"""Univariate polynomial factorization: over F_p, and over Z for monic inputs.

The F_p path is squarefree decomposition + distinct-degree + Cantor-Zassenhaus
splitting (randomized, but seeded from the input so results are deterministic).
Callers that know their input is squarefree, as at a prime that does not
divide the discriminant, start at the distinct-degree step.
The Z path is Zassenhaus: factor mod a good prime, Hensel-lift past the
Mignotte bound, recombine subsets. Degrees stay small here (field degree is
capped at 8), so subset recombination is never a cost concern.

One Hensel lift serves Zassenhaus and number fields' local factors: quadratic
steps p^k -> p^2k on a product tree whose nodes carry their Bezout cofactors
(von zur Gathen-Gerhard, Modern Computer Algebra, 15.5), always from p.

Polynomials over Z/m are plain lists of ints in [0, m), ascending degree,
trimmed. The gf_* helpers are the one family for Z/m[x]: they take any
modulus m, and division needs only a unit leading coefficient of the
divisor. Factoring uses them with m = p; Hensel lifting and recombination
use them with m = p^k on monic factors. Integer polynomials are ascending
int sequences, with the Z[x] helpers of algebra.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from .algebra import (discriminant, is_prime, poly_derivative, poly_divexact, poly_gcd,
                      poly_trim, proven_prime, trial_factor)
from .errors import MathDomainError

GfPoly = list[int]


# ---------------------------------------------------------------------------
# Arithmetic in Z/m[x]
# ---------------------------------------------------------------------------

def gf_trim(f: GfPoly) -> GfPoly:
    while f and f[-1] == 0:
        f.pop()
    return f


def gf_from_int_poly(f, p: int) -> GfPoly:
    return gf_trim([c % p for c in f])


def gf_add(f: GfPoly, g: GfPoly, p: int) -> GfPoly:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return gf_trim(out)


def gf_sub(f: GfPoly, g: GfPoly, p: int) -> GfPoly:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return gf_trim(out)


# Shorter operand length from which Kronecker substitution beats the
# schoolbook loop: 0.5-1.2x at length 8-16, 1.3-2.4x at 24 and 30-75x at
# 1024, for moduli 2, 3, 5, 7, 3^8 and 2^61 - 1 (CPython 3.11, 2-CPU x86-64).
KRONECKER_MIN_LEN = 20


def gf_mul(f: GfPoly, g: GfPoly, p: int) -> GfPoly:
    if not f or not g:
        return []
    if min(len(f), len(g)) >= KRONECKER_MIN_LEN:
        return _gf_mul_kronecker(f, g, p)
    return gf_trim([c % p for c in _schoolbook(f, g)])


def _schoolbook(f: GfPoly, g: GfPoly) -> list[int]:
    """f g over Z, untrimmed."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _gf_mul_kronecker(f: GfPoly, g: GfPoly, p: int) -> GfPoly:
    """f g by Kronecker substitution: each operand packed into one integer,
    a slot of `size` bytes per coefficient, so that one big-integer product
    holds every coefficient of f g over Z in its own slot. A slot holds
    min(len) (p - 1)^2, the largest such coefficient, so no carry crosses
    into the next one. The product is unpacked from its bytes in one pass;
    repeated shifts would make the unpacking quadratic."""
    size = ((min(len(f), len(g)) * (p - 1) ** 2).bit_length() + 7) // 8
    a, b = (int.from_bytes(b"".join((c % p).to_bytes(size, "little") for c in h), "little")
            for h in (f, g))
    n = len(f) + len(g) - 1
    raw = (a * b).to_bytes(n * size, "little")
    return gf_trim([int.from_bytes(raw[i:i + size], "little") % p
                    for i in range(0, n * size, size)])


def gf_prod(fs, p: int) -> GfPoly:
    out = [1]
    for f in fs:
        out = gf_mul(out, f, p)
    return out


def gf_divmod(f: GfPoly, g: GfPoly, p: int) -> tuple[GfPoly, GfPoly]:
    """(quotient, remainder) of f by g, as gf_rem reduces."""
    if not g:
        raise MathDomainError("division by zero polynomial")
    n, inv = len(g) - 1, pow(g[-1], -1, p)
    r, q = list(f), [0] * max(0, len(f) - n)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + n] * inv % p
        if c:
            for i in range(n):
                r[k + i] -= c * g[i]
    return gf_trim(q), gf_trim([c % p for c in r[:n]])


def gf_rem(f: GfPoly, g: GfPoly, p: int) -> GfPoly:
    """f mod g, with no quotient built. The leading coefficient of g is a
    unit; each coefficient of f is reduced once, the top one as it is
    divided out and the rest at the end, so f may hold any integers."""
    if not g:
        raise MathDomainError("division by zero polynomial")
    n, inv = len(g) - 1, pow(g[-1], -1, p)
    r = list(f)
    for k in range(len(r) - 1 - n, -1, -1):
        c = r[k + n] * inv % p
        if c:
            for i in range(n):
                r[k + i] -= c * g[i]
    return gf_trim([c % p for c in r[:n]])


def gf_monic(f: GfPoly, p: int) -> GfPoly:
    if not f:
        return []
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def gf_gcd(f: GfPoly, g: GfPoly, p: int) -> GfPoly:
    while g:
        f, g = g, gf_rem(f, g, p)
    return gf_monic(f, p)


def gf_pow_mod(f: GfPoly, e: int, mod: GfPoly, p: int) -> GfPoly:
    """f^e mod mod, squaring only while bits of e are left: e = 1 is one
    reduction. Below Kronecker's length the products stay over Z, so that
    gf_rem reduces each of their coefficients once."""
    if not e:
        return [1]
    f, out = gf_rem(f, mod, p), None
    mul = _schoolbook if len(mod) <= KRONECKER_MIN_LEN else functools.partial(gf_mul, p=p)
    while True:
        if e & 1:
            out = f if out is None else gf_rem(mul(out, f), mod, p)
        e >>= 1
        if not e:
            return out
        f = gf_rem(mul(f, f), mod, p)


def gf_derivative(f: GfPoly, p: int) -> GfPoly:
    return gf_trim([i * c % p for i, c in enumerate(f)][1:])


# ---------------------------------------------------------------------------
# Factorization in F_p[x]
# ---------------------------------------------------------------------------

def _gf_pth_root(f: GfPoly, p: int) -> GfPoly:
    # f = g(x^p) implies g has the same coefficients (Frobenius fixes F_p)
    return gf_trim([f[i] for i in range(0, len(f), p)])


def gf_squarefree_parts(f: GfPoly, p: int) -> list[tuple[GfPoly, int]]:
    """Squarefree decomposition of a monic f: list of (monic factor, multiplicity)."""
    out: list[tuple[GfPoly, int]] = []
    e = 1
    f = gf_monic(f, p)
    while len(f) > 1:
        fp = gf_derivative(f, p)
        if not fp:
            f = _gf_pth_root(f, p)
            e *= p
            continue
        c = gf_gcd(f, fp, p)
        w = gf_divmod(f, c, p)[0]
        i = 1
        while len(w) > 1:
            y = gf_gcd(w, c, p)
            fac = gf_divmod(w, y, p)[0]
            if len(fac) > 1:
                out.append((fac, i * e))
            w = y
            c = gf_divmod(c, y, p)[0]
            i += 1
        if len(c) > 1:
            f = _gf_pth_root(c, p)
            e *= p
        else:
            break
    return out


def gf_distinct_degree(f: GfPoly, p: int) -> list[tuple[GfPoly, int]]:
    """Split monic squarefree f into products of irreducibles of equal degree."""
    out = []
    h = [0, 1]  # x
    d = 0
    f = f[:]
    while len(f) - 1 > 2 * d:
        d += 1
        h = gf_pow_mod(h, p, f, p)
        g = gf_gcd(gf_sub(h, [0, 1], p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = gf_divmod(f, g, p)[0]
            h = gf_rem(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def gf_equal_degree_split(f: GfPoly, d: int, p: int, rng: random.Random) -> list[GfPoly]:
    """Split monic squarefree f, all of whose irreducible factors have degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        gf_trim(a)
        if len(a) < 2:
            continue
        if p == 2:
            t = a[:]
            acc = a[:]
            for _ in range(d - 1):
                acc = gf_pow_mod(acc, 2, f, p)
                t = gf_add(t, acc, p)
            g = gf_gcd(t, f, p)
        else:
            g = gf_gcd(a, f, p)
            if not 0 < len(g) - 1 < n:
                b = gf_pow_mod(a, (p**d - 1) // 2, f, p)
                g = gf_gcd(gf_sub(b, [1], p), f, p)
        if 0 < len(g) - 1 < n:
            left = gf_equal_degree_split(g, d, p, rng)
            right = gf_equal_degree_split(gf_divmod(f, g, p)[0], d, p, rng)
            return left + right


def gf_factor(f: GfPoly, p: int) -> list[tuple[GfPoly, int]]:
    """Full monic factorization over F_p: sorted list of (irreducible, multiplicity)."""
    if not proven_prime(p):
        raise MathDomainError(f"modulus must be prime, got {p}")
    if len(f) <= 1:
        raise MathDomainError("cannot factor a constant")
    out = [(irr, mult) for part, mult in gf_squarefree_parts(f, p)
           for irr in gf_factor_squarefree(part, p)]
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def gf_factor_squarefree(f: GfPoly, p: int) -> list[GfPoly]:
    """The irreducible factors of a monic squarefree f over F_p, sorted, for
    callers that already know f is squarefree: distinct-degree, then
    Cantor-Zassenhaus seeded from f."""
    if len(f) == 2:  # placement's support is often one root of min_poly mod p
        return [gf_monic(f, p)]
    rng = random.Random(hash((p, tuple(f))) & 0xFFFFFFFF)
    out = [irr for block, d in gf_distinct_degree(f, p)
           for irr in gf_equal_degree_split(block, d, p, rng)]
    out.sort(key=lambda g: (len(g), g))
    return out


# ---------------------------------------------------------------------------
# Hensel lifting (monic factors of a monic integer polynomial)
# ---------------------------------------------------------------------------

def _hensel_step(f, g, h, s, t, m):
    """One quadratic lift: f = g*h and s*g + t*h = 1, valid mod m -> mod m^2.

    h stays monic, so gf_divmod by it works mod m^2.
    """
    m2 = m * m
    e = gf_sub(f, gf_mul(g, h, m2), m2)
    q, r = gf_divmod(gf_mul(s, e, m2), h, m2)
    g1 = gf_add(g, gf_add(gf_mul(t, e, m2), gf_mul(q, g, m2), m2), m2)
    h1 = gf_add(h, r, m2)
    b = gf_sub(gf_add(gf_mul(s, g1, m2), gf_mul(t, h1, m2), m2), [1], m2)
    c, d = gf_divmod(gf_mul(s, b, m2), h1, m2)
    s1 = gf_sub(s, d, m2)
    t1 = gf_sub(t, gf_add(gf_mul(t, b, m2), gf_mul(c, g1, m2), m2), m2)
    return g1, h1, s1, t1


def _gf_ext_gcd(f: GfPoly, g: GfPoly, p: int) -> tuple[GfPoly, GfPoly]:
    """(s, t) with s*f + t*g = 1 for coprime f, g over F_p."""
    r0, r1 = f[:], g[:]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gf_sub(s0, gf_mul(q, s1, p), p)
        t0, t1 = t1, gf_sub(t0, gf_mul(q, t1, p), p)
    if len(r0) != 1:
        raise MathDomainError("polynomials are not coprime")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def hensel_lift_factors(f, factors: list[GfPoly], p: int,
                        target_exp: int) -> list[tuple[int, ...]]:
    """Lift pairwise-coprime monic factors of monic f from mod p to mod p^k,
    k the least power of two >= target_exp, as tuples in input order; the
    product of the lifted factors is f mod p^k. Monic lifts are unique, so
    a lift to p^k is a lift to any higher power reduced mod p^k.

    f's two halves G, H and their Bezout cofactors S, T mod p are lifted by
    quadratic steps, then each half with its own factors."""
    k = 1 << (target_exp - 1).bit_length()
    f = [c % p**k for c in f]
    if len(factors) == 1:
        return [tuple(f)]
    half = len(factors) // 2
    G, H = gf_prod(factors[:half], p), gf_prod(factors[half:], p)
    S, T = _gf_ext_gcd(G, H, p)
    m = p
    for _ in range(k.bit_length() - 1):
        G, H, S, T = _hensel_step(f, G, H, S, T, m)
        m *= m
    return (hensel_lift_factors(G, factors[:half], p, k)
            + hensel_lift_factors(H, factors[half:], p, k))


# ---------------------------------------------------------------------------
# Factorization over Z (monic input) and irreducibility
# ---------------------------------------------------------------------------

def _symmetric(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def factor_monic_int_poly(f) -> list[tuple[int, ...]]:
    """Irreducible monic factors of a monic squarefree integer polynomial,
    sorted by degree and then coefficients."""
    f = tuple(poly_trim(f))
    if not f or f[-1] != 1:
        raise MathDomainError("expected a monic integer polynomial")
    return _factor_squarefree(f, discriminant(f))


def _factor_squarefree(f: tuple[int, ...], disc: int) -> list[tuple[int, ...]]:
    """factor_monic_int_poly for a trimmed monic f with disc = discriminant(f):
    Zassenhaus over the prime with the fewest factors among the first five
    primes that do not divide disc."""
    if disc == 0:
        raise MathDomainError("input must be squarefree")
    best: tuple[int, list[GfPoly]] | None = None
    p = 1
    tried = 0
    while tried < 5:
        p = _next_prime(p)
        if disc % p == 0:
            continue
        tried += 1
        fac = gf_factor_squarefree(gf_from_int_poly(f, p), p)
        if len(fac) == 1:
            return [f]
        if best is None or len(fac) < len(best[1]):
            best = (p, fac)
    assert best is not None
    p, modular = best
    bound = (1 << len(f)) * (math.isqrt(sum(c * c for c in f)) + 1)  # Mignotte
    k = 1
    while p**k <= 2 * bound:
        k *= 2
    lifted = hensel_lift_factors(f, modular, p, k)
    m = p**k

    remaining = list(range(len(lifted)))
    current = f
    found: list[tuple[int, ...]] = []
    size = 1
    while 2 * size <= len(remaining):
        progress = False
        for subset in itertools.combinations(remaining, size):
            cand = [_symmetric(c, m) for c in gf_prod((lifted[i] for i in subset), m)]
            q = poly_divexact(current, cand)
            if q is not None:
                found.append(tuple(cand))
                current = q
                remaining = [i for i in remaining if i not in subset]
                progress = True
                break
        if not progress:
            size += 1
    if len(current) >= 2:
        found.append(tuple(current))
    found.sort(key=lambda g: (len(g), g))
    return found


def _next_prime(n: int) -> int:
    n += 1  # plain is_prime: Zassenhaus asks only for small primes, far below the proof bound
    while not is_prime(n):
        n += 1
    return n


def irreducible_over_q(f) -> tuple[bool, tuple[int, ...] | None]:
    """Exact test for a monic integer polynomial (ascending coefficients,
    trimmed); returns (flag, witness factor)."""
    if len(f) == 2:
        return True, None
    disc = discriminant(f)  # the squarefree test, then Zassenhaus's choice of primes
    if disc == 0:  # not squarefree: the witness is gcd(f, f')
        return False, tuple(poly_gcd(f, poly_derivative(f)))
    for r in _integer_root_candidates(f):
        if functools.reduce(lambda acc, c: acc * r + c, reversed(f), 0) == 0:
            return False, (-r, 1)
    factors = _factor_squarefree(tuple(f), disc)
    if len(factors) == 1:
        return True, None
    roots = [-g[0] for g in factors if len(g) == 2]
    if roots:  # the root the candidates would have met first
        r = min(roots, key=_root_order)
        return False, (-r, 1)
    return False, factors[0]


def _root_order(r: int) -> tuple[int, bool]:
    return abs(r), r < 0


def _integer_root_candidates(f) -> list[int]:
    """Every divisor of the constant term c0 with its negative, ordered by
    |.| and then positive first, when trial division leaves at most a prime
    cofactor of c0. A composite cofactor would need Pollard rho (about
    sqrt(q) steps for its least prime q), so then there are no candidates
    and Zassenhaus finds every linear factor instead."""
    c0 = abs(f[0])
    if c0 == 0:
        return [0]
    primes, rest = trial_factor(c0)
    if rest > 1:
        # plain is_prime: a fast path, so a pseudoprime cofactor only hides a
        # root that Zassenhaus then finds, where proven_prime would raise
        if not is_prime(rest):
            return []
        primes[rest] = 1
    divisors = [1]
    for q, e in primes.items():
        divisors = [d * q**k for d in divisors for k in range(e + 1)]
    return sorted((s * d for d in divisors for s in (1, -1)), key=_root_order)


# ---------------------------------------------------------------------------
# Roots of unity
# ---------------------------------------------------------------------------

def unity_order_candidates(degree: int) -> list[int]:
    """Possible orders of a root of unity inside a number field of this degree.

    An order n forces phi(n) to divide the degree; phi(n) >= sqrt(n/2) bounds
    the scan range. phi(1..limit) comes from one sieve over the primes q:
    phi(m) loses phi(m)/q for each prime q dividing m.
    """
    limit = 2 * degree * degree + 2
    phi = list(range(limit + 1))
    for q in range(2, limit + 1):
        if phi[q] == q:  # untouched, so prime
            for m in range(q, limit + 1, q):
                phi[m] -= phi[m] // q
    return [n for n in range(1, limit + 1) if degree % phi[n] == 0]
