"""Exact scalar and univariate-polynomial arithmetic.

Rationals are stdlib ``fractions.Fraction``. Polynomials have integer
coefficients, as lists or tuples in ascending degree: minimal polynomials,
Mahler-measure inputs and the norms behind every count. The Z[x] helpers
avoid division over Q: gcds and Sturm chains run on primitive
pseudo-remainders (Knuth, TAOCP vol. 2, 4.6.1; Cohen, GTM 138, 3.3), and the
one resultant, which norms, valuations and discriminants share, is the
Bareiss determinant of multiplication by g modulo the monic f.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from .errors import MathDomainError, ResourceLimitError


# ---------------------------------------------------------------------------
# p-adic order of a rational
# ---------------------------------------------------------------------------

def ord_p(x: Fraction | int, p: int) -> int:
    """Exponent of the prime p in x (negative when p divides the denominator)."""
    if not proven_prime(p):
        raise MathDomainError(f"ord_p requires a prime, got {p}")
    if x == 0:
        raise MathDomainError("ord_p(0) is infinite")
    return ord_proven(x, p)


def ord_proven(x: Fraction | int, p: int) -> int:
    """ord_p(x) for a nonzero x and a p that the caller has already proven
    prime, as placement proves each support prime, without ord_p's gate."""
    num, den = abs(x.numerator), x.denominator  # in lowest terms: p divides one at most
    if num % p == 0:
        return _multiplicity(num, p)
    return -_multiplicity(den, p) if den % p == 0 else 0


def _multiplicity(n: int, p: int) -> int:
    """The exponent of p in n, for p dividing n > 0, by binary descent: with
    p^(2^K) the last of p, p^2, p^4, ... to divide n, the exponent is below
    2^(K + 1), and dividing by each power that still divides, largest
    first, reads it off bit by bit."""
    powers = [p]
    while n % (sq := powers[-1] * powers[-1]) == 0:
        powers.append(sq)
    e = 0
    for k in range(len(powers) - 1, -1, -1):
        if n % powers[k] == 0:
            n //= powers[k]
            e += 1 << k
    return e


# ---------------------------------------------------------------------------
# Polynomials over Z (ascending int coefficients; index i holds the x^i coefficient)
# ---------------------------------------------------------------------------

def poly_trim(f) -> list[int]:
    """f as a list without trailing zero coefficients; [] is the zero polynomial."""
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def poly_derivative(f) -> list[int]:
    return poly_trim([i * c for i, c in enumerate(f)][1:])


def _content_free(f: list[int]) -> list[int]:
    """f divided by the gcd of its coefficients, signs kept."""
    g = math.gcd(*f)
    return f if g == 1 else [c // g for c in f]


def _prem(f: list[int], g: list[int]) -> list[int]:
    """|lc g|^(deg f - deg g + 1) f mod g (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R).
    The multiplier is positive, so the signs are those of the remainder over Q."""
    r, lc, s = list(f), abs(g[-1]), (1 if g[-1] > 0 else -1)
    for k in range(len(f) - len(g), -1, -1):
        t = s * r[-1]
        if lc != 1:
            r = [lc * c for c in r]
        if t:
            for i, c in enumerate(g):
                r[k + i] -= t * c
        r.pop()
    return poly_trim(r)


def poly_gcd(f, g) -> list[int]:
    """The gcd of f and g over Q, primitive in Z[x] with a positive leading
    coefficient ([] when both are zero), by primitive pseudo-remainders."""
    f, g = poly_trim(f), poly_trim(g)
    while g:
        f, g = g, _content_free(_prem(f, g))
    f = _content_free(f)
    return [-c for c in f] if f and f[-1] < 0 else f


def poly_divexact(f, g) -> list[int] | None:
    """q in Z[x] with f = q g, or None when there is none (g nonzero)."""
    r, n = poly_trim(f), len(g)
    q = [0] * max(0, len(r) - n + 1)
    for k in range(len(q) - 1, -1, -1):
        c, m = divmod(r[k + n - 1], g[-1])
        if m:
            return None
        q[k] = c
        for i, b in enumerate(g):
            r[k + i] -= c * b
    return None if any(r) else q


def poly_str(f) -> str:
    """f as text, leading term first: x^2 - 3*x + 1."""
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if not c:
            continue
        term = str(abs(c)) if (abs(c) != 1 or i == 0) else ""
        if i >= 1:
            term += "x" if not term else "*x"
            if i > 1:
                term += f"^{i}"
        parts.append(("- " if c < 0 else "+ ") + term)
    s = " ".join(parts) or "+ 0"  # the zero polynomial prints as 0
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


# ---------------------------------------------------------------------------
# Resultants and discriminants
# ---------------------------------------------------------------------------

def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss elimination);
    the rows are consumed."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant(f, g) -> int:
    """Res(f, g) of two nonzero integer polynomials (trailing zeros
    allowed): c^deg for a constant side c; by Horner for a linear side,
    Res(ax + b, g) = sum g_k (-b)^k a^(m-k) for g of degree m, and
    Res(g, f) = (-1)^(nm) Res(f, g); otherwise, for a monic f only, the norm
    of g(theta) in Z[x]/(f), the Bareiss determinant of multiplication by g."""
    f, g = poly_trim(f), poly_trim(g)
    if not (f and g):
        raise MathDomainError("resultant with the zero polynomial requested")
    n, m = len(f) - 1, len(g) - 1
    if n == 0 or m == 0:
        return f[0] ** m if n == 0 else g[0] ** n
    if n == 1:
        return _linear_resultant(f, g)
    if m == 1:
        return (-1) ** n * _linear_resultant(g, f)
    if f[-1] != 1:
        raise MathDomainError("resultant of degree >= 2 sides needs a monic first argument")
    g = _prem(g, f)  # g mod f
    g += [0] * (n - len(g))
    rows = []
    for _ in range(n):  # g, g x, ..., g x^(n-1) mod f
        rows.append(g)
        t = g[-1]
        g = [0] + g[:-1]
        if t:
            g = [c - t * a for c, a in zip(g, f)]
    return _bareiss_det(rows)


def _linear_resultant(f: list[int], g: list[int]) -> int:
    """Res(b + ax, g) = sum g_k (-b)^k a^(m-k), by Horner in -b."""
    (b, a), acc, apow = f, g[-1], 1
    for c in reversed(g[:-1]):
        apow *= a
        acc = acc * -b + c * apow
    return acc


def discriminant(f) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f) for f monic from degree 3
    on, cached by f, so that the irreducibility test that builds a field and
    that field's local splits share one resultant."""
    return _discriminant(tuple(poly_trim(f)))


@functools.lru_cache(maxsize=1024)
def _discriminant(f: tuple[int, ...]) -> int:
    n = len(f) - 1
    if n < 1:
        raise MathDomainError("discriminant needs degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, poly_derivative(f)) // f[-1]


# ---------------------------------------------------------------------------
# Sturm chains (exact count of real roots)
# ---------------------------------------------------------------------------

def _sign_changes(vals: list[int]) -> int:
    signs = [1 if v > 0 else -1 for v in vals if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def real_root_count(f) -> int:
    """Number of distinct real roots of a squarefree integer polynomial.

    The Sturm chain f, f', -rem, ... is formed from pseudo-remainders with a
    positive multiplier, each divided by its positive content, so every
    member is a positive multiple of the chain over Q."""
    f = poly_trim(f)
    if len(f) < 2:
        return 0
    chain = [f, poly_derivative(f)]
    while len(chain[-1]) > 1:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in _content_free(r)])
    # leading behavior at -inf / +inf
    at_pos = [p[-1] for p in chain]
    at_neg = [p[-1] * (-1 if len(p) % 2 == 0 else 1) for p in chain]
    return _sign_changes(at_neg) - _sign_changes(at_pos)


# ---------------------------------------------------------------------------
# Primality and integer factorization (desk scale)
# ---------------------------------------------------------------------------

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
# The least strong pseudoprime to every base in _SMALL_PRIMES (Sorenson-Webster
# 2017): below it is_prime is a proof. 318665857834031151167461, the least to
# the bases up to 37, is why 41 is among them.
MILLER_RABIN_PROVEN_BELOW = 3317044064679887385961981
# Pollard rho needs about sqrt(q) steps for the least prime factor q, so this
# cap finds factors up to about 10^10 and gives up within about a second.
POLLARD_MAX_STEPS = 1 << 18


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic Miller-Rabin below MILLER_RABIN_PROVEN_BELOW with these bases
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ord_p runs at every prime a caller names, and the primes repeat, so their
# Miller-Rabin tests are kept.
@functools.lru_cache(maxsize=4096)
def proven_prime(p: int) -> bool:
    """The gate for every prime the program relies on: is_prime(p), a
    ResourceLimitError at a probable prime >= MILLER_RABIN_PROVEN_BELOW."""
    if not is_prime(p):
        return False
    if p >= MILLER_RABIN_PROVEN_BELOW:
        raise ResourceLimitError(f"a probable prime of {p.bit_length()} bits is not proven prime")
    return True


def _pollard_rho(n: int, rng: random.Random) -> int:
    """A proper factor of the composite n; ResourceLimitError once the
    iterations, over all restarts, pass POLLARD_MAX_STEPS."""
    steps = 0
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            steps += 1
            if steps > POLLARD_MAX_STEPS:
                raise ResourceLimitError(
                    f"Pollard rho found no factor of {n} in {POLLARD_MAX_STEPS} steps")
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def trial_factor(n: int) -> tuple[dict[int, int], int]:
    """({prime: exponent} for the primes below 100,000 dividing |n|, cofactor).

    The cofactor has no prime factor below 100,000; it is 1, a prime, or,
    only when |n| has two prime factors above that, composite. Once the
    cofactor exceeds 2^20 and is proven prime, no further trial divides it,
    so the wheel stops there rather than running on to its square root."""
    n = abs(n)
    out: dict[int, int] = {}
    if n <= 1:
        return out, 1
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    # plain is_prime: below the proof bound it is a proof, and the bound is tested first
    prime_rest = 1 << 20 < n < MILLER_RABIN_PROVEN_BELOW and is_prime(n)
    while not prime_rest and f * f <= n and f < 100_000:
        if n % f == 0:
            while n % f == 0:
                out[f] = out.get(f, 0) + 1
                n //= f
            prime_rest = 1 << 20 < n < MILLER_RABIN_PROVEN_BELOW and is_prime(n)
        f += wheel[i]
        i = (i + 1) % 8
    return out, n


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; 0 and ±1 give {}; a
    probable prime factor that is_prime does not prove is a ResourceLimitError."""
    out, n = trial_factor(n)
    rng = None  # seeded from the cofactor n, and only when Pollard rho runs
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if proven_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        if rng is None:
            rng = random.Random(n)
        d = _pollard_rho(m, rng)
        stack.extend([d, m // d])
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# Linear algebra over prime fields
# ---------------------------------------------------------------------------

def rank_mod_q(rows: list[list[int]], q: int) -> int:
    """Rank of a list-of-lists matrix over F_q (rows are consumed)."""
    if not rows or not rows[0]:
        return 0
    if q == 2:
        packed = []
        for r in rows:
            acc = 0
            for j, x in enumerate(r):
                if x & 1:
                    acc |= 1 << j
            packed.append(acc)
        return _rank_bits(packed)
    ncols = len(rows[0])
    rank = 0
    row_at = 0
    for col in range(ncols):
        piv = None
        for i in range(row_at, len(rows)):
            if rows[i][col] % q:
                piv = i
                break
        if piv is None:
            continue
        rows[row_at], rows[piv] = rows[piv], rows[row_at]
        inv = pow(rows[row_at][col], -1, q)
        prow = rows[row_at]
        for i in range(row_at + 1, len(rows)):
            f = rows[i][col] * inv % q
            if f:
                ri = rows[i]
                for j in range(col, ncols):
                    ri[j] = (ri[j] - f * prow[j]) % q
        rank += 1
        row_at += 1
        if row_at == len(rows):
            break
    return rank


def _rank_bits(rows: list[int]) -> int:
    """Rank over F_2 of rows packed as Python ints."""
    pivots: dict[int, int] = {}
    rank = 0
    for r in rows:
        while r:
            low = r & (-r)
            b = low.bit_length() - 1
            if b in pivots:
                r ^= pivots[b]
            else:
                pivots[b] = r
                rank += 1
                break
    return rank
