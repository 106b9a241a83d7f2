"""Exact scalar and univariate-polynomial arithmetic.

Rationals are stdlib ``fractions.Fraction``. ``Poly`` is an immutable tuple
of rational coefficients in ascending degree, for the algorithms that need
division over Q (extended gcd, Sturm chains). Resultants have one integer
core, the Bareiss determinant of the Sylvester matrix, which number-field
norms and valuations call directly on integer coefficients.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction


class AlgebraError(ValueError):
    """Invalid input to an exact-arithmetic operation."""


# ---------------------------------------------------------------------------
# p-adic order of a rational
# ---------------------------------------------------------------------------

def ord_p(x: Fraction | int, p: int) -> int:
    """Exponent of the prime p in x (negative when p divides the denominator)."""
    if p < 2 or not is_prime(p):
        raise AlgebraError(f"ord_p requires a prime, got {p}")
    if x == 0:
        raise AlgebraError("ord_p(0) is infinite")
    e = 0
    num = abs(x.numerator)
    while num % p == 0:
        num //= p
        e += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        e -= 1
    return e


def log_fraction(x: Fraction) -> float:
    """log of a positive rational, accurate for huge numerators/denominators."""
    if x <= 0:
        raise AlgebraError("log_fraction requires a positive rational")
    return math.log(x.numerator) - math.log(x.denominator)


# ---------------------------------------------------------------------------
# Polynomials over Q (coefficients ascending; index i holds the x^i coefficient)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(seq) -> "Poly":
        cs = [Fraction(c) for c in seq]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise AlgebraError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading() == 1

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly.of(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly(())
        return Poly(tuple(x * c for x in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.of(out)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise AlgebraError("division by the zero polynomial")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d, lc = other.degree, other.leading()
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lc
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return Poly.of(q), Poly.of(rem)

    def derivative(self) -> "Poly":
        return Poly.of([i * c for i, c in enumerate(self.coeffs)][1:])

    def content_and_primitive(self) -> tuple[Fraction, "Poly"]:
        """Rational content c > 0 and primitive integer part P with self = c*P."""
        if self.is_zero():
            return Fraction(0), self
        num_gcd = 0
        den_lcm = 1
        for c in self.coeffs:
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        content = Fraction(num_gcd, den_lcm)
        return content, self.scale(1 / content)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = str(abs(c)) if (abs(c) != 1 or i == 0) else ""
            if i >= 1:
                term += "x" if not term else "*x"
                if i > 1:
                    term += f"^{i}"
            parts.append(("- " if c < 0 else "+ ") + term)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


def poly_ext_gcd(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """(d, t): d the monic gcd of f and g over Q (zero when both are), and t
    with t*g = d mod f. The cofactor of f is not formed."""
    r0, r1 = f, g
    t0, t1 = Poly.of([]), Poly.of([1])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, t0
    inv = 1 / r0.leading()
    return r0.scale(inv), t0.scale(inv)


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


def int_resultant(f, g) -> int:
    """Res(f, g) of two nonzero integer polynomials given as ascending
    coefficients (trailing zeros allowed): the Sylvester determinant."""
    f, g = list(f), list(g)
    while not f[-1]:
        f.pop()
    while not g[-1]:
        g.pop()
    n, m = len(f) - 1, len(g) - 1
    if m == 0:  # also the empty matrix when n = 0
        return g[0] ** n
    f.reverse()
    g.reverse()
    rows = [[0] * i + f + [0] * (m - 1 - i) for i in range(m)]  # m rows of f
    rows += [[0] * i + g + [0] * (n - 1 - i) for i in range(n)]  # n rows of g
    return _bareiss_det(rows)


def resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g) over Q: the contents split off, int_resultant on the primitive parts."""
    if f.is_zero() and g.is_zero():
        raise AlgebraError("resultant of two zero polynomials is undefined")
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    cf, F = f.content_and_primitive()
    cg, G = g.content_and_primitive()
    det = int_resultant([int(c) for c in F.coeffs], [int(c) for c in G.coeffs])
    return det * cf**G.degree * cg**F.degree


def discriminant(f: Poly) -> Fraction:
    if f.degree < 1:
        raise AlgebraError("discriminant needs degree >= 1")
    n = f.degree
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.leading()


# ---------------------------------------------------------------------------
# Sturm chains (exact count of real roots)
# ---------------------------------------------------------------------------

def _sign_changes(vals: list[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in vals if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def real_root_count(f: Poly) -> int:
    """Number of distinct real roots of a squarefree polynomial."""
    if f.degree < 1:
        return 0
    chain = [f, f.derivative()]
    while chain[-1].degree >= 1:
        r = chain[-2].divmod(chain[-1])[1]
        if r.is_zero():
            break
        chain.append(r.scale(-1))
    # leading behavior at -inf / +inf
    at_pos = [p.leading() for p in chain if not p.is_zero()]
    at_neg = [p.leading() * (-1 if p.degree % 2 else 1) for p in chain if not p.is_zero()]
    return _sign_changes(at_neg) - _sign_changes(at_pos)


# ---------------------------------------------------------------------------
# Primality and integer factorization (desk scale)
# ---------------------------------------------------------------------------

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


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
    # deterministic Miller-Rabin below 3.3e24 with these bases
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


def _pollard_rho(n: int, rng: random.Random) -> int:
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def trial_factor(n: int) -> tuple[dict[int, int], int]:
    """({prime: exponent} for the primes below 100,000 dividing |n|, cofactor).

    The cofactor has no prime factor below 100,000; it is 1, a prime, or,
    only when |n| has two prime factors above that, composite."""
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
    while f * f <= n and f < 100_000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += wheel[i]
        i = (i + 1) % 8
    return out, n


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; 0 and ±1 give {}."""
    out, n = trial_factor(n)
    rng = random.Random(n)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
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
