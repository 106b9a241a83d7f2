"""Number fields K = Q(theta), their places, and normalized absolute values.

An element is integer numerators over one denominator c > 0 in the power
basis, x = (a_0 + a_1 theta + ... + a_(d-1) theta^(d-1)) / c, in lowest
terms, so equal values compare and hash equal. Products and characteristic
polynomials share one integer multiply-and-reduce modulo the monic minimal
polynomial. Each element's characteristic polynomial is computed once and
cached in integers; placement's support primes, the inverse (by
Cayley-Hamilton, in integers, which powers cache) and root_of_unity_order's
integrality test all read it. Norms and valuations share one integer norm,
algebra.resultant: the d x d determinant of multiplication by the element,
and for each lifted block's share the deg F_v x deg F_v one.

Normalization fixes the Artin-Whaples product formula: real places contribute
|sigma(x)|, complex places |sigma(x)|^2, and a finite place v above p with
residue degree f contributes (p^f)^(-ord_v(x)). With this choice the product
of |x|_v over all places is 1, and the product over the archimedean places
alone equals |N(x)|.

Finite places come from Dedekind factorization of f = min_poly mod p, split
only as far as a support asks, in one cached local split per (field, p,
support). Where p divides disc(min_poly), f's squarefree decomposition
gives every e_v and the radical that Dedekind's criterion, the one
p-maximality test, reads on the whole of f; when p divides the index it
raises instead of returning wrong data. Elsewhere f is squarefree and p
divides no index, since disc(min_poly) = index^2 disc(K). Only the gcd of
each squarefree part with the support (support_mod_p, or None for all of f)
is split into places; the rest of f is one cofactor block that yields no
place. Valuations take one pass per prime: valuations_above takes the norm
of the element's integral part, shared with NumberField.norm through one
small cache, and splits its ord_p among the split's blocks: all of it to
the only block, or to the only one that meets the integral part mod p, or
else by one resultant per Hensel-lifted block, checked against the same
total. Each (field, prime, precision, support) lifts its blocks from p
once, and the lift is cached. ord_v reads one entry of that pass, under the
support its place was found with.

Archimedean data carries proven error radii, in integers from root isolation
on. The roots of the minimal polynomial, refined from a double-precision
start by Durand-Kerner sweeps on Gaussian integers until no root moves by
more than one unit (one sweep per real root and per conjugate pair where
the starts pair up), sit in Weierstrass inclusion discs told apart exactly:
centre (a + ib) 2^-E and radius r 2^-E, integers at the finest scale E their
radii need, each radius rounded up once. An Embedding keeps those integers,
and embedding i names one root at every precision. An embedding's value
sigma_v(x) is A(z) / c, with A(z) from integer Horner at the exact centre z
in a ball whose integer radius covers that disc, and every ball built from
these carries its radius on, rounded outward, in integers or raw libmp
numbers, never an mpmath number or context. A logarithm ball for sigma_v(x)
is held in one form, integers at scale 2^-prec with the radius rounded up,
so that integer combinations of such balls are exact; log |x|_v and its
float are views of that ball. safe_mpf_log is the one route to libmp's log,
around an mpmath 1.3.0 defect near 1/4. Consumers refine precision on
demand.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from mpmath.libmp import (fone, from_float, from_int, from_man_exp, mpf_abs, mpf_add, mpf_atan2,
                          mpf_div, mpf_ln2, mpf_log, mpf_mul, mpf_shift, mpf_sub, to_int)

from .algebra import (discriminant, ord_p, poly_str, poly_trim, proven_prime, real_root_count,
                      resultant)
from .errors import (ConsistencyError, MathDomainError, ResourceLimitError, SpecError,
                     UnsupportedPrimeError)
from .polyfactor import (
    gf_divmod,
    gf_factor_squarefree,
    gf_from_int_poly,
    gf_gcd,
    gf_mul,
    gf_prod,
    gf_rem,
    gf_squarefree_parts,
    gf_sub,
    hensel_lift_factors,
    irreducible_over_q,
    unity_order_candidates,
)

DEFAULT_PREC = 128  # bits for embeddings
MAX_PREC = 1 << 14
DEGREE_CAP = 8
# Radii are formed in round-to-nearest at a working precision of at least
# DEFAULT_PREC bits, each from a few operations; scaling them by this factor,
# 1 + 2^-40 as a raw mpf, rounds them outward.
OUTWARD = from_man_exp((1 << 40) + 1, -40)


# ---------------------------------------------------------------------------
# Field and elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NumberField:
    """K = Q(theta) for a monic irreducible integer polynomial."""

    min_poly: tuple[int, ...]  # ascending coefficients, monic
    degree: int
    real_embeddings: int
    complex_pairs: int

    def element(self, coords) -> "Element":
        cs = [Fraction(c) for c in coords]
        if len(cs) != self.degree:
            raise SpecError(f"element needs {self.degree} coordinates, got {len(cs)}")
        den = math.lcm(*(c.denominator for c in cs))
        return _element([c.numerator * (den // c.denominator) for c in cs], den)

    def one(self) -> "Element":
        return Element((1,) + (0,) * (self.degree - 1), 1)

    def zero(self) -> "Element":
        return Element((0,) * self.degree, 1)

    # -- arithmetic in Q[t]/(min_poly) --------------------------------------

    def add(self, x: "Element", y: "Element") -> "Element":
        return _element([a * y.den + b * x.den for a, b in zip(x.num, y.num)], x.den * y.den)

    def sub(self, x: "Element", y: "Element") -> "Element":
        return _element([a * y.den - b * x.den for a, b in zip(x.num, y.num)], x.den * y.den)

    def mul(self, x: "Element", y: "Element") -> "Element":
        return _element(_mul_mod(x.num, y.num, self.min_poly), x.den * y.den)

    def inv(self, x: "Element") -> "Element":
        """1/x = -c (y^(n-1) + b_(n-1) y^(n-2) + ... + b_1) / b_0 for x = y/c,
        by Cayley-Hamilton from charpoly(y) = y^n + b_(n-1) y^(n-1) + ... + b_0."""
        if x.is_zero():
            raise MathDomainError("inverse of zero")
        b, powers = _charpoly_core(x.num, self.min_poly)
        if b[0] == 0:
            raise ConsistencyError("nonzero element has norm 0")
        s = -x.den if b[0] > 0 else x.den
        return _element([s * sum(c * y[i] for c, y in zip(b[1:], powers))
                         for i in range(self.degree)], abs(b[0]))

    def pow(self, x: "Element", k: int) -> "Element":
        return _pow_cached(self, x, k)

    def pow_vector(self, xs: tuple["Element", ...], n) -> "Element":
        """xs[0]^n[0] * ... * xs[d-1]^n[d-1], from the first nonzero power on."""
        acc = None
        for x, k in zip(xs, n):
            if k:
                y = _pow_cached(self, x, int(k))
                acc = y if acc is None else self.mul(acc, y)
        return self.one() if acc is None else acc

    # -- invariants ----------------------------------------------------------

    def norm(self, x: "Element") -> Fraction:
        """Field norm N(x) = Res(min_poly, A) / c^degree for x = A(theta)/c."""
        if x.is_zero():
            raise MathDomainError("norm of zero requested")
        return Fraction(_integral_norm(self.min_poly, x.num), x.den ** self.degree)

    def charpoly(self, x: "Element") -> tuple[Fraction, ...]:
        """Characteristic polynomial of multiplication by x, ascending and
        monic: b_j / c^(n-j) for x = y/c and charpoly(y) = sum b_j X^j."""
        b, _powers = _charpoly_core(x.num, self.min_poly)
        return tuple(Fraction(c, x.den ** (self.degree - j)) for j, c in enumerate(b))

    def root_of_unity_order(self, x: "Element") -> int | None:
        """Multiplicative order when x is a root of unity, else None.

        A root of unity is an algebraic integer of norm +-1, so x is none
        when charpoly(x) = sum b_j / c^(n-j) X^j, with b from the one cached
        computation, is not integral or has a constant term other than +-1,
        tested on the integers b_j and c; otherwise the candidate orders are
        tried by exact powers."""
        b, _powers = _charpoly_core(x.num, self.min_poly)
        n = self.degree
        if abs(b[0]) != x.den ** n or any(c % x.den ** (n - j) for j, c in enumerate(b)):
            return None
        for n in unity_order_candidates(self.degree):
            if self.pow(x, n) == self.one():
                return n
        return None


class Element(NamedTuple):
    """(num[0] + num[1] theta + ... + num[degree-1] theta^(degree-1)) / den
    with den > 0 and gcd(den, *num) = 1; build it with NumberField.element."""

    num: tuple[int, ...]
    den: int

    def is_zero(self) -> bool:
        return not any(self.num)


def _element(num: list[int], den: int) -> Element:
    """num / den (den > 0) in lowest terms."""
    g = math.gcd(den, *num)
    return Element(tuple(num), den) if g == 1 else Element(tuple(a // g for a in num), den // g)


def _mul_mod(a, b, f: tuple[int, ...]) -> list[int]:
    """a * b mod the monic f; integer coefficients, ascending, a and b of length deg f."""
    n = len(f) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for i in range(2 * n - 2, n - 1, -1):
        t = prod[i]
        if t:
            for j in range(n):
                prod[i - n + j] -= t * f[j]
    return prod[:n]


@functools.lru_cache(maxsize=1024)
def _charpoly_core(y: tuple[int, ...], f: tuple[int, ...]
                   ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(b, powers) for the integral y = y(theta): the ascending coefficients
    b_0, ..., b_n = 1 of charpoly(y), and y^0, ..., y^(n-1).

    Newton's identities turn the traces of y, y^2, ..., y^n into b, all in
    integer arithmetic; Tr(theta^j) are the power sums of the roots of f.
    Cached, so that each element's is computed once.
    """
    n = len(f) - 1
    traces = _theta_traces(f)
    powers, sums = [(1,) + (0,) * (n - 1)], []
    for _ in range(n):
        powers.append(tuple(_mul_mod(powers[-1], y, f)))
        sums.append(sum(a * t for a, t in zip(powers[-1], traces)))
    e = [1]
    for k in range(1, n + 1):
        total = sum((-1) ** (i - 1) * e[k - i] * sums[i - 1] for i in range(1, k + 1))
        if total % k:
            raise ConsistencyError("Newton identity gave a non-integral coefficient")
        e.append(total // k)
    return tuple((-1) ** (n - j) * e[n - j] for j in range(n + 1)), tuple(powers[:n])


@functools.lru_cache(maxsize=200_000)
def _pow_cached(field: NumberField, x: Element, k: int) -> Element:
    if k == -1:
        return field.inv(x)
    if k < 0:  # powers of the one cached inverse
        return _pow_cached(field, _pow_cached(field, x, -1), -k)
    if k == 0:
        return field.one()
    if k == 1:
        return x
    half = _pow_cached(field, x, k // 2)
    out = field.mul(half, half)
    if k & 1:
        out = field.mul(out, x)
    return out


@functools.lru_cache(maxsize=256)
def _integral_norm(min_poly: tuple[int, ...], num: tuple[int, ...]) -> int:
    """N(A(theta)) = Res(min_poly, A), one resultant per element. The cache
    pays where a norm is read again: each xi_i's by placement's
    valuations_above at every support prime, its norm guard and
    mixing_check, and N(xi^n - 1) by a point's pass at a prime with several
    places. From cold: 1,260 hits, 666 misses on spec-sweep unit 1.0; 2
    hits, 1,418 misses on scan-golden, placement's 2 and 2 and then one miss
    per point, whose sole finite place takes no pass."""
    return resultant(min_poly, num)


@functools.lru_cache(maxsize=256)
def _theta_traces(min_poly: tuple[int, ...]) -> tuple[int, ...]:
    """Tr(theta^j) for j < degree: power sums of the roots of min_poly."""
    n = len(min_poly) - 1
    e = [(-1) ** k * min_poly[n - k] for k in range(n + 1)]
    sums = [n]
    for k in range(1, n):
        sums.append(sum((-1) ** (i - 1) * e[i] * sums[k - i] for i in range(1, k))
                    + (-1) ** (k - 1) * k * e[k])
    return tuple(sums)


# ---------------------------------------------------------------------------
# Field construction
# ---------------------------------------------------------------------------

def build_field(min_poly_coeffs) -> NumberField:
    """Validate a monic irreducible integer polynomial and build the field."""
    f = poly_trim(min_poly_coeffs)
    degree = len(f) - 1
    if degree < 1:
        raise SpecError("min_poly must have degree >= 1")
    if any(c != int(c) for c in f):
        raise SpecError("min_poly must have integer coefficients")
    f = tuple(int(c) for c in f)
    if f[-1] != 1:
        raise SpecError("min_poly must be monic")
    if degree > DEGREE_CAP:
        raise SpecError(f"min_poly degree {degree} exceeds the cap {DEGREE_CAP}")
    ok, witness = irreducible_over_q(f)
    if not ok:
        raise SpecError(f"min_poly is reducible; factor found: {poly_str(witness)}")
    r1 = real_root_count(f)
    return NumberField(
        min_poly=f,
        degree=degree,
        real_embeddings=r1,
        complex_pairs=(degree - r1) // 2,
    )


# ---------------------------------------------------------------------------
# Embeddings (balls with proven radii)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Embedding:
    """The one root in the closed disc of radius rad 2^-scale around
    (re + i im) 2^-scale, all integers (im = 0 if real); its position in
    embeddings(field, prec) names that root at every precision."""

    is_real: bool
    re: int
    im: int
    rad: int
    scale: int


class DyadicBall(NamedTuple):
    """The ball of radius rad 2^-prec around (re + i im) 2^-prec in C, all
    integers, for a scale prec the holder keeps; at a real place im is
    instead the parity 0 or 1 of the phase pi * im."""

    re: int
    im: int
    rad: int


def _sqrt_ratio_up(num: int, den: int, bits: int) -> tuple[int, int]:
    """(root, t) with root 2^-t at least sqrt(num / den), by a relative
    2^-bits at most, from one ceiling division and one ceiling isqrt at
    scale 2^-t; num = 0 gives (0, 0)."""
    if not num:
        return 0, 0
    t = bits + 1 - (num.bit_length() - den.bit_length()) // 2
    q = -(-(num << 2 * t) // den) if t >= 0 else -(-num // (den << -2 * t))
    root = math.isqrt(q)
    return root + (root * root < q), t


def _root_scale(coeffs: tuple[int, ...]) -> int:
    """s = max_k ceil((bitlen c_(n-k) - bitlen lc + 1) / k), so that 2^s
    exceeds every |c_(n-k) / lc|^(1/k), by less than a factor 4; Fujiwara's
    bound then puts every root of f below 2^(s + 1)."""
    lb = abs(coeffs[-1]).bit_length()
    return max((-((lb - 1 - abs(c).bit_length()) // k)
                for k, c in enumerate(reversed(coeffs[:-1]), 1) if c), default=0)


def _float_coeffs(coeffs: tuple[int, ...], s: int) -> list[float]:
    """The ascending coefficients of g(y) = f(2^s y) / (lc 2^(s n)) as
    doubles, by exact integer shifts and one int/int division each."""
    n, lead = len(coeffs) - 1, coeffs[-1]
    return [(c << (s * (i - n))) / lead if s < 0 else c / (lead << (s * (n - i)))
            for i, c in enumerate(coeffs)]


def _float_root_starts(coeffs: tuple[int, ...], s: int) -> list[complex]:
    """y_i with z_i = 2^s y_i starting points for the roots z_i of f:
    Durand-Kerner in double precision on g = _float_coeffs(f, s) for
    s = _root_scale(f), whose coefficients are below 1 in size and whose
    roots are below 2, so that huge or tiny roots of f neither overflow nor
    underflow. Only the starts come from floats; root_discs refines them in
    exact integers."""
    n, b = len(coeffs) - 1, _float_coeffs(coeffs, s)
    fixed = [(0.4 + 0.9j) ** k for k in range(n)]  # the classical Durand-Kerner start
    zs = fixed[:]
    for _ in range(100):
        moved = 0.0
        for i, z in enumerate(zs):
            num = 0j
            for c in reversed(b):
                num = num * z + c
            den = 1 + 0j
            for j, w in enumerate(zs):
                if j != i:
                    den *= z - w
            if den:
                step = num / den
                zs[i] = z - step
                moved = max(moved, abs(step))
        if moved < 2.0 ** -40:  # the last step, quadratic, left about 2^-53
            break
    return zs if all(cmath.isfinite(z) for z in zs) else fixed


def _conjugate_twins(coeffs: tuple[int, ...], s: int, ys: list[complex]) -> list[int] | None:
    """t with y_t the start that mirrors y_i (t_i = i for a real root), or
    None unless the starts pair up cleanly: t_i, the start nearest
    conj(y_i), is an involution with |y_t - conj(y_i)| <= rho_i + rho_t, and
    the discs of radius 3 rho_i are pairwise disjoint, for the Weierstrass
    radii rho_i = n |g(y_i)| / |prod_{j != i} (y_i - y_j)| in doubles, |g|
    raised by 4 n 2^-53 sum |b_k y_i^k| for rounding. Up to that rounding
    the root near y_t is then the conjugate of the root near y_i; two real
    starts near a complex pair have radii as large as their distance."""
    n, b = len(ys), _float_coeffs(coeffs, s)
    radii = []
    for i, y in enumerate(ys):
        val, size = 0j, 0.0
        for c in reversed(b):
            val, size = val * y + c, size * abs(y) + abs(c)
        prod = math.prod(y - w for j, w in enumerate(ys) if j != i)
        if not prod:
            return None
        radii.append(n * (abs(val) + 4 * n * 2.0 ** -53 * size) / abs(prod))
    twins = [min(range(n), key=lambda j: abs(ys[j] - y.conjugate())) for y in ys]
    if all(twins[t] == i and abs(ys[t] - ys[i].conjugate()) <= radii[i] + radii[t]
           for i, t in enumerate(twins)) and all(
            abs(ys[i] - ys[j]) > 3 * (radii[i] + radii[j]) for i in range(n) for j in range(i)):
        return twins
    return None


def _horner(coeffs, a: int, b: int, scale: int) -> tuple[int, int]:
    """2^(scale m) p(w 2^-scale) for w = a + ib and p of degree m with
    ascending coeffs, as (real, imaginary) integers."""
    fr, fi = coeffs[-1], 0
    for k, c in enumerate(reversed(coeffs[:-1]), 1):
        fr, fi = fr * a - fi * b + (c << scale * k), fr * b + fi * a
    return fr, fi


def _sweep_cap(n: int, s: int, scale: int) -> int:
    """Durand-Kerner sweeps before root isolation of a degree-n polynomial
    with root scale s gives up on the grid 2^-scale. A start lies within
    about 2^(max(s, 0) + 1) of its root, so a root closes in over at most
    max(s, 0) + scale + 1 halvings. Near a cluster of m roots (roots below
    the grid, or not yet told apart) the iteration is linear, the error
    shrinking by (m - 1)/m a sweep (Fraigniaud, BIT 31, 1991), which is at
    most m - 1 <= n - 1 sweeps a halving, as (m - 1) log(m / (m - 1)) >=
    log 2; 64 sweeps more cover the rest. At 128 bits (x - B)(10^300 x -
    1)(10^300 x - 2) takes about s + 146 sweeps: 2,141 of this cap's 4,430
    at B = 2 10^600 (s = 1,995)."""
    return (n - 1) * (max(s, 0) + scale) + 64


def _durand_kerner(coeffs: tuple[int, ...], ws: list[tuple[int, int]], twins: list[int],
                   scale: int, cap: int) -> list[tuple[int, int]] | None:
    """root_discs' sweeps on the Gaussian integers ws, in place, until a
    sweep would move none by more than one unit: that sweep's (|F_i|^2,
    |P_i|^2) for every i, or None after cap sweeps. Only w_i with twins[i]
    >= i are iterated; w_t for t = twins[i] > i is kept at conj(w_i)."""
    n, lead = len(coeffs) - 1, coeffs[-1]
    reps = [i for i, t in enumerate(twins) if t >= i]
    for _ in range(cap):
        fps, steps = [None] * n, []
        for i in reps:
            a, b = ws[i]
            fr, fi = _horner(coeffs, a, b, scale)
            pr, pi = lead, 0
            for j, (c, d) in enumerate(ws):
                if j != i:
                    pr, pi = pr * (a - c) - pi * (b - d), pr * (b - d) + pi * (a - c)
            den = pr * pr + pi * pi
            fps[i] = fps[twins[i]] = (fr * fr + fi * fi, den)
            # the nearest Gaussian integer to F_i conj(P_i) / |P_i|^2
            steps.append(((2 * (fr * pr + fi * pi) + den) // (2 * den),
                          (2 * (fi * pr - fr * pi) + den) // (2 * den)) if den else (0, 0))
        if all(-1 <= u <= 1 and -1 <= v <= 1 for u, v in steps):
            return fps
        for i, (u, v) in zip(reps, steps):
            a, b = ws[i][0] - u, ws[i][1] - v
            ws[twins[i]] = (a, -b)  # the mirror; for twins[i] = i overwritten next
            ws[i] = (a, b)
    return None


@functools.lru_cache(maxsize=1024)
def root_discs(coeffs: tuple[int, ...], prec: int
               ) -> tuple[int, tuple[tuple[int, int, int | None], ...]]:
    """(E, ((a_i, b_i, r_i), ...)): approximations z_i = (a_i + i b_i) 2^-E
    to the roots of the squarefree integer polynomial f with ascending
    coeffs, each in its Weierstrass inclusion disc, of radius r_i 2^-E at
    least n |f(z_i)| / |lc prod_{j != i} (z_i - z_j)|; all integers.

    The z_i are Gaussian integers w_i on the grid 2^-scale, scale = prec +
    60 - min(s, 0) for s = _root_scale(f): huge roots get prec + 60 bits
    absolute and tiny ones (below 2^(s + 1)) as many relative to their
    bound. Durand-Kerner (Kerner, Numer. Math. 8, 1966) runs on them in
    exact integers from _float_root_starts: each sweep forms F_i =
    2^(scale n) f(z_i) and P_i = 2^(scale (n - 1)) lc prod_{j != i} (z_i -
    z_j) and moves every w_i by the nearest Gaussian integer to F_i / P_i,
    so the Weierstrass step is exact up to that rounding; P_i = 0 leaves w_i
    where it is. The sweep in which no root would move by more than one unit
    in either coordinate moves none and is the last.

    Where the double-precision starts pair up (_conjugate_twins), the
    sweeps run on one approximation per real root and per conjugate pair
    and mirror the rest: f is real, so while the w_j are closed under
    conjugation, F and P at conj(w_i) are the conjugates of F_i and P_i,
    and at a w_i on the axis they are real, so its step stays there.
    Elsewhere, or if those sweeps reach _sweep_cap, every start is iterated
    on its own; after _sweep_cap of those, ResourceLimitError.

    By Braess-Hadeler (Numer. Math. 21, 1973) the discs hold every root, and
    a connected union of m of them holds exactly m, however the
    approximations were found, mirrored ones included; the last sweep's F_i
    and P_i give r_i, from one ceiling division and one ceiling isqrt, at
    most a relative 2^-(prec + 40) above the exact radius, and P_i = 0
    gives r_i = None, infinite. E is the finest scale at which every r_i is
    exact. Embeddings and Mahler measures of the same polynomial share this
    cache.
    """
    n = len(coeffs) - 1
    s = _root_scale(coeffs)
    scale = prec + 60 - min(s, 0)
    ys = _float_root_starts(coeffs, s)
    ws = [tuple(_scaled(from_float(c), s + scale, "n") for c in (y.real, y.imag)) for y in ys]
    attempts = [(list(range(n)), ws)]  # every start on its own, as a fallback
    twins = _conjugate_twins(coeffs, s, ys)
    if twins:  # reals on the axis, and each pair's second start the first's mirror
        attempts.insert(0, (twins, [(a, 0) if t == i else (ws[t][0], -ws[t][1]) if t < i
                                    else (a, b) for i, (t, (a, b)) in enumerate(zip(twins, ws))]))
    for twins, starts in attempts:
        ws = list(starts)
        fps = _durand_kerner(coeffs, ws, twins, scale, _sweep_cap(n, s, scale))
        if fps is not None:
            break
    else:
        bits = max(abs(c).bit_length() for c in coeffs)
        raise ResourceLimitError(f"root isolation of a degree-{n} polynomial with coefficients "
                                 f"of up to {bits} bits did not converge at {prec} bits")
    radii = [_sqrt_ratio_up(n * n * f2, p2 << 2 * scale, prec + 40) if p2 else None
             for f2, p2 in fps]
    fine = max([scale] + [t for _root, t in filter(None, radii)])
    return fine, tuple((a << (fine - scale), b << (fine - scale),
                        None if r is None else r[0] << (fine - r[1]))
                       for (a, b), r in zip(ws, radii))


def _discs_disjoint(discs) -> bool:
    """Whether the closed discs (a, b, r), centre (a + ib) 2^-E and radius
    r 2^-E at one scale, are pairwise disjoint: |z_i - z_j|^2 > (r_i +
    r_j)^2, decided exactly, so discs that touch are not disjoint. An
    infinite radius (None) meets every other disc."""
    if any(r is None for _a, _b, r in discs):
        return len(discs) < 2
    return all((a - c) ** 2 + (b - d) ** 2 > (r + t) ** 2
               for i, (a, b, r) in enumerate(discs) for c, d, t in discs[:i])


@functools.lru_cache(maxsize=1024)
def embeddings(field: NumberField, prec: int = DEFAULT_PREC) -> tuple[Embedding, ...]:
    """One embedding per real root plus one per conjugate pair (Im > 0).

    Each root carries a disc proven to hold exactly it: the Weierstrass
    inclusion discs of root_discs, with a disc whose radius r reaches the
    real axis widened to one centred on it, of radius r + |Im z| rounded up
    to work + 40 bits. When those discs are pairwise disjoint (an exact
    test, so touching discs meet), each holds one zero, and a real-centred
    one holds a real zero (it holds the conjugate of its zero too). The
    precision doubles until the discs are disjoint and the count of real
    ones matches the Sturm count; an infinite radius, from approximations
    that coincide, meets every disc. Real roots come first, by centre, then
    complex ones by (Re, Im); at another precision index i is the root of
    embedding i at DEFAULT_PREC, whose disc, alone of its kind, each one
    must meet (ConsistencyError otherwise).
    """
    work = prec
    while True:
        scale, discs = root_discs(field.min_poly, work)
        reals, complexes = [], []
        for a, b, r in discs:
            if r is None:  # coinciding approximations: this disc isolates nothing
                reals.append((a, 0, None))
            elif abs(b) <= r:  # widened to r + |b|, rounded up to work + 40 bits
                k = max((r + abs(b)).bit_length() - work - 40, 0)
                reals.append((a, 0, _ceil_shift(r + abs(b), k) << k))
            elif b > 0:
                complexes.append((a, b, r))
        if (len(reals) == field.real_embeddings and len(complexes) == field.complex_pairs
                and _discs_disjoint(reals + complexes + [(a, -b, r) for a, b, r in complexes])):
            break
        if work >= MAX_PREC:
            raise ConsistencyError(
                f"root isolation failed up to {work} bits: found {len(reals)} real / "
                f"{len(complexes)} complex-pair roots in disjoint discs, expected "
                f"{field.real_embeddings}/{field.complex_pairs}")
        work *= 2
    found = sorted(reals + complexes, key=lambda d: (d[1] != 0, d))  # im = 0: real
    if prec != DEFAULT_PREC:  # each disc meets the one base disc of its own root
        base = embeddings(field)
        up, down = max(base[0].scale - scale, 0), max(scale - base[0].scale, 0)
        hits = [[i for i, e in enumerate(base) if e.is_real == (d[1] == 0) and not _discs_disjoint(
            [[v << up for v in d], [v << down for v in (e.re, e.im, e.rad)]])] for d in found]
        if sorted(hits) != [[i] for i in range(len(found))]:
            raise ConsistencyError(f"{work}-bit root discs meet the {DEFAULT_PREC}-bit ones "
                                   f"{hits}, not one to one")
        found = [d for _h, d in sorted(zip(hits, found))]
    return tuple(Embedding(b == 0, a, b, r, scale) for a, b, r in found)


def eval_embedding(emb: Embedding, x: Element) -> tuple[int, int, int, int]:
    """(vr, vi, rad, T): A(sigma(theta)) for x = A(theta)/c lies in the ball
    of radius rad 2^-T around (vr + i vi) 2^-T, all integers.

    The centre is read as w 2^-t, w = a + ib, at the least t >= 0 at which
    it is exact and at least 30 bits finer than the radius r, never finer
    than its own scale, so integer Horner gives 2^(t m) A(w 2^-t) exactly
    (m = deg A, T = t m). Across the disc A moves by at most r sum_k
    k |A_k| rho^(k-1) for rho >= |z| + r, bounded by Horner in integers with
    R = ceil(r 2^t) and rho 2^t = ceil(|w|) + R.
    """
    e = emb.scale
    t = max([0, 30 + e - emb.rad.bit_length() if emb.rad else 0]
            + [e + 1 - (v & -v).bit_length() for v in (emb.re, emb.im) if v])
    a, b, big_r = emb.re >> (e - t), emb.im >> (e - t), _ceil_shift(emb.rad, e - t)
    rho = math.isqrt(a * a + b * b - 1) + 1 + big_r if a or b else big_r
    num = x.num
    vr, vi = _horner(num, a, b, t)
    slope = _horner([k * abs(c) for k, c in enumerate(num)][1:] or [0], rho, 0, t)[0]
    return vr, vi, big_r * slope, t * (len(num) - 1)


# ---------------------------------------------------------------------------
# Places
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Place:
    """An archimedean embedding or a prime ideal (p, g(theta)) of K."""

    field: NumberField
    kind: str  # "arch" | "finite"
    # archimedean data
    embedding_index: int = 0
    weight: int = 1
    # finite data
    p: int = 0
    res_degree: int = 1  # f_v
    ram_index: int = 1   # e_v
    index: int = 0       # position among the places of its split above p
    siblings: int = 1    # local blocks above p: the split's places and its cofactor
    support: tuple[int, ...] | None = None  # the _local_split key it was found with

    def label(self) -> str:
        if self.kind == "arch":
            tag = "real" if self.weight == 1 else "complex"
            return f"arch[{self.embedding_index}]({tag})"
        return f"finite(p={self.p},f={self.res_degree},e={self.ram_index})"


def archimedean_places(field: NumberField) -> list[Place]:
    return [
        Place(field=field, kind="arch", embedding_index=i, weight=2 - e.is_real)
        for i, e in enumerate(embeddings(field, DEFAULT_PREC))  # log_sigma_ball's first lookup
    ]


def _dedekind_p_maximal(f: tuple[int, ...], p: int, parts) -> bool:
    """Dedekind's criterion: Z[theta] is p-maximal iff gcd(T, h*, g*) = 1 mod p,
    where g* is the product of the distinct irreducible factors of f mod p,
    h* = f / g* mod p, and T = (g* h* - f) / p, formed in Z/p^2. parts are
    coprime squarefree (g, e) with f = prod g^e mod p, such as the squarefree
    decomposition, so that g* is the product of their g. The gcd with h*
    comes first: where f mod p is squarefree, h* = 1 and both steps are
    trivial."""
    p2 = p * p
    gstar = gf_prod((g for g, _ in parts), p)
    hstar = gf_divmod([c % p for c in f], gstar, p)[0]
    diff = gf_sub(gf_mul(gstar, hstar, p2), [c % p2 for c in f], p2)
    if any(c % p for c in diff):
        raise ConsistencyError("Dedekind T polynomial is not integral")
    tbar = [c // p for c in diff]
    return len(gf_gcd(gf_gcd(tbar, hstar, p), gstar, p)) == 1


class LocalSplit(NamedTuple):
    """min_poly mod p split as far as a support needs (see _local_split)."""

    factors: tuple[tuple[tuple[int, ...], int], ...]  # (g_v, e_v) per place, sorted
    blocks: tuple[tuple[int, ...], ...]  # g_v^e_v per place, then the cofactor unless it is 1


def support_mod_p(field: NumberField, p: int, xs) -> tuple[int, ...] | None:
    """The support of the elements xs at p, as _local_split keys it: the
    product of their integral parts A_i mod (p, min_poly), or None when p
    divides a denominator c_i. At a p-maximal p that divides no c_i, ord_v
    of xs_i is positive iff g_v divides A_i mod p and zero otherwise, so the
    places above p where some xs_i is not a unit are those whose g_v divides
    the product."""
    if any(x.den % p == 0 for x in xs):
        return None
    fbar = gf_from_int_poly(field.min_poly, p)
    acc = [1]
    for x in xs:
        acc = gf_rem(gf_mul(acc, gf_from_int_poly(x.num, p), p), fbar, p)
    return tuple(acc)


@functools.lru_cache(maxsize=4096)
def _local_split(field: NumberField, p: int, support: tuple[int, ...] | None) -> LocalSplit:
    """The places above p whose residue factor divides support, and one
    cofactor block for the rest of min_poly mod p.

    Where p divides disc(min_poly) (cached since build_field's
    irreducibility test), the squarefree decomposition f = prod part_e^e of
    min_poly mod p gives every e_v and the radical that Dedekind's criterion
    reads, on the whole of f. Elsewhere f is squarefree and is its one part,
    with e = 1, and Z[theta] is p-maximal without the test: disc(min_poly)
    = [O_K : Z[theta]]^2 disc(K), so p divides no index.
    Only gcd(part_e, support) is split into irreducibles g_v, one place
    each with e_v = e; what is left of each part_e^e is multiplied into the
    cofactor, which yields no place. support=None splits all of f. Places,
    lifted local factors and valuations all read this one split.
    """
    fbar = gf_from_int_poly(field.min_poly, p)
    if discriminant(field.min_poly) % p:
        parts = [(fbar, 1)]
    else:
        parts = gf_squarefree_parts(fbar, p)
        if not _dedekind_p_maximal(field.min_poly, p, parts):
            raise UnsupportedPrimeError(
                f"p={p} divides the index [O_K : Z[theta]]; "
                "valuations at this prime are not supported for this field model"
            )
    factors, cofactor = [], [1]
    for part, e in parts:
        seen = part if support is None else gf_gcd(part, list(support), p)
        if len(seen) > 1:
            factors += [(tuple(g), e) for g in gf_factor_squarefree(seen, p)]
        cofactor = gf_mul(cofactor, gf_prod([gf_divmod(part, seen, p)[0]] * e, p), p)
    factors.sort(key=lambda ge: (len(ge[0]), ge[0]))
    total = sum(e * (len(g) - 1) for g, e in factors) + len(cofactor) - 1
    if total != field.degree:
        raise ConsistencyError(f"sum e_v f_v + deg cofactor = {total} != degree {field.degree}")
    blocks = [tuple(gf_prod([list(g)] * e, p)) for g, e in factors]
    if len(cofactor) > 1:
        blocks.append(tuple(cofactor))
    return LocalSplit(tuple(factors), tuple(blocks))


def finite_places_above(field: NumberField, p: int,
                        support: tuple[int, ...] | None = None) -> list[Place]:
    """The places above p of _local_split(field, p, support): every place
    for support=None; errors loudly when p-maximality fails. siblings counts
    the split's blocks, the cofactor included."""
    if not proven_prime(p):
        raise SpecError(f"{p} is not prime")
    split = _local_split(field, p, support)
    return [Place(field=field, kind="finite", p=p, res_degree=len(gbar) - 1, ram_index=e,
                  index=i, siblings=len(split.blocks), support=support)
            for i, (gbar, e) in enumerate(split.factors)]


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4096)
def _lifted_local_factors(field: NumberField, p: int, k: int,
                          support: tuple[int, ...] | None = None) -> list[tuple[int, ...]]:
    """The blocks of _local_split(field, p, support), g_v^e_v per place and
    then the cofactor, Hensel-lifted from p to p^k (k a power of two). For
    F lifted mod p^k and A integral, Res(F + p^k G, A) = Res(F, A) mod p^k,
    so a resultant whose ord_p is below k has the ord_p of the true local
    factor's; the cofactor's is the sum over the places it holds."""
    blocks = [list(b) for b in _local_split(field, p, support).blocks]
    return hensel_lift_factors(field.min_poly, blocks, p, k)


def valuations_above(field: NumberField, p: int, x: Element,
                     support: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """ord_v(x) at every place v of finite_places_above(field, p, support),
    in that order.

    With x = A(theta)/c, A integral, the norm N(A) is taken once and
    v_total = ord_p N(A) is split among the split's blocks. A place's share
    is f_v ord_v(A) = ord_p Res(F_v, A), F_v its local factor, and
    Res(F_v, A) = Res(g_v^e_v, A) mod p is a unit iff g_v does not divide
    A mod p; the cofactor block's share, the sum over the places it holds,
    is a unit iff it is coprime to A mod p. So all of v_total goes to the
    only block, or to the only one that meets A mod p (none meeting
    contradicts p | N(A)); when several meet, one resultant per
    Hensel-lifted block (lifted past p^v_total) gives the shares, which must
    sum to v_total: a lifted block is monic, so its resultant is the
    determinant of multiplication by A modulo it. c contributes -e_v ord_p(c).
    """
    if x.is_zero():
        raise MathDomainError("ord_v(0) is infinite")
    split = _local_split(field, p, support)
    nrm = _integral_norm(field.min_poly, x.num)
    if nrm == 0:
        raise ConsistencyError("integral part of element has norm 0")
    v_total = ord_p(nrm, p)
    abar = gf_from_int_poly(x.num, p)
    meets = [v_total > 0 and not gf_rem(abar, gbar, p) for gbar, _e in split.factors]
    meets += [v_total > 0 and len(gf_gcd(list(cof), abar, p)) > 1
              for cof in split.blocks[len(split.factors):]]
    if v_total == 0 or sum(meets) == 1:
        shares = [v_total if m else 0 for m in meets]
    elif not any(meets):
        raise ConsistencyError(f"p={p} divides N(A) but no local factor divides A mod p")
    else:
        shares = []
        for block in _lifted_local_factors(field, p, 1 << v_total.bit_length(), support):
            r = resultant(block, x.num)
            if r == 0:
                raise ConsistencyError("lifted local factor shares a root with the element")
            shares.append(ord_p(r, p))
        if sum(shares) != v_total:
            raise ConsistencyError(
                f"local valuations sum to {sum(shares)}, expected {v_total} at p={p}")
    den_ord = ord_p(x.den, p) if x.den % p == 0 else 0
    out = []
    for (gbar, e), v in zip(split.factors, shares):
        fv = len(gbar) - 1
        if v % fv:
            raise ConsistencyError(f"local valuation {v} not divisible by residue degree {fv}")
        out.append(v // fv - e * den_ord)
    return tuple(out)


def ord_v(place: Place, x: Element) -> int:
    """Exact valuation of x at a finite place: its entry of valuations_above
    under the support the place was found with."""
    if place.kind != "finite":
        raise MathDomainError("ord_v is defined at finite places only")
    return valuations_above(place.field, place.p, x, place.support)[place.index]


# ---------------------------------------------------------------------------
# Normalized absolute values
# ---------------------------------------------------------------------------

def log_abs_v(place: Place, x: Element) -> float:
    """log |x|_v: exactly -ord * f * log(p) at a finite place, and at every
    archimedean place, Q's too (sigma(x) = x), the float of log_abs_v_ball."""
    if x.is_zero():
        raise MathDomainError("log |0|_v requested")
    if place.kind == "finite":
        return -ord_v(place, x) * place.res_degree * math.log(place.p)
    return float(log_abs_v_ball(place, x)[0])


@functools.lru_cache(maxsize=4096)
def log_sigma_ball(place: Place, x: Element, prec: int = DEFAULT_PREC) -> DyadicBall:
    """A logarithm of sigma_v(x) as a ball at scale 2^-prec, refining the
    working precision from prec up until the ball for sigma_v(x) is at most
    half as wide as its distance to 0.

    eval_embedding's integer ball gives sigma_v(x) = (V / den) (1 + d) with
    |d| <= u = radius / |V| < 1/2, so log(V / den) + log(1 + d) is a
    logarithm of sigma_v(x) and |log(1 + d)| <= u / (1 - u); its real part
    is one libmp log of |V|^2 / den^2 and, at a complex place, its
    imaginary part one atan2, each rounded to nearest at work + 20 bits.
    At a real place the imaginary part is the parity 0 or 1 of the sign
    (phase pi * im). The radius also carries (1 + |re| + |im|) 2^(4 - prec),
    so that a sum of n_i times such balls, formed at prec bits, stays inside
    the sum of |n_i| times their radii. At scale 2^-prec re and im are
    rounded to the nearest integer and the radius up, plus 1 for that
    rounding, which moves the centre by at most 2^-prec / sqrt(2).

    The libmp calls read only work + 20 bits of V, whose exact integers run
    to thousands of bits, so V is cut first: with k = max(bitlen vr, bitlen
    vi) - work - 64 > 0, V' = (floor(vr / 2^k), floor(vi / 2^k)) at scale
    2^-(T - k) lies within sqrt(2) units of V / 2^k, each coordinate moving
    by less than 1, so the ball of radius ceil(rad / 2^k) + 2 around V'
    holds the ball of radius rad around V, and everything above reads the
    cut ball instead.
    """
    if place.kind != "arch":
        raise MathDomainError("log sigma_v is for archimedean places")
    if x.is_zero():
        raise MathDomainError("log |0|_v requested")
    field, work = place.field, prec
    while True:
        emb = embeddings(field, work)[place.embedding_index]
        vr, vi, rad, t = eval_embedding(emb, x)
        k = max(vr.bit_length(), vi.bit_length()) - work - 64
        if k > 0:
            vr, vi, rad, t = vr >> k, vi >> k, _ceil_shift(rad, k) + 2, t - k
        m2 = vr * vr + vi * vi  # |V|^2 2^(2t)
        if 4 * rad * rad < m2:  # 2 rad < |V|, so u / (1 - u) <= rad / (isqrt(m2) - rad)
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
        if work >= MAX_PREC:
            raise ConsistencyError("cannot separate |sigma(x)| from 0 at maximum precision")
        work *= 2


def safe_mpf_log(x: tuple, prec: int, rnd: str) -> tuple:
    """libmp's log of a positive raw mpf x at prec bits, rounded rnd.

    mpmath 1.3.0's mpf_log reads any x in [1/4, 1/2) as if it were near 1:
    within a relative 2^-(prec + 20) of 1/4 it returns about x - 1/4 (so
    log of (2^100 + 1) 2^-102 comes out as 7.9e-31). Such an x is doubled
    into [1/2, 1) first and log 2 subtracted, both at prec + 10 bits, where
    the two logs have one sign and the sum no cancellation."""
    _sign, man, exp, bc = x
    if exp + bc == -1 and bc - (man - (1 << (bc - 1))).bit_length() > prec + 20:
        wp = prec + 10
        return mpf_sub(mpf_log(mpf_shift(x, 1), wp), mpf_ln2(wp), prec, rnd)
    return mpf_log(x, prec, rnd)


def _scaled(x: tuple, k: int, rnd: str) -> int:
    """x 2^k rounded in the libmp direction rnd, for a finite raw mpf x: the one
    route from a dyadic, or from a float through from_float, to an integer."""
    return to_int(mpf_shift(x, k), rnd)


def log_abs_v_ball(place: Place, x: Element) -> tuple[Fraction, Fraction]:
    """Archimedean log |x|_v with a proven error radius: log_sigma_ball's
    ball at DEFAULT_PREC, read as exact fractions."""
    ball, den = log_sigma_ball(place, x), 1 << (DEFAULT_PREC + 1 - place.weight)
    return Fraction(ball.re, den), Fraction(ball.rad, den)


def compare_abs_to_one(place: Place, log_ball) -> int:
    """Sign of |x|_v - 1 at an archimedean place from a ball (mid, rad) for
    log |x|_v, or for 2^prec log |x|_v in integers: +1, -1, or 0 while the
    ball still contains 0."""
    if place.kind != "arch":
        raise MathDomainError("ball comparison is for archimedean places")
    mid, rad = log_ball
    return 1 if mid > rad else (-1 if mid < -rad else 0)


def _ceil_shift(m: int, k: int) -> int:
    """ceil(m 2^-k) for an integer m >= 0 and k >= 0."""
    return -(-m >> k)
