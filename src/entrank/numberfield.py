"""Number fields K = Q(theta), their places, and normalized absolute values.

Normalization fixes the Artin-Whaples product formula: real places contribute
|sigma(x)|, complex places |sigma(x)|^2, and a finite place v above p with
residue degree f contributes (p^f)^(-ord_v(x)). With this choice the product
of |x|_v over all places is 1, and the product over the archimedean places
alone equals |N(x)|.

Finite places come from Dedekind factorization of the minimal polynomial
mod p, guarded by a p-maximality check (explicit error instead of silently
wrong data when p divides the index). ord_v has one route: the norm of the
element's integral part is taken once; at a prime with one place above it
that norm's ord_p is the whole answer, and at a prime with several places
the Hensel-lifted local factors split it, checked against the same total.

Archimedean data carries estimated error radii: every embedding evaluation
has a radius derived from mpmath polyroots' error estimate for the roots,
which is not a proven enclosure, and consumers refine precision on demand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .algebra import (Poly, discriminant, is_prime, log_fraction, ord_p, poly_ext_gcd,
                      real_root_count, resultant)
from .errors import ConsistencyError, MathDomainError, SpecError, UnsupportedPrimeError
from .polyfactor import (
    gf_divmod,
    gf_factor,
    gf_from_int_poly,
    gf_gcd,
    gf_mul,
    hensel_lift_factors,
    irreducible_over_q,
    unity_order_candidates,
)

DEFAULT_PREC = 128  # bits for embeddings
MAX_PREC = 1 << 14
DEGREE_CAP = 8


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

    @property
    def poly(self) -> Poly:
        return Poly.of(self.min_poly)

    def element(self, coords) -> "Element":
        cs = tuple(Fraction(c) for c in coords)
        if len(cs) != self.degree:
            raise SpecError(f"element needs {self.degree} coordinates, got {len(cs)}")
        return Element(cs)

    def one(self) -> "Element":
        return self.element([1] + [0] * (self.degree - 1))

    def zero(self) -> "Element":
        return self.element([0] * self.degree)

    # -- arithmetic in Q[t]/(min_poly) --------------------------------------

    def add(self, x: "Element", y: "Element") -> "Element":
        return Element(tuple(a + b for a, b in zip(x.coords, y.coords)))

    def sub(self, x: "Element", y: "Element") -> "Element":
        return Element(tuple(a - b for a, b in zip(x.coords, y.coords)))

    def mul(self, x: "Element", y: "Element") -> "Element":
        prod = Poly.of(x.coords) * Poly.of(y.coords)
        rem = prod.divmod(self.poly)[1]
        return self._from_poly(rem)

    def inv(self, x: "Element") -> "Element":
        if x.is_zero():
            raise MathDomainError("inverse of zero")
        g, t = poly_ext_gcd(self.poly, Poly.of(x.coords))
        if g.degree != 0:
            raise ConsistencyError("min_poly not coprime with nonzero element")
        return self._from_poly(t.divmod(self.poly)[1])

    def pow(self, x: "Element", k: int) -> "Element":
        return _pow_cached(self, x, k)

    def pow_vector(self, xs: tuple["Element", ...], n) -> "Element":
        """xs[0]^n[0] * ... * xs[d-1]^n[d-1]."""
        acc = self.one()
        for x, k in zip(xs, n):
            if k:
                acc = self.mul(acc, self.pow(x, int(k)))
        return acc

    def _from_poly(self, p: Poly) -> "Element":
        cs = list(p.coeffs) + [Fraction(0)] * (self.degree - len(p.coeffs))
        return Element(tuple(cs[: self.degree]))

    # -- invariants ----------------------------------------------------------

    def norm(self, x: "Element") -> Fraction:
        """Field norm N(x), exact via a resultant with the minimal polynomial."""
        if x.is_zero():
            raise MathDomainError("norm of zero requested")
        if self.degree == 1:
            return x.coords[0]
        return resultant(self.poly, Poly.of(x.coords))

    def charpoly(self, x: "Element") -> tuple[Fraction, ...]:
        """Characteristic polynomial of multiplication by x, ascending and monic.

        With x = y/c for an integral y, Newton's identities turn the traces
        of y, y^2, ..., y^degree into the coefficients b_j of charpoly(y),
        all in integer arithmetic; charpoly(x) has coefficients b_j / c^(n-j).
        Tr(theta^j) are the power sums of the roots of min_poly.
        """
        n, f = self.degree, self.min_poly
        num, den = _clear_denominators(x)
        y = [int(v) for v in num.coeffs] + [0] * (n - len(num.coeffs))
        traces = _theta_traces(f)
        sums, power = [], [1] + [0] * (n - 1)
        for _ in range(n):
            prod = [0] * (2 * n - 1)
            for i, a in enumerate(power):
                if a:
                    for j, b in enumerate(y):
                        prod[i + j] += a * b
            for i in range(2 * n - 2, n - 1, -1):  # reduce mod the monic f
                if prod[i]:
                    t = prod[i]
                    for j in range(n):
                        prod[i - n + j] -= t * f[j]
            power = prod[:n]
            sums.append(sum(a * t for a, t in zip(power, traces)))
        e = [1]
        for k in range(1, n + 1):
            total = sum((-1) ** (i - 1) * e[k - i] * sums[i - 1] for i in range(1, k + 1))
            if total % k:
                raise ConsistencyError("Newton identity gave a non-integral coefficient")
            e.append(total // k)
        return tuple(Fraction((-1) ** (n - j) * e[n - j], den ** (n - j)) for j in range(n + 1))

    def root_of_unity_order(self, x: "Element") -> int | None:
        """Multiplicative order when x is a root of unity, else None."""
        if x.is_zero():
            return None
        for n in unity_order_candidates(self.degree):
            if self.pow(x, n) == self.one():
                return n
        return None


@dataclass(frozen=True)
class Element:
    """Coordinates in the power basis 1, theta, ..., theta^(degree-1)."""

    coords: tuple[Fraction, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


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
    f = Poly.of(min_poly_coeffs)
    if f.degree < 1:
        raise SpecError("min_poly must have degree >= 1")
    if not f.is_integral():
        raise SpecError("min_poly must have integer coefficients")
    if not f.is_monic():
        raise SpecError("min_poly must be monic")
    if f.degree > DEGREE_CAP:
        raise SpecError(f"min_poly degree {f.degree} exceeds the cap {DEGREE_CAP}")
    if f.degree > 1:
        ok, witness = irreducible_over_q(f)
        if not ok:
            raise SpecError(f"min_poly is reducible; factor found: {witness}")
    r1 = 1 if f.degree == 1 else real_root_count(f)
    return NumberField(
        min_poly=tuple(int(c) for c in f.coeffs),
        degree=f.degree,
        real_embeddings=r1,
        complex_pairs=(f.degree - r1) // 2,
    )


# ---------------------------------------------------------------------------
# Embeddings (ball data with estimated radii)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Embedding:
    index: int
    is_real: bool
    weight: int  # local degree: 1 real, 2 complex
    re: mp.mpf
    im: mp.mpf
    err: mp.mpf  # radius of the enclosing disc for the root


@functools.lru_cache(maxsize=1024)
def embeddings(field: NumberField, prec: int = DEFAULT_PREC) -> tuple[Embedding, ...]:
    """One embedding per real root plus one per conjugate pair (Im > 0)."""
    f = field.poly
    if field.degree == 1:
        root = Fraction(-f.coeffs[0])
        with mp.workprec(prec + 10):
            re = mp.mpf(root.numerator) / root.denominator
        return (Embedding(0, True, 1, re, mp.mpf(0), mp.mpf(2) ** (-prec)),)
    work = prec
    while True:
        with mp.workprec(2 * work + 40):
            coeffs = [mp.mpf(int(c)) for c in reversed(f.coeffs)]
            roots, err = mp.polyroots(coeffs, maxsteps=200, extraprec=2 * work, error=True)
            err = mp.mpf(err) * 16 + mp.mpf(2) ** (-2 * work)
            reals = []
            complexes = []
            for r in roots:
                r = mp.mpc(r)
                if abs(mp.im(r)) <= err * 4:
                    reals.append(mp.re(r))
                elif mp.im(r) > 0:
                    complexes.append(r)
            if len(reals) == field.real_embeddings and len(complexes) == field.complex_pairs:
                reals.sort()
                complexes.sort(key=lambda z: (mp.re(z), mp.im(z)))
                out = []
                for i, r in enumerate(reals):
                    out.append(Embedding(i, True, 1, r, mp.mpf(0), err))
                for j, z in enumerate(complexes):
                    out.append(Embedding(len(reals) + j, False, 2, mp.re(z), mp.im(z), err))
                return tuple(out)
        if work >= MAX_PREC:
            raise ConsistencyError(
                f"root classification failed up to {work} bits: found {len(reals)} real / "
                f"{len(complexes)} complex-pair roots, expected "
                f"{field.real_embeddings}/{field.complex_pairs}")
        work *= 2


def eval_embedding(field: NumberField, emb: Embedding, x: Element,
                   prec: int = DEFAULT_PREC) -> tuple[mp.mpc, mp.mpf]:
    """sigma(x) as a ball (value, radius) at the requested working precision."""
    with mp.workprec(prec + 40):
        root = mp.mpc(emb.re, emb.im)
        val = mp.mpc(0)
        for c in reversed(x.coords):
            val = val * root + mp.mpf(c.numerator) / c.denominator
        # first-order error from the root enclosure plus rounding slop
        rad = abs(root) + emb.err
        deriv = mp.mpf(0)
        mag = mp.mpf(0)
        for i, c in enumerate(x.coords):
            ac = abs(mp.mpf(c.numerator)) / c.denominator
            mag += ac * rad**i
            if i >= 1:
                deriv += ac * i * rad ** (i - 1)
        err = deriv * emb.err + mag * mp.mpf(2) ** (-(prec + 20)) * (field.degree + 4)
    return val, err


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
    ideal_gen: tuple[int, ...] = ()  # irreducible factor of min_poly mod p
    siblings: int = 1    # number of places above p

    def label(self) -> str:
        if self.kind == "arch":
            tag = "real" if self.weight == 1 else "complex"
            return f"arch[{self.embedding_index}]({tag})"
        return f"finite(p={self.p},f={self.res_degree},e={self.ram_index})"


def archimedean_places(field: NumberField) -> list[Place]:
    return [
        Place(field=field, kind="arch", embedding_index=e.index, weight=e.weight)
        for e in embeddings(field, DEFAULT_PREC)  # _arch_abs_ball's cache key
    ]


def _dedekind_p_maximal(f: Poly, p: int, factors) -> bool:
    """Dedekind criterion: Z[theta] is p-maximal iff gcd(T, g*, h*) = 1 mod p."""
    gstar = [1]
    for g, _ in factors:
        gstar = gf_mul(gstar, g, p)
    fbar = gf_from_int_poly(f, p)
    hstar = gf_divmod(fbar, gstar, p)[0]
    glift = Poly.of([Fraction(c) for c in gstar])
    hlift = Poly.of([Fraction(c) for c in hstar])
    diff = glift * hlift - f
    t_over_p = [Fraction(c, p) for c in diff.coeffs]
    if any(c.denominator != 1 for c in t_over_p):
        raise ConsistencyError("Dedekind T polynomial is not integral")
    tbar = gf_from_int_poly(Poly.of(t_over_p), p)
    g1 = gf_gcd(tbar, gstar, p)
    g2 = gf_gcd(g1, hstar, p)
    return len(g2) == 1


@functools.lru_cache(maxsize=4096)
def _factor_mod_p(field: NumberField, p: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """gf_factor of min_poly mod p: sorted (monic irreducible, multiplicity) pairs.

    Places, lifted local factors and valuations all read this one factorization.
    """
    return tuple((tuple(g), e) for g, e in gf_factor(gf_from_int_poly(field.poly, p), p))


def finite_places_above(field: NumberField, p: int) -> list[Place]:
    """Dedekind factorization of p; errors loudly when p-maximality fails."""
    if not is_prime(p):
        raise SpecError(f"{p} is not prime")
    if field.degree == 1:
        return [Place(field=field, kind="finite", p=p, res_degree=1, ram_index=1,
                      ideal_gen=(), siblings=1)]
    f = field.poly
    factors = _factor_mod_p(field, p)
    disc = discriminant(f)
    if int(disc) % (p * p) == 0:
        if not _dedekind_p_maximal(f, p, factors):
            raise UnsupportedPrimeError(
                f"p={p} divides the index [O_K : Z[theta]]; "
                "valuations at this prime are not supported for this field model"
            )
    places = []
    total = 0
    for gbar, e in factors:
        fv = len(gbar) - 1
        total += e * fv
        places.append(Place(field=field, kind="finite", p=p, res_degree=fv,
                            ram_index=e, ideal_gen=gbar, siblings=len(factors)))
    if total != field.degree:
        raise ConsistencyError(f"sum e_v f_v = {total} != degree {field.degree}")
    return places


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------

def _clear_denominators(x: Element) -> tuple[Poly, int]:
    """x = A(theta)/c with A an integer polynomial and c a positive integer."""
    den = math.lcm(*(c.denominator for c in x.coords))
    return Poly.of([c * den for c in x.coords]), den


@functools.lru_cache(maxsize=4096)
def _lifted_local_factors(field: NumberField, p: int, exp: int) -> tuple[tuple[int, ...], ...]:
    """Blocks g_i^{e_i} of min_poly mod p, Hensel-lifted to precision p^k >= p^exp."""
    blocks = []
    for gbar, e in _factor_mod_p(field, p):
        blk = [1]
        for _ in range(e):
            blk = gf_mul(blk, gbar, p)
        blocks.append(blk)
    lifted = hensel_lift_factors(field.poly, blocks, p, exp)
    return tuple(tuple(c for c in blk) for blk in lifted)


def ord_v(place: Place, x: Element) -> int:
    """Exact valuation of x at a finite place.

    With x = A(theta)/c, A integral, the norm N(A) is taken once and
    v_total = ord_p N(A) is split among the places above p: all of it at a
    prime with one place, by the Hensel-lifted local factors (whose shares
    must sum to v_total) at a prime with several. c contributes -e_v ord_p(c).
    """
    if place.kind != "finite":
        raise MathDomainError("ord_v is defined at finite places only")
    if x.is_zero():
        raise MathDomainError("ord_v(0) is infinite")
    field, p = place.field, place.p
    if field.degree == 1:
        return ord_p(x.coords[0], p)
    a_poly, den = _clear_denominators(x)
    den_part = place.ram_index * ord_p(den, p) if den % p == 0 else 0
    nrm = resultant(field.poly, a_poly)
    if nrm == 0 or nrm.denominator != 1:
        raise ConsistencyError(f"integral part of element has norm {nrm}")
    v_total = ord_p(nrm, p)
    if v_total == 0:
        return -den_part
    if place.siblings == 1:
        if v_total % place.res_degree:
            raise ConsistencyError(
                f"norm valuation {v_total} not divisible by residue degree {place.res_degree}")
        return v_total // place.res_degree - den_part
    lifted = _lifted_local_factors(field, p, v_total + 1)
    check = 0
    my_val = None
    for (gbar, _e), block in zip(_factor_mod_p(field, p), lifted):
        r = resultant(Poly.of(block), a_poly)
        assert r.denominator == 1
        if r == 0:
            raise ConsistencyError("lifted local factor shares a root with the element")
        v = ord_p(r, p)
        check += v
        if gbar == place.ideal_gen:
            fv = len(gbar) - 1
            if v % fv:
                raise ConsistencyError("local valuation not divisible by residue degree")
            my_val = v // fv
    if check != v_total:
        raise ConsistencyError(
            f"local valuations sum to {check}, expected {v_total} at p={p}")
    if my_val is None:
        raise ConsistencyError("place not found among local factors")
    return my_val - den_part


# ---------------------------------------------------------------------------
# Normalized absolute values
# ---------------------------------------------------------------------------

def _arch_abs_ball(place: Place, x: Element, prec: int) -> tuple[mp.mpf, mp.mpf]:
    emb = embeddings(place.field, prec)[place.embedding_index]
    val, err = eval_embedding(place.field, emb, x, prec)
    mag = abs(val)
    if place.weight == 2:
        hi = (mag + err) ** 2
        lo = max(mp.mpf(0), (mag - err)) ** 2
        return (hi + lo) / 2, (hi - lo) / 2
    return mag, err


def _refined_abs_ball(place: Place, x: Element, prec: int,
                      threshold: int) -> tuple[mp.mpf, mp.mpf, int] | None:
    """(|x|_v, radius, prec) at the first precision from prec up whose ball
    excludes threshold; None when it still contains it at MAX_PREC."""
    while True:
        val, err = _arch_abs_ball(place, x, prec)
        if val - err > threshold or val + err < threshold:
            return val, err, prec
        if prec >= MAX_PREC:
            return None
        prec *= 2


def abs_v(place: Place, x: Element) -> float:
    """Normalized absolute value |x|_v (float; archimedean from a ball with an estimated radius)."""
    if x.is_zero():
        raise MathDomainError("absolute value of zero requested")
    if place.kind == "finite":
        v = ord_v(place, x)
        return float(Fraction(place.p**place.res_degree) ** (-v))
    val, _ = _arch_abs_ball(place, x, DEFAULT_PREC)
    return float(val)


def log_abs_v(place: Place, x: Element) -> float:
    """log |x|_v; exact combination -ord * f * log(p) at finite places, and
    log |x| of the rational x itself at the archimedean place of Q."""
    if x.is_zero():
        raise MathDomainError("log |0|_v requested")
    if place.kind == "finite":
        return -ord_v(place, x) * place.res_degree * math.log(place.p)
    if place.field.degree == 1:
        return log_fraction(abs(x.coords[0]))
    return float(log_abs_v_ball(place, x)[0])


def log_abs_v_ball(place: Place, x: Element, prec: int = DEFAULT_PREC) -> tuple[mp.mpf, mp.mpf]:
    """Archimedean log |x|_v with an error radius, refining precision as needed."""
    if place.kind != "arch":
        raise MathDomainError("ball form is for archimedean places")
    ball = _refined_abs_ball(place, x, prec, 0)
    if ball is None:
        raise ConsistencyError("cannot separate |sigma(x)| from 0 at maximum precision")
    val, err, prec = ball
    with mp.workprec(prec + 20):
        lo = mp.log(val - err)
        hi = mp.log(val + err)
        return (hi + lo) / 2, (hi - lo) / 2


def compare_abs_to_one(place: Place, x: Element) -> int:
    """Sign of |x|_v - 1: +1, -1, or 0 (0 when exact or still unresolved at max precision)."""
    if x.is_zero():
        raise MathDomainError("comparison of |0|_v requested")
    if place.kind == "finite":
        v = ord_v(place, x)
        return -1 if v > 0 else (1 if v < 0 else 0)
    if place.field.degree == 1:
        a = abs(x.coords[0])
        return -1 if a < 1 else (1 if a > 1 else 0)
    ball = _refined_abs_ball(place, x, DEFAULT_PREC, 1)
    if ball is None:
        return 0  # unresolvable tie: treat as exactly 1 (the <= branch downstream)
    return 1 if ball[0] > 1 else -1
