"""Directional entropy as a piecewise-linear function on R^d, its sphere
extrema, candidate non-expansive hyperplanes, and logarithmic Mahler measure.

The entropy function is h(x) = sum of m * max(l . x, 0) over all weighted
Lyapunov vectors of the placed char-0 components: convex and positively
homogeneous of degree 1. Each float l is a dyadic rational, so at one scale
2^-E the vectors are integer rows, and the sphere extrema come exactly from
the arrangement of hyperplanes l . x = 0 in every dimension.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from mpmath.libmp import (finf, fone, from_float, from_int, from_man_exp, fzero, mpc_abs,
                          mpf_add, mpf_gt, mpf_le, mpf_mul, mpf_mul_int, mpf_sum, to_float)

from .action import PlacedSpec
from .algebra import (_bareiss_det, discriminant, poly_derivative, poly_divexact, poly_gcd,
                      poly_trim)
from .errors import MathDomainError, SpecError
from .numberfield import DEFAULT_PREC, OUTWARD, root_discs, safe_mpf_log

MAHLER_TARGET_ERROR = 1e-8
MAHLER_MAX_PREC = 1 << 11


# ---------------------------------------------------------------------------
# The entropy function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyTerm:
    weight: int
    l: tuple[float, ...]


@dataclass(frozen=True)
class EntropyFunction:
    d: int
    terms: tuple[EntropyTerm, ...]

    @functools.cached_property
    def rows(self) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
        """(E, ((m, l * 2^E), ...)), one per term: integer rows, exact at the
        common scale 2^-E since every float is a dyadic rational."""
        ratios = [[c.as_integer_ratio() for c in t.l] for t in self.terms]
        scale = max((den.bit_length() - 1 for r in ratios for _n, den in r), default=0)
        return scale, tuple((t.weight, tuple(n << (scale - den.bit_length() + 1) for n, den in r))
                            for t, r in zip(self.terms, ratios))


def entropy_function_of(ps: PlacedSpec) -> EntropyFunction:
    """Flatten the weighted Lyapunov vectors of the char-0 components.

    Char-p components carry no computed places and contribute no terms.
    """
    terms = []
    for pc, mult in ps.placed_char0():
        for l in pc.lyapunov:
            terms.append(EntropyTerm(weight=mult, l=tuple(l)))
    return EntropyFunction(d=ps.d, terms=tuple(terms))


def directional_entropy(ef: EntropyFunction, x) -> float:
    """h(x) = sum m * max(l . x, 0)."""
    xs = tuple(float(v) for v in x)
    if len(xs) != ef.d:
        raise MathDomainError(f"vector has {len(xs)} entries, expected {ef.d}")
    total = 0.0
    for t in ef.terms:
        dot = sum(a * b for a, b in zip(t.l, xs))
        if dot > 0.0:
            total += t.weight * dot
    return total


# ---------------------------------------------------------------------------
# Sphere extrema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereExtrema:
    max_value: float
    min_value: float
    argmax: tuple[float, ...]
    argmin: tuple[float, ...]
    method: str


def sphere_extrema(ef: EntropyFunction) -> SphereExtrema:
    """Maximum and minimum of h on the unit sphere, exact for every d >= 1.

    h is linear on each cell of the arrangement of hyperplanes l . x = 0,
    with gradient c_S = sum of m * l over the sign set S = {i : l_i . x > 0}.
    Minimum: h / |x| is quasi-concave on a cell, so on a pointed cell it is
    least at an extreme ray, on a line where d - 1 independent hyperplanes
    meet (spanned by the signed minors of their normals). Maximum: c_S . x
    <= h(x) for every S and the closed cells cover the sphere, so it is the
    largest |c_S| over the cells' sign sets: at an extreme ray r of a cell,
    {i : l_i . r > 0} plus one side of each hyperplane through r (l and -l
    can share one). If the rows do not span R^d, weight-0 unit rows complete
    their span, so every cell is pointed and neither h nor any c_S changes;
    no cell lies in the kernel, so a line where every row vanishes only
    gives the minimum, 0. Every decision is made in the integers of
    `ef.rows`; exact ties go to the lexicographically greatest c_S, and r / |r|.
    For a placed spec h is even up to the rounding of the float rows, so
    which of r and -r is returned can rest on that rounding; the cli prints
    the one whose first nonzero entry is positive.
    """
    if not ef.terms:
        raise MathDomainError("entropy function has no terms (no char-0 places)")
    d = ef.d
    scale, rows = ef.rows
    planes: dict[tuple[int, ...], int] = {}  # merged hyperplanes by primitive normal
    signed = []  # (m * l, its hyperplane, 1 if l and the normal point to opposite sides)
    for m, row in rows:
        if not any(row):
            continue
        plane = planes.setdefault(_primitive(row), len(planes))
        signed.append((tuple(m * c for c in row), plane, int(next(c for c in row if c) < 0)))
    units = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    normals = list(planes) + [u for u in _independent(list(planes) + units, d) if u not in planes]
    zero = (0,) * d
    best_max = (0, zero)  # (|c_S|^2, c_S)
    best_min = None  # (H, r, |r|^2) with h(r / |r|) = H / (2^scale |r|)
    lines = set()
    for subset in itertools.combinations(normals, d - 1):
        r = _minor_vector(subset, d)
        if not any(r) or (r := _primitive(r)) in lines:
            continue
        lines.add(r)
        above, below, h_pos, h_neg = [], [], 0, 0
        sides: dict[int, tuple[list, list]] = {}  # the rows on each hyperplane through r
        for wrow, plane, side in signed:
            t = sum(map(operator.mul, wrow, r))
            if t > 0:
                h_pos += t
                above.append(wrow)
            elif t < 0:
                h_neg -= t
                below.append(wrow)
            else:
                sides.setdefault(plane, ([], []))[side].append(wrow)
        rr = sum(x * x for x in r)
        for h, ray, base in ((h_pos, r, above), (h_neg, tuple(-x for x in r), below)):
            if best_min is None or _before((h, ray, rr), best_min):
                best_min = (h, ray, rr)
            if h_pos or h_neg:
                for choice in itertools.product(*sides.values()):
                    c = tuple(map(sum, zip(zero, *base, *itertools.chain(*choice))))
                    best_max = max(best_max, (sum(x * x for x in c), c))
    (norm2, c), (h, r, rr) = best_max, best_min
    argmin = _unit(r, rr)
    return SphereExtrema(_sqrt_ratio(norm2, 1, scale), _sqrt_ratio(h * h, rr, scale),
                         _unit(c, norm2) if norm2 else argmin, argmin, "exact")


def _primitive(v: tuple[int, ...]) -> tuple[int, ...]:
    """v / gcd(v), signed so that its first nonzero entry is positive."""
    g = math.gcd(*v) if next(c for c in v if c) > 0 else -math.gcd(*v)
    return tuple(c // g for c in v)


def _minor_vector(rows, d: int) -> tuple[int, ...]:
    """The signed (d-1)-minors of d - 1 integer rows: orthogonal to each
    row, and zero iff the rows are dependent."""
    if d == 1:
        return (1,)
    return tuple((-1) ** k * _bareiss_det([list(r[:k] + r[k + 1:]) for r in rows])
                 for k in range(d))


def _independent(rows, d: int) -> list[tuple[int, ...]]:
    """A maximal independent subset of integer rows in R^d, taken greedily in
    order by fraction-free elimination against the rows already kept."""
    kept, reduced = [], []
    for row in rows:
        v = row
        for piv, b in reduced:
            if a := v[piv]:
                v = tuple(b[piv] * x - a * y for x, y in zip(v, b))
        if any(v):
            kept.append(row)
            reduced.append((next(i for i, x in enumerate(v) if x), v))
            if len(kept) == d:
                break
    return kept


def _before(a, b) -> bool:
    """For (H, r, |r|^2) triples: whether a comes before b as the minimum,
    by H / |r| and then by the lexicographically greater r / |r|, in integers."""
    (ha, ra, na), (hb, rb, nb) = a, b
    if ha * ha * nb != hb * hb * na:
        return ha * ha * nb < hb * hb * na
    for x, y in zip(ra, rb):  # x / |r_a| against y / |r_b|, squared with signs
        if x * abs(x) * nb != y * abs(y) * na:
            return x * abs(x) * nb > y * abs(y) * na
    return False


def _sqrt_ratio(num: int, den: int, scale: int = 0) -> float:
    """sqrt(num / den) / 2^scale as a float, for integers num >= 0, den > 0,
    from an integer square root carrying at least 63 bits."""
    k = max(0, 64 - (num.bit_length() - den.bit_length()) // 2)
    return math.isqrt((num << 2 * k) // den) / (1 << (scale + k))


def _unit(v: tuple[int, ...], norm2: int) -> tuple[float, ...]:
    return tuple(math.copysign(_sqrt_ratio(x * x, norm2), -1 if x < 0 else 1) for x in v)


def sample_sphere_extrema_2d(ef: EntropyFunction, samples: int = 1_000_000) -> tuple[float, float]:
    """Sampling oracle for tests and benchmarks (numpy, from the test extra):
    a uniform angle grid plus each term's boundary angles, where h has its
    kinks, so it resolves both extrema to grid-curvature accuracy."""
    import numpy as np

    if ef.d != 2:
        raise MathDomainError("sampling oracle is for d = 2")
    weights = np.array([t.weight for t in ef.terms], dtype=float)
    lmat = np.array([t.l for t in ef.terms], dtype=float)
    kinks = np.arctan2(lmat[:, 1], lmat[:, 0]) + 0.5 * np.pi
    thetas = np.concatenate([np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False),
                             kinks, kinks + np.pi])
    xs = np.stack([np.cos(thetas), np.sin(thetas)])
    vals = weights @ np.clip(lmat @ xs, 0.0, None)
    return float(vals.max()), float(vals.min())


# ---------------------------------------------------------------------------
# Candidate non-expansive hyperplanes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hyperplane:
    """The set {x : normal . x = 0}; a candidate non-expansive subspace.

    Candidates only: these are the breakpoint hyperplanes of the entropy
    function, one per distinct Lyapunov direction.
    """

    normal: tuple[float, ...]

    def describe(self) -> str:
        coords = " + ".join(f"{c:.12g}*x{i+1}" for i, c in enumerate(self.normal))
        return f"{coords} = 0"


def nonexpansive_candidates(ef: EntropyFunction) -> list[Hyperplane]:
    """One hyperplane per Lyapunov direction, in first-seen order: terms merge
    when their rows in `ef.rows` have the same primitive normal, as in
    sphere_extrema. The normal is the first such l over its length, signed
    so that its first nonzero entry is positive."""
    if ef.d < 2:
        return []
    planes: dict[tuple[int, ...], Hyperplane] = {}
    for t, (_m, row) in zip(ef.terms, ef.rows[1]):
        if any(row) and (key := _primitive(row)) not in planes:
            norm = math.copysign(math.hypot(*t.l), next(c for c in row if c))
            # + 0.0 turns the -0.0 of a zero entry over a negative norm into 0.0
            planes[key] = Hyperplane(normal=tuple(c / norm + 0.0 for c in t.l))
    return list(planes.values())


# ---------------------------------------------------------------------------
# Mahler measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MahlerMeasure:
    value: float
    error_bound: float


def mahler_measure(coeffs) -> MahlerMeasure:
    """m(P) = log|lc(P)| + sum over roots of log max(1, |root|).

    P splits into squarefree parts S_k with P = lc * prod S_k^k (Yun), so
    every root search is over simple roots. A monic P whose discriminant
    (cached by P, so a field's minimal polynomial reads the one its
    irreducibility test took) is nonzero is squarefree and primitive, its
    own one part, and skips Yun's gcds in Z[x]. Roots come from an
    exact-integer Durand-Kerner iteration, started from a double-precision
    solve of S_k scaled by its root bound 2^s, with proven Weierstrass
    inclusion discs (numberfield.root_discs, which the embeddings of a field
    share): centre (a + ib) 2^-E and radius r 2^-E in integers. All sums are
    raw libmp at prec bits, rounded to nearest, with |z_i| rounded to prec
    bits before max(1, |z_i|) and its log taken through safe_mpf_log. A
    connected union of c discs holds exactly c roots, so the roots and the
    approximations pair up with |root| - |z_i| at most twice the sum R of
    the radii; log max(1, .) is 1-Lipschitz, so the estimate is off by at
    most k * 2 deg(S_k) R for each part, a proven error bound. The precision
    doubles until the bound meets the target. The iteration's grid is
    2^-(prec + 60) for roots of any size up to 2^s and as many bits below
    the bound when s < 0, so huge roots (10^400 + x^2) and tiny ones
    (1 + 10^400 x^2) both come with tight discs at the first precision; a
    root far below the bound of a part with larger roots
    (x^2 - 10^400 x + 1) may sit at 0 with a radius of its own size. A part
    whose roots do not converge raises ResourceLimitError.
    """
    p = poly_trim(coeffs)
    if not p:
        raise MathDomainError("Mahler measure of the zero polynomial")
    if any(c != int(c) for c in p):
        raise SpecError("expected integer coefficients")
    low = 0
    while p[low] == 0:
        low += 1  # factors of x contribute nothing
    p = [int(c) for c in p[low:]]
    monic_squarefree = len(p) > 1 and p[-1] == 1 and discriminant(p) != 0
    parts = [(tuple(p), 1)] if monic_squarefree else _squarefree_parts(p) if len(p) > 1 else []
    prec = DEFAULT_PREC
    while True:
        total, bound = safe_mpf_log(from_int(abs(p[-1])), prec, "n"), fzero
        for cs, k in parts:
            scale, discs = root_discs(cs, prec)
            sizes = [mpc_abs((from_man_exp(a, -scale), from_man_exp(b, -scale)), prec, "n")
                     for a, b, _r in discs]
            logs = [safe_mpf_log(z, prec, "n") for z in sizes if mpf_gt(z, fone)]
            radii = [finf if r is None else from_man_exp(r, -scale) for _a, _b, r in discs]
            total = mpf_add(total, mpf_mul_int(mpf_sum(logs, prec, "n"), k, prec, "n"), prec, "n")
            bound = mpf_add(bound, mpf_mul_int(mpf_sum(radii, prec, "n"), 2 * k * len(discs),
                                               prec, "n"), prec, "n")
        bound = mpf_mul(bound, OUTWARD, prec, "n")
        if mpf_le(bound, from_float(MAHLER_TARGET_ERROR / 2)) or prec >= MAHLER_MAX_PREC:
            # one ulp of the double covers its rounding and, as every
            # summand is >= 0, the far smaller rounding at prec bits
            value = to_float(total, rnd="n")
            return MahlerMeasure(value, to_float(bound, rnd="n") + math.ulp(value))
        prec *= 2


def _squarefree_parts(p: list[int]) -> list[tuple[tuple[int, ...], int]]:
    """(S_k, k) for the nonconstant S_k of Yun's squarefree decomposition
    p = lc * prod S_k^k, each S_k primitive with a positive leading coefficient.

    The gcds are primitive, so every division is exact in Z[x] (Gauss's
    lemma), and b and c carry the same constant factor as over Q, so
    d = c - b' does too.
    """
    dp = poly_derivative(p)
    a = poly_gcd(p, dp)
    b, c = poly_divexact(p, a), poly_divexact(dp, a)
    out, k = [], 1
    while len(b) > 1:
        d = [u - v for u, v in itertools.zip_longest(c, poly_derivative(b), fillvalue=0)]
        a = poly_gcd(b, d)
        b, c = poly_divexact(b, a), poly_divexact(d, a)
        if len(a) > 1:
            out.append((tuple(a), k))
        k += 1
    return out
