"""Directional entropy as a piecewise-linear function on R^d, its sphere
extrema, candidate non-expansive hyperplanes, and logarithmic Mahler measure.

The entropy function is h(x) = sum of m * max(l . x, 0) over all weighted
Lyapunov vectors of the placed char-0 components: convex and positively
homogeneous of degree 1. In d = 2 the sphere extrema are located exactly by
splitting the circle at the hyperplane angles; on each arc h is a single
cosine wave, so extrema sit at arc endpoints or at an interior wave peak.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .action import PlacedSpec
from .algebra import poly_derivative, poly_divexact, poly_gcd, poly_trim
from .errors import MathDomainError, SpecError
from .numberfield import DEFAULT_PREC, OUTWARD, root_discs

_TWO_PI = 2.0 * math.pi
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
    if not ef.terms:
        raise MathDomainError("entropy function has no terms (no char-0 places)")
    if ef.d == 1:
        hp = directional_entropy(ef, (1.0,))
        hm = directional_entropy(ef, (-1.0,))
        if hp >= hm:
            return SphereExtrema(hp, hm, (1.0,), (-1.0,), "endpoints")
        return SphereExtrema(hm, hp, (-1.0,), (1.0,), "endpoints")
    if ef.d == 2:
        return _sphere_extrema_2d(ef)
    return _sphere_extrema_nd(ef)


def _unit(theta: float) -> tuple[float, float]:
    return (math.cos(theta), math.sin(theta))


def _breakpoint_angles(ef: EntropyFunction) -> list[float]:
    angles = []
    for t in ef.terms:
        a, b = t.l
        if a == 0.0 and b == 0.0:
            continue
        base = math.atan2(b, a) + 0.5 * math.pi
        for k in (0, 1):
            angles.append((base + k * math.pi) % _TWO_PI)
    angles.sort()
    merged: list[float] = []
    for th in angles:
        if not merged or th - merged[-1] > 1e-12:
            merged.append(th)
    if merged and (merged[0] + _TWO_PI) - merged[-1] <= 1e-12:
        merged.pop()
    return merged


def _sphere_extrema_2d(ef: EntropyFunction) -> SphereExtrema:
    angles = _breakpoint_angles(ef)
    if not angles:
        v = directional_entropy(ef, (1.0, 0.0))
        return SphereExtrema(v, v, (1.0, 0.0), (1.0, 0.0), "exact-arcs")
    best_max = (-math.inf, 0.0)
    best_min = (math.inf, 0.0)

    def consider(value: float, theta: float):
        nonlocal best_max, best_min
        if value > best_max[0]:
            best_max = (value, theta)
        if value < best_min[0]:
            best_min = (value, theta)

    m = len(angles)
    for i in range(m):
        lo = angles[i]
        hi = angles[(i + 1) % m] + (0.0 if i + 1 < m else _TWO_PI)
        mid = 0.5 * (lo + hi)
        xm = _unit(mid)
        c1 = c2 = 0.0
        for t in ef.terms:
            if t.l[0] * xm[0] + t.l[1] * xm[1] > 0.0:
                c1 += t.weight * t.l[0]
                c2 += t.weight * t.l[1]
        consider(directional_entropy(ef, _unit(lo)), lo)
        consider(directional_entropy(ef, _unit(hi)), hi)
        r = math.hypot(c1, c2)
        if r > 0.0:
            phi = math.atan2(c2, c1)
            for cand in (phi, phi + _TWO_PI, phi - _TWO_PI):
                if lo < cand < hi:
                    consider(r, cand)
    return SphereExtrema(best_max[0], best_min[0], _unit(best_max[1]),
                         _unit(best_min[1]), "exact-arcs")


def _sphere_extrema_nd(ef: EntropyFunction) -> SphereExtrema:
    """d >= 3: extreme rays of the hyperplane arrangement for the minimum,
    cone-gradient fixpoint iteration for the maximum, sampling as a safety
    net. Exact for generic arrangements; labeled accordingly."""
    d = ef.d
    normals = [np.array(t.l) for t in ef.terms if any(t.l)]
    candidates: list[np.ndarray] = []
    import itertools

    for subset in itertools.combinations(range(len(normals)), d - 1):
        mat = np.stack([normals[i] for i in subset])
        _u, s, vt = np.linalg.svd(mat)
        rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 1.0)))
        for row in vt[rank:]:
            nrm = np.linalg.norm(row)
            if nrm > 1e-12:
                candidates.append(row / nrm)
                candidates.append(-row / nrm)
    rng = np.random.default_rng(20259)
    samples = rng.normal(size=(4096, d))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    candidates.extend(samples)
    for v in normals:
        nv = np.linalg.norm(v)
        if nv > 0:
            candidates.append(v / nv)
            candidates.append(-v / nv)

    def h(x: np.ndarray) -> float:
        return directional_entropy(ef, tuple(x))

    best_max = (-math.inf, None)
    best_min = (math.inf, None)
    for x in candidates:
        val = h(x)
        if val < best_min[0]:
            best_min = (val, x)
        y = x
        for _ in range(40):  # gradient fixpoint: climb toward the cone gradient
            grad = np.zeros(d)
            for t in ef.terms:
                l = np.array(t.l)
                if float(l @ y) > 0.0:
                    grad += t.weight * l
            ng = np.linalg.norm(grad)
            if ng < 1e-15:
                break
            y2 = grad / ng
            if np.allclose(y2, y, atol=1e-15):
                break
            y = y2
        val = h(y)
        if val > best_max[0]:
            best_max = (val, y)
    return SphereExtrema(best_max[0], best_min[0], tuple(best_max[1]),
                         tuple(best_min[1]), "cone-sampling")


def sample_sphere_extrema_2d(ef: EntropyFunction, samples: int = 1_000_000) -> tuple[float, float]:
    """Sampling oracle: a uniform angle grid plus each term's boundary angles.

    Including the boundary angles makes kink minima exactly representable, so
    the oracle resolves both extrema to grid-curvature accuracy.
    """
    if ef.d != 2:
        raise MathDomainError("sampling oracle is for d = 2")
    thetas = np.linspace(0.0, _TWO_PI, samples, endpoint=False)
    extra = np.array(_breakpoint_angles(ef), dtype=float)
    if extra.size:
        thetas = np.concatenate([thetas, extra])
    xs = np.stack([np.cos(thetas), np.sin(thetas)])
    weights = np.array([t.weight for t in ef.terms], dtype=float)
    lmat = np.array([t.l for t in ef.terms], dtype=float)
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
    if ef.d < 2:
        return []
    out: list[tuple[float, ...]] = []
    for t in ef.terms:
        norm = math.hypot(*t.l)
        if norm == 0.0:
            continue
        unit = tuple(c / norm for c in t.l)
        lead = next(c for c in unit if abs(c) > 1e-15)
        if lead < 0:
            unit = tuple(-c for c in unit)
        if not any(max(abs(a - b) for a, b in zip(existing, unit)) < 1e-10 for existing in out):
            out.append(unit)
    return [Hyperplane(normal=u) for u in out]


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
    every root search is over simple roots. Roots come from an exact-integer
    Durand-Kerner iteration, started from a double-precision solve of S_k
    scaled by its root bound 2^s, with proven Weierstrass inclusion discs
    (numberfield.root_discs, which the embeddings of a field share). A
    connected union of c discs holds exactly c roots, so the roots and the
    approximations pair up with |root| - |z_i| at most twice the sum R of the
    radii; log max(1, .) is 1-Lipschitz, so the estimate is off by at most
    k * 2 deg(S_k) R for each part, a proven error bound. The precision
    doubles until the bound meets the target. The iteration's grid is
    2^-(prec + 60) for roots of any size up to 2^s and as many bits below
    the bound when s < 0, so huge roots (10^400 + x^2) and tiny ones
    (1 + 10^400 x^2) both come with tight discs at the first precision;
    a root far below the bound of a part with larger roots (x^2 - 10^400 x + 1)
    may sit at 0 with a radius of its own size. A part whose roots do not
    converge raises ResourceLimitError.
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
    value = math.log(abs(p[-1]))
    if len(p) == 1:
        return MahlerMeasure(value=value, error_bound=1e-15)
    parts = _squarefree_parts(p)
    prec = DEFAULT_PREC
    while True:
        with mp.workprec(prec):
            total, bound = mp.mpf(value), mp.mpf(0)
            for cs, k in parts:
                discs = root_discs(cs, prec)
                total += k * mp.fsum(mp.log(max(1, abs(z))) for z, _r in discs)
                bound += k * 2 * len(discs) * mp.fsum(r for _z, r in discs)
            bound *= OUTWARD
            if bound <= MAHLER_TARGET_ERROR / 2 or prec >= MAHLER_MAX_PREC:
                return MahlerMeasure(value=float(total), error_bound=float(bound) + 1e-14)
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
