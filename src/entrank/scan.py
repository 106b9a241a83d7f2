"""Empirical growth-rate machinery: normalized log-counts f, the split
f = g + h(n_hat), shell scans with C1/C2 estimates, and lattice sequences
converging to a non-expansive line.

The identity behind the split: at every support place, |xi^n - 1|_v equals
|xi^n|_v * |1 - xi^(-n)|_v when |xi^n|_v > 1 and |1 - xi^n|_v otherwise, so
log count = h(n) + sum of log |1 - phi_v(n)|_v. point_record computes the
exact count once and checks the direct sum for g against f - h(n_hat) taken
from the count it reports; disagreement is an internal error, not a warning.

Only char-0 components enter h and g (char-p components have no computed
places); f always includes every component, so for specs with char-p parts
the decomposition columns cover the char-0 share of f.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import mpmath as mp

from .action import PlacedComponent, PlacedSpec, lattice_shell_points
from .counting import count_composite
from .entropy import EntropyFunction, Hyperplane, directional_entropy, entropy_function_of
from .errors import ConsistencyError, MathDomainError
from .numberfield import Element, compare_abs_to_one, log_abs_v

IDENTITY_TOL = 1e-8


# ---------------------------------------------------------------------------
# phi_v, f and g
# ---------------------------------------------------------------------------

def phi_v(pc: PlacedComponent, n) -> tuple[Element, ...]:
    """One phi_v(n) per support place, in pc.places order: xi^(-n) where
    |xi^n|_v > 1, else xi^n (ties resolve to the <= branch).

    At a finite place |xi^n|_v > 1 iff ord_v(xi^n) = n . pc.finite_ords[k] < 0,
    exactly; only archimedean places compare a ball with 1. xi^n is formed
    once, and xi^(-n) at most once, from the cached inverse powers.
    """
    n = tuple(int(v) for v in n)
    if all(v == 0 for v in n):
        raise MathDomainError("phi_v needs n != 0")
    field, xi = pc.component.field, pc.component.xi
    xn = field.pow_vector(xi, n)
    above_one = [compare_abs_to_one(place, xn) > 0 if ords is None
                 else sum(k * o for k, o in zip(n, ords)) < 0
                 for place, ords in zip(pc.places, pc.finite_ords)]
    inverse = field.pow_vector(xi, tuple(-k for k in n)) if any(above_one) else None
    return tuple(inverse if above else xn for above in above_one)


def _norm2(n) -> float:
    return math.sqrt(sum(float(v) ** 2 for v in n))


def g_value(ps: PlacedSpec, n, ef: EntropyFunction | None = None) -> float:
    """(1/|n|) sum of log |1 - phi_v(n)|_v over char-0 components.

    This is point_record(ps, n, ef).g: the identity check runs on the full
    point record, so for a mixed spec the char-p part is counted too, and
    g_value raises wherever point_record raises.
    """
    return point_record(ps, n, ef).g


# ---------------------------------------------------------------------------
# Point records and shell scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointRecord:
    n: tuple[int, ...]
    count: int
    f: float
    h_hat: float
    g: float


@dataclass(frozen=True)
class ShellStat:
    lo: float
    hi: float
    points: int
    f_min: float
    f_max: float
    g_abs_max: float
    argmin_f: tuple[int, ...]
    argmax_f: tuple[int, ...]


@dataclass(frozen=True)
class ScanReport:
    r_min: float
    r_max: float
    records: tuple[PointRecord, ...]
    shells: tuple[ShellStat, ...]
    c1_estimate: float
    c2_estimate: float
    c1_trimmed: float
    c2_trimmed: float
    argmax_f: tuple[int, ...]
    argmin_f: tuple[int, ...]
    partial: bool
    has_charp: bool


def point_record(ps: PlacedSpec, n, ef: EntropyFunction | None = None) -> PointRecord:
    """count, f, h(n_hat) and g at n, with g computed directly and checked
    against f_char0 - h(n_hat) from the char-0 factors of the reported count;
    a mismatch beyond IDENTITY_TOL raises ConsistencyError."""
    n = tuple(int(v) for v in n)
    norm = _norm2(n)
    res = count_composite(ps, n)
    f = math.log(res.value) / norm
    if ef is None:
        ef = entropy_function_of(ps)
    h_hat = directional_entropy(ef, n) / norm
    direct = 0.0
    f0 = 0.0
    for (pc, mult), (count, _) in zip(ps.entries, res.per_component):
        if not isinstance(pc, PlacedComponent):
            continue
        field = pc.component.field
        for place, phi in zip(pc.places, phi_v(pc, n)):
            value = field.sub(field.one(), phi)
            if value.is_zero():
                raise MathDomainError(f"phi_v = 1 at n={n}: non-mixing direction")
            direct += mult * log_abs_v(place, value)
        f0 += mult * math.log(count)
    direct /= norm
    f0 /= norm
    if abs(direct - (f0 - h_hat)) > IDENTITY_TOL:
        raise ConsistencyError(
            f"decomposition mismatch at n={n}: direct g = {direct!r}, "
            f"f - h = {f0 - h_hat!r}")
    return PointRecord(n=n, count=res.value, f=f, h_hat=h_hat, g=direct)


def shell_scan(ps: PlacedSpec, r_min: float, r_max: float,
               budget: int = 1_000_000, workers: int | None = None) -> ScanReport:
    """Evaluate every representative lattice point in the annulus, aggregate
    per unit shell, and estimate C1/C2 from the outer 20 percent of radii."""
    if not (0 < r_min < r_max):
        raise MathDomainError("need 0 < r_min < r_max")
    points = lattice_shell_points(ps.d, r_min, r_max)
    partial = False
    if len(points) > budget:
        points = points[:budget]
        partial = True
    ef = entropy_function_of(ps)
    if workers is None:
        workers = int(os.environ.get("ENTRANK_WORKERS", "1"))
    if workers > 1 and len(points) > 64:
        chunk_size = max(16, len(points) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(functools.partial(point_record, ps, ef=ef), points,
                                    chunksize=chunk_size))
    else:
        records = [point_record(ps, n, ef) for n in points]

    by_shell: dict[int, list[PointRecord]] = {}
    for rec in records:
        by_shell.setdefault(int(math.floor(_norm2(rec.n))), []).append(rec)
    shells = []
    for k in sorted(by_shell):
        rs = by_shell[k]
        fmin = min(rs, key=lambda r: r.f)
        fmax = max(rs, key=lambda r: r.f)
        shells.append(ShellStat(lo=float(k), hi=float(k + 1), points=len(rs),
                                f_min=fmin.f, f_max=fmax.f,
                                g_abs_max=max(abs(r.g) for r in rs),
                                argmin_f=fmin.n, argmax_f=fmax.n))
    cut = r_max - 0.2 * (r_max - r_min)
    outer = [r for r in records if _norm2(r.n) >= cut] or records
    outer_sorted = sorted(outer, key=lambda r: r.f)
    c2, c1 = outer_sorted[0], outer_sorted[-1]
    c2_trim = outer_sorted[min(1, len(outer_sorted) - 1)]
    c1_trim = outer_sorted[max(-2, -len(outer_sorted))]
    return ScanReport(
        r_min=r_min, r_max=r_max, records=tuple(records), shells=tuple(shells),
        c1_estimate=c1.f, c2_estimate=c2.f,
        c1_trimmed=c1_trim.f, c2_trimmed=c2_trim.f,
        argmax_f=c1.n, argmin_f=c2.n, partial=partial,
        has_charp=bool(ps.charp()))


def write_records_csv(records, fh, d: int) -> None:
    import csv

    w = csv.writer(fh)
    w.writerow([f"n{i+1}" for i in range(d)] + ["count", "f", "h_hat", "g"])
    for r in records:
        w.writerow([*r.n, r.count, f"{r.f:.12g}", f"{r.h_hat:.12g}", f"{r.g:.12g}"])


# ---------------------------------------------------------------------------
# Sequences converging to a non-expansive line
# ---------------------------------------------------------------------------

def _continued_fraction_convergents(x: mp.mpf, depth: int) -> list[tuple[int, int]]:
    """Convergents p/q of x > 0 from its continued fraction expansion."""
    out = []
    p0, q0, p1, q1 = 1, 0, 0, 1  # p0/q0 = 1/0, p1/q1 = 0/1
    val = mp.mpf(x)
    for _ in range(depth):
        a = int(mp.floor(val))
        p0, q0, p1, q1 = a * p0 + p1, a * q0 + q1, p0, q0
        out.append((p0, q0))
        frac = val - a
        if frac < mp.mpf(10) ** (-mp.mp.dps + 8):
            break
        val = 1 / frac
    return out


def convergent_sequence(ps: PlacedSpec, hp: Hyperplane, k: int,
                        ef: EntropyFunction | None = None) -> list[PointRecord]:
    """The first k lattice points produced by continued-fraction convergents
    of the line's slope (axis multiples when the slope is rational).

    Convergents with a zero coordinate are dropped: those directions belong
    to other candidate hyperplanes.
    """
    if ps.d != 2:
        raise MathDomainError("convergent sequences are implemented for d = 2")
    if k < 1:
        raise MathDomainError("need k >= 1")
    if ef is None:
        ef = entropy_function_of(ps)
    term = ef.terms[hp.term_indices[0]]
    if term.kind == "finite":
        # both entries are integer multiples of log p: rational slope
        pc = term.component
        assert pc is not None
        ords = pc.finite_ords[term.place_index]
        a, b = ords  # line: -(a x + b y) log(p^f) = 0
        if a == 0 and b == 0:
            raise MathDomainError("degenerate hyperplane")
        g = math.gcd(abs(a), abs(b))
        direction = (-b // g, a // g)
        if direction[0] < 0 or (direction[0] == 0 and direction[1] < 0):
            direction = (-direction[0], -direction[1])
        pts = [(j * direction[0], j * direction[1]) for j in range(1, k + 1)]
        return [point_record(ps, n, ef) for n in pts]
    with mp.workdps(80):
        pc = term.component
        assert pc is not None
        a_ball = pc.lyapunov_entry_ball(term.place_index, 0, 300)
        b_ball = pc.lyapunov_entry_ball(term.place_index, 1, 300)
        a, b = mp.mpf(a_ball[0]), mp.mpf(b_ball[0])
        if a < 0:
            a, b = -a, -b
        if a == 0 or b == 0:
            raise MathDomainError("axis hyperplane: use the finite-place route")
        ratio = abs(b) / a
        convs = _continued_fraction_convergents(ratio, depth=k + 6)
    sign = -1 if b > 0 else 1
    pts = []
    for p, q in convs:
        n = (sign * p, q)
        if n[0] == 0 or n[1] == 0:
            continue
        pts.append(n)
        if len(pts) == k:
            break
    return [point_record(ps, n, ef) for n in pts]
