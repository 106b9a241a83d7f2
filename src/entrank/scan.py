"""Empirical growth-rate machinery: normalized log-counts f, the split
f = g + h(n_hat), and shell scans with C1/C2 estimates.

The identity behind the split: at every support place, |xi^n - 1|_v equals
|xi^n|_v * |1 - xi^(-n)|_v when |xi^n|_v > 1 and |1 - xi^n|_v otherwise, so
log count = h(n) + sum of log |1 - phi_v(n)|_v. point_record forms xi^n once
per component and computes both sides of that identity from it by
independent routes:

- f comes from the exact count: the norm of xi^n - 1 times the finite
  valuations, all in exact arithmetic.
- g comes from balls at the archimedean places and ord_v at the finite ones.
  Placement caches a ball for log sigma_v(xi_i) at each archimedean place
  in dyadic form: integers RE, IM (the parity at a real place) and RAD at
  scale 2^-DEFAULT_PREC, RAD rounded up. log sigma_v(xi^n) is then the
  ball around sum n_i (RE_i + i IM_i) of radius sum |n_i| RAD_i, exact
  integer sums whose radius grows with |n_i| only, so the bits needed grow
  with log |n|, not with the size of xi^n's coordinates. The sign of its
  real part (n . l_v) picks the branch, and log |1 - sigma_v(phi_v)| comes
  from one low-precision evaluation with a proven radius (see
  log_abs_one_minus_exp: about 100 + log2 |n| bits, with a far-tail series
  where |sigma_v(phi_v)| < 2^-bits). Precision doubles only while the ball
  for |1 - sigma_v(phi_v)| still contains 0, rebuilding the integer rows at
  the doubled scale, up to MAX_PREC, where a ConsistencyError is raised.
  A component's archimedean terms are summed exactly before one float
  conversion. Finite places are exact and ultrametric:
  where n . ords != 0, |phi_v(n)|_v < 1, so |1 - phi_v(n)|_v = 1 and the
  term is 0; only where n . ords = 0 is ord_v(xi^n - 1) needed, read from
  one valuations_above pass per prime. The count, built on the norm of
  xi^n - 1 with its own passes, stays the identity check's other route.
- Ties: when the n . l_v ball contains 0, either branch is right to within
  weight * |n . l_v|, since the two differ by exactly n . l_v. The <= branch
  is taken and weight * (|S| + R) 2^-prec, for the integer centre S and
  radius R of n . l_v, widens the term's radius; nothing escalates.

A mismatch between g and f - h(n_hat) beyond IDENTITY_TOL plus g's radius
is an internal error, not a warning.

Only char-0 components enter h and g (char-p components have no computed
places); f always includes every component, so for specs with char-p parts
the decomposition columns cover the char-0 share of f.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

from mpmath.libmp import fzero, mpf_add, to_float

from .action import (PlacedComponent, PlacedSpec, iter_shell_points,  # noqa: F401
                     lattice_shell_points)  # callers read the list form from here too
from .counting import char0_powers, count_at_powers, require_nonzero
from .entropy import EntropyFunction, directional_entropy, entropy_function_of
from .errors import ConsistencyError, MathDomainError, SpecError
from .numberfield import (DEFAULT_PREC, MAX_PREC, DyadicBall, compare_abs_to_one, ldexp_up,
                          log_abs_one_minus_exp, log_sigma_ball, valuations_above)

IDENTITY_TOL = 1e-8


# ---------------------------------------------------------------------------
# phi_v, f and g
# ---------------------------------------------------------------------------

def _phi_ball(pc: PlacedComponent, k: int, n: tuple[int, ...], prec: int) -> tuple[DyadicBall, int]:
    """(dyadic ball for log sigma_v(phi_v(n)), tie widening), both at scale
    2^-prec, at archimedean place k.

    log sigma_v(xi^n) = sum n_i log sigma_v(xi_i): S = sum n_i RE_i and
    R = sum |n_i| RAD_i are exact integers, and the imaginary part sums the
    same way (mod 2 for the parity at a real place). weight * S is
    2^prec n . l_v, whose sign picks the branch; on a tie the <= branch is
    taken, and the widening weight * (|S| + R) covers the other branch,
    which differs from it by exactly n . l_v.
    """
    place = pc.places[k]
    rows = (pc.arch_logs[k] if prec == DEFAULT_PREC
            else [log_sigma_ball(place, x, prec).dyadic(prec) for x in pc.component.xi])
    s = im = r = 0
    for v, (re_i, im_i, rad_i) in zip(n, rows):
        s += v * re_i
        im += v * im_i
        r += abs(v) * rad_i
    if place.weight == 1:
        im &= 1
    side = compare_abs_to_one(place, (place.weight * s, place.weight * r))
    if side > 0:  # |xi^n|_v > 1: phi_v = xi^(-n)
        return DyadicBall(-s, im if place.weight == 1 else -im, r), 0
    return DyadicBall(s, im, r), (place.weight * (abs(s) + r) if side == 0 else 0)


def phi_v(pc: PlacedComponent, n) -> tuple:
    """One entry per support place, in pc.places order, for phi_v(n) =
    xi^(-n) where |xi^n|_v > 1, else xi^n (ties resolve to the <= branch).

    A finite place gets ord_v(phi_v(n)) = |n . pc.finite_ords[k]|, exactly;
    an archimedean place gets _phi_ball at DEFAULT_PREC, formed from the
    dyadic log sigma_v(xi_i) rows cached at placement.
    """
    n = tuple(int(v) for v in n)
    if all(v == 0 for v in n):
        raise MathDomainError("phi_v needs n != 0")
    return tuple(_phi_ball(pc, k, n, DEFAULT_PREC) if ords is None
                 else abs(sum(v * o for v, o in zip(n, ords)))
                 for k, ords in enumerate(pc.finite_ords))


def _log_one_minus_phi(pc: PlacedComponent, n: tuple[int, ...], xn) -> tuple[float, float]:
    """(sum of log |1 - phi_v(n)|_v over the support places, radius), from xn = xi^n.

    Finite places are exact: where ord_v(phi_v) = |n . ords| > 0,
    |1 - phi_v|_v = 1 and the term is 0; where n . ords = 0 it is
    -ord_v(xi^n - 1) f log p, from at most one valuations_above pass per
    prime. Archimedean places evaluate the phi_v ball, doubling the
    precision while |1 - sigma_v(phi_v)| is not yet separated from 0; their
    terms are added exactly and converted to a float once, so that terms
    which cancel keep their digits.
    """
    field = pc.component.field
    columns: dict[int, tuple[int, ...]] = {}  # valuations above p, one pass per prime
    arch, finite, radius = fzero, 0.0, 0.0
    for k, (place, ords, phi) in enumerate(zip(pc.places, pc.finite_ords, phi_v(pc, n))):
        if ords is not None:  # phi = |n . ords|
            if not phi and place.p not in columns:
                columns[place.p] = valuations_above(field, place.p, field.sub(xn, field.one()))
            ordv = 0 if phi else columns[place.p][place.index]
            finite += -ordv * place.res_degree * math.log(place.p)
            continue
        prec = DEFAULT_PREC
        ball, widen = phi
        while (term := log_abs_one_minus_exp(place, ball, prec)) is None:
            if prec >= MAX_PREC:
                raise ConsistencyError(
                    f"cannot separate |1 - sigma(phi_v)| from 0 at n={n}, {place.label()}, "
                    "at maximum precision")
            prec *= 2
            ball, widen = _phi_ball(pc, k, n, prec)
        arch = mpf_add(arch, term[0]._mpf_)
        radius = math.nextafter(radius + term[1] + ldexp_up(widen, -prec), math.inf)
    return to_float(arch, rnd="n") + finite, radius


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
    a mismatch beyond IDENTITY_TOL plus g's proven radius raises
    ConsistencyError. Count and g share one xi^n per component."""
    n = require_nonzero(n)
    norm = _norm2(n)
    powers = char0_powers(ps, n)
    res = count_at_powers(ps, n, powers)
    f = math.log(res.value) / norm
    if ef is None:
        ef = entropy_function_of(ps)
    h_hat = directional_entropy(ef, n) / norm
    direct = 0.0
    radius = 0.0
    f0 = 0.0
    for (pc, mult), xn, (count, _) in zip(ps.entries, powers, res.per_component):
        if xn is None:
            continue
        value, rad = _log_one_minus_phi(pc, n, xn)
        direct += mult * value
        radius += mult * rad
        f0 += mult * math.log(count)
    direct /= norm
    f0 /= norm
    if abs(direct - (f0 - h_hat)) > IDENTITY_TOL + radius / norm:
        raise ConsistencyError(
            f"decomposition mismatch at n={n}: direct g = {direct!r}, "
            f"f - h = {f0 - h_hat!r}")
    return PointRecord(n=n, count=res.value, f=f, h_hat=h_hat, g=direct)


def _env_workers() -> int:
    """ENTRANK_WORKERS as a worker count: 1 when unset or empty, SpecError
    unless it is an integer >= 1."""
    text = os.environ.get("ENTRANK_WORKERS", "").strip()
    if not text:
        return 1
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise SpecError(f"ENTRANK_WORKERS must be an integer >= 1, got {text!r}")
    return workers


def shell_scan(ps: PlacedSpec, r_min: float, r_max: float,
               budget: int = 1_000_000) -> ScanReport:
    """Evaluate the representative lattice points of the annulus in (shell,
    lexicographic) order, at most budget of them (enumerating no further
    than budget + 1), aggregate per unit shell, and estimate C1/C2 from the
    outer 20 percent of radii.
    ENTRANK_WORKERS > 1 spreads the points over that many processes, at
    most one per CPU."""
    if not (0 < r_min < r_max):
        raise MathDomainError("need 0 < r_min < r_max")
    if budget < 1:
        raise MathDomainError(f"budget must be at least 1, got {budget}")
    points = list(itertools.islice(iter_shell_points(ps.d, r_min, r_max), budget + 1))
    partial = len(points) > budget
    del points[budget:]
    ef = entropy_function_of(ps)
    workers = min(_env_workers(), os.cpu_count() or 1)
    if workers > 1 and len(points) > 64:
        from concurrent.futures import ProcessPoolExecutor  # serial runs skip its import
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
        records=tuple(records), shells=tuple(shells),
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

