"""Empirical growth-rate machinery: normalized log-counts f, the split
f = g + h(n_hat), and shell scans with C1/C2 estimates.

At every support place |xi^n - 1|_v is |xi^n|_v |1 - xi^(-n)|_v when
|xi^n|_v > 1 (the place is lifted) and |1 - xi^n|_v otherwise, so
log count = h(n) + g(n) with h(n) the sum of the positive log |xi^n|_v and
g(n) that of log |1 - phi_v(n)|_v. point_record takes one
counting.char0_point per component (the norm of xi^n - 1 and its finite
place orders); the count comes from it exactly, and one pass over the
places forms h, g and a check of both against the count:

- Archimedean places. Placement holds log sigma_v(xi_i) as dyadic balls:
  integers RE, IM (the parity at a real place) and RAD at scale
  2^-DEFAULT_PREC. The balls n_i log sigma_v(xi_i), negated where the place
  is lifted, sum to the ball for log sigma_v(phi_v(n)) around S + i IM,
  S = sum n_i RE_i, of radius R = sum |n_i| RAD_i, exact integer sums whose
  bits grow with log |n| only. weight * S is 2^prec n . l_v; its sign picks
  the branch, and on a lifted place h_v = weight * S 2^-prec within
  weight * R 2^-prec (else h_v = 0). numberfield.one_minus_exp_factor turns
  the balls into w = sigma_v(phi_v(n)) from cached per-generator
  exponentials, with ea = |w|, and |1 - w|^weight as an exact dyadic with a
  proven log radius (moved), or in the far tail a log term; it doubles the
  precision, rows rebuilt at the new scale, only while the ball for
  |1 - sigma_v(phi_v)| contains 0, up to MAX_PREC (ConsistencyError).
- Finite places are exact, from the ord_v(xi^n - 1) that the count reads
  (counting.char0_point: min(t, 0) wherever t = n . ords != 0, so
  only places with t = 0 cost a valuation). With c = ord_v f_v, c < 0 means
  t < 0, where |1 - phi_v(n)|_v = 1 and h_v = -c log p; c > 0 means t = 0,
  where h_v = 0 and the g term is -c log p.
- Ties: when the n . l_v ball contains 0, the <= branch is taken (h_v = 0),
  and weight * (|S| + R) 2^-prec widens g's radius to cover the other one,
  which differs by exactly n . l_v; nothing escalates.

The check is the product formula in integers. With M the product of the
exact archimedean factors |1 - w|^weight, A that of ea^weight over the
lifted places, and P+ and P- the products of p^|c| over the finite places
with c > 0 and c < 0, count = (M / A) P- / P+ up to the far-tail factors,
so point_record raises ConsistencyError where

    |M P- - A count P+| > (e^rho - 1) A count P+.

M and A are exact products and the check takes no logarithm, so rho, an
integer at scale 2^-DEFAULT_PREC rounded up, sums only every place's
moved, its tie widening and its far-tail term with that term's radius,
and on a lifted place weight * R plus the rounding of ea inside A, and 1
for the floor of h. g is one log per component,
log(M / P+) plus the far-tail terms at DEFAULT_PREC bits (safe_mpf_log),
converted to a float once, and exactly 0.0 where g = log(count A / P-) is
0 by one integer comparison. With no archimedean place lifted, A = 1 and
the test is count = P-. With every one lifted (ties count as not lifted),
1/A = |N(xi^n)|, which the product formula reads off the finite rows:
with t_v = n . ord_v(xi), |N(xi^n)| P- = P^, the product of p^(f_v t_v)
over the places with t_v > 0, so the test is count = P^ (placement checks
that its rows carry every |N(xi_i)|). Otherwise nothing is decided
exactly. h is the integer sum of weight * S and of -c log p (one
cached libmp log per prime) at scale 2^-DEFAULT_PREC. A float guard,
|g + h - log count| <= 2^-30 max(1, log count) per component, catches a
fault in that last conversion, which the product check does not see.

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

from mpmath.libmp import fzero, from_int, from_man_exp, mpf_abs, mpf_add, mpf_div, to_float

from .action import PlacedComponent, PlacedSpec, iter_shell_points
from .counting import Char0Point, char0_points, count_at_points, require_nonzero
from .errors import ConsistencyError, MathDomainError, SpecError
from .numberfield import (DEFAULT_PREC, MAX_PREC, DyadicBall, _ceil_shift, _scaled,
                          compare_abs_to_one, log_sigma_ball, one_minus_exp_factor, safe_mpf_log)


# ---------------------------------------------------------------------------
# phi_v, f and g
# ---------------------------------------------------------------------------

def _phi_ball(pc: PlacedComponent, k: int, n: tuple[int, ...], prec: int
              ) -> tuple[DyadicBall, list[tuple[int, int]], int, int]:
    """(ball, parts, tie widening, 2^prec h_v), all at scale 2^-prec, at
    archimedean place k: the ball for log sigma_v(phi_v(n)) from the integer
    sums S, IM and R of the module docstring (IM mod 2 at a real place),
    and parts the terms (n_i RE_i, n_i IM_i) of its centre, negated where
    |xi^n|_v > 1; h_v is weight * S within weight * R there, else 0, and on
    a tie the widening is weight * (|S| + R)."""
    place = pc.places[k]
    rows = (pc.rows[k] if prec == DEFAULT_PREC
            else [log_sigma_ball(place, x, prec) for x in pc.component.xi])
    s = im = r = 0
    parts = []
    for v, (re_i, im_i, rad_i) in zip(n, rows):
        x, y = v * re_i, v * im_i
        s += x
        im += y
        r += abs(v) * rad_i
        parts.append((x, y))
    weight = place.weight
    if weight == 1:
        im &= 1
    side = compare_abs_to_one(place, (weight * s, weight * r))
    if side > 0:  # |xi^n|_v > 1: phi_v = xi^(-n)
        return (DyadicBall(-s, im if weight == 1 else -im, r),
                [(-x, -y) for x, y in parts], 0, weight * s)
    return DyadicBall(s, im, r), parts, (weight * (abs(s) + r) if side == 0 else 0), 0


def phi_v(pc: PlacedComponent, n) -> tuple:
    """One entry per support place, in pc.places order, for phi_v(n) =
    xi^(-n) where |xi^n|_v > 1, else xi^n (ties resolve to the <= branch):
    ord_v(phi_v(n)) = |n . pc.rows[k]| at a finite place, and the
    (ball, tie widening) of _phi_ball at DEFAULT_PREC at an archimedean one.
    """
    n = require_nonzero(n, pc.d)
    return tuple(_phi_ball(pc, k, n, DEFAULT_PREC)[::2] if place.kind == "arch"  # ball, widening
                 else abs(sum(v * o for v, o in zip(n, row)))
                 for k, (place, row) in enumerate(zip(pc.places, pc.rows)))


@functools.lru_cache(maxsize=None)
def _prime_log(p: int) -> int:
    """2^DEFAULT_PREC log p for a prime p, rounded to the nearest integer and
    so within 1: one libmp log of the top wp bits of p,
    wp = DEFAULT_PREC + 20 + bitlen(bitlen(p)), which is within a few ulp,
    2^-16 at this scale."""
    wp = DEFAULT_PREC + 20 + p.bit_length().bit_length()
    return _scaled(safe_mpf_log(from_int(p, wp, "n"), wp, "n"), DEFAULT_PREC, "n")


@functools.lru_cache(maxsize=4096)
def _prime_power(p: int, k: int) -> int:
    """p^k: a finite place's exact factor in the product check."""
    return p**k


def _up(m: int, e: int) -> int:
    """ceil(m 2^(e + DEFAULT_PREC)) for an integer m >= 0: m 2^e at the
    check's scale, rounded up."""
    e += DEFAULT_PREC
    return m << e if e >= 0 else _ceil_shift(m, -e)


def _log_one_minus_phi(pc: PlacedComponent, n: tuple[int, ...], point: Char0Point,
                       count: int) -> tuple[float, int]:
    """(g, h) for one component at n, from the char0_point its count read
    and that count: g as a float and h as an integer at scale
    2^-DEFAULT_PREC, after the product check and the float guard of the
    module docstring (ConsistencyError), and g exactly 0.0 where count = P-
    (no archimedean place lifted) or count = P^ (every one lifted)."""
    m_man, m_exp = 1, 0  # M = m_man 2^m_exp
    a_man, a_exp = 1, 0  # A
    p_neg = p_pos = p_up = 1
    tails = fzero
    h = 0  # at scale 2^-DEFAULT_PREC, like rho
    rho = 0
    lifted = 0
    for k, (place, o) in enumerate(zip(pc.places, point.ords)):
        if o is not None:
            c = o * place.res_degree  # |xi^n - 1|_v = p^-c
            if c < 0:
                h -= c * _prime_log(place.p)
                p_neg *= _prime_power(place.p, -c)
            elif c:
                p_pos *= _prime_power(place.p, c)
            elif (t := sum(v * r for v, r in zip(n, pc.rows[k]))) > 0:  # |xi^n|_v = p^(-f t)
                p_up *= _prime_power(place.p, t * place.res_degree)
            continue
        prec = DEFAULT_PREC
        ball, parts, widen, lift = _phi_ball(pc, k, n, prec)
        while (term := one_minus_exp_factor(place, ball, parts, prec)) is None:
            if prec >= MAX_PREC:
                raise ConsistencyError(
                    f"cannot separate |1 - sigma(phi_v)| from 0 at n={n}, {place.label()}, "
                    "at maximum precision")
            prec *= 2
            ball, parts, widen, lift = _phi_ball(pc, k, n, prec)
        m_man, m_exp = m_man * term.man, m_exp + term.exp
        rho += _up(*term.rad) + _up(widen, -prec)
        if term.tail != fzero:
            tails = mpf_add(tails, term.tail)
            rho += _scaled(mpf_abs(term.tail), DEFAULT_PREC, "c")
        if lift:  # within weight * R and ea's rounding, plus 1 for the floor
            lifted += 1
            weight, (em, ee) = place.weight, term.ea
            h += lift >> (prec - DEFAULT_PREC)
            a_man, a_exp = a_man * em**weight, a_exp + weight * ee
            rho += weight * (_up(ball.rad, -prec) + _up(*term.ea_rad)) + 1
    _check_product(n, (m_man, m_exp), (a_man, a_exp), count * p_pos, p_neg, rho)
    ratio = from_man_exp(m_man, m_exp)
    if p_pos > 1:
        ratio = mpf_div(ratio, from_int(p_pos), max(m_man.bit_length(), 2 * DEFAULT_PREC))
    g = to_float(mpf_add(safe_mpf_log(ratio, DEFAULT_PREC, "n"), tails))
    if not lifted and count == p_neg or lifted == point.ords.count(None) and count == p_up:
        g = 0.0
    log_count = math.log(count)
    if not abs(g + math.ldexp(h, -DEFAULT_PREC) - log_count) <= 2.0**-30 * max(1.0, log_count):
        raise ConsistencyError(f"decomposition mismatch at n={n}: g = {g!r} and h = "
                               f"{math.ldexp(h, -DEFAULT_PREC)!r} do not sum to log count = "
                               f"{log_count!r}")
    return g, h


def _check_product(n, m: tuple[int, int], a: tuple[int, int], count_p_pos: int, p_neg: int,
                   rho: int) -> None:
    """ConsistencyError unless |M P- - A count P+| <= (e^rho - 1) A count P+
    for M = m[0] 2^m[1], A = a[0] 2^a[1] and rho at scale 2^-DEFAULT_PREC,
    decided in integers with e^x - 1 <= x + x^2 for 0 <= x <= 1 and
    e^x - 1 < 4^ceil(x) beyond, a shift capped where it already exceeds
    any difference."""
    e0 = min(m[1], a[1])
    lhs = (m[0] * p_neg) << (m[1] - e0)
    rhs = (a[0] * count_p_pos) << (a[1] - e0)
    if rho <= 1 << DEFAULT_PREC:
        ok = abs(lhs - rhs) << 2 * DEFAULT_PREC <= ((rho << DEFAULT_PREC) + rho * rho) * rhs
    else:
        ok = abs(lhs - rhs) <= rhs << min(2 * _ceil_shift(rho, DEFAULT_PREC), lhs.bit_length() + 1)
    if not ok:
        raise ConsistencyError(
            f"decomposition mismatch at n={n}: the archimedean product and the count differ "
            f"beyond the radius {rho} at scale 2^-{DEFAULT_PREC} of their log")


def _norm2(n) -> float:
    return math.sqrt(sum(float(v) ** 2 for v in n))


def g_value(ps: PlacedSpec, n) -> float:
    """(1/|n|) sum of log |1 - phi_v(n)|_v over char-0 components.

    This is point_record(ps, n).g: the f = g + h check runs on the full
    point record, so for a mixed spec the char-p part is counted too, and
    g_value raises wherever point_record raises.
    """
    return point_record(ps, n).g


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


def point_record(ps: PlacedSpec, n) -> PointRecord:
    """count, f, h(n_hat) and g at n, from one char0_point per component.

    h and g come from one pass over each char-0 component's support places,
    which also checks f = g + h against that component's count: in
    integers by the product formula with proven radii only, and then the
    float guard (ConsistencyError); see the module docstring.
    """
    n = require_nonzero(n, ps.d)
    norm = _norm2(n)
    points = char0_points(ps, n)
    res = count_at_points(ps, n, points)
    parts = [(mult, _log_one_minus_phi(pc, n, point, count))
             for (pc, mult), point, (count, _) in zip(ps.entries, points, res.per_component)
             if point is not None]
    g, h = (sum(m * part[i] for m, part in parts) for i in range(2))
    return PointRecord(n=n, count=res.value, f=math.log(res.value) / norm,
                       h_hat=math.ldexp(h, -DEFAULT_PREC) / norm, g=g / norm)


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


def lattice_shell_points(d: int, r_min: float, r_max: float) -> list[tuple[int, ...]]:
    """Every point iter_shell_points yields, in its order, as a list: the
    name perfbench's scans and tracer read."""
    return list(iter_shell_points(d, r_min, r_max))


def shell_scan(ps: PlacedSpec, r_min: float, r_max: float,
               budget: int = 1_000_000) -> ScanReport:
    """Evaluate the representative lattice points of the annulus in (shell,
    lexicographic) order, at most budget of them (enumerating no further
    than budget + 1), aggregate per unit shell, and estimate C1/C2 from the
    outer 20 percent of radii. Each point is point_record(ps, n), so each
    passes the proven f = g + h check or the scan raises ConsistencyError.
    ENTRANK_WORKERS > 1 spreads the points over that many processes, at
    most one per CPU; each receives ps and nothing else."""
    if not (0 < r_min < r_max):
        raise MathDomainError("need 0 < r_min < r_max")
    if budget < 1:
        raise MathDomainError(f"budget must be at least 1, got {budget}")
    points = list(itertools.islice(iter_shell_points(ps.d, r_min, r_max), budget + 1))
    partial = len(points) > budget
    del points[budget:]
    workers = min(_env_workers(), os.cpu_count() or 1)
    if workers > 1 and len(points) > 64:
        from concurrent.futures import ProcessPoolExecutor  # serial runs skip its import
        chunk_size = max(16, len(points) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(functools.partial(point_record, ps), points,
                                    chunksize=chunk_size))
    else:
        records = [point_record(ps, n) for n in points]

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

