"""Empirical growth-rate machinery: normalized log-counts f, the split
f = g + h(n_hat), and shell scans with C1/C2 estimates. The per-point
kernel and its one error budget live here.

At every support place |xi^n - 1|_v is |xi^n|_v |1 - xi^(-n)|_v when
|xi^n|_v > 1 (the place is lifted) and |1 - xi^n|_v otherwise, so
log count = h(n) + g(n) with h(n) the sum of the positive log |xi^n|_v and
g(n) that of log |1 - phi_v(n)|_v. point_record takes one
counting.char0_point per component (the norm of xi^n - 1 and, at each
finite place, ord_v(xi^n - 1) and t = ord_v(xi^n)); the count comes from it
exactly as an integer, and one pass over the archimedean places, then one
over the finite places, forms h, g and a check of both against the count:

- Archimedean places. Placement holds log sigma_v(xi_i) as dyadic balls:
  integers RE, IM (the parity at a real place) and RAD at scale
  2^-DEFAULT_PREC. The balls n_i log sigma_v(xi_i), negated where the place
  is lifted, sum to the ball t for log sigma_v(phi_v(n)) around S + i IM,
  S = sum n_i RE_i, of radius R = sum |n_i| RAD_i, exact integer sums whose
  bits grow with log |n| only. weight * S is 2^prec n . l_v; the sign of S,
  decided where |S| > R, picks the branch, and on a lifted place
  h_v = weight * S 2^-prec within weight * R 2^-prec (else h_v = 0).
  one_minus_exp_factor turns t into w = sigma_v(phi_v(n)) and
  |1 - w|^weight (below); it doubles the precision, rows rebuilt at the new
  scale, only while the ball for |1 - sigma_v(phi_v)| contains 0, up to
  MAX_PREC (ConsistencyError).
- Finite places are exact, from the ord_v(xi^n - 1) that the count reads
  and the t beside it (counting.char0_point: min(t, 0) wherever
  t = n . ords != 0, so only places with t = 0 cost a valuation). With
  c = ord_v f_v, c < 0 means t < 0, where |1 - phi_v(n)|_v = 1 and
  h_v = -c log p; c > 0 means t = 0, where h_v = 0 and the g term is
  -c log p.
- Ties: when the n . l_v ball contains 0, the <= branch is taken (h_v = 0),
  and weight * (|S| + R) 2^-prec widens g's radius to cover the other one,
  which differs by exactly n . l_v; nothing escalates.

The factor |1 - e^t|_v, for t in the ball t at scale 2^-prec with Re t <= 0
up to ties. With a = Re t0 and r = t.rad 2^-prec <= 1/2 (a wider ball is
declined), the work runs at wp = prec - 32 + bitlen(t.rad) bits, about
100 + log2 |n| at the default precision, since t.rad is about |n| times the
cached radii. w = e^t0 is the product over the generators' parts of t0 of
cached exponentials at wq >= wp + 8 + bitlen(#parts) bits, wq a multiple of
32 so that nearby wp share entries: e^(part.re 2^-prec) (_exp_entry, each
within a relative 2^(1 - wq)), their product cut to wq bits, which leaves
the computed ea within a relative 2^(-wp - 5) of e^a, and at a complex
place (cos, sin)(part.im 2^-prec) (_cos_sin_entry, each coordinate within
2^-wq), multiplied and floored at scale 2^-wq. So w is within e^a 2^(4 - wp)
of e^t0, and e^t moves by at most e^a (r + r^2) on the ball; every e^t lies
within delta = ea f of w, eps = 2^(5 - wp) and f = (r + r^2 + eps)(1 + eps),
and ea (1 + eps) bounds both e^a and |w|. These bounds are integers at
scale 2^-(prec + 16), each rounded in its safe direction.

- Far tail, ea < 2^-wp: log |1 - w| = -Re w - Re(w^2)/2 to within |w|^3,
  and with w's own error within ea (1 + eps) eps; |1 - w| - delta >= 1/2, so
  the value moves by at most 2 delta over the ball. weight times that
  term is the place's tail, and its exact factor is 1.
- Elsewhere |1 - w| (at a complex place |1 - w|^2) is formed exactly as an
  integer at w's scale, the place's exact factor. Over the ball the log
  moves by at most moved = weight delta / gap, gap = |1 - w| - delta, with
  |1 - w| floored at scale 2^(e - prec - 16), e the exponent of ea, and one
  unit off; gap <= 0 declines the ball, and the precision doubles.

The check is the product formula in integers. With M the product of the
exact archimedean factors, A that of ea^weight over the lifted places, and
P+ and P- the products of p^|c| over the finite places with c > 0 and
c < 0, count = (M / A) P- / P+ up to the tails, so point_record raises
ConsistencyError where

    |M P- - A count P+| > (e^rho - 1) A count P+.

M and A are exact products and the check takes no logarithm, so rho, an
integer at scale 2^-DEFAULT_PREC, sums only bounds, each rounded up to that
scale once: every place's moved, or in the far tail the tail's radius and
|tail| (two ceilings), which one_minus_exp_factor hands over as rho, its tie
widening, and on a lifted place weight * R and weight times ea's log
radius, |log ea - a| <= 2^(-wp - 4), plus 1 for the floor of h. g is one log per component,
log(M / P+) plus the tails at DEFAULT_PREC bits (safe_mpf_log),
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
from typing import NamedTuple

from mpmath.libmp import (fzero, from_int, from_man_exp, mpf_add, mpf_cos_sin, mpf_div, mpf_exp,
                          to_float)

from .action import PlacedComponent, PlacedSpec, iter_shell_points
from .counting import Char0Point, char0_points, count_at_points, require_nonzero
from .errors import ConsistencyError, MathDomainError, SpecError
from .numberfield import (DEFAULT_PREC, MAX_PREC, DyadicBall, Place, _ceil_shift, _scaled,
                          log_sigma_ball, safe_mpf_log)


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
    if s > r:  # |xi^n|_v > 1: phi_v = xi^(-n)
        return (DyadicBall(-s, im if weight == 1 else -im, r),
                [(-x, -y) for x, y in parts], 0, weight * s)
    return DyadicBall(s, im, r), parts, (weight * (abs(s) + r) if s >= -r else 0), 0


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


@functools.lru_cache(maxsize=4096)
def _exp_entry(x: int, prec: int, wq: int) -> tuple[int, int]:
    """e^(x 2^-prec) as (m, e), m of wq bits, within a relative 2^(1 - wq):
    one libmp exp at wq + 8 bits, rounded to nearest at wq."""
    _sign, man, exp, bc = mpf_exp(from_man_exp(x, -prec), wq + 8)
    k = bc - wq
    if k <= 0:
        return man << -k, exp + k
    return (man + (1 << (k - 1))) >> k, exp + k


@functools.lru_cache(maxsize=4096)
def _cos_sin_entry(y: int, prec: int, wq: int) -> tuple[int, int]:
    """(cos, sin)(y 2^-prec) as integers at scale 2^-wq, each within 1: one
    libmp cos_sin at wq + 8 bits, rounded to nearest."""
    cos, sin = mpf_cos_sin(from_man_exp(y, -prec), wq + 8)
    return _scaled(cos, wq, "n"), _scaled(sin, wq, "n")


class ExpFactor(NamedTuple):
    """|1 - e^t|_v over a ball t, from one_minus_exp_factor: for every t in
    the ball, weight log |1 - e^t| lies within rho 2^-DEFAULT_PREC of
    log(man 2^exp) + tail, and ea = ea[0] 2^ea[1] has |log ea - Re t0| <=
    ea_rad 2^-DEFAULT_PREC."""

    man: int  # man 2^exp = |1 - w|^weight exactly, or 1 in the far tail
    exp: int
    tail: tuple  # raw mpf: weight log |1 - w| in the far tail, else fzero
    ea: tuple[int, int]
    rho: int  # moved, or the tail's radius plus |tail|; both rounded up
    ea_rad: int


def one_minus_exp_factor(place: Place, t: DyadicBall, parts: list[tuple[int, int]],
                         prec: int) -> ExpFactor | None:
    """The factor |1 - e^t|_v of the module docstring for the dyadic ball t
    at scale 2^-prec, or None while the ball for |1 - e^t| is not separated
    from 0. parts are integer pairs (re, im), one per generator, that sum to
    t's centre (re + i im); at a real place only t.im, the parity, is read.
    Its bounds leave at scale 2^-DEFAULT_PREC, rounded up."""
    rad = t.rad
    if rad > 1 << (prec - 1):
        return None
    wp = prec - 32 + rad.bit_length()
    wq = -(-(wp + 8 + len(parts).bit_length()) // 32) * 32
    em, ee = 1, 0
    for x, _y in parts:
        if x:
            m, e = _exp_entry(x, prec, wq)
            em, ee = em * m, ee + e
    k = em.bit_length() - wq
    if k > 0:
        em, ee = em >> k, ee + k
    weight = place.weight
    if weight == 1:
        xr, xi, s = (-em if t.im else em), 0, ee
    else:
        ur, ui = 1 << wq, 0
        for _x, y in parts:
            if y:
                c, si = _cos_sin_entry(y, prec, wq)
                ur, ui = (ur * c - ui * si) >> wq, (ur * si + ui * c) >> wq
        xr, xi, s = em * ur, em * ui, ee - wq  # w = (xr + i xi) 2^s
    sc = prec + 16
    r = rad << 16
    eps = 1 << max(sc + 5 - wp, 0)
    f = _ceil_shift((r + _ceil_shift(r * r, sc) + eps) * ((1 << sc) + eps), sc)
    ea_rad = 1 << max(DEFAULT_PREC - 4 - wp, 0)  # |log(1 + x)| <= 2 |x| for |x| <= 2^(-wp - 5)
    if em.bit_length() + ee <= -wp:  # ea < 2^-wp
        # weight (-Re w - Re(w^2)/2) = v 2^(2s + weight - 2), within moved 2^(ee - sc)
        v = xi * xi - xr * xr - (xr << (1 - s))
        moved = (2 * f + eps + _ceil_shift(eps * eps, sc)) * em << (weight - 1)
        rho = (_ceil_shift(moved, sc - ee - DEFAULT_PREC)
               + _ceil_shift(abs(v), 2 - weight - 2 * s - DEFAULT_PREC))
        return ExpFactor(1, 0, from_man_exp(v, 2 * s + weight - 2), (em, ee), rho, ea_rad)
    delta = em * f  # at scale 2^(ee - sc), like d and gap
    one = 1 << -s
    if weight == 1:
        man, exp = abs(one - xr), s
        d = man << (sc + s - ee)
    else:
        man, exp = (one - xr) ** 2 + xi * xi, 2 * s
        k = sc + s - ee  # |1 - w| = sqrt(man) 2^s, at scale 2^(ee - sc)
        d = math.isqrt(man << 2 * k if k >= 0 else man >> -2 * k)
    gap = d - 1 - delta
    if gap <= 0:
        return None
    # weight delta / gap rounded up once, as rounding up at 2^-prec first would give
    moved = -(-(weight * delta << DEFAULT_PREC) // gap)
    return ExpFactor(man, exp, fzero, (em, ee), moved, ea_rad)


def _log_one_minus_phi(pc: PlacedComponent, n: tuple[int, ...], point: Char0Point,
                       count: int) -> tuple[float, int]:
    """(g, h) for one component at n, from the char0_point its count read
    and that count: g as a float and h as an integer at scale
    2^-DEFAULT_PREC, after the product check and the float guard of the
    module docstring (ConsistencyError), and g exactly 0.0 where count = P-
    (no archimedean place lifted) or count = P^ (every one lifted)."""
    arch = pc.arch
    m_man, m_exp = 1, 0  # M = m_man 2^m_exp
    a_man, a_exp = 1, 0  # A
    tails = fzero
    h = 0  # at scale 2^-DEFAULT_PREC, like rho
    rho = 0
    lifted = 0
    for k in range(arch):
        place = pc.places[k]
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
        if term.tail != fzero:
            tails = mpf_add(tails, term.tail)
        shift = prec - DEFAULT_PREC
        rho += term.rho + _ceil_shift(widen, shift)
        if lift:  # within weight * R and ea's rounding, plus 1 for the floor
            lifted += 1
            weight, (em, ee) = place.weight, term.ea
            h += lift >> shift
            a_man, a_exp = a_man * em**weight, a_exp + weight * ee
            rho += weight * (_ceil_shift(ball.rad, shift) + term.ea_rad) + 1
    p_neg = p_pos = p_up = 1
    for place, o, t in zip(pc.places[arch:], point.ords[arch:], point.ts[arch:]):
        c = o * place.res_degree  # |xi^n - 1|_v = p^-c
        if c < 0:
            h -= c * _prime_log(place.p)
            p_neg *= _prime_power(place.p, -c)
        elif c:
            p_pos *= _prime_power(place.p, c)
        elif t > 0:  # |xi^n|_v = p^(-f t)
            p_up *= _prime_power(place.p, t * place.res_degree)
    _check_product(n, (m_man, m_exp), (a_man, a_exp), count * p_pos, p_neg, rho)
    ratio = from_man_exp(m_man, m_exp)
    if p_pos > 1:
        ratio = mpf_div(ratio, from_int(p_pos), max(m_man.bit_length(), 2 * DEFAULT_PREC))
    g = safe_mpf_log(ratio, DEFAULT_PREC, "n")
    g = to_float(mpf_add(g, tails) if tails != fzero else g)
    if not lifted and count == p_neg or lifted == arch and count == p_up:
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
    return math.sqrt(sum([float(v) ** 2 for v in n]))


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

class PointRecord(NamedTuple):
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
    g = h = 0
    for (pc, mult), point, (count, _) in zip(ps.entries, points, res.per_component):
        if point is not None:
            g_c, h_c = _log_one_minus_phi(pc, n, point, count)
            g += mult * g_c
            h += mult * h_c
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

    norms = [_norm2(rec.n) for rec in records]
    by_shell: dict[int, list[PointRecord]] = {}
    for rec, norm in zip(records, norms):
        by_shell.setdefault(int(math.floor(norm)), []).append(rec)
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
    outer = [r for r, norm in zip(records, norms) if norm >= cut] or records
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

