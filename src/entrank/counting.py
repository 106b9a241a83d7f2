"""Exact periodic-point counts.

Char-0 prime components: |F| is the product over the support places of
|xi^n - 1|_v. Under the package's normalization the archimedean part equals
|N(xi^n - 1)|, so the whole count is assembled from exact integers: the norm,
taken once, and ord_v(xi^n - 1) at the finite support places, which
char0_point reads once per point for the count and g alike. No floating
point touches the result, and integrality is asserted rather than assumed.

Char-p prime components: |F| = q^dim where dim is the F_q-dimension of
R/(I, u^n - 1), R the Laurent ring and I the ideal of the generators. Every
route is exact, an isomorphism of quotients followed by exact arithmetic
over F_q.

- d <= 2, whatever the number of generators: one exact sequence
  (Lind-Schmidt-Ward 1990; Schmidt 1995, Ch. II; Einsiedler-Lind 2004). Let
  G be the gcd of the generators f_i up to a monomial (a primitive
  pseudo-remainder sequence over F_q[u1][u2]; G = 0 without generators) and
  J = (f_i / G), so I = G J and multiplication by G gives 0 -> R/J -> R/I ->
  R/(G) -> 0. D is the dimension of R/I's largest finite submodule. D > 0
  means alpha is not mixing: a maximal ideal m is then an associated prime
  of R/I, and u^n - 1 lies in m for some n != 0 since R/m is finite. With
  D = 0, I = (G), so u^n - 1 lies in I iff G divides it, read from G's levels.
- d = 2: the f_i / G share no prime factor, so R/J is finite, and R/(G) has
  no finite submodule but 0 (it is Cohen-Macaulay of dimension 1), so
  D = dim R/J: 0 where G = 0 or a cofactor is a unit (J = R, as with one
  generator), else read with the matrices U1, U2 of u1, u2 on R/J from one
  Groebner basis of J. If R/(G, x) is finite for x = u^n - 1, x is a
  non-zero-divisor on R/(G) (below), so the sequence stays exact modulo x
  and dim = dim(R/(G), n) + D - rank(U1^n1 U2^n2 - 1). If it is infinite,
  so is R/(I, x), which maps onto it (always so where G = 0).
- d = 1: R is a PID, so J = R and R/I = R/(G) is finite: D = deg G, and
  dim = deg gcd(G, u^|n| - 1), or |n| with no generators (G = 0).
- The gcd part in d = 2, dim R/(G, u^n - 1), on the edge lines of G's Newton
  polygon (off them it is the width, below): Frobenius scaling first. Over
  F_q (q prime), u^(q^j m) - 1 = (u^m - 1)^(q^j), so with q^j the largest
  power of q dividing gcd(n) the count is taken at m = n / q^j and the
  exponent multiplied by q^j. Let x = u^m - 1; R is a UFD of Krull dimension
  2. If R/(G, x) is finite, gcd(G, x) is a unit, since a common non-unit
  factor h would leave R/(h), of dimension 1, as a quotient; so x is a
  non-zero-divisor on M = R/(G) and each x^i M / x^(i+1) M is M / xM. If
  R/(G, x) is infinite, (G, x^(q^j)) lies in (h) and the count at n is
  infinite too. Neither step holds for a finite quotient: in d = 1, (1 + u)^2
  over F_2 has exponents 1, 2, 2, 2 at n = 1, 2, 4, 8, and the two generators
  1 + u1, 1 + u2 over F_2 give exponent 1 at (1, 0), (2, 0) and (4, 0).

  Then at m (Lind-Schmidt-Ward 1990; Einsiedler-Lind 2004). Coordinates
  w = u^U with U m = (g, 0) turn u^m - 1 into w1^g - 1; write G = sum_b
  C_b(w1) w2^b over its nonzero levels C_b, of w2-span B, each divided by
  its lowest w1 power. U's second row is e = m / g turned a quarter, and
  another first row multiplies C_b by a power of w1, so the levels depend
  on e alone. As q does not divide g, w1^g - 1 is separable, so F_q[w1]/
  (w1^g - 1) is the product of the fields K_P = F_q[w1]/(P) over its
  irreducible factors P, and the quotient the product of the K_P[w2^+-]/
  (G mod P), each of dimension deg P times the span of the levels P does
  not divide, infinite if P divides every level. So dim = g B - drops(m):
  each root of w1^g - 1 on the top level drops the gap to the first level
  it is not a root of, likewise from the bottom, and a root of every level
  makes the count infinite. (The tests' oracle sums the same drops as the
  gcd chains gcd(w1^g - 1, C_b0, ..., C_bj) from each end.)

  Only roots of the end levels drop, so placement builds, per primitive
  direction e of an edge of N(G) (the convex hull of G's exponents), one
  table for e and -e: the distinct roots of the two end levels along e (a
  face polynomial, or a monomial, with none) in blocks of one degree k
  (distinct-degree factorization of their squarefree parts) and one gap
  (gcds with the levels in turn), None for roots of every level. No root
  is 0, and one of degree k has order dividing q^k - 1, so it is a root of
  w1^g - 1 iff of w1^h - 1, h = gcd(g, q^k - 1): a block drops its gap
  times deg gcd(block, w1^h - 1), all of it where w1^h = 1 mod block, with
  no integer factored. On an edge line dim(n) = width(n) - q^j drops(m),
  with no change of coordinates, level or gcd chain. (Splitting blocks into
  irreducibles can cost more than the rest of placement on a face of
  degree 100 over F_5.)

  Off the edge lines it is the polygon's width (Einsiedler-Lind 2004). A
  term u^e of G lies on level s / g, s = n1 e2 - n2 e1. Where one term alone
  takes s_max and one alone s_min, n is parallel to no edge, both end levels
  are monomials, units, so nothing drops: dim = g B = s_max - s_min, read
  from G's terms alone, and linear in n, so it needs no scaling. As drops
  are at least 0 and at most g B, an exponent outside [0, width] is a
  ConsistencyError, and so is a tie at an end of N(G) along no edge.
- d >= 3: a grevlex Groebner basis with auxiliary inverse variables. The
  same engine decides ideal membership for the mixing check there, builds
  J's basis in d = 2, and is the tests' cross-check for the d <= 2 route.

An independent window oracle (the same change of coordinates plus truncated
linear algebra) cross-checks d = 2 counts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .action import (CharPComponent, LaurentPolynomial, PlacedComponent, PlacedSpec,
                     iter_shell_points)
from .algebra import ord_p, ord_proven, rank_mod_q
from .errors import ConsistencyError, MathDomainError, ResourceLimitError
from .groebner import GfMPoly, GroebnerBasis
from .numberfield import Element, valuations_above
from .polyfactor import (GfPoly, gf_distinct_degree, gf_divmod, gf_gcd, gf_monic, gf_mul,
                         gf_pow_mod, gf_squarefree_parts, gf_sub, gf_trim)

COUNT_BITS_CAP = 1 << 20  # q^dim is refused once dim * ceil(log2 q), its bit bound, passes this


class CountResult(NamedTuple):
    """|F(alpha^n)| with provenance: value = prod(count^mult) over components."""

    value: int
    factored: tuple[int, int] | None = None  # (q, exponent) for char-p prime counts
    per_component: tuple[tuple[int, int], ...] = ()  # (component count, multiplicity)
    upper_bound_only: bool = False


def require_nonzero(n, d: int) -> tuple[int, ...]:
    """n as a tuple of d integers, the gate of every lattice-vector entry
    point: counts are defined for n != 0 in Z^d only (MathDomainError)."""
    n = tuple(map(int, n))
    if len(n) != d:
        raise MathDomainError(f"n has {len(n)} entries, component expects {d}")
    if not any(n):
        raise MathDomainError("identity direction: infinitely many fixed points")
    return n


# ---------------------------------------------------------------------------
# Char 0
# ---------------------------------------------------------------------------

class Char0Point(NamedTuple):
    """What a point's count and its g share for one char-0 component."""

    norm: Fraction  # N(xi^n - 1)
    ords: tuple[int | None, ...]  # ord_v(xi^n - 1) per place, None at archimedean ones
    ts: tuple[int | None, ...]  # t = n . ord_v(xi) = ord_v(xi^n) per place, None likewise


def count_prime_char0(pc: PlacedComponent, n) -> CountResult:
    """Exact |F| for a char-0 prime component at lattice vector n."""
    n = require_nonzero(n, pc.d)
    total = _count_char0_at(pc, n, char0_point(pc, n))
    return CountResult(value=total, per_component=((total, 1),))


def char0_point(pc: PlacedComponent, n: tuple[int, ...]) -> Char0Point:
    """N(x), ord_v(x) and t = ord_v(xi^n) at each place of pc (None at
    archimedean ones) for x = xi^n - 1, xi^n formed once. x is xi^n with
    its denominator c subtracted from the constant numerator: gcd(c, a_0 -
    c, a_1, ...) = gcd(c, a_0, a_1, ...) = 1, so x is in lowest terms.

    At a finite place, with t = n . pc.rows[k], ord_v(xi^n) = t, so where
    t != 0 the ultrametric inequality gives ord_v(x) = min(t, 0) outright.
    Where t = 0 the only place above p takes ord_p N(x) / f_v, and at a
    prime with several local blocks one valuations_above pass, under the
    split placement used, serves all of its places. Placement proved every
    p prime, so the orders skip ord_p's gate.

    Guard: the places above p outside the support hold units, where x is
    integral, so sum over support v | p of f_v ord_v(x) <= ord_p N(x), with
    equality when every place above p is in the support (no block is left
    over); ConsistencyError otherwise.
    """
    field = pc.component.field
    xn = field.pow_vector(pc.component.xi, n)
    x = Element((xn.num[0] - xn.den,) + xn.num[1:], xn.den)
    if x.is_zero():
        raise MathDomainError(f"xi^{n} = 1: the action is not mixing in this direction")
    norm = field.norm(x)
    if not norm:
        raise ConsistencyError(f"xi^{n} - 1 is nonzero but has norm 0")
    arch = pc.arch
    ords: list[int | None] = [None] * arch
    ts: list[int | None] = [None] * arch
    passes: dict[int, tuple[int, ...]] = {}  # valuations above p, one pass per prime
    sums: dict[int, tuple[int, int]] = {}  # p -> (sum of f_v ord_v, places left out)
    for place, row in zip(pc.places[arch:], pc.rows[arch:]):
        p, f = place.p, place.res_degree
        t = sum(map(mul, n, row))
        if place.siblings == 1:
            e = ord_proven(norm, p)
            o = min(t, 0) if t else e // f
            _check_share(n, p, f * o, e, 0)
        else:
            if t:
                o = min(t, 0)
            else:
                if p not in passes:
                    passes[p] = valuations_above(field, p, x, place.support)
                o = passes[p][place.index]
            s, left = sums.get(p, (0, place.siblings))
            sums[p] = (s + f * o, left - 1)
        ords.append(o)
        ts.append(t)
    for p, (s, left) in sums.items():
        _check_share(n, p, s, ord_proven(norm, p), left)
    return Char0Point(norm, tuple(ords), tuple(ts))


def _check_share(n: tuple[int, ...], p: int, s: int, e: int, left: int) -> None:
    """char0_point's guard at p: the support's share s of e = ord_p N(xi^n - 1)."""
    if s > e or (s != e and not left):
        raise ConsistencyError(
            f"at n={n} the support places above {p} carry {s} of ord_{p} N(xi^n - 1) = {e}")


def _count_char0_at(pc: PlacedComponent, n: tuple[int, ...], point: Char0Point) -> int:
    """count_prime_char0's value from the char0_point at n: |N(xi^n - 1)|
    times p^(-f_v ord_v(xi^n - 1)) over the finite support places, the
    orders from one rule (char0_point: min(t, 0) where t = n . ord_v(xi) !=
    0, ord_p N / f_v at a sole place, else one valuations_above pass per
    prime). Its per-prime guard already makes each prime's factor an
    integer; the product's integrality is asserted once more here."""
    num, den = abs(point.norm.numerator), point.norm.denominator
    for place, o in zip(pc.places, point.ords):
        if o:
            if o > 0:
                den *= place.p ** (place.res_degree * o)
            else:
                num *= place.p ** (-place.res_degree * o)
    if num % den or num < den:
        raise ConsistencyError(
            f"place product at n={n} is {Fraction(num, den)}, expected a positive integer")
    return num // den


# ---------------------------------------------------------------------------
# Char p, d <= 2: the gcd part
# ---------------------------------------------------------------------------

AxisPoly = dict[tuple[int, int], int]  # (w1 exponent mod g, w2 exponent) -> coefficient
BiPoly = list[GfPoly]  # polynomial in u2, ascending, with coefficients in F_q[u1]
Terms = tuple[tuple[int, int, int], ...]  # (e1, e2, c) per nonzero term of a BiPoly
EdgeTable = tuple[tuple[GfPoly, int, int | None], ...]  # (block, q^k - 1, gap) per block of degree k


def _unimodular_to_axis(n: tuple[int, int]) -> tuple[int, tuple[tuple[int, int], tuple[int, int]]]:
    """U in SL_2(Z) with U n = (gcd, 0)."""
    n1, n2 = n
    g = math.gcd(abs(n1), abs(n2))
    old_r, r = n1, n2
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    # old_r = +-g; normalize to +g
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    u = ((old_s, old_t), (-n2 // g, n1 // g))
    if (old_s * n1 + old_t * n2, u[1][0] * n1 + u[1][1] * n2,
            old_s * u[1][1] - old_t * u[1][0]) != (g, 0, 1):
        raise ConsistencyError(f"U = {u} does not send n = {n} to ({g}, 0) in SL_2(Z)")
    return g, u


def _axis_generators(pc: CharPComponent, n: tuple[int, int]) -> tuple[int, list[AxisPoly]]:
    """(g, generators) of a d = 2 component in the coordinates w = u^U that
    send n to (g, 0).

    There u^n - 1 becomes w1^g - 1, so w1 exponents are reduced mod g and
    w2 exponents shifted to start at 0 (both are multiplications by units
    of the quotient). Generators that vanish after the reduction are dropped.
    """
    g, u = _unimodular_to_axis(n)
    gens_w: list[AxisPoly] = []
    for gen in pc.generators:
        mapped: AxisPoly = {}
        for (e1, e2), c in gen.terms:
            a = u[0][0] * e1 + u[0][1] * e2
            b = u[1][0] * e1 + u[1][1] * e2
            key = (a % g, b)
            mapped[key] = (mapped.get(key, 0) + c) % pc.q
        mapped = {k: v for k, v in mapped.items() if v}
        if not mapped:
            continue
        low = min(j for (_a, j) in mapped)
        gens_w.append({(a, j - low): c for (a, j), c in mapped.items()})
    return g, gens_w


def _w1_levels(terms: Terms, n: tuple[int, int]) -> tuple[int, list[tuple[int, GfPoly]]]:
    """(g, levels): G = sum_b C_b(w1) w2^b in the coordinates w = u^U with
    U n = (g, 0), as the (b, C_b) with C_b != 0 in ascending b, each C_b
    divided by its lowest w1 power (a unit). U is a bijection on exponents,
    so no two terms of G meet."""
    g, ((a1, a2), (b1, b2)) = _unimodular_to_axis(n)
    rows: dict[int, dict[int, int]] = {}
    for e1, e2, c in terms:
        rows.setdefault(b1 * e1 + b2 * e2, {})[a1 * e1 + a2 * e2] = c
    levels = []
    for b, row in sorted(rows.items()):
        low = min(row)
        level = [0] * (max(row) - low + 1)
        for a, c in row.items():
            level[a - low] = c
        levels.append((b, level))
    return g, levels


def _gcd_with_w1_power_minus_one(g: int, c: GfPoly, q: int) -> GfPoly:
    """gcd(w1^g - 1, c), monic, with w1^g taken mod c first: c where that is
    1, and 1 if c is a unit."""
    if len(c) == 1:
        return [1]
    power = gf_pow_mod([0, 1], g, c, q)
    return gf_monic(c, q) if power == [1] else gf_gcd(c, gf_sub(power, [1], q), q)


def _hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The vertices of the convex hull of the points in turn, no three on a
    line (Andrew's monotone chain): two for a segment, none for a point."""
    points, hull = sorted(set(points)), []
    for chain in (points, points[::-1]):
        start = len(hull)
        for (x, y) in chain:
            while len(hull) > start + 1 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                             <= (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])):
                hull.pop()
            hull.append((x, y))
        del hull[-1:]  # each chain's last point starts the other
    return hull


def _edge_tables(terms: Terms, q: int) -> dict[tuple[int, int], EdgeTable]:
    """One EdgeTable per primitive direction e of an edge of N(G), keyed by
    e and -e: the roots of the end levels along e in blocks of one degree k
    and one gap to the first level that lacks them (None: no level does)."""
    hull = _hull([(e1, e2) for e1, e2, _c in terms])
    tables: dict[tuple[int, int], EdgeTable] = {}
    for (a1, a2), (b1, b2) in zip(hull, hull[1:] + hull[:1]):
        k = math.gcd(b1 - a1, b2 - a2)
        e = ((b1 - a1) // k, (b2 - a2) // k)
        if e in tables:
            continue
        _g, levels = _w1_levels(terms, e)
        table = []
        for walk in (levels, levels[::-1]) if len(levels) > 1 else (levels,):
            b0, face = walk[0]
            for part, _mult in gf_squarefree_parts(face, q):  # none for a monomial
                for block, deg in gf_distinct_degree(part, q):
                    for b, c in walk[1:]:  # split off the roots of block that c lacks
                        common = gf_gcd(block, c, q)
                        if len(common) < len(block):
                            table.append((gf_divmod(block, common, q)[0], q**deg - 1, abs(b - b0)))
                            block = common
                    if len(block) > 1:
                        table.append((block, q**deg - 1, None))
        tables[e] = tables[-e[0], -e[1]] = tuple(table)
    return tables


def _edge_drops(table: EdgeTable, g: int, q: int) -> int | None:
    """drops(m) at gcd(m) = g, q not dividing g, from an edge table; None if
    a root of w1^g - 1 lies on every level."""
    drops = 0
    for block, cycle, gap in table:
        roots = len(_gcd_with_w1_power_minus_one(math.gcd(g, cycle), block, q)) - 1
        if roots:
            if gap is None:
                return None
            drops += roots * gap
    return drops


def _bivariate(gen: LaurentPolynomial, q: int) -> BiPoly:
    """A generator (d <= 2) as a polynomial in u2 over F_q[u1], divided by
    its lowest power of each variable, a unit; [] when it is zero mod q."""
    terms = [((e + (0,))[:2], c % q) for e, c in gen.terms if c % q]
    if not terms:
        return []
    low1, low2 = (min(e[i] for e, _c in terms) for i in (0, 1))
    out: BiPoly = [[] for _ in range(max(e2 for (_e1, e2), _c in terms) - low2 + 1)]
    for (e1, e2), c in terms:
        coeff = out[e2 - low2]
        coeff.extend([0] * (e1 - low1 + 1 - len(coeff)))
        coeff[e1 - low1] = c
    return out


def _laurent(f: BiPoly) -> LaurentPolynomial:
    return LaurentPolynomial(terms=tuple(sorted(
        ((a, b), c) for b, coeff in enumerate(f) for a, c in enumerate(coeff) if c)))


def _primitive(f: BiPoly, q: int) -> tuple[GfPoly, BiPoly]:
    """(content, primitive part) of f != 0: the monic gcd of its
    coefficients in F_q[u1], and f divided by it."""
    content: GfPoly = []
    for c in f:
        content = gf_gcd(content, c, q)
    return content, [gf_divmod(c, content, q)[0] for c in f]


def _prem(f: BiPoly, g: BiPoly, q: int) -> BiPoly:
    """lc(g)^k f mod g for some k >= 0, lc(g) the leading u2-coefficient."""
    r, k = list(f), len(g) - 1
    while len(r) > k:
        top = r.pop()
        r = [gf_mul(c, g[-1], q) for c in r]
        for i, c in enumerate(g[:-1]):
            r[len(r) - k + i] = gf_sub(r[len(r) - k + i], gf_mul(top, c, q), q)
        while r and not r[-1]:
            r.pop()
    return r


def _gcd_part(polys: list[BiPoly], q: int) -> BiPoly:
    """G, the gcd of the nonzero polys in F_q[u1][u2] up to a unit ([] if
    there are none), one more poly at a time: the gcd of the two contents
    times the last primitive pseudo-remainder of the two primitive parts, as
    poly_gcd does over Z. One poly is its own G."""
    gcd = polys[0] if polys else []
    for f in polys[1:]:
        (content, gcd), (content_f, h) = _primitive(gcd, q), _primitive(f, q)
        while h:
            r = _prem(gcd, h, q)
            gcd, h = h, (_primitive(r, q)[1] if r else [])
        content = gf_gcd(content, content_f, q)
        gcd = [gf_mul(content, c, q) for c in gcd]
    return gcd


def _divexact(f: BiPoly, g: BiPoly, q: int) -> BiPoly:
    """f / g by Kronecker substitution u2 -> u1^N, N past the u1-degree of
    f and so of every coefficient of g and f / g: no two terms meet."""
    if f == g:
        return [[1]]  # one generator is its own G
    size = max(map(len, f))
    h, rem = gf_divmod(*(gf_trim([c for coeff in p for c in coeff + [0] * (size - len(coeff))])
                         for p in (f, g)), q)
    if rem:
        raise ConsistencyError(f"the gcd {g} does not divide the generator {f}")
    return [gf_trim(h[i:i + size]) for i in range(0, len(h), size)]


# ---------------------------------------------------------------------------
# Char p: Groebner bases (d >= 3, and the finite part R/J in d = 2)
# ---------------------------------------------------------------------------

def _charp_base_generators(pc: CharPComponent) -> tuple[int, list[GfMPoly]]:
    """Polynomial-ring generators in 2d variables: shifted Laurent generators
    plus u_i * t_i - 1 making each u_i invertible."""
    d, q = pc.d, pc.q
    nvars = 2 * d
    gens: list[GfMPoly] = []
    for g in pc.generators:
        shift = [0] * d
        for exp, _c in g.terms:
            for i, e in enumerate(exp):
                shift[i] = max(shift[i], -e)
        poly: GfMPoly = {}
        for exp, c in g.terms:
            mono = tuple(e + s for e, s in zip(exp, shift)) + (0,) * d
            poly[mono] = c % q
        gens.append(poly)
    for i in range(d):
        mono = [0] * nvars
        mono[i] = 1
        mono[d + i] = 1
        gens.append({tuple(mono): 1, (0,) * nvars: q - 1})
    return nvars, gens


def _relation_for(pc: CharPComponent, n: tuple[int, ...]) -> GfMPoly:
    d, q = pc.d, pc.q
    plus = tuple(max(v, 0) for v in n) + (0,) * d
    minus = tuple(max(-v, 0) for v in n) + (0,) * d
    return {plus: 1, minus: q - 1}


def _groebner_dim(pc: CharPComponent, n: tuple[int, ...]) -> int | None:
    nvars, gens = _charp_base_generators(pc)
    gens.append(_relation_for(pc, n))
    return GroebnerBasis(pc.q, nvars, gens).standard_monomial_count()


Matrix = tuple[tuple[int, ...], ...]


class Decomposition(NamedTuple):
    """I = G J for a component in d <= 2 (the module docstring has the
    sequence), with G's terms listed once for the width, levels, membership
    and edge tables."""

    gcd: BiPoly  # G, [] when G = 0
    terms: Terms  # G's terms (e1, e2, c), e2 = 0 in d = 1; () when G = 0
    dim: int  # D, the dimension of R/I's largest finite submodule: R/J in d = 2, R/(G) in d = 1
    units: tuple[Matrix, ...]  # u1, u2, 1/u1, 1/u2 on R/J; () where no basis is built
    edges: dict[tuple[int, int], EdgeTable]  # _edge_tables in d = 2; {} in d = 1


@functools.lru_cache(maxsize=256)
def _decomposition(pc: CharPComponent) -> Decomposition:
    """G, its edge tables, and R/J from one Groebner basis of the cofactors
    f_i / G: its standard monomials are a basis, and one normal form per
    monomial and variable (u1, u2 and their inverses t1, t2) gives the
    matrices. No basis is built in d = 1, where G = 0, or where a cofactor
    is a unit (J = R). Placement builds it (action.place_spec)."""
    q = pc.q
    polys = [f for f in (_bivariate(gen, q) for gen in pc.generators) if f]
    gcd = _gcd_part(polys, q)
    terms = tuple((e1, e2, c) for e2, coeff in enumerate(gcd) for e1, c in enumerate(coeff) if c)
    if pc.d == 1:  # R is a PID: J = R, and R/(G) is finite of dimension deg G
        return Decomposition(gcd, terms, len(gcd[0]) - 1 if gcd else 0, (), {})
    edges = _edge_tables(terms, q)
    cofactors = [_divexact(f, gcd, q) for f in polys]
    if not gcd or any(len(h) == 1 and len(h[0]) == 1 for h in cofactors):
        return Decomposition(gcd, terms, 0, (), edges)
    gb = GroebnerBasis(q, *_charp_base_generators(
        CharPComponent(q=q, d=2, generators=tuple(map(_laurent, cofactors)))))
    monos = gb.standard_monomials()
    if monos is None:
        raise ConsistencyError(f"the cofactors {cofactors} share a factor")
    index = {m: i for i, m in enumerate(monos)}
    units = [[[0] * len(monos) for _ in monos] for _v in range(4)]
    for v, mat in enumerate(units):
        for j, m in enumerate(monos):
            for mono, c in gb.normal_form({m[:v] + (m[v] + 1,) + m[v + 1:]: 1}).items():
                mat[index[mono]][j] = c
    return Decomposition(gcd, terms, len(monos), tuple(tuple(map(tuple, mat)) for mat in units),
                         edges)


def _mat_mul(a: Matrix, b: Matrix, q: int) -> Matrix:
    cols = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % q for col in cols) for row in a)


def _finite_part_dim(dec: Decomposition, n: tuple[int, int], q: int) -> int:
    """dim R/(J, u^n - 1) = D - rank(U1^n1 U2^n2 - 1), at n itself."""
    power = None
    for v, e in enumerate(n):
        base = dec.units[v if e > 0 else v + 2]
        e = abs(e)
        while e:
            if e & 1:
                power = base if power is None else _mat_mul(power, base, q)
            e >>= 1
            if e:
                base = _mat_mul(base, base, q)
    rows = [[(c - (i == j)) % q for j, c in enumerate(row)] for i, row in enumerate(power)]
    return dec.dim - rank_mod_q(rows, q)


def _gcd_part_dim(dec: Decomposition, q: int, n: tuple[int, int]) -> int | None:
    """dim R/(G, u^n - 1) in d = 2 for G != 0, or None when infinite: the
    width s_max - s_min of G's Newton polygon across n, less on its edge
    lines q^j drops(m) for n = q^j m, m q-free, from the table of n's
    direction; ConsistencyError for no such table or a dim outside [0, width]."""
    n1, n2 = n
    s = sorted([n1 * e2 - n2 * e1 for e1, e2, _c in dec.terms])
    width = s[-1] - s[0]
    if len(s) == 1 or (s[0] < s[1] and s[-2] < s[-1]):
        return width
    g = math.gcd(n1, n2)
    table = dec.edges.get((n1 // g, n2 // g))
    if table is None:
        raise ConsistencyError(f"at n={n} G's terms tie at an end of its Newton polygon, "
                               "but no edge of it runs along n")
    scale = 1
    while not g % q:
        g, scale = g // q, scale * q
    drops = _edge_drops(table, g, q)
    if drops is not None and not 0 <= scale * drops <= width:
        raise ConsistencyError(
            f"at n={n} the edge table gives {width - scale * drops}, outside [0, {width}]")
    return None if drops is None else width - scale * drops


def finite_quotient_dim(pc: CharPComponent) -> int:
    """D, the dimension of R/I's largest finite submodule (R/J in d = 2, all
    of R/(G) in d = 1), where D > 0 means not mixing; 0 in d >= 3, where no
    decomposition is built."""
    return _decomposition(pc).dim if pc.d <= 2 else 0


def count_prime_charp(pc: CharPComponent, n) -> CountResult:
    """|F| = q^dim for a char-p prime component; errors if the count is infinite.

    In d <= 2, from the one decomposition I = G J that placement builds (the
    module docstring has the proofs). In d = 2, dim = dim(R/(G), n) + D -
    rank(U1^n1 U2^n2 - 1) where R/(G, u^n - 1) is finite, and infinite
    elsewhere: the gcd part as the width of G's Newton polygon across n,
    less on its edge lines q^j drops(m) for n = q^j m from the edge table of
    n's direction, and the finite part, when D > 0, at n itself, where that
    scaling fails. In d = 1, dim = deg gcd(G, u^|n| - 1), or |n| when G = 0.
    In d >= 3, a Groebner basis. Past COUNT_BITS_CAP, ResourceLimitError.
    """
    n = require_nonzero(n, pc.d)
    if pc.d > 2:
        dim = _groebner_dim(pc, n)
    elif pc.d == 1:
        g, gcd = abs(n[0]), _decomposition(pc).gcd
        dim = len(_gcd_with_w1_power_minus_one(g, gcd[0], pc.q)) - 1 if gcd else g
    else:
        dec = _decomposition(pc)
        dim = _gcd_part_dim(dec, pc.q, n) if dec.terms else None
        if dim is not None and dec.dim:
            dim += _finite_part_dim(dec, n, pc.q)
    if dim is None:
        raise MathDomainError(
            f"count at n={n} is infinite (quotient not zero-dimensional); "
            "the component violates entropy rank one in this direction")
    if dim * (pc.q - 1).bit_length() > COUNT_BITS_CAP:
        raise ResourceLimitError(f"count at n={n} is {pc.q}^{dim}, past the cap of "
                                 f"{COUNT_BITS_CAP} bits")
    value = pc.q**dim
    return CountResult(value=value, factored=(pc.q, dim), per_component=((value, 1),))


def charp_membership_violations(pc: CharPComponent, radius: float):
    """Lattice vectors 0 < |n| <= radius with u^n - 1 inside the ideal I.

    In d <= 2, I = (G) unless D > 0 (MathDomainError), so u^n - 1 lies in I
    iff G != 0 divides it, as G's levels show (_divides_relation; in d = 1,
    G and u^n - 1 are polynomials in u1 alone). In d >= 3, a Groebner normal
    form at every point.
    """
    points = iter_shell_points(pc.d, 0, radius)
    if pc.d > 2:
        nvars, gens = _charp_base_generators(pc)
        gb = GroebnerBasis(pc.q, nvars, gens)
        return [n for n in points if not gb.normal_form(_relation_for(pc, n))]
    if dim := finite_quotient_dim(pc):
        raise MathDomainError(f"finite quotient of dimension {dim}: not mixing")
    terms = _decomposition(pc).terms
    return [n for n in points if terms and _divides_relation(terms, pc.q, (n + (0,))[:2])]


def _divides_relation(terms: Terms, q: int, n: tuple[int, int]) -> bool:
    """u^n - 1 in (G) for a polynomial G != 0 in u1 and u2.

    In the coordinates w = u^U with U n = (g, 0), u^n - 1 is w1^g - 1. A
    divisor of a w1-only polynomial in the Laurent ring, a UFD whose units
    are the monomials, is w1-only up to a unit. So G divides it iff G has
    exactly one level C (_w1_levels) and gcd(w1^g - 1, C) = C. A term u^e
    lies on level s / gcd(n), s = n1 e2 - n2 e1 as in the count's width, so
    a point is rejected on its terms' s before any level is built.
    """
    n1, n2 = n
    if len({n1 * e2 - n2 * e1 for e1, e2, _c in terms}) > 1:
        return False
    g, ((_b, c),) = _w1_levels(terms, n)
    return len(_gcd_with_w1_power_minus_one(g, c, q)) == len(c)


# ---------------------------------------------------------------------------
# Closed form for the standard zero-dimensional example
# ---------------------------------------------------------------------------

def ledrappier_axis_closed_form(n: int) -> CountResult:
    """2^(n - 2^ord_2(n)): the axis count for the ideal <2, 1 + u1 + u2>."""
    if n <= 0:
        raise MathDomainError("the closed form needs n >= 1")
    e = n - 2 ** ord_p(n, 2)
    return CountResult(value=2**e, factored=(2, e), per_component=((2**e, 1),))


# ---------------------------------------------------------------------------
# Composite counts
# ---------------------------------------------------------------------------

def count_composite(ps: PlacedSpec, n) -> CountResult:
    """Product of component counts raised to their multiplicities.

    For non-Noetherian specs the product is only an upper bound for the true
    count, and the result says so.
    """
    n = require_nonzero(n, ps.d)
    return count_at_points(ps, n, char0_points(ps, n))


def char0_points(ps: PlacedSpec, n: tuple[int, ...]) -> list[Char0Point | None]:
    """char0_point(pc, n) for each char-0 entry of ps, None for each char-p
    entry: the per-point data that a point's count and its g share."""
    return [char0_point(c, n) if isinstance(c, PlacedComponent) else None
            for c, _m in ps.entries]


def count_at_points(ps: PlacedSpec, n: tuple[int, ...], points: list) -> CountResult:
    """count_composite at a nonzero n from char0_points(ps, n)."""
    per = []
    value = 1
    factored = None
    for (comp, mult), point in zip(ps.entries, points):
        if point is not None:
            count = _count_char0_at(comp, n, point)
        else:
            res = count_prime_charp(comp, n)
            count = res.value
            if len(ps.entries) == 1:
                q, e = res.factored
                factored = (q, e * mult)
        per.append((count, mult))
        value *= count**mult
    return CountResult(value=value, factored=factored, per_component=tuple(per),
                       upper_bound_only=not ps.noetherian)


# ---------------------------------------------------------------------------
# Window oracle (independent cross-check for char-p counts, d = 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowOracle:
    """Result of the truncated-window dimension computation."""

    dims: tuple[tuple[int, int], ...]  # (window, dimension) pairs
    stabilized: bool
    count: CountResult | None


def _relation_rows(q: int, g: int, gens_w: list[dict[tuple[int, int], int]],
                   t_big: int) -> list[list[int]]:
    """All shifts w1^alpha w2^m * gen whose support stays in degrees [-t_big, t_big]."""
    ncols = g * (2 * t_big + 1)

    def col(a: int, j: int) -> int:
        return (a % g) + g * (j + t_big)

    rows: list[list[int]] = []
    for poly in gens_w:
        deg = max(j for (_a, j) in poly)
        for alpha in range(g):
            for m in range(-t_big, t_big - deg + 1):
                row = [0] * ncols
                for (a, j), c in poly.items():
                    idx = col(a + alpha, j + m)
                    row[idx] = (row[idx] + c) % q
                rows.append(row)
    return rows


def _band_image_dim(q: int, g: int, gens_w: list[dict[tuple[int, int], int]],
                    t_band: int, t_big: int) -> int:
    """Dimension of the image of the band {w1^a w2^j : |j| <= t_band} in the
    quotient of the big window by all in-window generator shifts."""
    rows = _relation_rows(q, g, gens_w, t_big)
    base = rank_mod_q([r[:] for r in rows], q)
    ncols = g * (2 * t_big + 1)
    for a in range(g):
        for j in range(-t_band, t_band + 1):
            row = [0] * ncols
            row[(a % g) + g * (j + t_big)] = 1
            rows.append(row)
    return rank_mod_q(rows, q) - base


def charp_window_oracle(pc: CharPComponent, n, window: int = 8) -> WindowOracle:
    """Independent count via a unimodular change of coordinates sending n to
    (g, 0) and truncated linear algebra over F_q[w1]/(w1^g - 1).

    The reported dimension is the rank of the middle band of w2-degrees
    inside the quotient of a larger window by all generator shifts; this is
    monotone from above in the window size, so agreement across three window
    sizes plus saturation of the band is the stabilization signal. A
    non-stabilized result is inconclusive, not an error.
    """
    n = require_nonzero(n, pc.d)
    if pc.d != 2:
        raise MathDomainError("the window oracle is implemented for d = 2 only")
    g, gens_w = _axis_generators(pc, n)
    max_deg = max((max(j for (_a, j) in poly) for poly in gens_w), default=0)
    t_band = max(window, max_deg)
    dims = []
    for t_big in (2 * t_band, 2 * t_band + 1, 2 * t_band + 2):
        dims.append((t_big, _band_image_dim(pc.q, g, gens_w, t_band, t_big)))
    t_last = dims[-1][0]
    saturated = (_band_image_dim(pc.q, g, gens_w, t_band + 1, t_last) == dims[-1][1])
    stabilized = saturated and dims[0][1] == dims[1][1] == dims[2][1]
    count = None
    if stabilized:
        e = dims[0][1]
        count = CountResult(value=pc.q**e, factored=(pc.q, e),
                            per_component=((pc.q**e, 1),))
    return WindowOracle(dims=tuple(dims), stabilized=stabilized, count=count)
