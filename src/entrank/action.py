"""Action specifications: prime components with multiplicities, parsing,
validation, place data, and the bounded mixing / finite-entropy checks.

A spec is a JSON document:

    {
      "d": 2,
      "noetherian": true,
      "components": [
        {"multiplicity": 1, "char": 0,
         "min_poly": [0, 1],
         "xi": [[2, 1], [3, 1]]},
        {"multiplicity": 1, "char": 2,
         "generators": [{"terms": [{"exp": [0, 0], "coeff": 1},
                                   {"exp": [1, 0], "coeff": 1},
                                   {"exp": [0, 1], "coeff": 1}]}]}
      ]
    }

Rational coordinates are flat [num, den, num, den, ...] pairs in the power
basis of the component's field (a single pair per coordinate when the field
is Q).
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .algebra import factor_int, proven_prime
from .errors import ConsistencyError, MathDomainError, SpecError
from .numberfield import (
    DEFAULT_PREC,
    DyadicBall,
    Element,
    NumberField,
    Place,
    _charpoly_core,
    _integral_norm,
    archimedean_places,
    build_field,
    finite_places_above,
    log_sigma_ball,
    support_mod_p,
    valuations_above,
)

# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Char0Component:
    """A number field K together with d nonzero multiplication parameters."""

    field: NumberField
    xi: tuple[Element, ...]

    @property
    def d(self) -> int:
        return len(self.xi)


@dataclass(frozen=True)
class LaurentPolynomial:
    """Laurent polynomial over F_q: ((exponent vector, coefficient), ...)."""

    terms: tuple[tuple[tuple[int, ...], int], ...]


@dataclass(frozen=True)
class CharPComponent:
    """Quotient of F_q[u_1^+-, ..., u_d^+-] by the ideal the generators span."""

    q: int
    d: int
    generators: tuple[LaurentPolynomial, ...]


PrimeComponent = Char0Component | CharPComponent


@dataclass(frozen=True)
class ActionSpec:
    d: int
    noetherian: bool
    components: tuple[tuple[PrimeComponent, int], ...]  # with multiplicities


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _is_int(v) -> bool:
    """A JSON integer: true and false are not integers here."""
    return type(v) is int


def parse_spec(doc: dict) -> ActionSpec:
    """Validate a spec document; error messages carry the JSON path."""
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    d = doc.get("d")
    if not _is_int(d) or d < 1:
        raise SpecError("d: must be an integer >= 1")
    noetherian = doc.get("noetherian", True)
    if not isinstance(noetherian, bool):
        raise SpecError("noetherian: must be a boolean")
    comps = doc.get("components")
    if not isinstance(comps, list) or not comps:
        raise SpecError("components: must be a non-empty list")
    parsed = []
    for i, comp in enumerate(comps):
        path = f"components[{i}]"
        if not isinstance(comp, dict):
            raise SpecError(f"{path}: must be an object")
        mult = comp.get("multiplicity", 1)
        if not _is_int(mult) or mult < 1:
            raise SpecError(f"{path}.multiplicity: must be an integer >= 1")
        char = comp.get("char")
        if not _is_int(char) or not (char == 0 or char >= 2):
            raise SpecError(f"{path}.char: must be 0 or a prime")
        parse = _parse_char0 if char == 0 else _parse_charp
        parsed.append((parse(comp, d, path), mult))
    return ActionSpec(d=d, noetherian=noetherian, components=tuple(parsed))


def _parse_char0(comp: dict, d: int, path: str) -> Char0Component:
    mp_coeffs = comp.get("min_poly")
    if not isinstance(mp_coeffs, list) or not all(_is_int(c) for c in mp_coeffs):
        raise SpecError(f"{path}.min_poly: must be a list of integers")
    try:
        field = build_field(mp_coeffs)
    except SpecError as e:
        raise SpecError(f"{path}.min_poly: {e}") from None
    xi_raw = comp.get("xi")
    if not isinstance(xi_raw, list) or len(xi_raw) != d:
        raise SpecError(f"{path}.xi: must be a list of {d} coordinate vectors")
    xs = []
    for j, flat in enumerate(xi_raw):
        if (not isinstance(flat, list) or len(flat) != 2 * field.degree
                or not all(_is_int(v) for v in flat)):
            raise SpecError(
                f"{path}.xi[{j}]: expected {2 * field.degree} integers "
                f"([num, den] per power-basis coordinate)")
        coords = []
        for k in range(field.degree):
            num, den = flat[2 * k], flat[2 * k + 1]
            if den == 0:
                raise SpecError(f"{path}.xi[{j}]: zero denominator")
            coords.append(Fraction(num, den))
        el = field.element(coords)
        if el.is_zero():
            raise SpecError(f"{path}.xi[{j}]: coordinate is zero")
        xs.append(el)
    return Char0Component(field=field, xi=tuple(xs))


def _parse_charp(comp: dict, d: int, path: str) -> CharPComponent:
    q = comp["char"]
    if not proven_prime(q):
        raise SpecError(f"{path}.char: {q} is not prime")
    gens_raw = comp.get("generators")
    if not isinstance(gens_raw, list):
        raise SpecError(f"{path}.generators: must be a list")
    gens = []
    for j, g in enumerate(gens_raw):
        gpath = f"{path}.generators[{j}]"
        if not isinstance(g, dict) or not isinstance(g.get("terms"), list):
            raise SpecError(f"{gpath}: must be an object with a 'terms' list")
        seen = {}
        for k, t in enumerate(g["terms"]):
            tpath = f"{gpath}.terms[{k}]"
            if not isinstance(t, dict):
                raise SpecError(f"{tpath}: must be an object")
            exp = t.get("exp")
            if (not isinstance(exp, list) or len(exp) != d
                    or not all(_is_int(e) for e in exp)):
                raise SpecError(f"{tpath}.exp: must be {d} integers")
            coeff = t.get("coeff")
            if not _is_int(coeff):
                raise SpecError(f"{tpath}.coeff: must be an integer")
            c = coeff % q
            key = tuple(exp)
            if key in seen:
                raise SpecError(f"{tpath}.exp: duplicate exponent vector {exp}")
            if c:
                seen[key] = c
        if not seen:
            raise SpecError(f"{gpath}: generator is zero mod {q}")
        gens.append(LaurentPolynomial(terms=tuple(sorted(seen.items()))))
    return CharPComponent(q=q, d=d, generators=tuple(gens))


def parse_spec_json(text: str) -> ActionSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"invalid JSON: {e}") from None
    return parse_spec(doc)


def load_spec(path: str) -> ActionSpec:
    """parse_spec_json of a UTF-8 file; a file that cannot be read is a SpecError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise SpecError(f"cannot read spec {path}: {e}") from None
    return parse_spec_json(text)


# ---------------------------------------------------------------------------
# Places and Lyapunov vectors for char-0 components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlacedComponent:
    """A char-0 component with its support places and one row per place.

    The place set is every archimedean place, in embedding order and first,
    then every finite place where some coordinate of xi has nonzero
    valuation. A finite place's row holds the integers ord_v(xi_i); an
    archimedean place's holds the balls log_sigma_ball(v, xi_i) at scale
    2^-DEFAULT_PREC, so that a point's sum n_i log sigma_v(xi_i) is exact
    in integers. `lyapunov` is the float view of the rows, which sum to
    zero coordinate-wise (product formula).
    """

    component: Char0Component
    places: tuple[Place, ...]
    rows: tuple[tuple[int, ...] | tuple[DyadicBall, ...], ...]

    @property
    def d(self) -> int:
        return self.component.d

    @property
    def arch(self) -> int:
        """The number of archimedean places, which lead places and rows."""
        field = self.component.field
        return field.real_embeddings + field.complex_pairs

    @property
    def lyapunov(self) -> tuple[tuple[float, ...], ...]:
        """l_v = (log |xi_i|_v)_i per place: -ord_v(xi_i) f_v log p at a finite
        place, weight Re log sigma_v(xi_i) from the ball's centre otherwise."""
        out = []
        for place, row in zip(self.places, self.rows):
            if place.kind == "finite":
                logp = math.log(place.p)
                out.append(tuple(-o * place.res_degree * logp for o in row))
            else:
                out.append(tuple(math.ldexp(b.re, place.weight - 1 - DEFAULT_PREC) for b in row))
        return tuple(out)


def _support_primes(field: NumberField, xs) -> list[int]:
    """The primes at which some x in xs may fail to be a unit, ascending.

    x is a unit at every place above p iff p divides no denominator of
    charpoly(x) or of charpoly(1/x) = reversed charpoly(x) / its constant
    term; the norm alone misses a split p whose places carry opposite
    valuations. For x = y/c and charpoly(y) = sum b_j X^j (the cached
    integer core) these are b_j / c^(n-j) and b_j c^j / b_0."""
    n, denominators = field.degree, set()
    for x in xs:
        b, _powers = _charpoly_core(x.num, field.min_poly)
        for j, bj in enumerate(b):
            denominators.add(x.den ** (n - j) // math.gcd(bj, x.den ** (n - j)))
            denominators.add(abs(b[0]) // math.gcd(bj * x.den ** j, b[0]))
    return sorted({p for den in denominators for p in factor_int(den)})


def compute_places(comp: Char0Component) -> PlacedComponent:
    """comp with its support places and one row per place. ConsistencyError
    unless, for every xi_i, |N(xi_i)| is the product of p^(f_v ord_v(xi_i))
    over the placed finite v: the count and g's exact zero read |N(xi^n)|
    off these rows by the product formula."""
    field = comp.field
    places: list[Place] = archimedean_places(field)
    rows: list = [tuple(log_sigma_ball(place, el) for el in comp.xi) for place in places]
    for p in _support_primes(field, comp.xi):
        # only the places where some xi may not be a unit are split off
        support = support_mod_p(field, p, comp.xi)
        columns = [valuations_above(field, p, el, support) for el in comp.xi]
        for place, ords in zip(finite_places_above(field, p, support), zip(*columns)):
            if any(ords):
                places.append(place)
                rows.append(ords)
    for i, el in enumerate(comp.xi):
        # |N(y)| / c^n = prod p^(f_v ord_v(xi_i)), each p^(f_v |ord_v|) moved
        # to the side where it multiplies, so that both sides are integers
        nrm, den = abs(_integral_norm(field.min_poly, el.num)), el.den ** field.degree
        sides = [nrm, den]
        for place, row in zip(places, rows):
            if place.kind == "finite":
                sides[row[i] > 0] *= place.p ** (place.res_degree * abs(row[i]))
        if sides[0] != sides[1]:
            raise ConsistencyError(f"|N(xi[{i}])| = {Fraction(nrm, den)}, but the placed finite "
                                   f"places give {Fraction(sides[1] * nrm, sides[0] * den)}")
    return PlacedComponent(component=comp, places=tuple(places), rows=tuple(rows))


@dataclass(frozen=True)
class PlacedSpec:
    """ActionSpec with every char-0 component placed (char-p kept as is)."""

    spec: ActionSpec
    entries: tuple[tuple[PlacedComponent | CharPComponent, int], ...]

    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def noetherian(self) -> bool:
        return self.spec.noetherian

    def placed_char0(self):
        return [(c, m) for c, m in self.entries if isinstance(c, PlacedComponent)]

    def charp(self):
        return [(c, m) for c, m in self.entries if isinstance(c, CharPComponent)]


def place_spec(spec: ActionSpec) -> PlacedSpec:
    """Each char-0 component with its places; each char-p one as is, its
    decomposition (the cached counting._decomposition) built here in d <= 2."""
    from .counting import _decomposition

    entries: list[tuple[PlacedComponent | CharPComponent, int]] = []
    for comp, mult in spec.components:
        if isinstance(comp, Char0Component):
            comp = compute_places(comp)
        elif comp.d <= 2:
            _decomposition(comp)
        entries.append((comp, mult))
    return PlacedSpec(spec=spec, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Bounded mixing and finite-entropy checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    verified_up_to_radius: float
    violations: tuple[str, ...]


def _check_radius(r: float) -> None:
    if not (r >= 0 and math.isfinite(r * r)):
        raise MathDomainError(f"radius must be a number >= 0 with a finite square, got {r}")


def iter_shell_points(d: int, r_min: float, r_max: float) -> Iterator[tuple[int, ...]]:
    """One representative of each +-n pair, n != 0, with r_min <= |n|_2 <= r_max:
    the one whose first nonzero entry is positive. Yielded in the order
    (unit shell floor(|n|_2), lexicographic), one shell at a time, so that
    taking the first m points visits only the shells they lie in.
    """
    for r in (r_min, r_max):
        _check_radius(r)
    lo, top = max(math.ceil(r_min * r_min), 1), math.floor(r_max * r_max)
    for k in range(math.isqrt(lo), math.isqrt(top) + 1):  # shell k: k^2 <= |n|^2 < (k + 1)^2
        yield from _points_with_square_norm_in(d, max(lo, k * k), min((k + 1) ** 2 - 1, top))


def _points_with_square_norm_in(d: int, a: int, b: int) -> Iterator[tuple[int, ...]]:
    """The representatives n with 1 <= a <= |n|^2 <= b, lexicographically;
    the last entry comes from square roots, not from a search."""
    def extend(prefix: tuple[int, ...], s: int) -> Iterator[tuple[int, ...]]:
        hi = math.isqrt(b - s)  # the bound on |v| the earlier entries leave
        if len(prefix) < d - 1:
            for v in range(-hi if any(prefix) else 0, hi + 1):
                yield from extend(prefix + (v,), s + v * v)
            return
        low = math.isqrt(a - s - 1) + 1 if a > s else 0  # least v >= 0 with s + v^2 >= a
        if not any(prefix):
            values = range(max(low, 1), hi + 1)
        elif low == 0:
            values = range(-hi, hi + 1)
        else:
            values = itertools.chain(range(-hi, 1 - low), range(low, hi + 1))
        for v in values:
            yield prefix + (v,)

    return extend((), 0)


def mixing_check(spec: ActionSpec, radius: float = 8.0) -> CheckReport:
    """Verify xi^n != 1 (char 0) / u^n - 1 not in the ideal (char p) up to a radius.

    This is a bounded verification, not a proof of mixing. In char 0,
    xi^n = 1 forces prod N(xi_i)^n_i = 1, tested in integers on the norms
    of the integral parts (cached where placement's guard read them), so
    only the n that pass this exact test are tried: by the orders
    root_of_unity_order found when n has one nonzero entry, by the exact
    power xi^n otherwise. In char p with d <= 2, a finite submodule of R/I
    of dimension D > 0 is one violation, for no particular n.
    """
    _check_radius(radius)
    violations: list[str] = []
    for idx, (comp, _mult) in enumerate(spec.components):
        if isinstance(comp, Char0Component):
            field = comp.field
            orders = [field.root_of_unity_order(el) for el in comp.xi]
            for j, order in enumerate(orders):
                if order == 1:
                    violations.append(f"components[{idx}]: xi[{j}] = 1")
                elif order is not None:
                    violations.append(
                        f"components[{idx}]: xi[{j}] is a root of unity of order {order}")
            # N(xi_i) = a_i / c_i^degree, a_i = N(y_i); prod N(xi_i)^n_i = 1 cross-multiplied
            norms = [(_integral_norm(field.min_poly, el.num), el.den ** field.degree)
                     for el in comp.xi]
            one = field.one()
            for n in iter_shell_points(spec.d, 0, radius):
                if (math.prod((a if k > 0 else c) ** abs(k) for (a, c), k in zip(norms, n))
                        != math.prod((c if k > 0 else a) ** abs(k) for (a, c), k in zip(norms, n))):
                    continue
                axes = [j for j, k in enumerate(n) if k]
                if len(axes) == 1:
                    order = orders[axes[0]]
                    unity = order is not None and n[axes[0]] % order == 0
                else:
                    unity = field.pow_vector(comp.xi, n) == one
                if unity:
                    violations.append(f"components[{idx}]: xi^{n} = 1")
        else:
            from .counting import charp_membership_violations, finite_quotient_dim

            dim = finite_quotient_dim(comp)
            if dim:
                violations.append(f"components[{idx}]: finite quotient of dimension {dim}: "
                                  "not mixing")
                continue
            for n in charp_membership_violations(comp, radius):
                violations.append(f"components[{idx}]: u^{n} - 1 lies in the ideal")
    return CheckReport(name="mixing", passed=not violations,
                       verified_up_to_radius=radius,
                       violations=tuple(violations))


def entropy_rank_one_check(spec: ActionSpec) -> CheckReport:
    """Necessary finite-entropy checks: char 0 passes by construction, char p
    is probed through the counting engine on a small set of directions."""
    violations: list[str] = []
    probe: list[tuple[int, ...]] = []
    for i in range(spec.d):
        probe.append(tuple(1 if j == i else 0 for j in range(spec.d)))
    probe.append(tuple(1 for _ in range(spec.d)))
    for idx, (comp, _mult) in enumerate(spec.components):
        if isinstance(comp, Char0Component):
            continue
        from .counting import count_prime_charp

        for n in probe:
            try:
                count_prime_charp(comp, n)
            except MathDomainError as e:
                violations.append(f"components[{idx}] at n={n}: {e}")
    return CheckReport(name="entropy-rank-one", passed=not violations,
                       verified_up_to_radius=0.0, violations=tuple(violations))
