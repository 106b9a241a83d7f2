"""Buchberger engine over F_q (q prime) with graded reverse-lex order.

Polynomials are dicts mapping exponent tuples to nonzero coefficients in
[1, q). Only what zero-dimensional quotient counting needs is implemented:
a minimal Groebner basis, normal forms, and standard-monomial enumeration.
"""

from __future__ import annotations

import heapq
import itertools
import math

from .errors import ResourceLimitError

Mono = tuple[int, ...]
GfMPoly = dict[Mono, int]

MAX_BASIS = 4000  # basis elements
MAX_REDUCTIONS = 200_000  # reduction steps of one normal form
CELL_CAP = 4_000_000  # cells of the standard-monomial box


def grevlex_key(m: Mono):
    return (sum(m), tuple(-e for e in reversed(m)))


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_quo(a: Mono, b: Mono) -> Mono:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def leading_monomial(f: GfMPoly) -> Mono:
    return max(f, key=grevlex_key)


def poly_add_scaled(f: GfMPoly, g: GfMPoly, c: int, shift: Mono, q: int) -> None:
    """In place: f += c * x^shift * g."""
    for m, a in g.items():
        mm = mono_mul(m, shift)
        v = (f.get(mm, 0) + c * a) % q
        if v:
            f[mm] = v
        else:
            f.pop(mm, None)


def make_monic(f: GfMPoly, q: int) -> GfMPoly:
    lc = f[leading_monomial(f)]
    if lc == 1:
        return f
    inv = pow(lc, -1, q)
    return {m: c * inv % q for m, c in f.items()}


class GroebnerBasis:
    """Minimal Groebner basis of an ideal in F_q[x_1..x_n], grevlex."""

    def __init__(self, q: int, nvars: int, generators: list[GfMPoly]):
        self.q = q
        self.nvars = nvars
        self._reductions = 0
        self.basis: list[GfMPoly] = []
        self.lms: list[Mono] = []
        self._compute([dict(g) for g in generators if g])

    # -- reduction ---------------------------------------------------------

    def normal_form(self, f: GfMPoly) -> GfMPoly:
        """Normal form of f, within a budget of MAX_REDUCTIONS steps of its own."""
        self._reductions = 0
        return self._reduce(f)

    def _reduce(self, f: GfMPoly) -> GfMPoly:
        """Normal form of f; every step is charged to self._reductions."""
        q = self.q
        work = dict(f)
        out: GfMPoly = {}
        while work:
            self._reductions += 1
            if self._reductions > MAX_REDUCTIONS:
                raise ResourceLimitError("Groebner reduction budget exceeded")
            m = leading_monomial(work)
            c = work[m]
            for lm, g in zip(self.lms, self.basis):
                if mono_divides(lm, m):
                    factor = (-c) * pow(g[lm], -1, q) % q
                    poly_add_scaled(work, g, factor, mono_quo(m, lm), q)
                    break
            else:
                out[m] = c
                del work[m]
        return out

    # -- Buchberger --------------------------------------------------------

    def _add_to_basis(self, f: GfMPoly, heap: list) -> None:
        f = make_monic(f, self.q)
        lm = leading_monomial(f)
        j = len(self.basis)
        self.basis.append(f)
        self.lms.append(lm)
        if len(self.basis) > MAX_BASIS:
            raise ResourceLimitError("Groebner basis size cap exceeded")
        for i in range(j):
            lcm = mono_lcm(self.lms[i], lm)
            heapq.heappush(heap, (grevlex_key(lcm), i, j, lcm))

    def _compute(self, gens: list[GfMPoly]) -> None:
        heap: list = []
        for g in sorted(gens, key=lambda h: grevlex_key(leading_monomial(h))):
            g = self._reduce(g)
            if g:
                self._add_to_basis(g, heap)
        while heap and any(self.lms[-1]):  # once 1 is in, the ideal is the ring
            _, i, j, lcm = heapq.heappop(heap)
            if mono_mul(self.lms[i], self.lms[j]) == lcm:
                continue  # coprime leading terms: S-poly reduces to zero
            if self._chain_criterion(i, j, lcm):
                continue
            s = self._s_poly(i, j, lcm)
            s = self._reduce(s)
            if s:
                self._add_to_basis(s, heap)
        self._minimize()

    def _chain_criterion(self, i: int, j: int, lcm: Mono) -> bool:
        for k in range(len(self.basis)):
            if k in (i, j):
                continue
            if mono_divides(self.lms[k], lcm):
                lik = mono_lcm(self.lms[i], self.lms[k])
                ljk = mono_lcm(self.lms[j], self.lms[k])
                if grevlex_key(lik) < grevlex_key(lcm) and grevlex_key(ljk) < grevlex_key(lcm):
                    return True
        return False

    def _s_poly(self, i: int, j: int, lcm: Mono) -> GfMPoly:
        q = self.q
        out: GfMPoly = {}
        poly_add_scaled(out, self.basis[i], 1, mono_quo(lcm, self.lms[i]), q)
        poly_add_scaled(out, self.basis[j], q - 1, mono_quo(lcm, self.lms[j]), q)
        return out

    def _minimize(self) -> None:
        order = sorted(range(len(self.basis)), key=lambda i: grevlex_key(self.lms[i]))
        keep: list[int] = []
        for i in order:
            if not any(mono_divides(self.lms[k], self.lms[i]) for k in keep):
                keep.append(i)
        self.basis = [self.basis[i] for i in keep]
        self.lms = [self.lms[i] for i in keep]

    # -- quotient dimension ------------------------------------------------

    def standard_monomials(self) -> list[Mono] | None:
        """The monomials outside the leading-term ideal, an F_q-basis of the
        quotient, in lexicographic order; None if not zero-dimensional. The
        basis is minimal: 1 alone where the ideal is the ring, and at most one
        pure power of each variable, which bounds that variable's degree."""
        if (0,) * self.nvars in self.lms:
            return []
        bounds = [0] * self.nvars
        for lm in self.lms:
            support = [i for i, e in enumerate(lm) if e]
            if len(support) == 1:
                bounds[support[0]] = lm[support[0]]
        if not all(bounds):
            return None
        if (cells := math.prod(bounds)) > CELL_CAP:
            raise ResourceLimitError(f"standard monomial box has {cells} cells")
        return [mono for mono in itertools.product(*map(range, bounds))
                if not any(mono_divides(lm, mono) for lm in self.lms)]

    def standard_monomial_count(self) -> int | None:
        """Dimension of the quotient as an F_q-space; None if not zero-dimensional."""
        return None if (monos := self.standard_monomials()) is None else len(monos)
