"""Command-line surface.

Subcommands: count, table, scan, extrema, nonexpansive, mahler, oracle,
validate. Exit codes: 0 success, 1 usage, 2 mathematical or spec domain
error, 3 resource or budget limit, 4 internal-consistency failure, 141
(128 + SIGPIPE, with nothing on stderr) when the reader closes stdout early.
`main` prints every error the commands raise, as one stderr line; only
usage errors are printed where found (the parser, `table`'s range check).

Output is deterministic: fixed iteration orders and floats printed with 12
significant digits; counts print in full, however many digits they have.
h is even, so `extrema` prints each direction as the one of +-x whose first
nonzero coordinate is positive.
`table --format csv` prints its header, then each line as its count
finishes; if a count fails, the lines printed stay and the exit code is the
error's. The ascii table needs every count for its widths, so it prints
nothing until all have finished.
Scans honor the ENTRANK_WORKERS environment variable (unset or empty: one
process; anything but an integer >= 1 exits 2). Larger values are capped at
the CPU count, so a scan never starts more worker processes than CPUs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .action import (Char0Component, CharPComponent, entropy_rank_one_check, load_spec,
                     mixing_check, place_spec)
from .counting import (
    charp_window_oracle,
    count_composite,
    ledrappier_axis_closed_form,
)
from .entropy import (
    entropy_function_of,
    mahler_measure,
    nonexpansive_candidates,
    sphere_extrema,
)
from .errors import (
    ConsistencyError,
    MathDomainError,
    ResourceLimitError,
    SpecError,
    UnsupportedPrimeError,
)
from .scan import shell_scan, write_records_csv

TABLE_CELL_CAP = 20_000


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _parse_vector(text: str, d: int) -> tuple[int, ...]:
    try:
        parts = tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise SpecError(f"could not parse lattice vector {text!r}") from None
    if len(parts) != d:
        raise SpecError(f"vector {text!r} has {len(parts)} entries, spec has d={d}")
    return parts


def _parse_range(text: str) -> list[tuple[int, int]]:
    out = []
    for axis in text.split(","):
        lo_s, _, hi_s = axis.partition(":")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise SpecError(f"bad range component {axis!r}") from None
        if hi < lo:
            raise SpecError(f"empty range {axis!r}")
        out.append((lo, hi))
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_count(args) -> int:
    spec = load_spec(args.spec)
    ps = place_spec(spec)
    res = count_composite(ps, _parse_vector(args.n, spec.d))
    print(res.value)
    for i, (c, m) in enumerate(res.per_component):
        print(f"component {i}: {c} (multiplicity {m})")
    print("upper bound (module not Noetherian)" if res.upper_bound_only
          else "exact (Noetherian)")
    return 0


def cmd_table(args) -> int:
    spec = load_spec(args.spec)
    ps = place_spec(spec)
    ranges = _parse_range(args.range)
    if len(ranges) != spec.d or spec.d not in (1, 2):
        print("error: table needs a d-dimensional range and d in {1, 2}", file=sys.stderr)
        return 1
    if spec.d == 1:
        ranges = [ranges[0], (0, 0)]
    (a, b), (c, d_hi) = ranges
    cells = (b - a + 1) * (d_hi - c + 1)
    if cells > TABLE_CELL_CAP:
        raise ResourceLimitError(f"range has {cells} cells, cap is {TABLE_CELL_CAP}")

    def count_at(n1: int, n2: int) -> int | None:
        n = (n1,) if spec.d == 1 else (n1, n2)
        return None if all(v == 0 for v in n) else count_composite(ps, n).value

    rows = range(d_hi, c - 1, -1)
    if args.format == "csv":  # needs no widths: stream
        print(",".join(["n1", "n2", "count"][: spec.d + 1]), flush=True)
        for n2 in rows:
            for n1 in range(a, b + 1):
                val = count_at(n1, n2)
                cols = [str(n1)] if spec.d == 1 else [str(n1), str(n2)]
                print(",".join(cols + ["inf" if val is None else str(val)]), flush=True)
        return 0
    text = [["∞" if v is None else str(v) for v in (count_at(n1, n2) for n1 in range(a, b + 1))]
            for n2 in rows]
    widths = [max(len(row[j]) for row in text) for j in range(len(text[0]))]
    for row in text:
        print(" ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return 0


def cmd_scan(args) -> int:
    spec = load_spec(args.spec)
    ps = place_spec(spec)
    report = shell_scan(ps, args.rmin, args.rmax, budget=args.budget)
    print(f"points {len(report.records)}  shells {len(report.shells)}"
          + ("  [partial: budget hit]" if report.partial else ""))
    if report.has_charp:
        print("note: spec has char-p components; h_hat and g cover the char-0 part of f")
    for s in report.shells:
        print(f"shell [{_fmt(s.lo)},{_fmt(s.hi)}): points {s.points}  "
              f"f in [{_fmt(s.f_min)},{_fmt(s.f_max)}]  max|g| {_fmt(s.g_abs_max)}")
    print(f"C1_estimate {_fmt(report.c1_estimate)} at {report.argmax_f}  "
          f"(trimmed {_fmt(report.c1_trimmed)})")
    print(f"C2_estimate {_fmt(report.c2_estimate)} at {report.argmin_f}  "
          f"(trimmed {_fmt(report.c2_trimmed)})")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                write_records_csv(report.records, fh, spec.d)
        except OSError as e:
            raise SpecError(f"cannot write {args.out}: {e}") from None
        print(f"wrote {args.out}")
    return 3 if report.partial else 0


def cmd_extrema(args) -> int:
    spec = load_spec(args.spec)
    ps = place_spec(spec)
    ef = entropy_function_of(ps)
    if not ef.terms:
        print("not available: no char-0 components, so no computed places")
        return 0
    ex = sphere_extrema(ef)
    for name, value, x in (("max", ex.max_value, ex.argmax), ("min", ex.min_value, ex.argmin)):
        print(f"{name} {_fmt(value)} at ({', '.join(_fmt(v) for v in _first_positive(x))})")
    print(f"method {ex.method}; theoretical C1 = max; sphere min is the "
          "C2 candidate (empirical liminf direction)")
    return 0


def _first_positive(x: tuple[float, ...]) -> tuple[float, ...]:
    """x or -x, whichever has a positive first nonzero entry: each component's
    Lyapunov rows sum to zero (product formula), so h(x) = h(-x), and which of
    the two sphere_extrema returns is up to the rounding of the float rows."""
    if next((v for v in x if v), 0.0) >= 0:
        return x
    return tuple(0.0 - v for v in x)


def cmd_nonexpansive(args) -> int:
    spec = load_spec(args.spec)
    ps = place_spec(spec)
    ef = entropy_function_of(ps)
    if not ef.terms:
        print("not available: component(s) carry no computed places (char p)")
        return 0
    if spec.d < 2:
        print("none: d = 1 has no candidate hyperplanes")
        return 0
    for hp in nonexpansive_candidates(ef):
        print(f"candidate: {hp.describe()}")
    print("candidates only: breakpoint hyperplanes of the entropy function")
    return 0


def cmd_mahler(args) -> int:
    try:
        coeffs = [int(c.strip()) for c in args.poly.split(",")]
    except ValueError:
        raise SpecError(f"could not parse polynomial coefficients {args.poly!r}") from None
    mm = mahler_measure(coeffs)
    print(f"{_fmt(mm.value)} (error bound {_fmt(mm.error_bound)})")
    return 0


def cmd_oracle(args) -> int:
    if args.which == "ledrappier":
        res = ledrappier_axis_closed_form(int(args.n))
        print(res.value)
        q, e = res.factored
        print(f"= {q}^{e}")
        return 0
    spec = load_spec(args.spec)
    charp = [c for c, _m in spec.components if isinstance(c, CharPComponent)]
    if not charp:
        raise MathDomainError("window oracle needs a char-p component")
    n = _parse_vector(args.n, spec.d)
    w = charp_window_oracle(charp[0], n, window=args.window)
    for t, dim in w.dims:
        print(f"window {t}: dim {dim}")
    if w.stabilized:
        print(f"stabilized: count {w.count.value}")
        return 0
    print("not stabilized: inconclusive (raise --window)")
    return 0


def cmd_validate(args) -> int:
    spec = load_spec(args.spec)
    ps = place_spec(spec)
    print(f"d = {spec.d}, components = {len(spec.components)}, "
          f"noetherian = {str(spec.noetherian).lower()}")
    for i, ((comp, mult), (pc, _m)) in enumerate(zip(spec.components, ps.entries)):
        if isinstance(comp, Char0Component):
            print(f"component {i}: char 0, degree {comp.field.degree}, "
                  f"multiplicity {mult}, places {len(pc.places)}")
            for place, l in zip(pc.places, pc.lyapunov):
                print(f"  {place.label()}  l = ({', '.join(_fmt(v) for v in l)})")
        else:
            print(f"component {i}: char {comp.q}, multiplicity {mult}, "
                  f"generators {len(comp.generators)}")
    if not spec.noetherian:
        print("warning: non-Noetherian flag set; composite counts are upper "
              "bounds only (proper submodules of the rationals can realize "
              "strictly smaller counts, down to a single fixed point)")
    ok = True
    for rep in (mixing_check(spec, radius=args.radius), entropy_rank_one_check(spec)):
        status = "pass" if rep.passed else "FAIL"
        print(f"{rep.name}: {status}"
              + (f" (checked radius {_fmt(rep.verified_up_to_radius)})"
                 if rep.name == "mixing" else ""))
        for v in rep.violations:
            print(f"  violation: {v}")
        ok = ok and rep.passed
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="entrank",
                description="Exact periodic-point counts and directional "
                            "entropy for rank-one algebraic Z^d-actions")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="exact |F(alpha^n)| at one lattice vector")
    c.add_argument("--spec", required=True)
    c.add_argument("--n", required=True, help='lattice vector, e.g. "1,1"')
    c.set_defaults(func=cmd_count)

    t = sub.add_parser("table", help="grid of counts over a rectangle")
    t.add_argument("--spec", required=True)
    t.add_argument("--range", required=True, help='e.g. "-5:5,0:5"')
    t.add_argument("--format", choices=("ascii", "csv"), default="ascii")
    t.set_defaults(func=cmd_table)

    s = sub.add_parser("scan", help="annulus scan with C1/C2 estimates")
    s.add_argument("--spec", required=True)
    s.add_argument("--rmin", type=float, required=True)
    s.add_argument("--rmax", type=float, required=True)
    s.add_argument("--out", help="CSV output path")
    s.add_argument("--budget", type=int, default=1_000_000)
    s.set_defaults(func=cmd_scan)

    e = sub.add_parser("extrema", help="entropy extrema on the unit sphere")
    e.add_argument("--spec", required=True)
    e.set_defaults(func=cmd_extrema)

    ne = sub.add_parser("nonexpansive", help="candidate non-expansive hyperplanes")
    ne.add_argument("--spec", required=True)
    ne.set_defaults(func=cmd_nonexpansive)

    m = sub.add_parser("mahler", help="logarithmic Mahler measure of an integer polynomial")
    m.add_argument("--poly", required=True, help="ascending coefficients, comma separated")
    m.set_defaults(func=cmd_mahler)

    o = sub.add_parser("oracle", help="independent counting oracles")
    osub = o.add_subparsers(dest="which", required=True)
    ol = osub.add_parser("ledrappier", help="axis closed form 2^(n - 2^ord2(n))")
    ol.add_argument("--n", required=True, type=int)
    ol.set_defaults(func=cmd_oracle)
    ow = osub.add_parser("window", help="window oracle for char-p components")
    ow.add_argument("--spec", required=True)
    ow.add_argument("--n", required=True)
    ow.add_argument("--window", type=int, default=8)
    ow.set_defaults(func=cmd_oracle)

    v = sub.add_parser("validate", help="parse, place, and run bounded checks")
    v.add_argument("--spec", required=True)
    v.add_argument("--radius", type=float, default=8.0)
    v.set_defaults(func=cmd_validate)
    return p


_VALUE_FLAGS = ("--n", "--range", "--poly")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join value flags with their argument so leading '-' values parse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # counts are exact: print every digit
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        rc = args.func(args)
        print(end="", flush=True)  # a closed pipe raises here, not at interpreter exit
        return rc
    except BrokenPipeError:  # what is still buffered goes to devnull, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (SpecError, MathDomainError, UnsupportedPrimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except ConsistencyError as e:
        print(f"internal consistency failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
