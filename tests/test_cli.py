import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from entrank.cli import main

DATA = Path(__file__).parent / "data"
SPECS = Path(__file__).parent.parent / "specs"
SRC = Path(__file__).parent.parent / "src"

X2X3 = str(SPECS / "x2x3.json")
LED = str(SPECS / "ledrappier.json")

# Figure values for the times-2-times-3 system on [-5,5] x [0,5], rows with
# n2 descending; None marks the identity cell.
GRID = [
    [211, 227, 235, 239, 241, 121, 485, 971, 1943, 3887, 7775],
    [49, 65, 73, 77, 79, 5, 161, 323, 647, 1295, 2591],
    [5, 11, 19, 23, 25, 13, 53, 107, 215, 431, 863],
    [23, 7, 1, 5, 7, 1, 17, 35, 71, 143, 287],
    [29, 13, 5, 1, 1, 1, 5, 11, 23, 47, 95],
    [31, 5, 7, 1, 1, None, 1, 1, 7, 5, 31],
]


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def test_count_basic(capsys):
    rc, out, _ = run(capsys, "count", "--spec", X2X3, "--n", "1,1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "5"
    assert "component 0: 5 (multiplicity 1)" in lines
    assert lines[-1] == "exact (Noetherian)"


def test_count_negative_components(capsys):
    rc, out, _ = run(capsys, "count", "--spec", X2X3, "--n", "-5,3")
    assert rc == 0 and out.splitlines()[0] == "5"


def test_count_prints_long_counts_in_full(capsys):
    # |2^15000 - 1| has 4,516 digits, past Python's default int-to-str limit
    rc, out, err = run(capsys, "count", "--spec", X2X3, "--n", "15000,0")
    assert rc == 0 and err == ""
    expected = 2**15000 - 1
    while expected % 3 == 0:
        expected //= 3
    text = out.splitlines()[0]
    assert len(text) > 4300
    assert text == str(expected)


def test_count_identity_exits_2(capsys):
    rc, _out, err = run(capsys, "count", "--spec", X2X3, "--n", "0,0")
    assert rc == 2
    assert "identity direction" in err


def test_count_upper_bound_tag(capsys, tmp_path):
    doc = {"d": 1, "noetherian": False, "components": [
        {"multiplicity": 1, "char": 0, "min_poly": [0, 1], "xi": [[2, 1]]}]}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "count", "--spec", str(p), "--n", "3")
    assert rc == 0
    assert out.splitlines()[0] == "7"
    assert "upper bound" in out


def test_usage_error_exits_1(capsys):
    rc, _out, _err = run(capsys, "count", "--spec", X2X3)
    assert rc == 1
    rc, _out, _err = run(capsys, "bogus-subcommand")
    assert rc == 1


def test_missing_spec_file_exits_2(capsys):
    rc, _out, err = run(capsys, "count", "--spec", "no-such-file.json", "--n", "1,1")
    assert rc == 2


def test_spec_directory_exits_2(capsys):
    rc, _out, err = run(capsys, "count", "--spec", str(SPECS), "--n", "1,1")
    assert rc == 2
    assert err.startswith("error: cannot read spec") and err.count("\n") == 1


def test_non_utf8_spec_exits_2(capsys, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"d": 1, "note": "caf\u00e9"}'.encode("latin-1"))
    rc, _out, err = run(capsys, "count", "--spec", str(bad), "--n", "1")
    assert rc == 2
    assert err.startswith("error: cannot read spec") and err.count("\n") == 1


def test_unwritable_scan_output_exits_2(capsys, tmp_path):
    out = tmp_path / "no-such-dir" / "scan.csv"
    rc, _out, err = run(capsys, "scan", "--spec", X2X3, "--rmin", "1", "--rmax", "3",
                        "--out", str(out))
    assert rc == 2
    assert err.startswith("error: cannot write") and err.count("\n") == 1


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_scan_budget_below_one_exits_2(capsys, budget):
    rc, out, err = run(capsys, "scan", "--spec", X2X3, "--rmin", "1", "--rmax", "3",
                       "--budget", budget)
    assert rc == 2 and out == ""
    assert err == f"error: budget must be at least 1, got {budget}\n"


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_matches_golden_bytes(capsys):
    rc, out, _ = run(capsys, "table", "--spec", X2X3, "--range", "-5:5,0:5")
    assert rc == 0
    assert out == (DATA / "figure1_x2x3.txt").read_text()


def test_golden_file_matches_reference_grid():
    rows = (DATA / "figure1_x2x3.txt").read_text().splitlines()
    assert len(rows) == 6
    parsed = [[None if cell == "∞" else int(cell) for cell in row.split()]
              for row in rows]
    assert parsed == GRID


def test_table_cells_against_grid(capsys):
    rc, out, _ = run(capsys, "table", "--spec", X2X3, "--range", "-5:5,0:5")
    parsed = [[None if cell == "∞" else int(cell) for cell in row.split()]
              for row in out.splitlines()]
    assert parsed == GRID


def test_table_gaussian_split_prime(capsys):
    # Q(i) with xi = 2 + i: one of the two places above 5 is in the support,
    # so counts take the several-places route; for n != 0 the count is
    # N((2 + i)^|n| - 1) = (a - 1)^2 + b^2 with a + b i = (2 + i)^|n|
    rc, out, _ = run(capsys, "table", "--spec", str(SPECS / "gaussian_split.json"),
                     "--range", "-6:6")
    assert rc == 0
    cells = []
    for n in range(-6, 7):
        a, b = 1, 0
        for _ in range(abs(n)):
            a, b = 2 * a - b, a + 2 * b
        cells.append(str((a - 1) ** 2 + b * b) if n else "∞")
    assert out == " ".join(cells) + "\n"
    assert out == "15860 3202 640 122 20 2 ∞ 2 20 122 640 3202 15860\n"


def test_table_single_row(capsys):
    rc, out, _ = run(capsys, "table", "--spec", X2X3, "--range", "1:3,1:1")
    assert rc == 0
    assert [int(c) for c in out.split()] == [5, 11, 23]


def test_table_csv_format(capsys):
    rc, out, _ = run(capsys, "table", "--spec", X2X3, "--range", "-1:1,0:1")
    rc, out, _ = run(capsys, "table", "--spec", X2X3, "--range", "-1:1,0:1",
                     "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n1,n2,count"
    assert "0,0,inf" in lines
    assert "1,1,5" in lines
    assert len(lines) == 7


def test_table_csv_keeps_the_lines_printed_before_a_failure(capsys, monkeypatch):
    # csv streams, so a count failing after the first row leaves the header
    # and that row on stdout, and exits with the error's code
    import entrank.cli as cli
    from entrank.errors import MathDomainError

    inner, calls = cli.count_composite, []

    def failing(ps, n):
        calls.append(n)
        if len(calls) > 1:
            raise MathDomainError("injected failure")
        return inner(ps, n)

    monkeypatch.setattr(cli, "count_composite", failing)
    rc, out, err = run(capsys, "table", "--spec", X2X3, "--range", "-1:1,0:1",
                       "--format", "csv")
    assert rc == 2
    assert out.splitlines() == ["n1,n2,count", f"-1,1,{GRID[4][4]}"]
    assert err == "error: injected failure\n"


def test_table_oversized_range_exits_3(capsys):
    rc, _out, err = run(capsys, "table", "--spec", X2X3, "--range", "-200:200,-200:200")
    assert rc == 3


def test_count_with_unfactorable_denominator_exits_3(capsys, tmp_path):
    # xi = 1/(p q), p and q the primes after 10^16 and 3 * 10^16: Pollard rho
    # on p q would need about 10^8 steps, so placement stops at its step cap
    pq = (10**16 + 61) * (3 * 10**16 + 29)
    spec = tmp_path / "pq.json"
    spec.write_text(json.dumps(
        {"d": 1, "components": [{"char": 0, "min_poly": [0, 1], "xi": [[1, pq]]}]}))
    start = time.perf_counter()
    rc, out, err = run(capsys, "count", "--spec", str(spec), "--n", "1")
    assert time.perf_counter() - start < 10
    assert rc == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("resource limit: ")


def test_count_past_the_size_cap_exits_3(capsys):
    # off Ledrappier's edge lines the exponent 10^20 + 1 comes at once from
    # the polygon's width; the count 2^(10^20 + 1) is refused before it is
    # formed, naming n and the exponent
    start = time.perf_counter()
    rc, out, err = run(capsys, "count", "--spec", LED, "--n", "100000000000000000000,1")
    assert time.perf_counter() - start < 10
    assert rc == 3 and out == ""
    assert err == ("resource limit: count at n=(100000000000000000000, 1) is "
                   "2^100000000000000000001, past the cap of 1048576 bits\n")


def test_table_determinism(capsys):
    rc1, out1, _ = run(capsys, "table", "--spec", X2X3, "--range", "-5:5,0:5")
    rc2, out2, _ = run(capsys, "table", "--spec", X2X3, "--range", "-5:5,0:5")
    assert out1 == out2


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_summary_and_csv(capsys, tmp_path):
    out_csv = tmp_path / "scan.csv"
    rc, out, _ = run(capsys, "scan", "--spec", X2X3, "--rmin", "1", "--rmax", "5.5",
                     "--out", str(out_csv))
    assert rc == 0
    assert "points 48" in out
    assert "C1_estimate" in out and "C2_estimate" in out
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "n1,n2,count,f,h_hat,g"
    assert len(lines) == 49


def test_scan_budget_exit_code(capsys):
    rc, out, _ = run(capsys, "scan", "--spec", X2X3, "--rmin", "1", "--rmax", "8",
                     "--budget", "10")
    assert rc == 3
    assert "partial" in out


def test_scan_empty_workers_variable_means_unset(capsys, monkeypatch):
    monkeypatch.setenv("ENTRANK_WORKERS", "")
    rc, out, _ = run(capsys, "scan", "--spec", X2X3, "--rmin", "1", "--rmax", "5.5")
    assert rc == 0 and "points 48" in out


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_scan_malformed_workers_variable_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("ENTRANK_WORKERS", value)
    rc, out, err = run(capsys, "scan", "--spec", X2X3, "--rmin", "1", "--rmax", "5.5")
    assert rc == 2 and out == ""
    assert err.startswith("error: ENTRANK_WORKERS") and err.count("\n") == 1


def test_scan_ledrappier_notes_charp(capsys):
    rc, out, _ = run(capsys, "scan", "--spec", LED, "--rmin", "1", "--rmax", "2.5")
    assert rc == 0
    assert "char-p" in out


@pytest.mark.parametrize("argv", [
    # the summary fits the stdout buffer: the closed pipe shows at the final flush
    ["scan", "--spec", str(SPECS / "golden_mean.json"), "--rmin", "3", "--rmax", "9"],
    # about 30 kB of rows: the closed pipe shows inside a print
    ["table", "--spec", str(SPECS / "gaussian_split.json"), "--range=-200:200",
     "--format", "csv"],
])
def test_closed_stdout_pipe_exits_141_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    try:
        proc = subprocess.run([sys.executable, "-m", "entrank.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == b""


def test_runtime_path_loads_no_numpy():
    # numpy is a test-only dependency: neither the import nor an extrema run loads it
    code = ("import sys, entrank; assert 'numpy' not in sys.modules; "
            "from entrank.cli import main; rc = main(['extrema', '--spec', sys.argv[1]]); "
            "sys.exit(rc or 'numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code, X2X3], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout.startswith(b"max 1.29900037519")


# ---------------------------------------------------------------------------
# extrema / nonexpansive / mahler / oracle / validate
# ---------------------------------------------------------------------------

def test_extrema_output(capsys):
    rc, out, _ = run(capsys, "extrema", "--spec", X2X3)
    assert rc == 0
    emax = math.hypot(math.log(2), math.log(3))
    emin = math.log(2) * math.log(3) / emax
    maxline = next(l for l in out.splitlines() if l.startswith("max"))
    minline = next(l for l in out.splitlines() if l.startswith("min"))
    assert abs(float(maxline.split()[1]) - emax) < 1e-9
    assert abs(float(minline.split()[1]) - emin) < 1e-9


def _directions(out: str) -> list[list[str]]:
    """The coordinates printed after 'at' on extrema's max and min lines."""
    return [line.split(" at (")[1].rstrip(")").split(", ")
            for line in out.splitlines()[:2]]


def _check_extrema_directions(capsys, path: str) -> None:
    # each printed direction is the sphere_extrema one or its negation, with
    # a positive first nonzero coordinate
    from entrank import entropy_function_of, load_spec, place_spec, sphere_extrema

    rc, out, _ = run(capsys, "extrema", "--spec", path)
    assert rc == 0
    ex = sphere_extrema(entropy_function_of(place_spec(load_spec(path))))
    for printed, v in zip(_directions(out), (ex.argmax, ex.argmin)):
        first = next(c for c in printed if c != "0")
        assert not first.startswith("-")
        assert "-0" not in printed
        assert printed in ([format(c + 0.0, ".12g") for c in v],
                           [format(0.0 - c, ".12g") for c in v])


@pytest.mark.parametrize("name", sorted(p.name for p in SPECS.glob("*.json")
                                        if p.name != "ledrappier.json"))
def test_extrema_prints_the_direction_with_a_positive_first_entry(capsys, name):
    _check_extrema_directions(capsys, str(SPECS / name))


def test_extrema_sign_rule_on_sweep_specs(capsys, tmp_path):
    from entrank import parse_spec, place_spec
    from entrank.errors import SpecError, UnsupportedPrimeError
    from tests.test_counting import _sweep_like_docs

    checked = 0
    for i, doc in enumerate(_sweep_like_docs(20262, 60)):
        try:
            place_spec(parse_spec(doc))
        except (SpecError, UnsupportedPrimeError):
            continue
        path = tmp_path / f"sweep{i}.json"
        path.write_text(json.dumps(doc))
        _check_extrema_directions(capsys, str(path))
        checked += 1
    assert checked >= 25


def test_extrema_ratio_shift_k1_max_direction(capsys):
    # h is even, so the maximum at (0, -1) is printed as (0, 1)
    rc, out, _ = run(capsys, "extrema", "--spec", str(SPECS / "ratio_shift_k1.json"))
    assert rc == 0 and out.splitlines()[0] == "max 1.09861228867 at (0, 1)"


@pytest.mark.parametrize("name", sorted(p.name for p in SPECS.glob("*.json")))
def test_no_shipped_spec_prints_negative_zero(capsys, name):
    import re

    for command in ("nonexpansive", "extrema", "validate"):
        rc, out, _ = run(capsys, command, "--spec", str(SPECS / name))
        assert rc == 0
        assert not re.search(r"(^|[\s(])-0(?![\d.])", out), (command, out)


def test_extrema_charp_not_available(capsys):
    rc, out, _ = run(capsys, "extrema", "--spec", LED)
    assert rc == 0 and "not available" in out


def test_nonexpansive_output(capsys):
    rc, out, _ = run(capsys, "nonexpansive", "--spec", X2X3)
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith("candidate:")]
    assert len(lines) == 3
    assert "candidates only" in out


def test_nonexpansive_charp(capsys):
    rc, out, _ = run(capsys, "nonexpansive", "--spec", LED)
    assert rc == 0 and "not available" in out


def test_mahler_lehmer(capsys):
    rc, out, _ = run(capsys, "mahler", "--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1")
    assert rc == 0
    assert abs(float(out.split()[0]) - 0.162357) < 1e-4


@pytest.mark.parametrize("poly", [f"{10**400},0,1", f"1,0,{10**400}"])
def test_mahler_huge_roots_and_tiny_roots(capsys, poly):
    # roots +-10^200 i and +-10^-200 i: m = 400 log 10 either way
    rc, out, err = run(capsys, "mahler", f"--poly={poly}")
    assert rc == 0 and err == ""
    assert out == "921.034037198 (error bound 1.13686837722e-13)\n"
    assert abs(float(out.split()[0]) - 400 * math.log(10)) < 1e-9


def test_mahler_without_convergence_exits_3(capsys, monkeypatch):
    # one Durand-Kerner sweep cannot take the double-precision starts to
    # 188 bits, so a cap of one sweep stands for an iteration that stalls
    import entrank.entropy as entropy
    import entrank.numberfield as nf

    monkeypatch.setattr(nf, "_sweep_cap", lambda n, s, scale: 1)
    monkeypatch.setattr(entropy, "root_discs", nf.root_discs.__wrapped__)  # past the cache
    rc, out, err = run(capsys, "mahler", "--poly", "7,-5,3,1,2")
    assert rc == 3 and out == ""
    assert err == ("resource limit: root isolation of a degree-4 polynomial with coefficients "
                   "of up to 3 bits did not converge at 128 bits\n")


# (x - 10^30)(10^300 x - 1)(10^300 x - 3), ascending: two simple roots below
# the grid 2^-188, which Durand-Kerner closes in on one halving a sweep
_TINY_PAIR = ",".join(map(str, [-3 * 10**30, 3 + 4 * 10**330, -4 * 10**300 - 10**630, 10**600]))


def test_mahler_isolates_two_tiny_roots_below_the_grid(capsys):
    # m = log 10^30 + 2 log 10^300 = log 10^630; 246 sweeps at 128 bits
    rc, out, err = run(capsys, "mahler", "--poly", _TINY_PAIR)
    assert rc == 0 and err == ""
    assert out == "1450.62860859 (error bound 2.27373675443e-13)\n"
    assert abs(float(out.split()[0]) - 630 * math.log(10)) < 1e-8  # 12 digits printed


# (x - 2*10^600)(10^300 x - 1)(10^300 x - 2), ascending: the tiny pair closes
# in from the huge root's scale, one halving a sweep
_HUGE_AND_TINY = ",".join(map(str, [-4 * 10**600, 2 + 6 * 10**900, -3 * 10**300 - 2 * 10**1200,
                                    10**600]))


def test_mahler_isolates_tiny_roots_beside_a_huge_one(capsys):
    # m = log(2 10^600) + 2 log 10^300; 2,141 sweeps at 128 bits, under half
    # of the cap that the degree and the root scale give
    rc, out, err = run(capsys, "mahler", "--poly", _HUGE_AND_TINY)
    assert rc == 0 and err == ""
    assert out == "2763.79525877 (error bound 4.54747350886e-13)\n"
    assert abs(float(out.split()[0]) - math.log(2) - 1200 * math.log(10)) < 1e-8


def test_mahler_resource_limit_names_the_size_not_the_polynomial(capsys, monkeypatch):
    # the message gives the degree and the coefficient size rather than the
    # 600-digit coefficients
    import entrank.entropy as entropy
    import entrank.numberfield as nf

    monkeypatch.setattr(nf, "_sweep_cap", lambda n, s, scale: 1)
    monkeypatch.setattr(entropy, "root_discs", nf.root_discs.__wrapped__)  # past the cache
    rc, out, err = run(capsys, "mahler", "--poly", _TINY_PAIR)
    assert rc == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource limit: ")
    assert len(lines[0]) < 200 and "degree-3" in lines[0]


@pytest.mark.parametrize("poly", ["1,a", ""])
def test_mahler_unparsable_poly_exits_2(capsys, poly):
    rc, out, err = run(capsys, "mahler", "--poly", poly)
    assert rc == 2 and out == ""
    assert err.startswith("error: could not parse polynomial coefficients")


def test_algebra_layer_error_exits_2(capsys, monkeypatch):
    import entrank.cli
    from entrank.errors import MathDomainError

    def fail(_coeffs):
        raise MathDomainError("division by zero polynomial")

    monkeypatch.setattr(entrank.cli, "mahler_measure", fail)
    rc, _out, err = run(capsys, "mahler", "--poly", "1,1")
    assert rc == 2 and err == "error: division by zero polynomial\n"


def test_oracle_ledrappier(capsys):
    rc, out, _ = run(capsys, "oracle", "ledrappier", "--n", "12")
    assert rc == 0
    assert out.splitlines()[0] == "256"
    assert "= 2^8" in out


def test_oracle_window(capsys):
    rc, out, _ = run(capsys, "oracle", "window", "--spec", LED, "--n", "3,0")
    assert rc == 0
    assert "stabilized: count 4" in out


def test_oracle_window_needs_charp(capsys):
    rc, _out, err = run(capsys, "oracle", "window", "--spec", X2X3, "--n", "1,1")
    assert rc == 2


def test_validate_pass(capsys):
    rc, out, _ = run(capsys, "validate", "--spec", X2X3)
    assert rc == 0
    assert "mixing: pass" in out
    assert "entropy-rank-one: pass" in out


def test_validate_warns_non_noetherian(capsys):
    rc, out, _ = run(capsys, "validate", "--spec", str(SPECS / "times2_rationals.json"))
    assert rc == 0
    assert "upper bounds only" in out


def test_validate_fails_on_non_mixing(capsys, tmp_path):
    doc = {"d": 1, "components": [
        {"multiplicity": 1, "char": 0, "min_poly": [0, 1], "xi": [[-1, 1]]}]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "validate", "--spec", str(p))
    assert rc == 2
    assert "violation" in out


@pytest.mark.parametrize("argv", [
    ("validate", "--spec", LED, "--radius", "nan"),
    ("validate", "--spec", X2X3, "--radius", "inf"),
    ("validate", "--spec", X2X3, "--radius", "-1"),
    ("scan", "--spec", X2X3, "--rmin", "1", "--rmax", "inf"),
])
def test_bad_radius_exits_2(capsys, argv):
    rc, _out, err = run(capsys, *argv)
    assert rc == 2
    assert "radius must be" in err


def test_validate_rejects_bad_spec(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"d": 2, "components": [{"char": 0, "min_poly": [0, 1], "xi": [[0,1],[3,1]]}]}')
    rc, _out, err = run(capsys, "validate", "--spec", str(p))
    assert rc == 2
    assert "xi[0]" in err


# Each typed-error path of the spec parser and the argument parsers: the
# exit code, nothing on stdout, and one stderr line naming the JSON path or
# the argument. A spec given as text is written to a file, whose path
# replaces the None in argv.
VALIDATE = ("validate", "--spec", None)
TYPED_ERRORS = [
    ("[1, 2]", VALIDATE, 2, "spec document must be a JSON object"),
    ('{"d": 1, "noetherian": 1, "components": []}', VALIDATE, 2, "noetherian:"),
    ('{"d": 1, "components": [5]}', VALIDATE, 2, "components[0]: must be an object"),
    ('{"d": 1, "components": [{"char": 0, "min_poly": [0, 1], "xi": [[1, 0]]}]}',
     VALIDATE, 2, "components[0].xi[0]: zero denominator"),
    ('{"d": 1, "components": [{"char": 2, "generators": 5}]}',
     VALIDATE, 2, "components[0].generators: must be a list"),
    ('{"d": 1, "components": [{"char": 2, "generators": [{"terms": 5}]}]}',
     VALIDATE, 2, "components[0].generators[0]: must be an object with a 'terms' list"),
    ('{"d": 1, "components": [{"char": 2, "generators": [{"terms": [5]}]}]}',
     VALIDATE, 2, "components[0].generators[0].terms[0]: must be an object"),
    ('{"d": 1,', VALIDATE, 2, "invalid JSON"),
    (X2X3, ("count", "--spec", None, "--n", "1,x"), 2, "could not parse lattice vector '1,x'"),
    (X2X3, ("count", "--spec", None, "--n", "1"), 2, "vector '1' has 1 entries, spec has d=2"),
    (LED, ("oracle", "window", "--spec", None, "--n", "1,2,3"), 2,
     "vector '1,2,3' has 3 entries"),
    (X2X3, ("table", "--spec", None, "--range", "1:x,0:1"), 2, "bad range component '1:x'"),
    (X2X3, ("table", "--spec", None, "--range", "3:1,0:1"), 2, "empty range '3:1'"),
    (X2X3, ("table", "--spec", None, "--range=-1:1"), 1, "table needs a d-dimensional range"),
]


@pytest.mark.parametrize("spec, argv, code, named", TYPED_ERRORS)
def test_typed_error_paths(capsys, tmp_path, spec, argv, code, named):
    if not spec.endswith(".json"):
        (tmp_path / "spec.json").write_text(spec)
        spec = str(tmp_path / "spec.json")
    rc, out, err = run(capsys, *(spec if a is None else a for a in argv))
    assert rc == code and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and named in err


def test_oracle_window_not_stabilized_is_inconclusive(capsys):
    # a deep axis point and a small window: the oracle declines, exit 0
    rc, out, err = run(capsys, "oracle", "window", "--spec", LED, "--n", "32,0", "--window", "8")
    assert rc == 0 and err == ""
    assert out.splitlines()[-1] == "not stabilized: inconclusive (raise --window)"


@pytest.mark.parametrize("component", [
    # xi = 1 / B, B = MILLER_RABIN_PROVEN_BELOW: a composite that passes every
    # Miller-Rabin base is_prime tries, so no place above it is proven
    {"char": 0, "min_poly": [0, 1], "xi": [[1, 3317044064679887385961981]]},
    {"char": 3317044064679887385961981,
     "generators": [{"terms": [{"exp": [0], "coeff": 1}, {"exp": [1], "coeff": 1}]}]},
])
def test_unproven_prime_exits_3(capsys, tmp_path, component):
    spec = tmp_path / "unproven.json"
    spec.write_text(json.dumps({"d": 1, "components": [component]}))
    rc, out, err = run(capsys, "validate", "--spec", str(spec))
    assert rc == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("resource limit: ")


# ---------------------------------------------------------------------------
# Every admitted or malformed input: an answer or a typed exit code
# ---------------------------------------------------------------------------

MIN_POLYS = [
    [0, 1], [-1, -1, 1], [1, 0, 1], [-2, 0, 0, 1],  # degrees 1-3
    [5], [-1, 0, 1], [1, 0, 2],  # degree 0, reducible, non-monic
]


@st.composite
def _char0(draw, d):
    poly = draw(st.sampled_from(MIN_POLYS))
    width = 2 * max(len(poly) - 1, 1)
    # small numerators and denominators: zero and unit coordinates are drawn too
    coord = st.tuples(st.integers(-3, 3), st.integers(1, 2))
    xi = [[v for pair in draw(st.lists(coord, min_size=width // 2, max_size=width // 2))
           for v in pair] for _ in range(d)]
    return {"multiplicity": draw(st.integers(1, 2)), "char": 0, "min_poly": poly, "xi": xi}


@st.composite
def _charp(draw, d):
    term = st.fixed_dictionaries({"exp": st.lists(st.integers(-1, 2), min_size=d, max_size=d),
                                  "coeff": st.integers(1, 3)})
    gens = draw(st.lists(st.fixed_dictionaries({"terms": st.lists(term, min_size=1, max_size=3)}),
                         max_size=2))
    return {"char": draw(st.sampled_from([2, 3, 4])), "generators": gens}


SPEC_ARG = "<spec>"  # replaced by the drawn spec's path
TMP_ARG = "<tmp>"  # replaced by the temporary directory: an unwritable --out


@st.composite
def _cli_case(draw, command):
    d = draw(st.integers(1, 2))
    comps = draw(st.lists(st.one_of(_char0(d), _charp(d)), min_size=1, max_size=2))
    vector = ",".join(str(draw(st.integers(-3, 3))) for _ in range(d))
    if command == "mahler":
        coeff = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))
        argv = ["--poly", ",".join(map(str, draw(st.lists(coeff, max_size=6))))]
    elif command == "oracle":
        argv = draw(st.sampled_from([
            ["ledrappier", "--n", str(draw(st.integers(-3, 40)))],
            ["window", "--spec", SPEC_ARG, "--n", vector,
             "--window", str(draw(st.integers(-1, 4)))]]))
    else:
        argv = ["--spec", SPEC_ARG] + {
            "count": ["--n", vector], "table": ["--range", ",".join(["-2:2"] * d)],
            "scan": ["--rmin", "1", "--rmax", "3"], "validate": ["--radius", "2"]
        }.get(command, [])
        if command == "scan":  # into the temporary directory, or onto it (exit 2)
            argv += ["--out", draw(st.sampled_from([TMP_ARG, os.path.join(TMP_ARG, "o.csv")]))]
    return {"d": d, "components": comps}, [command, *argv]


@pytest.mark.parametrize("command", ["count", "table", "scan", "extrema", "nonexpansive",
                                     "validate", "mahler", "oracle"])
@settings(max_examples=8, derandomize=True, deadline=None)  # 64 seeded examples in all
@given(data=st.data())
def test_cli_answers_or_exits_with_a_typed_code(command, data):
    doc, drawn = data.draw(_cli_case(command))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "spec.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [spec if a == SPEC_ARG else a.replace(TMP_ARG, tmp) for a in drawn]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        csv_path = os.path.join(tmp, "o.csv")
        if rc == 0 and csv_path in argv:  # a header, then one row per point the scan printed
            with open(csv_path, encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            assert out.getvalue().startswith(f"points {len(rows)} "), (doc, argv)
    assert rc in (0, 1, 2, 3), (doc, argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if drawn[-2:] == ["--out", TMP_ARG]:  # a scan that answers cannot write its CSV
        assert rc != 0, (doc, argv)


def test_package_namespace_is_what_its_callers_import():
    # the names the CLI's tests, the other tests and the benchmark import
    # from the package; everything else is reached through its submodule
    import types

    import entrank

    public = {k for k, v in vars(entrank).items()
              if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == {
        "CharPComponent", "ConsistencyError", "EntropyFunction", "LaurentPolynomial",
        "MathDomainError", "ResourceLimitError", "SpecError", "build_field",
        "charp_window_oracle", "compute_places", "count_composite", "count_prime_char0",
        "count_prime_charp", "directional_entropy", "entropy_function_of",
        "entropy_rank_one_check", "g_value", "ledrappier_axis_closed_form", "load_spec",
        "mahler_measure", "mixing_check", "nonexpansive_candidates", "parse_spec", "phi_v",
        "place_spec", "point_record", "shell_scan", "sphere_extrema", "write_records_csv",
    }
