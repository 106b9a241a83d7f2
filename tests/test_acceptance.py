"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

Criteria cover: the reference count table, spot and diagonal values, the
zero-dimensional example against two independent oracles, the vanishing
growth rate on its axis, Mahler measures, the shifted-ratio family, sphere
extrema with a sampling confirmation, annulus scans (positivity of the
lower growth estimate and decay of the correction term g), structural
identities on every scanned point, and the convergent sequence toward the
balance line.
"""

import math
import time
from fractions import Fraction

import pytest

from entrank import (
    charp_window_oracle,
    count_composite,
    count_prime_char0,
    count_prime_charp,
    directional_entropy,
    entropy_function_of,
    ledrappier_axis_closed_form,
    mahler_measure,
    place_spec,
    point_record,
    shell_scan,
    sphere_extrema,
)
from entrank.cli import main
from entrank.entropy import sample_sphere_extrema_2d
from entrank.numberfield import ord_v
from tests.conftest import ratio_shift_spec
from tests.test_cli import GRID, X2X3
from tests.test_counting import x2x3_oracle

LOG2, LOG3 = math.log(2), math.log(3)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def big_scan(x2x3):
    return shell_scan(x2x3, 40.0, 50.0)


def test_criterion_1_reference_table(capsys):
    t0 = time.perf_counter()
    rc = main(["table", "--spec", X2X3, "--range", "-5:5,0:5"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    parsed = [[None if c == "∞" else int(c) for c in row.split()]
              for row in out.splitlines()]
    cells_ok = parsed == GRID and rc == 0
    ok = cells_ok and elapsed < 1.0
    with capsys.disabled():
        report(1, ok, f"66-cell table exact, {elapsed:.3f}s < 1s")


def test_criterion_2_spot_values(x2x3):
    t0 = time.perf_counter()
    pc = x2x3.placed_char0()[0][0]
    ok = count_prime_char0(pc, (-5, 3)).value == 5
    for n in range(1, 21):
        ok = ok and count_prime_char0(pc, (n, n)).value == 6**n - 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(2, ok, f"count(-5,3)=5 and diagonal 6^n-1 for n=1..20, {elapsed:.3f}s < 1s")


def test_criterion_3_charp_cross_oracles(ledrappier):
    t0 = time.perf_counter()
    pc = ledrappier.charp()[0][0]
    ok = True
    for n in range(1, 33):
        ok = ok and count_prime_charp(pc, (n, 0)).value == ledrappier_axis_closed_form(n).value
    off_axis = [(1, 1), (2, 2), (3, 3), (-1, 2), (2, -3), (-5, 3), (4, 6),
                (5, 1), (1, 7), (7, -8)]
    assert len(off_axis) == 10 and all(max(abs(a), abs(b)) <= 8 for a, b in off_axis)
    for n in off_axis:
        w = charp_window_oracle(pc, n, window=8)
        ok = ok and w.stabilized and w.count.value == count_prime_charp(pc, n).value
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(3, ok, f"closed form (n=1..32) and window oracle (10 off-axis) agree, "
                  f"{elapsed:.1f}s < 60s")


def test_criterion_4_zero_limit_axis(ledrappier):
    fs = []
    for k in range(0, 6):
        fs.append(point_record(ledrappier, (2**k, 0)).f)
    ok = all(b <= a + 1e-12 for a, b in zip(fs, fs[1:])) and fs[5] < 0.2
    report(4, ok, f"f((2^k,0)) non-increasing, f at k=5 is {fs[5]:.3g} < 0.2")


def test_criterion_5_mahler():
    lehmer = mahler_measure([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
    doubling = mahler_measure([-2, 1])
    ok = abs(lehmer.value - 0.162357) <= 1e-4
    ok = ok and abs(doubling.value - LOG2) <= 1e-10
    report(5, ok, f"Lehmer measure {lehmer.value:.6f} (+-1e-4), m(x-2)=log2 (+-1e-10)")


def test_criterion_6_ratio_shift_family():
    ok = True
    details = []
    for k in (1, 2, 5):
        ps = place_spec(ratio_shift_spec(k))
        ef = entropy_function_of(ps)
        h = directional_entropy(ef, (k, 1))
        ex = sphere_extrema(ef)
        bound = LOG3 / math.sqrt(1 + k * k)
        ok = ok and abs(h - LOG3) <= 1e-9 and ex.min_value <= bound + 1e-9
        details.append(f"k={k}: h=log3(+-1e-9), min<={bound:.4f}")
    report(6, ok, "; ".join(details))


def test_criterion_7_sphere_extrema(x2x3):
    ef = entropy_function_of(x2x3)
    ex = sphere_extrema(ef)
    emax = math.hypot(LOG2, LOG3)
    emin = LOG2 * LOG3 / emax
    ok = abs(ex.max_value - emax) <= 1e-9 and abs(ex.min_value - emin) <= 1e-9
    smax, smin = sample_sphere_extrema_2d(ef, samples=1_000_000)
    ok = ok and abs(smax - ex.max_value) <= 1e-9 and abs(smin - ex.min_value) <= 1e-9
    report(7, ok, f"max={ex.max_value:.10f}, min={ex.min_value:.10f}, "
                  "analytic +-1e-9, 1e6-sample oracle +-1e-9")


def test_criterion_8_scan_positivity_and_g_decay(x2x3, big_scan):
    t0 = time.perf_counter()
    rep10 = shell_scan(x2x3, 9.5, 10.5)
    rep40 = shell_scan(x2x3, 39.5, 40.5)
    elapsed = time.perf_counter() - t0
    min_f = min(r.f for r in big_scan.records)
    g10 = max(abs(r.g) for r in rep10.records)
    g40 = max(abs(r.g) for r in rep40.records)
    ok = all(r.f > 0 for r in big_scan.records)
    ok = ok and min_f > 0.30
    ok = ok and g40 < g10
    ok = ok and elapsed < 300.0
    report(8, ok, f"shells [40,50]: min f = {min_f:.4f} > 0.30; "
                  f"max|g| {g10:.4f}@R=10 -> {g40:.4f}@R=40; {elapsed:.1f}s < 5min")


def test_criterion_9_identities_on_scanned_points(x2x3, big_scan):
    ok = True
    for rec in big_scan.records:
        ok = ok and abs(rec.f - rec.g - rec.h_hat) <= 1e-8
    for rec in big_scan.records[::137]:
        neg = tuple(-v for v in rec.n)
        ok = ok and count_composite(x2x3, neg).value == rec.count
    pc, _m = x2x3.placed_char0()[0]
    field = pc.component.field
    for rec in big_scan.records[::251]:
        x = field.sub(field.pow_vector(pc.component.xi, rec.n), field.one())
        prod = abs(field.norm(x))
        for place in pc.places:
            if place.kind == "finite":
                prod *= Fraction(place.p**place.res_degree) ** (-ord_v(place, x))
        ok = ok and prod.denominator == 1 and prod == rec.count
    for i in range(x2x3.d):
        ok = ok and abs(sum(row[i] for row in pc.lyapunov)) <= 1e-9
    report(9, ok, f"f=g+h (1e-8), count symmetry, integral place products, "
                  f"sum of Lyapunov rows = 0 (1e-9) on {len(big_scan.records)} points")


def test_criterion_10_convergent_sequence(x2x3):
    # (-p, q) for the first continued-fraction convergents p/q of log 3 / log 2:
    # lattice points converging to the balance line x1 log 2 + x2 log 3 = 0
    pts = [(-1, 1), (-2, 1), (-3, 2), (-8, 5), (-19, 12), (-65, 41)]
    assert all(abs(-n1 / n2 - LOG3 / LOG2) < 1 / n2**2 for n1, n2 in pts)
    seq = [point_record(x2x3, n) for n in pts]
    ok = all(r.count == x2x3_oracle(*r.n) for r in seq)
    ok = ok and [r.count for r in seq][:5] == [1, 1, 1, 13, 7153]
    ok = ok and seq[5].f > seq[3].f
    report(10, ok, f"counts match the strip-2-and-3 oracle along {[r.n for r in seq]}; "
                   f"f[6th]={seq[5].f:.3f} > f[4th]={seq[3].f:.3f}")
