"""entrank benchmark: runs one workload in fresh serial worker processes and
prints every metric by name with its unit, then one JSON result line.

    python3 perfbench/run.py --workload scan-golden --seed 1 --seconds 30 --trace 0

Workloads (see NOTES.md for why each is in the set):
  scan-x2x3         shell_scan of specs/x2x3.json over |n| in [90, 100]
  scan-golden       shell_scan of specs/golden_mean.json over |n| in [40, 50]
  count-ledrappier  count_composite on specs/ledrappier.json at fixed vectors
  spec-sweep        placement, extrema, Mahler measure and counts on seeded specs

A unit is one scan, one pass over the Ledrappier vectors, or one pass over
120 seeded specs, run in its own cold process. A run is a fixed number of
units, --seconds divided by the unit's nominal cost in reference seconds
(see refclock.py), so the same arguments always attempt the same ops.
--trace 0 reports the end-to-end metrics; --trace 1 alternates plain and
traced units and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import host_speed
from tracing import LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
WORKLOADS = ("scan-x2x3", "scan-golden", "count-ledrappier", "spec-sweep")
REQUIRED = ("src/entrank/__init__.py", "specs/x2x3.json", "specs/golden_mean.json",
            "specs/ledrappier.json")
SETUP_PROBES = 5   # set-up-only processes per run, for the setup_s median
# Main-phase reference seconds of one unit at the commit that defined the
# benchmark; they size a run, they are not compared with anything.
UNIT_REF_S = {"scan-x2x3": 3.3, "scan-golden": 4.2, "count-ledrappier": 26.0,
              "spec-sweep": 13.5}
DEADLINE_S = 170   # every process of a run ends before this
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10    # samples that must lie beyond a reported tail percentile


class BenchError(RuntimeError):
    pass


def child(workload: str, seed: int, unit: int, mode: str, deadline: float) -> dict:
    """Run one worker process to completion. Its set-up time runs from spawn
    to ready: `wall_setup_s` on the wall clock, and `setup_s` in reference
    seconds, scaled by the host's speed measured just before the spawn (a
    set-up of a few tenths of a second sits inside one speed state)."""
    env = {k: v for k, v in os.environ.items() if k != "ENTRANK_WORKERS"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--unit", str(unit), "--mode", mode]
    speed = host_speed()
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} passed the run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}")
    out = json.loads(lines[-1])
    out["wall_setup_s"] = (out["ready_ns"] - spawn_ns) / 1e9
    out["setup_s"] = out["wall_setup_s"] * speed
    return out


def run_units(workload: str, seed: int, seconds: int, modes: tuple[str, ...],
              deadline: float) -> list[dict]:
    """Rounds of one process per mode, one process at a time; as many rounds
    as fill `seconds` reference seconds at the nominal unit cost, at least one.
    Round r runs unit r in every mode."""
    rounds = max(1, round(seconds / (UNIT_REF_S[workload] * len(modes))))
    return [child(workload, seed, r, mode, deadline)
            for r in range(rounds) for mode in modes]


def ops_per(units: list[dict], clock: str) -> float:
    """Median over units of ops attempted per main-phase second of `clock`
    (main_ref_s or main_s)."""
    return statistics.median(u["attempted"] / u[clock] for u in units)


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it."""
    for pct in TAIL_LADDER:
        beyond = int(len(latencies) * (100.0 - pct) / 100.0)
        if beyond >= MIN_BEYOND:
            value = statistics.quantiles(latencies, n=1000, method="inclusive")[
                round(pct * 10) - 1]
            return pct, value, beyond
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an entrank checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            units = run_units(args.workload, args.seed, args.seconds, ("run", "trace"),
                              deadline)
            probes = []
        else:
            probes = [child(args.workload, args.seed, 0, "setup", deadline)
                      for _ in range(SETUP_PROBES)]
            units = run_units(args.workload, args.seed, args.seconds, ("run",), deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    errors: dict[str, int] = {}
    for u in units:
        for name, k in u["errors"].items():
            errors[name] = errors.get(name, 0) + k
    notes = sorted({n for u in units for n in u["notes"]})
    correct = all(u["wrong"] == 0 for u in units)
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)), "fresh_process_per_unit": True,
        "ENTRANK_WORKERS": "unset in workers (parent: "
                           f"{os.environ.get('ENTRANK_WORKERS', 'unset')})",
        "units": len(units), "setup_probes": len(probes),
    }
    print("context " + json.dumps(context))
    print(f"info failed_frac = {failed / attempted!r} ratio ({failed}/{attempted}; "
          f"errors {json.dumps(errors, sort_keys=True)})")
    for note in notes:
        print(f"info verification: {note}")

    metrics: dict[str, dict] = {}
    if args.trace:
        plain = [u for u in units if "layers" not in u]
        traced = [u for u in units if "layers" in u]
        for name, unit in LAYER_METRICS:
            metrics[name] = {"value": statistics.median(u["layers"][name] for u in traced),
                             "unit": unit}
        metrics["trace.overhead_frac"] = {
            "value": 1.0 - ops_per(traced, "main_ref_s") / ops_per(plain, "main_ref_s"),
            "unit": "ratio"}
    else:
        metrics["setup_s"] = {
            "value": statistics.median(u["setup_s"] for u in probes + units), "unit": "s"}
        metrics["ops_per_ref_s"] = {"value": ops_per(units, "main_ref_s"), "unit": "1/ref_s"}
        metrics["peak_rss_mb"] = {
            "value": statistics.median(u["rss_mb"] for u in units), "unit": "MB"}
        print(f"info ops_per_s = {ops_per(units, 'main_s')!r} 1/s (wall clock)")
        print(f"info wall_setup_s = "
              f"{statistics.median(u['wall_setup_s'] for u in probes + units)!r} s")
        print(f"info host_speed = {statistics.median(u['host_speed'] for u in units)!r} "
              "(reference seconds per wall second, median over units)")
        for clock, suffix in (("latencies_ref_s", "ref_ms"), ("latencies_s", "ms")):
            latencies = [t for u in units for t in u[clock]]
            print(f"info op_p50_{suffix} = {statistics.median(latencies) * 1e3!r} "
                  f"{suffix} ({len(latencies)} ops)")
            op_tail = tail(latencies)
            if op_tail is None:
                print(f"info op_tail_{suffix} omitted: {len(latencies)} ops, fewer than "
                      f"{MIN_BEYOND} beyond any percentile")
            else:
                pct, value, beyond = op_tail
                print(f"info op_tail_{suffix} = {value * 1e3!r} {suffix} (p{pct:g}, "
                      f"{beyond} of {len(latencies)} ops beyond it)")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
