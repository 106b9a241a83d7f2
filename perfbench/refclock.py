"""Reference clock: wall time rescaled by the host's speed while it passes.

The machine this benchmark was tuned on (2 vCPUs of a shared host) runs the
same code at speeds up to 1.8x apart, switching every few to several tens of
seconds, and CPU time moves with wall time, so neither clock can tell a slow
program from a slow host. This clock can: every TICK_S of wall time a
SIGALRM handler runs a fixed pure-Python calibration loop and times it. The
wall time since the previous tick counts as (calibration time on the
reference host ÷ calibration time now) reference seconds, so a unit of
entrank work reads the same number of reference seconds whichever speed the
host had, while a slower entrank still reads more of them. Time spent in the
handler is left out of both clocks.

CAL_REF_S is the calibration loop's typical time on the machine the
benchmark was tuned on (an Intel Xeon at 2 vCPUs, Python 3.11), so one
reference second is about one wall second there. The interval after a tick
is scaled by that tick's sample; each sample is noisy, but a main phase of
tens of seconds averages hundreds of them.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

TICK_S = 0.1
CAL_ROUNDS = 300
CAL_REF_S = 0.0035


def _calibration_loop(rounds: int = CAL_ROUNDS) -> Fraction:
    """Exact rational arithmetic, as most of entrank's time goes to: the
    same stdlib Fraction code, calls and big-int gcds, with none of
    entrank's own code, so a change to entrank cannot move it."""
    step, acc = Fraction(1, 3), Fraction(0)
    for i in range(rounds):
        acc = (acc + step * Fraction(i + 1, 7)) / Fraction(5, 4)
    return acc


def host_speed(samples: int = 5) -> float:
    """Reference seconds per wall second right now: the median over
    `samples` back-to-back calibration loops."""
    speeds = []
    for _ in range(samples):
        t0 = time.perf_counter()
        _calibration_loop()
        speeds.append(CAL_REF_S / (time.perf_counter() - t0))
    return statistics.median(speeds)


class RefClock:
    """Call start() before the timed phase and stop() after it; read
    `read()` for reference and wall seconds since start(), both without the
    time spent calibrating."""

    def __init__(self):
        self.ref_base = 0.0      # reference seconds up to the last tick
        self.cal_total = 0.0     # wall seconds spent in the handler
        self.scale = 1.0         # reference seconds per wall second since the last tick
        self.last = 0.0          # perf_counter() when the last tick ended
        self.t_start = 0.0
        self.speeds: list[float] = []  # CAL_REF_S / calibration time, per tick

    def _tick(self, *_args) -> None:
        t0 = time.perf_counter()
        self.ref_base += (t0 - self.last) * self.scale
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            _calibration_loop()
        finally:
            if gc_was_enabled:
                gc.enable()
        t1 = time.perf_counter()
        cal = t1 - t0
        self.scale = CAL_REF_S / cal
        self.speeds.append(self.scale)
        self.cal_total += cal
        self.last = t1

    def start(self) -> None:
        self.last = time.perf_counter()
        self._tick()
        self.ref_base = 0.0
        self.cal_total = 0.0
        self.t_start = self.last
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def read(self) -> tuple[float, float]:
        """(reference seconds, wall seconds) since start(), read with the
        tick blocked so both come from one consistent state."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            now = time.perf_counter()
            return (self.ref_base + (now - self.last) * self.scale,
                    now - self.t_start - self.cal_total)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
