"""Machine-speed reference for scaling measured times.

Host time on a shared machine drifts by tens of percent within minutes
as other tenants load it.  A short fixed loop of pure-Python arithmetic,
timed right next to the measured work, says how fast the machine ran at
that moment; a time multiplied by ``REF_NOMINAL_S / reference time`` is
quoted at one fixed machine speed.
"""

from __future__ import annotations

import math
from time import perf_counter, thread_time

REF_ITERATIONS = 1000    # reference loop length: about 0.1-0.2 ms here
REF_NOMINAL_S = 125e-6   # reference loop time that scaled times are quoted at


def reference_loop(n: int = REF_ITERATIONS) -> float:
    """Fixed pure-Python float arithmetic whose duration tracks how fast
    the machine runs Python code at this moment."""
    acc = 0.0
    for i in range(n):
        x = i * 1e-4
        acc += math.sqrt(x * x + 1.0) - x
    return acc


def speed_probe() -> tuple[float, float]:
    """(wall, this thread's CPU) seconds of one reference loop."""
    w0, c0 = perf_counter(), thread_time()
    reference_loop()
    return perf_counter() - w0, thread_time() - c0


def scaled(seconds: float, ref_s: float) -> float:
    """``seconds`` quoted at the speed where the reference loop takes
    REF_NOMINAL_S, given ``ref_s``, its mean time while the work ran."""
    return seconds * REF_NOMINAL_S / ref_s
