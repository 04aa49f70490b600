"""Machine-speed probe.

On a shared machine the speed of a core changes by up to a factor of two
within seconds and by 20-40% across minutes, while CPU time tracks wall
time: the drift is the machine's, not scheduling.  A calibration timed
before and after a sample does not track it.  So the runner pins itself and
its sample to one CPU and, while the sample runs, times short bursts of a
fixed pure-Python kernel there, which does the kind of work branchlab's
inner loops do (small Fractions, integer tuples, dict lookups).  Both see
the same speed, and the sample's CPU seconds are scaled by
REFERENCE_S / (mean CPU seconds per burst): times are reported in CPU
seconds at the speed the machine had when REFERENCE_S was measured.

The probe takes about a fifth of the CPU while a sample runs, which
lengthens the sample's wall time but not its CPU time.
"""

from __future__ import annotations

import os
import subprocess
import time
from fractions import Fraction

# CPU seconds of one kernel burst on a 2-core x86-64 container (Python
# 3.11.7) in one of its faster phases.  Only ratios between runs matter, so
# it stays fixed.
REFERENCE_S = 0.0025
PAUSE_S = 0.008  # sleep between bursts
MIN_BURSTS = 5


def kernel() -> Fraction:
    memo: dict = {}
    total = Fraction(0)
    for i in range(250):
        key = (i % 61, i % 37)
        value = memo.get(key)
        if value is None:
            value = Fraction(key[0] - 30, key[1] + 1)
            memo[key] = value
        doubled = [2 * x + i for x in key]
        total += value * value - Fraction(sum(x * x for x in doubled), 4)
    return total


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on a single CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def probe_beside(proc: subprocess.Popen, deadline: float) -> float:
    """Time kernel bursts until proc exits (killing it at the monotonic
    deadline); mean CPU seconds per burst."""
    bursts, spent = 0, 0.0
    while proc.poll() is None or bursts < MIN_BURSTS:
        start = time.thread_time()
        kernel()
        spent += time.thread_time() - start
        bursts += 1
        if proc.poll() is None:
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
            else:
                time.sleep(PAUSE_S)
    return spent / bursts
