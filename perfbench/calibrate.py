"""Host-speed probe: a fixed pure-Python loop at idle priority on one CPU.

Usage (from the repository root)::

    python3 perfbench/calibrate.py OUT [CPU]

The probe pins itself to ``CPU`` (if given) and runs under ``SCHED_IDLE``, so it only
runs while that CPU has nothing else to do and a waking server preempts it
at once.  Each iteration of its loop does the same work; it records when
the iteration ended (``time.perf_counter_ns``, the clock the client times
requests with) and the CPU time it took.  On SIGTERM it writes
``[[end_ns, ...], [cpu_ns, ...]]`` to ``OUT`` as JSON and exits.

A slow spell of the virtual CPU stretches every instruction run on it, the
probe's as much as the server's, so the probe's iteration time beside a
request measures how fast the CPU ran while the request was served.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from array import array

ITERATION = 2000
"""Loop steps per iteration: about 0.15 ms on a 2-CPU x86-64 VM."""


def main(argv) -> int:
    out = argv[0]
    if len(argv) > 1:
        os.sched_setaffinity(0, {int(argv[1])})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    ends, costs = array("q"), array("q")
    clock, cputime = time.perf_counter_ns, time.process_time_ns
    while not stop:
        before = cputime()
        total = 0
        for i in range(ITERATION):
            total += i * i % 7
        ends.append(clock())
        costs.append(cputime() - before)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump([list(ends), list(costs)], handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
