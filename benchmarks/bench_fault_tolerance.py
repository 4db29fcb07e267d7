#!/usr/bin/env python3
"""Benchmark + acceptance gate: supervised execution under injected faults.

Measures what fault tolerance *costs* — the supervised executor's overhead
on a clean run — and what recovery *buys*: a multiprocessing similarity
join that completes despite a 20% worker crash rate, bit-identical to the
fault-free serial run.  Three scenarios over the 2k-tree clustered join
corpus (the ``bench_join_scale.py`` workload):

* **serial** — the fault-free ``workers=1`` reference run (the oracle the
  other scenarios are compared against, match for match).
* **mp-clean** — ``workers=2`` under the supervisor with no faults: the
  supervision overhead over the old bare pool is the poll loop only.
* **mp-crash** — ``workers=2`` with ``worker_crash:0.2`` injected: one in
  five chunk attempts kills its worker mid-chunk; the supervisor retries
  and/or degrades until every pair is verified.

Run with::

    PYTHONPATH=src python benchmarks/bench_fault_tolerance.py          # full
    PYTHONPATH=src python benchmarks/bench_fault_tolerance.py --quick  # CI gate

The process exits non-zero unless:

* the crash-injected match set equals the serial match set exactly,
* ``JoinStats.retried_chunks > 0`` under injection (faults really fired).

``--quick`` shrinks the corpus (CI runners give the pool 2 slow cores);
the full mode uses the complete 2k-tree corpus and writes
``BENCH_fault_tolerance.json``, stamped with the git commit it measured and
the machine (``stamp.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.datasets import clustered_corpus
from repro.join import batch_self_join
from repro.join import faults
from stamp import machine_stamp

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_fault_tolerance.json"

THRESHOLD = 3.0
CHUNK_SIZE = 64
CRASH_SPEC = "worker_crash:0.2"
CRASH_SEED = 7


def _run_join(trees, workers: int, plan) -> tuple:
    with faults.use_plan(plan):
        started = time.perf_counter()
        result = batch_self_join(
            trees, THRESHOLD, workers=workers, chunk_size=CHUNK_SIZE,
            early_accept=False,
        )
        elapsed = time.perf_counter() - started
    return result, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small corpus CI gate")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    num_clusters = 20 if args.quick else 200  # x10 trees per cluster
    trees = clustered_corpus(
        num_clusters=num_clusters, cluster_size=10, tree_size=12, rng=42
    )
    print(f"corpus: {len(trees)} trees, threshold {THRESHOLD:g}")

    serial, serial_time = _run_join(trees, workers=1, plan=None)
    print(f"serial            {serial_time:8.2f}s   matches={len(serial.matches)}")

    mp_clean, clean_time = _run_join(trees, workers=2, plan=None)
    print(
        f"mp-clean          {clean_time:8.2f}s   matches={len(mp_clean.matches)} "
        f"retried={mp_clean.stats.retried_chunks}"
    )

    crash_plan = faults.FaultPlan.parse(CRASH_SPEC, seed=CRASH_SEED)
    mp_crash, crash_time = _run_join(trees, workers=2, plan=crash_plan)
    stats = mp_crash.stats
    print(
        f"mp-crash (20%)    {crash_time:8.2f}s   matches={len(mp_crash.matches)} "
        f"retried={stats.retried_chunks} failed_workers={stats.failed_workers} "
        f"degraded_to={stats.degraded_to or '-'} poisoned={stats.poisoned_pairs}"
    )

    failures = []
    if mp_clean.matches != serial.matches:
        failures.append("clean mp match list differs from serial")
    if mp_crash.matches != serial.matches:
        failures.append("crash-injected match list differs from serial")
    if stats.retried_chunks <= 0:
        failures.append("no chunk retries recorded under 20% crash injection")
    if stats.poisoned_pairs:
        failures.append(f"{stats.poisoned_pairs} pairs poisoned (crashes must be retryable)")

    payload = {
        "benchmark": "fault_tolerance",
        **machine_stamp(),
        "quick": args.quick,
        "corpus_trees": len(trees),
        "threshold": THRESHOLD,
        "crash_spec": CRASH_SPEC,
        "serial_seconds": round(serial_time, 3),
        "mp_clean_seconds": round(clean_time, 3),
        "mp_crash_seconds": round(crash_time, 3),
        "matches": len(serial.matches),
        "crash_retried_chunks": stats.retried_chunks,
        "crash_failed_workers": stats.failed_workers,
        "crash_degraded_to": stats.degraded_to,
        "crash_recovery_overhead": round(crash_time / max(clean_time, 1e-9), 2),
    }
    output = args.output or (None if args.quick else DEFAULT_OUTPUT)
    if output is not None:
        output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("ok: crash-injected join bit-identical to serial, retries recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
