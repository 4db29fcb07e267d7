#!/usr/bin/env python3
"""Benchmark: the corpus-indexed batch join at scale — cascade on vs off.

Self joins over clustered corpora of 2k (up to 10k with ``--trees``)
generated trees spanning the shape families of the Table 1 workload
(random, left/right branch, full binary, zigzag, mixed), at a selective
threshold where matches live (mostly) inside clusters.  Three measurement
families:

* **cascade off** — every pair runs exact TED (the pre-batch-subsystem
  behaviour, now through the batched small-pair kernel); measured at the 2k
  acceptance size (it is quadratic wall-clock, larger sizes are
  extrapolated in the report);
* **cascade on** — shared-branch candidate generation + the sound filter
  cascade over pair arrays, exact TED for the undecided rest.  These 12-node pairs are all
  verified by the small-pair program, so the planner runs only the size,
  label and binary-branch stages on them (no traversal-string bound, no
  upper-bound early accept) and every match distance is exact;
* **worker counts** — the cascade-on verification fan-out at 1 and 2
  processes (informational on single-core runners).

Run with::

    PYTHONPATH=src python benchmarks/bench_join_scale.py            # full, writes BENCH_join.json
    PYTHONPATH=src python benchmarks/bench_join_scale.py --quick    # CI smoke (<1 min)

The committed ``BENCH_join.json`` is a full run on a 2-vCPU x86-64 VM with
the C kernel compiled, stamped with the git commit it measured and the
machine; per-stage filter counts are embedded in every entry.  In ``--quick`` mode nothing is written unless ``--output`` is
given and the process exits non-zero if the cascade-on join is less than 3x
faster than cascade-off — the CI regression gate for the filter pipeline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.datasets import clustered_corpus
from repro.join import batch_self_join
from stamp import machine_stamp

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_join.json"

#: Selective threshold: clusters are ≤ ``num_edits`` = 2 edits wide, so τ = 3
#: matches within clusters and (almost) never across them.
THRESHOLD = 3.0
TREE_SIZE = 12
CLUSTER_SIZE = 10


def build_corpus(num_trees: int, seed: int = 20110713):
    return clustered_corpus(
        num_clusters=max(1, num_trees // CLUSTER_SIZE),
        cluster_size=CLUSTER_SIZE,
        tree_size=TREE_SIZE,
        num_edits=2,
        rng=seed,
    )


def run_join(trees, algorithm: str, cascade: bool, workers: int):
    start = time.perf_counter()
    result = batch_self_join(
        trees,
        THRESHOLD,
        algorithm=algorithm,
        use_cascade=cascade,
        workers=workers,
    )
    elapsed = time.perf_counter() - start
    entry = {
        "num_trees": len(trees),
        "threshold": THRESHOLD,
        "algorithm": algorithm,
        "cascade": cascade,
        "workers": workers,
        "seconds": elapsed,
        "matches": len(result.matches),
        "stats": result.stats.as_dict(),
    }
    return entry, result.match_set


def run_benchmark(
    algorithm: str, sizes: List[int], off_sizes: List[int], workers: List[int]
) -> Dict:
    entries: List[Dict] = []
    match_sets: Dict[int, set] = {}

    for num_trees in sizes:
        trees = build_corpus(num_trees)
        for worker_count in workers:
            entry, match_set = run_join(trees, algorithm, cascade=True, workers=worker_count)
            entries.append(entry)
            match_sets[num_trees] = match_set
            print(
                f"cascade=on  n={num_trees:>6} workers={worker_count} "
                f"{entry['seconds']:8.2f}s  matches={entry['matches']}",
                flush=True,
            )
        if num_trees in off_sizes:
            entry, match_set = run_join(trees, algorithm, cascade=False, workers=1)
            entries.append(entry)
            print(
                f"cascade=off n={num_trees:>6} workers=1 "
                f"{entry['seconds']:8.2f}s  matches={entry['matches']}",
                flush=True,
            )
            assert match_set == match_sets[num_trees], (
                "cascade on/off must produce identical match sets"
            )

    # Speedups at sizes where both variants ran (same worker count = 1).
    speedups = {}
    for num_trees in off_sizes:
        on_time = min(
            e["seconds"]
            for e in entries
            if e["num_trees"] == num_trees and e["cascade"] and e["workers"] == 1
        )
        off_time = min(
            e["seconds"] for e in entries if e["num_trees"] == num_trees and not e["cascade"]
        )
        speedups[str(num_trees)] = off_time / on_time
        print(f"speedup at n={num_trees}: {off_time / on_time:.1f}x", flush=True)

    return {
        "benchmark": "batch similarity self-join (cascade on/off)",
        "threshold": THRESHOLD,
        "tree_size": TREE_SIZE,
        "cluster_size": CLUSTER_SIZE,
        "shape_families": [
            "random", "left-branch", "right-branch", "full-binary", "zigzag", "mixed",
        ],
        "algorithm": algorithm,
        **machine_stamp(),
        "entries": entries,
        "speedup_cascade_on_vs_off": speedups,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small CI smoke run")
    parser.add_argument(
        "--trees",
        type=int,
        default=2000,
        help="largest cascade-on corpus size (cascade-off always runs at the "
        "acceptance size of 2000, or the corpus size if smaller)",
    )
    parser.add_argument(
        "--algorithm",
        default="zhang-l",
        help="exact verifier (zhang-l keeps the quadratic cascade-off "
        "baseline tractable on small trees; the cascade itself is "
        "algorithm-independent)",
    )
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.quick:
        sizes = [300]
        off_sizes = [300]
        workers = [1]
    else:
        sizes = sorted({500, 1000, min(args.trees, 2000), args.trees})
        off_sizes = [min(args.trees, 2000)]
        workers = [1, 2]

    report = run_benchmark(args.algorithm, sizes, off_sizes, workers)

    if args.quick:
        gate = min(report["speedup_cascade_on_vs_off"].values())
        print(f"quick gate: cascade speedup {gate:.1f}x (required ≥ 3x)")
        if args.output is not None:
            args.output.write_text(json.dumps(report, indent=2) + "\n")
        return 0 if gate >= 3.0 else 1

    output = args.output if args.output is not None else DEFAULT_OUTPUT
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
