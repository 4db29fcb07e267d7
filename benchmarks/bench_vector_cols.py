#!/usr/bin/env python3
"""Micro-benchmark: tune ``MIN_VECTOR_COLS`` (NumPy row-kernel crossover).

The left/right single-path kernel sweeps each keyroot-pair table row with a
handful of ``O(cols)`` NumPy operations whose fixed dispatch overhead only
pays off for wide tables; regions narrower than
:data:`repro.algorithms.spf_numpy.MIN_VECTOR_COLS` run through the scalar
kernel instead.  This benchmark sweeps candidate crossover values
over the shape families whose region-width distributions differ the most —

* ``random`` (branchy: almost all regions narrow),
* ``full-binary`` (mixed widths),
* ``left-branch`` / ``zigzag`` (few keyroots, wide spine regions),

timing full spf-engine distances per (family, size, candidate) — each
candidate is set by patching the module constant for the run — and prints
the total per candidate.  The constant in ``spf_numpy.py`` is the winner on
the reference container (see the rationale in ``DESIGN.md``); to retune it
for other hardware, run this benchmark and change the constant.

Run with::

    PYTHONPATH=src python benchmarks/bench_vector_cols.py [--repeats 5]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.algorithms import spf_numpy
from repro.algorithms.spf import spf_L
from repro.datasets import random_tree
from repro.datasets.shapes import make_shape

CANDIDATES = [4, 8, 12, 16, 24, 32, 48, 64]

#: (family, size) workloads; two independently seeded trees per workload.
WORKLOADS = [
    ("random", 40),
    ("random", 150),
    ("full-binary", 63),
    ("full-binary", 255),
    ("left-branch", 60),
    ("left-branch", 200),
    ("zigzag", 60),
    ("zigzag", 200),
]


def _pair(family: str, size: int):
    if family == "random":
        return random_tree(size, rng=size), random_tree(size, rng=size + 1)
    return make_shape(family, size), make_shape(family, size)


def run_sweep(repeats: int) -> Dict:
    pairs = {workload: _pair(*workload) for workload in WORKLOADS}
    default = spf_numpy.MIN_VECTOR_COLS
    results: List[Dict] = []
    try:
        for candidate in CANDIDATES:
            spf_numpy.MIN_VECTOR_COLS = candidate
            per_workload = {}
            total = 0.0
            for workload, (tree_f, tree_g) in pairs.items():
                best = float("inf")
                for _ in range(repeats):
                    start = time.perf_counter()
                    spf_L(tree_f, tree_g)
                    best = min(best, time.perf_counter() - start)
                per_workload["{}-{}".format(*workload)] = best
                total += best
            results.append(
                {"min_vector_cols": candidate, "total_seconds": total, "workloads": per_workload}
            )
            print(f"MIN_VECTOR_COLS={candidate:>3}: total {total * 1e3:8.2f} ms", flush=True)
    finally:
        spf_numpy.MIN_VECTOR_COLS = default
    winner = min(results, key=lambda entry: entry["total_seconds"])
    print(f"best: MIN_VECTOR_COLS={winner['min_vector_cols']}")
    return {"benchmark": "MIN_VECTOR_COLS crossover sweep", "repeats": repeats, "entries": results,
            "best": winner["min_vector_cols"], "committed_default": default}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5, help="best-of-N timing per cell")
    parser.add_argument("--output", type=Path, default=None, help="optional JSON report path")
    args = parser.parse_args(argv)
    report = run_sweep(args.repeats)
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
