#!/usr/bin/env python3
"""Benchmark: iterative SPF engines vs the recursive oracle.

Two benchmark families, tracking the perf trajectory of the distance core:

* **left/right** — the keyroot single-path functions ``Δ_L``/``Δ_R`` against
  the recursive engine on the PR-1 workloads (recorded in ``BENCH_spf.json``);
* **heavy / full RTED** — the inner-path program ``Δ_A`` (chain × boundary
  grid) and the full iterative RTED pipeline against the recursive engine on
  300-node heavy-strategy workloads of several shapes (deep, branchy, zigzag,
  mixed) plus a deep-path workload (recorded in ``BENCH_rted.json``).

Run with::

    PYTHONPATH=src python benchmarks/bench_spf.py            # full baselines
    PYTHONPATH=src python benchmarks/bench_spf.py --quick    # CI smoke (<1 min)

The committed JSON files carry the git commit, machine and Python version
they measured (``stamp.py``); regenerate to compare.  In ``--quick`` mode the
workloads shrink, nothing is written unless ``--output``/``--output-rted``
are given explicitly, and the process exits non-zero if the SPF engine is
slower than the recursive engine anywhere — the CI regression gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.algorithms import (
    RTED,
    DecompositionEngine,
    HeavyFStrategy,
    LeftFStrategy,
    RightFStrategy,
    StrategyExecutor,
    optimal_strategy,
    spf_H,
    spf_L,
    spf_R,
)
from repro.datasets import random_tree
from repro.datasets.shapes import (
    left_branch_tree,
    make_shape,
    right_branch_tree,
    zigzag_tree,
)
from repro.trees import Node, Tree
from stamp import machine_stamp

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_spf.json"
DEFAULT_OUTPUT_RTED = Path(__file__).parent / "BENCH_rted.json"


def _path_tree(depth: int, label: object = "a") -> Tree:
    node = Node(label)
    for _ in range(depth):
        node = Node(label, [node])
    return Tree(node)


def _time(fn: Callable[[], object], repeats: int) -> tuple:
    """(best wall-clock seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


# --------------------------------------------------------------------------- #
# Left/right keyroot workloads (PR 1 baseline, BENCH_spf.json)
# --------------------------------------------------------------------------- #
def _lr_workloads(quick: bool) -> List[Dict]:
    n = 81 if quick else 301
    r = 80 if quick else 300
    deep = 300 if quick else 1500
    return [
        {
            "name": f"left-branch-{n}",
            "trees": (left_branch_tree(n), left_branch_tree(n - 2, label="b")),
            "strategy": LeftFStrategy,
            "spf": spf_L,
        },
        {
            "name": f"right-branch-{n}",
            "trees": (right_branch_tree(n), right_branch_tree(n - 2, label="b")),
            "strategy": RightFStrategy,
            "spf": spf_R,
        },
        {
            "name": f"random-{r}",
            "trees": (random_tree(r, rng=20110713), random_tree(r, rng=20110714)),
            "strategy": LeftFStrategy,
            "spf": spf_L,
        },
        {
            "name": f"deep-path-{deep}-x-random-200",
            "trees": (_path_tree(deep), random_tree(200, rng=42)),
            "strategy": LeftFStrategy,
            "spf": spf_L,
        },
    ]


def run_lr_benchmark(quick: bool, spf_repeats: int = 3) -> Dict:
    results = []
    for workload in _lr_workloads(quick):
        tree_f, tree_g = workload["trees"]
        strategy_cls = workload["strategy"]
        spf = workload["spf"]
        entry: Dict = {"workload": workload["name"], "n_f": tree_f.n, "n_g": tree_g.n}

        recursive_time, recursive_distance = _time(
            lambda: DecompositionEngine(tree_f, tree_g, strategy_cls()).distance(), repeats=1
        )
        entry["recursive_seconds"] = recursive_time

        spf_time, spf_distance = _time(lambda: spf(tree_f, tree_g), repeats=spf_repeats)
        entry["spf_seconds"] = spf_time
        entry["spf_speedup"] = recursive_time / spf_time
        assert abs(spf_distance - recursive_distance) < 1e-9, workload["name"]

        entry["distance"] = float(recursive_distance)
        results.append(entry)
        _print_lr_entry(entry)

    return {
        "benchmark": "bench_spf",
        "description": "recursive decomposition engine vs iterative SPF kernels",
        **machine_stamp(),
        "results": results,
    }


def _print_lr_entry(entry: Dict) -> None:
    print(
        f"{entry['workload']:28s} recursive={entry['recursive_seconds']:8.3f}s  "
        f"spf={entry['spf_seconds']:7.3f}s ({entry['spf_speedup']:6.1f}x)"
    )


# --------------------------------------------------------------------------- #
# Heavy-path and full-RTED workloads (BENCH_rted.json)
# --------------------------------------------------------------------------- #
def _heavy_workloads(quick: bool) -> List[Dict]:
    if quick:
        return [
            {"name": "heavy-random-80", "trees": (random_tree(80, rng=1), random_tree(80, rng=2))},
            {"name": "heavy-zigzag-81", "trees": (zigzag_tree(81), zigzag_tree(79, label="b"))},
            {"name": "heavy-mixed-81", "trees": (make_shape("mixed", 81), make_shape("mixed", 81, label="b"))},
        ]
    return [
        {
            "name": "heavy-random-300",
            "trees": (random_tree(300, rng=20110713), random_tree(300, rng=20110714)),
        },
        {
            "name": "heavy-zigzag-301",
            "trees": (zigzag_tree(301), zigzag_tree(299, label="b")),
        },
        {
            "name": "heavy-mixed-301",
            "trees": (make_shape("mixed", 301), make_shape("mixed", 301, label="b")),
        },
        {
            "name": "heavy-deep-path-1500-x-random-200",
            "trees": (_path_tree(1500), random_tree(200, rng=42)),
        },
    ]


def _rted_workloads(quick: bool) -> List[Dict]:
    if quick:
        return [
            {"name": "rted-random-80", "trees": (random_tree(80, rng=5), random_tree(80, rng=6))},
        ]
    return [
        {
            "name": "rted-random-300",
            "trees": (random_tree(300, rng=5), random_tree(300, rng=6)),
        },
        {
            "name": "rted-mixed-301",
            "trees": (make_shape("mixed", 301), make_shape("mixed", 301, label="b")),
        },
        {
            "name": "rted-zigzag-301",
            "trees": (zigzag_tree(301), zigzag_tree(299, label="b")),
        },
    ]


def run_rted_benchmark(quick: bool, spf_repeats: int = 2) -> Dict:
    heavy_entries = []
    for workload in _heavy_workloads(quick):
        tree_f, tree_g = workload["trees"]
        entry: Dict = {"workload": workload["name"], "n_f": tree_f.n, "n_g": tree_g.n}

        recursive_time, recursive_distance = _time(
            lambda: DecompositionEngine(tree_f, tree_g, HeavyFStrategy()).distance(), repeats=1
        )
        entry["recursive_seconds"] = recursive_time

        spf_time, spf_distance = _time(
            lambda: spf_H(tree_f, tree_g), repeats=spf_repeats
        )
        entry["spf_seconds"] = spf_time
        entry["speedup"] = recursive_time / spf_time
        entry["distance"] = float(recursive_distance)
        assert abs(spf_distance - recursive_distance) < 1e-9, workload["name"]
        heavy_entries.append(entry)
        print(
            f"{entry['workload']:36s} recursive={recursive_time:8.3f}s  "
            f"spf={spf_time:7.3f}s ({entry['speedup']:6.1f}x)"
        )

    rted_entries = []
    for workload in _rted_workloads(quick):
        tree_f, tree_g = workload["trees"]
        entry = {"workload": workload["name"], "n_f": tree_f.n, "n_g": tree_g.n}
        strategy = optimal_strategy(tree_f, tree_g).strategy

        recursive_time, recursive_distance = _time(
            lambda: DecompositionEngine(tree_f, tree_g, strategy).distance(), repeats=1
        )
        spf_time, spf_distance = _time(
            lambda: StrategyExecutor(tree_f, tree_g, strategy).distance(), repeats=spf_repeats
        )
        entry["recursive_seconds"] = recursive_time
        entry["spf_seconds"] = spf_time
        entry["speedup"] = recursive_time / spf_time
        entry["distance"] = float(recursive_distance)
        assert abs(spf_distance - recursive_distance) < 1e-9, workload["name"]
        rted_entries.append(entry)
        print(
            f"{entry['workload']:36s} recursive={recursive_time:8.3f}s  "
            f"spf={spf_time:7.3f}s ({entry['speedup']:6.1f}x)"
        )

    return {
        "benchmark": "bench_rted",
        "description": (
            "iterative heavy-path SPF + full RTED pipeline vs the recursive oracle"
        ),
        **machine_stamp(),
        "heavy": heavy_entries,
        "rted": rted_entries,
        "heavy_median_speedup": statistics.median(e["speedup"] for e in heavy_entries),
        "rted_median_speedup": statistics.median(e["speedup"] for e in rted_entries),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=None, help="BENCH_spf.json path")
    parser.add_argument(
        "--output-rted", type=Path, default=None, help="BENCH_rted.json path"
    )
    parser.add_argument("--repeats", type=int, default=3, help="repetitions per SPF timing")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workloads, no files written by default; non-zero exit if the "
        "spf engine is slower than the recursive engine anywhere (CI smoke)",
    )
    parser.add_argument(
        "--skip-lr", action="store_true", help="skip the left/right keyroot family"
    )
    args = parser.parse_args()

    lr_report: Optional[Dict] = None
    if not args.skip_lr:
        lr_report = run_lr_benchmark(args.quick, spf_repeats=args.repeats)
    rted_report = run_rted_benchmark(args.quick, spf_repeats=max(2, args.repeats - 1))

    print()
    print(f"heavy-path median speedup:  {rted_report['heavy_median_speedup']:.1f}x (target >= 5x)")
    print(f"full-RTED median speedup:   {rted_report['rted_median_speedup']:.1f}x")

    if not args.quick or args.output is not None:
        output = args.output or DEFAULT_OUTPUT
        if lr_report is not None:
            output.write_text(json.dumps(lr_report, indent=2) + "\n", encoding="utf-8")
            print(f"wrote {output}")
    if not args.quick or args.output_rted is not None:
        output_rted = args.output_rted or DEFAULT_OUTPUT_RTED
        output_rted.write_text(json.dumps(rted_report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {output_rted}")

    if args.quick:
        slowest = min(
            [e["speedup"] for e in rted_report["heavy"]]
            + [e["speedup"] for e in rted_report["rted"]]
            + ([e["spf_speedup"] for e in lr_report["results"]] if lr_report is not None else [])
        )
        if slowest < 1.0:
            print(f"FAIL: spf engine slower than the recursive engine ({slowest:.2f}x)")
            return 1
        print(f"smoke OK: minimum spf speedup {slowest:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
