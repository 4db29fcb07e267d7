#!/usr/bin/env python3
"""Benchmark: the small-pair program, Python twin vs batched C kernel.

Measures the per-pair cost of small unit-cost TED through the two
implementations of the small-pair program — always asserting bit-identical
results between them first:

* **scalar** — the per-pair fast path (``TedWorkspace.compute_small``)
  running the Python twin (timed with ``RTED_NO_NATIVE=1``), the
  ~130 µs/pair baseline recorded by ``bench_batch_ted.py``;
* **native** — the C kernel
  (:func:`repro.algorithms.native.native_batch`, a runtime-compiled C
  library), one library call per batch.

Measurement families:

* **headline** — the 1000-pair 12-node clustered ``rted`` batch of
  ``bench_batch_ted.py`` (the ROADMAP target: ≤ 10 µs/pair, ≥ 10x over the
  PR 4 scalar baseline), unbounded and τ-bounded (cutoff 3);
* **size classes** — the speedup curve at 8/16/32/64-node trees;
* **budget check** (``--sweep``) — per-pair cost of the small-pair program
  (C kernel and twin) vs RTED's strategy on the spf executor, on comb,
  zigzag and caterpillar pairs at the largest size whose cheaper sweep
  still fits ``SMALL_PAIR_CELLS``: the costliest pairs the cell gate
  admits.

Run with::

    PYTHONPATH=src python benchmarks/bench_batch_kernel.py           # full, writes BENCH_batch.json
    PYTHONPATH=src python benchmarks/bench_batch_kernel.py --sweep   # full + budget check
    PYTHONPATH=src python benchmarks/bench_batch_kernel.py --quick   # CI smoke gate

In ``--quick`` mode nothing is written unless ``--output`` is given, and the
process exits non-zero unless the C kernel is bit-identical to the scalar
reference, does not regress it, and stays ≤ 25 µs/pair on the reduced
headline — conservative CI gates; without a compiler only the scalar path
runs.  The committed full-mode ``BENCH_batch.json`` records the reference
numbers (≈ 3 µs/pair native on the baseline container); it predates the
removal of the NumPy lockstep kernel, whose column it still carries.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.algorithms import TedWorkspace, make_algorithm
from repro.algorithms.base import CutoffExceeded
from repro.algorithms.batch_kernel import (
    SMALL_PAIR_CELLS,
    build_corpus_pack,
    choose_sweep,
    sweep_sizes,
)
from repro.algorithms.native import (
    KILL_SWITCH,
    native_available,
    native_batch,
    native_provider,
)
from repro.datasets import clustered_corpus
from repro.datasets.realworld import treefam_like_tree
from repro.datasets.shapes import right_branch_tree, zigzag_tree

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_batch.json"

#: PR 4's scalar small-pair baseline on the headline workload (the
#: ``per_pair_us_workspace_median`` of the previous ``BENCH_batch.json``).
PR4_BASELINE_US = 129.86

HEADLINE_CUTOFF = 3.0


def make_workload(tree_size: int, pairs: int, rng: int = 1):
    """The clustered verify-stage workload of ``bench_batch_ted.py``."""
    trees = clustered_corpus(
        num_clusters=10, cluster_size=10, tree_size=tree_size, num_edits=2, rng=rng
    )
    all_pairs = [
        (i, j) for i in range(len(trees)) for j in range(i + 1, len(trees))
    ]
    random.Random(41).shuffle(all_pairs)
    return trees, all_pairs[:pairs]


@contextmanager
def python_twin():
    """Pin the small-pair program to its Python twin inside the block."""
    previous = os.environ.get(KILL_SWITCH)
    os.environ[KILL_SWITCH] = "1"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[KILL_SWITCH]
        else:
            os.environ[KILL_SWITCH] = previous


def scalar_run(workspace, trees, pairs, cutoff):
    """(total_seconds, results) for the per-pair Python twin."""
    compute_small = workspace.compute_small
    out: List[Tuple] = []
    with python_twin():
        start = time.perf_counter()
        for i, j in pairs:
            try:
                value, cells, _ = compute_small(trees[i], trees[j], cutoff=cutoff)
                out.append((value, cells, False))
            except CutoffExceeded as exceeded:
                out.append((exceeded.lower_bound, exceeded.subproblems, True))
        elapsed = time.perf_counter() - start
    return elapsed, out


def batch_run(kernel, pack, fi, gi, cutoff):
    """(total_seconds, results) for one whole-batch kernel call."""
    start = time.perf_counter()
    out = kernel(pack, pack, fi, gi, cutoff=cutoff)
    elapsed = time.perf_counter() - start
    if out is None:
        return None, None
    values, cells, aborted = out
    results = [
        (float(values[p]), int(cells[p]), bool(aborted[p]))
        for p in range(len(fi))
    ]
    return elapsed, results


def measure_kernels(trees, pairs, cutoff, repeats: int) -> Dict:
    """Median per-pair µs for every kernel on one workload, identity-checked.

    In bounded mode pairs failing the ``|n − m| ≥ τ`` pre-check are excluded
    (the chunk driver answers them without touching any kernel), so every
    kernel runs the same lane set.
    """
    workspace = TedWorkspace()
    if cutoff is not None:
        pairs = [
            (i, j) for i, j in pairs if abs(trees[i].n - trees[j].n) < cutoff
        ]
    pack = build_corpus_pack(trees, workspace.interner)
    # Each lane runs in the direction the cell gate picks, as in
    # kernel_chunk_entries: the pack's mirrored rows for the right sweep.
    fi: List[int] = []
    gi: List[int] = []
    for i, j in pairs:
        sweep = choose_sweep(sweep_sizes(trees[i]), sweep_sizes(trees[j]), SMALL_PAIR_CELLS)
        shift = 0 if sweep == "left" else pack.n_trees
        fi.append(shift + i)
        gi.append(shift + j)
    for i, j in pairs:  # warm the per-tree caches out of the timed region
        workspace.compute_small(trees[i], trees[j])

    times: Dict[str, List[float]] = {"scalar": [], "native": []}
    reference = None
    for _ in range(repeats):
        elapsed, results = scalar_run(workspace, trees, pairs, cutoff)
        times["scalar"].append(elapsed)
        if reference is None:
            reference = results
        assert results == reference

        if native_available():
            elapsed, results = batch_run(native_batch, pack, fi, gi, cutoff)
            assert results is not None
            assert results == reference, "native kernel diverged from scalar"
            times["native"].append(elapsed)

    n = max(1, len(pairs))
    entry: Dict = {"pairs": len(pairs), "cutoff": cutoff, "per_pair_us": {}}
    for kernel, samples in times.items():
        if samples:
            entry["per_pair_us"][kernel] = median(samples) / n * 1e6
    scalar_us = entry["per_pair_us"]["scalar"]
    entry["speedup_vs_scalar"] = {
        kernel: scalar_us / us
        for kernel, us in entry["per_pair_us"].items()
        if kernel != "scalar"
    }
    return entry


def run_headline(pairs: int, repeats: int) -> Dict:
    trees, pair_list = make_workload(12, pairs)
    unbounded = measure_kernels(trees, pair_list, None, repeats)
    bounded = measure_kernels(trees, pair_list, HEADLINE_CUTOFF, repeats)
    best = unbounded["per_pair_us"].get("native", unbounded["per_pair_us"]["scalar"])
    return {
        "workload": f"clustered 12-node corpus, {pairs} pairs, rted verify stage, unit costs",
        "pr4_scalar_baseline_us": PR4_BASELINE_US,
        "unbounded": unbounded,
        "bounded": bounded,
        "best_batch_per_pair_us": best,
        "speedup_vs_pr4_baseline": PR4_BASELINE_US / best,
    }


def run_size_classes(repeats: int, quick: bool) -> List[Dict]:
    entries = []
    for size in (8, 16, 32, 64):
        pairs = 200 if quick else (1000 if size <= 16 else 400)
        trees, pair_list = make_workload(size, pairs, rng=size)
        entry = measure_kernels(trees, pair_list, None, repeats)
        entry["tree_size"] = size
        entries.append(entry)
    return entries


def budget_pairs(cap: int = 1201) -> List[Tuple[str, object, object]]:
    """``(family, F, G)``: per shape family, the largest pair (up to ``cap``
    nodes, odd sizes) whose cheaper sweep fits ``SMALL_PAIR_CELLS``."""
    families = {
        "comb": lambda n, seed: right_branch_tree(n, label="ab"[seed]),
        "zigzag": lambda n, seed: zigzag_tree(n, label="ab"[seed]),
        "caterpillar": lambda n, seed: treefam_like_tree(rng=seed, target_size=n),
    }
    out = []
    for family, build in families.items():
        best = None
        for n in range(65, cap + 1, 2):
            f, g = build(n, 0), build(n, 1)
            if choose_sweep(sweep_sizes(f), sweep_sizes(g), SMALL_PAIR_CELLS) is None:
                break
            best = (family, f, g)
        out.append(best)
    return out


def run_budget_check(repeats: int) -> Dict:
    """The small-pair program vs the spf executor at the cell budget.

    The costliest pairs the cell gate admits: how long the C kernel's
    uncancellable call gets, and what the Python twin costs against
    RTED's own strategy when no compiler is present.
    """
    rows = []
    spf = make_algorithm("rted", engine="spf")
    for family, f, g in budget_pairs():
        per_path: Dict[str, float] = {}
        runs = [("twin", python_twin)]
        if native_available():
            runs.insert(0, ("native", nullcontext))
        reference = spf.compute(f, g)
        for path, pin in runs:
            workspace = TedWorkspace()
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                with pin():
                    value, cells, sweep = workspace.compute_small(f, g)
                samples.append(time.perf_counter() - start)
                assert value == reference.distance
            per_path[path] = median(samples) * 1e3
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            spf.compute(f, g)
            samples.append(time.perf_counter() - start)
        per_path["spf"] = median(samples) * 1e3
        rows.append({
            "family": family,
            "sizes": [f.n, g.n],
            "sweep": sweep,
            "small_pair_cells": cells,
            "rted_subproblems": reference.subproblems,
            "per_pair_ms": per_path,
        })
    return {"cell_budget": SMALL_PAIR_CELLS, "workloads": rows}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke gate")
    parser.add_argument(
        "--sweep", action="store_true", help="include the check at the cell budget"
    )
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    pairs = 200 if args.quick else 1000
    repeats = 3 if args.quick else 7

    provider = native_provider()
    print(f"native provider: {provider or 'none (Python twin only)'}")

    headline = run_headline(pairs, repeats)
    up = headline["unbounded"]["per_pair_us"]
    print(
        f"headline 12-node x{pairs}: scalar {up['scalar']:.1f} us/pair"
        + (f", native {up['native']:.2f} us/pair" if "native" in up else "")
    )
    print(
        f"best batch kernel: {headline['best_batch_per_pair_us']:.2f} us/pair "
        f"({headline['speedup_vs_pr4_baseline']:.1f}x vs PR 4 baseline "
        f"{PR4_BASELINE_US} us/pair)"
    )

    size_classes = run_size_classes(repeats, args.quick)
    for entry in size_classes:
        speed = ", ".join(
            f"{kernel} {us:.1f}" for kernel, us in entry["per_pair_us"].items()
        )
        print(f"size {entry['tree_size']:>2}: {speed} us/pair")

    report = {
        "benchmark": "small-pair TED (Python twin per pair vs batched C kernel)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "native_provider": provider,
        "pr4_scalar_baseline_us": PR4_BASELINE_US,
        "headline": headline,
        "size_classes": size_classes,
    }
    if args.sweep:
        report["budget_check"] = run_budget_check(3)
        for row in report["budget_check"]["workloads"]:
            per = ", ".join(f"{path} {ms:.1f}" for path, ms in row["per_pair_ms"].items())
            print(
                f"budget {row['family']} {row['sizes'][0]}x{row['sizes'][1]} "
                f"({row['sweep']} sweep, {row['small_pair_cells']} cells vs RTED "
                f"{row['rted_subproblems']}): {per} ms/pair"
            )

    if args.quick:
        failures = []
        best = headline["best_batch_per_pair_us"]
        if provider is not None:
            # Compiled leg: the ROADMAP target with generous CI headroom.
            if up.get("native", 0.0) > 25.0:
                failures.append(f"native kernel too slow: {up['native']:.1f} us/pair")
            if best > up["scalar"]:
                failures.append(
                    f"batch kernel regressed the scalar path "
                    f"({best:.1f} vs {up['scalar']:.1f} us/pair)"
                )
        if failures:
            for failure in failures:
                print(f"GATE FAILED: {failure}", file=sys.stderr)
            return 1
        print("quick gates passed (identity asserted on every run)")
        if args.output is None:
            return 0

    output = args.output or DEFAULT_OUTPUT
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
