#!/usr/bin/env python3
"""Benchmark: amortized batch TED — workspace + interning vs per-call contexts.

Three measurement families, all with distances asserted identical between
the two modes (the workspace layer is bit-exact by contract):

* **small-batch** — 1000 pairs over clustered corpora of small trees
  (12 and 48 nodes, the sizes a join cascade feeds the exact verifier by the
  thousands), per-pair wall-clock measured individually for ``rted`` (the
  default verifier) and ``zhang-l``; the reported figure is the *median
  per-pair speedup* of workspace mode over a fresh workspace per call
  (each call's context builds a private one).
* **one-vs-many** — a single query tree against a 1000-tree corpus, the
  other workload whose per-tree setup a workspace amortizes across every
  pair.
* **join-verify** — the ``bench_join_scale.py`` workload (clustered self
  join, τ = 3, cascade on) run through ``batch_similarity_join`` with the
  ``"zhang-l"`` registry name (amortized: workspace plus batch kernel) vs a
  pre-built ``make_algorithm("zhang-l")`` instance (a fresh workspace per
  pair); the figure is the verify-stage speedup.

A fractional-cost small-batch entry is included for honest reporting: there
the unit-cost small-pair kernel does not apply and the gain comes from
cache/interning amortization alone.

Run with::

    PYTHONPATH=src python benchmarks/bench_batch_ted.py           # full, writes BENCH_batch_ted.json
    PYTHONPATH=src python benchmarks/bench_batch_ted.py --quick   # CI smoke gate

In ``--quick`` mode nothing is written unless ``--output`` is given and the
process exits non-zero unless the small-batch ``rted`` median speedup is
≥ 2.5x and the join verify-stage speedup is ≥ 1.2x (conservative CI gates;
the committed full-mode ``BENCH_batch_ted.json`` records the reference
numbers, stamped with the git commit it measured and the machine
(``stamp.py``)).  ``BENCH_batch.json`` belongs to ``bench_batch_kernel.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.algorithms import TedWorkspace, make_algorithm
from repro.costs import WeightedCostModel
from repro.datasets import clustered_corpus, random_tree
from repro.join import TreeCorpus, batch_self_join, default_cascade
from stamp import machine_stamp

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_batch_ted.json"

JOIN_THRESHOLD = 3.0


def _pair_times(
    trees, pairs, algorithm: str, workspace: Optional[TedWorkspace], cost_model=None
) -> Tuple[List[float], List[float]]:
    """Per-pair wall-clock times and distances for one mode."""
    if workspace is not None:
        algo = make_algorithm(algorithm, workspace=workspace)
    else:
        algo = make_algorithm(algorithm)
    times: List[float] = []
    distances: List[float] = []
    for i, j in pairs:
        start = time.perf_counter()
        result = algo.compute(trees[i], trees[j], cost_model=cost_model)
        times.append(time.perf_counter() - start)
        distances.append(result.distance)
    return times, distances


def run_pair_batch(
    name: str,
    trees,
    pairs,
    algorithm: str,
    cost_model=None,
) -> Dict:
    """One workload entry: fresh-context vs workspace mode over `pairs`."""
    corpus = TreeCorpus(trees)
    # Warm-up pass (first-touch JIT-free, but numpy/alloc caches settle).
    _pair_times(corpus.trees, pairs[:20], algorithm, None, cost_model)
    off_times, off_distances = _pair_times(corpus.trees, pairs, algorithm, None, cost_model)
    workspace = TedWorkspace(cost_model, interner=corpus.interner())
    _pair_times(corpus.trees, pairs[:20], algorithm, workspace, cost_model)
    on_times, on_distances = _pair_times(corpus.trees, pairs, algorithm, workspace, cost_model)
    assert off_distances == on_distances, f"{name}: workspace changed distances"

    entry = {
        "workload": name,
        "algorithm": algorithm,
        "cost_model": "unit" if cost_model is None else repr(cost_model),
        "pairs": len(pairs),
        "per_pair_us_fresh_median": median(off_times) * 1e6,
        "per_pair_us_workspace_median": median(on_times) * 1e6,
        "total_s_fresh": sum(off_times),
        "total_s_workspace": sum(on_times),
        "median_per_pair_speedup": median(off_times) / median(on_times),
        "workspace_stats": workspace.stats.as_dict(),
    }
    print(
        f"{name:<28} {algorithm:<8} median {entry['per_pair_us_fresh_median']:8.0f}us"
        f" -> {entry['per_pair_us_workspace_median']:7.0f}us"
        f"  speedup {entry['median_per_pair_speedup']:5.1f}x",
        flush=True,
    )
    return entry


def run_join_verify(num_trees: int, early_accept: bool) -> Dict:
    """The bench_join_scale workload, verify stage amortized vs per pair.

    With ``early_accept=False`` every cascade survivor runs exact TED — the
    isolated verify-stage measurement (the default-cascade variant verifies
    only the few pairs the upper bound cannot settle, so its verify time is
    tiny and noisy; it is reported for completeness, not gated on).  Both
    modes run the full default cascade explicitly: left to the planner, the
    registry name would skip the O(n·m) stages for its small-pair-verified
    pairs, and the two modes would verify different survivor sets.
    """
    trees = clustered_corpus(
        num_clusters=max(1, num_trees // 10),
        cluster_size=10,
        tree_size=12,
        num_edits=2,
        rng=20110713,
    )
    # A registry name runs amortized; a pre-built instance runs exactly as
    # configured, one fresh-context compute() per pair.
    modes = {"fresh": make_algorithm("zhang-l"), "workspace": "zhang-l"}
    results = {
        mode: batch_self_join(
            trees, JOIN_THRESHOLD, algorithm=algorithm, early_accept=early_accept,
            cascade=default_cascade(),
        )
        for mode, algorithm in modes.items()
    }
    assert results["fresh"].matches == results["workspace"].matches, "join results diverged"
    off, on = results["fresh"].stats, results["workspace"].stats
    name = "join-verify" + ("" if early_accept else " (full verification)")
    entry = {
        "workload": name,
        "num_trees": len(trees),
        "threshold": JOIN_THRESHOLD,
        "algorithm": "zhang-l",
        "early_accept": early_accept,
        "exact_pairs_verified": on.exact_computed,
        "verify_s_fresh": off.verify_time,
        "verify_s_workspace": on.verify_time,
        "verify_stage_speedup": off.verify_time / on.verify_time,
        "total_s_fresh": off.total_time,
        "total_s_workspace": on.total_time,
    }
    print(
        f"{name:<28} n={len(trees):<6} verify {off.verify_time:6.2f}s"
        f" -> {on.verify_time:5.2f}s  speedup {entry['verify_stage_speedup']:5.1f}x"
        f"  ({on.exact_computed} exact pairs)",
        flush=True,
    )
    return entry


def build_pairs(trees, count: int, seed: int = 41) -> List[Tuple[int, int]]:
    """Candidate-like pair list: all intra-cluster pairs first, then wraps."""
    import random as _random

    rng = _random.Random(seed)
    n = len(trees)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    while len(pairs) < count:
        pairs.append((rng.randrange(n), rng.randrange(n)))
    return pairs[:count]


def run_benchmark(pair_count: int, join_trees: int) -> Dict:
    entries: List[Dict] = []

    small = clustered_corpus(
        num_clusters=10, cluster_size=10, tree_size=12, num_edits=2, rng=1
    )
    medium = clustered_corpus(
        num_clusters=8, cluster_size=8, tree_size=48, num_edits=3, rng=2
    )
    pairs_small = build_pairs(small, pair_count)
    pairs_medium = build_pairs(medium, min(pair_count, 400))

    entries.append(run_pair_batch("small-batch (12 nodes)", small, pairs_small, "rted"))
    entries.append(run_pair_batch("small-batch (12 nodes)", small, pairs_small, "zhang-l"))
    entries.append(run_pair_batch("small-batch (48 nodes)", medium, pairs_medium, "rted"))
    entries.append(
        run_pair_batch(
            "small-batch fractional",
            small,
            pairs_small[: min(pair_count, 400)],
            "rted",
            cost_model=WeightedCostModel(1.3, 0.7, 1.9),
        )
    )

    query = random_tree(48, rng=99)
    corpus = [query] + list(
        clustered_corpus(num_clusters=10, cluster_size=10, tree_size=32, num_edits=3, rng=5)
    )
    one_vs_many = [(0, j) for j in range(1, min(len(corpus), pair_count + 1))]
    entries.append(run_pair_batch("one-vs-many (32 nodes)", corpus, one_vs_many, "rted"))

    entries.append(run_join_verify(join_trees, early_accept=False))
    entries.append(run_join_verify(join_trees, early_accept=True))

    # The headline is the acceptance workload: the 1000-pair batch at the
    # size the join cascade actually feeds the exact verifier (12 nodes,
    # bench_join_scale's TREE_SIZE), with the default verifier.  The other
    # entries (48-node, fractional, one-vs-many) are reported alongside.
    headline = next(
        e for e in entries
        if e["workload"] == "small-batch (12 nodes)" and e["algorithm"] == "rted"
    )
    return {
        "benchmark": "amortized batch TED (workspace + interning vs per-call contexts)",
        **machine_stamp(),
        "entries": entries,
        "headline_median_per_pair_speedup": headline["median_per_pair_speedup"],
        "join_verify_speedup": next(
            e["verify_stage_speedup"]
            for e in entries
            if e["workload"] == "join-verify (full verification)"
        ),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small CI smoke run")
    parser.add_argument("--pairs", type=int, default=1000, help="pairs per small-batch workload")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.quick:
        report = run_benchmark(pair_count=200, join_trees=150)
        batch_gate = report["headline_median_per_pair_speedup"]
        join_gate = report["join_verify_speedup"]
        print(
            f"quick gates: small-batch rted median speedup {batch_gate:.1f}x (≥2.5x), "
            f"join verify speedup {join_gate:.1f}x (≥1.2x)"
        )
        if args.output is not None:
            args.output.write_text(json.dumps(report, indent=2) + "\n")
        return 0 if batch_gate >= 2.5 and join_gate >= 1.2 else 1

    report = run_benchmark(pair_count=args.pairs, join_trees=1000)
    output = args.output if args.output is not None else DEFAULT_OUTPUT
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
