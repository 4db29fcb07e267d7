#!/usr/bin/env python3
"""Benchmark: τ-bounded exact verification vs unbounded verification.

Three measurement families, all with match sets asserted identical between
bounded and unbounded runs (bounded verification is exact below the cutoff
by contract):

* **join-verify (PR 3 corpus)** — the ``bench_join_scale.py`` 2k-tree
  clustered self-join (τ = 3, cascade on, ``early_accept=False`` so every
  survivor runs exact TED): the join's verified pair list is timed through
  ``batch_distances`` with ``cutoff=τ`` (what the join runs) and with
  ``cutoff=None``.  On this
  corpus the cascade is highly selective, so most survivors are true
  matches and the gain comes from the τ-band restricting every pair's DP.
* **join-verify (borderline clusters)** — clusters as wide as the
  threshold (``num_edits ≈ τ``), the regime where the bound cascade cannot
  decide and the verifier does the real work: most survivors are
  non-matches whose computation the bounded kernels cut short
  (``JoinStats.aborted_early``).
* **pair-level** — single-pair ``compute(cutoff=τ)`` vs ``compute()`` at
  64 and 128 nodes for distant pairs (abort fires) and near pairs (τ-band
  only), for ``zhang-l`` and ``rted``.

Run with::

    PYTHONPATH=src python benchmarks/bench_bounded.py           # full, writes BENCH_bounded.json
    PYTHONPATH=src python benchmarks/bench_bounded.py --quick   # CI smoke gate

In ``--quick`` mode nothing is written unless ``--output`` is given and the
process exits non-zero unless the borderline join verify-stage speedup is
≥ 1.15x and the distant-pair zhang-l speedup at 128 nodes is ≥ 1.5x
(conservative CI gates; the committed full-mode ``BENCH_bounded.json``
records the reference numbers, stamped with the git commit it measured and
the machine, ``stamp.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import make_algorithm
from repro.costs import UNIT_COST
from repro.datasets import clustered_corpus, perturb_tree, random_tree
from repro.join import BatchRefiner, JoinStats, Planner, TreeCorpus, batch_distances, execute_plan
from stamp import machine_stamp

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_bounded.json"

#: The bench_join_scale.py workload parameters (the PR 3 acceptance corpus).
PR3_THRESHOLD = 3.0
PR3_TREE_SIZE = 12
PR3_CLUSTER_SIZE = 10


class _RecordingRefiner(BatchRefiner):
    """The join's refiner, also keeping the pair list it verifies."""

    def refine(self, pairs, cutoff, on_chunk):
        self.pairs = list(pairs)
        return super().refine(pairs, cutoff, on_chunk)


def _join_survivors(trees, threshold: float, algorithm: str):
    """The unit-cost self-join's matches and its verified (survivor) pairs,
    with ``early_accept=False`` so every survivor runs exact TED."""
    corpus = TreeCorpus(trees)
    refiner = _RecordingRefiner(corpus, None, algorithm=algorithm)
    plan = Planner(UNIT_COST).plan_join(
        corpus, None, threshold, refiner, early_accept=False
    )
    matches = execute_plan(plan, JoinStats())
    return {(i, j) for i, j, _ in matches}, getattr(refiner, "pairs", [])


def run_join_verify(
    name: str,
    trees,
    threshold: float,
    algorithm: str = "zhang-l",
    repeats: int = 3,
) -> Dict:
    """Verify-stage wall clock, bounded vs unbounded (best of ``repeats``).

    The join's survivor list runs through :func:`batch_distances` with
    ``cutoff=τ`` (the join's verifier) and ``cutoff=None``; each call
    builds its corpus afresh, as a join call does.
    """
    join_matches, survivors = _join_survivors(trees, threshold, algorithm)
    times = {True: [], False: []}
    results = {}
    for _ in range(repeats):
        for bounded in (False, True):
            start = time.perf_counter()
            entries = batch_distances(
                trees, None, survivors, algorithm=algorithm,
                cutoff=threshold if bounded else None,
            )
            times[bounded].append(time.perf_counter() - start)
            results[bounded] = entries
    for bounded in (False, True):
        assert {(i, j) for i, j, d, *_ in results[bounded] if d < threshold} == join_matches, (
            f"{name}: {'bounded' if bounded else 'unbounded'} verification "
            "changed the match set"
        )
    off, on = min(times[False]), min(times[True])
    aborted = sum(1 for entry in results[True] if entry[4])
    entry = {
        "workload": name,
        "num_trees": len(trees),
        "threshold": threshold,
        "algorithm": algorithm,
        "exact_pairs_verified": len(survivors),
        "exact_matched": len(join_matches),
        "aborted_early": aborted,
        "verify_s_unbounded": off,
        "verify_s_bounded": on,
        "verify_stage_speedup": off / on,
    }
    print(
        f"{name:<34} n={len(trees):<5} verify {off:7.3f}s -> {on:7.3f}s"
        f"  speedup {entry['verify_stage_speedup']:5.2f}x"
        f"  ({len(survivors)} verified, {aborted} aborted)",
        flush=True,
    )
    return entry


def run_pair_level(size: int, algorithm: str, reps: int) -> List[Dict]:
    """Distant-pair (abort fires) and near-pair (band only) single-pair runs."""
    entries = []
    algo = make_algorithm(algorithm)
    distant = (random_tree(size, rng=1), random_tree(size, rng=2))
    near_base = random_tree(size, rng=3)
    near = (near_base, perturb_tree(near_base, 3, rng=4))
    for kind, (f, g) in (("distant", distant), ("near", near)):
        exact = algo.compute(f, g).distance
        cutoff = 8.0
        start = time.perf_counter()
        for _ in range(reps):
            algo.compute(f, g)
        full = (time.perf_counter() - start) / reps
        start = time.perf_counter()
        for _ in range(reps):
            result = algo.compute(f, g, cutoff=cutoff)
        bounded = (time.perf_counter() - start) / reps
        assert result.bounded == (exact >= cutoff)
        entry = {
            "workload": f"pair-level {kind}",
            "algorithm": algorithm,
            "size": size,
            "cutoff": cutoff,
            "distance": exact,
            "bounded": exact >= cutoff,
            "per_pair_ms_unbounded": full * 1e3,
            "per_pair_ms_bounded": bounded * 1e3,
            "speedup": full / bounded,
        }
        print(
            f"pair-level {kind:<8} {algorithm:<8} n={size:<4} d={exact:<6g}"
            f" {full * 1e3:8.2f}ms -> {bounded * 1e3:8.2f}ms"
            f"  speedup {entry['speedup']:5.2f}x",
            flush=True,
        )
        entries.append(entry)
    return entries


def borderline_corpus(num_trees: int, tree_size: int, seed: int = 42):
    """Clusters as wide as the join threshold: the verifier-bound regime."""
    return clustered_corpus(
        num_clusters=max(1, num_trees // 10),
        cluster_size=10,
        tree_size=tree_size,
        num_edits=5,
        rng=seed,
    )


def run_benchmark(pr3_trees: int, borderline_trees: int, pair_reps: int) -> Dict:
    entries: List[Dict] = []

    pr3 = clustered_corpus(
        num_clusters=max(1, pr3_trees // PR3_CLUSTER_SIZE),
        cluster_size=PR3_CLUSTER_SIZE,
        tree_size=PR3_TREE_SIZE,
        num_edits=2,
        rng=20110713,
    )
    entries.append(
        run_join_verify("join-verify (PR3 clustered)", pr3, PR3_THRESHOLD)
    )

    entries.append(
        run_join_verify(
            "join-verify (borderline clusters)",
            borderline_corpus(borderline_trees, tree_size=32),
            5.0,
        )
    )

    for size in (64, 128):
        for algorithm in ("zhang-l", "rted"):
            entries.extend(run_pair_level(size, algorithm, pair_reps))

    borderline = next(
        e for e in entries if e["workload"] == "join-verify (borderline clusters)"
    )
    distant_128 = next(
        e
        for e in entries
        if e["workload"] == "pair-level distant"
        and e["algorithm"] == "zhang-l"
        and e["size"] == 128
    )
    return {
        "benchmark": "τ-bounded exact verification vs unbounded verification",
        **machine_stamp(),
        "entries": entries,
        "borderline_verify_speedup": borderline["verify_stage_speedup"],
        "pr3_verify_speedup": next(
            e for e in entries if e["workload"] == "join-verify (PR3 clustered)"
        )["verify_stage_speedup"],
        "pair_distant_zhang_128_speedup": distant_128["speedup"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small CI smoke run")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.quick:
        report = run_benchmark(pr3_trees=300, borderline_trees=200, pair_reps=3)
        join_gate = report["borderline_verify_speedup"]
        pair_gate = report["pair_distant_zhang_128_speedup"]
        print(
            f"quick gates: borderline verify speedup {join_gate:.2f}x (≥1.15x), "
            f"distant-pair zhang-l@128 speedup {pair_gate:.2f}x (≥1.5x)"
        )
        if args.output is not None:
            args.output.write_text(json.dumps(report, indent=2) + "\n")
        return 0 if join_gate >= 1.15 and pair_gate >= 1.5 else 1

    report = run_benchmark(pr3_trees=2000, borderline_trees=1000, pair_reps=10)
    output = args.output if args.output is not None else DEFAULT_OUTPUT
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
