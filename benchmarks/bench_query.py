#!/usr/bin/env python3
"""Benchmark: one-vs-corpus retrieval at scale — kNN and range queries vs brute force.

Corpus-size growth curves for :class:`repro.join.QueryEngine` over two
workload families:

* **synthetic** — clustered corpora mixing tree sizes 6–18 (size spread is
  what gives the cascade's size bound its discrimination), clusters ≤ 1
  edit wide;
* **treebank** — `treebank_like_tree` corpora with sizes drawn from 6–20,
  natural (skewed) label distribution.

Per corpus size the benchmark answers perturbed-corpus-tree queries:

* **knn** — ``QueryEngine.knn``: the size-ordered scan with the shrinking
  τ-bounded refiner (`exact_computed` is the *examined pairs* count);
* **brute** — `batch_distances` over every `(query, corpus[j])` pair: no
  index, no cascade, no cutoff.  The reference cost for kNN, and the
  reference answer for both query kinds;
* **range (inverted)** — ``QueryEngine.range_query`` at ``τ = RANGE_TAU``
  on the asymmetric inverted index; time and `exact_computed` per query.
  Its answers must equal brute force's; it carries no gate.

Run with::

    PYTHONPATH=src python benchmarks/bench_query.py            # full, writes BENCH_query.json
    PYTHONPATH=src python benchmarks/bench_query.py --quick    # CI smoke (<1 min)

The committed ``BENCH_query.json`` is a full run, stamped with the git
commit it measured and the machine (``stamp.py``).  Both modes enforce the retrieval-core
acceptance invariants on the synthetic kNN curve — the examined-pairs ratio
``exact_computed / corpus_size`` must *strictly decrease* as the corpus
grows, and kNN must beat brute force in wall-clock at the largest size —
and exit non-zero when either fails; in ``--quick`` mode (the CI gate)
nothing is written unless ``--output`` is given.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.datasets import clustered_corpus, perturb_tree, treebank_like_tree
from repro.join import QueryEngine, TreeCorpus, batch_distances
from stamp import machine_stamp

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_query.json"

K = 5
RANGE_TAU = 3.0
CLUSTER_SIZE = 10
#: Mixed tree sizes: the size spread feeds the cascade's cheapest bound and
#: the size-ordered kNN scan (a fixed-size corpus concentrates all
#: cross-cluster distances into a narrow band; real collections are
#: size-diverse).
SYNTHETIC_SIZES = [6, 9, 12, 15, 18]
SEED = 20110713


def synthetic_corpus(num_trees: int, seed: int = SEED) -> List:
    trees: List = []
    clusters = max(1, num_trees // CLUSTER_SIZE)
    share, extra = divmod(clusters, len(SYNTHETIC_SIZES))
    for i, tree_size in enumerate(SYNTHETIC_SIZES):
        count = share + (1 if i < extra else 0)
        if count:
            trees.extend(
                clustered_corpus(
                    num_clusters=count,
                    cluster_size=CLUSTER_SIZE,
                    tree_size=tree_size,
                    num_edits=1,
                    rng=random.Random(seed * 1000 + i),
                )
            )
    random.Random(seed).shuffle(trees)
    return trees[:num_trees]


def treebank_corpus(num_trees: int, seed: int = SEED) -> List:
    rng = random.Random(seed + 1)
    return [
        treebank_like_tree(rng=rng, target_size=rng.randint(6, 20))
        for _ in range(num_trees)
    ]


def make_queries(trees: List, count: int, seed: int = SEED) -> List:
    """Near-duplicate queries: perturbed copies of random corpus trees."""
    rng = random.Random(seed + 2)
    queries = []
    for _ in range(count):
        base = trees[rng.randrange(len(trees))]
        labels = sorted({base.labels[i] for i in range(base.n)})
        queries.append(perturb_tree(base, rng.randint(0, 2), alphabet=labels, rng=rng))
    return queries


def brute_force_ranking(corpus: TreeCorpus, query):
    """Reference ranking, ``(index, distance)`` by ``(distance, index)``:
    every pair exact, no index/cascade/cutoff."""
    query_corpus = TreeCorpus([query], interner=corpus.interner())
    entries = batch_distances(
        query_corpus, corpus, [(0, j) for j in range(len(corpus))]
    )
    ranking = sorted((distance, j) for _, j, distance, *_ in entries)
    return [(j, d) for d, j in ranking]


def run_family(
    family: str, sizes: List[int], num_queries: int, brute_queries: int
) -> List[Dict]:
    entries: List[Dict] = []
    for num_trees in sizes:
        trees = (
            synthetic_corpus(num_trees) if family == "synthetic" else treebank_corpus(num_trees)
        )
        corpus = TreeCorpus(trees)
        queries = make_queries(trees, num_queries)

        engine = QueryEngine(corpus)
        # Untimed warm-up on a corpus tree: builds the corpus artifacts every
        # later query (and brute force) reuses — pack, profiles, filter
        # arrays — so the timed legs measure per-query cost only.
        start = time.perf_counter()
        engine.knn(trees[0], K)
        setup_seconds = time.perf_counter() - start
        knn_seconds = examined = 0.0
        knn_results = []
        for query in queries:
            start = time.perf_counter()
            result = engine.knn(query, K)
            knn_seconds += time.perf_counter() - start
            examined += result.stats.exact_computed
            knn_results.append(result.matches)

        brute_seconds = 0.0
        references = []
        for query, matches in zip(queries[:brute_queries], knn_results):
            start = time.perf_counter()
            ranking = brute_force_ranking(corpus, query)
            brute_seconds += time.perf_counter() - start
            assert matches == ranking[:K], f"kNN diverged from brute force at n={num_trees}"
            references.append([(j, d) for j, d in ranking if d < RANGE_TAU])

        range_seconds = 0.0
        range_examined = 0
        range_results = []
        for query in queries:
            start = time.perf_counter()
            result = engine.range_query(query, RANGE_TAU)
            range_seconds += time.perf_counter() - start
            range_examined += result.stats.exact_computed
            range_results.append(result.matches)
        for matches, reference in zip(range_results, references):
            assert matches == reference, f"range diverged from brute force at n={num_trees}"

        entry = {
            "family": family,
            "corpus_size": num_trees,
            "k": K,
            "queries": num_queries,
            "setup_seconds": setup_seconds,
            "knn_seconds_avg": knn_seconds / num_queries,
            "brute_seconds_avg": brute_seconds / brute_queries,
            "examined_avg": examined / num_queries,
            "examined_ratio": examined / num_queries / num_trees,
            "speedup_vs_brute": (brute_seconds / brute_queries)
            / (knn_seconds / num_queries),
            "range_tau": RANGE_TAU,
            "range_inverted_seconds_avg": range_seconds / num_queries,
            "range_inverted_examined_avg": range_examined / num_queries,
        }
        entries.append(entry)
        print(
            f"{family:>9} n={num_trees:>6} "
            f"knn={entry['knn_seconds_avg'] * 1000:8.1f}ms "
            f"brute={entry['brute_seconds_avg'] * 1000:8.1f}ms "
            f"examined={entry['examined_avg']:8.0f} "
            f"ratio={entry['examined_ratio']:.4f} "
            f"speedup={entry['speedup_vs_brute']:.1f}x | "
            f"range={entry['range_inverted_seconds_avg'] * 1000:8.1f}ms "
            f"({entry['range_inverted_examined_avg']:.0f} examined)",
            flush=True,
        )
    return entries


def check_invariants(entries: List[Dict]) -> List[str]:
    """The retrieval-core acceptance gates, on the synthetic growth curve."""
    failures = []
    curve = [e for e in entries if e["family"] == "synthetic"]
    ratios = [e["examined_ratio"] for e in curve]
    if not all(a > b for a, b in zip(ratios, ratios[1:])):
        failures.append(f"examined ratio not strictly decreasing: {ratios}")
    largest = curve[-1]
    if largest["speedup_vs_brute"] <= 1.0:
        failures.append(
            f"no kNN speedup vs brute force at n={largest['corpus_size']}: "
            f"{largest['speedup_vs_brute']:.2f}x"
        )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small CI smoke run")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.quick:
        synthetic_sizes = [500, 2000]
        treebank_sizes = [500]
        num_queries, brute_queries = 5, 2
    else:
        synthetic_sizes = [1000, 10000, 100000]
        treebank_sizes = [1000, 10000]
        num_queries, brute_queries = 10, 3

    entries = run_family("synthetic", synthetic_sizes, num_queries, brute_queries)
    entries += run_family("treebank", treebank_sizes, num_queries, brute_queries)

    failures = check_invariants(entries)
    report = {
        "benchmark": "one-vs-corpus kNN scan vs brute force; range query on the inverted index",
        "k": K,
        "range_tau": RANGE_TAU,
        "cluster_size": CLUSTER_SIZE,
        "synthetic_tree_sizes": SYNTHETIC_SIZES,
        **machine_stamp(),
        "entries": entries,
        "gates": {
            "examined_ratio_strictly_decreasing": not any(
                "ratio" in f for f in failures
            ),
            "speedup_vs_brute_at_largest": not any("speedup" in f for f in failures),
        },
    }

    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)

    if args.quick:
        if args.output is not None:
            args.output.write_text(json.dumps(report, indent=2) + "\n")
        print("quick gates:", "FAIL" if failures else "ok")
        return 1 if failures else 0

    output = args.output if args.output is not None else DEFAULT_OUTPUT
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
