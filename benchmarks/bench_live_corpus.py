#!/usr/bin/env python3
"""Benchmark: live-corpus epoch-keyed caching.

Two acceptance gates:

* **epoch-keyed cache hit < 100 µs** — a hit in the service's per-corpus
  :class:`~repro.service.server.PairResultCache` (key: epoch × tree ids ×
  algorithm × cost model × cutoff) must average under 100 µs; the cache
  only pays if a hit is negligible next to even the smallest TED.
* **derived pack ≥ 5× a full build** — after one add and one delete, the
  corpus's next ``pack()`` (derived from the previous epoch's pack) must be
  at least 5× faster than ``build_corpus_pack`` over the same trees, and
  the two blocks must be equal (2,000 trees in ``--quick``, 10,000 in the
  full run; medians of the write-then-pack rounds).

Also reported (not gated): the epoch-keyed ``pack()`` cache hit time.

Run with::

    PYTHONPATH=src python benchmarks/bench_live_corpus.py          # full, writes BENCH_live_corpus.json
    PYTHONPATH=src python benchmarks/bench_live_corpus.py --quick  # CI gate (<1 min)

The committed ``BENCH_live_corpus.json`` is a full run, stamped with the git
commit it measured and the machine.  In ``--quick`` mode nothing is written
unless ``--output`` is given.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.algorithms.batch_kernel import build_corpus_pack
from repro.datasets import random_tree
from repro.join import TreeCorpus
from repro.service.server import PairResultCache
from stamp import machine_stamp

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_live_corpus.json"

SEED = 20110713


def make_trees(count: int, seed: int = SEED) -> List:
    rng = random.Random(seed)
    return [
        random_tree(rng.randint(6, 12), rng=seed * 10 + i) for i in range(count)
    ]


def bench_cache_hit(iterations: int = 2000) -> Dict:
    """Average latency of an epoch-keyed pair-cache hit (and a pack-cache hit)."""
    cache = PairResultCache(capacity=1024)
    keys = [(0, i, i + 1, "rted", "unit", None) for i in range(64)]
    body = {"algorithm": "rted", "distance": 3.0, "subproblems": 123}
    for key in keys:
        cache.put(key, body)
    start = time.perf_counter()
    for i in range(iterations):
        hit = cache.get(keys[i % len(keys)])
        assert hit is not None
    pair_hit_seconds = (time.perf_counter() - start) / iterations

    corpus = TreeCorpus(make_trees(200))
    pack_hit_seconds = None
    if corpus.pack() is not None:  # numpy present
        start = time.perf_counter()
        for _ in range(iterations):
            corpus.pack()
        pack_hit_seconds = (time.perf_counter() - start) / iterations

    return {
        "iterations": iterations,
        "pair_cache_hit_us": pair_hit_seconds * 1e6,
        "pack_cache_hit_us": (
            pack_hit_seconds * 1e6 if pack_hit_seconds is not None else None
        ),
        "pair_cache_hits_counted": cache.hits,
    }


def bench_pack_derivation(count: int, rounds: int = 7) -> Dict:
    """Time the first ``pack()`` after one add and one delete against a full
    ``build_corpus_pack`` over the same trees, round by round."""
    trees = make_trees(count + rounds)
    corpus = TreeCorpus(trees[:count])
    corpus.pack()
    derived: List[float] = []
    built: List[float] = []
    equal = True
    rng = random.Random(SEED)
    for r in range(rounds):
        corpus.add_trees([trees[count + r]])
        corpus.remove_trees([rng.randrange(len(corpus))])
        start = time.perf_counter()
        pack = corpus.pack()
        derived.append(time.perf_counter() - start)
        start = time.perf_counter()
        fresh = build_corpus_pack(corpus.trees, corpus.interner())
        built.append(time.perf_counter() - start)
        equal = equal and pack.block.tobytes() == fresh.block.tobytes()
    derive_ms = statistics.median(derived) * 1e3
    build_ms = statistics.median(built) * 1e3
    return {
        "trees": count,
        "rounds": rounds,
        "derive_ms": derive_ms,
        "build_ms": build_ms,
        "speedup": build_ms / derive_ms,
        "blocks_equal": equal,
    }


def check_gates(cache: Dict, derivation: Dict) -> List[str]:
    failures = []
    if cache["pair_cache_hit_us"] >= 100.0:
        failures.append(
            f"epoch-keyed pair-cache hit averaged {cache['pair_cache_hit_us']:.1f}us "
            "(need < 100us)"
        )
    if derivation["speedup"] < 5.0:
        failures.append(
            f"derived pack at {derivation['trees']} trees was {derivation['speedup']:.1f}x "
            "a full build (need >= 5x)"
        )
    if not derivation["blocks_equal"]:
        failures.append("a derived pack's block differs from a full build's")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI gate run")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    cache = bench_cache_hit()
    pack_hit_us = cache["pack_cache_hit_us"]
    pack_text = f"{pack_hit_us:.2f}us" if pack_hit_us is not None else "n/a"
    print(
        f"pair-cache hit={cache['pair_cache_hit_us']:.2f}us "
        f"pack-cache hit={pack_text}",
        flush=True,
    )

    derivation = bench_pack_derivation(2000 if args.quick else 10000)
    print(
        f"pack after a write ({derivation['trees']} trees): "
        f"derived={derivation['derive_ms']:.2f}ms build={derivation['build_ms']:.2f}ms "
        f"speedup={derivation['speedup']:.1f}x equal={derivation['blocks_equal']}",
        flush=True,
    )

    failures = check_gates(cache, derivation)
    report = {
        "benchmark": "live corpora: epoch-keyed caching",
        **machine_stamp(),
        "cache": cache,
        "pack_derivation": derivation,
        "gates": {
            "pair_cache_hit_under_100us": cache["pair_cache_hit_us"] < 100.0,
            "derived_pack_5x_and_equal": (
                derivation["speedup"] >= 5.0 and derivation["blocks_equal"]
            ),
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
