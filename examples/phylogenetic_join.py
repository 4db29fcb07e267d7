#!/usr/bin/env python3
"""Similarity join over phylogenetic trees (the TreeFam scenario).

The paper's Table 1 / Table 2 experiments motivate RTED with joins over tree
collections whose shapes vary — phylogenies are a prime example (deep,
unbalanced, binary).  This example:

1. generates a TreeFam-like collection of phylogenies (Newick round-trip shows
   the trees are ordinary phylogenetic trees);
2. runs a threshold similarity self-join with RTED, with and without the
   filter cascade (size/label/binary-branch lower bounds; pairs too large
   for the small-pair program also meet the traversal-string bound and the
   upper-bound accept, so "accepted early" counts only those);
3. shows why RTED is the right default by counting the relevant subproblems
   each fixed-strategy competitor would have needed on the joined pairs.
"""

import itertools

from repro.counting import count_subproblems
from repro.datasets import generate_collection
from repro.io import to_newick
from repro.join import batch_self_join


def main() -> None:
    collection = generate_collection("treefam", num_trees=8, rng=7, size_range=(25, 60))
    print(f"Generated {len(collection)} phylogenies, sizes: {[t.n for t in collection]}")
    print("First phylogeny in Newick notation:")
    print(" ", to_newick(collection[0])[:120], "...")
    print()

    threshold = 25.0
    plain = batch_self_join(collection, threshold, algorithm="rted", use_cascade=False)
    filtered = batch_self_join(collection, threshold, algorithm="rted")

    print(f"Similarity self-join with threshold τ = {threshold}")
    print(
        f"  without cascade: {len(plain.matches)} matches, "
        f"{plain.stats.exact_computed} exact computations, {plain.stats.total_time:.2f}s"
    )
    stats = filtered.stats
    pruned = stats.pairs_total - stats.exact_computed - stats.accepted_early
    print(
        f"  with cascade:    {len(filtered.matches)} matches, "
        f"{stats.exact_computed} exact computations "
        f"({pruned} pairs pruned, {stats.accepted_early} accepted early), "
        f"{stats.total_time:.2f}s"
    )
    print()

    print("Matched pairs (distance < τ):")
    for i, j, distance in sorted(plain.matches, key=lambda entry: entry[2]):
        print(f"  trees {i} and {j}: distance {distance}")
    print()

    # Why RTED: total relevant subproblems each strategy needs on this workload.
    pairs = list(itertools.combinations(range(len(collection)), 2))
    print("Relevant subproblems over the whole join workload (cost formula):")
    for algorithm in ["zhang-l", "zhang-r", "klein-h", "demaine-h", "rted"]:
        total = sum(
            count_subproblems(algorithm, collection[i], collection[j]) for i, j in pairs
        )
        print(f"  {algorithm:10s} {total:>12,}")


if __name__ == "__main__":
    main()
