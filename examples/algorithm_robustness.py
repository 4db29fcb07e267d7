#!/usr/bin/env python3
"""Robustness of RTED across tree shapes (a miniature of Figure 8 and Table 2).

For every synthetic shape of the paper (left branch, right branch, full
binary, zig-zag, mixed, random) this script counts the relevant subproblems of
the five algorithms and prints, per shape, who wins and how far RTED is from
the best and worst competitor.  It then repeats the comparison on a pair of
*different* shapes — the case where every fixed strategy degenerates and the
optimal strategy shines.
"""

from repro.counting import count_subproblems
from repro.datasets import make_shape, random_tree
from repro.experiments.runner import format_count, format_table

ALGORITHMS = ["zhang-l", "zhang-r", "klein-h", "demaine-h", "rted"]
SHAPES = ["left-branch", "right-branch", "full-binary", "zigzag", "mixed", "random"]
SIZE = 301


def tree_of(shape: str):
    if shape == "random":
        return random_tree(SIZE, rng=42)
    return make_shape(shape, SIZE)


def main() -> None:
    rows = []
    for shape in SHAPES:
        tree = tree_of(shape)
        counts = {name: count_subproblems(name, tree, tree) for name in ALGORITHMS}
        competitors = {name: value for name, value in counts.items() if name != "rted"}
        best = min(competitors, key=competitors.get)
        worst = max(competitors, key=competitors.get)
        rows.append(
            [
                shape,
                *(format_count(counts[name]) for name in ALGORITHMS),
                best,
                f"{counts['rted'] / counts[best]:.2f}",
                f"{counts['rted'] / counts[worst]:.3f}",
            ]
        )

    headers = ["shape", *ALGORITHMS, "best competitor", "rted/best", "rted/worst"]
    print(f"Relevant subproblems on identical-tree pairs of {SIZE} nodes")
    print(format_table(headers, rows))
    print()

    # Pairs of different shapes: the situation of the similarity join (Table 1).
    tree_f = make_shape("left-branch", SIZE)
    tree_g = make_shape("right-branch", SIZE, label="b")
    counts = {name: count_subproblems(name, tree_f, tree_g) for name in ALGORITHMS}
    print("Left-branch vs. right-branch pair (every fixed strategy degenerates):")
    for name in ALGORITHMS:
        marker = "  <-- robust" if name == "rted" else ""
        print(f"  {name:10s} {format_count(counts[name]):>10s}{marker}")


if __name__ == "__main__":
    main()
