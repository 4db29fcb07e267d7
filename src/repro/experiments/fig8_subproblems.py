"""Figure 8 — number of relevant subproblems per algorithm and tree shape.

The paper creates identical-tree pairs of six shapes (left branch, right
branch, full binary, zig-zag, random, mixed) with sizes between 20 and 2000
nodes and counts the relevant subproblems computed by Zhang-L, Zhang-R,
Klein-H, Demaine-H and RTED.  The expected outcome: every fixed-strategy
algorithm degenerates on at least one shape, while RTED always matches the
best competitor (LB, RB, FB, ZZ) or beats all of them (random, MX).

This harness reproduces the experiment with the cost-formula counters
(:mod:`repro.counting`).  Paper-scale sizes (up to 2000 nodes) work but take
minutes in pure Python; the default sweep stops at 600 nodes, which is enough
to show the same asymptotic separation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..counting import count_subproblems
from ..datasets.random_trees import random_tree
from ..datasets.shapes import make_shape
from ..trees.tree import Tree
from .runner import format_count, format_table, linear_sizes

#: Shapes of Figure 8, in sub-figure order (a)-(f).
FIG8_SHAPES: Sequence[str] = (
    "left-branch",
    "right-branch",
    "full-binary",
    "zigzag",
    "random",
    "mixed",
)

#: Algorithms compared, in the legend order of the figure.
FIG8_ALGORITHMS: Sequence[str] = ("zhang-l", "zhang-r", "klein-h", "demaine-h", "rted")


@dataclass
class Fig8Point:
    """One data point: subproblem counts of every algorithm at one tree size."""

    shape: str
    size: int
    counts: Dict[str, int] = field(default_factory=dict)

    def best_competitor(self) -> str:
        """Name of the non-RTED algorithm with the fewest subproblems."""
        competitors = {name: value for name, value in self.counts.items() if name != "rted"}
        return min(competitors, key=competitors.get)

    def rted_vs_best_ratio(self) -> float:
        """RTED subproblems divided by the best competitor's subproblems."""
        best = min(value for name, value in self.counts.items() if name != "rted")
        return self.counts["rted"] / best if best else 1.0


@dataclass
class Fig8Result:
    """All data points of the Figure 8 reproduction, grouped by shape."""

    points: Dict[str, List[Fig8Point]] = field(default_factory=dict)

    def series(self, shape: str, algorithm: str) -> List[tuple]:
        """(size, count) series for one shape and algorithm — one figure line."""
        return [(point.size, point.counts[algorithm]) for point in self.points[shape]]


def _tree_for_shape(shape: str, size: int, seed: int) -> Tree:
    if shape == "random":
        return random_tree(size, rng=random.Random(seed))
    return make_shape(shape, size)


def run_fig8(
    sizes: Optional[Sequence[int]] = None,
    shapes: Sequence[str] = FIG8_SHAPES,
    algorithms: Sequence[str] = FIG8_ALGORITHMS,
    seed: int = 42,
) -> Fig8Result:
    """Run the Figure 8 experiment.

    ``sizes`` defaults to a linear sweep 20..600; pass e.g.
    ``range(400, 2001, 400)`` to match the paper exactly (slower).
    The subproblem counts are computed for pairs of *identical* trees, as in
    the paper.
    """
    if sizes is None:
        sizes = linear_sizes(20, 600, 6)

    result = Fig8Result()
    for shape in shapes:
        points: List[Fig8Point] = []
        for size in sizes:
            tree = _tree_for_shape(shape, size, seed)
            point = Fig8Point(shape=shape, size=tree.n)
            for algorithm in algorithms:
                point.counts[algorithm] = count_subproblems(algorithm, tree, tree)
            points.append(point)
        result.points[shape] = points
    return result


def format_fig8(result: Fig8Result) -> str:
    """Render the Figure 8 data as one table per shape."""
    sections = []
    for shape, points in result.points.items():
        if not points:
            continue
        algorithms = list(points[0].counts)
        headers = ["size"] + list(algorithms) + ["winner", "rted/best"]
        rows = []
        for point in points:
            row = [point.size]
            row.extend(format_count(point.counts[name]) for name in algorithms)
            row.append(point.best_competitor())
            row.append(f"{point.rted_vs_best_ratio():.3f}")
            rows.append(row)
        sections.append(f"Figure 8 — shape: {shape}\n" + format_table(headers, rows))
    return "\n\n".join(sections)


def main() -> None:  # pragma: no cover - CLI entry point
    print(format_fig8(run_fig8()))


if __name__ == "__main__":  # pragma: no cover
    main()
