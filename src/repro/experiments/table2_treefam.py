"""Table 2 — RTED vs. best/worst competitor on phylogenetic (TreeFam-like) trees.

The paper partitions the TreeFam dataset by tree size (<500, 500–1000, >1000
nodes), samples 20 trees per partition, and computes, for every pair of
partitions, the ratio of relevant subproblems computed by RTED with respect to
(a) the best and (b) the worst competitor on each tree pair.  RTED always
computes fewer subproblems (ratios 84–95 % of the best and 5.6–30.6 % of the
worst competitor), and the advantage grows with the tree size.

The reproduction uses the TreeFam-like simulated collection and the exact
cost-formula counters; the size boundaries are scaled down by default (they
can be set to the paper's 500/1000 via the parameters).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..counting import count_subproblems
from ..datasets.workloads import sample_partition, treefam_partitions
from ..trees.tree import Tree
from .runner import format_table

#: Competitors against which RTED is compared.
TABLE2_COMPETITORS: Sequence[str] = ("zhang-l", "zhang-r", "klein-h", "demaine-h")


@dataclass
class Table2Cell:
    """Aggregated ratios for one pair of size partitions."""

    partition_f: int
    partition_g: int
    pairs: int
    ratio_to_best: float
    ratio_to_worst: float


@dataclass
class Table2Result:
    partition_labels: List[str] = field(default_factory=list)
    cells: Dict[Tuple[int, int], Table2Cell] = field(default_factory=dict)

    def matrix(self, which: str) -> List[List[float]]:
        """Ratio matrix (``which`` is ``"best"`` or ``"worst"``), row = partition of F."""
        size = len(self.partition_labels)
        table = [[0.0] * size for _ in range(size)]
        for (i, j), cell in self.cells.items():
            table[i][j] = cell.ratio_to_best if which == "best" else cell.ratio_to_worst
        return table


def run_table2(
    num_trees: int = 45,
    boundaries: Sequence[int] = (120, 240),
    size_range: Tuple[int, int] = (40, 400),
    sample_size: int = 5,
    seed: int = 42,
    partitions: Optional[List[List[Tree]]] = None,
) -> Table2Result:
    """Run the Table 2 experiment on a TreeFam-like collection.

    For every ordered pair of partitions, ``sample_size`` trees are sampled
    from each partition and the subproblem ratios are averaged over all tree
    pairs (the paper uses samples of size 20).
    """
    if partitions is None:
        partitions = treefam_partitions(
            num_trees=num_trees, boundaries=list(boundaries), size_range=size_range, rng=seed
        )
    samples = [sample_partition(partition, sample_size, rng=seed + index)
               for index, partition in enumerate(partitions)]

    labels = []
    lower = 0
    for boundary in boundaries:
        labels.append(f"<{boundary}" if lower == 0 else f"{lower}-{boundary}")
        lower = boundary
    labels.append(f">{lower}")

    result = Table2Result(partition_labels=labels)

    for i, sample_f in enumerate(samples):
        for j, sample_g in enumerate(samples):
            ratios_best: List[float] = []
            ratios_worst: List[float] = []
            for tree_f, tree_g in itertools.product(sample_f, sample_g):
                rted = count_subproblems("rted", tree_f, tree_g)
                competitor_counts = [
                    count_subproblems(name, tree_f, tree_g) for name in TABLE2_COMPETITORS
                ]
                best = min(competitor_counts)
                worst = max(competitor_counts)
                if best > 0:
                    ratios_best.append(rted / best)
                if worst > 0:
                    ratios_worst.append(rted / worst)
            if not ratios_best:
                continue
            result.cells[(i, j)] = Table2Cell(
                partition_f=i,
                partition_g=j,
                pairs=len(ratios_best),
                ratio_to_best=sum(ratios_best) / len(ratios_best),
                ratio_to_worst=sum(ratios_worst) / len(ratios_worst),
            )
    return result


def format_table2(result: Table2Result) -> str:
    sections = []
    for which, title in (("best", "(a) RTED to the best competitor"),
                         ("worst", "(b) RTED to the worst competitor")):
        headers = ["tree sizes"] + result.partition_labels
        matrix = result.matrix(which)
        rows = []
        for i, label in enumerate(result.partition_labels):
            row = [label]
            for j in range(len(result.partition_labels)):
                cell = result.cells.get((i, j))
                row.append(f"{100 * matrix[i][j]:.1f}%" if cell else "—")
            rows.append(row)
        sections.append(f"Table 2 {title}\n" + format_table(headers, rows))
    return "\n\n".join(sections)


def main() -> None:  # pragma: no cover - CLI entry point
    print(format_table2(run_table2()))


if __name__ == "__main__":  # pragma: no cover
    main()
