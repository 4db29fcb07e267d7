"""Table 1 — scalability of a similarity self-join over differently shaped trees.

The paper generates one tree per shape in {LB, RB, FB, ZZ, Random} with about
1000 nodes each and performs a self join (``TED(T1, T2) < τ``) with every
algorithm, reporting the total runtime and the total number of relevant
subproblems.  Because the join pairs trees of *different* shapes, every fixed
strategy degenerates on some pair and RTED wins by an order of magnitude
(paper: 140 s / 1.96·10⁹ subproblems for RTED vs. 694–2483 s / 17.6–41.8·10⁹
for the competitors).

The reproduction keeps the workload and reports the same two columns.  The
default tree size is reduced (pure-Python kernels); the subproblem counts are
additionally computed with the exact cost-formula counters so that the
paper-scale column can be reproduced independently of the runtime
measurement.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..algorithms.registry import PAPER_ALGORITHMS, make_algorithm
from ..counting import count_subproblems
from ..datasets.workloads import join_workload
from ..trees.tree import Tree
from .runner import format_count, format_seconds, format_table


@dataclass
class Table1Row:
    """One row of Table 1: a join executed with one algorithm."""

    algorithm: str
    seconds: float
    subproblems_measured: int
    subproblems_cost_formula: int
    matches: int


@dataclass
class Table1Result:
    threshold: float
    tree_sizes: List[int] = field(default_factory=list)
    rows: List[Table1Row] = field(default_factory=list)

    def row(self, algorithm: str) -> Table1Row:
        for entry in self.rows:
            if entry.algorithm == algorithm:
                return entry
        raise KeyError(algorithm)


def run_table1(
    node_count: int = 48,
    threshold: Optional[float] = None,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    seed: int = 42,
    trees: Optional[Sequence[Tree]] = None,
) -> Table1Result:
    """Run the Table 1 self join.

    ``threshold`` defaults to half the tree size, which (as in the paper)
    matches some but not all pairs.  Pass ``node_count≈1000`` to match the
    paper's workload exactly — expect long runtimes in pure Python.
    """
    workload = list(trees) if trees is not None else join_workload(node_count, rng=seed)
    if threshold is None:
        threshold = node_count / 2

    result = Table1Result(threshold=threshold, tree_sizes=[tree.n for tree in workload])
    pairs = list(itertools.combinations(range(len(workload)), 2))

    for name in algorithms:
        algorithm = make_algorithm(name)
        start = time.perf_counter()
        measured_subproblems = 0
        matches = 0
        for i, j in pairs:
            ted = algorithm.compute(workload[i], workload[j])
            measured_subproblems += ted.subproblems
            if ted.distance < threshold:
                matches += 1
        seconds = time.perf_counter() - start

        cost_formula_subproblems = sum(
            count_subproblems(name, workload[i], workload[j]) for i, j in pairs
        )
        result.rows.append(
            Table1Row(
                algorithm=name,
                seconds=seconds,
                subproblems_measured=measured_subproblems,
                subproblems_cost_formula=cost_formula_subproblems,
                matches=matches,
            )
        )
    return result


def format_table1(result: Table1Result) -> str:
    headers = ["Algorithm", "Time", "#Rel. subproblems (cost formula)", "#Evaluated", "Matches"]
    rows = [
        [
            row.algorithm,
            format_seconds(row.seconds),
            format_count(row.subproblems_cost_formula),
            format_count(row.subproblems_measured),
            row.matches,
        ]
        for row in result.rows
    ]
    header = (
        f"Table 1 — join on trees with different shapes "
        f"(sizes {result.tree_sizes}, τ = {result.threshold})"
    )
    return header + "\n" + format_table(headers, rows)


def main() -> None:  # pragma: no cover - CLI entry point
    print(format_table1(run_table1()))


if __name__ == "__main__":  # pragma: no cover
    main()
