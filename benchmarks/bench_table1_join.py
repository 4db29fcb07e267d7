"""Benchmark harness for Table 1 — similarity self-join over mixed-shape trees.

One benchmark per algorithm; each runs the full self join over the
{LB, RB, FB, ZZ, Random} workload and reports the total number of relevant
subproblems in ``extra_info`` (the second column of Table 1).
"""

import itertools

import pytest

from repro.algorithms import make_algorithm
from repro.counting import count_subproblems_fast
from repro.datasets import join_workload

NODE_COUNT = 32
THRESHOLD = NODE_COUNT / 2
ALGORITHMS = ["zhang-l", "zhang-r", "klein-h", "demaine-h", "rted"]

_WORKLOAD = join_workload(NODE_COUNT, rng=42)
_PAIRS = list(itertools.combinations(range(len(_WORKLOAD)), 2))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_table1_join_runtime(benchmark, algorithm):
    algo = make_algorithm(algorithm)

    def join():
        matches = 0
        subproblems = 0
        for i, j in _PAIRS:
            result = algo.compute(_WORKLOAD[i], _WORKLOAD[j])
            subproblems += result.subproblems
            if result.distance < THRESHOLD:
                matches += 1
        return matches, subproblems

    matches, subproblems = benchmark(join)
    cost_formula = sum(
        count_subproblems_fast(algorithm, _WORKLOAD[i], _WORKLOAD[j]) for i, j in _PAIRS
    )
    benchmark.extra_info["algorithm"] = algorithm
    benchmark.extra_info["matches"] = matches
    benchmark.extra_info["subproblems_evaluated"] = subproblems
    benchmark.extra_info["subproblems_cost_formula"] = cost_formula


def test_table1_join_with_filter_cascade(benchmark):
    """Extension: the same join through the filter cascade of ``batch_self_join``."""
    from repro.join import batch_self_join

    result = benchmark(batch_self_join, _WORKLOAD, THRESHOLD, algorithm="rted")
    stats = result.stats
    benchmark.extra_info["pairs_filtered"] = (
        stats.pairs_total - stats.exact_computed - stats.accepted_early
    )
    benchmark.extra_info["matches"] = len(result.matches)
