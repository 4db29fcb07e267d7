"""Relevant-subproblem counting: decomposition cardinalities and the cost formula."""

from .decomposition import (
    full_decomposition_size,
    full_decomposition_size_enumerated,
    recursive_decomposition_size,
    recursive_decomposition_size_enumerated,
    relevant_subtree_counts,
    single_path_subforest_count,
    single_path_subforest_count_enumerated,
)
from .cost_formula import (
    count_subproblems,
    demaine_count,
    klein_count,
    optimal_cost_bruteforce,
    optimal_cost_restricted,
    rted_count,
    strategy_cost,
    strategy_object_cost,
    zhang_left_count,
    zhang_right_count,
)

__all__ = [
    "full_decomposition_size",
    "full_decomposition_size_enumerated",
    "single_path_subforest_count",
    "single_path_subforest_count_enumerated",
    "recursive_decomposition_size",
    "recursive_decomposition_size_enumerated",
    "relevant_subtree_counts",
    "strategy_cost",
    "strategy_object_cost",
    "zhang_left_count",
    "zhang_right_count",
    "klein_count",
    "demaine_count",
    "rted_count",
    "optimal_cost_bruteforce",
    "optimal_cost_restricted",
    "count_subproblems",
]
