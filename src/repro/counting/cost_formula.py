"""The cost formula (Figure 5): relevant-subproblem counts of path strategies.

Given a pair of trees and a path strategy, the number of relevant subproblems
GTED evaluates is

``cost(F_v, G_w) = <single-path-function cost> + Σ cost over relevant subtrees``

where the single-path-function cost is ``|F_v|·|A(G_w)|`` for heavy paths and
``|F_v|·|F(G_w, Γ_L/R)|`` for left/right paths (Lemma 4), and the sum ranges
over ``F_v − γ`` (or ``G_w − γ`` when the path lies in ``G``).

This module implements:

* :func:`strategy_cost` — the cost of an arbitrary strategy (memoized
  recursion over subtree pairs; this is the *baseline algorithm* of
  Section 6.1 when used with the minimizing chooser);
* :func:`optimal_cost_bruteforce` — the minimum over all LRH strategies,
  evaluated directly from the cost formula (used to validate Algorithm 2);
* :func:`count_subproblems` — per-algorithm counts for the five algorithms
  compared in the paper (the quantity plotted in Figure 8 and reported in
  Tables 1 and 2).  Zhang-L/R and Klein-H decompose only ``F``, so
  :func:`strategy_cost` walks only the relevant subtrees of ``F``;
  Demaine-H takes every pair ``(v, w)`` and runs as a flat row scan
  (:func:`demaine_count`), which :func:`strategy_cost` with the Demaine
  chooser cross-checks in the test-suite.  RTED's count is the cost
  Algorithm 2 computes (:func:`rted_count`), checked against
  :func:`optimal_cost_bruteforce`.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..algorithms.optimal_strategy import optimal_strategy
from ..algorithms.strategies import SIDE_F, SIDE_G, PathChoice, Strategy
from ..exceptions import UnknownAlgorithmError
from ..trees.tree import HEAVY, LEFT, RIGHT, Tree

#: Chooser signature: (v, w) -> PathChoice.
Chooser = Callable[[int, int], PathChoice]


def _single_path_cost(
    tree_f: Tree, tree_g: Tree, v: int, w: int, choice: PathChoice
) -> int:
    """Cost of one single-path-function invocation (Lemma 4)."""
    if choice.side == SIDE_F:
        size = tree_f.sizes[v]
        if choice.kind == HEAVY:
            return size * tree_g.full_decomposition_sizes()[w]
        if choice.kind == LEFT:
            return size * tree_g.left_decomposition_sizes()[w]
        return size * tree_g.right_decomposition_sizes()[w]
    size = tree_g.sizes[w]
    if choice.kind == HEAVY:
        return size * tree_f.full_decomposition_sizes()[v]
    if choice.kind == LEFT:
        return size * tree_f.left_decomposition_sizes()[v]
    return size * tree_f.right_decomposition_sizes()[v]


def strategy_cost(tree_f: Tree, tree_g: Tree, chooser: Chooser) -> int:
    """Number of relevant subproblems induced by the strategy ``chooser``.

    ``chooser(v, w)`` must return the :class:`PathChoice` the strategy assigns
    to the pair of subtrees rooted at ``(v, w)``.
    """
    memo: Dict[Tuple[int, int], int] = {}

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10000 + 10 * (tree_f.n + tree_g.n)))
    try:
        return _strategy_cost_rec(tree_f, tree_g, tree_f.root, tree_g.root, chooser, memo)
    finally:
        sys.setrecursionlimit(old_limit)


def _strategy_cost_rec(
    tree_f: Tree,
    tree_g: Tree,
    v: int,
    w: int,
    chooser: Chooser,
    memo: Dict[Tuple[int, int], int],
) -> int:
    key = (v, w)
    cached = memo.get(key)
    if cached is not None:
        return cached

    choice = chooser(v, w)
    total = _single_path_cost(tree_f, tree_g, v, w, choice)
    if choice.side == SIDE_F:
        for child_root in tree_f.relevant_subtrees(v, choice.kind):
            total += _strategy_cost_rec(tree_f, tree_g, child_root, w, chooser, memo)
    else:
        for child_root in tree_g.relevant_subtrees(w, choice.kind):
            total += _strategy_cost_rec(tree_f, tree_g, v, child_root, chooser, memo)

    memo[key] = total
    return total


def strategy_object_cost(tree_f: Tree, tree_g: Tree, strategy: Strategy) -> int:
    """:func:`strategy_cost` for a :class:`~repro.algorithms.strategies.Strategy`."""
    return strategy_cost(tree_f, tree_g, lambda v, w: strategy.choose(tree_f, tree_g, v, w))


# --------------------------------------------------------------------------- #
# Fixed strategies of the published algorithms
# --------------------------------------------------------------------------- #
def zhang_left_count(tree_f: Tree, tree_g: Tree) -> int:
    """Relevant subproblems of Zhang-L (left paths in the left-hand tree)."""
    choice = PathChoice(SIDE_F, LEFT)
    return strategy_cost(tree_f, tree_g, lambda v, w: choice)


def zhang_right_count(tree_f: Tree, tree_g: Tree) -> int:
    """Relevant subproblems of Zhang-R (right paths in the left-hand tree)."""
    choice = PathChoice(SIDE_F, RIGHT)
    return strategy_cost(tree_f, tree_g, lambda v, w: choice)


def klein_count(tree_f: Tree, tree_g: Tree) -> int:
    """Relevant subproblems of Klein-H (heavy paths in the left-hand tree)."""
    choice = PathChoice(SIDE_F, HEAVY)
    return strategy_cost(tree_f, tree_g, lambda v, w: choice)


def demaine_count(tree_f: Tree, tree_g: Tree) -> int:
    """Relevant subproblems of Demaine-H (heavy path in the larger subtree).

    A flat scan over every pair ``(v, w)`` in postorder: the cost sums over
    the relevant subtrees of ``F_v`` are NumPy rows over ``G`` (one vector
    add per node of ``F``), those of ``G_w`` a per-row list.
    """
    n_f, n_g = tree_f.n, tree_g.n
    sizes_f, sizes_g = tree_f.sizes, tree_g.sizes
    parents_f, parents_g = tree_f.parents, tree_g.parents
    full_f = tree_f.full_decomposition_sizes()
    full_g = np.asarray(tree_g.full_decomposition_sizes(), dtype=np.int64)
    on_heavy_f = tree_f.on_parent_path_all(HEAVY)
    on_heavy_g = tree_g.on_parent_path_all(HEAVY)

    heavy_sums_f = np.zeros((n_f, n_g), dtype=np.int64)
    root_cost = 0
    for v in range(n_f):
        size_v = sizes_f[v]
        full_v = full_f[v]
        f_term = (size_v * full_g + heavy_sums_f[v]).tolist()
        heavy_sums_g: List[int] = [0] * n_g
        cost_row: List[int] = [0] * n_g
        for w in range(n_g):
            if size_v >= sizes_g[w]:
                cost = f_term[w]
            else:
                cost = sizes_g[w] * full_v + heavy_sums_g[w]
            cost_row[w] = cost
            parent_w = parents_g[w]
            if parent_w != -1:
                heavy_sums_g[parent_w] += heavy_sums_g[w] if on_heavy_g[w] else cost

        parent_v = parents_f[v]
        if parent_v == -1:
            root_cost = cost_row[n_g - 1]
        elif on_heavy_f[v]:
            heavy_sums_f[parent_v] += heavy_sums_f[v]
        else:
            heavy_sums_f[parent_v] += np.asarray(cost_row, dtype=np.int64)
    return int(root_cost)


def rted_count(tree_f: Tree, tree_g: Tree) -> int:
    """Relevant subproblems of RTED: the cost of the optimal LRH strategy,
    computed by Algorithm 2 (:func:`~repro.algorithms.optimal_strategy.optimal_strategy`)."""
    return optimal_strategy(tree_f, tree_g).cost


# --------------------------------------------------------------------------- #
# Brute-force optimum (baseline algorithm of Section 6.1)
# --------------------------------------------------------------------------- #
_ALL_CHOICES = (
    PathChoice(SIDE_F, HEAVY),
    PathChoice(SIDE_G, HEAVY),
    PathChoice(SIDE_F, LEFT),
    PathChoice(SIDE_G, LEFT),
    PathChoice(SIDE_F, RIGHT),
    PathChoice(SIDE_G, RIGHT),
)


def optimal_cost_bruteforce(tree_f: Tree, tree_g: Tree) -> int:
    """Cost of the optimal LRH strategy via direct evaluation of Figure 5.

    This is the memoized "baseline algorithm" of Section 6.1: ``O(n^3)`` time,
    ``O(n^2)`` space.  It must produce exactly the same value as Algorithm 2
    (:func:`rted_count`); the test-suite asserts this equivalence.
    """
    return optimal_cost_restricted(tree_f, tree_g, _ALL_CHOICES)


def optimal_cost_restricted(
    tree_f: Tree, tree_g: Tree, choices: Tuple[PathChoice, ...]
) -> int:
    """Cost of the optimal strategy restricted to the given path choices.

    Used by the strategy-space ablation: e.g. restricting to
    ``(PathChoice(F, LEFT), PathChoice(F, RIGHT))`` measures the best an
    LR-only single-tree strategy could do, and comparing it with the full LRH
    optimum quantifies the benefit of heavy paths and of decomposing both
    trees.
    """
    if not choices:
        raise ValueError("at least one path choice is required")
    memo: Dict[Tuple[int, int], int] = {}

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10000 + 10 * (tree_f.n + tree_g.n)))
    try:
        return _optimal_cost_rec(tree_f, tree_g, tree_f.root, tree_g.root, memo, tuple(choices))
    finally:
        sys.setrecursionlimit(old_limit)


def _optimal_cost_rec(
    tree_f: Tree,
    tree_g: Tree,
    v: int,
    w: int,
    memo: Dict[Tuple[int, int], int],
    choices: Tuple[PathChoice, ...] = _ALL_CHOICES,
) -> int:
    key = (v, w)
    cached = memo.get(key)
    if cached is not None:
        return cached

    best: Optional[int] = None
    for choice in choices:
        total = _single_path_cost(tree_f, tree_g, v, w, choice)
        if choice.side == SIDE_F:
            for child_root in tree_f.relevant_subtrees(v, choice.kind):
                total += _optimal_cost_rec(tree_f, tree_g, child_root, w, memo, choices)
        else:
            for child_root in tree_g.relevant_subtrees(w, choice.kind):
                total += _optimal_cost_rec(tree_f, tree_g, v, child_root, memo, choices)
        if best is None or total < best:
            best = total

    memo[key] = best
    return best


# --------------------------------------------------------------------------- #
# Per-algorithm dispatch (the quantity of Figure 8 / Tables 1-2)
# --------------------------------------------------------------------------- #
_COUNTERS: Dict[str, Callable[[Tree, Tree], int]] = {
    "zhang-l": zhang_left_count,
    "zhang-r": zhang_right_count,
    "klein-h": klein_count,
    "demaine-h": demaine_count,
    "rted": rted_count,
}


def count_subproblems(algorithm: str, tree_f: Tree, tree_g: Tree) -> int:
    """Relevant-subproblem count of the named algorithm's strategy."""
    key = algorithm.strip().lower()
    counter = _COUNTERS.get(key)
    if counter is None:
        raise UnknownAlgorithmError(
            f"no subproblem counter for {algorithm!r}; available: {', '.join(sorted(_COUNTERS))}"
        )
    return counter(tree_f, tree_g)
