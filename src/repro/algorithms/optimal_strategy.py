"""OptStrategy — the optimal LRH strategy in ``O(n^2)`` time (Algorithm 2).

Given two trees ``F`` and ``G``, Algorithm 2 of the paper computes, for every
pair of subtrees ``(F_v, G_w)``, the root-leaf path (left, right or heavy, in
either tree) that minimizes the number of relevant subproblems GTED must
evaluate, together with that minimum count.  The key idea is to maintain the
*cost sums over relevant subtrees* incrementally instead of recomputing them,
which brings the strategy computation down from ``O(n^3)`` (the baseline
algorithm of Section 6.1, implemented in
:mod:`repro.counting.cost_formula`) to ``O(n^2)``.

:func:`optimal_strategy` is the paper's single loop over the pairs in
postorder, in its array layout: the strategy matrix is an ``int8`` array —
entry ``(v, w)`` is an index into
:data:`~repro.algorithms.strategies.ALL_FIXED_CHOICES` — the cost matrix an
``int64`` array, the ``F``-side cost sums three ``|F| × |G|`` ``int64``
arrays and the ``G``-side sums one list per row of ``F``; never
``|F| × |G|`` objects.  The test-suite re-derives every entry from
Figure 5 and checks the costs against the memoized brute force of
:func:`repro.counting.optimal_cost_bruteforce`.

It returns an :class:`OptimalStrategyResult` with the encoded strategy
matrix, the cost matrix and the optimal subproblem count;
:attr:`OptimalStrategyResult.strategy` wraps the matrix as an
:class:`~repro.algorithms.strategies.EncodedStrategy` ready to be passed to
GTED / the executors.
"""

from __future__ import annotations

import numpy as np

from ..runtime import active_deadline
from ..trees.tree import HEAVY, LEFT, RIGHT, Tree
from .strategies import EncodedStrategy


class OptimalStrategyResult:
    """Result of Algorithm 2.

    Attributes
    ----------
    choice_codes:
        ``|F| × |G|`` ``int8`` array; entry ``(v, w)`` indexes
        :data:`~repro.algorithms.strategies.ALL_FIXED_CHOICES` and encodes
        the optimal path for the subtree pair rooted at ``(v, w)``.
    cost:
        Number of relevant subproblems of the optimal strategy for the whole
        tree pair (the value of the cost formula at the roots).
    costs:
        ``|F| × |G|`` ``int64`` array with the optimal cost of every subtree
        pair.
    """

    __slots__ = ("choice_codes", "cost", "costs")

    def __init__(self, choice_codes, cost: int, costs) -> None:
        self.choice_codes = choice_codes
        self.cost = int(cost)
        self.costs = costs

    @property
    def strategy(self) -> EncodedStrategy:
        """The strategy matrix wrapped for consumption by GTED."""
        return EncodedStrategy(self.choice_codes, name="optimal")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OptimalStrategyResult(cost={self.cost})"


def optimal_strategy(tree_f: Tree, tree_g: Tree) -> OptimalStrategyResult:
    """Compute the optimal LRH strategy for ``(tree_f, tree_g)`` (Algorithm 2).

    One flat loop over the pairs ``(v, w)`` in postorder, ``O(|F| · |G|)``
    time and 33 bytes a pair.  The ``F``-side cost sums ``Lv/Rv/Hv`` are
    ``int64`` rows over ``G`` (each row's three ``F``-path candidates are one
    vector expression, and a finished row is added onto its parent's with
    one vector add), the ``G``-side sums ``Lw/Rw/Hw`` per-row lists.
    """
    n_f, n_g = tree_f.n, tree_g.n
    sizes_f, sizes_g = tree_f.sizes, tree_g.sizes
    parents_f, parents_g = tree_f.parents, tree_g.parents
    # The per-node factors of the six products in the cost formula.
    full_f = tree_f.full_decomposition_sizes()
    left_f = tree_f.left_decomposition_sizes()
    right_f = tree_f.right_decomposition_sizes()
    full_g = np.asarray(tree_g.full_decomposition_sizes(), dtype=np.int64)
    left_g = np.asarray(tree_g.left_decomposition_sizes(), dtype=np.int64)
    right_g = np.asarray(tree_g.right_decomposition_sizes(), dtype=np.int64)
    on_left_f = tree_f.on_parent_path_all(LEFT)
    on_right_f = tree_f.on_parent_path_all(RIGHT)
    on_heavy_f = tree_f.on_parent_path_all(HEAVY)
    on_left_g = tree_g.on_parent_path_all(LEFT)
    on_right_g = tree_g.on_parent_path_all(RIGHT)
    on_heavy_g = tree_g.on_parent_path_all(HEAVY)

    left_sums_f = np.zeros((n_f, n_g), dtype=np.int64)
    right_sums_f = np.zeros((n_f, n_g), dtype=np.int64)
    heavy_sums_f = np.zeros((n_f, n_g), dtype=np.int64)
    choice_codes = np.empty((n_f, n_g), dtype=np.int8)
    costs = np.empty((n_f, n_g), dtype=np.int64)

    deadline = active_deadline()
    for v in range(n_f):
        if deadline is not None:
            # One v-row is O(n_g) scalar work; weight the tick accordingly.
            deadline.tick(n_g)
        size_v = sizes_f[v]
        full_v, left_v, right_v = full_f[v], left_f[v], right_f[v]
        heavy_f_term = (size_v * full_g + heavy_sums_f[v]).tolist()
        left_f_term = (size_v * left_g + left_sums_f[v]).tolist()
        right_f_term = (size_v * right_g + right_sums_f[v]).tolist()
        left_sums_g = [0] * n_g
        right_sums_g = [0] * n_g
        heavy_sums_g = [0] * n_g
        code_row = [0] * n_g
        cost_row = [0] * n_g
        for w in range(n_g):
            # The six candidates in the cost formula's tie-breaking order
            # (ALL_FIXED_CHOICES); the first minimum wins.
            size_w = sizes_g[w]
            best = heavy_f_term[w]  # γ_H(F_v)
            code = 0
            cand = size_w * full_v + heavy_sums_g[w]  # γ_H(G_w)
            if cand < best:
                best, code = cand, 1
            cand = left_f_term[w]  # γ_L(F_v)
            if cand < best:
                best, code = cand, 2
            cand = size_w * left_v + left_sums_g[w]  # γ_L(G_w)
            if cand < best:
                best, code = cand, 3
            cand = right_f_term[w]  # γ_R(F_v)
            if cand < best:
                best, code = cand, 4
            cand = size_w * right_v + right_sums_g[w]  # γ_R(G_w)
            if cand < best:
                best, code = cand, 5
            code_row[w] = code
            cost_row[w] = best

            parent_w = parents_g[w]
            if parent_w != -1:
                left_sums_g[parent_w] += left_sums_g[w] if on_left_g[w] else best
                right_sums_g[parent_w] += right_sums_g[w] if on_right_g[w] else best
                heavy_sums_g[parent_w] += heavy_sums_g[w] if on_heavy_g[w] else best

        choice_codes[v] = code_row
        costs[v] = cost_row
        parent_v = parents_f[v]
        if parent_v != -1:
            cost_vec = costs[v]
            left_sums_f[parent_v] += left_sums_f[v] if on_left_f[v] else cost_vec
            right_sums_f[parent_v] += right_sums_f[v] if on_right_f[v] else cost_vec
            heavy_sums_f[parent_v] += heavy_sums_f[v] if on_heavy_f[v] else cost_vec

    return OptimalStrategyResult(
        choice_codes=choice_codes,
        cost=costs[n_f - 1, n_g - 1],
        costs=costs,
    )
