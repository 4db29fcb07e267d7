"""OptStrategy — the optimal LRH strategy in ``O(n^2)`` time (Algorithm 2).

Given two trees ``F`` and ``G``, Algorithm 2 of the paper computes, for every
pair of subtrees ``(F_v, G_w)``, the root-leaf path (left, right or heavy, in
either tree) that minimizes the number of relevant subproblems GTED must
evaluate, together with that minimum count.  The key idea is to maintain the
*cost sums over relevant subtrees* incrementally instead of recomputing them,
which brings the strategy computation down from ``O(n^3)`` (the baseline
algorithm of Section 6.1, implemented in
:mod:`repro.counting.cost_formula`) to ``O(n^2)``.

The strategy matrix is stored as an ``int8`` array — entry ``(v, w)`` is an
index into :data:`~repro.algorithms.strategies.ALL_FIXED_CHOICES` — and the
cost matrix as an ``int64`` array, never as ``|F| × |G|`` objects.  Two
implementations share that layout:

* :func:`_optimal_strategy_python` — the paper's loop over the pairs in
  postorder, in its array layout: the ``F``-side cost sums are ``|F| × |G|``
  ``int64`` arrays, the ``G``-side sums one list per row of ``F``;
* :func:`_optimal_strategy_numpy` — the level-blocked version: the
  sequential child→parent cost flow is batched by *height level* of both
  trees (all pairs of one level pair are independent given the levels
  below), each block a handful of NumPy vector operations.

Each wins on its own inputs (a deep zigzag favours the flat loop, a bushy
random tree the level blocks), and :func:`optimal_strategy` picks one by
the height test.  The test-suite checks both against a direct re-derivation
of Figure 5 at every subtree pair, and their costs against the memoized
brute force of :func:`repro.counting.optimal_cost_bruteforce`.

The module exposes :func:`optimal_strategy`, the full Algorithm 2, returning
an :class:`OptimalStrategyResult` with the encoded strategy matrix, the cost
matrix and the optimal subproblem count;
:attr:`OptimalStrategyResult.strategy` wraps the matrix as an
:class:`~repro.algorithms.strategies.EncodedStrategy` ready to be passed to
GTED / the executors.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..runtime import active_deadline
from ..trees.tree import HEAVY, LEFT, RIGHT, Tree
from .strategies import EncodedStrategy

#: Per-block fixed overhead (ufunc dispatch, temporaries) of the level-blocked
#: implementation relative to per-pair scalar work: it runs only when the
#: level-pair block count is at least this many times smaller than the pair
#: count, else the flat loop does (deep, path-like trees).  Measured
#: crossover on a 2-vCPU VM: the flat loop wins up to ~110 pairs per block
#: (random-100, treebank-300, treefam-300), the blocks from ~135
#: (treebank-400, random-150).
_BLOCK_OVERHEAD_FACTOR = 128


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


def _shared_factors(tree_f: Tree, tree_g: Tree):
    """The per-node factors of the six products in the cost formula."""
    return (
        tree_f.full_decomposition_sizes(),
        tree_g.full_decomposition_sizes(),
        tree_f.left_decomposition_sizes(),
        tree_g.left_decomposition_sizes(),
        tree_f.right_decomposition_sizes(),
        tree_g.right_decomposition_sizes(),
    )


def optimal_strategy(tree_f: Tree, tree_g: Tree) -> OptimalStrategyResult:
    """Compute the optimal LRH strategy for ``(tree_f, tree_g)`` (Algorithm 2).

    Runs in ``O(|F| · |G|)`` time and space; dispatches to the level-blocked
    NumPy implementation when worthwhile, and to the flat loop otherwise.
    Both produce bit-identical results (the test-suite re-derives every
    entry of both from Figure 5).
    """
    if tree_f.n >= 2 and tree_g.n >= 2:
        heights_f = _node_heights(tree_f)
        heights_g = _node_heights(tree_g)
        blocks = (max(heights_f) + 1) * (max(heights_g) + 1)
        # Level-pair blocking degenerates on deep, path-like inputs (blocks
        # shrink towards single pairs); the flat loop wins there.
        if blocks * _BLOCK_OVERHEAD_FACTOR <= tree_f.n * tree_g.n:
            return _optimal_strategy_numpy(tree_f, tree_g, heights_f, heights_g)
    return _optimal_strategy_python(tree_f, tree_g)


def _node_heights(tree: Tree) -> List[int]:
    """Height of every node (leaves are 0), in postorder."""
    heights = [0] * tree.n
    children = tree.children
    for v in range(tree.n):
        kids = children[v]
        if kids:
            heights[v] = 1 + max(heights[c] for c in kids)
    return heights


# --------------------------------------------------------------------------- #
# Flat loop
# --------------------------------------------------------------------------- #
def _optimal_strategy_python(tree_f: Tree, tree_g: Tree) -> OptimalStrategyResult:
    """Algorithm 2 as one flat loop over the pairs ``(v, w)`` in postorder.

    The paper's array layout: the ``F``-side cost sums ``Lv/Rv/Hv`` are
    ``int64`` rows over ``G`` (each row's three ``F``-path candidates are one
    vector expression, and a finished row is added onto its parent's with
    one vector add), the ``G``-side sums ``Lw/Rw/Hw`` per-row lists.
    """
    n_f, n_g = tree_f.n, tree_g.n
    sizes_f, sizes_g = tree_f.sizes, tree_g.sizes
    parents_f, parents_g = tree_f.parents, tree_g.parents
    full_f, full_g, left_f, left_g, right_f, right_g = _shared_factors(tree_f, tree_g)
    full_g = np.asarray(full_g, dtype=np.int64)
    left_g = np.asarray(left_g, dtype=np.int64)
    right_g = np.asarray(right_g, dtype=np.int64)
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


# --------------------------------------------------------------------------- #
# Vectorized implementation
# --------------------------------------------------------------------------- #
def _optimal_strategy_numpy(
    tree_f: Tree, tree_g: Tree, heights_f: Sequence[int], heights_g: Sequence[int]
) -> OptimalStrategyResult:
    """Algorithm 2 with 2D-blocked vectorized updates.

    The sequential structure of Algorithm 2 is the child→parent flow of the
    cost sums — within a row (over ``G``) *and* across rows (over ``F``).
    Both flows cross *height levels* strictly upward, so pairs of levels
    ``(level of F, level of G)`` can be processed as whole blocks: for each
    block, the six candidate matrices are single vector expressions, the
    winner is one ``argmin`` over the stacked block (first minimum = the
    cost formula's tie-breaking order), and the block's contributions are
    scatter-added onto the parent rows/columns of the six running-sum
    matrices.  Block order (G level ascending, F level ascending inside)
    guarantees every child pair is final before its parents read it.
    """
    n_f, n_g = tree_f.n, tree_g.n

    sizes_f = np.asarray(tree_f.sizes, dtype=np.int64)
    sizes_g = np.asarray(tree_g.sizes, dtype=np.int64)
    full_f, full_g, left_f, left_g, right_f, right_g = _shared_factors(tree_f, tree_g)
    full_f = np.asarray(full_f, dtype=np.int64)
    full_g = np.asarray(full_g, dtype=np.int64)
    left_f = np.asarray(left_f, dtype=np.int64)
    left_g = np.asarray(left_g, dtype=np.int64)
    right_f = np.asarray(right_f, dtype=np.int64)
    right_g = np.asarray(right_g, dtype=np.int64)

    on_left_f = np.asarray(tree_f.on_parent_path_all(LEFT))
    on_right_f = np.asarray(tree_f.on_parent_path_all(RIGHT))
    on_heavy_f = np.asarray(tree_f.on_parent_path_all(HEAVY))
    on_left_g = np.asarray(tree_g.on_parent_path_all(LEFT))
    on_right_g = np.asarray(tree_g.on_parent_path_all(RIGHT))
    on_heavy_g = np.asarray(tree_g.on_parent_path_all(HEAVY))

    hf = np.asarray(heights_f, dtype=np.intp)
    hg = np.asarray(heights_g, dtype=np.intp)

    on_f = (on_heavy_f, on_left_f, on_right_f)
    on_g = (on_heavy_g, on_left_g, on_right_g)
    factors_f = (full_f, left_f, right_f)
    factors_g = (full_g, left_g, right_g)

    def level_data(tree, heights, sizes, factors, on_path, axis):
        """Everything a level contributes to every block it participates in.

        Per level: node ids (broadcast-shaped for its axis), the stacked
        per-kind factor/path-membership arrays, the node sizes, and the
        concatenated child ids + reduceat offsets for gathering the
        children's contributions (``None`` for the leaf level).
        """
        levels = []
        for h in range(int(heights.max()) + 1):
            idx = np.nonzero(heights == h)[0]
            if axis == 0:  # F: rows
                idx_b = idx[:, None]
                fac = np.stack([f[idx] for f in factors])[:, :, None]
                on = np.stack([f[idx] for f in on_path])[:, :, None]
                size = sizes[idx][:, None]
            else:  # G: columns
                idx_b = idx[None, :]
                fac = np.stack([f[idx] for f in factors])[:, None, :]
                on = np.stack([f[idx] for f in on_path])[:, None, :]
                size = sizes[idx][None, :]
            kids_b = offsets = None
            if h > 0:
                kids = [tree.children[int(v)] for v in idx]
                offsets = np.zeros(len(kids), dtype=np.intp)
                np.cumsum([len(k) for k in kids[:-1]], out=offsets[1:])
                flat = np.concatenate(kids).astype(np.intp)
                kids_b = flat[:, None] if axis == 0 else flat[None, :]
            levels.append((idx_b, size, fac, on, kids_b, offsets))
        return levels

    levels_f = level_data(tree_f, hf, sizes_f, factors_f, on_f, axis=0)
    levels_g = level_data(tree_g, hg, sizes_g, factors_g, on_g, axis=1)

    # Contribution stacks, indexed [kind][v][w] (kind = heavy/left/right):
    # entry (v, w) is what the pair contributes to its parent's cost sum —
    # its own sum when the node continues the parent's path, its optimal
    # cost otherwise.  Parents *gather* these over their children (one
    # reduceat per side), which replaces Algorithm 2's per-pair scatter
    # updates.
    contrib_f = np.zeros((3, n_f, n_g), dtype=np.int64)
    contrib_g = np.zeros((3, n_f, n_g), dtype=np.int64)

    choice_codes = np.zeros((n_f, n_g), dtype=np.int8)
    costs = np.zeros((n_f, n_g), dtype=np.int64)
    zero = np.zeros((3, 1, 1), dtype=np.int64)  # broadcastable leaf-level sums

    deadline = active_deadline()
    for col, size_col, fac_col, on_col, kids_g, seg_g in levels_g:
        for row, size_row, fac_row, on_row, kids_f, seg_f in levels_f:
            if deadline is not None:
                # One level-pair block is a batch of whole-row vector ops.
                deadline.tick(len(row) * len(col))
            # Cost sums over relevant subtrees, all three kinds at once:
            # gathered from the children's contribution rows/columns.
            if kids_f is None:
                sums_f = zero
            else:
                sums_f = np.add.reduceat(contrib_f[:, kids_f, col], seg_f, axis=1)
            if kids_g is None:
                sums_g = zero
            else:
                sums_g = np.add.reduceat(contrib_g[:, row, kids_g], seg_g, axis=2)

            # The six candidates, interleaved in the tie-breaking order of
            # the cost formula (heavy-F, heavy-G, left-F, left-G, right-F,
            # right-G); np.argmin keeps the first minimum.
            shape = np.broadcast_shapes(size_row.shape, size_col.shape)
            cand = np.empty((6,) + shape, dtype=np.int64)
            np.add(size_row * fac_col, sums_f, out=cand[0::2])
            np.add(size_col * fac_row, sums_g, out=cand[1::2])
            codes = np.argmin(cand, axis=0)
            best = np.min(cand, axis=0)

            choice_codes[row, col] = codes
            costs[row, col] = best

            # Contributions this block hands up to both parents.
            contrib_f[:, row, col] = np.where(on_row, sums_f, best)
            contrib_g[:, row, col] = np.where(on_col, sums_g, best)

    return OptimalStrategyResult(
        choice_codes=choice_codes,
        cost=int(costs[n_f - 1, n_g - 1]),
        costs=costs,
    )
