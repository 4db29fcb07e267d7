"""Zhang & Shasha's tree edit distance algorithm (left and right variants).

This is the classic ``O(n^2)``-space dynamic program [Zhang & Shasha, SIAM
J. Comput. 1989], which in the paper's framework corresponds to the fixed LRH
strategy that maps every subtree pair to the *left* path of the left-hand
tree (``Zhang-L``).  The mirror variant (``Zhang-R``) maps every pair to the
right path and is implemented here by running the left-path algorithm on
mirrored trees, which yields the same distance.

The implementation follows the textbook formulation: for every pair of
*keyroots* a forest-distance table is filled, and distances between pairs of
subtrees are stored in a persistent ``n × m`` tree-distance matrix.  The
number of forest-distance cells evaluated — the algorithm's relevant
subproblems — is reported in the result.
"""

from __future__ import annotations

from math import ceil
from typing import List, Optional

from ..costs import CostModel
from ..runtime import active_deadline, as_deadline, deadline_scope
from ..trees.tree import Tree
from .base import (
    BoundedResult,
    CutoffExceeded,
    Stopwatch,
    TEDAlgorithm,
    TEDResult,
    check_row_cutoff,
    cutoff_band,
    cutoff_slack,
    precheck_bounded,
    resolve_cost_model,
)


def _kernel_extra() -> dict:
    """``extra`` of results computed by the dedicated tables."""
    return {"kernel": "zhang-shasha"}


class _ZhangShashaBase(TEDAlgorithm):
    """Shared compute/bounding scaffold of the two dedicated ZS variants."""

    def _trees(self, tree_f: Tree, tree_g: Tree):
        raise NotImplementedError

    def compute(
        self,
        tree_f: Tree,
        tree_g: Tree,
        cost_model: Optional[CostModel] = None,
        cutoff: Optional[float] = None,
        deadline=None,
    ) -> TEDResult:
        with deadline_scope(as_deadline(deadline)):
            return self._compute(tree_f, tree_g, cost_model, cutoff)

    def _compute(
        self,
        tree_f: Tree,
        tree_g: Tree,
        cost_model: Optional[CostModel],
        cutoff: Optional[float],
    ) -> TEDResult:
        cm = resolve_cost_model(cost_model)
        watch = Stopwatch()
        watch.start()
        pre = precheck_bounded(
            tree_f, tree_g, cm, cutoff, self.name, watch, extra=_kernel_extra()
        )
        if pre is not None:
            return pre
        run_f, run_g = self._trees(tree_f, tree_g)
        try:
            distance, subproblems, _ = zhang_shasha_distance(run_f, run_g, cm, cutoff=cutoff)
        except CutoffExceeded as exceeded:
            return BoundedResult(
                lower_bound=exceeded.lower_bound,
                cutoff=cutoff,
                algorithm=self.name,
                aborted=True,
                subproblems=exceeded.subproblems,
                distance_time=watch.elapsed(),
                n_f=tree_f.n,
                n_g=tree_g.n,
                extra=_kernel_extra(),
            )
        if cutoff is not None and distance >= cutoff:
            return BoundedResult(
                lower_bound=distance,
                cutoff=cutoff,
                algorithm=self.name,
                aborted=False,
                subproblems=subproblems,
                distance_time=watch.elapsed(),
                n_f=tree_f.n,
                n_g=tree_g.n,
                extra=_kernel_extra(),
            )
        return TEDResult(
            distance=distance,
            algorithm=self.name,
            subproblems=subproblems,
            distance_time=watch.elapsed(),
            n_f=tree_f.n,
            n_g=tree_g.n,
            extra=_kernel_extra(),
        )


class ZhangShashaTED(_ZhangShashaBase):
    """Zhang & Shasha's algorithm using left paths (``Zhang-L``)."""

    name = "Zhang-L"

    def _trees(self, tree_f: Tree, tree_g: Tree):
        return tree_f, tree_g


class ZhangShashaRightTED(_ZhangShashaBase):
    """The mirror variant of Zhang & Shasha using right paths (``Zhang-R``)."""

    name = "Zhang-R"

    def _trees(self, tree_f: Tree, tree_g: Tree):
        # Mirroring both trees turns right-path decomposition into left-path
        # decomposition without changing the distance (the edit operations are
        # symmetric under reversal of sibling order).
        return tree_f.mirrored(), tree_g.mirrored()


def zhang_shasha_distance(
    tree_f: Tree, tree_g: Tree, cost_model: CostModel, cutoff: Optional[float] = None
) -> tuple[float, int, List[List[float]]]:
    """Core Zhang–Shasha dynamic program.

    Returns ``(distance, #subproblems, tree_distance_matrix)`` where
    ``tree_distance_matrix[v][w]`` is the edit distance between the subtree of
    ``tree_f`` rooted at ``v`` and the subtree of ``tree_g`` rooted at ``w``
    (both identified by postorder id).  The matrix is reused by the edit
    mapping backtrace.

    ``cutoff`` makes the program *τ-bounded* (``DESIGN.md``, *Bounded
    verification*): every keyroot region is restricted to its
    ``c · |i − j| < cutoff`` band (``c`` the per-operation cost floor;
    out-of-band cells provably hold ``≥ cutoff`` and are read as ``+inf``),
    the final region — whose rows are whole-tree prefix-forest distances —
    runs the per-row early abort, and a banded distance landing at or above
    the cutoff raises :class:`~repro.algorithms.base.CutoffExceeded` with
    the cutoff as the proving bound.  Sub-cutoff distances are bit-identical
    to unbounded runs.  Models without a provable positive cost floor run
    unbounded (callers apply the final check on the exact distance).
    """
    n_f, n_g = tree_f.n, tree_g.n
    labels_f, labels_g = tree_f.labels, tree_g.labels
    lml_f, lml_g = tree_f.lml, tree_g.lml

    delete_costs = [cost_model.delete(labels_f[v]) for v in range(n_f)]
    insert_costs = [cost_model.insert(labels_g[w]) for w in range(n_g)]

    band = cutoff_band(cost_model) if cutoff is not None else None
    if band is None:
        band_w = None
        slack = 0.0
    else:
        # |i − j| > band_w ⇔ the forest sizes differ by enough operations
        # to cost ≥ cutoff on their own — widened by the round-off slack
        # (base.CUTOFF_SLACK) so the float-accumulated DP value of every
        # excluded cell is ≥ cutoff, not just its real-arithmetic value.
        slack = cutoff_slack(cost_model)
        band_w = max(0, ceil(cutoff * (1.0 + slack) / band) - 1)
        if abs(n_f - n_g) > band_w:
            # The final corner would fall outside the band; the size bound
            # already proves d ≥ cutoff.
            raise CutoffExceeded(max(cutoff, band * abs(n_f - n_g) * (1.0 - slack)))

    tree_dist: List[List[float]] = [[0.0] * n_g for _ in range(n_f)]
    subproblems = 0
    deadline = active_deadline()

    try:
        for keyroot_f in tree_f.keyroots_left():
            for keyroot_g in tree_g.keyroots_left():
                # Keyroots ascend, so the whole-tree region runs last.
                final = keyroot_f == n_f - 1 and keyroot_g == n_g - 1
                subproblems += _forest_distance(
                    keyroot_f,
                    keyroot_g,
                    lml_f,
                    lml_g,
                    labels_f,
                    labels_g,
                    delete_costs,
                    insert_costs,
                    cost_model,
                    tree_dist,
                    cut=(cutoff, band, slack) if band is not None and final else None,
                    band_w=band_w,
                    deadline=deadline,
                )
    except CutoffExceeded as exceeded:
        # Report the cells of the completed regions, same currency as
        # finished runs (the aborted region's partial rows are not counted).
        exceeded.subproblems = subproblems
        raise

    distance = tree_dist[n_f - 1][n_g - 1]
    if band_w is not None and distance >= cutoff:
        # Banded values at or above the cutoff may be inflated; the cutoff
        # itself is the certified lower bound.
        exceeded = CutoffExceeded(cutoff)
        exceeded.subproblems = subproblems
        raise exceeded
    return distance, subproblems, tree_dist


def _forest_distance(
    keyroot_f: int,
    keyroot_g: int,
    lml_f,
    lml_g,
    labels_f,
    labels_g,
    delete_costs,
    insert_costs,
    cost_model: CostModel,
    tree_dist: List[List[float]],
    cut=None,
    band_w=None,
    deadline=None,
) -> int:
    """Fill the forest-distance table for one keyroot pair.

    Updates ``tree_dist`` in place for every pair of subtrees whose roots have
    the same leftmost leaves as the keyroots, and returns the number of table
    cells evaluated (the relevant subproblems of this invocation).  ``cut``
    — ``(cutoff, band, slack)``, final region of a bounded run only — arms the
    per-row early abort shared with the spf kernels; ``band_w`` restricts
    every row to its ``|i − j| ≤ band_w`` window (τ-bounded mode), with
    ``+inf`` standing in for out-of-band reads — including ``tree_dist``
    entries of subtree pairs whose spanning cell fell outside the band of
    their own region, which were never written.
    """
    lf, lg = lml_f[keyroot_f], lml_g[keyroot_g]
    rows = keyroot_f - lf + 2
    cols = keyroot_g - lg + 2

    # fd[i][j] = distance between the forest of nodes lf..lf+i-1 of F and the
    # forest of nodes lg..lg+j-1 of G (postorder-contiguous prefixes).
    fd: List[List[float]] = [[0.0] * cols for _ in range(rows)]
    for i in range(1, rows):
        fd[i][0] = fd[i - 1][0] + delete_costs[lf + i - 1]
    for j in range(1, cols):
        fd[0][j] = fd[0][j - 1] + insert_costs[lg + j - 1]

    if band_w is None:
        for i in range(1, rows):
            if deadline is not None:
                deadline.tick()
            node_f = lf + i - 1
            f_spans_from_lf = lml_f[node_f] == lf
            for j in range(1, cols):
                node_g = lg + j - 1
                if f_spans_from_lf and lml_g[node_g] == lg:
                    best = min(
                        fd[i - 1][j] + delete_costs[node_f],
                        fd[i][j - 1] + insert_costs[node_g],
                        fd[i - 1][j - 1] + cost_model.rename(labels_f[node_f], labels_g[node_g]),
                    )
                    fd[i][j] = best
                    tree_dist[node_f][node_g] = best
                else:
                    fd[i][j] = min(
                        fd[i - 1][j] + delete_costs[node_f],
                        fd[i][j - 1] + insert_costs[node_g],
                        fd[lml_f[node_f] - lf][lml_g[node_g] - lg] + tree_dist[node_f][node_g],
                    )
        return (rows - 1) * (cols - 1)

    inf = float("inf")
    cells = 0
    for i in range(1, rows):
        if deadline is not None:
            deadline.tick()
        lo = i - band_w
        if lo < 1:
            lo = 1
        hi = i + band_w
        if hi > cols - 1:
            hi = cols - 1
        if lo > hi:
            # The band left the table; every later row is farther out still.
            break
        node_f = lf + i - 1
        f_spans_from_lf = lml_f[node_f] == lf
        si = lml_f[node_f] - lf
        split_row = fd[si]
        rem_f_node = node_f - lml_f[node_f]
        row = fd[i]
        prev = fd[i - 1]
        if lo > 1:
            row[lo - 1] = inf
        for j in range(lo, hi + 1):
            node_g = lg + j - 1
            best = prev[j] + delete_costs[node_f]
            candidate = row[j - 1] + insert_costs[node_g]
            if candidate < best:
                best = candidate
            if f_spans_from_lf and lml_g[node_g] == lg:
                candidate = prev[j - 1] + cost_model.rename(labels_f[node_f], labels_g[node_g])
                if candidate < best:
                    best = candidate
                row[j] = best
                tree_dist[node_f][node_g] = best
            else:
                sc = lml_g[node_g] - lg
                if si == 0 or sc == 0 or (si - band_w <= sc <= si + band_w):
                    candidate = split_row[sc]
                else:
                    candidate = inf
                if abs(rem_f_node - (node_g - lml_g[node_g])) <= band_w:
                    candidate += tree_dist[node_f][node_g]
                else:
                    candidate = inf
                if candidate < best:
                    best = candidate
                row[j] = best
        if hi + 1 <= cols - 1:
            row[hi + 1] = inf
        cells += hi - lo + 1
        if cut is not None:
            check_row_cutoff(
                row, cols, rows - 1 - i, cut[0], cut[1], lo, hi,
                exact_values=False, slack=cut[2],
            )

    return cells


def zhang_shasha(tree_f: Tree, tree_g: Tree, cost_model: Optional[CostModel] = None) -> float:
    """Functional shortcut returning only the Zhang–Shasha distance."""
    return ZhangShashaTED().distance(tree_f, tree_g, cost_model=cost_model)
