"""Independent reference implementation of the tree edit distance.

This module is the correctness oracle of the library: a direct, memoized
transcription of the recursive formula in Figure 2 of the paper, written
without any of the machinery the optimized algorithms share (no
:class:`~repro.trees.forest.ForestView`, no strategies, no path functions).
Every other algorithm is validated against it on randomized inputs.

The decomposition always removes the *leftmost* root node, which corresponds
to one fixed (and valid) instantiation of the recursion; the distance value is
independent of that choice.  The number of subproblems is exponentially worse
than the optimized algorithms in the worst case, so the oracle is only meant
for small trees (tens of nodes).
"""

from __future__ import annotations

import sys
from typing import Dict, Optional, Tuple

from ..costs import CostModel
from ..runtime import as_deadline, deadline_scope
from ..trees.tree import Tree
from .base import BoundedResult, Stopwatch, TEDAlgorithm, TEDResult, resolve_cost_model


class SimpleTED(TEDAlgorithm):
    """Plain memoized recursion over forest pairs (correctness oracle).

    Bounded calls (``cutoff=τ``) run the oracle to completion and apply the
    final check only — as a pure reference implementation it never aborts
    mid-computation.
    """

    name = "Simple"

    def compute(
        self,
        tree_f: Tree,
        tree_g: Tree,
        cost_model: Optional[CostModel] = None,
        cutoff: Optional[float] = None,
        deadline=None,
    ) -> TEDResult:
        cm = resolve_cost_model(cost_model)
        watch = Stopwatch()
        watch.start()

        # Forests are tuples of postorder ids of their component roots.
        memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], float] = {}

        labels_f, labels_g = tree_f.labels, tree_g.labels
        children_f, children_g = tree_f.children, tree_g.children

        delete_cost = [0.0] * tree_f.n
        for v in range(tree_f.n):
            delete_cost[v] = cm.delete(labels_f[v]) + sum(
                delete_cost[c] for c in children_f[v]
            )
        insert_cost = [0.0] * tree_g.n
        for w in range(tree_g.n):
            insert_cost[w] = cm.insert(labels_g[w]) + sum(
                insert_cost[c] for c in children_g[w]
            )

        def forest_delete(roots: Tuple[int, ...]) -> float:
            return sum(delete_cost[r] for r in roots)

        def forest_insert(roots: Tuple[int, ...]) -> float:
            return sum(insert_cost[r] for r in roots)

        def dist(rf: Tuple[int, ...], rg: Tuple[int, ...]) -> float:
            if dl is not None:
                dl.tick()
            if not rf and not rg:
                return 0.0
            if not rg:
                return forest_delete(rf)
            if not rf:
                return forest_insert(rg)
            key = (rf, rg)
            cached = memo.get(key)
            if cached is not None:
                return cached

            v, w = rf[0], rg[0]
            rf_minus_v = tuple(children_f[v]) + rf[1:]
            rg_minus_w = tuple(children_g[w]) + rg[1:]

            best = dist(rf_minus_v, rg) + cm.delete(labels_f[v])
            candidate = dist(rf, rg_minus_w) + cm.insert(labels_g[w])
            if candidate < best:
                best = candidate
            if len(rf) == 1 and len(rg) == 1:
                candidate = dist(rf_minus_v, rg_minus_w) + cm.rename(labels_f[v], labels_g[w])
            else:
                candidate = dist((v,), (w,)) + dist(rf[1:], rg[1:])
            if candidate < best:
                best = candidate

            memo[key] = best
            return best

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 10000 + 20 * (tree_f.n + tree_g.n)))
        try:
            # ``deadline_scope`` yields the effective deadline: the explicit
            # one, or the ambient one a batch/serving caller installed.
            with deadline_scope(as_deadline(deadline)) as dl:
                value = dist((tree_f.root,), (tree_g.root,))
        finally:
            sys.setrecursionlimit(old_limit)

        if cutoff is not None and value >= cutoff:
            return BoundedResult(
                lower_bound=value,
                cutoff=cutoff,
                algorithm=self.name,
                aborted=False,
                subproblems=len(memo),
                distance_time=watch.elapsed(),
                n_f=tree_f.n,
                n_g=tree_g.n,
                extra={"kernel": "simple"},
            )
        return TEDResult(
            distance=value,
            algorithm=self.name,
            subproblems=len(memo),
            distance_time=watch.elapsed(),
            n_f=tree_f.n,
            n_g=tree_g.n,
            extra={"kernel": "simple"},
        )


def simple_ted(tree_f: Tree, tree_g: Tree, cost_model: Optional[CostModel] = None) -> float:
    """Functional shortcut for :class:`SimpleTED`."""
    return SimpleTED().distance(tree_f, tree_g, cost_model=cost_model)
