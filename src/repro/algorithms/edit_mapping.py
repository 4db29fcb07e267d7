"""Edit mappings and edit scripts.

Beyond the distance *value*, many applications (diffing, change detection,
record linkage) need the actual node alignment that realizes the minimum
cost.  This module backtracks through the left-path (Zhang–Shasha) forest
recurrence to produce an :class:`EditMapping` — the set of matched node
pairs plus the deleted and inserted nodes — and converts it into a
human-readable edit script.

The backtrace needs only the subtree-distance table ``D[v][w]`` of every
subtree pair plus forest tables recomputed for the subtree pairs it visits
(Paaßen, arXiv 1805.06869).  The table comes from the ``spf`` executor
running ``GTED`` with the left-path strategy, the decomposition whose forest
recurrence the backtrace repeats.

The mapping produced is optimal for the supplied cost model: its cost always
equals the tree edit distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..costs import CostModel
from ..trees.tree import Tree
from .base import resolve_cost_model
from .gted import StrategyExecutor
from .strategies import LeftFStrategy
from .workspace import TedWorkspace


@dataclass
class EditOperation:
    """A single node edit operation of an edit script."""

    op: str
    """One of ``"delete"``, ``"insert"``, ``"rename"``, ``"match"``."""

    source: Optional[int] = None
    """Postorder id in the source tree (``None`` for insertions)."""

    target: Optional[int] = None
    """Postorder id in the target tree (``None`` for deletions)."""

    source_label: Optional[object] = None
    target_label: Optional[object] = None
    cost: float = 0.0

    def __str__(self) -> str:
        if self.op == "delete":
            return f"delete {self.source_label!r} (source node {self.source})"
        if self.op == "insert":
            return f"insert {self.target_label!r} (target node {self.target})"
        if self.op == "rename":
            return (
                f"rename {self.source_label!r} -> {self.target_label!r} "
                f"(source {self.source}, target {self.target})"
            )
        return f"match {self.source_label!r} (source {self.source}, target {self.target})"


@dataclass
class EditMapping:
    """An optimal node alignment between two trees.

    ``matches`` contains pairs of postorder ids ``(v, w)`` of aligned nodes
    (including identity matches and renames); ``deletions`` and ``insertions``
    list unmatched source / target nodes.
    """

    matches: List[Tuple[int, int]] = field(default_factory=list)
    deletions: List[int] = field(default_factory=list)
    insertions: List[int] = field(default_factory=list)
    cost: float = 0.0

    def to_edit_script(self, tree_f: Tree, tree_g: Tree, cost_model: CostModel) -> List[EditOperation]:
        """Expand the mapping into explicit edit operations."""
        script: List[EditOperation] = []
        for v in sorted(self.deletions):
            script.append(
                EditOperation(
                    op="delete",
                    source=v,
                    source_label=tree_f.labels[v],
                    cost=cost_model.delete(tree_f.labels[v]),
                )
            )
        for v, w in sorted(self.matches):
            rename_cost = cost_model.rename(tree_f.labels[v], tree_g.labels[w])
            script.append(
                EditOperation(
                    op="rename" if rename_cost > 0 else "match",
                    source=v,
                    target=w,
                    source_label=tree_f.labels[v],
                    target_label=tree_g.labels[w],
                    cost=rename_cost,
                )
            )
        for w in sorted(self.insertions):
            script.append(
                EditOperation(
                    op="insert",
                    target=w,
                    target_label=tree_g.labels[w],
                    cost=cost_model.insert(tree_g.labels[w]),
                )
            )
        return script

    def is_valid_mapping(self, tree_f: Tree, tree_g: Tree) -> bool:
        """Check the tree-mapping conditions (one-to-one, ancestor & order preserving)."""
        seen_f = set()
        seen_g = set()
        for v, w in self.matches:
            if v in seen_f or w in seen_g:
                return False
            seen_f.add(v)
            seen_g.add(w)
        for v1, w1 in self.matches:
            for v2, w2 in self.matches:
                if v1 == v2:
                    continue
                # Ancestor condition: v1 is an ancestor of v2 iff w1 is an
                # ancestor of w2.
                anc_f = tree_f.is_descendant(v2, v1) and v1 != v2
                anc_g = tree_g.is_descendant(w2, w1) and w1 != w2
                if anc_f != anc_g:
                    return False
                # Order condition (on postorder ids for non-ancestor pairs).
                if not anc_f and not (tree_f.is_descendant(v1, v2)):
                    if (v1 < v2) != (w1 < w2):
                        return False
        expected_f = set(range(tree_f.n))
        expected_g = set(range(tree_g.n))
        covered_f = seen_f | set(self.deletions)
        covered_g = seen_g | set(self.insertions)
        return covered_f == expected_f and covered_g == expected_g


def compute_edit_mapping(
    tree_f: Tree, tree_g: Tree, cost_model: Optional[CostModel] = None
) -> EditMapping:
    """Compute an optimal edit mapping by backtracking the left-path DP."""
    cm = resolve_cost_model(cost_model)
    # A fresh workspace changes no value; it lets unit-cost regions compare
    # interned label codes instead of calling the cost model.
    executor = StrategyExecutor(
        tree_f, tree_g, LeftFStrategy(), cost_model=cm, workspace=TedWorkspace(cm)
    )
    distance = executor.distance()
    # Once the root pair is done, D holds the distance of every subtree pair.
    tree_dist = executor.context.D.tolist()

    mapping = EditMapping(cost=distance)
    matched_f = set()
    matched_g = set()

    # Subtree pairs are backtraced from an explicit worklist (not recursion):
    # each composite cell discovered while walking a forest table schedules
    # the corresponding subtree pair, so arbitrarily deep trees are handled
    # at the default interpreter recursion limit.
    pending: List[Tuple[int, int]] = [(tree_f.root, tree_g.root)]
    while pending:
        root_f, root_g = pending.pop()
        _backtrace_subtrees(tree_f, tree_g, cm, tree_dist, root_f, root_g, mapping, pending)

    for v, _ in mapping.matches:
        matched_f.add(v)
    for _, w in mapping.matches:
        matched_g.add(w)
    mapping.deletions = [v for v in range(tree_f.n) if v not in matched_f]
    mapping.insertions = [w for w in range(tree_g.n) if w not in matched_g]
    return mapping


def _backtrace_subtrees(
    tree_f: Tree,
    tree_g: Tree,
    cost_model: CostModel,
    tree_dist: List[List[float]],
    root_f: int,
    root_g: int,
    mapping: EditMapping,
    pending: List[Tuple[int, int]],
) -> None:
    """Re-run the forest DP for the subtree pair and walk it backwards.

    Composite cells (a subtree distance composed with the surrounding forest)
    are appended to ``pending`` for the caller's worklist instead of being
    followed recursively.
    """
    lml_f, lml_g = tree_f.lml, tree_g.lml
    labels_f, labels_g = tree_f.labels, tree_g.labels
    lf, lg = lml_f[root_f], lml_g[root_g]
    rows = root_f - lf + 2
    cols = root_g - lg + 2

    delete_costs = [cost_model.delete(labels_f[lf + i - 1]) for i in range(1, rows)]
    insert_costs = [cost_model.insert(labels_g[lg + j - 1]) for j in range(1, cols)]

    fd = [[0.0] * cols for _ in range(rows)]
    for i in range(1, rows):
        fd[i][0] = fd[i - 1][0] + delete_costs[i - 1]
    for j in range(1, cols):
        fd[0][j] = fd[0][j - 1] + insert_costs[j - 1]
    for i in range(1, rows):
        node_f = lf + i - 1
        spans_f = lml_f[node_f] == lf
        for j in range(1, cols):
            node_g = lg + j - 1
            if spans_f and lml_g[node_g] == lg:
                fd[i][j] = min(
                    fd[i - 1][j] + delete_costs[i - 1],
                    fd[i][j - 1] + insert_costs[j - 1],
                    fd[i - 1][j - 1] + cost_model.rename(labels_f[node_f], labels_g[node_g]),
                )
            else:
                fd[i][j] = min(
                    fd[i - 1][j] + delete_costs[i - 1],
                    fd[i][j - 1] + insert_costs[j - 1],
                    fd[lml_f[node_f] - lf][lml_g[node_g] - lg] + tree_dist[node_f][node_g],
                )

    # The backtrace compares candidates with *exact* float equality: each
    # cell was stored as the minimum of exactly these candidate expressions,
    # and recomputing a candidate here repeats the identical arithmetic, so
    # the chosen predecessor compares bit-equal.  A tolerance would be not
    # only unnecessary but wrong — an absolute epsilon mis-selects branches
    # whenever operation costs are at or below it (e.g. 1e-12-scale models)
    # and can over-match for large-magnitude costs where distinct sums sit
    # closer than the tolerance.
    i, j = rows - 1, cols - 1
    while i > 0 or j > 0:
        if i > 0 and fd[i][j] == fd[i - 1][j] + delete_costs[i - 1]:
            i -= 1
            continue
        if j > 0 and fd[i][j] == fd[i][j - 1] + insert_costs[j - 1]:
            j -= 1
            continue
        node_f = lf + i - 1
        node_g = lg + j - 1
        spans_f = lml_f[node_f] == lf
        spans_g = lml_g[node_g] == lg
        if spans_f and spans_g:
            mapping.matches.append((node_f, node_g))
            i -= 1
            j -= 1
        else:
            # The cell was obtained by composing the subtree distance of
            # (node_f, node_g) with the remaining forest: schedule that
            # subtree pair for backtracing and jump over it.
            pending.append((node_f, node_g))
            i = lml_f[node_f] - lf
            j = lml_g[node_g] - lg


def mapping_cost(
    mapping: EditMapping, tree_f: Tree, tree_g: Tree, cost_model: Optional[CostModel] = None
) -> float:
    """Recompute the cost of a mapping from its operations (for validation)."""
    cm = resolve_cost_model(cost_model)
    total = 0.0
    for v in mapping.deletions:
        total += cm.delete(tree_f.labels[v])
    for w in mapping.insertions:
        total += cm.insert(tree_g.labels[w])
    for v, w in mapping.matches:
        total += cm.rename(tree_f.labels[v], tree_g.labels[w])
    return total
