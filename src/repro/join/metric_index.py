"""A vantage-point tree over corpus trees, for metric-space retrieval.

TED under a metric-compatible cost model is itself a metric (symmetry plus
the triangle inequality follow from the label-level costs forming a metric
on ``labels ∪ {ε}``; Zhang & Shasha), which unlocks classic metric-space
indexing: pick a *vantage* tree, compute its exact TED to every member of
the partition, split at the median distance ``mu`` into an inside ball
(``d ≤ mu``) and an outside shell (``d > mu``), and recurse.  At query
time the triangle inequality turns one exact distance ``d(q, vantage)``
into a lower bound for a whole subtree — ``d(q, x) ≥ d(q, v) − mu`` inside
the ball, ``d(q, x) ≥ mu − d(q, v)`` outside — so range searches visit
only the partitions the bound cannot exclude.  The query engine uses the
tree for range queries only; its kNN is a size-ordered scan.

**Metric gating (the soundness rule).**  Triangle-inequality pruning is
*unsound* for non-metric cost models: a violated triangle silently drops
true results.  :func:`metric_eligible` therefore requires the cost model to
(a) declare :meth:`~repro.costs.CostModel.is_metric` and (b) prove a
positive :meth:`~repro.costs.CostModel.min_operation_cost` (a zero
infimum admits distance-0 pairs of distinct trees, making TED a
pseudometric and median splits degenerate).  :meth:`VPTree.build` raises
:class:`~repro.exceptions.MetricGateError` on an ineligible model — callers (the
query engine) check the gate first and fall back to the inverted index,
which is always sound.

Construction cost is ``O(N log N)`` exact TEDs, paid once per corpus and
amortized over queries; the distances run through
:func:`~repro.join.batch.batch_distances`, so the batched small-pair
kernels and the amortized workspace apply.  The structure is flat
(nodes in a list, integer child links) and both build and traversal are
iterative — no recursion on corpus-sized inputs, per the repo-wide rule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Union

from ..algorithms.base import TEDAlgorithm, resolve_cost_model
from ..costs import CostModel
from ..exceptions import MetricGateError
from .corpus import TreeCorpus

#: Partitions at or below this size become leaf buckets by default: with
#: only a handful of members left, one more vantage evaluation prunes less
#: than it costs compared to letting the filter cascade + batched refiner
#: handle the bucket in one shot.
DEFAULT_LEAF_SIZE = 16


def metric_eligible(cost_model: Optional[CostModel]) -> bool:
    """Whether triangle-inequality pruning is sound under this cost model.

    ``True`` iff the (resolved) model proves metricity *and* a strictly
    positive per-operation cost floor.  Everything else — including models
    that merely fail to implement :meth:`is_metric` — is ineligible, and
    metric-index retrieval must fall back to a linear scan.
    """
    cm = resolve_cost_model(cost_model)
    if not cm.is_metric():
        return False
    floor = cm.min_operation_cost()
    return floor is not None and floor > 0


@dataclass
class VPNode:
    """One vantage-point node (flat layout; children are list indices).

    ``bucket`` is ``None`` for internal nodes; leaf nodes carry the member
    tree ids and have no vantage (``vantage == -1``).  ``count`` is the
    number of corpus trees in the subtree rooted here — traversals use it
    to account for pruned work without walking the pruned subtree.
    """

    vantage: int
    mu: float
    inside: int
    outside: int
    bucket: Optional[List[int]]
    count: int


class VPTree:
    """A vantage-point tree over the trees of one :class:`TreeCorpus`.

    Build with :meth:`build`; traverse via ``nodes`` / ``root`` (the search
    loops live in :mod:`repro.join.query`, which owns the stats and the
    shrinking-radius logic).  The index stores only tree *ids* plus split
    radii — those ids mean the corpus's dense indices **at build time**, so
    the index is valid exactly for the corpus epoch it was built at
    (recorded as :attr:`epoch`).  Build over a
    :class:`~repro.join.corpus.CorpusSnapshot` (the query engine does) to
    keep the ids meaningful across mutations of a live corpus; an engine
    given a prebuilt index whose epoch trails the corpus refuses it.
    """

    def __init__(
        self,
        corpus: TreeCorpus,
        nodes: List[VPNode],
        root: int,
        cost_model: CostModel,
        build_distances: int,
    ) -> None:
        self.corpus = corpus
        self.nodes = nodes
        self.root = root
        self.cost_model = cost_model
        #: Exact TEDs computed during construction (the amortized index cost).
        self.build_distances = build_distances
        #: The corpus epoch the node ids refer to (0 for pre-epoch corpora).
        self.epoch = getattr(corpus, "epoch", 0)

    def __len__(self) -> int:
        return self.nodes[self.root].count if self.root >= 0 else 0

    @classmethod
    def build(
        cls,
        corpus: TreeCorpus,
        algorithm: Union[str, TEDAlgorithm] = "rted",
        cost_model: Optional[CostModel] = None,
        engine: Optional[str] = None,
        leaf_size: int = DEFAULT_LEAF_SIZE,
        seed: int = 0,
        workers: int = 1,
        chunk_size: int = 256,
        workspace=None,
    ) -> "VPTree":
        """Construct the index over every tree of ``corpus``.

        Raises :class:`MetricGateError` when the cost model fails the metric gate
        (see :func:`metric_eligible`) — an unsound index must be impossible
        to build, not merely inadvisable.  ``seed`` makes vantage selection
        deterministic; the exact distances run through
        :func:`~repro.join.batch.batch_distances` with the given execution
        knobs.
        """
        from .batch import batch_distances

        cm = resolve_cost_model(cost_model)
        if not metric_eligible(cm):
            raise MetricGateError(
                "cost model is not provably a metric (is_metric() false or "
                "min_operation_cost() not positive); triangle-inequality "
                "pruning would be unsound — use a linear scan instead"
            )
        rng = random.Random(seed)
        nodes: List[VPNode] = []
        build_distances = 0
        root = -1
        # Iterative build: each stack entry is (member ids, parent node id,
        # is_inside_child); node ids are patched into the parent when created.
        stack: List[tuple] = []
        items = list(range(len(corpus)))
        if items:
            stack.append((items, -1, False))
        while stack:
            members, parent, is_inside = stack.pop()
            node_id = len(nodes)
            if len(members) <= max(1, leaf_size):
                nodes.append(
                    VPNode(
                        vantage=-1,
                        mu=0.0,
                        inside=-1,
                        outside=-1,
                        bucket=sorted(members),
                        count=len(members),
                    )
                )
            else:
                vantage = members[rng.randrange(len(members))]
                rest = [i for i in members if i != vantage]
                pairs = [(vantage, i) for i in rest]
                entries = batch_distances(
                    corpus,
                    None,
                    pairs,
                    algorithm=algorithm,
                    cost_model=cm,
                    engine=engine,
                    workers=workers,
                    chunk_size=chunk_size,
                    workspace=workspace,
                )
                build_distances += len(entries)
                dist = {j: d for _, j, d, *_ in entries}
                ordered = sorted(rest, key=lambda i: dist[i])
                mu = dist[ordered[(len(ordered) - 1) // 2]]
                inside = [i for i in rest if dist[i] <= mu]
                outside = [i for i in rest if dist[i] > mu]
                if not inside or not outside:
                    # Degenerate split (many identical distances): a further
                    # recursion could loop forever, so bucket the partition.
                    nodes.append(
                        VPNode(
                            vantage=-1,
                            mu=0.0,
                            inside=-1,
                            outside=-1,
                            bucket=sorted(members),
                            count=len(members),
                        )
                    )
                else:
                    nodes.append(
                        VPNode(
                            vantage=vantage,
                            mu=mu,
                            inside=-1,
                            outside=-1,
                            bucket=None,
                            count=len(members),
                        )
                    )
                    stack.append((inside, node_id, True))
                    stack.append((outside, node_id, False))
            if parent < 0:
                root = node_id
            elif is_inside:
                nodes[parent].inside = node_id
            else:
                nodes[parent].outside = node_id
        return cls(
            corpus=corpus,
            nodes=nodes,
            root=root,
            cost_model=cm,
            build_distances=build_distances,
        )
