"""Query-centric retrieval: top-k and range queries over a tree corpus.

The all-pairs join answers "which pairs of corpus trees are close"; this
module answers the question a retrieval service actually sees — "which
corpus trees are close to *this* query" — sublinearly where possible:

* :meth:`QueryEngine.range_query` (``TED(query, tree) < τ``) is one more
  composition of the planner/filter/refiner pipeline
  (:mod:`repro.join.pipeline`): a candidate source (the metric index when
  the cost model passes the gate, the asymmetric inverted index otherwise),
  the sound filter cascade evaluated query-profile-vs-corpus-profile, and
  the τ-bounded batched refiner.
* :meth:`QueryEngine.knn` has no fixed τ, so it cannot be a static plan:
  it runs **best-first** over the vantage-point tree
  (:mod:`repro.join.metric_index`), maintaining the k best results as a
  shrinking radius ``r`` (the current k-th best distance).  Every subtree
  is enqueued with its triangle-inequality lower bound; a popped bound
  that exceeds ``r`` ends the search.  The radius feeds straight into the
  τ-bounded refiner of PR 5: leaf buckets are filtered by the cascade at
  ``τ_eff`` just above ``r`` and verified with ``cutoff`` just above ``r``,
  so non-competitive candidates abort as soon as ``d > r`` is proven.

Tie-safety: results are ordered lexicographically by ``(distance, index)``
and every prune is strict — a subtree is discarded only when its lower
bound *exceeds* the current radius, cascade/refiner cutoffs sit one ULP
above ``r`` (``math.nextafter``) — so ``knn`` returns exactly the first
``k`` entries of the brute-force ranking, ties included (the property
suite asserts set equality against brute force).

Cost-model soundness: triangle-inequality pruning engages only when
:func:`~repro.join.metric_index.metric_eligible` holds; otherwise the
engine falls back to a linear scan whose only pruning comes from the
orientation-independent operation-count bounds of the cascade (sound for
any model with a positive cost floor, including non-symmetric ones).
Distances are always computed ``query → corpus tree``, so non-symmetric
models return the correctly oriented result set.

Live corpora: the engine serves a **mutating** corpus exactly.  It pins a
:class:`~repro.join.corpus.CorpusSnapshot` (and builds its VP-tree over the
pin); per query it reads the membership drift — parent trees added since
the pin form a *deferred-insert side list* that is refined exactly and
merged by ``(distance, index)``, snapshot results whose trees the parent
removed are dropped during translation to current indices — so kNN/range
results are bit-identical to a fresh engine over the current trees.  Once
the drift exceeds ``staleness_budget`` (a fraction of the pinned size) the
snapshot is refreshed and the index lazily rebuilt.
"""

from __future__ import annotations

import heapq
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union
from weakref import WeakKeyDictionary

from ..algorithms.base import TEDAlgorithm, resolve_cost_model
from ..algorithms.workspace import TedWorkspace
from ..costs import CostModel
from ..exceptions import ComputeTimeoutError, QueryError
from ..runtime import active_deadline, as_deadline, deadline_scope
from ..trees.tree import Tree
from .batch import DEFAULT_CHUNK_SIZE, _resolve_algorithm, _supports_cutoff
from .cascade import (
    CascadeContext,
    JoinStats,
    PRUNE,
    default_cascade,
    operations_threshold,
    run_cascade,
)
from .corpus import CorpusSnapshot, TreeCorpus
from .metric_index import DEFAULT_LEAF_SIZE, VPTree, metric_eligible
from .pipeline import BatchRefiner, CandidateSet, Planner, execute_plan

_INF = float("inf")

#: Default staleness budget: a pinned snapshot is refreshed (and the
#: VP-tree lazily rebuilt) once the membership drift — trees added plus
#: trees removed since the pin — exceeds this fraction of the pinned
#: corpus size.  Below the budget, queries stay exact anyway (side-list
#: evaluation + removed-result filtering); the budget only caps how much
#: unindexed side work a query tolerates before paying for a rebuild.
DEFAULT_STALENESS_BUDGET = 0.25

#: Warm-start probe size for best-first kNN: this many size-nearest corpus
#: trees are verified up front to seed a finite radius, so the traversal's
#: vantage evaluations start τ-bounded and near-root subtrees prune
#: immediately instead of after a cold (infinite-radius) descent.
KNN_PROBE = 32

#: Frontier expansion width for best-first kNN: up to this many VP-tree
#: nodes are popped per round and their vantages evaluated in ONE batched
#: refiner call, so vantage distances go through the batched small-pair
#: kernel instead of one Python ``compute()`` per node.  The price is a
#: slightly stale radius within a round (a sequential search might have
#: pruned a few of them); results are identical either way.
VANTAGE_BATCH = 8


def _merge_report(stats: "QueryStats", report) -> None:
    """Fold a refiner :class:`ExecutionReport` into the query stats."""
    if report is None:
        return
    stats.retried_chunks += report.retried_chunks
    stats.failed_workers += report.failed_workers
    if report.degraded_to is not None:
        stats.degraded_to = report.degraded_to
    stats.poisoned_pairs += len(report.poisoned_pairs)


def _just_above(value: float) -> float:
    """The smallest float strictly greater than ``value``.

    Used for cascade thresholds and refiner cutoffs during a shrinking-radius
    search: pruning at ``nextafter(r)`` discards only candidates with
    ``d > r``, so distance ties with the current k-th best — which can still
    win on index order — survive to exact comparison.
    """
    return math.nextafter(value, _INF)


@dataclass
class QueryStats(JoinStats):
    """Streaming measurements of one query (a :class:`JoinStats` superset).

    The inherited fields keep their join meanings with "pairs" read as
    "corpus trees" (``pairs_total`` = corpus size, ``exact_computed`` =
    exact TED evaluations including metric-index vantage evaluations —
    the *examined* count a sublinear index is judged by).
    """

    corpus_size: int = 0
    metric_index_used: bool = False
    """Whether the VP-tree drove candidate generation (``False`` under a
    non-metric cost model — the soundness gate — or with the index off)."""

    vp_nodes_visited: int = 0
    vp_pruned_subtrees: int = 0
    """Corpus trees inside subtrees discarded by triangle-inequality bounds
    (never examined individually)."""

    partial: bool = False
    """``True`` when a deadline expired mid-query: the matches are the best
    results found before the budget ran out, explicitly marked — never a
    silently truncated full answer."""

    epoch: int = 0
    """The live corpus's epoch when the query ran."""

    snapshot_epoch: int = 0
    """The epoch of the snapshot the search actually traversed; a gap to
    ``epoch`` means the engine served within its staleness budget (side
    list + removed-result filtering kept the answer exact)."""

    side_candidates: int = 0
    """Deferred-insert side list size (trees added since the pin)."""

    side_evaluated: int = 0
    """Side-list trees submitted to the exact refiner this query."""

    def as_dict(self) -> Dict[str, object]:
        data = super().as_dict()
        data.update(
            {
                "corpus_size": self.corpus_size,
                "metric_index_used": self.metric_index_used,
                "vp_nodes_visited": self.vp_nodes_visited,
                "vp_pruned_subtrees": self.vp_pruned_subtrees,
                "partial": self.partial,
                "epoch": self.epoch,
                "snapshot_epoch": self.snapshot_epoch,
                "side_candidates": self.side_candidates,
                "side_evaluated": self.side_evaluated,
            }
        )
        return data


@dataclass
class QueryResult:
    """Outcome of one :class:`QueryEngine` query."""

    kind: str
    """``"knn"`` or ``"range"``."""

    parameter: float
    """``k`` for kNN, ``τ`` for range queries."""

    matches: List[Tuple[int, float]] = field(default_factory=list)
    """``(corpus index, exact distance)`` sorted by ``(distance, index)``."""

    stats: QueryStats = field(default_factory=QueryStats)

    @property
    def indices(self) -> List[int]:
        """The matched corpus indices (distances stripped, same order)."""
        return [index for index, _ in self.matches]


class _TopK:
    """The k best ``(distance, index)`` results, tie-broken by index.

    A fixed-size max-heap: :meth:`worst` is the current k-th best entry —
    the search radius — and :meth:`offer` replaces it whenever a new result
    precedes it lexicographically.  Offers are idempotent per index (a
    corpus tree examined both by the warm-start probe and by the traversal
    must not occupy two heap slots and push out a distinct result).
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self._heap: List[Tuple[float, int]] = []  # (-distance, -index)
        self._members: set = set()

    def worst(self) -> Tuple[float, int]:
        """The current k-th best ``(distance, index)``; infinite until full."""
        if len(self._heap) < self.k:
            return (_INF, -1)
        neg_d, neg_j = self._heap[0]
        return (-neg_d, -neg_j)

    def offer(self, index: int, distance: float) -> None:
        if index in self._members:
            return
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-distance, -index))
            self._members.add(index)
            return
        worst_d, worst_j = self.worst()
        if (distance, index) < (worst_d, worst_j):
            _, evicted_neg_j = heapq.heapreplace(self._heap, (-distance, -index))
            self._members.discard(-evicted_neg_j)
            self._members.add(index)

    def items(self) -> List[Tuple[int, float]]:
        """The results as ``(index, distance)`` sorted by ``(distance, index)``."""
        return sorted(
            ((-neg_j, -neg_d) for neg_d, neg_j in self._heap),
            key=lambda entry: (entry[1], entry[0]),
        )


class _MetricRangeSource:
    """Candidate source backed by a VP-tree traversal (fixed radius τ).

    Emits leaf-bucket members as ordinary candidate pairs (they continue
    through the cascade and the τ-bounded refiner) and vantage points —
    whose exact distances the traversal computed anyway — as prerefined
    entries the executor consumes directly.
    """

    def __init__(self, engine: "QueryEngine", vp: VPTree, query: Tree, stats: QueryStats) -> None:
        self.engine = engine
        self.vp = vp
        self.query = query
        self.stats = stats

    def candidates(self, ctx: CascadeContext) -> CandidateSet:
        tau = ctx.threshold
        stats = self.stats
        vp = self.vp
        pairs: List[Tuple[int, int]] = []
        prerefined: List[Tuple[int, int, float]] = []
        pruned = 0
        stack: List[Tuple[float, int]] = []
        if vp.root >= 0:
            stack.append((0.0, vp.root))
        while stack:
            bound, node_id = stack.pop()
            node = vp.nodes[node_id]
            if bound >= tau:
                # Strict match semantics (TED < τ): a subtree whose lower
                # bound reaches τ cannot contain a match.
                pruned += node.count
                stats.vp_pruned_subtrees += node.count
                continue
            stats.vp_nodes_visited += 1
            if node.bucket is not None:
                pairs.extend((0, j) for j in node.bucket)
                continue
            # d(q, v) ≥ τ + mu proves the whole inside ball non-matching, so
            # the vantage evaluation itself is bounded at τ + mu.
            distance = self.engine._vantage_distance(
                vp.corpus, self.query, node.vantage, tau + node.mu, stats,
                count_exact=False,
            )
            if distance is None:
                pruned += 1 + (vp.nodes[node.inside].count if node.inside >= 0 else 0)
                stats.vp_pruned_subtrees += (
                    vp.nodes[node.inside].count if node.inside >= 0 else 0
                )
                if node.outside >= 0:
                    stack.append((bound, node.outside))
                continue
            prerefined.append((0, node.vantage, distance))
            if node.inside >= 0:
                stack.append((max(bound, distance - node.mu), node.inside))
            if node.outside >= 0:
                stack.append((max(bound, node.mu - distance), node.outside))
        pairs.sort()
        return CandidateSet(pairs=pairs, prerefined=prerefined, pruned=pruned)


class QueryEngine:
    """One-vs-corpus retrieval over a (possibly live) :class:`TreeCorpus`.

    Construction is cheap; expensive artifacts — corpus profiles, the label
    interner, the batch-kernel pack and the vantage-point tree — are built
    lazily on first use and amortized across queries, so a long-lived
    engine answers a query stream the way the ROADMAP's service item needs.
    ``use_metric_index`` requests VP-tree candidate generation; it engages
    only when the cost model passes the metric gate
    (:func:`metric_eligible`), falling back to a linear scan (with the
    sound cascade bounds still pruning) otherwise.  Pass a prebuilt
    ``metric_index`` to share one VP-tree across engines (it must match the
    corpus *and* its current epoch — a stale index is refused outright).

    **Live corpora.**  The engine pins a :class:`CorpusSnapshot` of its
    corpus and searches the pin; mutations between queries never invalidate
    results.  Per query the drift since the pin is consulted: trees added
    after it (the deferred-insert side list) are refined *exactly* and
    merged into the ranking, and snapshot results whose trees were removed
    are dropped while translating to current indices — so kNN/range stay
    bit-identical to a fresh engine over the current trees.  Once the drift
    exceeds ``staleness_budget`` (a fraction of the pinned size, default
    :data:`DEFAULT_STALENESS_BUDGET`) the pin is refreshed and the VP-tree
    lazily rebuilt.

    Execution knobs (``algorithm``, ``engine``, ``workers``, ``chunk_size``,
    ``workspace``, ``batch_kernel``, ``policy``) mirror the batch join and
    apply to every refinement batch, including the PR 7 supervised
    multiprocessing fan-out when ``workers > 1``.
    """

    def __init__(
        self,
        corpus,
        algorithm: Union[str, TEDAlgorithm] = "rted",
        cost_model: Optional[CostModel] = None,
        engine: Optional[str] = None,
        workers: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        use_cascade: bool = True,
        use_metric_index: bool = True,
        metric_index: Optional[VPTree] = None,
        leaf_size: int = DEFAULT_LEAF_SIZE,
        seed: int = 0,
        workspace=True,
        batch_kernel: bool = True,
        policy=None,
        staleness_budget: float = DEFAULT_STALENESS_BUDGET,
    ) -> None:
        from .batch import as_corpus

        self.corpus = as_corpus(corpus)
        self.algorithm = algorithm
        self.engine = engine
        self.cost_model = resolve_cost_model(cost_model)
        self.workers = workers
        self.chunk_size = chunk_size
        self.use_cascade = use_cascade
        self.use_metric_index = use_metric_index
        self.leaf_size = leaf_size
        self.seed = seed
        self.batch_kernel = batch_kernel
        self.policy = policy
        if not isinstance(staleness_budget, (int, float)) or staleness_budget < 0:
            raise QueryError(
                f"staleness_budget must be a non-negative fraction, got {staleness_budget!r}"
            )
        self.staleness_budget = float(staleness_budget)
        if workspace is True:
            self._ws: Optional[TedWorkspace] = TedWorkspace(
                self.cost_model, interner=self.corpus.interner()
            )
        elif workspace:
            workspace.require(self.cost_model)
            self._ws = workspace
        else:
            self._ws = None
        self._algo = _resolve_algorithm(algorithm, engine, self._ws)
        self._bounded_ok = _supports_cutoff(self._algo)
        self._planner = Planner(self.cost_model)
        self._snap: Optional[TreeCorpus] = None
        if metric_index is not None:
            target = metric_index.corpus
            pins_corpus = target is self.corpus or (
                isinstance(target, CorpusSnapshot) and target.parent is self.corpus
            )
            if not pins_corpus:
                raise QueryError("metric_index was built over a different corpus")
            built_epoch = getattr(target, "epoch", 0)
            current_epoch = getattr(self.corpus, "epoch", 0)
            if built_epoch != current_epoch:
                raise QueryError(
                    f"metric_index is stale: built at epoch {built_epoch} but the "
                    f"corpus is at epoch {current_epoch} — rebuild it (or let the "
                    "engine build its own)"
                )
            # Pin the epoch the index was built at, so its bucket/vantage ids
            # keep meaning the same trees whatever the corpus does next.
            self._snap = target if isinstance(target, CorpusSnapshot) else (
                self.corpus.snapshot()
            )
        self._vp = metric_index
        self._vp_unavailable = False

    # ------------------------------------------------------------------ #
    # Snapshot pinning
    # ------------------------------------------------------------------ #
    def _pinned(self) -> TreeCorpus:
        """The snapshot this query should search (refreshing past budget).

        Within the staleness budget the old pin (and its VP-tree) keeps
        serving — exactness is preserved by the caller's side-list merge and
        removed-result filtering.  Past it, a fresh snapshot replaces the
        pin and the VP-tree is dropped for lazy rebuild.
        """
        corpus = self.corpus
        if isinstance(corpus, CorpusSnapshot):
            # The engine's corpus is itself a pin: nothing ever drifts.
            self._snap = corpus
            return corpus
        snap = self._snap
        if snap is None:
            snap = corpus.snapshot()
            self._snap = snap
            return snap
        if not snap.is_current():
            added, removed = snap.delta()
            budget = max(1, int(self.staleness_budget * max(1, len(snap))))
            if len(added) + len(removed) > budget:
                self._snap = corpus.snapshot()
                self._vp = None
                self._vp_unavailable = False
        return self._snap

    @property
    def snapshot_epoch(self) -> Optional[int]:
        """The epoch of the currently pinned snapshot (``None`` before the
        first query); the service surfaces this next to the live epoch so
        operators can see engine staleness."""
        snap = self._snap
        return snap.epoch if snap is not None else None

    def _delta(self, snap: TreeCorpus) -> Tuple[List[int], List[int]]:
        """Membership drift of ``snap`` vs the live corpus (empty when the
        engine's corpus *is* the snapshot)."""
        if snap is self.corpus or not isinstance(snap, CorpusSnapshot):
            return [], []
        return snap.delta()

    def _translate(self, items: List[Tuple[int, float]], snap) -> List[Tuple[int, float]]:
        """Snapshot-dense results → current-dense, dropping removed trees."""
        if snap is self.corpus:
            return list(items)
        out: List[Tuple[int, float]] = []
        for j, d in items:
            current = snap.to_parent(j)
            if current is not None:
                out.append((current, d))
        return out

    def _evaluate_side(
        self,
        refiner: BatchRefiner,
        side: List[int],
        cutoff: Optional[float],
        stats: QueryStats,
    ) -> List[Tuple[int, float]]:
        """Exact distances to the deferred-insert side list.

        ``side`` holds *current* corpus indices (trees added after the
        pin); ``refiner`` must be bound to the live corpus.  Results at or
        above ``cutoff`` are proven non-competitive (bounded runs) and
        dropped; everything returned is an exact ``(index, distance)``.
        """
        if cutoff is not None and not math.isfinite(cutoff):
            cutoff = None
        results: List[Tuple[int, float]] = []

        def on_chunk(chunk_results: List[Tuple]) -> None:
            for entry in chunk_results:
                _, j, value, subproblems = entry[:4]
                stats.exact_computed += 1
                stats.total_subproblems += subproblems
                if len(entry) > 4 and entry[4]:
                    stats.aborted_early += 1
                if cutoff is not None and value >= cutoff:
                    # A bounded result (τ-abort or final check): the true
                    # distance is proven ≥ cutoff, i.e. non-competitive.
                    continue
                results.append((j, value))

        report = refiner.refine([(0, j) for j in side], cutoff, on_chunk)
        _merge_report(stats, report)
        stats.side_evaluated += len(side)
        return results

    # ------------------------------------------------------------------ #
    def metric_index(self) -> Optional[VPTree]:
        """The engine's VP-tree, built lazily; ``None`` when ineligible.

        Ineligible means: the index is disabled, the pinned snapshot is
        empty, or the cost model fails the metric gate — in which case
        every query soundly falls back to a linear scan.  The tree is built
        over the *pinned snapshot*, so its node ids stay meaningful across
        corpus mutations; a snapshot refresh drops it for lazy rebuild.
        """
        if not self.use_metric_index:
            return None
        snap = self._pinned()
        if self._vp is None and not self._vp_unavailable:
            if len(snap) == 0 or not metric_eligible(self.cost_model):
                self._vp_unavailable = True
            else:
                self._vp = VPTree.build(
                    snap,
                    algorithm=self.algorithm,
                    cost_model=self.cost_model,
                    engine=self.engine,
                    leaf_size=self.leaf_size,
                    seed=self.seed,
                    workers=self.workers,
                    chunk_size=self.chunk_size,
                    workspace=self._ws if self._ws is not None else False,
                    batch_kernel=self.batch_kernel,
                )
        return self._vp

    def _query_corpus(self, query: Tree) -> TreeCorpus:
        # Sharing the interner keeps the query tree's label codes compatible
        # with the corpus's cached batch-kernel pack, so refinement batches
        # reuse the big pack instead of rebuilding it per query.
        return TreeCorpus([query], interner=self.corpus.interner())

    def _refiner(self, query_corpus: TreeCorpus, corpus: TreeCorpus) -> BatchRefiner:
        return BatchRefiner(
            query_corpus,
            corpus,
            algorithm=self.algorithm,
            cost_model=self.cost_model,
            engine=self.engine,
            workers=self.workers,
            chunk_size=self.chunk_size,
            workspace=self._ws if self._ws is not None else False,
            batch_kernel=self.batch_kernel,
            policy=self.policy,
        )

    def _query_filters(self) -> list:
        if not self.use_cascade:
            return []
        # Accept stages report upper-bound mapping costs, not exact
        # distances — fine for a join's match set, wrong for ranking — so
        # queries always verify exactly.
        return [stage for stage in default_cascade() if not stage.is_accept_stage]

    def _vantage_distance(
        self,
        corpus: TreeCorpus,
        query: Tree,
        index: int,
        cutoff: Optional[float],
        stats: QueryStats,
        count_exact: bool = True,
    ) -> Optional[float]:
        """Exact ``d(query, corpus[index])``, or ``None`` if ``≥ cutoff``.

        ``corpus`` is the collection ``index`` refers to — the pinned
        snapshot a VP-tree was built over, never the drifting live corpus.
        ``count_exact=False`` skips the ``exact_computed`` increment for
        exact results whose consumer counts them itself (the range source
        routes them through the executor as prerefined entries).
        """
        tree = corpus.trees[index]
        if cutoff is None or not math.isfinite(cutoff) or not self._bounded_ok:
            result = self._algo.compute(query, tree, cost_model=self.cost_model)
        else:
            result = self._algo.compute(
                query, tree, cost_model=self.cost_model, cutoff=cutoff
            )
        if getattr(result, "bounded", False):
            stats.exact_computed += 1
            if result.aborted:
                stats.aborted_early += 1
            return None
        if count_exact:
            stats.exact_computed += 1
        return result.distance

    # ------------------------------------------------------------------ #
    def knn(self, query: Tree, k: int, deadline=None) -> QueryResult:
        """The ``k`` nearest corpus trees, exactly (ties broken by index).

        Equivalent to sorting the brute-force distance list by
        ``(distance, index)`` and taking the first ``k`` — the metric index
        and the shrinking-cutoff refinement only change *how much work* that
        takes, never the result (asserted by the property suite).

        ``deadline`` (seconds or a :class:`~repro.runtime.Deadline`) bounds
        the search.  On expiry the engine returns the best results examined
        so far with ``stats.partial = True`` — an explicit marker, never a
        silently truncated exact answer.  An ambient deadline (installed by
        an enclosing service request) applies when the argument is omitted.

        Against a mutated corpus the pinned snapshot is searched for
        ``k + |removed|`` results (so removals can never push a true
        answer out of reach), removed trees are filtered during index
        translation, and the deferred-insert side list is refined exactly
        with a cutoff one ULP above the provisional k-th best — the merged
        ranking equals the brute-force ranking over the *current* trees.
        """
        if k < 0:
            raise QueryError(f"k must be non-negative, got {k}")
        started = time.perf_counter()
        stats = QueryStats()
        snap = self._pinned()
        added, removed = self._delta(snap)
        stats.corpus_size = stats.pairs_total = len(self.corpus)
        stats.epoch = getattr(self.corpus, "epoch", 0)
        stats.snapshot_epoch = snap.epoch
        stats.side_candidates = len(added)
        dl = as_deadline(deadline)
        if dl is None:
            dl = active_deadline()
        top = _TopK(k + len(removed))
        side: List[Tuple[int, float]] = []
        if k > 0 and (len(snap) > 0 or added):
            try:
                with deadline_scope(dl):
                    query_corpus = self._query_corpus(query)
                    profile = query_corpus.profile(0)
                    if len(snap) > 0:
                        refiner = self._refiner(query_corpus, snap)
                        ctx = CascadeContext(
                            threshold=_INF, ops_threshold=_INF, cost_model=self.cost_model
                        )
                        filters = self._query_filters()
                        vp = self.metric_index()
                        if vp is not None:
                            stats.metric_index_used = True
                            self._knn_best_first(
                                vp, query, profile, ctx, filters, refiner, top, stats, snap
                            )
                        else:
                            self._knn_scan(
                                query, profile, ctx, filters, refiner, top, stats, snap
                            )
                    if added:
                        # Provisional k-th best among snapshot survivors caps
                        # the side-list refinement (one ULP above, so ties
                        # stay exact and win or lose on index order).
                        base = self._translate(top.items(), snap)
                        cutoff = (
                            _just_above(base[k - 1][1]) if len(base) >= k else None
                        )
                        side = self._evaluate_side(
                            self._refiner(query_corpus, self.corpus),
                            added,
                            cutoff,
                            stats,
                        )
            except ComputeTimeoutError:
                # The _TopK accumulator already holds every result verified
                # before the budget ran out — return it, explicitly marked.
                stats.partial = True
        merged = self._translate(top.items(), snap) + side
        merged.sort(key=lambda entry: (entry[1], entry[0]))
        matches = merged[:k]
        stats.matches = stats.exact_matched = len(matches)
        stats.total_time = time.perf_counter() - started
        return QueryResult(kind="knn", parameter=float(k), matches=matches, stats=stats)

    def _shrinking_ctx(self, ctx: CascadeContext, radius: float) -> None:
        """Point the cascade context just above the current radius."""
        if radius == _INF:
            ctx.threshold = ctx.ops_threshold = _INF
        else:
            ctx.threshold = _just_above(radius)
            ctx.ops_threshold = operations_threshold(ctx.threshold, self.cost_model)

    def _refine_candidates(
        self,
        top: _TopK,
        candidates: List[int],
        profile,
        ctx: CascadeContext,
        filters: list,
        refiner: BatchRefiner,
        stats: QueryStats,
        corpus: TreeCorpus,
    ) -> None:
        """Filter a candidate block at the current radius, then refine it.

        ``corpus`` is the pinned snapshot the candidate indices refer to.
        The refiner cutoff sits one ULP above the radius, so candidates tied
        with the k-th best still come back exact (and win or lose on index
        order), while everything strictly farther aborts as a bounded run.
        """
        radius, _ = top.worst()
        if filters:
            self._shrinking_ctx(ctx, radius)
            survivors = [
                j
                for j in candidates
                if run_cascade(filters, profile, corpus.profile(j), ctx, stats)
                != PRUNE
            ]
        else:
            survivors = list(candidates)
        if not survivors:
            return
        cutoff = None if radius == _INF else _just_above(radius)

        def on_chunk(chunk_results: List[Tuple]) -> None:
            for entry in chunk_results:
                _, j, value, subproblems = entry[:4]
                stats.exact_computed += 1
                stats.total_subproblems += subproblems
                if len(entry) > 4 and entry[4]:
                    stats.aborted_early += 1
                # Bounded entries carry value ≥ cutoff > current radius, so
                # offer() rejects them without a special case; exact entries
                # compete normally even as the radius keeps shrinking.
                top.offer(j, value)

        report = refiner.refine([(0, j) for j in survivors], cutoff, on_chunk)
        _merge_report(stats, report)

    def _size_order(self, corpus: TreeCorpus, query_size: int) -> List[int]:
        """Corpus indices ordered by size distance to the query (ties by index)."""
        trees = corpus.trees
        return sorted(
            range(len(trees)),
            key=lambda j: (abs(trees[j].n - query_size), j),
        )

    def _knn_best_first(
        self, vp: VPTree, query, profile, ctx, filters, refiner, top: _TopK, stats,
        corpus: TreeCorpus,
    ) -> None:
        """Best-first VP-tree search with a shrinking radius.

        The frontier is a min-heap of ``(lower bound, node)``; popping a
        bound strictly above the radius proves every remaining subtree
        non-competitive (bounds only grow down the heap, the radius only
        shrinks), which ends the search.
        """
        if vp.root < 0:
            return
        # Warm start: verify a small block of size-nearest trees to make the
        # radius finite before any vantage evaluation (trees re-encountered
        # by the traversal are no-ops — offers are idempotent per index).
        probe = self._size_order(corpus, profile.size)[:KNN_PROBE]
        self._refine_candidates(top, probe, profile, ctx, filters, refiner, stats, corpus)
        frontier: List[Tuple[float, int]] = [(0.0, vp.root)]
        while frontier:
            radius, _ = top.worst()
            batch: List[Tuple[float, object]] = []
            bucket_members: List[int] = []
            while frontier and len(batch) < VANTAGE_BATCH:
                bound, node_id = heapq.heappop(frontier)
                if bound > radius:
                    remaining = vp.nodes[node_id].count + sum(
                        vp.nodes[nid].count for _, nid in frontier
                    )
                    stats.vp_pruned_subtrees += remaining
                    frontier = []
                    break
                node = vp.nodes[node_id]
                stats.vp_nodes_visited += 1
                if node.bucket is not None:
                    bucket_members.extend(node.bucket)
                else:
                    batch.append((bound, node))
            if bucket_members:
                self._refine_candidates(
                    top, bucket_members, profile, ctx, filters, refiner, stats, corpus
                )
            if not batch:
                continue
            # One batched (small-pair kernel) evaluation for every vantage in
            # the round, bounded at the loosest per-node abort threshold: an
            # abort then proves d(q, v) > r + mu for *its* node too, which
            # prunes the inside ball (d ≥ d(q,v) − mu > r) and rules the
            # vantage itself out as a result.
            cutoff = (
                None
                if radius == _INF
                else _just_above(radius + max(node.mu for _, node in batch))
            )
            distances: Dict[int, Optional[float]] = {}

            def on_chunk(chunk_results: List[Tuple]) -> None:
                for entry in chunk_results:
                    _, j, value, subproblems = entry[:4]
                    stats.exact_computed += 1
                    stats.total_subproblems += subproblems
                    if len(entry) > 4 and entry[4]:
                        stats.aborted_early += 1
                        distances[j] = None
                    else:
                        distances[j] = value

            report = refiner.refine(
                [(0, node.vantage) for _, node in batch], cutoff, on_chunk
            )
            _merge_report(stats, report)
            for bound, node in batch:
                if node.vantage not in distances:
                    # The refiner dropped the pair (poisoned under fault
                    # injection): no distance proof either way, so keep both
                    # children alive at the parent bound.
                    if node.inside >= 0:
                        heapq.heappush(frontier, (bound, node.inside))
                    if node.outside >= 0:
                        heapq.heappush(frontier, (bound, node.outside))
                    continue
                distance = distances[node.vantage]
                if distance is None:
                    if node.inside >= 0:
                        stats.vp_pruned_subtrees += vp.nodes[node.inside].count
                    if node.outside >= 0:
                        heapq.heappush(frontier, (bound, node.outside))
                    continue
                top.offer(node.vantage, distance)
                if node.inside >= 0:
                    heapq.heappush(
                        frontier, (max(bound, distance - node.mu), node.inside)
                    )
                if node.outside >= 0:
                    heapq.heappush(
                        frontier, (max(bound, node.mu - distance), node.outside)
                    )

    def _knn_scan(
        self, query, profile, ctx, filters, refiner, top: _TopK, stats,
        corpus: TreeCorpus,
    ) -> None:
        """Linear-scan kNN (the sound fallback for non-metric cost models).

        Examines near-sized trees first so the radius shrinks early, then
        lets the per-block cascade re-filter and the shrinking refiner
        cutoff discard the rest cheaply.  Every corpus tree is considered —
        only the cascade's orientation-independent operation-count bounds
        prune, never the triangle inequality.
        """
        order = self._size_order(corpus, profile.size)
        for start in range(0, len(order), self.chunk_size):
            block = order[start : start + self.chunk_size]
            self._refine_candidates(
                top, block, profile, ctx, filters, refiner, stats, corpus
            )

    # ------------------------------------------------------------------ #
    def range_query(self, query: Tree, threshold: float, deadline=None) -> QueryResult:
        """Every corpus tree with ``TED(query, tree) < threshold``, exactly.

        One planner composition (:meth:`Planner.plan_range`): metric-index
        traversal (when eligible) or the asymmetric inverted index as the
        candidate source, the cascade at τ, the τ-bounded batched refiner.

        ``deadline`` bounds the query like :meth:`knn`: on expiry the
        matches streamed before the budget ran out come back with
        ``stats.partial = True`` (the match list is then a *subset* of the
        full answer, never a wrong superset — refinement only ever appends
        verified matches).

        Against a mutated corpus the plan runs over the pinned snapshot,
        removed trees are filtered during index translation, and trees
        added since the pin are refined exactly at τ and merged — the
        result equals a fresh query over the current trees.
        """
        if (
            isinstance(threshold, bool)
            or not isinstance(threshold, numbers.Real)
            or not math.isfinite(threshold)
        ):
            raise QueryError(f"threshold must be a finite number, got {threshold!r}")
        started = time.perf_counter()
        stats = QueryStats()
        snap = self._pinned()
        added, _removed = self._delta(snap)
        stats.corpus_size = stats.pairs_total = len(self.corpus)
        stats.epoch = getattr(self.corpus, "epoch", 0)
        stats.snapshot_epoch = snap.epoch
        stats.side_candidates = len(added)
        dl = as_deadline(deadline)
        if dl is None:
            dl = active_deadline()
        triples: List[Tuple[int, int, float]] = []
        side: List[Tuple[int, float]] = []
        try:
            with deadline_scope(dl):
                query_corpus = self._query_corpus(query)
                refiner = self._refiner(query_corpus, snap)
                source = None
                vp = self.metric_index() if threshold > 0 else None
                if vp is not None:
                    stats.metric_index_used = True
                    source = _MetricRangeSource(self, vp, query, stats)
                plan = self._planner.plan_range(
                    snap,
                    query_corpus,
                    threshold,
                    refiner,
                    use_cascade=self.use_cascade,
                    source=source,
                )
                # The sink keeps already-verified matches reachable if the
                # deadline aborts the plan mid-refinement.
                execute_plan(plan, stats, started=started, sink=triples)
                if added and threshold > 0:
                    # Strict τ semantics carry over: refine at cutoff=τ and
                    # keep only exact results below it.
                    side = self._evaluate_side(
                        self._refiner(query_corpus, self.corpus),
                        added,
                        float(threshold),
                        stats,
                    )
        except ComputeTimeoutError:
            stats.partial = True
        matches = self._translate(
            [(j, distance) for _, j, distance in triples], snap
        )
        matches.extend(side)
        matches.sort(key=lambda entry: (entry[1], entry[0]))
        stats.matches = len(matches)
        stats.total_time = time.perf_counter() - started
        return QueryResult(
            kind="range", parameter=float(threshold), matches=matches, stats=stats
        )


# --------------------------------------------------------------------------- #
# Engine reuse for the functional API
# --------------------------------------------------------------------------- #
_ENGINE_CACHE: "WeakKeyDictionary[TreeCorpus, Dict[tuple, QueryEngine]]" = (
    WeakKeyDictionary()
)


def query_engine(corpus: TreeCorpus, **kwargs) -> QueryEngine:
    """A (cached) :class:`QueryEngine` for ``corpus`` with these settings.

    Keyed weakly by corpus identity plus the engine settings, so repeated
    :func:`repro.api.knn` / :func:`repro.api.range_query` calls against one
    :class:`TreeCorpus` reuse the engine — and with it the interner, pack
    and lazily built metric index — instead of rebuilding per call.
    """
    key = tuple(sorted(kwargs.items()))
    per_corpus = _ENGINE_CACHE.setdefault(corpus, {})
    engine = per_corpus.get(key)
    if engine is None:
        engine = QueryEngine(corpus, **kwargs)
        per_corpus[key] = engine
    return engine
