"""Query-centric retrieval: top-k and range queries over a tree corpus.

The all-pairs join answers "which pairs of corpus trees are close"; this
module answers the question a retrieval service actually sees — "which
corpus trees are close to *this* query":

* :meth:`QueryEngine.range_query` (``TED(query, tree) < τ``) is one more
  composition of the planner/filter/refiner pipeline
  (:mod:`repro.join.pipeline`): the asymmetric inverted index as the
  candidate source, the sound filter cascade evaluated
  query-profile-vs-corpus-profile, and the τ-bounded batched refiner.
* :meth:`QueryEngine.knn` has no fixed τ, so it cannot be a static plan:
  it scans the corpus in **size order** (near-sized trees first), keeping
  the k best results as a shrinking radius ``r`` (the current k-th best
  distance).  Each block of the scan is re-filtered by the cascade at
  ``τ_eff`` just above ``r`` and verified by the τ-bounded batched refiner
  with ``cutoff`` just above ``r``, so non-competitive candidates are pruned
  by a bound or abort as soon as ``d > r`` is proven.

Tie-safety: results are ordered lexicographically by ``(distance, index)``
and every prune is strict — cascade/refiner cutoffs sit one ULP above ``r``
(``math.nextafter``) — so ``knn`` returns exactly the first ``k`` entries of
the brute-force ranking, ties included (the property suite asserts set
equality against brute force).

Cost-model soundness: neither query kind uses the triangle inequality.
The only pruning is the orientation-independent operation-count bounds of
the inverted index and the cascade, sound for any model with a positive
cost floor, including non-symmetric ones.  Distances are always computed
``query → corpus tree``, so non-symmetric models return the correctly
oriented result set.

Live corpora: the engine serves a **mutating** corpus exactly.  It pins a
:class:`~repro.join.corpus.CorpusSnapshot`; per query it reads the
membership drift — parent trees added since the pin form a
*deferred-insert side list* that is refined exactly and merged by
``(distance, index)``, snapshot results whose trees the parent removed are
dropped during translation to current indices — so kNN/range results are
bit-identical to a fresh engine over the current trees.  Once the drift
exceeds ``staleness_budget`` (a fraction of the pinned size) the snapshot
is refreshed.
"""

from __future__ import annotations

import inspect
import math
import numbers
import time
from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union
from weakref import WeakKeyDictionary

from ..algorithms.base import TEDAlgorithm, resolve_cost_model
from ..algorithms.workspace import TedWorkspace
from ..costs import CostModel
from ..exceptions import ComputeTimeoutError, QueryError
from ..runtime import active_deadline, as_deadline, deadline_scope
from ..trees.tree import Tree
from .batch import DEFAULT_CHUNK_SIZE, _resolve_algorithm
from .cascade import CascadeContext, JoinStats, operations_threshold
from .corpus import CorpusSnapshot, TreeCorpus
from .pairs import CandidatePairs
from .pipeline import BatchRefiner, Planner, execute_plan

_INF = float("inf")

#: Default staleness budget: a pinned snapshot is refreshed once the
#: membership drift — trees added plus trees removed since the pin —
#: exceeds this fraction of the pinned corpus size.  Below the budget,
#: queries stay exact anyway (side-list evaluation + removed-result
#: filtering); the budget only caps how much unindexed side work a query
#: tolerates before paying for a fresh pin.
DEFAULT_STALENESS_BUDGET = 0.25


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
    exact TED evaluations — the *examined* count).
    """

    corpus_size: int = 0

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

    A sorted list of at most ``k`` entries: :meth:`worst` is the current
    k-th best entry — the search radius — and :meth:`offer` keeps a new
    result whenever it precedes that entry lexicographically.  The scan
    offers each corpus tree at most once.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self._best: List[Tuple[float, int]] = []  # (distance, index), ascending

    def worst(self) -> Tuple[float, int]:
        """The current k-th best ``(distance, index)``; infinite until full."""
        if len(self._best) < self.k:
            return (_INF, -1)
        return self._best[-1]

    def offer(self, index: int, distance: float) -> None:
        if (distance, index) < self.worst():
            insort(self._best, (distance, index))
            del self._best[self.k:]

    def items(self) -> List[Tuple[int, float]]:
        """The results as ``(index, distance)`` sorted by ``(distance, index)``."""
        return [(index, distance) for distance, index in self._best]


class QueryEngine:
    """One-vs-corpus retrieval over a (possibly live) :class:`TreeCorpus`.

    Construction is cheap; expensive artifacts — corpus profiles, the label
    interner, the inverted index and the batch-kernel pack — are built
    lazily on first use and amortized across queries, so a long-lived
    engine answers a query stream without rebuilding them.  kNN runs the
    size-ordered scan; range queries take their candidates from the
    inverted index (every pair with the cascade off).  Both prune only
    with operation-count bounds, sound under every cost model.

    **Live corpora.**  The engine pins a :class:`CorpusSnapshot` of its
    corpus and searches the pin; mutations between queries never invalidate
    results.  Per query the drift since the pin is consulted: trees added
    after it (the deferred-insert side list) are refined *exactly* and
    merged into the ranking, and snapshot results whose trees were removed
    are dropped while translating to current indices — so kNN/range stay
    bit-identical to a fresh engine over the current trees.  Once the drift
    exceeds ``staleness_budget`` (a fraction of the pinned size, default
    :data:`DEFAULT_STALENESS_BUDGET`) the pin is refreshed.

    Execution knobs (``algorithm``, ``engine``, ``workers``, ``chunk_size``,
    ``policy``) mirror the batch join and apply to every refinement batch,
    including the supervised multiprocessing fan-out when ``workers > 1``.
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
        policy=None,
        staleness_budget: float = DEFAULT_STALENESS_BUDGET,
    ) -> None:
        from .batch import as_corpus, _check_chunk_size

        _check_chunk_size(chunk_size, QueryError)
        self.corpus = as_corpus(corpus)
        self.algorithm = algorithm
        self.engine = engine
        self.cost_model = resolve_cost_model(cost_model)
        self.workers = workers
        self.chunk_size = chunk_size
        self.use_cascade = use_cascade
        self.policy = policy
        if not isinstance(staleness_budget, (int, float)) or staleness_budget < 0:
            raise QueryError(
                f"staleness_budget must be a non-negative fraction, got {staleness_budget!r}"
            )
        self.staleness_budget = float(staleness_budget)
        self._ws = TedWorkspace(self.cost_model, interner=self.corpus.interner())
        # Fail at construction, not on the first query, for an unknown
        # algorithm name or engine.
        _resolve_algorithm(algorithm, engine, self._ws)
        self._planner = Planner(self.cost_model)
        self._snap: Optional[TreeCorpus] = None

    # ------------------------------------------------------------------ #
    # Snapshot pinning
    # ------------------------------------------------------------------ #
    def _pinned(self) -> TreeCorpus:
        """The snapshot this query should search (refreshing past budget).

        Within the staleness budget the old pin keeps serving — exactness
        is preserved by the caller's side-list merge and removed-result
        filtering.  Past it, a fresh snapshot replaces the pin.
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
            workspace=self._ws,
            policy=self.policy,
        )

    # ------------------------------------------------------------------ #
    def knn(self, query: Tree, k: int, deadline=None) -> QueryResult:
        """The ``k`` nearest corpus trees, exactly (ties broken by index).

        Equivalent to sorting the brute-force distance list by
        ``(distance, index)`` and taking the first ``k`` — the size-ordered
        scan with its shrinking cutoff only changes *how much work* that
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
                    if len(snap) > 0:
                        self._knn_scan(query_corpus, snap, top, stats)
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

    def _knn_scan(
        self, query_corpus: TreeCorpus, corpus: TreeCorpus, top: _TopK, stats: QueryStats
    ) -> None:
        """Size-ordered scan kNN over ``corpus`` (the pinned snapshot).

        Examines near-sized trees first (ties by index) so the radius
        shrinks early.  Each block is filtered by the cascade just above the
        current radius and refined with a cutoff one ULP above it, so
        candidates tied with the k-th best still come back exact (and win or
        lose on index order), while everything strictly farther is pruned by
        a bound or aborts as a bounded run.  Only the cascade's
        orientation-independent operation-count bounds prune, never the
        triangle inequality, so the scan is sound under every cost model.
        """
        refiner = self._refiner(query_corpus, corpus)
        # Accept stages report upper-bound mapping costs, not exact
        # distances — wrong for ranking — so kNN always verifies exactly.
        filters = self._planner.filters(
            refiner, use_cascade=self.use_cascade, early_accept=False
        )
        ctx = CascadeContext(threshold=_INF, ops_threshold=_INF, cost_model=self.cost_model)

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

        trees = corpus.trees
        query_size = query_corpus.trees[0].n
        order = sorted(range(len(trees)), key=lambda j: (abs(trees[j].n - query_size), j))
        for start in range(0, len(order), self.chunk_size):
            block = order[start : start + self.chunk_size]
            radius, _ = top.worst()
            if radius == _INF:
                cutoff = None
            else:
                cutoff = ctx.threshold = _just_above(radius)
                ctx.ops_threshold = operations_threshold(cutoff, self.cost_model)
            stats.candidate_pairs += len(block)
            survivors, _ = filters.run(
                CandidatePairs([0] * len(block), block), query_corpus, corpus, ctx, stats
            )
            if survivors:
                _merge_report(stats, refiner.refine(survivors, cutoff, on_chunk))

    # ------------------------------------------------------------------ #
    def range_query(self, query: Tree, threshold: float, deadline=None) -> QueryResult:
        """Every corpus tree with ``TED(query, tree) < threshold``, exactly.

        One planner composition (:meth:`Planner.plan_range`): the
        asymmetric inverted index as the candidate source, the cascade at
        τ, the τ-bounded batched refiner.

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
                plan = self._planner.plan_range(
                    snap,
                    query_corpus,
                    threshold,
                    self._refiner(query_corpus, snap),
                    use_cascade=self.use_cascade,
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
_ENGINE_DEFAULTS = {
    name: parameter.default
    for name, parameter in inspect.signature(QueryEngine).parameters.items()
    if parameter.default is not inspect.Parameter.empty
}


def query_engine(corpus: TreeCorpus, **kwargs) -> QueryEngine:
    """A (cached) :class:`QueryEngine` for ``corpus`` with these settings.

    Keyed weakly by corpus identity plus the engine settings, so repeated
    :func:`repro.api.knn` / :func:`repro.api.range_query` calls against one
    :class:`TreeCorpus` reuse the engine — and with it the interner,
    inverted index and pack — instead of rebuilding per call.  Settings
    passed at their default value key like omitted ones, so a ``knn`` call
    and a ``range_query`` call with default settings share one engine.
    """
    key = tuple(
        sorted(
            (name, value)
            for name, value in kwargs.items()
            if name not in _ENGINE_DEFAULTS or _ENGINE_DEFAULTS[name] != value
        )
    )
    per_corpus = _ENGINE_CACHE.setdefault(corpus, {})
    engine = per_corpus.get(key)
    if engine is None:
        engine = QueryEngine(corpus, **kwargs)
        per_corpus[key] = engine
    return engine
