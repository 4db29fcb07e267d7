"""The planner / filter / refiner architecture of the retrieval core.

Before this module existed the retrieval stack was hardwired to one
workload: the symmetric all-pairs similarity join
(:func:`~repro.join.batch.batch_similarity_join`) enumerated candidate
pairs from one corpus, ran them through the filter cascade and verified
survivors exactly.  Query-centric workloads — one-vs-corpus top-k, range
queries — need the same three capabilities wired differently, so the
pipeline is factored into three pieces:

* :class:`CandidateSource` — produces the pairs that may still satisfy the
  predicate as index arrays (:class:`~repro.join.pairs.CandidatePairs`),
  pruning what it can *without materializing it* (shared binary branches,
  or plain enumeration);
* :class:`~repro.join.cascade.PairFilters` — the ordered filter stages and
  the one driver that runs candidate blocks through them, deciding
  ``PRUNE`` / ``ACCEPT`` / ``CONTINUE`` (the linear bounds over pair
  arrays, the rest pair by pair from cached per-tree profiles);
* :class:`Refiner` — computes exact (optionally τ-bounded) distances for
  the surviving pairs; :class:`BatchRefiner` wraps
  :func:`~repro.join.batch.batch_distances`, so every refinement — join
  verification and query refinement alike — runs through the same
  amortized kernels and the same supervised multiprocessing fan-out.

:class:`Planner` composes the three into a :class:`RetrievalPlan` and
:func:`execute_plan` runs one: candidates → filters → refinement, with
streaming :class:`~repro.join.cascade.JoinStats`.  The legacy all-pairs
join is *one composition* of these pieces (``plan_join``); asymmetric
range queries are another (``plan_range``); the size-ordered kNN scan of
:mod:`repro.join.query` reuses the same filters and refiner under its own
control loop because its threshold shrinks while it runs.

The evaluation path is **asymmetric** throughout: a plan carries two
corpora (``corpus_a`` for the left side of every pair, ``corpus_b`` for the
right), so "query vs corpus" and "corpus vs corpus" are the same code path.
Pair orientation is preserved into the refiner — distances are computed as
``d(tree_a[i], tree_b[j])`` — which keeps non-symmetric cost models correct
for one-vs-corpus queries (side *a* is the query).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..algorithms.batch_kernel import SMALL_PAIR_CELLS
from ..algorithms.workspace import TedWorkspace
from ..costs import CostModel
from .cascade import (
    CascadeContext,
    FilterStage,
    JoinStats,
    PairFilters,
    default_cascade,
    operations_threshold,
)
from .corpus import TreeCorpus
from .pairs import CandidatePairs, branch_candidate_pairs, query_candidate_pairs

PairKey = Tuple[int, int]


# --------------------------------------------------------------------------- #
# Protocols
# --------------------------------------------------------------------------- #
@dataclass
class CandidateSet:
    """What a :class:`CandidateSource` hands to the executor.

    ``pairs`` still need filtering and refinement (index arrays, see
    :class:`~repro.join.pairs.CandidatePairs`); ``pruned`` counts the pairs
    eliminated without being materialized.
    """

    pairs: CandidatePairs
    pruned: int = 0


class CandidateSource(Protocol):
    """Generates the candidate pairs of a retrieval plan."""

    def candidates(self, ctx: CascadeContext) -> CandidateSet: ...


class Refiner(Protocol):
    """Computes exact (optionally τ-bounded) distances for candidate pairs."""

    def effective_workers(self, n_pairs: int) -> int: ...

    def small_pair_gate(self) -> Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]]: ...

    def refine(
        self,
        pairs: Sequence[PairKey],
        cutoff: Optional[float],
        on_chunk: Callable[[List[Tuple]], None],
    ): ...


# --------------------------------------------------------------------------- #
# Candidate sources
# --------------------------------------------------------------------------- #
class AllPairsSource:
    """Every pair: ``i < j`` within one corpus, or the full cross product."""

    def __init__(self, corpus_a: TreeCorpus, corpus_b: Optional[TreeCorpus]) -> None:
        self.corpus_a = corpus_a
        self.corpus_b = corpus_b

    def candidates(self, ctx: CascadeContext) -> CandidateSet:
        n_b = None if self.corpus_b is None else len(self.corpus_b)
        return CandidateSet(pairs=CandidatePairs.all_pairs(len(self.corpus_a), n_b))


class JoinIndexSource:
    """Symmetric candidate generation from shared binary branches.

    Wraps :func:`~repro.join.pairs.branch_candidate_pairs`; sound for any
    cost model with a positive ``min_operation_cost`` (``ctx.ops_threshold``
    is already in operation-count space, ``inf`` disables pruning).
    """

    def __init__(self, corpus_a: TreeCorpus, corpus_b: Optional[TreeCorpus]) -> None:
        self.corpus_a = corpus_a
        self.corpus_b = corpus_b

    def candidates(self, ctx: CascadeContext) -> CandidateSet:
        found, skipped = branch_candidate_pairs(
            self.corpus_a, self.corpus_b, ctx.ops_threshold
        )
        return CandidateSet(pairs=found, pruned=skipped)


class QueryIndexSource:
    """Asymmetric one-vs-corpus candidate generation from shared branches.

    Emits ``(0, j)`` pairs — side *a* is the one-tree ``query_corpus`` —
    for the corpus trees that may still match the query
    (:func:`~repro.join.pairs.query_candidate_pairs`).
    """

    def __init__(self, corpus: TreeCorpus, query_corpus: TreeCorpus) -> None:
        self.corpus = corpus
        self.query_corpus = query_corpus

    def candidates(self, ctx: CascadeContext) -> CandidateSet:
        found, skipped = query_candidate_pairs(
            self.query_corpus, self.corpus, ctx.ops_threshold
        )
        return CandidateSet(pairs=found, pruned=skipped)


# --------------------------------------------------------------------------- #
# The batch refiner
# --------------------------------------------------------------------------- #
class BatchRefiner:
    """The exact-distance refiner: a bound :func:`batch_distances` call.

    Binds the two corpora plus every execution knob of the batch layer
    (algorithm, engine, amortized workspace, worker fan-out, supervision
    policy) so plans and query engines can refine pair lists without
    re-threading a dozen parameters.  Refinement inherits all the
    batch-layer guarantees: bit-identical amortized kernels, the shared
    corpus pack, and the PR 7 supervised degradation ladder when
    ``workers > 1``.
    """

    def __init__(
        self,
        corpus_a: TreeCorpus,
        corpus_b: Optional[TreeCorpus],
        algorithm="rted",
        cost_model: Optional[CostModel] = None,
        engine: Optional[str] = None,
        workers: int = 1,
        chunk_size: int = 256,
        workspace=None,
        policy=None,
    ) -> None:
        from .batch import _check_chunk_size

        _check_chunk_size(chunk_size)
        self.corpus_a = corpus_a
        self.corpus_b = corpus_b
        self.algorithm = algorithm
        self.cost_model = cost_model
        self.engine = engine
        self.workers = workers
        self.chunk_size = chunk_size
        self.workspace = workspace
        self.policy = policy

    def effective_workers(self, n_pairs: int) -> int:
        from .batch import _effective_workers

        return _effective_workers(self.workers, n_pairs, self.chunk_size)

    def small_pair_gate(self) -> Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]]:
        """Which pairs :meth:`refine` verifies with the small-pair program.

        ``None`` when no pair is: a pre-built algorithm instance, a non-unit
        cost model, or an engine without the amortized workspace
        (:func:`~repro.join.batch._kernel_workspace`).  Otherwise a function
        mapping index arrays ``(i, j)`` to a mask that applies the per-pair
        gates of :func:`~repro.algorithms.batch_kernel.kernel_chunk_entries`:
        label codes on both sides and the cheaper sweep within
        :data:`~repro.algorithms.batch_kernel.SMALL_PAIR_CELLS`.  It reads
        the packs :meth:`refine` will run on (:func:`~repro.join.batch.
        _batch_packs`) and no provider state — the C kernel and the Python
        lanes run the same program — so the answer is the same with or
        without a compiler.
        """
        from .batch import _batch_packs, _kernel_workspace, _resolve_algorithm

        if not isinstance(self.algorithm, str):
            return None
        probe = self.workspace if self.workspace is not None else TedWorkspace(
            self.cost_model
        )
        if _kernel_workspace(_resolve_algorithm(self.algorithm, self.engine, probe)) is None:
            return None
        pack_a, pack_b = _batch_packs(self.corpus_a, self.corpus_b)

        def gate(i: np.ndarray, j: np.ndarray) -> np.ndarray:
            # choose_sweep admits a pair iff its cheaper sweep fits; float
            # products stay exact up to 2**53, far above the budget.
            left = pack_a.sweep_l[i].astype(float) * pack_b.sweep_l[j]
            right = pack_a.sweep_r[i].astype(float) * pack_b.sweep_r[j]
            return (
                pack_a.eligible[i]
                & pack_b.eligible[j]
                & (np.minimum(left, right) <= SMALL_PAIR_CELLS)
            )

        return gate

    def refine(
        self,
        pairs: Sequence[PairKey],
        cutoff: Optional[float],
        on_chunk: Callable[[List[Tuple]], None],
    ):
        """Run the pairs through :func:`batch_distances`, streaming chunks.

        Returns the :class:`~repro.join.supervisor.ExecutionReport` with the
        recovery telemetry of the (supervised) run.
        """
        from .batch import batch_distances
        from .supervisor import ExecutionReport

        report = ExecutionReport()
        batch_distances(
            self.corpus_a,
            self.corpus_b,
            pairs,
            algorithm=self.algorithm,
            cost_model=self.cost_model,
            engine=self.engine,
            workers=self.workers,
            chunk_size=self.chunk_size,
            on_chunk=on_chunk,
            collect_results=False,
            workspace=self.workspace,
            cutoff=cutoff,
            policy=self.policy,
            exec_report=report,
        )
        return report


# --------------------------------------------------------------------------- #
# Plans, the planner and the executor
# --------------------------------------------------------------------------- #
@dataclass
class RetrievalPlan:
    """One composed retrieval pipeline, ready for :func:`execute_plan`.

    Pair keys index ``corpus_a`` (side *a*) and ``corpus_b`` (side *b*;
    ``None`` for pairs within ``corpus_a``, as in a self join) — queries
    put the one-tree query corpus on side *a*.  The refiner verifies with
    ``cutoff=ctx.threshold``: only ``TED < τ`` matters, so each computation
    may stop once ``TED ≥ τ`` is proven.
    """

    ctx: CascadeContext
    source: CandidateSource
    filters: PairFilters
    refiner: Refiner
    corpus_a: TreeCorpus
    corpus_b: Optional[TreeCorpus]


class Planner:
    """Builds :class:`RetrievalPlan` compositions for the known workloads.

    The planner owns the workload-independent decisions: converting the
    distance threshold into operation-count space (the cost-model soundness
    rule), choosing the candidate source (inverted index vs plain
    enumeration), choosing the filter stages per pair against the verifier
    that will run it (:meth:`filters`), and stripping accept stages when
    exact distances are required.
    """

    def __init__(self, cost_model: CostModel) -> None:
        self.cost_model = cost_model

    def _context(self, threshold: float) -> CascadeContext:
        return CascadeContext(
            threshold=threshold,
            ops_threshold=operations_threshold(threshold, self.cost_model),
            cost_model=self.cost_model,
        )

    def filters(
        self,
        refiner: Refiner,
        use_cascade: bool = True,
        cascade: Optional[Sequence[FilterStage]] = None,
        early_accept: bool = True,
    ) -> PairFilters:
        """The filter stages of a plan, chosen per pair by cost.

        ``cascade=None`` takes :func:`~repro.join.cascade.default_cascade`
        and lets pairs that the refiner verifies with the small-pair program
        (:meth:`BatchRefiner.small_pair_gate`: a registry name, a unit-cost
        workspace, the pair within the cell gate) skip its O(n·m) Python
        stages, ``traversal-string`` and ``upper-bound``.  Every other pair —
        non-unit cost models, pre-built algorithm instances, pairs over the
        cell gate — keeps the full sound cascade.  An explicit ``cascade``
        runs as given; ``early_accept=False`` strips the accept stages.
        """
        if not use_cascade:
            return PairFilters([])
        stages = list(cascade) if cascade is not None else default_cascade()
        if not early_accept:
            stages = [s for s in stages if not s.is_accept_stage]
        small_pair = refiner.small_pair_gate() if cascade is None else None
        return PairFilters(stages, small_pair)

    def plan_join(
        self,
        corpus_a: TreeCorpus,
        corpus_b: Optional[TreeCorpus],
        threshold: float,
        refiner: Refiner,
        use_cascade: bool = True,
        cascade: Optional[Sequence[FilterStage]] = None,
        early_accept: bool = True,
    ) -> RetrievalPlan:
        """The symmetric all-pairs similarity join as one plan.

        This *is* the legacy :func:`batch_similarity_join` pipeline — the
        join calls this planner, so there is exactly one composition, not a
        legacy path and a refactored one.
        """
        ctx = self._context(threshold)
        if use_cascade:
            source: CandidateSource = JoinIndexSource(corpus_a, corpus_b)
        else:
            source = AllPairsSource(corpus_a, corpus_b)
        filters = self.filters(
            refiner,
            use_cascade=use_cascade,
            cascade=cascade,
            early_accept=early_accept,
        )
        return RetrievalPlan(
            ctx=ctx,
            source=source,
            filters=filters,
            refiner=refiner,
            corpus_a=corpus_a,
            corpus_b=corpus_b,
        )

    def plan_range(
        self,
        corpus: TreeCorpus,
        query_corpus: TreeCorpus,
        threshold: float,
        refiner: Refiner,
        use_cascade: bool = True,
        cascade: Optional[Sequence[FilterStage]] = None,
        early_accept: bool = False,
    ) -> RetrievalPlan:
        """A one-vs-corpus range query (``TED(query, tree) < τ``) as a plan.

        ``query_corpus`` is a one-tree corpus wrapping the query (side *a*
        of every pair, so non-symmetric cost models are oriented
        query → corpus tree).  Candidates come from the asymmetric
        inverted index (plain enumeration with the cascade off).
        ``early_accept`` defaults to *off* for queries: an accepted pair
        reports the upper-bound mapping cost instead of the exact distance,
        which is fine for a join's match set but wrong for result ranking.
        """
        ctx = self._context(threshold)
        if use_cascade:
            source: CandidateSource = QueryIndexSource(corpus, query_corpus)
        else:
            source = AllPairsSource(query_corpus, corpus)
        filters = self.filters(
            refiner, use_cascade=use_cascade, cascade=cascade, early_accept=early_accept
        )
        return RetrievalPlan(
            ctx=ctx,
            source=source,
            filters=filters,
            refiner=refiner,
            corpus_a=query_corpus,
            corpus_b=corpus,
        )


def execute_plan(
    plan: RetrievalPlan,
    stats: JoinStats,
    progress: Optional[Callable[[JoinStats], None]] = None,
    started: Optional[float] = None,
    sink: Optional[List[Tuple[int, int, float]]] = None,
) -> List[Tuple[int, int, float]]:
    """Run a retrieval plan: candidates → filter cascade → refinement.

    Returns the matched pairs as ``(i, j, distance)`` triples (unsorted —
    early accepts first, then refined matches in chunk completion order)
    and fills ``stats`` exactly as the historical join loop did, including
    the per-stage timings and the ``progress`` callback cadence (after
    candidate generation, after the cascade, after every refined chunk).

    ``sink``, when given, is used as the match accumulator itself — so a
    caller running under a deadline still holds every match streamed before
    a :class:`~repro.exceptions.ComputeTimeoutError` aborted the plan (the
    query engine's explicit partial-result path).
    """
    if started is None:
        started = time.perf_counter()
    ctx = plan.ctx

    # ---- candidates ------------------------------------------------------ #
    tick = time.perf_counter()
    generated = plan.source.candidates(ctx)
    stats.index_pruned = generated.pruned
    stats.candidate_pairs = len(generated.pairs)
    stats.candidate_time = time.perf_counter() - tick
    if progress is not None:
        progress(stats)

    # ---- filter cascade -------------------------------------------------- #
    matches: List[Tuple[int, int, float]] = sink if sink is not None else []
    tick = time.perf_counter()
    # One ambient budget governs the whole plan: the cascade checks it
    # between pair blocks (and per pair in per-pair stages), refinement
    # inherits it through batch_distances.
    survivors, accepted = plan.filters.run(
        generated.pairs, plan.corpus_a, plan.corpus_b, ctx, stats
    )
    matches.extend(accepted)
    stats.cascade_time = time.perf_counter() - tick
    if progress is not None:
        progress(stats)

    # ---- refinement ------------------------------------------------------ #
    tick = time.perf_counter()
    stats.verify_workers = plan.refiner.effective_workers(len(survivors))

    def on_chunk(chunk_results: List[Tuple]) -> None:
        for entry in chunk_results:
            i, j, distance, subproblems = entry[:4]
            stats.exact_computed += 1
            stats.total_subproblems += subproblems
            if len(entry) > 4 and entry[4]:
                stats.aborted_early += 1
            # Bounded entries carry a lower bound ≥ τ in the distance field,
            # so the strict match test is correct for both tuple shapes.
            if distance < ctx.threshold:
                stats.exact_matched += 1
                matches.append((i, j, distance))
        stats.matches = len(matches)
        stats.verify_time = time.perf_counter() - tick
        stats.total_time = time.perf_counter() - started
        if progress is not None:
            progress(stats)

    report = plan.refiner.refine(survivors, ctx.threshold, on_chunk)
    if report is not None:
        stats.retried_chunks += report.retried_chunks
        stats.failed_workers += report.failed_workers
        if report.degraded_to is not None:
            stats.degraded_to = report.degraded_to
        stats.poisoned_pairs += len(report.poisoned_pairs)

    stats.matches = len(matches)
    stats.verify_time = time.perf_counter() - tick
    stats.total_time = time.perf_counter() - started
    return matches
