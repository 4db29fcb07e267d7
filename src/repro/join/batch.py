"""Corpus-scale batch distance computation and the v2 similarity join.

The v2 join pipeline (see ``DESIGN.md``, *Batch joins*):

1. **Profile** — build/reuse the per-tree artifacts of the
   :class:`~repro.join.corpus.TreeCorpus` (computed once per tree, not per
   pair).
2. **Candidate generation** — grouping the corpus's sorted binary-branch
   keys materializes only the pairs that can still match (sound for any
   cost model with a positive
   :meth:`~repro.costs.CostModel.min_operation_cost`).
3. **Filter cascade** — ordered stages prune with scaled lower bounds
   (size, label and binary-branch over arrays of pair indices, block by
   block) and accept early with the top-down upper bound; pairs the
   small-pair program verifies skip the O(n·m) stages (traversal-string,
   upper bound), since the exact answer costs them less
   (:meth:`~repro.join.pipeline.Planner.filters`).
4. **Exact verification** — surviving pairs run exact TED with any registry
   algorithm/engine, optionally fanned out over a ``multiprocessing`` pool in
   chunks, with the streaming :class:`~repro.join.cascade.JoinStats` updated
   after every chunk.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from ..algorithms.base import TEDAlgorithm, resolve_cost_model
from ..algorithms.batch_kernel import kernel_chunk_entries
from ..algorithms.registry import make_algorithm
from ..algorithms.workspace import TedWorkspace, WorkspaceTED
from ..costs import CostModel
from ..exceptions import BatchConfigError, CutoffError
from ..runtime import active_deadline, as_deadline, deadline_scope
from ..trees.tree import Tree
from . import faults
from .supervisor import (
    ExecutionPolicy,
    ExecutionReport,
    RUNG_LOCAL_PACK,
    RUNG_NO_KERNEL,
    RUNG_SERIAL,
    run_supervised,
)
from .cascade import FilterStage, JoinStats
from .corpus import TreeCorpus

CorpusLike = Union[TreeCorpus, Sequence[Tree]]

#: Default number of pairs per multiprocessing work item (and per streaming
#: stats update in serial mode).
DEFAULT_CHUNK_SIZE = 256


def as_corpus(trees: CorpusLike) -> TreeCorpus:
    """Wrap a tree sequence in a :class:`TreeCorpus` (no-op for corpora)."""
    if isinstance(trees, TreeCorpus):
        return trees
    return TreeCorpus(trees)


# --------------------------------------------------------------------------- #
# Batch exact distances (serial or multiprocessing fan-out)
# --------------------------------------------------------------------------- #
def _kernel_workspace(algo) -> Optional[TedWorkspace]:
    """The workspace backing the batch kernel, or ``None`` if inapplicable.

    Batching stands in for per-pair :meth:`TedWorkspace.compute_small`
    calls only — each of which is the same dispatcher with one lane — so
    it requires the amortized wrapper (``WorkspaceTED``, i.e. a registry
    name on a workspace-capable engine; ``recursive`` and pre-built
    instances never qualify) with a unit-cost workspace.  Every emitted
    tuple is bit-identical to the per-pair path.
    """
    if not isinstance(algo, WorkspaceTED) or not algo.workspace.unit_cost:
        return None
    return algo.workspace


def _batch_packs(corpus_a: TreeCorpus, corpus_b: Optional[TreeCorpus]):
    """The ``(pack_a, pack_b)`` kernel inputs of one batch.

    Cross batches pack side b against side a's interner so the label codes
    of the two packs agree; when the corpora already share one interner
    (e.g. a per-query corpus built with ``interner=corpus.interner()``)
    side b's cached pack qualifies as-is — crucial for queries, where
    rebuilding the big corpus-side pack per call would dwarf the query.
    Both packs are cached per epoch, so the refiner's small-pair gate and
    the batch it plans read the same packs.
    """
    pack_a = corpus_a.pack()
    if corpus_b is None:
        return pack_a, pack_a
    if corpus_b.shares_interner(corpus_a):
        return pack_a, corpus_b.pack()
    return pack_a, corpus_b.pack_for(corpus_a.interner())


def _check_chunk_size(chunk_size, error=BatchConfigError) -> None:
    """Raise ``error`` unless ``chunk_size`` is a positive ``int``.

    A zero or negative size would otherwise chunk the pair list into
    nothing and silently drop every pair.
    """
    if isinstance(chunk_size, bool) or not isinstance(chunk_size, int) or chunk_size < 1:
        raise error(f"chunk_size must be a positive int, got {chunk_size!r}")


def _effective_workers(workers: int, n_pairs: int, chunk_size: int) -> int:
    """The worker count :func:`batch_distances` will actually use.

    Batches no larger than one chunk run serially regardless of ``workers``
    (pool startup costs more than the work they contain), and a pool can
    keep at most one worker busy per chunk.
    """
    if workers <= 1 or n_pairs <= chunk_size:
        return 1
    n_chunks = -(-n_pairs // chunk_size)
    return max(1, min(workers, n_chunks))


# Worker-process globals, set once per worker by _init_worker so that trees,
# the algorithm, the cost model and the amortized workspace are set up
# exactly once per worker instead of once per chunk (or per pair) — chunks
# only ever ship index pairs.
_WORKER_STATE: dict = {}


def _init_worker(
    trees_a, trees_b, algorithm, engine, cost_model, cutoff,
    pack_a=None, pack_b=None, fault_plan=None,
) -> None:
    # Adopt the parent's fault-injection plan (usually None) before any
    # other setup; this also marks the process as a supervised worker.
    faults.mark_worker(fault_plan)
    _WORKER_STATE["trees_a"] = trees_a
    _WORKER_STATE["trees_b"] = trees_b if trees_b is not None else trees_a
    # Workspaces hold process-local caches, so each worker builds its own
    # (the parent's never crosses the pickle boundary).
    algo = _resolve_algorithm(algorithm, engine, TedWorkspace(cost_model))
    _WORKER_STATE["algorithm"] = algo
    _WORKER_STATE["cost_model"] = cost_model
    _WORKER_STATE["cutoff"] = cutoff
    _WORKER_STATE["bounded_ok"] = _supports_cutoff(algo)
    # The parent's packs arrive on the local-pack rung only (inherited
    # copy-on-write under fork, pickled once per worker otherwise); they
    # already share one interner, so workers use them as given.
    kernel_ws = _kernel_workspace(algo) if pack_a is not None else None
    _WORKER_STATE["pack_a"] = pack_a if kernel_ws is not None else None
    _WORKER_STATE["pack_b"] = pack_b
    _WORKER_STATE["kernel_ws"] = kernel_ws


def _supports_cutoff(algo: TEDAlgorithm) -> bool:
    """Whether ``algo.compute`` accepts the ``cutoff`` keyword.

    Every registry algorithm does; pre-built instances predating the
    bounded-computation API may not, and a bounded batch silently falls back
    to unbounded computation for them (the result tuples stay correct —
    the exact distance is its own proving bound, never cut short).
    """
    try:
        parameters = inspect.signature(algo.compute).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        # Fail closed: an uninspectable compute gets the unbounded fallback
        # (always correct) instead of a speculative cutoff keyword.
        return False
    if "cutoff" in parameters:
        return True
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


def _compute_entry(algo, tree_a, tree_b, i, j, cost_model, cutoff, bounded_ok=True):
    """One batch result tuple — 4 fields unbounded, 5 fields with a cutoff.

    With a cutoff, the value field is the exact distance for sub-cutoff
    pairs and the proving lower bound (``≥ cutoff``) otherwise, so the
    consumer's ``value < τ`` match test stays correct either way; the fifth
    field flags computations the bounded kernels cut short.
    ``bounded_ok=False`` (an algorithm without the ``cutoff`` keyword) keeps
    the 5-tuple shape but computes unbounded.
    """
    if cutoff is None:
        result = algo.compute(tree_a, tree_b, cost_model=cost_model)
        return (i, j, result.distance, result.subproblems)
    if not bounded_ok:
        result = algo.compute(tree_a, tree_b, cost_model=cost_model)
        return (i, j, result.distance, result.subproblems, False)
    result = algo.compute(tree_a, tree_b, cost_model=cost_model, cutoff=cutoff)
    if result.bounded:
        return (i, j, result.lower_bound, result.subproblems, result.aborted)
    return (i, j, result.distance, result.subproblems, False)


def _worker_chunk(pairs: List[Tuple[int, int]]) -> List[Tuple]:
    trees_a = _WORKER_STATE["trees_a"]
    trees_b = _WORKER_STATE["trees_b"]
    algo = _WORKER_STATE["algorithm"]
    cost_model = _WORKER_STATE["cost_model"]
    cutoff = _WORKER_STATE["cutoff"]
    bounded_ok = _WORKER_STATE["bounded_ok"]

    def fallback(i, j):
        return _compute_entry(
            algo, trees_a[i], trees_b[j], i, j, cost_model, cutoff, bounded_ok
        )

    pack_a = _WORKER_STATE.get("pack_a")
    if pack_a is not None:
        return kernel_chunk_entries(
            pack_a, _WORKER_STATE["pack_b"], pairs, cutoff, fallback,
            workspace=_WORKER_STATE["kernel_ws"],
        )
    return [fallback(i, j) for i, j in pairs]


def _supervised_chunk(chunk_index: int, attempt: int, pairs: List[Tuple[int, int]]):
    """One supervised work item, run inside a pool worker.

    Returns ``("ok", chunk_index, results)`` or ``("err", chunk_index,
    message)`` — exceptions are stringified *here* so an unpicklable
    exception object can never wedge the pool result queue; only real
    crashes and hangs surface as pool-level events, and the supervisor
    handles both.  ``attempt`` exists so deterministic fault injection can
    make a retry succeed where the first attempt crashed.
    """
    faults.fire_worker_faults(chunk_index, attempt)
    try:
        faults.check_pairs(pairs)
        return ("ok", chunk_index, _worker_chunk(pairs))
    except Exception as exc:
        return ("err", chunk_index, f"{type(exc).__name__}: {exc}")


def _resolve_algorithm(
    algorithm: Union[str, TEDAlgorithm],
    engine: Optional[str],
    workspace: Optional[TedWorkspace] = None,
) -> TEDAlgorithm:
    if isinstance(algorithm, TEDAlgorithm):
        # Pre-built instances run exactly as configured — no workspace
        # wrapping, so an explicitly constructed oracle (e.g.
        # RTED(engine="recursive") as a cross-check) is never short-circuited
        # by the fast path.  Pass a registry *name* to get the amortized path.
        return algorithm
    return make_algorithm(algorithm, engine=engine, workspace=workspace)


def _chunked(pairs: List[Tuple[int, int]], size: int) -> Iterable[List[Tuple[int, int]]]:
    for start in range(0, len(pairs), size):
        yield pairs[start : start + size]


def batch_distances(
    trees_a: CorpusLike,
    trees_b: Optional[CorpusLike],
    pairs: Iterable[Tuple[int, int]],
    algorithm: Union[str, TEDAlgorithm] = "rted",
    cost_model: Optional[CostModel] = None,
    engine: Optional[str] = None,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    on_chunk: Optional[Callable[[List[Tuple]], None]] = None,
    collect_results: bool = True,
    workspace: Optional[TedWorkspace] = None,
    cutoff: Optional[float] = None,
    policy: Optional[ExecutionPolicy] = None,
    exec_report: Optional[ExecutionReport] = None,
    deadline=None,
) -> List[Tuple]:
    """Exact TED for many index pairs: ``(i, j) → (i, j, distance, subproblems)``.

    ``trees_b=None`` interprets pairs within ``trees_a`` (self-join indexing).
    ``workers > 1`` fans chunks of pairs out to a ``multiprocessing`` pool —
    trees, algorithm and cost model are pickled once per worker, so the
    per-pair overhead stays small; pass a registry *name* for ``algorithm``
    (instances and custom cost models must be picklable to cross the process
    boundary).  **A batch no larger than one ``chunk_size`` always runs
    serially, even with ``workers > 1``** — pool startup would cost more
    than the single chunk of work it parallelizes; the count a batch will
    actually use is :func:`_effective_workers`, surfaced by the join as
    ``JoinStats.verify_workers``.  ``on_chunk`` is invoked with every
    completed chunk in completion order, enabling streaming consumption of
    a long batch; ``collect_results=False`` then skips accumulating the
    full result list — at millions of pairs the tuples dominate memory —
    and returns ``[]``.  ``chunk_size`` must be a positive ``int``
    (:class:`~repro.exceptions.BatchConfigError` otherwise).

    A registry *name* always runs through the amortized execution layer
    (``DESIGN.md``, *Amortized batch execution*): one
    :class:`~repro.algorithms.workspace.TedWorkspace` is shared across all
    pairs — one per worker in the multiprocessing fan-out — so per-tree
    setup, interned cost tables and matrix buffers are paid once instead of
    once per pair.  ``workspace`` supplies that workspace explicitly
    (serial mode; it must match ``cost_model``); by default one is built
    over the corpus's label interner.  On a unit cost model, small pairs
    additionally run through the struct-of-arrays batch kernel
    (:mod:`repro.algorithms.batch_kernel`) — one C kernel call per chunk
    (spf's scalar region kernel, lane by lane, without a compiler) instead
    of one per-pair ``compute()``, bit-identical results including subproblem
    counts and bounded aborts.  In the multiprocessing fan-out the parent's
    corpus pack reaches the workers through the pool initializer —
    inherited copy-on-write under ``fork``, pickled once per worker under
    ``spawn``/``forkserver`` — so no worker rebuilds it.  A pre-built
    algorithm instance runs exactly as configured, per pair, so an
    explicitly constructed oracle is never short-circuited.

    ``cutoff`` switches the batch to *bounded* computation: every pair runs
    ``compute(..., cutoff=cutoff)`` and result tuples gain a fifth field,
    ``(i, j, value, subproblems, aborted)`` — ``value`` is the exact
    distance when it is below the cutoff (bit-identical to the unbounded
    batch) and the proving lower bound (``≥ cutoff``) otherwise, and
    ``aborted`` flags pairs whose computation the bounded kernels cut short.
    Pre-built algorithm instances whose ``compute`` predates the ``cutoff``
    keyword are computed unbounded (same tuple shape, exact distances,
    never aborted).

    The multiprocessing fan-out is **supervised**
    (:mod:`repro.join.supervisor`): dead or hung workers are detected,
    failed chunks are retried with capped backoff, and execution degrades
    along an explicit ladder (batch kernel on the parent's pack → no batch
    kernel → in-process serial) with bit-identical results at every
    rung.  ``policy`` tunes retries/timeouts (default:
    :meth:`ExecutionPolicy.default`, which honors ``RTED_CHUNK_TIMEOUT``
    and ``RTED_CHUNK_RETRIES``); pass an :class:`ExecutionReport` as
    ``exec_report`` to receive the recovery telemetry (retried chunks,
    failed workers, the rung degraded to, poisoned pairs).

    ``deadline`` (seconds or a :class:`~repro.runtime.Deadline`) bounds the
    whole batch: serial chunks honor it through the ambient scope, and the
    supervised fan-out checks it between chunk completions — on expiry the
    worker pool is hard-killed and
    :class:`~repro.exceptions.ComputeTimeoutError` propagates.  When omitted,
    an ambient deadline installed by an enclosing ``compute``/service request
    applies automatically.
    """
    _check_chunk_size(chunk_size)
    corpus_a = as_corpus(trees_a)
    corpus_b = as_corpus(trees_b) if trees_b is not None else None
    pair_list = list(pairs)
    results: List[Tuple[int, int, float, int]] = []
    dl = as_deadline(deadline)
    if dl is None:
        dl = active_deadline()

    if workspace is not None:
        # Enforce the invalidation rule up front, for every execution mode
        # (workers rebuild their own workspaces, but a mismatched explicit
        # one should fail loudly, not silently go unamortized).
        workspace.require(cost_model)

    if _effective_workers(workers, len(pair_list), chunk_size) <= 1:
        ws = workspace if workspace is not None else TedWorkspace(
            cost_model, interner=corpus_a.interner()
        )
        algo = _resolve_algorithm(algorithm, engine, ws)
        lookup_b = corpus_b.trees if corpus_b is not None else corpus_a.trees
        # Inspecting the compute signature costs more than a small kernel
        # pair, so only the first pair that falls back per pair pays it.
        bounded_ok = None

        def fallback(i, j):
            nonlocal bounded_ok
            if bounded_ok is None:
                bounded_ok = cutoff is None or _supports_cutoff(algo)
            return _compute_entry(
                algo, corpus_a.trees[i], lookup_b[j], i, j, cost_model, cutoff,
                bounded_ok,
            )

        # The batch-kernel fast path applies only to registry names — a
        # pre-built instance runs exactly as configured, per-pair.
        kernel_ws = _kernel_workspace(algo) if isinstance(algorithm, str) else None
        pack_a = pack_b = None
        if kernel_ws is not None:
            pack_a, pack_b = _batch_packs(corpus_a, corpus_b)
        with deadline_scope(dl):
            for chunk in _chunked(pair_list, chunk_size):
                if pack_b is not None:
                    chunk_results = kernel_chunk_entries(
                        pack_a, pack_b, chunk, cutoff, fallback,
                        workspace=kernel_ws,
                    )
                else:
                    chunk_results = [fallback(i, j) for i, j in chunk]
                if collect_results:
                    results.extend(chunk_results)
                if on_chunk is not None:
                    on_chunk(chunk_results)
        return results

    # ---- supervised multiprocessing fan-out ----------------------------- #
    if policy is None:
        policy = ExecutionPolicy.default()
    report = exec_report if exec_report is not None else ExecutionReport()

    # Workers get the parent's packs through the pool initializer: under
    # fork they inherit them copy-on-write, otherwise each worker unpickles
    # them once — no worker rebuilds a pack.
    pack_a = pack_b = None
    if isinstance(algorithm, str):
        probe = workspace if workspace is not None else TedWorkspace(cost_model)
        if probe.unit_cost:
            pack_a, pack_b = _batch_packs(corpus_a, corpus_b)

    # The fault plan active in the parent is threaded explicitly through the
    # pool initializer so workers never re-read the environment.
    plan = faults.active_plan()
    trees_b_arg = corpus_b.trees if corpus_b is not None else None

    def _executor_factory(rung: str, n_workers: int):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        packs = (pack_a, pack_b) if rung == RUNG_LOCAL_PACK else (None, None)
        return ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=multiprocessing.get_context(),
            initializer=_init_worker,
            initargs=(
                corpus_a.trees, trees_b_arg, algorithm, engine, cost_model,
                cutoff, *packs, plan,
            ),
        )

    rungs = [RUNG_LOCAL_PACK] if pack_a is not None else []
    rungs.extend((RUNG_NO_KERNEL, RUNG_SERIAL))

    # Lazily-built in-process verifier for the serial rung (most batches
    # never touch it).  Exceptions here poison single pairs, not the batch.
    serial_state: dict = {}

    def _serial_pair(i: int, j: int) -> Tuple:
        if not serial_state:
            ws = workspace if workspace is not None else TedWorkspace(
                cost_model, interner=corpus_a.interner()
            )
            algo = _resolve_algorithm(algorithm, engine, ws)
            serial_state["algo"] = algo
            serial_state["bounded_ok"] = cutoff is None or _supports_cutoff(algo)
            serial_state["lookup_b"] = (
                corpus_b.trees if corpus_b is not None else corpus_a.trees
            )
        faults.check_pair(i, j)
        return _compute_entry(
            serial_state["algo"], corpus_a.trees[i], serial_state["lookup_b"][j],
            i, j, cost_model, cutoff, serial_state["bounded_ok"],
        )

    def _consume_chunk(chunk_index: int, chunk_results: List[Tuple]) -> None:
        if collect_results:
            results.extend(chunk_results)
        if on_chunk is not None:
            on_chunk(chunk_results)

    # The scope covers the in-process serial rung (workers poll no ambient
    # state across the process boundary; the supervisor's own
    # per-completion deadline check governs the pool rungs instead).
    with deadline_scope(dl):
        run_supervised(
            chunks=list(_chunked(pair_list, chunk_size)),
            workers=_effective_workers(workers, len(pair_list), chunk_size),
            rungs=rungs,
            executor_factory=_executor_factory,
            task=_supervised_chunk,
            serial_pair=_serial_pair,
            on_chunk=_consume_chunk,
            policy=policy,
            report=report,
            deadline=dl,
        )
    return results


# --------------------------------------------------------------------------- #
# The v2 similarity join
# --------------------------------------------------------------------------- #
@dataclass
class BatchJoinResult:
    """Outcome of a v2 batch similarity join."""

    algorithm: str
    threshold: float
    matches: List[Tuple[int, int, float]] = field(default_factory=list)
    """Matched pairs as ``(index_a, index_b, distance)`` triples.

    The distance is the exact TED for every verified pair, which on the
    default unit-cost plan is every pair within the small-pair cell gate.
    Pairs verified per pair in Python (non-unit cost models, pre-built
    algorithm instances, pairs over the gate) still meet the upper-bound
    stage; for those it accepts early the distance is the top-down upper
    bound (a valid mapping cost below ``τ``).  Disable ``early_accept`` to
    force exact distances everywhere.
    """

    stats: JoinStats = field(default_factory=JoinStats)

    @property
    def match_set(self) -> set:
        """The matched index pairs as a set (distances stripped)."""
        return {(i, j) for i, j, _ in self.matches}


def batch_similarity_join(
    corpus_a: CorpusLike,
    threshold: float,
    corpus_b: Optional[CorpusLike] = None,
    algorithm: Union[str, TEDAlgorithm] = "rted",
    cost_model: Optional[CostModel] = None,
    engine: Optional[str] = None,
    use_cascade: bool = True,
    cascade: Optional[Sequence[FilterStage]] = None,
    early_accept: bool = True,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    progress: Optional[Callable[[JoinStats], None]] = None,
    policy: Optional[ExecutionPolicy] = None,
    deadline=None,
) -> BatchJoinResult:
    """The corpus-indexed batch similarity join (``TED < threshold``).

    ``corpus_b=None`` performs a self join over ``corpus_a`` (pairs ``i < j``);
    otherwise all cross pairs are joined.  ``use_cascade=False`` disables both
    candidate generation and the filter stages (every pair is verified
    exactly) — the match set is identical either way, which the test suite
    asserts: every stage that can run is sound (see the soundness rule in
    ``DESIGN.md``).  ``progress``, when given, receives the streaming
    :class:`JoinStats` after candidate generation, after the cascade, and
    after every verified chunk.

    Parameters mirror :func:`batch_distances` for the verification stage
    (``workers``, ``chunk_size``; registry names run amortized, through the
    batched small-pair kernel where it applies); filtering always runs in
    the parent process because it is cheap relative to exact TED.  Note
    that a survivor set no larger than one chunk verifies serially even
    with ``workers > 1``; ``JoinStats.verify_workers`` records the count
    actually used.

    Survivors are verified with ``cutoff=τ``: a survivor's exact TED
    computation aborts as soon as ``d ≥ τ`` is proven, since the join only
    needs to know whether the pair is below the threshold.  Every reported
    match distance is exact (bounded results below the cutoff are
    bit-identical to unbounded ones); ``JoinStats.aborted_early`` counts
    the verifications cut short.  Use :func:`batch_distances` without a
    cutoff to obtain exact distances of non-matching pairs.

    The multiprocessing verification stage is supervised (see
    :func:`batch_distances`): dead or hung workers are recovered, failed
    chunks retried, and execution degrades down an exact-result ladder
    rather than aborting the join.  ``policy`` tunes that behavior; the
    recovery telemetry lands in ``JoinStats`` (``retried_chunks``,
    ``failed_workers``, ``degraded_to``, ``poisoned_pairs``).  A NaN
    ``threshold`` raises :class:`~repro.exceptions.CutoffError`.
    """
    from .pipeline import BatchRefiner, Planner, execute_plan

    if threshold != threshold:
        raise CutoffError("threshold must not be NaN")
    stats = JoinStats()
    started = time.perf_counter()

    a = as_corpus(corpus_a)
    b = as_corpus(corpus_b) if corpus_b is not None else None
    cm = resolve_cost_model(cost_model)
    algo = _resolve_algorithm(algorithm, engine)

    if b is None:
        stats.pairs_total = len(a) * (len(a) - 1) // 2
    else:
        stats.pairs_total = len(a) * len(b)

    # The join is one composition of the planner/filter/refiner pipeline
    # (repro.join.pipeline) — the same architecture that runs range queries
    # and backs the kNN engine; execute_plan owns the stage loop, streaming
    # stats and the progress cadence.
    refiner = BatchRefiner(
        a,
        b,
        algorithm=algorithm,
        cost_model=cost_model,
        engine=engine,
        workers=workers,
        chunk_size=chunk_size,
        policy=policy,
    )
    plan = Planner(cm).plan_join(
        a,
        b,
        threshold,
        refiner,
        use_cascade=use_cascade,
        cascade=cascade,
        early_accept=early_accept,
    )
    # The ambient scope covers the whole pipeline — candidate generation,
    # filter cascade, and exact verification (whose batch_distances call
    # inherits it) — so one budget governs the join end to end.
    with deadline_scope(as_deadline(deadline)):
        matches = execute_plan(plan, stats, progress=progress, started=started)

    matches.sort()
    stats.matches = len(matches)
    stats.total_time = time.perf_counter() - started
    return BatchJoinResult(
        algorithm=algo.name, threshold=threshold, matches=matches, stats=stats
    )


def batch_self_join(
    trees: CorpusLike,
    threshold: float,
    **kwargs,
) -> BatchJoinResult:
    """Convenience alias: v2 self join over one collection."""
    return batch_similarity_join(trees, threshold, corpus_b=None, **kwargs)
