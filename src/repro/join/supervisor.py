"""Supervised execution of chunked batch work with a degradation ladder.

The multiprocessing fan-out of :func:`repro.join.batch.batch_distances` used
to be a bare ``Pool.imap_unordered`` loop: one segfaulting worker (the
runtime-compiled C backend is a real crash surface), one OOM kill, or one
wedged process aborted or hung the entire batch.  This module replaces it
with a supervisor that guarantees an **exact result at every rung**:

1. detect dead workers (``BrokenProcessPool`` — a ``ProcessPoolExecutor``
   notices worker death immediately, unlike ``multiprocessing.Pool`` which
   silently loses the task) and hung chunks (a stall deadline: with
   ``chunk_timeout`` set, the pool is torn down whenever no chunk completes
   for that long);
2. retry failed chunks with capped exponential backoff, resubmitting only
   the work that was lost;
3. walk an explicit **degradation ladder** when a rung keeps failing
   without making progress::

       local-pack   mp workers, batch kernel on the parent's corpus pack
       no-kernel    mp workers, per-pair scalar verification
       serial       in-process fallback, pair-at-a-time

   Every rung computes bit-identical result tuples (the test suite asserts
   this), so degradation trades throughput, never correctness;
4. isolate *poisoned* work: a chunk that exhausts its retry budget is re-run
   serially in the parent, pair by pair — a pair that still fails is
   recorded in :attr:`ExecutionReport.poisoned_pairs` instead of sinking the
   batch (strict mode turns that into a
   :class:`~repro.exceptions.BatchExecutionError`).

Worker-side exceptions never cross the process boundary raw: the task
wrapper (``batch._supervised_chunk``) stringifies them, so an unpicklable
exception cannot wedge the pool — only crashes and hangs surface as pool
events, and both are supervised.

Every recovery path is exercised deterministically through
:mod:`repro.join.faults` (``RTED_FAULT_INJECT``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..exceptions import BatchExecutionError, ChunkFailure, ComputeTimeoutError
from ..runtime import env_float, env_int

#: Ladder rung names, fastest first.  ``batch_distances`` assembles the
#: subset that applies to a given batch (no ``local-pack`` rung when the
#: batch kernel does not apply); ``serial`` is always the implicit last
#: resort.
RUNG_LOCAL_PACK = "local-pack"
RUNG_NO_KERNEL = "no-kernel"
RUNG_SERIAL = "serial"

#: Poll interval for the completion wait loop (also bounds how stale the
#: stall detector can be).
_POLL_SECONDS = 0.1


@dataclass
class ExecutionPolicy:
    """Retry / timeout / degradation policy of the supervised executor."""

    max_chunk_retries: int = 3
    """Failed attempts a chunk may accumulate before it is pulled from the
    worker pool and handed to the serial fallback."""

    chunk_timeout: Optional[float] = None
    """Stall deadline in seconds: if no chunk completes for this long while
    work is in flight, the pool is presumed hung and torn down (the affected
    chunks are retried).  ``None`` disables hang detection."""

    max_rung_failures: int = 2
    """Consecutive zero-progress pool failures tolerated on one ladder rung
    before degrading to the next; any completed chunk resets the count."""

    backoff_base: float = 0.05
    """First retry delay (seconds); doubles per consecutive failure."""

    backoff_cap: float = 1.0
    """Upper bound on the exponential backoff delay."""

    strict: bool = False
    """Raise :class:`BatchExecutionError` if any pair remains unverifiable
    even at the bottom of the ladder, instead of reporting it poisoned."""

    @classmethod
    def default(cls) -> "ExecutionPolicy":
        """Default policy with ``RTED_CHUNK_TIMEOUT`` / ``RTED_CHUNK_RETRIES``
        environment overrides applied.

        Both are parsed with warn-and-fallback semantics
        (:mod:`repro.runtime`): a malformed value like
        ``RTED_CHUNK_TIMEOUT=abc`` emits a :class:`RuntimeWarning` and keeps
        the built-in default instead of raising.
        """
        policy = cls()
        timeout = env_float("RTED_CHUNK_TIMEOUT", positive=True)
        if timeout is not None:
            policy.chunk_timeout = timeout
        retries = env_int("RTED_CHUNK_RETRIES", minimum=0)
        if retries is not None:
            policy.max_chunk_retries = retries
        return policy


@dataclass(frozen=True)
class PoisonedPair:
    """A pair that failed on every ladder rung, including per-pair serial."""

    i: int
    j: int
    error: str


@dataclass
class ExecutionReport:
    """What the supervisor had to do to complete one batch.

    ``batch_distances(..., exec_report=report)`` fills a caller-provided
    instance; :func:`repro.join.batch.batch_similarity_join` surfaces the
    scalar fields through :class:`~repro.join.cascade.JoinStats`.
    """

    rungs_used: List[str] = field(default_factory=list)
    """Ladder rungs that executed at least one chunk, in order of use."""

    retried_chunks: int = 0
    """Chunk re-submissions (attempts beyond each chunk's first)."""

    failed_workers: int = 0
    """Worker-pool failure events recovered from: crashes
    (``BrokenProcessPool``), hang teardowns, failed pool creation."""

    degraded_to: Optional[str] = None
    """The deepest rung used when more than one was needed, else ``None``."""

    serial_chunks: int = 0
    """Chunks that ended up on the in-process serial fallback."""

    poisoned_pairs: List[PoisonedPair] = field(default_factory=list)
    """Pairs skipped after failing even the per-pair serial re-run."""

    chunk_failures: List[ChunkFailure] = field(default_factory=list)
    """Failure histories of chunks that needed the serial fallback."""


@dataclass
class _ChunkState:
    index: int
    pairs: List[Tuple[int, int]]
    attempts: int = 0
    done: bool = False
    serial_only: bool = False
    failures: List[str] = field(default_factory=list)


def _hard_shutdown(executor) -> None:
    """Best-effort teardown of a (possibly hung or broken) executor.

    ``ProcessPoolExecutor`` exposes no public kill switch, and
    ``shutdown(cancel_futures=True)`` leaves *running* (hung) workers
    alive — so terminate the worker processes directly first.  Touching
    ``_processes`` is unsupported API; every step is individually guarded
    and a failure only means slower teardown, never a wrong result.
    """
    processes = list(getattr(executor, "_processes", {}).values())
    # ``shutdown(wait=False)`` drops the executor's handle on its manager
    # thread, which keeps running and joins the same workers; a worker it
    # reaps first stays in ``active_children()`` until that thread stores
    # the exit code, so it is joined below too.
    manager = getattr(executor, "_executor_manager_thread", None)
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    deadline = time.monotonic() + 2.0
    for process in processes:
        try:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(1.0)
        except Exception:
            pass
    if manager is not None:
        manager.join(max(0.0, deadline - time.monotonic()))


def _charge_failure(
    state: _ChunkState,
    reason: str,
    policy: ExecutionPolicy,
    report: ExecutionReport,
) -> None:
    """Record one failed attempt against a chunk (parks it when exhausted)."""
    state.attempts += 1
    state.failures.append(reason)
    report.retried_chunks += 1
    if state.attempts > policy.max_chunk_retries:
        state.serial_only = True


def _drain(
    executor,
    todo: List[_ChunkState],
    workers: int,
    task: Callable,
    on_chunk: Callable[[int, List[Tuple]], None],
    policy: ExecutionPolicy,
    report: ExecutionReport,
    deadline=None,
) -> Tuple[Optional[str], int]:
    """Run ``todo`` chunks on ``executor`` until done or the pool fails.

    Returns ``(failure_reason, completed_count)`` — ``reason`` is ``None``
    when every chunk either completed or was parked for the serial fallback.
    In-chunk errors (the task returned ``("err", ...)``) are retried on the
    same healthy pool; only pool-level events (crash / hang / submit
    failure) abort the drain.

    Submissions are windowed to a few chunks per worker rather than queued
    all at once: a broken pool takes every pending future down with it, so
    a small window means one crash charges a retry attempt to a handful of
    in-flight chunks instead of the entire remaining batch (the chunks
    still queued here are resubmitted free of charge).

    An expired ``deadline`` (:class:`repro.runtime.Deadline`) — checked at
    the same cadence as the stall detector — tears the pool down through the
    hang-teardown path and raises
    :class:`~repro.exceptions.ComputeTimeoutError`.  Any other interruption
    (``KeyboardInterrupt`` included) also hard-kills the workers before
    propagating, so an aborted fan-out never leaves orphan processes behind.
    """
    import concurrent.futures as cf

    completed = 0
    futures = {}
    queue = list(todo)
    window = max(1, workers) * 2

    def _submit_pending() -> Optional[str]:
        while queue and len(futures) < window:
            state = queue.pop(0)
            try:
                futures[
                    executor.submit(task, state.index, state.attempts, state.pairs)
                ] = state
            except Exception as exc:
                queue.insert(0, state)
                return f"submit failed: {type(exc).__name__}: {exc}"
        return None

    def _fail(reason: str) -> Tuple[str, int]:
        # Only the chunks actually riding the broken pool are charged an
        # attempt; queued chunks just go back to the rung loop.
        for state in futures.values():
            if not state.done:
                _charge_failure(state, reason, policy, report)
        _hard_shutdown(executor)
        return reason, completed

    try:
        reason = _submit_pending()
        if reason is not None:
            return _fail(reason)

        last_progress = time.monotonic()
        poll = _POLL_SECONDS
        if policy.chunk_timeout is not None:
            poll = min(poll, max(0.01, policy.chunk_timeout / 4.0))
        while futures:
            done_set, _ = cf.wait(
                set(futures), timeout=poll, return_when=cf.FIRST_COMPLETED
            )
            if deadline is not None and deadline.expired():
                # Reuse the stall-teardown path: kill the pool, then raise —
                # the budget is blown, so no rung retry can help.
                _fail("compute deadline exceeded")
                raise ComputeTimeoutError(
                    "compute deadline exceeded during batch execution"
                )
            if not done_set:
                stalled = (
                    policy.chunk_timeout is not None
                    and time.monotonic() - last_progress > policy.chunk_timeout
                )
                if stalled:
                    in_flight = sorted(state.index for state in futures.values())
                    return _fail(
                        f"chunk timeout: no completion within "
                        f"{policy.chunk_timeout:g}s (chunks {in_flight} in flight)"
                    )
                continue
            last_progress = time.monotonic()
            # Harvest every finished future before acting on a pool failure
            # so completed work is never thrown away with the broken pool.
            pool_failure: Optional[str] = None
            for future in done_set:
                state = futures.pop(future)
                try:
                    status, _chunk_index, payload = future.result()
                except Exception as exc:  # BrokenProcessPool and friends
                    pool_failure = f"worker pool broke: {type(exc).__name__}: {exc}"
                    _charge_failure(state, pool_failure, policy, report)
                    continue
                if status == "ok":
                    state.done = True
                    completed += 1
                    on_chunk(state.index, payload)
                    continue
                # In-chunk error, reported as data: retry on the live pool.
                _charge_failure(state, payload, policy, report)
                if not state.serial_only:
                    queue.append(state)
            if pool_failure is not None:
                for state in futures.values():
                    if not state.done:
                        _charge_failure(state, pool_failure, policy, report)
                _hard_shutdown(executor)
                return pool_failure, completed
            reason = _submit_pending()
            if reason is not None:
                return _fail(reason)
    except ComputeTimeoutError:
        raise  # pool already torn down above
    except BaseException:
        # KeyboardInterrupt, cancellation, or an unexpected bug: never
        # leave worker processes running behind an abandoned drain.
        _hard_shutdown(executor)
        raise
    executor.shutdown(wait=True)
    return None, completed


def _run_rung(
    rung: str,
    states: List[_ChunkState],
    workers: int,
    executor_factory: Callable[[str, int], object],
    task: Callable,
    on_chunk: Callable[[int, List[Tuple]], None],
    policy: ExecutionPolicy,
    report: ExecutionReport,
    deadline=None,
) -> str:
    """Drive one ladder rung to completion or abandonment.

    Returns ``"completed"`` (every chunk done or parked for serial) or
    ``"degrade"`` (the rung failed ``max_rung_failures + 1`` consecutive
    times without completing a single chunk).
    """
    if rung not in report.rungs_used:
        report.rungs_used.append(rung)
    rung_failures = 0
    while True:
        todo = [s for s in states if not s.done and not s.serial_only]
        if not todo:
            return "completed"
        n_workers = max(1, min(workers, len(todo)))
        try:
            executor = executor_factory(rung, n_workers)
        except Exception as exc:
            # Pool creation failing is a rung-wide event (no chunk was ever
            # in flight): count it against the rung, not any chunk.
            reason: Optional[str] = (
                f"pool creation failed: {type(exc).__name__}: {exc}"
            )
            completed = 0
        else:
            reason, completed = _drain(
                executor, todo, n_workers, task, on_chunk, policy, report,
                deadline=deadline,
            )
        if reason is None:
            continue  # loop re-checks: remaining chunks are serial_only
        report.failed_workers += 1
        if completed:
            rung_failures = 0
        rung_failures += 1
        if rung_failures > policy.max_rung_failures:
            return "degrade"
        delay = min(
            policy.backoff_cap, policy.backoff_base * 2.0 ** (rung_failures - 1)
        )
        if delay > 0:
            time.sleep(delay)


def _run_serial_chunk(
    state: _ChunkState,
    serial_pair: Callable[[int, int], Tuple],
    on_chunk: Callable[[int, List[Tuple]], None],
    report: ExecutionReport,
) -> None:
    """Bottom of the ladder: re-run one chunk pair by pair, in process.

    A pair that still fails here is recorded as poisoned — one malformed
    pair can no longer sink the batch.
    """
    chunk_results: List[Tuple] = []
    poisoned_before = len(report.poisoned_pairs)
    for i, j in state.pairs:
        try:
            chunk_results.append(serial_pair(i, j))
        except ComputeTimeoutError:
            # A blown compute budget is a batch-level event, not a poisoned
            # pair — let it propagate to the caller.
            raise
        except Exception as exc:
            report.poisoned_pairs.append(
                PoisonedPair(int(i), int(j), f"{type(exc).__name__}: {exc}")
            )
    state.done = True
    newly_poisoned = report.poisoned_pairs[poisoned_before:]
    if state.failures or newly_poisoned:
        errors = state.failures or [pair.error for pair in newly_poisoned]
        report.chunk_failures.append(
            ChunkFailure(state.index, state.attempts + 1, errors)
        )
    on_chunk(state.index, chunk_results)


def run_supervised(
    chunks: Sequence[Sequence[Tuple[int, int]]],
    workers: int,
    rungs: Sequence[str],
    executor_factory: Callable[[str, int], object],
    task: Callable,
    serial_pair: Callable[[int, int], Tuple],
    on_chunk: Callable[[int, List[Tuple]], None],
    policy: ExecutionPolicy,
    report: ExecutionReport,
    deadline=None,
) -> None:
    """Execute every chunk exactly once, surviving partial failure.

    Parameters
    ----------
    chunks:
        The work items (lists of index pairs), one result callback each.
    workers:
        Worker-process budget per pool.
    rungs:
        Ladder rungs to walk, fastest first (``RUNG_SERIAL`` is always the
        implicit last resort, listed or not).
    executor_factory:
        ``(rung, n_workers) -> ProcessPoolExecutor`` configured for that
        rung (initializer arguments differ per rung).
    task:
        Picklable ``(chunk_index, attempt, pairs) -> ("ok"|"err", index,
        payload)`` callable run in workers; it must catch its own exceptions
        (returning ``"err"``) so only crashes and hangs become pool events.
    serial_pair:
        In-process single-pair fallback; exceptions poison just that pair.
    on_chunk:
        Called exactly once per chunk with its result tuples, in completion
        order (a chunk with poisoned pairs reports the surviving tuples).
    policy, report:
        Retry/timeout/degradation knobs and the output telemetry.

    Raises
    ------
    BatchExecutionError
        Only in ``policy.strict`` mode, when poisoned pairs remain.
    ComputeTimeoutError
        When ``deadline`` (:class:`repro.runtime.Deadline`) expires; the
        worker pool is hard-killed first, so no orphan processes survive.
    """
    states = [_ChunkState(index, list(chunk)) for index, chunk in enumerate(chunks)]
    mp_rungs = [rung for rung in rungs if rung != RUNG_SERIAL]
    for rung in mp_rungs:
        if deadline is not None:
            deadline.check()
        todo = [s for s in states if not s.done and not s.serial_only]
        if not todo:
            break
        outcome = _run_rung(
            rung, states, workers, executor_factory, task, on_chunk, policy,
            report, deadline=deadline,
        )
        if outcome != "degrade":
            break
    remaining = [s for s in states if not s.done]
    if remaining:
        if RUNG_SERIAL not in report.rungs_used:
            report.rungs_used.append(RUNG_SERIAL)
        report.serial_chunks += len(remaining)
        for state in remaining:
            _run_serial_chunk(state, serial_pair, on_chunk, report)
    if len(report.rungs_used) > 1:
        report.degraded_to = report.rungs_used[-1]
    if policy.strict and report.poisoned_pairs:
        sample = ", ".join(
            f"({pair.i}, {pair.j}): {pair.error}"
            for pair in report.poisoned_pairs[:3]
        )
        raise BatchExecutionError(
            f"{len(report.poisoned_pairs)} pair(s) failed on every "
            f"degradation rung (strict mode): {sample}"
        )
