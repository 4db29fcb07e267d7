"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class TreeConstructionError(ReproError):
    """Raised when a tree cannot be built from the given input."""


class ParseError(ReproError):
    """Raised when a serialized tree (bracket, Newick, XML, JSON) is malformed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        #: Character offset at which parsing failed, when known.
        self.position = position


class InvalidNodeError(ReproError):
    """Raised when a node identifier is outside a tree's valid range."""


class UnknownAlgorithmError(ReproError):
    """Raised when an algorithm name is not present in the registry."""


class UnknownEngineError(ReproError):
    """Raised when an execution-engine name is invalid or unsupported."""


class StrategyError(ReproError):
    """Raised when a decomposition strategy returns an invalid path choice."""


class CostModelError(ReproError):
    """Raised when a cost model produces invalid (e.g. negative) costs."""


class WorkspaceError(ReproError):
    """Raised when a :class:`~repro.algorithms.workspace.TedWorkspace` is
    used with a cost model other than the one it was created with (its cached
    cost tables would be silently wrong for the new model)."""


class BatchExecutionError(ReproError):
    """Raised when supervised batch execution cannot deliver a complete,
    exact result set.

    The supervised executor (:mod:`repro.join.supervisor`) only raises this
    in *strict* mode (``ExecutionPolicy(strict=True)``); by default failures
    are degraded through the recovery ladder and reported per pair in the
    :class:`~repro.join.supervisor.ExecutionReport` instead of aborting the
    batch."""


class ChunkFailure(BatchExecutionError):
    """One batch chunk exhausted its retry budget on every worker rung.

    Carries the chunk index, the number of attempts made, and the error
    message of each failed attempt.  Instances double as records inside
    :attr:`~repro.join.supervisor.ExecutionReport.chunk_failures` — a chunk
    rescued by the serial fallback still leaves its failure history there.
    """

    def __init__(self, chunk_index: int, attempts: int, errors) -> None:
        self.chunk_index = int(chunk_index)
        self.attempts = int(attempts)
        self.errors = [str(error) for error in errors]
        last = self.errors[-1] if self.errors else "unknown error"
        super().__init__(
            f"chunk {self.chunk_index} failed after {self.attempts} attempt(s): {last}"
        )


class ComputeTimeoutError(ReproError):
    """Raised when a computation exceeds its cooperative deadline.

    Armed via ``compute(..., deadline=...)`` (see :mod:`repro.runtime`): the
    DP kernels test the deadline amortized at row-loop granularity and raise
    as soon as the budget is exhausted or the attached
    :class:`~repro.runtime.CancelToken` is cancelled.  Unlike the ``cutoff``
    machinery, a deadline expiry carries no partial answer for a single
    pair, so it propagates as an exception through the public API; the
    retrieval layer (:meth:`~repro.join.query.QueryEngine.knn`) instead
    catches it and returns best-so-far results marked ``partial``."""


class MetricGateError(CostModelError):
    """Raised when a metric-space index is built over a non-metric cost model.

    Triangle-inequality pruning under a cost model that is not provably a
    metric silently drops true results, so
    :meth:`~repro.join.metric_index.VPTree.build` refuses outright; callers
    that cannot prove metricity (:func:`~repro.join.metric_index.metric_eligible`)
    must fall back to a linear scan."""


class CorpusError(ReproError):
    """Raised on an invalid corpus mutation: removing an out-of-range tree
    id, adding a non-tree object, or mutating an epoch-pinned
    :class:`~repro.join.corpus.CorpusSnapshot` (snapshots are immutable —
    mutate the parent corpus instead)."""


class QueryError(ReproError):
    """Raised when a retrieval query is malformed (e.g. ``k < 0`` or a
    non-finite range threshold)."""


class CutoffError(ReproError):
    """Raised when a distance cutoff is not a number (a bool, a string, a
    list) or is NaN, or when a join threshold is NaN."""


class FaultInjectionError(ReproError):
    """Raised when an ``RTED_FAULT_INJECT`` specification cannot be parsed."""


class InjectedFaultError(ReproError):
    """Raised by the deterministic fault-injection layer (:mod:`repro.join.faults`).

    Only ever seen when fault injection is active — e.g. a ``poison_pair``
    fault makes the affected pair's computation raise this error on every
    ladder rung, exercising the per-pair poisoned-result reporting."""
