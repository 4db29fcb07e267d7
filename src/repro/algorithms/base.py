"""Common result type and interface for tree edit distance algorithms.

Every algorithm in :mod:`repro.algorithms` implements :class:`TEDAlgorithm`:
``compute`` returns a :class:`TEDResult` carrying the distance together with
the measurements the paper's experiments need (number of relevant
subproblems, strategy-computation time, distance-computation time), and
``distance`` is a convenience wrapper returning only the number.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Optional

from ..costs import UNIT_COST, CostModel, UnitCostModel
from ..exceptions import CutoffError, UnknownEngineError
from ..trees.tree import Tree

#: Execution-engine identifiers.  ``auto`` picks each algorithm's production
#: default — the iterative ``spf`` executor for every GTED/RTED variant, the
#: dedicated Zhang–Shasha tables for ``zhang-l``/``zhang-r``; ``spf`` forces
#: the iterative executor that dispatches *every* strategy step (left, right
#: and heavy) to the single-path functions of :mod:`repro.algorithms.spf`;
#: ``recursive`` forces the strategy-driven
#: :class:`~repro.algorithms.forest_engine.DecompositionEngine`, kept as the
#: cross-check oracle (see ``DESIGN.md``).
ENGINE_AUTO = "auto"
ENGINE_RECURSIVE = "recursive"
ENGINE_SPF = "spf"
#: ``native`` is the iterative ``spf`` executor with a
#: :class:`~repro.algorithms.workspace.TedWorkspace` attached, so small
#: unit-cost pairs run the small-pair program
#: (:mod:`repro.algorithms.batch_kernel`) — the C kernel when a compiler is
#: present, its bit-identical Python twin otherwise (or with
#: ``RTED_NO_NATIVE=1``).  The registry's ``auto`` never selects it:
#: :func:`~repro.algorithms.registry.make_algorithm` runs the literal
#: algorithm.  The one use of the small-pair program under ``auto`` is
#: :func:`repro.api.compute`'s rule for unit-cost ``rted`` pairs of trees
#: up to ``SMALL_PAIR_CUTOFF`` nodes, which stays reproducible on every host
#: because the two implementations agree on distances, cell counts and
#: bounded outcomes.
ENGINE_NATIVE = "native"

ENGINES = (ENGINE_AUTO, ENGINE_RECURSIVE, ENGINE_SPF, ENGINE_NATIVE)


def resolve_engine(engine: Optional[str]) -> str:
    """Normalize an engine selector (``None`` → ``auto``) or raise.

    Raises
    ------
    UnknownEngineError
        If ``engine`` is not one of :data:`ENGINES`.
    """
    if engine is None:
        return ENGINE_AUTO
    key = str(engine).strip().lower()
    if key not in ENGINES:
        raise UnknownEngineError(
            f"unknown engine {engine!r}; available: {', '.join(ENGINES)}"
        )
    return key


@dataclass
class TEDResult:
    """Outcome of a tree edit distance computation.

    Attributes
    ----------
    distance:
        The tree edit distance under the supplied cost model.
    algorithm:
        Name of the algorithm that produced the result.
    subproblems:
        Number of relevant subproblems (distinct forest-pair distances) the
        executed program evaluated; the unit in which the paper measures
        work.  For the small-pair program (``extra["kernel"] ==
        "small-pair"``) this is the left-path program's cell count, not
        the wrapped algorithm's.
    strategy_time:
        Seconds spent computing the decomposition strategy (0 for algorithms
        with a hard-coded strategy).
    distance_time:
        Seconds spent in the distance computation proper.
    n_f, n_g:
        Sizes of the two input trees.
    """

    distance: float
    algorithm: str
    subproblems: int = 0
    strategy_time: float = 0.0
    distance_time: float = 0.0
    n_f: int = 0
    n_g: int = 0
    extra: dict = field(default_factory=dict)

    #: Discriminator shared with :class:`BoundedResult`: ``False`` means the
    #: exact distance is available in :attr:`distance`.
    bounded = False

    @property
    def total_time(self) -> float:
        """Strategy time plus distance time."""
        return self.strategy_time + self.distance_time


@dataclass
class BoundedResult:
    """Sentinel outcome of a cutoff-bounded computation: ``distance ≥ cutoff``.

    Returned by ``compute(..., cutoff=τ)`` instead of a :class:`TEDResult`
    whenever the exact distance is *not* below the cutoff.  It deliberately
    has no ``distance`` attribute — the exact distance was (possibly) never
    computed, and any consumer reading a distance off a bounded result would
    be using a wrong number; use :attr:`lower_bound` instead.

    Attributes
    ----------
    lower_bound:
        The bound that proves ``distance ≥ cutoff``.  Always satisfies
        ``cutoff ≤ lower_bound ≤ distance``; when the computation ran to
        completion (``aborted=False``) it *is* the exact distance.
    cutoff:
        The cutoff the computation was bounded by.
    aborted:
        ``True`` when the computation was cut short (pre-check or mid-kernel
        early abort); ``False`` when the full computation ran and merely
        landed at or above the cutoff (the final check).
    """

    lower_bound: float
    cutoff: float
    algorithm: str
    aborted: bool = True
    subproblems: int = 0
    strategy_time: float = 0.0
    distance_time: float = 0.0
    n_f: int = 0
    n_g: int = 0
    extra: dict = field(default_factory=dict)

    #: Discriminator shared with :class:`TEDResult`.
    bounded = True

    @property
    def total_time(self) -> float:
        """Strategy time plus distance time."""
        return self.strategy_time + self.distance_time


class CutoffExceeded(Exception):
    """Internal control-flow signal: a bounded kernel proved ``d ≥ cutoff``.

    Raised from the row kernels / fast paths and caught at the ``compute``
    layer, where it is converted into a :class:`BoundedResult`; it never
    escapes the public API.  ``lower_bound`` carries the proving bound;
    ``subproblems`` the forest-distance cells evaluated before the abort
    (kernels that track a count attach it on the way out, so aborted
    sentinels report their work in the same currency as completed runs).
    """

    def __init__(self, lower_bound: float) -> None:
        super().__init__(lower_bound)
        self.lower_bound = float(lower_bound)
        self.subproblems = 0


#: Relative slack absorbing float round-off in the bounded-computation lower
#: bounds.  The abort machinery compares ``band · k`` style products against
#: the cutoff, while the DP *accumulates* the same costs term by term — and a
#: float sum of ``k`` non-dyadic terms can round up to ``k·u`` relatively
#: below (or above) the single multiply (``u = 2⁻⁵³``; e.g. ten additions of
#: 0.1 give 0.9999999999999999 while ``0.1 · 10 == 1.0``).  Every bound test
#: therefore fires only at ``bound · (1 − slack) ≥ cutoff``, with the slack
#: chosen far above ``k·u`` for any tree this library can process (covers
#: ``k ≤ 2²⁷`` summands), so a pair whose *float* distance is an ulp below
#: the cutoff is never classified as bounded.  The exact
#: :class:`~repro.costs.UnitCostModel` needs no slack: its arithmetic is
#: integer-valued float64 throughout and therefore exact.
CUTOFF_SLACK = 2.0 ** -26


def validate_cutoff(cutoff):
    """A caller-supplied cutoff, checked: ``None`` when it bounds nothing.

    ``None`` and ``+inf`` both mean no cutoff (every distance is finite).
    Bools, non-numbers and NaN raise :class:`~repro.exceptions.CutoffError`;
    any other number is returned unchanged.
    """
    if cutoff is None:
        return None
    if isinstance(cutoff, bool) or not isinstance(cutoff, numbers.Real):
        raise CutoffError(f"cutoff must be a number, got {cutoff!r}")
    if math.isnan(cutoff):
        raise CutoffError("cutoff must not be NaN")
    return None if cutoff == math.inf else cutoff


def cutoff_slack(cost_model: CostModel) -> float:
    """The relative bound slack for ``cost_model`` (see :data:`CUTOFF_SLACK`)."""
    return 0.0 if type(cost_model) is UnitCostModel else CUTOFF_SLACK


def cutoff_band(cost_model: CostModel) -> Optional[float]:
    """Per-operation cost floor enabling mid-kernel aborts, or ``None``.

    The sound mid-row abort test adds ``band · |remaining_F − remaining_G|``
    to the running row minimum (see ``DESIGN.md``, *Bounded verification*);
    models without a provable positive :meth:`CostModel.min_operation_cost`
    disable mid-row aborts entirely (only the final check applies).
    """
    floor = cost_model.min_operation_cost()
    if floor is None or floor <= 0:
        return None
    return float(floor)


def cutoff_precheck(
    tree_f: Tree, tree_g: Tree, cost_model: CostModel, cutoff: float
) -> Optional[float]:
    """Size-difference pre-check: a proving bound ``≥ cutoff``, or ``None``.

    ``TED ≥ c · ||F| − |G||`` for any per-operation cost floor ``c``; the
    trivial bound 0 covers non-positive cutoffs (every distance is ≥ 0).
    The returned bound is pre-shrunk by the model's round-off slack (see
    :data:`CUTOFF_SLACK`) so it never exceeds the float-accumulated DP
    distance.
    """
    band = cutoff_band(cost_model)
    bound = 0.0 if band is None else band * abs(tree_f.n - tree_g.n)
    bound *= 1.0 - cutoff_slack(cost_model)
    return bound if bound >= cutoff else None


def precheck_bounded(
    tree_f: Tree,
    tree_g: Tree,
    cost_model: CostModel,
    cutoff: Optional[float],
    algorithm: str,
    watch: "Stopwatch",
    extra: Optional[dict] = None,
) -> Optional[BoundedResult]:
    """The size pre-check as a ready :class:`BoundedResult`, or ``None``.

    Shared by every ``compute(..., cutoff=τ)`` implementation so the
    pre-check block is written once: when :func:`cutoff_precheck` proves
    ``d ≥ cutoff``, the returned sentinel carries that bound with
    ``aborted=True`` and zero subproblems (no DP ever ran).
    """
    if cutoff is None:
        return None
    proof = cutoff_precheck(tree_f, tree_g, cost_model, cutoff)
    if proof is None:
        return None
    return BoundedResult(
        lower_bound=proof,
        cutoff=cutoff,
        algorithm=algorithm,
        aborted=True,
        distance_time=watch.elapsed(),
        n_f=tree_f.n,
        n_g=tree_g.n,
        extra=extra if extra is not None else {},
    )


def check_row_cutoff(
    row,
    cols: int,
    rem_f: int,
    cutoff: float,
    band: float,
    lo: int = 0,
    hi: Optional[int] = None,
    exact_values: bool = True,
    slack: float = 0.0,
) -> None:
    """The sound per-row abort test of a bounded final table region.

    After a row of the final region — whose cells are exact distances
    between prefix forests of the two bounded (sub)trees — the pair's
    distance satisfies ``d ≥ min_j (fd[i][j] + band · |rem_f − rem_g(j)|)``
    with ``rem_f``/``rem_g(j) = cols − 1 − j`` the node counts *beyond* the
    prefixes: restrict an optimal mapping to the row's prefix forest (the
    restriction is a valid forest mapping whose cost appears in ``d``) and
    charge the at least ``|rem_f − rem_g|`` unmatched remaining nodes at the
    per-operation cost floor ``band``.  When the minimum reaches the cutoff,
    ``d ≥ cutoff`` is proven and :class:`CutoffExceeded` carries it out;
    when ``d < cutoff`` the minimum — a lower bound on ``d`` — is below the
    cutoff too, so the check can never fire on a sub-cutoff pair and those
    results stay bit-identical to the unbounded kernels.

    ``lo``/``hi`` restrict the scan to a banded row's computed window (plus
    the always-exact column 0); any sub-cutoff witness cell necessarily
    lies in the band, so scanning only it keeps the test sound.  Banded
    callers pass ``exact_values=False``: their in-band values at or above
    the cutoff may be *inflated*, so the fire decision stays sound (the
    witness of any sub-cutoff pair is bit-exact) but the row minimum is not
    a certified lower bound — the cutoff itself is reported instead.
    ``slack`` (non-unit cost models) shrinks the tested bound so float
    round-off in the DP's accumulated sums can never make the check fire on
    a pair whose *float* distance is below the cutoff — see
    :data:`CUTOFF_SLACK`.
    """
    if hi is None:
        hi = cols - 1
    # O(1) probe before the O(cols) scan: the diagonal cell (equal remaining
    # sizes, zero band term) upper-bounds the row minimum, so a sub-cutoff
    # probe proves the scan cannot fire.  On similar pairs — the ones that
    # never abort — this keeps the per-row overhead at a single comparison.
    diag = cols - 1 - rem_f
    if lo <= diag <= hi and row[diag] < cutoff:
        return
    best = float("inf")
    if lo > 0:
        best = row[0] + band * abs(rem_f - (cols - 1))
    for j in range(lo, hi + 1):
        t = row[j] + band * abs(rem_f - (cols - 1 - j))
        if t < best:
            best = t
    if slack:
        best *= 1.0 - slack
    if best >= cutoff:
        raise CutoffExceeded(best if exact_values else cutoff)


class TEDAlgorithm:
    """Base class for tree edit distance algorithms.

    Subclasses set :attr:`name` and implement :meth:`compute`.
    """

    #: Human-readable algorithm identifier (e.g. ``"RTED"`` or ``"Zhang-L"``).
    name: str = "abstract"

    def compute(
        self,
        tree_f: Tree,
        tree_g: Tree,
        cost_model: Optional[CostModel] = None,
        cutoff: Optional[float] = None,
    ) -> TEDResult:
        """Compute the tree edit distance between ``tree_f`` and ``tree_g``.

        With ``cutoff=τ`` the computation is *bounded*: the exact
        :class:`TEDResult` is returned when ``distance < τ`` (bit-identical
        to the unbounded computation), and a :class:`BoundedResult` sentinel
        proving ``distance ≥ τ`` otherwise — possibly without ever finishing
        the distance computation.  See ``DESIGN.md``, *Bounded verification*.
        """
        raise NotImplementedError

    def distance(
        self, tree_f: Tree, tree_g: Tree, cost_model: Optional[CostModel] = None
    ) -> float:
        """Convenience wrapper returning only the distance value."""
        return self.compute(tree_f, tree_g, cost_model=cost_model).distance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def resolve_cost_model(cost_model: Optional[CostModel]) -> CostModel:
    """Return ``cost_model`` or the shared unit cost model when ``None``."""
    return cost_model if cost_model is not None else UNIT_COST


class Stopwatch:
    """Tiny helper measuring wall-clock durations of labelled phases."""

    def __init__(self) -> None:
        self._start: float = 0.0

    def start(self) -> None:
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._start
