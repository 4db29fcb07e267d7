"""The ordered filter cascade of the batch similarity join.

Every stage consumes the per-tree artifacts of a :class:`~repro.join.corpus.
TreeCorpus` and decides one of three things for a candidate pair:

* ``PRUNE``   — a *lower bound* already reaches the threshold, the pair can
  never match;
* ``ACCEPT``  — an *upper bound* is already below the threshold, the pair
  matches without running exact TED;
* ``CONTINUE`` — undecided, hand the pair to the next stage (ultimately the
  exact verifier).

Stages come in two kinds.  The linear lower bounds — :class:`SizeFilter`,
:class:`LabelFilter`, :class:`BinaryBranchFilter` — are :class:`ArrayStage`
s: they decide a whole block of pairs at once over the corpus's flat filter
arrays (:mod:`repro.join.pairs`).  Every other stage (``traversal-string``,
``upper-bound`` and any a caller passes in) implements
:meth:`FilterStage.apply` and runs pair by pair, only on the pairs that
reach it.  :meth:`PairFilters.run` is the one driver: it takes candidate
pairs in blocks of :data:`PAIR_BLOCK`, checks the deadline between blocks,
runs the stages in order, and counts each prune against the first stage
that prunes the pair.

Cost-model soundness rule
-------------------------
The lower bounds in :mod:`repro.bounds` count edit *operations* (they are
unit-cost bounds).  Under a cost model whose cheapest operation costs
``c = cost_model.min_operation_cost()`` the sound comparison is

    ``c · ops_bound ≥ τ  ⇒  prune``

equivalently ``ops_bound ≥ τ / c``.  The cascade therefore works in
*operation-count space*: :func:`operations_threshold` converts ``τ`` once,
and models that cannot prove a positive per-operation minimum (``None`` or
``0``) disable every lower-bound stage — pruning with an unscaled unit bound
under e.g. ``WeightedCostModel(0.5, 0.5, 0.5)`` would drop true matches.
Upper-bound stages are exempt from the rule: they evaluate explicit edit
mappings under the *actual* cost model and are valid for any model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bounds.string_edit import levenshtein
from ..bounds.upper_bound import top_down_upper_bound
from ..costs import CostModel
from ..runtime import active_deadline
from .corpus import TreeCorpus, TreeProfile
from .pairs import CandidatePairs, PairBlock, PairSides, filter_array_pair

#: Candidate pairs per block of :meth:`PairFilters.run`; the deadline is
#: checked before each block.
PAIR_BLOCK = 4096

#: Stage decisions.
CONTINUE = "continue"
PRUNE = "prune"
ACCEPT = "accept"


def operations_threshold(threshold: float, cost_model: CostModel) -> float:
    """Convert a distance threshold into operation-count space.

    Returns ``threshold / min_operation_cost`` — the largest number of edit
    operations a matching pair could need — or ``inf`` when the model cannot
    prove a positive per-operation minimum (which soundly disables every
    operation-count lower-bound filter).
    """
    scale = cost_model.min_operation_cost()
    if scale is None or scale <= 0:
        return float("inf")
    return threshold / scale


@dataclass
class CascadeContext:
    """Pair-independent state shared by every stage invocation."""

    threshold: float
    ops_threshold: float
    cost_model: CostModel

    accept_value: Optional[float] = None
    """Distance certified by the accepting stage for the *current* pair.

    Written by accept stages right before returning :data:`ACCEPT` so the
    driver can report the certified distance without recomputing the bound.
    Only meaningful immediately after such an ``apply`` call (per-pair
    stages run serially in one process).
    """


class FilterStage:
    """A single stage of the filter cascade.

    Subclasses set :attr:`name` (the key under which
    :class:`JoinStats.stage_pruned` reports the stage) and implement either
    :meth:`apply`, deciding one pair from its two :class:`TreeProfile` s and
    returning :data:`PRUNE`, :data:`ACCEPT` or :data:`CONTINUE`, or — as an
    :class:`ArrayStage` — :meth:`ArrayStage.prune` over a block of pairs.
    A pair reaches a stage only if every earlier stage let it through.
    """

    name: str = "abstract"

    #: ``True`` for operation-count lower-bound stages, which are skipped
    #: entirely when the cost model admits no sound scaling
    #: (``ctx.ops_threshold == inf``) — they could never prune, only burn time.
    requires_ops_threshold: bool = False

    #: ``True`` for stages that may return :data:`ACCEPT`; the batch join
    #: strips these when ``early_accept=False`` so every match is verified
    #: exactly.
    is_accept_stage: bool = False

    #: ``True`` for stages doing O(n·m) pure-Python work per pair.  They pay
    #: off only in front of a per-pair Python verifier: the planner drops
    #: them for pairs the small-pair program verifies, which settles such a
    #: pair exactly in less time than the stage itself takes.
    quadratic: bool = False

    def apply(self, a: TreeProfile, b: TreeProfile, ctx: CascadeContext) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class ArrayStage(FilterStage):
    """An operation-count lower-bound stage decided for a block of pairs.

    :meth:`prune` returns a boolean mask over a
    :class:`~repro.join.pairs.PairBlock`: ``True`` where the bound reaches
    ``ctx.ops_threshold``.  Array stages never accept.
    """

    requires_ops_threshold = True

    def prune(self, block: PairBlock, ctx: CascadeContext) -> np.ndarray:
        raise NotImplementedError


class SizeFilter(ArrayStage):
    """Prune on the size-difference lower bound ``| |F| − |G| |``."""

    name = "size"

    def prune(self, block: PairBlock, ctx: CascadeContext) -> np.ndarray:
        size_a, size_b = block.sizes()
        return np.abs(size_a - size_b) >= ctx.ops_threshold


class LabelFilter(ArrayStage):
    """Prune on the label-multiset lower bound ``max(|F|, |G|) − |L(F) ∩ L(G)|``."""

    name = "label"

    def prune(self, block: PairBlock, ctx: CascadeContext) -> np.ndarray:
        size_a, size_b = block.sizes()
        return np.maximum(size_a, size_b) - block.label_intersection() >= ctx.ops_threshold


class TraversalStringFilter(FilterStage):
    """Prune on the traversal-string (Levenshtein) lower bound (O(n·m))."""

    name = "traversal-string"
    requires_ops_threshold = True
    quadratic = True

    def apply(self, a: TreeProfile, b: TreeProfile, ctx: CascadeContext) -> str:
        if levenshtein(a.preorder_labels, b.preorder_labels) >= ctx.ops_threshold:
            return PRUNE
        if levenshtein(a.postorder_labels, b.postorder_labels) >= ctx.ops_threshold:
            return PRUNE
        return CONTINUE


class BinaryBranchFilter(ArrayStage):
    """Prune on the binary-branch lower bound ``BBD / 5``, with
    ``BBD = |F| + |G| − 2·|B(F) ∩ B(G)|`` over the branch multisets."""

    name = "binary-branch"

    def prune(self, block: PairBlock, ctx: CascadeContext) -> np.ndarray:
        size_a, size_b = block.sizes()
        distance = size_a + size_b - 2 * block.branch_intersection()
        return distance / 5.0 >= ctx.ops_threshold


class UpperBoundAccept(FilterStage):
    """Accept pairs whose constrained (top-down) upper bound beats τ.

    The bound is the cost of an explicit edit mapping under the *actual* cost
    model, so an accepted pair is a true match for any model; the reported
    distance is that upper bound (≤ τ but possibly above the exact TED).
    Accepting here is what lets many matched pairs skip exact TED entirely.
    """

    name = "upper-bound"
    is_accept_stage = True
    quadratic = True

    def apply(self, a: TreeProfile, b: TreeProfile, ctx: CascadeContext) -> str:
        upper = top_down_upper_bound(a.tree, b.tree, ctx.cost_model)
        if upper < ctx.threshold:
            ctx.accept_value = upper
            return ACCEPT
        return CONTINUE


def default_cascade() -> List[FilterStage]:
    """The default (sound) stage order: cheapest bounds first, accept last.

    Plans built by :class:`~repro.join.pipeline.Planner` run the
    :attr:`~FilterStage.quadratic` stages of this list only for pairs that
    are verified per pair in Python (see :class:`PairFilters`).
    """
    return [
        SizeFilter(),
        LabelFilter(),
        BinaryBranchFilter(),
        TraversalStringFilter(),
        UpperBoundAccept(),
    ]


@dataclass
class JoinStats:
    """Streaming per-stage measurements of a batch join.

    Updated in place while the join runs (and surfaced through the
    ``progress`` callback of the batch API after every verified chunk), so a
    long-running join can be monitored live.
    """

    pairs_total: int = 0
    candidate_pairs: int = 0
    index_pruned: int = 0
    stage_pruned: Dict[str, int] = field(default_factory=dict)
    accepted_early: int = 0
    exact_computed: int = 0
    exact_matched: int = 0
    aborted_early: int = 0
    """Verifier runs the τ-bounded kernels cut short (``d ≥ τ`` proven
    before the exact distance was finished); a subset of the non-matching
    ``exact_computed`` pairs."""

    verify_workers: int = 1
    """The worker count the verification stage *actually* used: 1 whenever
    the survivor set fit a single chunk (``batch_distances`` runs small
    batches serially regardless of ``workers`` — pool startup would cost
    more than the work), otherwise ``min(workers, number of chunks)``."""

    retried_chunks: int = 0
    """Verification chunks the supervisor re-submitted after a failed
    attempt (worker crash, hang teardown, or in-chunk error)."""

    failed_workers: int = 0
    """Worker-pool failure events the supervisor recovered from during
    verification (crashed pools, hang teardowns, failed pool creation)."""

    degraded_to: Optional[str] = None
    """The deepest degradation-ladder rung verification needed
    (``"local-pack"`` → ``"no-kernel"`` → ``"serial"``), or ``None`` when the
    first rung sufficed.  Results are bit-identical at every rung."""

    poisoned_pairs: int = 0
    """Survivor pairs skipped because they failed on every ladder rung,
    including the per-pair serial re-run (zero outside fault injection or a
    genuinely broken pair)."""

    matches: int = 0
    total_subproblems: int = 0
    profile_time: float = 0.0
    candidate_time: float = 0.0
    cascade_time: float = 0.0
    verify_time: float = 0.0
    total_time: float = 0.0

    @property
    def filter_rate(self) -> float:
        """Fraction of all pairs that never reached the exact verifier."""
        if self.pairs_total == 0:
            return 0.0
        return 1.0 - self.exact_computed / self.pairs_total

    @property
    def candidate_hit_rate(self) -> float:
        """Fraction of index-generated candidates that ended up matching."""
        if self.candidate_pairs == 0:
            return 0.0
        return self.matches / self.candidate_pairs

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-serializable) for benchmarks and the CLI."""
        return {
            "pairs_total": self.pairs_total,
            "candidate_pairs": self.candidate_pairs,
            "index_pruned": self.index_pruned,
            "stage_pruned": dict(self.stage_pruned),
            "accepted_early": self.accepted_early,
            "exact_computed": self.exact_computed,
            "exact_matched": self.exact_matched,
            "aborted_early": self.aborted_early,
            "verify_workers": self.verify_workers,
            "retried_chunks": self.retried_chunks,
            "failed_workers": self.failed_workers,
            "degraded_to": self.degraded_to,
            "poisoned_pairs": self.poisoned_pairs,
            "matches": self.matches,
            "total_subproblems": self.total_subproblems,
            "filter_rate": self.filter_rate,
            "candidate_hit_rate": self.candidate_hit_rate,
            "profile_time": self.profile_time,
            "candidate_time": self.candidate_time,
            "cascade_time": self.cascade_time,
            "verify_time": self.verify_time,
            "total_time": self.total_time,
        }


class PairFilters:
    """A plan's filter stages and the driver that runs pairs through them.

    ``stages`` is the full list, run for pairs verified per pair in Python.
    ``small_pair(i, j)``, when given, maps index arrays to a mask of the
    pairs the refiner verifies with the small-pair program instead; those
    skip the :attr:`FilterStage.quadratic` stages, since the program
    settles such a pair exactly in less time than one of those stages
    takes.  The choice never changes a match set — every stage is sound —
    only which pairs are decided by a bound and which exactly.
    """

    def __init__(
        self,
        stages: Sequence[FilterStage],
        small_pair: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    ) -> None:
        self.stages = list(stages)
        self.small_pair = small_pair

    def __bool__(self) -> bool:
        return bool(self.stages)

    def runs_quadratic(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Mask of the pairs ``(i[p], j[p])`` that run the quadratic stages."""
        if self.small_pair is None:
            return np.ones(len(i), dtype=bool)
        return ~self.small_pair(i, j)

    def run(
        self,
        pairs: CandidatePairs,
        corpus_a: TreeCorpus,
        corpus_b: Optional[TreeCorpus],
        ctx: CascadeContext,
        stats: JoinStats,
    ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int, float]]]:
        """Run ``pairs`` through the stages: ``(survivors, accepted)``.

        ``pairs`` index ``corpus_a`` (side a) and ``corpus_b`` (side b;
        ``None`` for pairs within ``corpus_a``).  Survivors keep the
        candidate order; ``accepted`` holds ``(i, j, distance)`` for pairs
        an accept stage certified, in candidate order.  Prunes and accepts
        are counted in ``stats``.  Lower-bound stages are skipped entirely
        when ``ctx.ops_threshold`` is infinite.  The ambient deadline is
        checked before every block, and ticked per pair inside per-pair
        stages.
        """
        skip_lower_bounds = ctx.ops_threshold == float("inf")
        stages = [
            s for s in self.stages if not (skip_lower_bounds and s.requires_ops_threshold)
        ]
        if not stages:
            return list(pairs), []
        sides = None
        if any(isinstance(stage, ArrayStage) for stage in stages):
            sides = PairSides(*filter_array_pair(corpus_a, corpus_b))
        profile_a = corpus_a.profile
        profile_b = (corpus_b if corpus_b is not None else corpus_a).profile
        dl = active_deadline()
        survivors: List[Tuple[int, int]] = []
        accepted: List[Tuple[int, int, float]] = []
        for i, j, shared in pairs.blocks(PAIR_BLOCK):
            if dl is not None:
                dl.check()
            block = PairBlock(sides, i, j, shared)
            alive = np.ones(len(i), dtype=bool)
            quadratic = None
            accepted_here: List[Tuple[int, int, int, float]] = []
            for stage in stages:
                runs = alive
                if stage.quadratic:
                    if quadratic is None:
                        quadratic = self.runs_quadratic(i, j)
                    runs = alive & quadratic
                idx = np.flatnonzero(runs)
                if not len(idx):
                    continue
                if isinstance(stage, ArrayStage):
                    part = block if len(idx) == len(i) else block.take(idx)
                    gone = idx[stage.prune(part, ctx)]
                    pruned = len(gone)
                else:
                    gone, pruned = [], 0
                    for p, a, b in zip(idx.tolist(), i[idx].tolist(), j[idx].tolist()):
                        if dl is not None:
                            dl.tick()
                        decision = stage.apply(profile_a(a), profile_b(b), ctx)
                        if decision == PRUNE:
                            pruned += 1
                            gone.append(p)
                        elif decision == ACCEPT:
                            # The accepting stage certified a mapping below τ
                            # and left its cost in ctx.accept_value.
                            stats.accepted_early += 1
                            accepted_here.append((p, a, b, ctx.accept_value))
                            gone.append(p)
                if pruned:
                    stats.stage_pruned[stage.name] = (
                        stats.stage_pruned.get(stage.name, 0) + pruned
                    )
                alive[gone] = False
            accepted_here.sort()
            accepted.extend((a, b, value) for _, a, b, value in accepted_here)
            keep = np.flatnonzero(alive)
            survivors.extend(zip(i[keep].tolist(), j[keep].tolist()))
        return survivors, accepted
