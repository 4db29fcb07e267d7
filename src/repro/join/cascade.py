"""The ordered filter cascade of the batch similarity join.

Every stage consumes the per-tree artifacts of a :class:`~repro.join.corpus.
TreeCorpus` and decides one of three things for a candidate pair:

* ``PRUNE``   — a *lower bound* already reaches the threshold, the pair can
  never match;
* ``ACCEPT``  — an *upper bound* is already below the threshold, the pair
  matches without running exact TED;
* ``CONTINUE`` — undecided, hand the pair to the next stage (ultimately the
  exact ``spf``-engine verifier).

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
from typing import Dict, List, Optional, Sequence

from ..bounds.string_edit import levenshtein
from ..bounds.upper_bound import top_down_upper_bound
from ..costs import CostModel
from .corpus import TreeCorpus, TreeProfile

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
    caller can report the certified distance without recomputing the bound.
    Only meaningful immediately after :func:`run_cascade` returns
    :data:`ACCEPT` (the cascade runs pairs serially in one process).
    """


class FilterStage:
    """A single stage of the filter cascade.

    Subclasses set :attr:`name` (the key under which
    :class:`JoinStats.stage_pruned` reports the stage) and implement
    :meth:`apply` returning :data:`PRUNE`, :data:`ACCEPT` or
    :data:`CONTINUE`.
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


class SizeFilter(FilterStage):
    """Prune on the size-difference lower bound ``| |F| − |G| |`` (O(1))."""

    name = "size"
    requires_ops_threshold = True

    def apply(self, a: TreeProfile, b: TreeProfile, ctx: CascadeContext) -> str:
        if abs(a.size - b.size) >= ctx.ops_threshold:
            return PRUNE
        return CONTINUE


def _multiset_intersection(histogram_a, histogram_b) -> int:
    """Size of the multiset intersection of two ``Counter``-like mappings."""
    if len(histogram_a) > len(histogram_b):
        histogram_a, histogram_b = histogram_b, histogram_a
    intersection = 0
    for key, count in histogram_a.items():
        other = histogram_b.get(key, 0)
        if other:
            intersection += count if count < other else other
    return intersection


class LabelFilter(FilterStage):
    """Prune on the label-multiset lower bound (O(alphabet))."""

    name = "label"
    requires_ops_threshold = True

    def apply(self, a: TreeProfile, b: TreeProfile, ctx: CascadeContext) -> str:
        intersection = _multiset_intersection(a.label_histogram, b.label_histogram)
        if max(a.size, b.size) - intersection >= ctx.ops_threshold:
            return PRUNE
        return CONTINUE


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


class BinaryBranchFilter(FilterStage):
    """Prune on the binary-branch lower bound ``BBD / 5`` (O(n))."""

    name = "binary-branch"
    requires_ops_threshold = True

    def apply(self, a: TreeProfile, b: TreeProfile, ctx: CascadeContext) -> str:
        intersection = _multiset_intersection(a.branch_profile, b.branch_profile)
        distance = a.size + b.size - 2 * intersection
        if distance / 5.0 >= ctx.ops_threshold:
            return PRUNE
        return CONTINUE


class PQGramFilter(FilterStage):
    """**Approximate** pruning on the normalized pq-gram distance.

    pq-grams do *not* lower-bound the tree edit distance (a single edit at a
    high-fanout node changes unboundedly many grams), so this stage may drop
    true matches.  It is therefore not part of :data:`DEFAULT_CASCADE`; add
    it explicitly — or via ``approximate=True`` on the batch join — for
    approximate joins where recall may be traded for speed.
    """

    name = "pq-gram"

    def __init__(self, corpus_a: TreeCorpus, corpus_b: Optional[TreeCorpus], cutoff: float) -> None:
        self.corpus_a = corpus_a
        self.corpus_b = corpus_b if corpus_b is not None else corpus_a
        self.cutoff = cutoff

    def apply(self, a: TreeProfile, b: TreeProfile, ctx: CascadeContext) -> str:
        profile_a = self.corpus_a.pq_profile(a.index)
        profile_b = self.corpus_b.pq_profile(b.index)
        intersection = sum((profile_a & profile_b).values())
        total = sum(profile_a.values()) + sum(profile_b.values())
        if total == 0:
            return CONTINUE
        if 1.0 - 2.0 * intersection / total >= self.cutoff:
            return PRUNE
        return CONTINUE


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
    are verified per pair in Python (see :class:`~repro.join.pipeline.
    PairFilters`).
    """
    return [
        SizeFilter(),
        LabelFilter(),
        TraversalStringFilter(),
        BinaryBranchFilter(),
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
    def pairs_pruned(self) -> int:
        """Pairs eliminated by any lower-bound mechanism (index or stages)."""
        return self.index_pruned + sum(self.stage_pruned.values())

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


def run_cascade(
    stages: Sequence[FilterStage],
    a: TreeProfile,
    b: TreeProfile,
    ctx: CascadeContext,
    stats: JoinStats,
) -> str:
    """Run a pair through the stages, recording prunes/accepts in ``stats``."""
    skip_lower_bounds = ctx.ops_threshold == float("inf")
    for stage in stages:
        if skip_lower_bounds and stage.requires_ops_threshold:
            continue
        decision = stage.apply(a, b, ctx)
        if decision == PRUNE:
            stats.stage_pruned[stage.name] = stats.stage_pruned.get(stage.name, 0) + 1
            return PRUNE
        if decision == ACCEPT:
            stats.accepted_early += 1
            return ACCEPT
    return CONTINUE
