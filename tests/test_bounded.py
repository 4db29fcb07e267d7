"""Tests for τ-bounded (cutoff-aware) exact verification.

Covers the bounded-computation contract end to end:

* the cutoff property suite — ≥200 random pairs across shape families ×
  {unit, fractional, string-rename} cost models × {workspace on/off,
  serial/multiprocessing}: sub-cutoff results are bit-identical to the
  unbounded kernels, at-or-above-cutoff results are sentinels whose proving
  bound never exceeds the true distance, and joins are identical with and
  without bounded verification;
* τ == TED boundary regressions for every cascade stage and the verifier
  (the ``TED < τ`` contract), under unit and fractional cost models;
* the bounded surfaces: ``api.compute`` / ``api.tree_edit_distance`` /
  ``batch_distances(cutoff=)`` / ``JoinStats.aborted_early`` / the CLI.
"""

import math
import random

import pytest

from repro import BoundedResult, compare_algorithms, compute, tree_edit_distance
from repro.algorithms import (
    GTED,
    RTED,
    LeftFStrategy,
    RightGStrategy,
    TedWorkspace,
    make_algorithm,
)
from repro.algorithms.base import CutoffExceeded, cutoff_band, cutoff_precheck
from repro.cli import main as cli_main
from repro.costs import (
    StringRenameCostModel,
    UnitCostModel,
    WeightedCostModel,
)
from repro.datasets import clustered_corpus, make_shape, random_tree
from repro.io import parse_bracket
from repro.join import BinaryBranchFilter, batch_distances, batch_self_join, default_cascade

EXACT = make_algorithm("zhang-l")

#: Dyadic fractional model: every cost is an exact float and sums commute
#: bit-exactly, so boundary tests at ``TED == τ`` are deterministic.
FRACTIONAL = WeightedCostModel(0.5, 0.5, 0.5)


def shape_family_pairs(count, seed=20110713):
    """Deterministic tree pairs spanning the shape families (≥ ``count``)."""
    generator = random.Random(seed)
    shapes = ["left-branch", "right-branch", "full-binary", "zigzag", "mixed"]
    pairs = []
    while len(pairs) < count:
        kind = generator.randrange(3)
        if kind == 0:
            f = random_tree(generator.randint(1, 24), rng=generator)
            g = random_tree(generator.randint(1, 24), rng=generator)
        elif kind == 1:
            f = make_shape(generator.choice(shapes), generator.randint(3, 24))
            g = make_shape(generator.choice(shapes), generator.randint(3, 24))
        else:
            base = random_tree(generator.randint(4, 24), rng=generator)
            f = base
            g = random_tree(base.n, rng=generator)
        pairs.append((f, g))
    return pairs


class TestCutoffContract:
    """compute(cutoff=τ): exact below τ, a sound sentinel otherwise."""

    @pytest.mark.parametrize("name", ["rted", "zhang-l", "zhang-r", "klein-h", "demaine-h"])
    def test_exact_below_and_bounded_at_or_above(self, name):
        algo = make_algorithm(name)
        # str hashes are salted per process; derive a stable per-name seed.
        seed = sum(ord(ch) for ch in name)
        for f, g in shape_family_pairs(12, seed=seed):
            exact = algo.compute(f, g).distance
            for cutoff in (exact * 0.5 + 0.25, exact, exact + 0.5, exact * 2 + 1.0):
                result = algo.compute(f, g, cutoff=cutoff)
                if exact < cutoff:
                    assert not result.bounded
                    assert result.distance == exact  # bit-identical
                else:
                    assert result.bounded
                    assert cutoff <= result.lower_bound <= exact

    def test_bounded_result_has_no_distance_attribute(self):
        result = compute("{a}", "{b{c}{d}{e}}", cutoff=1.0)
        assert isinstance(result, BoundedResult)
        assert not hasattr(result, "distance")
        assert result.lower_bound >= result.cutoff

    def test_precheck_skips_computation_entirely(self):
        f = parse_bracket("{a}")
        g = parse_bracket("{a" + "{b}" * 9 + "}")
        result = RTED().compute(f, g, cutoff=2.0)
        assert result.bounded and result.aborted
        assert result.subproblems == 0
        assert result.lower_bound == 9.0

    def test_non_positive_cutoff_is_always_bounded(self):
        tree = parse_bracket("{a{b}}")
        result = compute(tree, tree, cutoff=0.0)
        assert result.bounded and result.lower_bound >= 0.0
        assert tree_edit_distance(tree, tree, cutoff=0.0) == math.inf

    def test_tree_edit_distance_returns_inf_when_bounded(self):
        assert tree_edit_distance("{a{b}{c}}", "{a{b}{c}}", cutoff=5.0) == 0.0
        assert tree_edit_distance("{a{b}{c}}", "{x{y{z}}}", cutoff=1.0) == math.inf

    def test_no_positive_floor_disables_aborts_but_keeps_final_check(self):
        model = StringRenameCostModel()
        assert cutoff_band(model) is None
        f = random_tree(12, rng=5)
        g = random_tree(12, rng=6)
        exact = EXACT.compute(f, g, cost_model=model).distance
        bounded = EXACT.compute(f, g, cost_model=model, cutoff=exact)
        assert bounded.bounded and not bounded.aborted
        assert bounded.lower_bound == exact
        ok = EXACT.compute(f, g, cost_model=model, cutoff=exact + 0.5)
        assert not ok.bounded and ok.distance == exact

    def test_recursive_engine_applies_final_check(self):
        f = random_tree(10, rng=1)
        g = random_tree(10, rng=2)
        spf = make_algorithm("rted").compute(f, g)
        recursive = make_algorithm("rted", engine="recursive").compute(
            f, g, cutoff=spf.distance
        )
        assert recursive.bounded and not recursive.aborted
        assert recursive.lower_bound == spf.distance

    def test_gted_right_g_strategy_bounded(self):
        # A G-side decomposition exercises the swapped kernel orientation.
        algo = GTED(RightGStrategy())
        f = random_tree(14, rng=8)
        g = random_tree(14, rng=9)
        exact = algo.compute(f, g).distance
        assert algo.compute(f, g, cutoff=exact + 1.0).distance == exact
        bounded = algo.compute(f, g, cutoff=exact)
        assert bounded.bounded and bounded.lower_bound <= exact

    def test_scalar_and_vector_kernels_agree_on_abort(self, monkeypatch):
        # Force the scalar fallback by raising the vectorization threshold,
        # then compare against the default (vectorized) kernels.
        from repro.algorithms import spf_numpy

        algo = GTED(LeftFStrategy())
        f = random_tree(40, rng=11)
        g = random_tree(40, rng=12)
        exact = algo.compute(f, g).distance
        for cutoff in (exact / 2, exact, exact + 1.0):
            vector = algo.compute(f, g, cutoff=cutoff)
            monkeypatch.setattr(spf_numpy, "MIN_VECTOR_COLS", 10_000)
            scalar = algo.compute(f, g, cutoff=cutoff)
            monkeypatch.undo()
            assert vector.bounded == scalar.bounded
            if not vector.bounded:
                assert vector.distance == scalar.distance == exact

    def test_non_dyadic_costs_respect_float_accumulation(self):
        # Regression: with all-0.1 costs, ten float additions give
        # 0.9999999999999999 while the bound machinery's single multiply
        # gives 0.1 * 10 == 1.0 — without the round-off slack
        # (base.CUTOFF_SLACK) a cutoff of 1.0 mis-classified this pair as
        # bounded even though its (float) distance is below the cutoff.
        model = WeightedCostModel(0.1, 0.1, 0.1)
        f = parse_bracket("{a" * 11 + "}" * 11)
        g = parse_bracket("{a}")
        for name in ("rted", "zhang-l", "zhang-r", "klein-h", "simple"):
            algo = make_algorithm(name)
            exact = algo.compute(f, g, cost_model=model).distance
            assert exact < 1.0  # the float-accumulated sum rounds below 1.0
            result = algo.compute(f, g, cost_model=model, cutoff=1.0)
            assert not result.bounded
            assert result.distance == exact

    def test_non_dyadic_fuzz_bounded_matches_unbounded(self):
        model = WeightedCostModel(0.1, 0.3, 0.7)
        for f, g in shape_family_pairs(30, seed=4242):
            exact = EXACT.compute(f, g, cost_model=model).distance
            for cutoff in (exact * 0.5 + 0.05, exact, exact + 0.1, exact * 3 + 1.0, 1e308):
                if cutoff <= 0:
                    continue
                result = EXACT.compute(f, g, cost_model=model, cutoff=cutoff)
                if exact < cutoff:
                    assert not result.bounded and result.distance == exact
                else:
                    assert result.bounded
                    assert cutoff <= result.lower_bound <= max(exact, cutoff)

    def test_banded_zhang_shasha_matches_unbounded_below_cutoff(self):
        # Bounded contexts band every scalar keyroot region to
        # |i − j| ≤ band_w: exact below the cutoff, never more cells than
        # the unbounded run, and the cutoff as the bound at or above it.
        pruned = 0
        for name in ("zhang-l", "zhang-r"):
            algo = make_algorithm(name)
            for f, g in shape_family_pairs(20, seed=99):
                for model in (UnitCostModel(), FRACTIONAL):
                    exact = algo.compute(f, g, cost_model=model)
                    below = algo.compute(
                        f, g, cost_model=model, cutoff=exact.distance + 1.0
                    )
                    assert not below.bounded
                    assert below.distance == exact.distance
                    assert below.subproblems <= exact.subproblems
                    pruned += below.subproblems < exact.subproblems
                    cutoff = max(exact.distance, 0.5)
                    at = algo.compute(f, g, cost_model=model, cutoff=cutoff)
                    assert at.bounded == (exact.distance >= cutoff)
                    if at.bounded:
                        assert at.lower_bound == cutoff
        assert pruned > 0

    def test_aborted_run_counts_its_completed_regions(self, monkeypatch):
        # An abort in the goal pair's final region must not drop the cells
        # of the keyroot regions the same single-path call completed.
        from repro.algorithms import spf, spf_numpy

        completed = []

        def recording(kernel):
            def region(*args, **kwargs):
                cells = kernel(*args, **kwargs)
                completed.append(cells)
                return cells
            return region

        monkeypatch.setattr(spf, "_region_py", recording(spf._region_py))
        monkeypatch.setattr(spf_numpy, "_region", recording(spf_numpy._region))
        f, g = random_tree(128, rng=1), random_tree(128, rng=2)
        result = EXACT.compute(f, g, cutoff=8.0)
        assert result.bounded and result.lower_bound == 8.0
        assert result.subproblems == sum(completed) == 42_568
        monkeypatch.undo()
        assert result.subproblems < EXACT.compute(f, g).subproblems


class TestCutoffPropertySuite:
    """≥200 pairs × cost models × workspace/serial-mp: the acceptance suite."""

    PAIRS = shape_family_pairs(200)
    MODELS = [
        ("unit", None),
        ("fractional", FRACTIONAL),
        ("string-rename", StringRenameCostModel()),
    ]

    @pytest.mark.parametrize("model_name,model", MODELS, ids=[m[0] for m in MODELS])
    @pytest.mark.parametrize("fresh", [False, True], ids=["workspace", "fresh"])
    def test_bounded_batch_matches_unbounded(self, model_name, model, fresh):
        # A registry name runs amortized; a pre-built instance runs with
        # fresh per-pair contexts.
        algorithm = make_algorithm("zhang-l") if fresh else "zhang-l"
        trees = []
        pairs = []
        for f, g in self.PAIRS:
            pairs.append((len(trees), len(trees) + 1))
            trees.extend([f, g])
        unbounded = batch_distances(
            trees, None, pairs, algorithm=algorithm, cost_model=model,
        )
        cutoff = 4.0
        bounded = batch_distances(
            trees, None, pairs, algorithm=algorithm, cost_model=model, cutoff=cutoff,
        )
        assert len(bounded) == len(unbounded) == len(pairs)
        for (i, j, exact, _), (bi, bj, value, _, aborted) in zip(unbounded, bounded):
            assert (i, j) == (bi, bj)
            if exact < cutoff:
                # Exact below the cutoff, bit-identical to the unbounded run.
                assert value == exact and not aborted
            else:
                # A sound proving bound: τ ≤ bound ≤ true distance.
                assert cutoff <= value <= exact

    def test_multiprocessing_matches_serial(self):
        trees = []
        pairs = []
        for f, g in self.PAIRS[:60]:
            pairs.append((len(trees), len(trees) + 1))
            trees.extend([f, g])
        serial = batch_distances(
            trees, None, pairs, algorithm="zhang-l", cutoff=3.0
        )
        fanned = batch_distances(
            trees, None, pairs, algorithm="zhang-l", cutoff=3.0,
            workers=2, chunk_size=7,
        )
        assert sorted(serial) == sorted(fanned)

    @pytest.mark.parametrize("model_name,model", MODELS, ids=[m[0] for m in MODELS])
    def test_join_matches_unbounded_distances(self, model_name, model):
        # The join verifies with cutoff=τ; its matches must be exactly the
        # pairs an unbounded all-pairs batch finds below τ, same distances.
        trees = clustered_corpus(
            num_clusters=6, cluster_size=6, tree_size=12, num_edits=4, rng=31
        )
        pairs = [(i, j) for i in range(len(trees)) for j in range(i + 1, len(trees))]
        exact = batch_distances(trees, None, pairs, algorithm="rted", cost_model=model)
        for threshold in (2.0, 3.5):
            bounded = batch_self_join(
                trees, threshold, cost_model=model, early_accept=False,
            )
            assert bounded.matches == sorted(
                (i, j, d) for i, j, d, _ in exact if d < threshold
            )
            assert bounded.stats.aborted_early <= (
                bounded.stats.exact_computed - bounded.stats.exact_matched
            )


class TestThresholdBoundary:
    """Pairs sitting exactly at TED == τ must never match (``TED < τ``)."""

    CASES = [
        # (cost model, τ multiplier per operation)
        (None, 1.0),
        (FRACTIONAL, 0.5),
    ]

    @pytest.mark.parametrize("model,unit", CASES, ids=["unit", "fractional"])
    def test_verifier_boundary(self, model, unit):
        # d(f, g) == 2 operations exactly; τ == d must not match.
        f = parse_bracket("{a{b}{c}}")
        g = parse_bracket("{a{b}{x}{y}}")
        assert EXACT.distance(f, g, cost_model=model) == 2 * unit
        at = batch_self_join([f, g], 2 * unit, cost_model=model, use_cascade=False)
        assert at.match_set == set()
        above = batch_self_join(
            [f, g], 2 * unit + unit / 2, cost_model=model, use_cascade=False
        )
        assert above.match_set == {(0, 1)}
        # The unbounded oracle sees the same boundary.
        ((_, _, exact, _),) = batch_distances([f, g], None, [(0, 1)], cost_model=model)
        assert exact == 2 * unit

    @pytest.mark.parametrize("model,unit", CASES, ids=["unit", "fractional"])
    def test_size_stage_boundary(self, model, unit):
        # Size difference == τ in operation space: the stage must prune, and
        # pruning is correct because d ≥ τ excludes a strict-< match.
        f = parse_bracket("{a}")
        g = parse_bracket("{a{b}{c}}")
        assert EXACT.distance(f, g, cost_model=model) == 2 * unit
        result = batch_self_join([f, g], 2 * unit, cost_model=model)
        assert result.match_set == set()
        assert result.stats.stage_pruned.get("size", 0) == 1

    @pytest.mark.parametrize("model,unit", CASES, ids=["unit", "fractional"])
    def test_label_stage_boundary(self, model, unit):
        # Same sizes (size stage passes); label multisets differ in exactly
        # τ positions and d == τ.
        f = parse_bracket("{a{b}{c}}")
        g = parse_bracket("{a{x}{y}}")
        assert EXACT.distance(f, g, cost_model=model) == 2 * unit
        result = batch_self_join([f, g], 2 * unit, cost_model=model)
        assert result.match_set == set()
        pruned = result.stats.stage_pruned
        assert pruned.get("label", 0) == 1, pruned

    @pytest.mark.parametrize("model,unit", CASES, ids=["unit", "fractional"])
    def test_upper_bound_accept_boundary(self, model, unit):
        # Identical shapes, k label mismatches: the top-down upper bound
        # equals the exact distance, so at τ == d the accept stage must NOT
        # fire (strict <) and the pair must not match.
        # A unit-cost plan skips the stage for pairs the small-pair program
        # verifies, so the unit case passes the full cascade explicitly; the
        # fractional plan keeps the stage on its own.
        kwargs = {"cascade": default_cascade()} if model is None else {}
        f = parse_bracket("{a{b}{c}{d}}")
        g = parse_bracket("{a{b}{x}{y}}")
        assert EXACT.distance(f, g, cost_model=model) == 2 * unit
        at = batch_self_join([f, g], 2 * unit, cost_model=model, **kwargs)
        assert at.match_set == set()
        assert at.stats.accepted_early == 0
        above = batch_self_join([f, g], 2 * unit + unit / 2, cost_model=model, **kwargs)
        assert above.match_set == {(0, 1)}
        assert above.stats.accepted_early == 1

    # (f, g, the stage whose bound equals d == 2 operations) — every earlier
    # stage's bound stays below d.  Swapping b and c changes two characters
    # of each traversal string (branch bound 6/5).  Deleting the second
    # child of the root and inserting c above the first three children
    # changes 10 = 5·d binary branches but one character of each traversal
    # string, and the trees still share a branch, so candidate generation
    # keeps the pair.
    STAGE_PAIRS = [
        ("{a{b{c}}}", "{a{c{b}}}", "traversal-string"),
        ("{a{a}{a{b}}{a}{a}}", "{a{c{a}{b}{a}}{a}}", "binary-branch"),
    ]

    @pytest.mark.parametrize("model,unit", CASES, ids=["unit", "fractional"])
    def test_traversal_and_branch_stage_boundaries(self, model, unit):
        # At τ == d the pair's stage prunes it; just above d it matches.
        # The unit case passes the full cascade explicitly, as in
        # test_upper_bound_accept_boundary.
        kwargs = {"cascade": default_cascade()} if model is None else {}
        for f_text, g_text, stage in self.STAGE_PAIRS:
            f, g = parse_bracket(f_text), parse_bracket(g_text)
            d = EXACT.distance(f, g, cost_model=model)
            assert d == 2 * unit
            at = batch_self_join([f, g], d, cost_model=model, **kwargs)
            assert at.match_set == set()
            assert at.stats.stage_pruned == {stage: 1}
            above = batch_self_join([f, g], d + unit / 2, cost_model=model, **kwargs)
            assert above.match_set == {(0, 1)}

    # Moving v below n and its two children up to the root: d == 2, and
    # both the binary-branch and the traversal-string bound reach 2.
    BOTH_BOUNDS = ("{r{p}{v{x}{y}}{n{s}{t}{q}}}", "{r{p}{x}{y}{n{v{s}{t}}{q}}}")

    @pytest.mark.parametrize(
        "kwargs",
        [{"cascade": default_cascade()}, {"cost_model": WeightedCostModel(1, 1, 1.5)}],
        ids=["unit-full-cascade", "weighted-default-plan"],
    )
    def test_linear_branch_stage_runs_before_traversal_strings(self, kwargs):
        # The cascade runs its cheapest bounds first: the linear array
        # stage prunes a pair both bounds reach before the O(n·m)
        # traversal-string stage sees it, and the match sets equal those of
        # the opposite order.
        f, g = (parse_bracket(text) for text in self.BOTH_BOUNDS)
        assert EXACT.distance(f, g, cost_model=kwargs.get("cost_model")) == 2.0
        names = [stage.name for stage in default_cascade()]
        assert names.index("binary-branch") < names.index("traversal-string")
        at = batch_self_join([f, g], 2.0, **kwargs)
        assert at.stats.stage_pruned == {"binary-branch": 1}
        swapped = [stage for stage in default_cascade() if stage.name != "binary-branch"]
        swapped.insert(names.index("traversal-string"), BinaryBranchFilter())
        swapped_kwargs = dict(kwargs, cascade=swapped)
        for threshold in (2.0, 2.5):
            default = batch_self_join([f, g], threshold, **kwargs)
            opposite = batch_self_join([f, g], threshold, **swapped_kwargs)
            assert default.match_set == opposite.match_set
            assert default.match_set == ({(0, 1)} if threshold > 2.0 else set())
        assert batch_self_join([f, g], 2.0, **swapped_kwargs).stats.stage_pruned == {
            "traversal-string": 1
        }

    def test_small_pair_sweep_boundary(self):
        # Disjoint-branch pairs with |F| + |G| == 5·τ_ops are correctly
        # prunable (BBD/5 ≥ τ_ops ⇒ d ≥ τ): the index must not materialize
        # them, and must keep pairs one node smaller.
        from repro.join import TreeCorpus, branch_candidate_pairs

        f = parse_bracket("{a{a}{a}{a}{a}}")   # 5 nodes, branches disjoint from g
        g = parse_bracket("{x{x}{x}{x}{x}}")   # 5 nodes
        corpus = TreeCorpus([f, g])
        candidates, skipped = branch_candidate_pairs(corpus, None, 2.0)
        assert set(candidates) == set() and skipped == 1
        candidates, _ = branch_candidate_pairs(corpus, None, 2.5)
        assert set(candidates) == {(0, 1)}


class TestLegacyAlgorithmInstances:
    def test_pre_cutoff_compute_signature_still_joins(self):
        # A pre-built instance whose compute() predates the cutoff keyword
        # must keep working under the bounded-verify default: the batch
        # falls back to unbounded computation for it.
        class LegacyTED(GTED):
            def compute(self, tree_f, tree_g, cost_model=None):
                return super().compute(tree_f, tree_g, cost_model=cost_model)

        trees = clustered_corpus(
            num_clusters=4, cluster_size=5, tree_size=10, num_edits=3, rng=55
        )
        legacy = batch_self_join(
            trees, 2.5, algorithm=LegacyTED(LeftFStrategy()), early_accept=False
        )
        modern = batch_self_join(trees, 2.5, algorithm="zhang-l", early_accept=False)
        assert legacy.matches == modern.matches
        assert legacy.stats.aborted_early == 0

    def test_legacy_instance_in_bounded_batch_distances(self):
        class LegacyTED(GTED):
            def compute(self, tree_f, tree_g, cost_model=None):
                return super().compute(tree_f, tree_g, cost_model=cost_model)

        f = random_tree(8, rng=1)
        g = random_tree(8, rng=2)
        rows = batch_distances(
            [f, g], None, [(0, 1)], algorithm=LegacyTED(LeftFStrategy()), cutoff=1.0
        )
        (i, j, value, _, aborted) = rows[0]
        assert (i, j) == (0, 1) and not aborted
        assert value == EXACT.distance(f, g)

    def test_kernel_only_join_never_inspects_compute(self, monkeypatch):
        # Whether compute() takes a cutoff matters only to pairs that fall
        # back to it; a join whose every pair runs the small-pair kernel
        # never asks.
        import inspect

        calls = []
        signature = inspect.signature
        monkeypatch.setattr(
            inspect, "signature", lambda *a, **k: calls.append(a) or signature(*a, **k)
        )
        trees = clustered_corpus(
            num_clusters=4, cluster_size=5, tree_size=10, num_edits=3, rng=55
        )
        result = batch_self_join(trees, 2.5, early_accept=False)
        assert result.stats.exact_computed > 0
        assert calls == []


class TestJoinAbortStats:
    def test_aborted_early_counts_cut_short_verifications(self):
        trees = clustered_corpus(
            num_clusters=8, cluster_size=8, tree_size=12, num_edits=4, rng=13
        )
        result = batch_self_join(trees, 3.0, early_accept=False)
        stats = result.stats
        assert stats.aborted_early > 0
        assert stats.aborted_early <= stats.exact_computed - stats.exact_matched
        assert stats.as_dict()["aborted_early"] == stats.aborted_early

    def test_workers_report_aborts_too(self):
        trees = clustered_corpus(
            num_clusters=6, cluster_size=6, tree_size=12, num_edits=4, rng=14
        )
        serial = batch_self_join(trees, 3.0, early_accept=False)
        fanned = batch_self_join(trees, 3.0, early_accept=False, workers=2)
        assert fanned.matches == serial.matches
        assert fanned.stats.aborted_early == serial.stats.aborted_early


class TestCompareAlgorithmsEngine:
    def test_engine_is_threaded_and_reported(self):
        f = parse_bracket("{a{b{c}}{d}}")
        g = parse_bracket("{a{b{x}}{d}{e}}")
        results = compare_algorithms(f, g, engine="recursive")
        assert {r.extra["engine"] for r in results.values()} == {"recursive"}
        distances = {r.distance for r in results.values()}
        assert len(distances) == 1

    def test_default_engine_reported_in_extra(self):
        results = compare_algorithms("{a{b}}", "{a{c}}")
        for name, result in results.items():
            assert "engine" in result.extra
        # GTED/RTED variants — zhang-l and zhang-r included — resolve auto
        # to the spf executor and say so.
        assert {result.extra["engine"] for result in results.values()} == {"spf"}
        # A single-implementation algorithm reports the selector.
        simple = compare_algorithms("{a{b}}", "{a{c}}", algorithms=["simple"])
        assert simple["simple"].extra["engine"] == "auto"

    def test_unknown_engine_raises(self):
        from repro.exceptions import UnknownEngineError

        with pytest.raises(UnknownEngineError):
            compare_algorithms("{a}", "{a}", engine="nope")


class TestBoundedCLI:
    def test_distance_cutoff_bounded(self, capsys):
        code = cli_main(["distance", "{a{b}{c}}", "{x{y{z}}}", "--cutoff", "1.5"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith(">=")

    def test_distance_cutoff_exact(self, capsys):
        code = cli_main(["distance", "{a{b}{c}}", "{a{b}{x}}", "--cutoff", "5"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.0"

    def test_distance_cutoff_verbose(self, capsys):
        code = cli_main(
            ["distance", "{a{b}{c}}", "{x{y{z}}}", "--cutoff", "1.5", "--verbose"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert ">= 1.5" in out and "aborted" in out

    def test_join_stats_report_aborts(self, capsys, tmp_path):
        collection = tmp_path / "trees.txt"
        collection.write_text("{a{b}{c}}\n{a{b}{x}{y}{z}}\n{q{r}{s}}\n")
        code = cli_main(
            ["join", f"@{collection}", "--threshold", "2", "--stats"]
        )
        assert code == 0
        # Stats go to stderr (stdout carries only the match lines).
        assert "# aborted early:" in capsys.readouterr().err

    def test_join_always_bounded_and_rejects_removed_switches(self, capsys, tmp_path):
        collection = tmp_path / "trees.txt"
        collection.write_text("{a{b}{c}}\n{a{b}{x}}\n")
        code = cli_main(["join", f"@{collection}", "--threshold", "2", "--stats"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["0\t1\t1"]
        assert "# aborted early:    0" in captured.err
        for flag in ("--no-bounded-verify", "--no-workspace", "--no-batch-kernel"):
            with pytest.raises(SystemExit):
                cli_main(["join", f"@{collection}", "--threshold", "2", flag])


class TestWorkspaceBounded:
    def test_small_pair_fast_path_aborts(self):
        workspace = TedWorkspace()
        algo = make_algorithm("zhang-l", workspace=workspace)
        f = random_tree(12, rng=21)
        g = random_tree(12, rng=22)
        exact = EXACT.distance(f, g)
        assert exact > 1.0
        result = algo.compute(f, g, cutoff=1.0)
        assert result.bounded and result.aborted
        assert result.extra.get("workspace") == "small-pair-unit"
        assert workspace.stats.small_pair_runs >= 1

    def test_small_pair_bounded_is_bit_identical_below_cutoff(self):
        workspace = TedWorkspace()
        algo = make_algorithm("zhang-l", workspace=workspace)
        for f, g in shape_family_pairs(40, seed=17):
            exact = algo.compute(f, g).distance
            bounded = algo.compute(f, g, cutoff=exact + 1.0)
            assert not bounded.bounded
            assert bounded.distance == exact

    def test_precheck_raise_carries_size_bound(self):
        workspace = TedWorkspace()
        f = random_tree(4, rng=1)
        g = random_tree(16, rng=2)
        with pytest.raises(CutoffExceeded) as info:
            workspace.compute_small(f, g, cutoff=3.0)
        assert info.value.lower_bound == 12.0

    def test_cutoff_precheck_helper(self):
        f = random_tree(3, rng=1)
        g = random_tree(9, rng=2)
        assert cutoff_precheck(f, g, UnitCostModel(), 6.0) == 6.0
        assert cutoff_precheck(f, g, UnitCostModel(), 6.5) is None
        assert cutoff_precheck(f, g, StringRenameCostModel(), 6.0) is None
