"""Tests for the corpus-indexed batch join: TreeCorpus, cascade, soundness."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.algorithms.base import resolve_cost_model
from repro.algorithms.batch_kernel import SMALL_PAIR_CELLS, choose_sweep, sweep_sizes
from repro.bounds import binary_branch_profile
from repro.bounds.binary_branch import NULL_LABEL
from repro.costs import (
    PerLabelCostModel,
    StringRenameCostModel,
    UnitCostModel,
    WeightedCostModel,
)
from repro.datasets import clustered_corpus, perturb_tree, random_tree
from repro.datasets.shapes import zigzag_tree
from repro.io import parse_bracket, to_bracket
from repro.trees import Node, Tree
from repro.join.pairs import _CODE_SHIFT, _FIELD_BITS, NULL_CODE
from repro.join import (
    BatchRefiner,
    Planner,
    QueryEngine,
    TreeCorpus,
    batch_distances,
    batch_self_join,
    batch_similarity_join,
    branch_candidate_pairs,
    default_cascade,
    operations_threshold,
)

from repro.api import similarity_join
from repro.exceptions import BatchConfigError

EXACT = make_algorithm("zhang-l")


def small_corpus(num=8, size=14, seed=11):
    trees = []
    for index in range(num // 2):
        base = random_tree(size, rng=seed + index)
        trees.append(base)
        trees.append(perturb_tree(base, 1 + index % 3, rng=seed + 100 + index))
    return trees


def brute_force_matches(trees_a, threshold, trees_b=None, cost_model=None):
    if trees_b is None:
        pairs = itertools.combinations(range(len(trees_a)), 2)
        lookup = trees_a
    else:
        pairs = itertools.product(range(len(trees_a)), range(len(trees_b)))
        lookup = trees_b
    return {
        (i, j)
        for i, j in pairs
        if EXACT.distance(trees_a[i], lookup[j], cost_model=cost_model) < threshold
    }


class TestTreeCorpus:
    def test_profiles_cached_and_correct(self):
        trees = small_corpus()
        corpus = TreeCorpus(trees)
        prof = corpus.profile(0)
        assert prof.size == trees[0].n
        assert corpus.profile(0) is prof  # cached

    def test_container_protocol(self):
        trees = small_corpus(num=4)
        corpus = TreeCorpus(trees)
        assert len(corpus) == 4
        assert corpus[2] is trees[2]
        assert list(corpus) == trees

    @staticmethod
    def _decoder(corpus):
        labels = corpus.interner().labels
        return lambda code: NULL_LABEL if code == NULL_CODE else labels[code - _CODE_SHIFT]

    def test_corpus_takes_no_pq_gram_parameters(self):
        # The corpus carries only sound-filter artifacts: no pq-gram
        # shape parameters and no pq-gram profile per tree.
        trees = small_corpus(num=4)
        for keyword in ("p", "q"):
            with pytest.raises(TypeError):
                TreeCorpus(trees, **{keyword: 2})
        profile = TreeCorpus(trees).profile(0)
        assert not hasattr(profile, "pq_profile")

    def test_filter_arrays_label_rows_are_label_histograms(self):
        trees = small_corpus()
        corpus = TreeCorpus(trees)
        arrays = corpus.filter_arrays()
        label = self._decoder(corpus)
        assert arrays.sizes.tolist() == [tree.n for tree in trees]
        for t, tree in enumerate(trees):
            lo, hi = arrays.label_off[t], arrays.label_off[t + 1]
            codes = arrays.label_code[lo:hi].tolist()
            assert codes == sorted(set(codes))
            histogram = {
                label(code): int(count)
                for code, count in zip(codes, arrays.label_count[lo:hi])
            }
            assert histogram == Counter(tree.labels)

    def test_filter_arrays_branch_rows_are_branch_profiles(self):
        # Decoded through the interner, each tree's branch rows are exactly
        # its binary-branch profile (small codes: no field folding).
        trees = small_corpus()
        corpus = TreeCorpus(trees)
        arrays = corpus.filter_arrays()
        label = self._decoder(corpus)
        mask = (1 << _FIELD_BITS) - 1
        for t, tree in enumerate(trees):
            lo, hi = arrays.branch_off[t], arrays.branch_off[t + 1]
            keys = arrays.branch_key[lo:hi].tolist()
            assert keys == sorted(set(keys))
            assert arrays.branch_tree[lo:hi].tolist() == [t] * (hi - lo)
            profile = {
                (
                    label(key >> (2 * _FIELD_BITS)),
                    label((key >> _FIELD_BITS) & mask),
                    label(key & mask),
                ): int(count)
                for key, count in zip(keys, arrays.branch_count[lo:hi])
            }
            assert profile == binary_branch_profile(tree)


class TestCandidateGeneration:
    def test_candidates_are_sound(self):
        """Every true match must survive index-based candidate generation."""
        trees = clustered_corpus(num_clusters=5, cluster_size=4, tree_size=10, rng=3)
        corpus = TreeCorpus(trees)
        threshold = 4.0
        candidates, skipped = branch_candidate_pairs(corpus, None, threshold)
        total = len(trees) * (len(trees) - 1) // 2
        assert len(candidates) + skipped == total
        assert brute_force_matches(trees, threshold) <= set(candidates)

    def test_infinite_threshold_yields_all_pairs(self):
        corpus = TreeCorpus(small_corpus(num=6))
        candidates, skipped = branch_candidate_pairs(corpus, None, float("inf"))
        assert skipped == 0
        assert len(candidates) == 15

    def test_cross_corpus_candidates_sound(self):
        trees = clustered_corpus(num_clusters=4, cluster_size=4, tree_size=10, rng=9)
        corpus_a = TreeCorpus(trees[:8])
        corpus_b = TreeCorpus(trees[8:])
        threshold = 4.0
        candidates, _ = branch_candidate_pairs(corpus_a, corpus_b, threshold)
        assert brute_force_matches(trees[:8], threshold, trees[8:]) <= set(candidates)

    def test_tiny_trees_survive_without_shared_branches(self):
        # Disjoint profiles, but |F| + |G| < 5·τ_ops: must stay candidates.
        trees = [parse_bracket("{a}"), parse_bracket("{b{c}}")]
        candidates, _ = branch_candidate_pairs(TreeCorpus(trees), None, 2.0)
        assert (0, 1) in set(candidates)

    def test_dense_corpus_blowup_guard_falls_back_to_all_pairs(self):
        # A tiny shared alphabet makes every posting list nearly full, so the
        # posting-product guard must fall back to all pairs (still sound).
        trees = [random_tree(40, alphabet=["x", "y"], rng=i) for i in range(40)]
        corpus_a, corpus_b = TreeCorpus(trees[:20]), TreeCorpus(trees[20:])
        index_a, index_b = {}, {}
        for index, side in ((index_a, trees[:20]), (index_b, trees[20:])):
            for i, tree in enumerate(side):
                for branch in binary_branch_profile(tree):
                    index.setdefault(branch, []).append(i)
        product_work = sum(
            len(postings) * len(index_b.get(branch, ()))
            for branch, postings in index_a.items()
        )
        assert product_work > 8 * 400  # the guard's trigger condition holds
        candidates, skipped = branch_candidate_pairs(corpus_a, corpus_b, 3.0)
        assert len(candidates) == 400 and skipped == 0
        self_candidates, self_skipped = branch_candidate_pairs(
            TreeCorpus(trees), None, 3.0
        )
        assert len(self_candidates) == 40 * 39 // 2 and self_skipped == 0


class TestBatchJoinEquivalence:
    @pytest.mark.parametrize(
        "algorithm,engine",
        [("zhang-l", None), ("zhang-l", "spf"), ("rted", None), ("rted", "spf")],
    )
    def test_cascade_on_off_identical_matches(self, algorithm, engine):
        """Cascade on/off must produce identical match sets for every
        algorithm/engine combination."""
        trees = small_corpus()
        for threshold in (2.0, 4.0, 8.0):
            on = batch_self_join(trees, threshold, algorithm=algorithm, engine=engine)
            off = batch_self_join(
                trees, threshold, algorithm=algorithm, engine=engine, use_cascade=False
            )
            assert on.match_set == off.match_set
            assert on.match_set == brute_force_matches(trees, threshold)

    @pytest.mark.parametrize("use_cascade", [True, False])
    def test_cascade_switch_alone_picks_candidate_source(self, use_cascade):
        from repro.join import AllPairsSource, JoinIndexSource

        corpus = TreeCorpus(small_corpus(num=4))
        refiner = BatchRefiner(corpus, None, algorithm="rted")
        plan = Planner(resolve_cost_model(None)).plan_join(
            corpus, None, 3.0, refiner, use_cascade=use_cascade
        )
        expected = JoinIndexSource if use_cascade else AllPairsSource
        assert type(plan.source) is expected

    def test_cross_join_matches_brute_force(self):
        trees = small_corpus()
        result = batch_similarity_join(
            trees[:4], 5.0, corpus_b=trees[4:], algorithm="zhang-l"
        )
        assert result.match_set == brute_force_matches(trees[:4], 5.0, trees[4:])

    def test_early_accept_off_reports_exact_distances(self):
        trees = small_corpus()
        result = batch_self_join(trees, 6.0, algorithm="zhang-l", early_accept=False)
        for i, j, distance in result.matches:
            assert distance == pytest.approx(EXACT.distance(trees[i], trees[j]))

    def test_early_accept_distances_are_valid_upper_bounds(self):
        trees = small_corpus()
        result = batch_self_join(trees, 6.0, algorithm="zhang-l")
        for i, j, distance in result.matches:
            exact = EXACT.distance(trees[i], trees[j])
            assert exact <= distance + 1e-9
            assert distance < 6.0

    def test_stats_accounting(self):
        trees = small_corpus()
        result = batch_self_join(trees, 4.0, algorithm="zhang-l")
        stats = result.stats
        assert stats.pairs_total == len(trees) * (len(trees) - 1) // 2
        assert stats.candidate_pairs + stats.index_pruned == stats.pairs_total
        routed = sum(stats.stage_pruned.values()) + stats.accepted_early + stats.exact_computed
        assert routed == stats.candidate_pairs
        assert stats.matches == len(result.matches)
        assert stats.accepted_early + stats.exact_matched == stats.matches
        assert 0.0 <= stats.filter_rate <= 1.0
        assert isinstance(stats.as_dict()["stage_pruned"], dict)

    def test_streaming_progress_callback(self):
        trees = small_corpus()
        snapshots = []
        batch_self_join(
            trees, 4.0, algorithm="zhang-l", chunk_size=2,
            progress=lambda stats: snapshots.append(stats.exact_computed),
        )
        assert snapshots  # called at least once
        assert snapshots == sorted(snapshots)  # counters only grow


class TestCostModelSoundness:
    """Acceptance: over ≥200 random pairs the cascade never drops a pair whose
    exact distance is below τ, for unit and fractional-cost models."""

    COST_MODELS = [
        UnitCostModel(),
        WeightedCostModel(0.4, 0.4, 0.4),
        WeightedCostModel(0.25, 1.0, 0.5),
        PerLabelCostModel(default_delete=0.3, default_insert=0.3, rename_cost=0.6),
        StringRenameCostModel(),
    ]

    @pytest.mark.parametrize("cost_model", COST_MODELS, ids=lambda cm: type(cm).__name__)
    def test_cascade_never_drops_matches(self, cost_model):
        trees = [random_tree(4 + (i % 12), rng=1000 + i) for i in range(24)]
        # 24 trees → 276 pairs ≥ 200, joined at several selectivities.
        assert len(trees) * (len(trees) - 1) // 2 >= 200
        for threshold in (1.5, 3.0):
            expected = brute_force_matches(trees, threshold, cost_model=cost_model)
            result = batch_self_join(
                trees, threshold, algorithm="zhang-l", cost_model=cost_model
            )
            assert result.match_set == expected

    def test_fractional_model_disables_unscaled_pruning(self):
        # τ_ops must be τ / min_op_cost, not τ.
        assert operations_threshold(2.0, WeightedCostModel(0.5, 0.5, 0.5)) == 4.0
        assert operations_threshold(2.0, UnitCostModel()) == 2.0
        # No provable positive minimum → filters disabled, not unsound.
        assert operations_threshold(2.0, StringRenameCostModel()) == float("inf")

    def test_lower_bound_stages_skipped_without_sound_scale(self):
        trees = small_corpus(num=6)
        result = batch_self_join(
            trees, 3.0, algorithm="zhang-l", cost_model=StringRenameCostModel()
        )
        for stage in ("size", "label", "traversal-string", "binary-branch"):
            assert stage not in result.stats.stage_pruned


class TestBatchDistances:
    def test_matches_direct_computation(self):
        trees = small_corpus(num=6)
        pairs = [(0, 1), (2, 3), (4, 5), (1, 4)]
        rows = batch_distances(trees, None, pairs, algorithm="zhang-l")
        assert [(i, j) for i, j, _, _ in rows] == pairs
        for i, j, distance, subproblems in rows:
            assert distance == pytest.approx(EXACT.distance(trees[i], trees[j]))
            assert subproblems > 0

    def test_multiprocessing_workers_agree_with_serial(self):
        trees = small_corpus(num=10)
        pairs = list(itertools.combinations(range(len(trees)), 2))
        serial = batch_distances(trees, None, pairs, algorithm="zhang-l")
        fanned = batch_distances(
            trees, None, pairs, algorithm="zhang-l", workers=2, chunk_size=5
        )
        assert sorted(serial) == sorted(fanned)

    def test_join_with_workers_matches_serial(self):
        trees = clustered_corpus(num_clusters=4, cluster_size=5, tree_size=10, rng=7)
        serial = batch_self_join(trees, 4.0, algorithm="zhang-l", early_accept=False)
        fanned = batch_self_join(
            trees, 4.0, algorithm="zhang-l", early_accept=False, workers=2, chunk_size=3
        )
        assert serial.match_set == fanned.match_set

    @pytest.mark.parametrize("chunk_size", [-1, 0, True, 2.5, "8", None])
    def test_non_positive_int_chunk_size_rejected(self, chunk_size):
        # A non-positive size used to chunk the pairs into nothing and
        # return no results (or fail with a bare ValueError at 0).
        trees = small_corpus(num=6)
        pairs = list(itertools.combinations(range(len(trees)), 2))
        with pytest.raises(BatchConfigError, match="chunk_size"):
            batch_distances(trees, None, pairs, chunk_size=chunk_size)
        with pytest.raises(BatchConfigError, match="chunk_size"):
            batch_distances(trees, None, [], chunk_size=chunk_size)

    @pytest.mark.parametrize("chunk_size", [-1, 0, False])
    def test_join_rejects_non_positive_chunk_size(self, chunk_size):
        trees = clustered_corpus(num_clusters=6, cluster_size=5, tree_size=10, rng=7)
        assert similarity_join(trees, 3.0).matches  # the join has work to drop
        with pytest.raises(BatchConfigError, match=repr(chunk_size)):
            similarity_join(trees, 3.0, chunk_size=chunk_size)
        with pytest.raises(BatchConfigError, match="chunk_size"):
            batch_self_join(trees, 3.0, chunk_size=chunk_size, workers=2)


class TestStageChoice:
    """The planner picks stages per pair against the verifier that runs it.

    Pairs the refiner verifies with the small-pair program skip the O(n·m)
    Python stages (``traversal-string``, ``upper-bound``); pairs verified
    per pair in Python keep the full sound cascade.
    """

    QUADRATIC = {"traversal-string", "upper-bound"}

    @staticmethod
    def _stage_names(trees, i=0, j=1, cost_model=None, **kwargs):
        corpus = TreeCorpus(trees)
        refiner = BatchRefiner(
            corpus, None, algorithm=kwargs.pop("algorithm", "rted"), cost_model=cost_model
        )
        plan = Planner(resolve_cost_model(cost_model)).plan_join(
            corpus, None, 3.0, refiner, **kwargs
        )
        quadratic = plan.filters.runs_quadratic(np.array([i]), np.array([j]))[0]
        return [
            stage.name
            for stage in plan.filters.stages
            if quadratic or not stage.quadratic
        ]

    @staticmethod
    def _over_gate_pair():
        # Two 90-node zigzags whose cheaper sweep exceeds SMALL_PAIR_CELLS,
        # one relabel apart (top-down upper bound 1).
        f = zigzag_tree(90)
        g = parse_bracket(to_bracket(f).replace("{a}", "{b}", 1))
        assert choose_sweep(sweep_sizes(f), sweep_sizes(g), SMALL_PAIR_CELLS) is None
        return [f, g]

    def test_unit_cost_registry_name_skips_quadratic_stages(self):
        names = self._stage_names(small_corpus(num=2))
        assert names == ["size", "label", "binary-branch"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cost_model": WeightedCostModel(0.5, 0.5, 0.5)},
            {"algorithm": make_algorithm("rted", engine="spf")},
            {"algorithm": "rted", "cascade": default_cascade()},
        ],
        ids=["non-unit", "pre-built", "explicit-cascade"],
    )
    def test_per_pair_python_verification_keeps_full_cascade(self, kwargs):
        names = self._stage_names(small_corpus(num=2), **kwargs)
        assert names == [stage.name for stage in default_cascade()]

    def test_over_gate_pair_keeps_full_cascade(self):
        trees = self._over_gate_pair()
        assert self.QUADRATIC <= set(self._stage_names(trees))
        # ... and still accepts early instead of running RTED in Python.
        result = batch_self_join(trees, 3.0)
        assert result.matches == [(0, 1, 1.0)]
        assert result.stats.accepted_early == 1
        assert result.stats.exact_computed == 0

    def test_early_accept_off_strips_accept_stages_only(self):
        names = self._stage_names(
            small_corpus(num=2), algorithm=make_algorithm("rted", engine="spf"),
            early_accept=False,
        )
        assert names == ["size", "label", "binary-branch", "traversal-string"]

    def test_default_join_equals_full_cascade_exact_join(self):
        trees = clustered_corpus(
            num_clusters=12, cluster_size=8, tree_size=14, num_edits=2, rng=5
        )
        default = batch_self_join(trees, 3.0)
        full = batch_self_join(trees, 3.0, cascade=default_cascade(), early_accept=False)
        assert default.matches == full.matches
        assert default.matches
        # Every reported distance is the exact TED, never an upper bound.
        assert default.stats.accepted_early == 0
        for i, j, distance in default.matches:
            assert distance == EXACT.distance(trees[i], trees[j])
        # The old default plan decided most matches by the upper bound.
        legacy = batch_self_join(trees, 3.0, cascade=default_cascade())
        assert legacy.match_set == default.match_set
        assert legacy.stats.accepted_early > 0

    def test_stage_choice_ignores_provider(self, monkeypatch):
        trees = clustered_corpus(
            num_clusters=6, cluster_size=6, tree_size=14, num_edits=2, rng=9
        ) + self._over_gate_pair()

        def run():
            result = batch_self_join(trees, 3.0)
            counts = {
                k: v for k, v in result.stats.as_dict().items() if not k.endswith("_time")
            }
            return result.matches, counts

        with_provider = run()
        monkeypatch.setenv("RTED_NO_NATIVE", "1")
        assert run() == with_provider


def _mixed_label_trees(count, seed):
    """Random trees whose labels mix strings with unhashable lists."""
    rng = random.Random(seed)
    labels = ["a", "b", ["a"], ["b"], ["c", 1]]
    trees = []
    for _ in range(count):
        nodes = [Node(rng.choice(labels)) for _ in range(rng.randint(1, 9))]
        for k in range(1, len(nodes)):
            nodes[rng.randrange(k)].children.append(nodes[k])
        trees.append(Tree(nodes[0]))
    return trees


class TestUnhashableLabels:
    """Joins and queries over unhashable labels answer like brute force."""

    def test_join_range_and_knn_match_brute_force(self):
        trees = _mixed_label_trees(24, seed=5)
        queries = _mixed_label_trees(6, seed=6)
        for threshold in (1.0, 2.0, 3.5):
            assert batch_similarity_join(trees, threshold).match_set == (
                brute_force_matches(trees, threshold)
            )
            assert batch_similarity_join(trees[:10], threshold, trees[10:]).match_set == (
                brute_force_matches(trees[:10], threshold, trees[10:])
            )
        engine = QueryEngine(trees)
        for query in queries:
            ranking = sorted((EXACT.distance(query, tree), j) for j, tree in enumerate(trees))
            for k in (1, 3, len(trees)):
                assert engine.knn(query, k).matches == [(j, d) for d, j in ranking[:k]]
            for threshold in (1.0, 2.5):
                assert engine.range_query(query, threshold).matches == sorted(
                    ((j, d) for d, j in ranking if d < threshold),
                    key=lambda entry: (entry[1], entry[0]),
                )
