"""Query-engine correctness: knn / range_query vs brute force, corpus
freezing, and the planner pipeline invariants."""

import random

import numpy as np
import pytest

from repro import knn, range_query
from repro.costs import StringRenameCostModel, UnitCostModel, WeightedCostModel
from repro.datasets import clustered_corpus
from repro.datasets.random_trees import random_tree
from repro.exceptions import MetricGateError, QueryError
from repro.join import (
    PairFilters,
    QueryEngine,
    TreeCorpus,
    VPTree,
    batch_distances,
    default_cascade,
    metric_eligible,
)

ALPHABET = list("abcde")

#: The three property-suite cost models: the canonical unit model, a
#: fractional metric (min_operation_cost < 1 exercises threshold scaling),
#: and a non-symmetric model, under which no triangle-inequality bound holds.
COST_MODELS = {
    "unit": UnitCostModel(),
    "fractional": WeightedCostModel(0.5, 0.5, 0.5),
    "non-symmetric": WeightedCostModel(1.0, 2.0, 1.5),
}


def _random_trees(count, rng, lo=2, hi=12):
    return [random_tree(rng.randint(lo, hi), alphabet=ALPHABET, rng=rng) for _ in range(count)]


def _brute_ranking(query, corpus, cost_model):
    """The reference ranking: ``(distance, index)`` ascending, from the
    unfiltered batch verifier (query → corpus orientation)."""
    query_corpus = TreeCorpus([query], interner=corpus.interner())
    entries = batch_distances(
        query_corpus, corpus, [(0, j) for j in range(len(corpus))], cost_model=cost_model
    )
    return sorted((distance, j) for _, j, distance, *_ in entries)


class TestPropertySuite:
    """knn/range_query return exactly the brute-force result sets.

    ≥ 200 random queries spread over the three cost models; every query is
    checked at several k values and several thresholds, with exact
    result-set (and distance) equality.
    """

    @pytest.mark.parametrize("model_name", sorted(COST_MODELS))
    def test_queries_match_brute_force(self, model_name):
        cost_model = COST_MODELS[model_name]
        rng = random.Random(hash(model_name) & 0xFFFF)
        corpus = TreeCorpus(_random_trees(50, rng))
        engine = QueryEngine(corpus, cost_model=cost_model)
        for _ in range(70):
            query = random_tree(rng.randint(2, 12), alphabet=ALPHABET, rng=rng)
            ranking = _brute_ranking(query, corpus, cost_model)
            for k in (1, 5, len(corpus) + 3):
                result = engine.knn(query, k)
                assert result.matches == [(j, d) for d, j in ranking[:k]]
            for threshold in (1.0, 2.5, 4.0):
                result = engine.range_query(query, threshold)
                expected = sorted(
                    ((j, d) for d, j in ranking if d < threshold),
                    key=lambda entry: (entry[1], entry[0]),
                )
                assert result.matches == expected

    def test_non_metric_models_answer_exactly(self):
        rng = random.Random(7)
        corpus = TreeCorpus(_random_trees(30, rng))
        for cost_model in (COST_MODELS["non-symmetric"], StringRenameCostModel()):
            assert not metric_eligible(cost_model)
            engine = QueryEngine(corpus, cost_model=cost_model)
            query = _random_trees(1, rng)[0]
            ranking = _brute_ranking(query, corpus, cost_model)
            assert engine.knn(query, 3).matches == [(j, d) for d, j in ranking[:3]]
            assert engine.range_query(query, 2.0).matches == [
                (j, d) for d, j in ranking if d < 2.0
            ]
            with pytest.raises(MetricGateError):
                VPTree.build(corpus, cost_model=cost_model)


class TestQueryEngine:
    def test_range_and_knn_agree(self):
        # A full ranking cut at τ is the range answer, in the same order.
        rng = random.Random(11)
        corpus = TreeCorpus(_random_trees(40, rng))
        engine = QueryEngine(corpus)
        for _ in range(10):
            query = _random_trees(1, rng)[0]
            ranking = engine.knn(query, len(corpus)).matches
            assert engine.range_query(query, 3.0).matches == [
                (j, d) for j, d in ranking if d < 3.0
            ]

    def test_no_cascade_path_agrees(self):
        rng = random.Random(13)
        corpus = TreeCorpus(_random_trees(25, rng))
        plain = QueryEngine(corpus, use_cascade=False)
        full = QueryEngine(corpus)
        query = _random_trees(1, rng)[0]
        assert plain.knn(query, 5).matches == full.knn(query, 5).matches
        assert plain.range_query(query, 2.5).matches == full.range_query(query, 2.5).matches

    def test_knn_edge_cases(self):
        corpus = TreeCorpus(_random_trees(5, random.Random(3)))
        engine = QueryEngine(corpus)
        query = _random_trees(1, random.Random(4))[0]
        assert engine.knn(query, 0).matches == []
        assert len(engine.knn(query, 100).matches) == len(corpus)
        with pytest.raises(QueryError):
            engine.knn(query, -1)
        empty = QueryEngine(TreeCorpus([]))
        assert empty.knn(query, 3).matches == []
        assert empty.range_query(query, 2.0).matches == []

    @pytest.mark.parametrize("chunk_size", [-1, 0, True, 1.5])
    @pytest.mark.parametrize("entry", ["engine", "knn", "range_query"])
    def test_non_positive_int_chunk_size_rejected(self, chunk_size, entry):
        # Used to return [] from the scan.  The API functions forward the
        # keyword to the engine, so they refuse it the same way.
        trees = _random_trees(12, random.Random(2))
        corpus = TreeCorpus(trees)
        with pytest.raises(QueryError, match="chunk_size"):
            if entry == "engine":
                QueryEngine(corpus, chunk_size=chunk_size)
            elif entry == "knn":
                knn(trees[0], corpus, 3, chunk_size=chunk_size)
            else:
                range_query(trees[0], corpus, 3.0, chunk_size=chunk_size)

    def test_range_nonpositive_threshold_is_empty(self):
        corpus = TreeCorpus(_random_trees(8, random.Random(5)))
        engine = QueryEngine(corpus)
        query = corpus.trees[0]
        # Strict semantics: TED < 0 is impossible; TED < 0.0 likewise.
        assert engine.range_query(query, 0.0).matches == []
        assert engine.range_query(query, -1.0).matches == []

    def test_range_includes_exact_duplicates(self):
        trees = _random_trees(6, random.Random(6))
        corpus = TreeCorpus(trees + [trees[0]])
        engine = QueryEngine(corpus)
        result = engine.range_query(trees[0], 0.5)
        assert (0, 0.0) in result.matches and (len(trees), 0.0) in result.matches

    def test_range_examines_fewer_than_corpus(self):
        # Clustered corpus, tight radius: the inverted index and the cascade
        # must cut the number of exact evaluations below the corpus size.
        trees = clustered_corpus(
            num_clusters=12, cluster_size=8, tree_size=10, num_edits=1,
            rng=random.Random(8),
        )
        corpus = TreeCorpus(trees)
        engine = QueryEngine(corpus)
        result = engine.range_query(trees[0], 2.0)
        assert result.stats.exact_computed < len(corpus)
        assert result.stats.index_pruned > 0

    def test_queries_never_build_the_metric_index(self, monkeypatch):
        # kNN is the size-ordered scan and range queries run on the
        # inverted index, under every model: neither builds a VP-tree.
        builds = []
        build = VPTree.__dict__["build"].__func__

        def spy(cls, *args, **kwargs):
            builds.append(1)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(VPTree, "build", classmethod(spy))
        trees = _random_trees(30, random.Random(12))
        corpus = TreeCorpus(trees)
        assert metric_eligible(UnitCostModel())
        engine = QueryEngine(corpus)
        for query in trees[:3]:
            engine.knn(query, 4)
        assert len(builds) == 0
        for query in trees[:3]:
            engine.range_query(query, 3.0)
        assert len(builds) == 0
        knn(trees[0], corpus, 4)
        range_query(trees[0], corpus, 3.0)
        range_query(trees[1], corpus, 3.0, use_metric_index=True)
        assert len(builds) == 0

    def test_api_ignores_use_metric_index(self):
        # The keyword is accepted for old callers and changes nothing.
        rng = random.Random(14)
        trees = _random_trees(30, rng)
        corpus = TreeCorpus(trees)
        for query in _random_trees(5, rng):
            for flag in (False, True):
                assert (
                    range_query(query, corpus, 3.0, use_metric_index=flag).matches
                    == range_query(query, corpus, 3.0).matches
                )
                assert (
                    knn(query, corpus, 4, use_metric_index=flag).matches
                    == knn(query, corpus, 4).matches
                )
            assert (
                range_query(query, trees, 3.0, use_metric_index=False).matches
                == range_query(query, corpus, 3.0).matches
            )

    def test_unit_range_query_never_inspects_compute(self, monkeypatch):
        # Every pair runs the small-pair kernel, so no per-pair fallback
        # needs to know whether compute() takes a cutoff.
        import inspect

        calls = []
        signature = inspect.signature
        monkeypatch.setattr(
            inspect, "signature", lambda *a, **k: calls.append(a) or signature(*a, **k)
        )
        trees = clustered_corpus(num_clusters=6, cluster_size=6, tree_size=10, rng=3)
        engine = QueryEngine(TreeCorpus(trees))
        for query in trees[:4]:
            assert engine.range_query(query, 3.0).stats.exact_computed > 0
        assert calls == []

    def test_knn_counts_the_trees_it_scans_as_candidates(self):
        # Every block of the scan goes through the cascade, so each tree of
        # the corpus is one candidate; the size bound's prunes come out of
        # those candidates, never out of the count.
        trees = _random_trees(40, random.Random(13))
        corpus = TreeCorpus(trees)
        stats = knn(trees[0], corpus, 3, chunk_size=8).stats
        assert stats.candidate_pairs == len(corpus) == stats.pairs_total
        assert stats.index_pruned == 0
        assert stats.exact_computed + sum(stats.stage_pruned.values()) == len(corpus)
        assert stats.candidate_hit_rate == 3 / len(corpus)

    def test_api_accepts_corpus_and_sequences(self):
        from repro import parse_tree

        trees = ["{a{b}{c}{d}}", "{x{y}}", "{a{b}}"]
        assert knn("{a{b}{c}}", trees, 2).indices == [0, 2]
        corpus = TreeCorpus([parse_tree(t) for t in trees])
        assert knn("{a{b}{c}}", corpus, 2).indices == [0, 2]
        assert range_query("{a{b}{c}}", corpus, 2.0).indices == [0, 2]


class TestCorpusFreeze:
    """A TreeCorpus is frozen at construction: post-construction mutation of
    the tree list must raise instead of silently serving stale indexes."""

    def test_item_assignment_raises(self):
        corpus = TreeCorpus(_random_trees(4, random.Random(1)))
        with pytest.raises(TypeError):
            corpus.trees[0] = corpus.trees[1]

    def test_append_raises(self):
        corpus = TreeCorpus(_random_trees(4, random.Random(1)))
        with pytest.raises(AttributeError):
            corpus.trees.append(corpus.trees[0])

    def test_rebinding_raises(self):
        corpus = TreeCorpus(_random_trees(4, random.Random(1)))
        with pytest.raises(AttributeError):
            corpus.trees = ()

    def test_constructor_snapshots_input_list(self):
        trees = _random_trees(4, random.Random(2))
        corpus = TreeCorpus(trees)
        assert len(corpus.trees) == 4
        trees.append(trees[0])  # mutating the caller's list must not leak in
        assert len(corpus) == 4


class TestStageChoice:
    """Queries pick filter stages per pair, like joins, without changing an
    answer: kNN and range results equal those of the old filter list (the
    default cascade minus its accept stage, on every pair)."""

    def test_answers_match_old_filter_list(self, monkeypatch):
        trees = clustered_corpus(
            num_clusters=10, cluster_size=6, tree_size=14, num_edits=2, rng=17
        )
        corpus = TreeCorpus(trees)
        default = QueryEngine(corpus)
        legacy = QueryEngine(corpus)
        old_list = [stage for stage in default_cascade() if not stage.is_accept_stage]
        monkeypatch.setattr(
            legacy._planner, "filters", lambda refiner, **kwargs: PairFilters(old_list)
        )
        gate = default._refiner(default._query_corpus(trees[0]), corpus).small_pair_gate()
        assert gate is not None and gate(
            np.zeros(len(trees), dtype=np.int64), np.arange(len(trees))
        ).all()
        for q in (0, 11, 23, 40):
            query = trees[q]
            for k in (1, 5, 12):
                assert default.knn(query, k).matches == legacy.knn(query, k).matches
            for threshold in (1.0, 3.0, 5.0):
                new = default.range_query(query, threshold)
                old = legacy.range_query(query, threshold)
                assert new.matches == old.matches
                assert "traversal-string" not in new.stats.stage_pruned
