"""Tests for the similarity join (``batch_similarity_join``).

Every match set is compared against a per-pair :class:`SimpleTED` loop, the
independent oracle, so the filter cascade and the bounded verifier are
checked for soundness, not just for self-consistency.
"""

import pytest

from repro.algorithms import SimpleTED, make_algorithm
from repro.bounds import cheap_lower_bound
from repro.costs import WeightedCostModel
from repro.datasets import perturb_tree, random_tree
from repro.io import parse_bracket
from repro.join import batch_self_join, batch_similarity_join

ORACLE = SimpleTED()


@pytest.fixture
def collection():
    base = random_tree(20, rng=1)
    return [
        base,
        perturb_tree(base, 1, rng=2),
        perturb_tree(base, 2, rng=3),
        random_tree(20, rng=99),
    ]


def _oracle_matches(trees_a, threshold, trees_b=None, cost_model=None):
    """``{(i, j): distance}`` of every pair with ``TED < threshold``, by SimpleTED."""
    if trees_b is None:
        pairs = [(i, j) for i in range(len(trees_a)) for j in range(i + 1, len(trees_a))]
        trees_b = trees_a
    else:
        pairs = [(i, j) for i in range(len(trees_a)) for j in range(len(trees_b))]
    found = {}
    for i, j in pairs:
        distance = ORACLE.distance(trees_a[i], trees_b[j], cost_model=cost_model)
        if distance < threshold:
            found[(i, j)] = distance
    return found


class TestSelfJoin:
    def test_matches_respect_threshold(self, collection):
        result = batch_self_join(collection, 3.5, algorithm="zhang-l", early_accept=False)
        expected = _oracle_matches(collection, 3.5)
        assert result.match_set == set(expected)
        for i, j, distance in result.matches:
            assert distance == expected[(i, j)]

    def test_pair_counting(self, collection):
        result = batch_self_join(collection, 2.0, algorithm="zhang-l", use_cascade=False)
        stats = result.stats
        assert stats.pairs_total == 6
        assert stats.exact_computed == 6
        assert stats.total_subproblems > 0
        assert stats.total_time >= 0.0

    def test_rted_and_zhang_produce_identical_matches(self, collection):
        zhang = batch_self_join(collection, 4.0, algorithm="zhang-l")
        rted = batch_self_join(collection, 4.0, algorithm="rted")
        assert zhang.match_set == rted.match_set == set(_oracle_matches(collection, 4.0))

    def test_cascade_preserves_result(self, collection):
        unfiltered = batch_self_join(collection, 3.0, algorithm="zhang-l", use_cascade=False)
        filtered = batch_self_join(collection, 3.0, algorithm="zhang-l")
        assert unfiltered.match_set == filtered.match_set == set(
            _oracle_matches(collection, 3.0)
        )
        stats = filtered.stats
        assert stats.exact_computed + stats.accepted_early <= stats.pairs_total

    def test_filter_reduces_work_for_dissimilar_trees(self):
        trees = [parse_bracket("{a{b}{c}}"), parse_bracket("{x{y{z{w{v}}}}}")]
        result = batch_self_join(trees, 1.0, algorithm="zhang-l")
        assert result.match_set == set()
        assert result.stats.exact_computed == 0

    def test_algorithm_instance_accepted(self, collection):
        result = batch_self_join(collection, 2.0, algorithm=make_algorithm("zhang-l"))
        assert result.algorithm == "Zhang-L"
        assert result.match_set == set(_oracle_matches(collection, 2.0))


class TestFilterCostModelSoundness:
    """The filters must scale their unit-cost bounds by the cost model: with
    operation costs below 1, a unit-cost bound that reaches τ does not prove
    that the true distance does."""

    def test_fractional_costs_do_not_lose_matches(self):
        tree_a = parse_bracket("{a{b}{c}}")
        tree_b = parse_bracket("{a}")
        cm = WeightedCostModel(0.4, 0.4, 0.4)
        threshold = 1.0
        # The unit-cost bound reaches τ, but the true distance under the
        # model is below it.
        assert cheap_lower_bound(tree_a, tree_b) >= threshold
        exact = make_algorithm("zhang-l").distance(tree_a, tree_b, cost_model=cm)
        assert exact == pytest.approx(0.8)
        assert exact < threshold

        result = batch_self_join(
            [tree_a, tree_b], threshold, algorithm="zhang-l", cost_model=cm
        )
        assert result.match_set == {(0, 1)}

    def test_fractional_costs_with_and_without_cascade(self, collection):
        cm = WeightedCostModel(0.5, 0.5, 0.5)
        expected = set(_oracle_matches(collection, 2.0, cost_model=cm))
        for use_cascade in (True, False):
            result = batch_self_join(
                collection, 2.0, algorithm="zhang-l", cost_model=cm, use_cascade=use_cascade
            )
            assert result.match_set == expected

    def test_unit_costs_still_filter(self):
        trees = [parse_bracket("{a{b}{c}}"), parse_bracket("{x{y{z{w{v}}}}}")]
        result = batch_self_join(trees, 1.0, algorithm="zhang-l")
        stats = result.stats
        assert stats.index_pruned + sum(stats.stage_pruned.values()) == 1


class TestCrossJoin:
    def test_join_of_two_collections(self, collection):
        left, right = collection[:2], collection[2:]
        result = batch_similarity_join(
            left, 5.0, corpus_b=right, algorithm="zhang-l", early_accept=False
        )
        assert result.stats.pairs_total == 4
        expected = _oracle_matches(left, 5.0, trees_b=right)
        assert result.match_set == set(expected)
        for i, j, distance in result.matches:
            assert distance == expected[(i, j)]
            assert 0 <= i < 2 and 0 <= j < 2
