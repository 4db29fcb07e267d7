"""Tests for distance bounds: every lower bound ≤ exact TED ≤ every upper bound."""

import pytest
from hypothesis import given, settings

from repro.algorithms import make_algorithm
from repro.bounds import (
    binary_branch_distance,
    binary_branch_lower_bound,
    cheap_lower_bound,
    label_multiset_lower_bound,
    levenshtein,
    postorder_string_lower_bound,
    preorder_string_lower_bound,
    size_lower_bound,
    top_down_upper_bound,
    traversal_string_lower_bound,
    trivial_upper_bound,
)
from repro.costs import (
    CallableCostModel,
    CostModel,
    PerLabelCostModel,
    StringRenameCostModel,
    UnitCostModel,
    WeightedCostModel,
)
from repro.io import parse_bracket
from repro.datasets import perturb_tree, random_tree

from conftest import random_tree_pairs, tree_pairs

EXACT = make_algorithm("zhang-l")


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("abc", "abc") == 0

    def test_known_values(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein(list("ab"), list("ba")) == 2

    def test_symmetry(self):
        assert levenshtein("abcd", "xy") == levenshtein("xy", "abcd")


class TestSimpleBounds:
    def test_size_bound(self):
        t1 = parse_bracket("{a{b}{c}}")
        t2 = parse_bracket("{a}")
        assert size_lower_bound(t1, t2) == 2

    def test_label_multiset_bound(self):
        t1 = parse_bracket("{a{b}{c}}")
        t2 = parse_bracket("{a{x}{y}}")
        assert label_multiset_lower_bound(t1, t2) == 2

    def test_cheap_bound_is_max_of_both(self):
        t1 = parse_bracket("{a{b}{c}{d}}")
        t2 = parse_bracket("{x}")
        assert cheap_lower_bound(t1, t2) == max(
            size_lower_bound(t1, t2), label_multiset_lower_bound(t1, t2)
        )

    def test_identical_trees_have_zero_bounds(self):
        tree = parse_bracket("{a{b{c}}{d}}")
        assert cheap_lower_bound(tree, tree) == 0
        assert traversal_string_lower_bound(tree, tree) == 0
        assert binary_branch_distance(tree, tree) == 0

    def test_bound_reaches_distance_on_known_pair(self):
        # Deleting the root's second child and inserting c above the first
        # three children changes 10 binary branches: BBD / 5 == TED == 2.
        f = parse_bracket("{a{a}{a{b}}{a}{a}}")
        g = parse_bracket("{a{c{a}{b}{a}}{a}}")
        assert binary_branch_distance(f, g) == 10
        assert binary_branch_lower_bound(f, g) == EXACT.distance(f, g) == 2

    def test_bounds_package_exports_only_sound_bounds(self):
        import repro.bounds
        import repro.join

        for name in ("pq_gram_profile", "pq_gram_distance", "pq_gram_symmetric_difference"):
            assert not hasattr(repro.bounds, name)
        assert not hasattr(repro.join, "PQGramFilter")


class TestStringBounds:
    def test_preorder_bound_on_rename(self):
        t1 = parse_bracket("{a{b}{c}}")
        t2 = parse_bracket("{a{b}{x}}")
        assert preorder_string_lower_bound(t1, t2) == 1
        assert postorder_string_lower_bound(t1, t2) == 1

    def test_string_bounds_can_exceed_cheap_bounds(self):
        # Same label multiset, same size, but different arrangement.
        t1 = parse_bracket("{a{b{c}}{d}}")
        t2 = parse_bracket("{a{d{b}}{c}}")
        assert traversal_string_lower_bound(t1, t2) >= cheap_lower_bound(t1, t2)


class TestBinaryBranch:
    def test_binary_branch_profile_size(self):
        tree = parse_bracket("{a{b}{c}}")
        assert binary_branch_distance(tree, tree) == 0


def _tightest_lower_bound(tree_f, tree_g) -> float:
    """The largest of the unit-cost lower bounds (an operation count)."""
    return max(
        float(cheap_lower_bound(tree_f, tree_g)),
        float(traversal_string_lower_bound(tree_f, tree_g)),
        binary_branch_lower_bound(tree_f, tree_g),
    )


class TestSandwich:
    """lower bound ≤ exact distance ≤ upper bound, on many random pairs."""

    def test_sandwich_on_random_pairs(self):
        for tree_f, tree_g in random_tree_pairs(count=25, max_size=16, seed=37):
            exact = EXACT.distance(tree_f, tree_g)
            assert size_lower_bound(tree_f, tree_g) <= exact + 1e-9
            assert label_multiset_lower_bound(tree_f, tree_g) <= exact + 1e-9
            assert preorder_string_lower_bound(tree_f, tree_g) <= exact + 1e-9
            assert postorder_string_lower_bound(tree_f, tree_g) <= exact + 1e-9
            assert binary_branch_lower_bound(tree_f, tree_g) <= exact + 1e-9
            assert cheap_lower_bound(tree_f, tree_g) <= exact + 1e-9
            assert traversal_string_lower_bound(tree_f, tree_g) <= exact + 1e-9
            assert exact <= top_down_upper_bound(tree_f, tree_g) + 1e-9
            assert exact <= trivial_upper_bound(tree_f, tree_g) + 1e-9

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_sandwich_property_based(self, pair):
        tree_f, tree_g = pair
        exact = EXACT.distance(tree_f, tree_g)
        assert _tightest_lower_bound(tree_f, tree_g) <= exact + 1e-9
        assert exact <= top_down_upper_bound(tree_f, tree_g) + 1e-9

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_upper_bounds_ordered(self, pair):
        tree_f, tree_g = pair
        assert top_down_upper_bound(tree_f, tree_g) <= trivial_upper_bound(tree_f, tree_g) + 1e-9

    def test_bounds_tight_on_perturbed_trees(self):
        base = random_tree(40, rng=11)
        perturbed = perturb_tree(base, 3, rng=12)
        exact = EXACT.distance(base, perturbed)
        assert exact <= top_down_upper_bound(base, perturbed) + 1e-9
        # A small perturbation keeps the exact distance small; the upper bound
        # must not be wildly larger than delete-all/insert-all would suggest.
        assert top_down_upper_bound(base, perturbed) < trivial_upper_bound(base, perturbed)


class TestSandwichCustomCostModels:
    """The bound sandwich under non-unit cost models.

    The lower bounds count edit operations, so under a model with cheapest
    operation ``c = min_operation_cost()`` the sound statement is
    ``c · ops_bound ≤ exact ≤ upper bound``, with the upper bounds evaluated
    under the actual model (they are costs of explicit mappings).
    """

    COST_MODELS = [
        WeightedCostModel(0.4, 0.4, 0.4),
        WeightedCostModel(0.25, 1.0, 0.5),
        WeightedCostModel(2.0, 3.0, 1.5),
        PerLabelCostModel(
            delete_costs={"a": 0.2}, default_delete=0.7, default_insert=0.9, rename_cost=0.6
        ),
        StringRenameCostModel(),
    ]

    @pytest.mark.parametrize("cost_model", COST_MODELS, ids=lambda cm: repr(cm)[:40])
    def test_scaled_sandwich_on_random_pairs(self, cost_model):
        scale = cost_model.min_operation_cost()
        assert scale is not None and scale >= 0
        for tree_f, tree_g in random_tree_pairs(count=20, max_size=14, seed=53):
            exact = EXACT.distance(tree_f, tree_g, cost_model=cost_model)
            ops_bound = _tightest_lower_bound(tree_f, tree_g)
            assert scale * ops_bound <= exact + 1e-9
            assert exact <= top_down_upper_bound(tree_f, tree_g, cost_model) + 1e-9
            assert exact <= trivial_upper_bound(tree_f, tree_g, cost_model) + 1e-9

    def test_min_operation_cost_values(self):
        assert UnitCostModel().min_operation_cost() == 1.0
        assert WeightedCostModel(0.4, 0.7, 0.9).min_operation_cost() == pytest.approx(0.4)
        assert (
            PerLabelCostModel(
                insert_costs={"x": 0.1}, default_delete=2.0, default_insert=2.0
            ).min_operation_cost()
            == pytest.approx(0.1)
        )
        assert StringRenameCostModel().min_operation_cost() == 0.0
        assert CostModel().min_operation_cost() is None
        assert CallableCostModel(
            lambda _: 1.0, lambda _: 1.0, lambda a, b: 1.0
        ).min_operation_cost() is None
