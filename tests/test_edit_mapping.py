"""Tests for edit mappings and edit scripts.

The mapping's table comes from the ``spf`` executor, so distances are
checked against the independent oracle :class:`SimpleTED`.
"""

import pytest
from hypothesis import given, settings

from repro.algorithms import SimpleTED, compute_edit_mapping, mapping_cost
from repro.costs import UnitCostModel, WeightedCostModel
from repro.datasets import make_shape, random_tree
from repro.io import parse_bracket

from conftest import random_tree_pairs, tree_pairs

ORACLE = SimpleTED()

#: Shape-family pairs with F ≠ G: zigzags and left/right branches, whose
#: long spines give the backtrace long chains of composite cells.
SHAPE_PAIRS = [
    (make_shape("zigzag", 15), make_shape("left-branch", 13)),
    (make_shape("right-branch", 14), make_shape("zigzag", 12, label="b")),
    (make_shape("left-branch", 11), make_shape("right-branch", 15)),
    (make_shape("zigzag", 16), random_tree(12, rng=3)),
    (random_tree(13, rng=4), make_shape("right-branch", 13)),
]


class TestMappingOnExamples:
    def test_identical_trees_map_every_node(self):
        tree = parse_bracket("{a{b{c}}{d}}")
        mapping = compute_edit_mapping(tree, tree)
        assert mapping.cost == 0.0
        assert len(mapping.matches) == tree.n
        assert mapping.deletions == [] and mapping.insertions == []

    def test_single_rename_is_reported(self):
        t1 = parse_bracket("{a{b}{c}}")
        t2 = parse_bracket("{a{b}{x}}")
        mapping = compute_edit_mapping(t1, t2)
        script = mapping.to_edit_script(t1, t2, UnitCostModel())
        renames = [op for op in script if op.op == "rename"]
        assert len(renames) == 1
        assert renames[0].source_label == "c" and renames[0].target_label == "x"

    def test_deletion_is_reported(self):
        t1 = parse_bracket("{a{b}{c}}")
        t2 = parse_bracket("{a{b}}")
        mapping = compute_edit_mapping(t1, t2)
        assert len(mapping.deletions) == 1
        assert mapping.insertions == []
        assert mapping.cost == 1.0

    def test_insertion_is_reported(self):
        t1 = parse_bracket("{a{b}}")
        t2 = parse_bracket("{a{b}{c}}")
        mapping = compute_edit_mapping(t1, t2)
        assert len(mapping.insertions) == 1
        assert mapping.cost == 1.0

    def test_edit_script_operations_are_printable(self):
        t1 = parse_bracket("{a{b}{c}}")
        t2 = parse_bracket("{x{b}{c}{d}}")
        script = compute_edit_mapping(t1, t2).to_edit_script(t1, t2, UnitCostModel())
        for operation in script:
            assert str(operation)
        kinds = {operation.op for operation in script}
        assert "rename" in kinds and "insert" in kinds


class TestMappingValidity:
    def test_mapping_cost_equals_distance_on_random_pairs(self):
        for tree_f, tree_g in random_tree_pairs(count=20, max_size=15, seed=23):
            mapping = compute_edit_mapping(tree_f, tree_g)
            distance = ORACLE.distance(tree_f, tree_g)
            assert mapping.cost == pytest.approx(distance)
            assert mapping_cost(mapping, tree_f, tree_g) == pytest.approx(distance)

    def test_mapping_is_a_valid_tree_mapping(self):
        for tree_f, tree_g in random_tree_pairs(count=15, max_size=12, seed=29):
            mapping = compute_edit_mapping(tree_f, tree_g)
            assert mapping.is_valid_mapping(tree_f, tree_g)

    @given(tree_pairs())
    @settings(max_examples=30, deadline=None)
    def test_property_mapping_cost_equals_distance(self, pair):
        tree_f, tree_g = pair
        mapping = compute_edit_mapping(tree_f, tree_g)
        assert mapping.cost == pytest.approx(ORACLE.distance(tree_f, tree_g))
        assert mapping_cost(mapping, tree_f, tree_g) == pytest.approx(mapping.cost)
        assert mapping.is_valid_mapping(tree_f, tree_g)

    def test_weighted_cost_mapping(self):
        t1 = parse_bracket("{a{b}{c}}")
        t2 = parse_bracket("{a{c}{d}}")
        model = WeightedCostModel(delete_cost=1.0, insert_cost=1.0, rename_cost=0.4)
        mapping = compute_edit_mapping(t1, t2, cost_model=model)
        distance = ORACLE.distance(t1, t2, cost_model=model)
        assert mapping_cost(mapping, t1, t2, cost_model=model) == pytest.approx(distance)


class TestExactBacktrace:
    """The backtrace compares candidates with exact float equality.

    An absolute epsilon (the previous implementation used 1e-9) mis-selects
    branches whenever operation costs sit at or below the tolerance — every
    comparison looks like a tie, so the walk degenerates into deletes and
    inserts — and can over-match for large-magnitude costs where distinct
    sums lie closer together than the tolerance.

    The cost models are chosen dyadic (powers of two) so that sums are
    exact floats regardless of association and the equality assertions below
    are deterministic, not approximate.
    """

    MODELS = [
        ("unit", UnitCostModel()),
        ("fractional", WeightedCostModel(0.5, 0.25, 0.5)),
        ("tiny", WeightedCostModel(2.0 ** -40, 2.0 ** -40, 2.0 ** -41)),
        ("huge", WeightedCostModel(2.0 ** 30, 2.0 ** 30, 2.0 ** 20)),
    ]

    @pytest.mark.parametrize("name,model", MODELS, ids=[m[0] for m in MODELS])
    def test_property_mapping_cost_equals_distance_exactly(self, name, model):
        pairs = random_tree_pairs(count=25, max_size=14, seed=101) + SHAPE_PAIRS
        for tree_f, tree_g in pairs:
            mapping = compute_edit_mapping(tree_f, tree_g, cost_model=model)
            distance = ORACLE.distance(tree_f, tree_g, cost_model=model)
            assert mapping.cost == distance
            assert mapping_cost(mapping, tree_f, tree_g, cost_model=model) == distance
            assert mapping.is_valid_mapping(tree_f, tree_g)

    def test_tiny_costs_still_prefer_matches(self):
        # With every operation costing 2^-40, identical trees must map
        # node-for-node at cost 0 — the epsilon backtrace collapsed this
        # into a full delete+insert script instead.
        tree = parse_bracket("{a{b{c}}{d}{e}}")
        model = WeightedCostModel(2.0 ** -40, 2.0 ** -40, 2.0 ** -40)
        mapping = compute_edit_mapping(tree, tree, cost_model=model)
        assert mapping.cost == 0.0
        assert len(mapping.matches) == tree.n
        assert mapping.deletions == [] and mapping.insertions == []
