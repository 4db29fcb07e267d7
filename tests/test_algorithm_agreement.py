"""Integration tests: every algorithm computes the same distance.

The distance value is independent of the decomposition strategy, so all
implementations must agree with the independent oracle (SimpleTED) on every
input — the single most important invariant of the library.
"""

import pytest
from hypothesis import given, settings

from repro.algorithms import (
    GTED,
    RTED,
    HeavyFStrategy,
    HeavyGStrategy,
    HeavyLargerStrategy,
    LeftGStrategy,
    RightGStrategy,
    SimpleTED,
    make_algorithm,
)
from repro.costs import WeightedCostModel
from repro.datasets import make_shape

from conftest import random_tree_pairs, tree_pairs

ALL_ALGORITHMS = [
    make_algorithm("zhang-l"),
    make_algorithm("zhang-r"),
    make_algorithm("klein-h"),
    make_algorithm("demaine-h"),
    RTED(),
    GTED(LeftGStrategy(), name="GTED(left-G)"),
    GTED(RightGStrategy(), name="GTED(right-G)"),
    GTED(HeavyGStrategy(), name="GTED(heavy-G)"),
]

ORACLE = SimpleTED()

RANDOM_PAIRS = random_tree_pairs(count=25, max_size=13, seed=11)


class TestAgreementOnRandomTrees:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS, ids=lambda a: a.name)
    def test_unit_cost_agreement(self, algorithm):
        for tree_f, tree_g in RANDOM_PAIRS:
            expected = ORACLE.distance(tree_f, tree_g)
            assert algorithm.distance(tree_f, tree_g) == pytest.approx(expected), (
                f"{algorithm.name} disagrees with the oracle"
            )

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS, ids=lambda a: a.name)
    def test_weighted_cost_agreement(self, algorithm):
        model = WeightedCostModel(delete_cost=1.5, insert_cost=0.5, rename_cost=2.0)
        for tree_f, tree_g in RANDOM_PAIRS[:10]:
            expected = ORACLE.distance(tree_f, tree_g, cost_model=model)
            assert algorithm.distance(tree_f, tree_g, cost_model=model) == pytest.approx(expected)


class TestAgreementOnShapes:
    @pytest.mark.parametrize("shape", ["left-branch", "right-branch", "zigzag", "full-binary", "mixed"])
    def test_identical_shape_pairs_have_zero_distance(self, shape):
        tree = make_shape(shape, 25)
        for algorithm in ALL_ALGORITHMS:
            assert algorithm.distance(tree, tree) == 0.0

    @pytest.mark.parametrize("shape", ["left-branch", "zigzag", "mixed"])
    def test_cross_shape_agreement(self, shape):
        tree_a = make_shape(shape, 17)
        tree_b = make_shape("full-binary", 15, label="b")
        expected = ORACLE.distance(tree_a, tree_b)
        for algorithm in ALL_ALGORITHMS:
            assert algorithm.distance(tree_a, tree_b) == pytest.approx(expected)


class TestAgreementPropertyBased:
    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_rted_matches_oracle(self, pair):
        tree_f, tree_g = pair
        assert RTED().distance(tree_f, tree_g) == pytest.approx(ORACLE.distance(tree_f, tree_g))

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_zhang_shasha_matches_oracle(self, pair):
        tree_f, tree_g = pair
        assert make_algorithm("zhang-l").distance(tree_f, tree_g) == pytest.approx(
            ORACLE.distance(tree_f, tree_g)
        )

    @given(tree_pairs())
    @settings(max_examples=25, deadline=None)
    def test_demaine_matches_oracle(self, pair):
        tree_f, tree_g = pair
        assert make_algorithm("demaine-h").distance(tree_f, tree_g) == pytest.approx(
            ORACLE.distance(tree_f, tree_g)
        )


class TestHeavyPathRegistryEntries:
    """``klein-h`` / ``demaine-h`` are plain GTED runs of a fixed strategy."""

    @pytest.mark.parametrize(
        "name, label, strategy",
        [("klein-h", "Klein-H", HeavyFStrategy), ("demaine-h", "Demaine-H", HeavyLargerStrategy)],
    )
    def test_name_distance_and_subproblems(self, name, label, strategy):
        algorithm = make_algorithm(name)
        assert algorithm.name == label
        reference = GTED(strategy(), name=label)
        for tree_f, tree_g in RANDOM_PAIRS[:10]:
            got = algorithm.compute(tree_f, tree_g)
            want = reference.compute(tree_f, tree_g)
            assert got.algorithm == label
            assert got.distance == want.distance == ORACLE.distance(tree_f, tree_g)
            assert got.subproblems == want.subproblems
