"""Tests for the strategy-driven decomposition engine and GTED."""

import pytest

from repro.algorithms import (
    GTED,
    DecompositionEngine,
    HeavyFStrategy,
    HeavyLargerStrategy,
    LeftFStrategy,
    RightFStrategy,
    SimpleTED,
    make_algorithm,
    optimal_strategy,
)
from repro.counting import count_subproblems
from repro.costs import WeightedCostModel
from repro.datasets import left_branch_tree, make_shape, random_tree
from repro.io import parse_bracket


class TestEngineBasics:
    def test_distance_of_identical_trees_is_zero(self):
        tree = parse_bracket("{a{b{c}}{d}}")
        engine = DecompositionEngine(tree, tree, LeftFStrategy())
        assert engine.distance() == 0.0

    def test_distance_matches_zhang_shasha(self):
        t1 = parse_bracket("{a{b{x}{y}}{c}}")
        t2 = parse_bracket("{a{b{y}}{d{e}}}")
        expected = make_algorithm("zhang-l").distance(t1, t2)
        for strategy in [LeftFStrategy(), RightFStrategy(), HeavyFStrategy(), HeavyLargerStrategy()]:
            engine = DecompositionEngine(t1, t2, strategy)
            assert engine.distance() == pytest.approx(expected)

    def test_subproblem_counter_increases(self):
        t1 = parse_bracket("{a{b}{c}}")
        engine = DecompositionEngine(t1, t1, LeftFStrategy())
        engine.distance()
        assert engine.subproblems > 0

    def test_subtree_distance(self):
        t1 = parse_bracket("{a{b{x}}{c}}")
        t2 = parse_bracket("{q{b{x}}{c}}")
        engine = DecompositionEngine(t1, t2, LeftFStrategy())
        # The subtrees rooted at the 'b' nodes are identical.
        b_in_f = next(v for v in range(t1.n) if t1.labels[v] == "b")
        b_in_g = next(w for w in range(t2.n) if t2.labels[w] == "b")
        assert engine.subtree_distance(b_in_f, b_in_g) == 0.0

    def test_custom_cost_model(self):
        t1 = parse_bracket("{a{b}}")
        t2 = parse_bracket("{a}")
        model = WeightedCostModel(delete_cost=2.5)
        engine = DecompositionEngine(t1, t2, LeftFStrategy(), cost_model=model)
        assert engine.distance() == 2.5

    def test_deep_trees_do_not_hit_recursion_limit(self):
        tree = left_branch_tree(301)
        engine = DecompositionEngine(tree, tree, LeftFStrategy())
        assert engine.distance() == 0.0


class TestEngineFidelity:
    """For left-path strategies the engine evaluates exactly the subproblems
    counted by the cost formula (the Δ_L decomposition)."""

    @pytest.mark.parametrize("shape", ["left-branch", "full-binary", "zigzag", "mixed"])
    def test_left_strategy_matches_cost_formula(self, shape):
        tree = make_shape(shape, 33)
        engine = DecompositionEngine(tree, tree, LeftFStrategy())
        engine.distance()
        assert engine.subproblems == count_subproblems("zhang-l", tree, tree)

    def test_optimal_strategy_never_exceeds_left_strategy_work(self):
        tree = make_shape("zigzag", 41)
        left_engine = DecompositionEngine(tree, tree, LeftFStrategy())
        left_engine.distance()
        optimal = optimal_strategy(tree, tree)
        optimal_engine = DecompositionEngine(tree, tree, optimal.strategy)
        optimal_engine.distance()
        assert optimal_engine.subproblems <= left_engine.subproblems


class TestGTED:
    def test_gted_wraps_engine(self):
        t1 = parse_bracket("{a{b}{c}}")
        t2 = parse_bracket("{a{c}{d}}")
        result = GTED(LeftFStrategy()).compute(t1, t2)
        assert result.algorithm == "GTED(left-F)"
        assert result.distance == SimpleTED().distance(t1, t2)
        assert result.subproblems > 0

    def test_gted_accepts_custom_name(self):
        assert GTED(LeftFStrategy(), name="my-gted").name == "my-gted"

    def test_gted_with_precomputed_strategy_equals_rted(self):
        t1 = random_tree(15, rng=5)
        t2 = random_tree(13, rng=6)
        strategy = optimal_strategy(t1, t2).strategy
        gted_result = GTED(strategy, name="GTED(optimal)").compute(t1, t2)
        assert gted_result.distance == pytest.approx(SimpleTED().distance(t1, t2))
