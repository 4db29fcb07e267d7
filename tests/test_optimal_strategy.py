"""Tests for Algorithm 2 (OptStrategy) — the optimal LRH strategy in O(n^2)."""

import tracemalloc

import pytest
from hypothesis import given, settings

from repro.algorithms import (
    ALL_FIXED_CHOICES,
    EncodedStrategy,
    PathChoice,
    SIDE_F,
    SIDE_G,
    optimal_strategy,
)
from repro.counting import (
    count_subproblems,
    optimal_cost_bruteforce,
    rted_count,
    strategy_cost,
)
from repro.counting.cost_formula import _single_path_cost
from repro.datasets import (
    full_binary_tree,
    left_branch_tree,
    make_shape,
    random_tree,
    right_branch_tree,
    swissprot_like_tree,
    treebank_like_tree,
    zigzag_tree,
)
from repro.exceptions import ComputeTimeoutError
from repro.runtime import CancelToken, Deadline, deadline_scope
from repro.trees import HEAVY, LEFT, RIGHT, tree_from_nested

from conftest import tree_pairs

#: Shallow, wide pairs: few height levels, many subtree pairs on each.
BUSHY_PAIRS = {
    "flat-random": lambda: (
        random_tree(40, rng=1, max_depth=2, max_fanout=12),
        random_tree(36, rng=2, max_depth=2, max_fanout=12),
    ),
    "swissprot": lambda: (
        swissprot_like_tree(rng=3, target_size=40),
        swissprot_like_tree(rng=4, target_size=36),
    ),
    "treebank": lambda: (
        treebank_like_tree(rng=5, target_size=40),
        treebank_like_tree(rng=6, target_size=36),
    ),
}


class TestPaperExample4:
    """Example 4 of the paper: F has 3 nodes (root + 2 leaves), G has 2 (chain)."""

    def setup_method(self):
        self.tree_f = tree_from_nested(("3", ["1", "2"]))
        self.tree_g = tree_from_nested(("2", ["1"]))

    def test_optimal_cost_is_eight(self):
        # The paper computes all six candidate costs as 8 for the root pair.
        result = optimal_strategy(self.tree_f, self.tree_g)
        assert result.cost == 8

    def test_tie_breaks_to_heavy_path_in_f(self):
        # All candidates tie; the paper picks γ_H(F_3).
        result = optimal_strategy(self.tree_f, self.tree_g)
        root_choice = result.strategy.choose(
            self.tree_f, self.tree_g, self.tree_f.root, self.tree_g.root
        )
        assert root_choice == PathChoice(SIDE_F, HEAVY)

    def test_leaf_pairs_cost_one(self):
        result = optimal_strategy(self.tree_f, self.tree_g)
        assert result.costs[0][0] == 1


class TestOptimalityAgainstBruteForce:
    """Algorithm 2 must equal the direct evaluation of the cost formula."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_trees(self, seed):
        tree_f = random_tree(10 + seed, rng=seed, max_depth=6, max_fanout=4)
        tree_g = random_tree(8 + seed, rng=seed + 100, max_depth=6, max_fanout=4)
        assert rted_count(tree_f, tree_g) == optimal_cost_bruteforce(tree_f, tree_g)

    @pytest.mark.parametrize(
        "shape", ["left-branch", "right-branch", "full-binary", "zigzag", "mixed"]
    )
    def test_synthetic_shapes(self, shape):
        tree = make_shape(shape, 21)
        assert rted_count(tree, tree) == optimal_cost_bruteforce(tree, tree)

    @pytest.mark.parametrize("bushy", sorted(BUSHY_PAIRS))
    def test_bushy_trees(self, bushy):
        tree_f, tree_g = BUSHY_PAIRS[bushy]()
        assert rted_count(tree_f, tree_g) == optimal_cost_bruteforce(tree_f, tree_g)

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_property_based(self, pair):
        tree_f, tree_g = pair
        assert rted_count(tree_f, tree_g) == optimal_cost_bruteforce(tree_f, tree_g)


class TestOptimalityAgainstFixedStrategies:
    """The optimal cost can never exceed the cost of any fixed LRH strategy."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_trees(self, seed):
        tree_f = random_tree(12, rng=seed, max_depth=6, max_fanout=4)
        tree_g = random_tree(12, rng=seed + 50, max_depth=6, max_fanout=4)
        optimal = rted_count(tree_f, tree_g)
        for choice in ALL_FIXED_CHOICES:
            fixed = strategy_cost(tree_f, tree_g, lambda v, w, c=choice: c)
            assert optimal <= fixed

    @pytest.mark.parametrize("algorithm", ["zhang-l", "zhang-r", "klein-h", "demaine-h"])
    @pytest.mark.parametrize(
        "shape", ["left-branch", "right-branch", "full-binary", "zigzag", "mixed"]
    )
    def test_rted_never_worse_than_paper_competitors(self, algorithm, shape):
        tree = make_shape(shape, 41)
        assert rted_count(tree, tree) <= count_subproblems(algorithm, tree, tree)

    @given(tree_pairs())
    @settings(max_examples=30, deadline=None)
    def test_property_based_dominance(self, pair):
        tree_f, tree_g = pair
        optimal = rted_count(tree_f, tree_g)
        for algorithm in ["zhang-l", "zhang-r", "klein-h", "demaine-h"]:
            assert optimal <= count_subproblems(algorithm, tree_f, tree_g)


class TestAlgorithm2MatchesFigure5:
    """Every entry of Algorithm 2's result, re-derived from the cost
    formula: the six Figure 5 candidates of ``(v, w)`` are the
    single-path cost (Lemma 4) plus the result's own costs over the
    relevant subtrees; ``costs[v][w]`` must be their minimum and
    ``choice_codes[v][w]`` the first candidate attaining it."""

    @staticmethod
    def _assert_figure5(tree_f, tree_g, result):
        costs = [[int(value) for value in row] for row in result.costs]
        for v in range(tree_f.n):
            for w in range(tree_g.n):
                candidates = []
                for choice in ALL_FIXED_CHOICES:
                    total = _single_path_cost(tree_f, tree_g, v, w, choice)
                    if choice.side == SIDE_F:
                        total += sum(costs[x][w] for x in tree_f.relevant_subtrees(v, choice.kind))
                    else:
                        total += sum(costs[v][y] for y in tree_g.relevant_subtrees(w, choice.kind))
                    candidates.append(total)
                best = min(candidates)
                assert costs[v][w] == best
                assert int(result.choice_codes[v][w]) == candidates.index(best)
        assert result.cost == costs[tree_f.root][tree_g.root]

    def _check(self, tree_f, tree_g):
        self._assert_figure5(tree_f, tree_g, optimal_strategy(tree_f, tree_g))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_trees(self, seed):
        self._check(
            random_tree(6 + 2 * seed, rng=seed, max_depth=7, max_fanout=5),
            random_tree(5 + 2 * seed, rng=seed + 77, max_depth=7, max_fanout=5),
        )

    @pytest.mark.parametrize(
        "shape", ["left-branch", "right-branch", "full-binary", "zigzag", "mixed"]
    )
    def test_synthetic_shapes(self, shape):
        tree = make_shape(shape, 33)
        self._check(tree, tree)

    @pytest.mark.parametrize("bushy", sorted(BUSHY_PAIRS))
    def test_bushy_trees(self, bushy):
        self._check(*BUSHY_PAIRS[bushy]())

    @given(tree_pairs())
    @settings(max_examples=25, deadline=None)
    def test_property_based(self, pair):
        self._check(*pair)

    def test_single_node_edge_cases(self):
        one = random_tree(1, rng=0)
        other = random_tree(6, rng=1)
        for pair in ((one, one), (one, other), (other, one)):
            self._check(*pair)


class TestStrategyChoicesMatchShapes:
    """On the synthetic shapes the optimal strategy picks the expected paths."""

    def test_left_branch_prefers_left_paths(self):
        tree = left_branch_tree(41)
        result = optimal_strategy(tree, tree)
        assert rted_count(tree, tree) == count_subproblems("zhang-l", tree, tree)
        root_choice = result.strategy.choose(tree, tree, tree.root, tree.root)
        assert root_choice.kind in (LEFT, HEAVY)  # heavy == left path for this shape

    def test_right_branch_matches_zhang_r(self):
        tree = right_branch_tree(41)
        assert rted_count(tree, tree) == count_subproblems("zhang-r", tree, tree)

    def test_zigzag_matches_demaine(self):
        tree = zigzag_tree(41)
        assert rted_count(tree, tree) == count_subproblems("demaine-h", tree, tree)

    def test_full_binary_matches_zhang_l(self):
        tree = full_binary_tree(31)
        assert rted_count(tree, tree) == count_subproblems("zhang-l", tree, tree)

    def test_mixed_strictly_beats_every_competitor(self):
        tree = make_shape("mixed", 81)
        optimal = rted_count(tree, tree)
        for algorithm in ["zhang-l", "zhang-r", "klein-h", "demaine-h"]:
            assert optimal < count_subproblems(algorithm, tree, tree)


class TestStrategyMatrixShape:
    def test_matrix_dimensions_and_completeness(self):
        tree_f = random_tree(9, rng=3)
        tree_g = random_tree(7, rng=4)
        result = optimal_strategy(tree_f, tree_g)
        choices = result.strategy.as_matrix()
        assert len(choices) == tree_f.n
        assert all(len(row) == tree_g.n for row in choices)
        for row in choices:
            for choice in row:
                assert choice is not None
                assert choice.side in (SIDE_F, SIDE_G)
                assert choice.kind in (LEFT, RIGHT, HEAVY)

    def test_costs_matrix_monotone_in_subtree_size(self):
        tree = full_binary_tree(15)
        result = optimal_strategy(tree, tree)
        # The optimal cost of the root pair dominates that of any other pair.
        root_cost = result.costs[tree.root][tree.root]
        assert all(root_cost >= cost for row in result.costs for cost in row)

    def test_strategy_is_encoded(self):
        tree = random_tree(9, rng=2)
        strategy = optimal_strategy(tree, tree).strategy
        assert isinstance(strategy, EncodedStrategy)
        decoded = strategy.as_matrix()
        assert decoded[tree.root][tree.root] in ALL_FIXED_CHOICES
        assert strategy.choose(tree, tree, 0, 0) is decoded[0][0]


class TestFlatLoopFootprint:
    """Algorithm 2 holds the paper's arrays only: three ``int64`` cost-sum
    arrays, the ``int8`` strategy and the ``int64`` cost matrix — 33 bytes a
    pair — plus ``O(|G|)`` row temporaries, on deep and bushy pairs alike."""

    @pytest.mark.parametrize(
        "make_pair",
        [
            lambda: (zigzag_tree(300), zigzag_tree(299)),
            lambda: (random_tree(300, rng=1), random_tree(300, rng=2)),
            lambda: (full_binary_tree(511), full_binary_tree(511)),
            lambda: (
                swissprot_like_tree(rng=3, target_size=400),
                swissprot_like_tree(rng=4, target_size=400),
            ),
        ],
        ids=["zigzag-300", "random-300", "full-binary-511", "swissprot-400"],
    )
    def test_peak_bytes_per_pair(self, make_pair):
        tree_f, tree_g = make_pair()
        optimal_strategy(tree_f, tree_g)  # fill the per-tree caches
        tracemalloc.start()
        try:
            optimal_strategy(tree_f, tree_g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * tree_f.n * tree_g.n


class TestDeadline:
    def test_cancelled_token_stops_the_first_row(self):
        # Each row of F ticks the ambient deadline once, weighted by |G|;
        # a cancelled token raises from the first row's tick.
        ticks = []

        class RecordingDeadline(Deadline):
            def tick(self, weight=1):
                ticks.append(weight)
                super().tick(weight)

        tree_f, tree_g = random_tree(300, rng=1), random_tree(300, rng=2)
        token = CancelToken()
        token.cancel()
        with deadline_scope(RecordingDeadline(token=token)):
            with pytest.raises(ComputeTimeoutError, match="cancelled"):
                optimal_strategy(tree_f, tree_g)
        assert ticks == [tree_g.n]
