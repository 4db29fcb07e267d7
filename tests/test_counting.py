"""Tests for the subproblem counting machinery (cost formula, Lemmas 1-3)."""

import itertools

import pytest
from hypothesis import given, settings

from repro.counting import (
    count_subproblems,
    demaine_count,
    full_decomposition_size,
    full_decomposition_size_enumerated,
    klein_count,
    optimal_cost_bruteforce,
    optimal_cost_restricted,
    recursive_decomposition_size,
    recursive_decomposition_size_enumerated,
    relevant_subtree_counts,
    rted_count,
    single_path_subforest_count,
    single_path_subforest_count_enumerated,
    strategy_cost,
    zhang_left_count,
    zhang_right_count,
)
from repro.algorithms import PathChoice, SIDE_F, SIDE_G, make_algorithm
from repro.exceptions import UnknownAlgorithmError
from repro.datasets import (
    full_binary_tree,
    left_branch_tree,
    make_shape,
    random_tree,
    right_branch_tree,
    zigzag_tree,
)
from repro.trees import HEAVY, LEFT, RIGHT, tree_from_nested

from conftest import tree_pairs, trees


class TestLemmas:
    @given(trees())
    @settings(max_examples=30, deadline=None)
    def test_lemma1_closed_form(self, tree):
        assert full_decomposition_size(tree) == full_decomposition_size_enumerated(tree)

    @given(trees())
    @settings(max_examples=30, deadline=None)
    def test_lemma2_single_path_count(self, tree):
        for kind in (LEFT, RIGHT, HEAVY):
            assert single_path_subforest_count(tree, tree.root, kind) == tree.n
            assert single_path_subforest_count_enumerated(tree, tree.root, kind) == tree.n

    @given(trees())
    @settings(max_examples=30, deadline=None)
    def test_lemma3_recursive_decomposition(self, tree):
        for kind in (LEFT, RIGHT):
            assert recursive_decomposition_size(tree, kind) == (
                recursive_decomposition_size_enumerated(tree, kind)
            )

    def test_relevant_subtree_counts(self):
        tree = tree_from_nested(("a", ["b", ("c", ["d", "e"]), "f"]))
        counts = relevant_subtree_counts(tree)
        assert counts[LEFT][tree.root] == 2
        assert counts[HEAVY][tree.root] == 3
        assert counts[LEFT][0] == 0  # a leaf has no relevant subtrees

    def test_heavy_decomposition_size_defined(self):
        tree = full_binary_tree(15)
        assert recursive_decomposition_size(tree, HEAVY) >= tree.n

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            recursive_decomposition_size(full_binary_tree(7), "diagonal")


class TestCostFormulaKnownValues:
    """Closed-form sanity checks against the analysis in the paper."""

    def test_left_branch_zhang_l_is_quadratic(self):
        # For the LB shape Zhang-L computes ~ (n+1)^2/4 * ... exactly
        # |F(F,ΓL)| = n for this shape, so the count is n * n-ish; in any case
        # it must be far below the Zhang-R count, which is cubic.
        tree = left_branch_tree(101)
        left = zhang_left_count(tree, tree)
        right = zhang_right_count(tree, tree)
        assert left < right / 50

    def test_right_branch_mirrors_left_branch(self):
        left_tree = left_branch_tree(61)
        right_tree = right_branch_tree(61)
        assert zhang_left_count(left_tree, left_tree) == zhang_right_count(
            right_tree, right_tree
        )
        assert zhang_right_count(left_tree, left_tree) == zhang_left_count(
            right_tree, right_tree
        )

    def test_zigzag_demaine_beats_zhang(self):
        tree = zigzag_tree(81)
        assert demaine_count(tree, tree) < zhang_left_count(tree, tree)
        assert demaine_count(tree, tree) < zhang_right_count(tree, tree)

    def test_full_binary_zhang_beats_klein_and_demaine(self):
        tree = full_binary_tree(63)
        zhang = zhang_left_count(tree, tree)
        assert zhang < klein_count(tree, tree)
        assert zhang < demaine_count(tree, tree)

    def test_rted_wins_or_ties_everywhere(self):
        for shape in ["left-branch", "right-branch", "full-binary", "zigzag", "mixed"]:
            tree = make_shape(shape, 41)
            best_competitor = min(
                zhang_left_count(tree, tree),
                zhang_right_count(tree, tree),
                klein_count(tree, tree),
                demaine_count(tree, tree),
            )
            assert rted_count(tree, tree) <= best_competitor

    def test_single_node_pair_costs_one(self):
        tree = tree_from_nested("a")
        assert rted_count(tree, tree) == 1
        assert zhang_left_count(tree, tree) == 1


def _demaine_reference(tree_f, tree_g):
    """Demaine-H's count by the memoized cost-formula recursion."""
    heavy_f, heavy_g = PathChoice(SIDE_F, HEAVY), PathChoice(SIDE_G, HEAVY)
    return strategy_cost(
        tree_f,
        tree_g,
        lambda v, w: heavy_f if tree_f.sizes[v] >= tree_g.sizes[w] else heavy_g,
    )


class TestFlatScansMatchReferences:
    """``demaine_count`` and ``rted_count`` scan every pair flat; the
    memoized recursion with the Demaine chooser and the brute-force optimum
    evaluate Figure 5 directly."""

    def _assert_references(self, tree_f, tree_g):
        assert count_subproblems("demaine-h", tree_f, tree_g) == _demaine_reference(
            tree_f, tree_g
        )
        assert count_subproblems("rted", tree_f, tree_g) == optimal_cost_bruteforce(
            tree_f, tree_g
        )

    @given(tree_pairs())
    @settings(max_examples=30, deadline=None)
    def test_flat_scans_match_references(self, pair):
        self._assert_references(*pair)

    @pytest.mark.parametrize(
        "shape_f", ["left-branch", "right-branch", "full-binary", "zigzag", "mixed"]
    )
    def test_flat_scans_match_references_on_shapes(self, shape_f):
        self._assert_references(make_shape(shape_f, 37), make_shape("zigzag", 29))

    def test_asymmetric_pairs(self):
        self._assert_references(random_tree(25, rng=1), random_tree(40, rng=2))

    def test_unknown_algorithm_rejected(self):
        tree = random_tree(5, rng=1)
        with pytest.raises(UnknownAlgorithmError):
            count_subproblems("tai-1979", tree, tree)


class TestMeasuredCountsEqualFormula:
    """The paper's cost formula on F ≠ G: the forest-distance cells Zhang-L
    and Zhang-R evaluate equal ``count_subproblems`` for every shape pair."""

    SHAPES = ["left-branch", "right-branch", "full-binary", "zigzag", "mixed"]

    @pytest.mark.parametrize("name", ["zhang-l", "zhang-r"])
    def test_shape_pairs(self, name):
        algorithm = make_algorithm(name)
        for shape_f, shape_g in itertools.product(self.SHAPES, repeat=2):
            tree_f = make_shape(shape_f, 29)
            tree_g = make_shape(shape_g, 22)
            measured = algorithm.compute(tree_f, tree_g).subproblems
            assert measured == count_subproblems(name, tree_f, tree_g), (shape_f, shape_g)


class TestRestrictedOptimum:
    def test_restriction_never_improves(self):
        tree = make_shape("mixed", 33)
        full = rted_count(tree, tree)
        lr_only = optimal_cost_restricted(
            tree, tree, (PathChoice(SIDE_F, LEFT), PathChoice(SIDE_F, RIGHT))
        )
        heavy_only = optimal_cost_restricted(
            tree, tree, (PathChoice(SIDE_F, HEAVY), PathChoice(SIDE_G, HEAVY))
        )
        assert full <= lr_only
        assert full <= heavy_only

    def test_single_choice_restriction_equals_fixed_strategy(self):
        tree = make_shape("zigzag", 25)
        assert optimal_cost_restricted(
            tree, tree, (PathChoice(SIDE_F, LEFT),)
        ) == zhang_left_count(tree, tree)

    def test_empty_restriction_rejected(self):
        tree = make_shape("zigzag", 9)
        with pytest.raises(ValueError):
            optimal_cost_restricted(tree, tree, ())
