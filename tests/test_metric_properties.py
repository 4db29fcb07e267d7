"""Property-based tests of the metric axioms of the unit-cost tree edit distance."""

import pytest
from hypothesis import given, settings

from repro.algorithms import RTED, make_algorithm
from repro.datasets import perturb_tree, random_tree

from conftest import tree_pairs, trees

EXACT = make_algorithm("zhang-l")


class TestMetricAxioms:
    @given(trees())
    @settings(max_examples=40, deadline=None)
    def test_identity(self, tree):
        assert EXACT.distance(tree, tree) == 0.0

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_non_negativity(self, pair):
        tree_f, tree_g = pair
        assert EXACT.distance(tree_f, tree_g) >= 0.0

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_symmetry_under_unit_costs(self, pair):
        tree_f, tree_g = pair
        assert EXACT.distance(tree_f, tree_g) == pytest.approx(EXACT.distance(tree_g, tree_f))

    @given(trees(), trees(), trees())
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, tree_a, tree_b, tree_c):
        ab = EXACT.distance(tree_a, tree_b)
        bc = EXACT.distance(tree_b, tree_c)
        ac = EXACT.distance(tree_a, tree_c)
        assert ac <= ab + bc + 1e-9

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_zero_distance_implies_structural_equality(self, pair):
        tree_f, tree_g = pair
        if EXACT.distance(tree_f, tree_g) == 0.0:
            assert tree_f.structurally_equal(tree_g)

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_distance_bounded_by_total_size(self, pair):
        tree_f, tree_g = pair
        assert EXACT.distance(tree_f, tree_g) <= tree_f.n + tree_g.n


class TestPerturbationBounds:
    @pytest.mark.parametrize("edits", [1, 2, 4])
    def test_k_edits_give_distance_at_most_k(self, edits):
        base = random_tree(30, rng=edits)
        modified = perturb_tree(base, edits, rng=edits + 100)
        assert EXACT.distance(base, modified) <= edits

    def test_rted_agrees_on_perturbed_pairs(self):
        base = random_tree(25, rng=5)
        modified = perturb_tree(base, 3, rng=6)
        assert RTED().distance(base, modified) == pytest.approx(EXACT.distance(base, modified))
