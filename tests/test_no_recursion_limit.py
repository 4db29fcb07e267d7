"""Production paths must never mutate the process-global recursion limit.

PR 2 made every ``auto``-engine distance recursion-free; this extends the
monkeypatch-forbid guarantee to the remaining production helpers — bracket
I/O, the distance bounds, ASCII rendering and edit-mapping extraction — which
used to widen ``sys.setrecursionlimit`` around recursive traversals (a
thread-hostile mutation for a service).  Only the cross-check oracles
(``algorithms/simple.py``, ``algorithms/forest_engine.py``,
``counting/cost_formula.py``) remain exempt.
"""

import sys

import pytest

from repro.algorithms.edit_mapping import compute_edit_mapping, mapping_cost
from repro.algorithms.zhang_shasha import zhang_shasha_distance
from repro.bounds import pq_gram_profile, top_down_upper_bound, trivial_upper_bound
from repro.costs import UNIT_COST, WeightedCostModel
from repro.datasets import random_tree
from repro.io.bracket import parse_bracket, to_bracket
from repro.join import batch_self_join
from repro.trees import Node, Tree
from repro.visualize import render_mapping, render_outline, render_tree

DEPTH = 5000


def _path_tree(depth: int, label: object = "a") -> Tree:
    node = Node(label)
    for _ in range(depth - 1):
        node = Node(label, [node])
    return Tree(node)


@pytest.fixture
def forbid_recursion_limit(monkeypatch):
    def forbidden(limit):  # pragma: no cover - would fail the test
        raise AssertionError("sys.setrecursionlimit must not be touched")

    monkeypatch.setattr(sys, "setrecursionlimit", forbidden)


@pytest.fixture
def deep_tree(forbid_recursion_limit) -> Tree:
    return _path_tree(DEPTH)


class TestIterativeHelpers:
    def test_bracket_round_trip_on_deep_tree(self, forbid_recursion_limit):
        text = "{a" * DEPTH + "}" * DEPTH
        tree = parse_bracket(text)
        assert tree.n == DEPTH
        assert to_bracket(tree) == text

    def test_pq_gram_profile_on_deep_tree(self, deep_tree):
        profile = pq_gram_profile(deep_tree)
        # A unary chain yields 3 grams per internal node (q = 3) plus the leaf.
        assert sum(profile.values()) == 3 * (DEPTH - 1) + 1

    def test_upper_bounds_on_deep_trees(self, deep_tree):
        other = _path_tree(DEPTH - 3, label="b")
        upper = top_down_upper_bound(deep_tree, other)
        assert upper <= trivial_upper_bound(deep_tree, other)
        assert upper >= abs(deep_tree.n - other.n)

    def test_render_on_deep_tree(self, deep_tree):
        assert len(render_tree(deep_tree).splitlines()) == DEPTH
        assert render_tree(deep_tree, max_nodes=10).endswith("…")
        assert render_outline(deep_tree).count("(") == DEPTH - 1


class TestDeepEditMapping:
    def test_mapping_extraction_on_5000_deep_path_tree(self, deep_tree):
        """Acceptance: edit_mapping on a 5000-deep path tree at the default
        recursion limit, with sys.setrecursionlimit forbidden end to end."""
        bushy = random_tree(30, rng=7)
        expected = zhang_shasha_distance(deep_tree, bushy, UNIT_COST)[0]
        mapping = compute_edit_mapping(deep_tree, bushy)
        assert mapping.cost == pytest.approx(expected)
        assert mapping_cost(mapping, deep_tree, bushy) == pytest.approx(expected)
        covered = {v for v, _ in mapping.matches} | set(mapping.deletions)
        assert len(covered) == deep_tree.n

    def test_mapping_between_two_deep_trees(self, forbid_recursion_limit):
        # Deep × deep exercises the worklist over long backtrace chains;
        # 1500 keeps the O(n·m) tables fast while still far beyond the
        # default interpreter recursion limit.
        left = _path_tree(1500)
        right = _path_tree(1498, label="b")
        cm = WeightedCostModel(1.0, 1.0, 0.5)
        expected = zhang_shasha_distance(left, right, cm)[0]
        mapping = compute_edit_mapping(left, right, cost_model=cm)
        assert mapping.cost == pytest.approx(expected)
        assert mapping_cost(mapping, left, right, cost_model=cm) == pytest.approx(expected)

    def test_render_mapping_on_deep_tree(self, forbid_recursion_limit):
        deep = _path_tree(1500)
        other = _path_tree(1499, label="b")
        mapping = compute_edit_mapping(deep, other)
        rendered = render_mapping(deep, other, mapping)
        assert len(rendered.splitlines()) >= 1500


class TestJoinPipelineRecursionFree:
    def test_batch_join_with_deep_trees(self, forbid_recursion_limit):
        trees = [
            _path_tree(1200),
            _path_tree(1199),
            _path_tree(1180, label="b"),
            random_tree(40, rng=3),
        ]
        result = batch_self_join(trees, 3.0, algorithm="zhang-l")
        off = batch_self_join(trees, 3.0, algorithm="zhang-l", use_cascade=False)
        assert result.match_set == off.match_set == {(0, 1)}


class TestWorkspacePathRecursionFree:
    """The amortized workspace layer must stay iterative end to end."""

    def test_workspace_rted_on_5000_deep_tree(self, deep_tree):
        """Acceptance: a workspace-backed RTED distance involving a
        5000-deep path tree at the default recursion limit, with
        sys.setrecursionlimit forbidden end to end."""
        from repro.algorithms import TedWorkspace, make_algorithm
        from repro.algorithms.zhang_shasha import zhang_shasha_distance

        # Both sweeps of this pair (5000 · 231 and 5000 · 255 cells) exceed
        # the small-pair budget, so it runs RTED's spf path, whose cached
        # frames are what this test exercises.
        bushy = random_tree(70, rng=9)
        workspace = TedWorkspace()
        algorithm = make_algorithm("rted", workspace=workspace)
        expected = zhang_shasha_distance(deep_tree, bushy, UNIT_COST)[0]
        # Twice: the second run exercises the cache-hit (reused frames,
        # pooled matrix) path on the same deep tree.
        assert algorithm.compute(deep_tree, bushy).distance == expected
        assert algorithm.compute(deep_tree, bushy).distance == expected
        assert workspace.stats.frame_hits > 0
        assert workspace.stats.small_pair_runs == 0

    def test_workspace_small_pair_kernel_on_deep_chains(self, forbid_recursion_limit):
        from repro.algorithms import TedWorkspace, make_algorithm
        from repro.join import batch_distances

        # Path trees under the small-pair cutoff run the flat unit kernel;
        # everything stays loop-based regardless of depth/shape mix.
        trees = [_path_tree(60), _path_tree(59), _path_tree(58, label="b"), random_tree(30, rng=5)]
        workspace = TedWorkspace()
        pairs = [(i, j) for i in range(len(trees)) for j in range(i + 1, len(trees))]
        on = batch_distances(trees, None, pairs, workspace=workspace)
        off = batch_distances(trees, None, pairs, workspace=False)
        assert [(i, j, d) for i, j, d, _ in on] == [(i, j, d) for i, j, d, _ in off]
        assert workspace.stats.small_pair_runs == len(pairs)
