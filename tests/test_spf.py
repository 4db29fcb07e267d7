"""Tests for the iterative single-path layer (spf, spf_numpy, StrategyExecutor).

The recursive :class:`DecompositionEngine` is the reference oracle; every
test here cross-checks the iterative SPFs and the strategy executor against
it (and, under unit costs, against the small-pair program — the C kernel,
which shares no code with ``spf``, or without a compiler the same keyroot
sweep through spf's scalar region kernel), on randomized tree pairs
with unit and non-unit cost models, and on deep path-shaped trees that the
recursive engine could only handle by raising the interpreter recursion
limit.
"""

import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from repro.algorithms import (
    GTED,
    RTED,
    DecompositionEngine,
    HeavyFStrategy,
    HeavyGStrategy,
    HeavyLargerStrategy,
    LeftFStrategy,
    LeftGStrategy,
    RightFStrategy,
    RightGStrategy,
    SIDE_F,
    SIDE_G,
    SinglePathContext,
    StrategyExecutor,
    TedWorkspace,
    make_algorithm,
    optimal_strategy,
    spf_A,
    spf_H,
    spf_L,
    spf_R,
)
from repro.algorithms import batch_kernel, spf_numpy
from repro.algorithms import workspace as workspace_module
from repro.costs import StringRenameCostModel, WeightedCostModel
from repro.datasets import random_tree
from repro.trees import HEAVY, LEFT, RIGHT, Node, Tree

from conftest import random_tree_pairs, small_pair_distance, tree_pairs


@pytest.fixture(params=["vector", "scalar"])
def kernel(request, monkeypatch):
    """Pin every region to one kernel family by moving the width thresholds.

    ``vector`` sends every keyroot table and boundary grid through the
    NumPy kernels of :mod:`repro.algorithms.spf_numpy`; ``scalar`` sends
    them all through ``_region_py`` (the one scalar keyroot kernel, for
    every cost model) and ``_inner_spine_py``, which by default run only
    the narrow tables.
    """
    width = 2 if request.param == "vector" else 10_000
    monkeypatch.setattr(spf_numpy, "MIN_VECTOR_COLS", width)
    monkeypatch.setattr(spf_numpy, "MIN_INNER_VECTOR_WIDTH", width)
    return request.param

#: 100 pairs for the left SPF + 100 pairs for the right SPF = the >= 200
#: randomized cross-checked pairs required of this layer.
SPF_PAIRS = random_tree_pairs(count=100, max_size=14, seed=20110713)

WEIGHTED = WeightedCostModel(delete_cost=1.5, insert_cost=0.5, rename_cost=2.0)


def _path_tree(depth: int, label: object = "a") -> Tree:
    """A linear (path-shaped) tree with ``depth`` edges, built iteratively."""
    node = Node(label)
    for _ in range(depth):
        node = Node(label, [node])
    return Tree(node)


class TestSinglePathFunctions:
    def test_spf_left_matches_recursive_engine(self, kernel):
        for tree_f, tree_g in SPF_PAIRS:
            expected = DecompositionEngine(tree_f, tree_g, LeftFStrategy()).distance()
            assert spf_L(tree_f, tree_g) == pytest.approx(expected)

    def test_spf_right_matches_recursive_engine(self, kernel):
        for tree_f, tree_g in SPF_PAIRS:
            expected = DecompositionEngine(tree_f, tree_g, RightFStrategy()).distance()
            assert spf_R(tree_f, tree_g) == pytest.approx(expected)

    def test_spf_left_matches_zhang_shasha(self):
        for tree_f, tree_g in SPF_PAIRS[:40]:
            expected = small_pair_distance(tree_f, tree_g)
            assert spf_L(tree_f, tree_g) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "cost_model", [WEIGHTED, StringRenameCostModel()], ids=["weighted", "string-rename"]
    )
    def test_non_unit_costs_match_recursive_engine(self, kernel, cost_model):
        for tree_f, tree_g in SPF_PAIRS[:25]:
            left = DecompositionEngine(
                tree_f, tree_g, LeftFStrategy(), cost_model=cost_model
            ).distance()
            right = DecompositionEngine(
                tree_f, tree_g, RightFStrategy(), cost_model=cost_model
            ).distance()
            assert spf_L(tree_f, tree_g, cost_model=cost_model) == (
                pytest.approx(left)
            )
            assert spf_R(tree_f, tree_g, cost_model=cost_model) == (
                pytest.approx(right)
            )

    def test_kernels_agree_with_each_other(self, monkeypatch):
        pairs = SPF_PAIRS[:30]
        monkeypatch.setattr(spf_numpy, "MIN_VECTOR_COLS", 2)
        vector = [(spf_L(f, g), spf_R(f, g)) for f, g in pairs]
        monkeypatch.setattr(spf_numpy, "MIN_VECTOR_COLS", 10_000)
        scalar = [(spf_L(f, g), spf_R(f, g)) for f, g in pairs]
        assert vector == scalar

    def test_subtree_pair_distances(self):
        """run() on inner subtree roots matches the engine's subtree_distance."""
        gen = random.Random(5)
        tree_f = random_tree(18, rng=gen)
        tree_g = random_tree(16, rng=gen)
        engine = DecompositionEngine(tree_f, tree_g, LeftFStrategy())
        for v in range(0, tree_f.n, 3):
            for w in range(0, tree_g.n, 3):
                context = SinglePathContext(tree_f, tree_g)
                got = context.run("F", "left", v, w)
                assert got == pytest.approx(engine.subtree_distance(v, w))

    def test_counts_cells(self):
        tree_f, tree_g = SPF_PAIRS[0]
        context = SinglePathContext(tree_f, tree_g)
        context.run("F", "left", tree_f.root, tree_g.root)
        assert context.cells > 0

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_property_spf_matches_zhang_shasha(self, pair):
        tree_f, tree_g = pair
        expected = small_pair_distance(tree_f, tree_g)
        assert spf_L(tree_f, tree_g) == pytest.approx(expected)
        assert spf_R(tree_f, tree_g) == pytest.approx(expected)


def _caterpillar(k: int, leaf_first: bool = False, label: object = "a") -> Tree:
    """A caterpillar: a spine of ``k`` nodes, each with one leaf child.

    With ``leaf_first=False`` the leaf hangs *after* the spine child, which
    makes every spine subtree end at a distinct chain position — the worst
    case for the inner-path row cache.
    """
    node = Node(label)
    for _ in range(k):
        if leaf_first:
            node = Node(label, [Node(label), node])
        else:
            node = Node(label, [node, Node(label)])
    return Tree(node)


class TestInnerPathFunctions:
    """The chain/grid single-path function Δ_A (heavy and arbitrary paths)."""

    def test_spf_heavy_matches_recursive_engine(self, kernel):
        # 100 pairs per kernel — together with the weighted/string-rename
        # sweeps below this layer is cross-checked on well over 200 pairs.
        for tree_f, tree_g in SPF_PAIRS:
            expected = DecompositionEngine(tree_f, tree_g, HeavyFStrategy()).distance()
            assert spf_H(tree_f, tree_g) == pytest.approx(expected)

    def test_spf_heavy_matches_zhang_shasha(self):
        for tree_f, tree_g in SPF_PAIRS[:40]:
            expected = small_pair_distance(tree_f, tree_g)
            assert spf_H(tree_f, tree_g) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "cost_model", [WEIGHTED, StringRenameCostModel()], ids=["weighted", "string-rename"]
    )
    def test_non_unit_costs_match_recursive_engine(self, kernel, cost_model):
        for tree_f, tree_g in SPF_PAIRS[:25]:
            expected = DecompositionEngine(
                tree_f, tree_g, HeavyFStrategy(), cost_model=cost_model
            ).distance()
            assert spf_H(
                tree_f, tree_g, cost_model=cost_model
            ) == pytest.approx(expected)

    def test_heavy_g_side(self, kernel):
        """Decomposing the right-hand tree exercises the transposed kernels."""
        for tree_f, tree_g in SPF_PAIRS[:25]:
            expected = DecompositionEngine(tree_f, tree_g, HeavyGStrategy()).distance()
            context = SinglePathContext(tree_f, tree_g)
            got = context.run_inner("G", HEAVY, tree_f.root, tree_g.root)
            assert got == pytest.approx(expected)

    @pytest.mark.parametrize("kind", [LEFT, RIGHT])
    def test_inner_left_right_agree_with_keyroot_spfs(self, kernel, kind):
        """Δ_A with a left/right path must equal the dedicated Δ_L / Δ_R."""
        keyroot = spf_L if kind == LEFT else spf_R
        for tree_f, tree_g in SPF_PAIRS[:30]:
            assert spf_A(tree_f, tree_g, kind) == pytest.approx(
                keyroot(tree_f, tree_g)
            )

    def test_single_node_edge_cases(self, kernel):
        single = Tree(Node("x"))
        bigger = random_tree(9, rng=13)
        assert spf_H(single, single) == 0.0
        assert spf_H(single, Tree(Node("y"))) == 1.0
        expected = DecompositionEngine(single, bigger, HeavyFStrategy()).distance()
        assert spf_H(single, bigger) == pytest.approx(expected)
        expected = DecompositionEngine(bigger, single, HeavyFStrategy()).distance()
        assert spf_H(bigger, single) == pytest.approx(expected)

    @pytest.mark.parametrize("leaf_first", [False, True], ids=["leaf-after", "leaf-before"])
    def test_caterpillar_edge_cases(self, kernel, leaf_first):
        """Caterpillars maximize distinct forest-split targets per chain."""
        cat = _caterpillar(9, leaf_first=leaf_first)
        other = random_tree(15, rng=4)
        for tree_f, tree_g in ((cat, other), (other, cat), (cat, _caterpillar(7, label="b"))):
            expected = DecompositionEngine(tree_f, tree_g, HeavyFStrategy()).distance()
            assert spf_H(tree_f, tree_g) == pytest.approx(expected)

    def test_subtree_pair_distances(self):
        """run_inner() on inner subtree roots matches the engine's values."""
        gen = random.Random(6)
        tree_f = random_tree(17, rng=gen)
        tree_g = random_tree(15, rng=gen)
        engine = DecompositionEngine(tree_f, tree_g, HeavyFStrategy())
        for v in range(0, tree_f.n, 3):
            for w in range(0, tree_g.n, 3):
                context = SinglePathContext(tree_f, tree_g)
                got = context.run_inner("F", HEAVY, v, w)
                assert got == pytest.approx(engine.subtree_distance(v, w))

    def test_counts_cells(self):
        tree_f, tree_g = SPF_PAIRS[0]
        context = SinglePathContext(tree_f, tree_g)
        context.run_inner("F", HEAVY, tree_f.root, tree_g.root)
        assert context.cells > 0

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_property_spf_heavy_matches_zhang_shasha(self, pair):
        tree_f, tree_g = pair
        expected = small_pair_distance(tree_f, tree_g)
        assert spf_H(tree_f, tree_g) == pytest.approx(expected)


FRACTIONAL = WeightedCostModel(delete_cost=1.3, insert_cost=0.7, rename_cost=1.9)


class TestInnerKernelInputs:
    """What the inner-path kernels read: one boundary-sum grid per grid
    frame, built by the kernel that runs it, and (vector kernel) path rename
    rows gathered from the workspace's alphabet table."""

    @staticmethod
    def _run_heavy(tree_f, tree_g, workspace, side):
        context = SinglePathContext(tree_f, tree_g, cost_model=FRACTIONAL, workspace=workspace)
        distance = context.run_inner(side, HEAVY, tree_f.root, tree_g.root)
        return distance, context.cells, context.D

    @pytest.mark.parametrize("width", [None, 10_000], ids=["default", "scalar"])
    def test_each_grid_frame_builds_one_sum_grid(self, width, monkeypatch):
        if width is not None:
            monkeypatch.setattr(spf_numpy, "MIN_INNER_VECTOR_WIDTH", width)
        threshold = spf_numpy.MIN_INNER_VECTOR_WIDTH
        tree_f, tree_g = random_tree(60, rng=21), random_tree(55, rng=22)
        workspace = TedWorkspace(FRACTIONAL)
        distance = self._run_heavy(tree_f, tree_g, workspace, SIDE_F)[0]
        expected = make_algorithm("simple").compute(tree_f, tree_g, cost_model=FRACTIONAL)
        assert distance == pytest.approx(expected.distance)
        frames = [frame for _, frame in workspace._grids.values()]
        vector = [frame.m + 1 >= threshold for frame in frames]
        assert any(vector) == (width is None)
        for frame, is_vector in zip(frames, vector):
            # The vector kernel reads its suffix-sum array; the scalar
            # kernel's list rows exist only where that kernel ran.
            assert (frame.ins_sum is None) == is_vector
            assert (frame.np_arrays is not None) == is_vector
            if is_vector:
                assert "ins_sum" not in frame.np_arrays

    @pytest.mark.parametrize("side", [SIDE_F, SIDE_G])
    def test_path_rename_rows_come_from_the_alphabet_table(self, side, monkeypatch):
        tree_f, tree_g = random_tree(150, rng=3), random_tree(140, rng=4)
        calls = []
        rename_matrix = spf_numpy.rename_matrix

        def counted(*args):
            calls.append(len(args[0]) * len(args[1]))
            return rename_matrix(*args)

        monkeypatch.setattr(spf_numpy, "rename_matrix", counted)
        workspace = TedWorkspace(FRACTIONAL)
        workspace.interner.codes_postorder(tree_f)
        workspace.interner.codes_postorder(tree_g)
        assert workspace.rename_table() is not None
        gathered = self._run_heavy(tree_f, tree_g, workspace, side)
        assert calls == []

        # Without a table the cost model fills the same rows.
        monkeypatch.setattr(workspace_module, "MAX_DENSE_ALPHABET", 0)
        called = self._run_heavy(tree_f, tree_g, TedWorkspace(FRACTIONAL), side)
        assert calls
        assert gathered[:2] == called[:2]
        assert np.array_equal(gathered[2], called[2], equal_nan=True)


class CountingRenames(WeightedCostModel):
    """Weighted costs with a direction-sensitive rename that counts its calls."""

    def __init__(self, *costs):
        super().__init__(*costs)
        self.calls = 0

    def rename(self, label_from, label_to):
        self.calls += 1
        if label_from == label_to:
            return 0.0
        return self._rename if str(label_from) < str(label_to) else self._rename + 0.25


class TestScalarRegionInputs:
    """The scalar keyroot kernel reads rename costs from the workspace's
    alphabet table once one is built, instead of calling the cost model."""

    @pytest.mark.parametrize(
        "costs", [(1.3, 0.7, 1.9), (1.25, 0.75, 1.5)], ids=["fractional", "dyadic"]
    )
    def test_no_rename_calls_with_a_table(self, costs, monkeypatch):
        tree_f, tree_g = random_tree(90, rng=1), random_tree(80, rng=2)
        model = CountingRenames(*costs)

        def run_all(workspace):
            context = SinglePathContext(tree_f, tree_g, cost_model=model, workspace=workspace)
            return [
                spf_L(tree_f, tree_g, cost_model=model, workspace=workspace),
                spf_H(tree_f, tree_g, cost_model=model, workspace=workspace),
                context.run(SIDE_G, LEFT, tree_f.root, tree_g.root),
            ]

        workspace = TedWorkspace(model)
        run_all(workspace)  # warm: the vector kernel builds the table
        model.calls = 0
        gathered = run_all(workspace)
        assert model.calls == 0

        # Without a table the cost model is called per cell, for the same bits.
        monkeypatch.setattr(workspace_module, "MAX_DENSE_ALPHABET", 0)
        called = run_all(TedWorkspace(model))
        assert model.calls > 0
        assert gathered == called
        if costs[0] == 1.25:  # dyadic costs add exactly in any order
            oracle = make_algorithm("simple").compute(tree_f, tree_g, cost_model=model)
            assert gathered == [oracle.distance] * 3


EXECUTOR_STRATEGIES = [
    LeftFStrategy(),
    RightFStrategy(),
    LeftGStrategy(),
    RightGStrategy(),
    HeavyFStrategy(),
    HeavyGStrategy(),
    HeavyLargerStrategy(),
]


class TestStrategyExecutor:
    @pytest.mark.parametrize("strategy", EXECUTOR_STRATEGIES, ids=lambda s: s.name)
    def test_matches_recursive_engine(self, strategy):
        for tree_f, tree_g in SPF_PAIRS[:25]:
            expected = DecompositionEngine(tree_f, tree_g, strategy).distance()
            executor = StrategyExecutor(tree_f, tree_g, strategy)
            assert executor.distance() == pytest.approx(expected)
            assert executor.subproblems > 0

    def test_optimal_strategy_through_executor(self):
        for tree_f, tree_g in SPF_PAIRS[:25]:
            strategy = optimal_strategy(tree_f, tree_g).strategy
            expected = DecompositionEngine(tree_f, tree_g, strategy).distance()
            assert StrategyExecutor(tree_f, tree_g, strategy).distance() == pytest.approx(expected)

    @pytest.mark.parametrize("strategy", EXECUTOR_STRATEGIES, ids=lambda s: s.name)
    def test_weighted_costs(self, strategy):
        for tree_f, tree_g in SPF_PAIRS[:10]:
            expected = DecompositionEngine(
                tree_f, tree_g, strategy, cost_model=WEIGHTED
            ).distance()
            executor = StrategyExecutor(tree_f, tree_g, strategy, cost_model=WEIGHTED)
            assert executor.distance() == pytest.approx(expected)

    def test_gted_engine_parameter(self):
        tree_f, tree_g = SPF_PAIRS[1]
        recursive = GTED(LeftFStrategy(), engine="recursive").compute(tree_f, tree_g)
        iterative = GTED(LeftFStrategy(), engine="spf").compute(tree_f, tree_g)
        assert iterative.distance == pytest.approx(recursive.distance)
        assert recursive.extra["engine"] == "recursive"
        assert iterative.extra["engine"] == "spf"

    def test_rted_engine_parameter(self):
        for tree_f, tree_g in SPF_PAIRS[:15]:
            recursive = RTED(engine="recursive").compute(tree_f, tree_g)
            iterative = RTED(engine="spf").compute(tree_f, tree_g)
            assert iterative.distance == pytest.approx(recursive.distance)

    def test_auto_engine_is_spf(self):
        tree_f, tree_g = SPF_PAIRS[2]
        assert RTED().compute(tree_f, tree_g).extra["engine"] == "spf"
        assert GTED(HeavyFStrategy()).compute(tree_f, tree_g).extra["engine"] == "spf"


class TestNoRecursiveEngineOnDefaultPath:
    """The recursive engine is a pure oracle: the default (``auto``) and the
    ``spf`` engine must never instantiate it, for any strategy step kind."""

    @pytest.fixture
    def forbidden_recursive_engine(self, monkeypatch):
        def forbidden(self, *args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("DecompositionEngine must not run on the default path")

        monkeypatch.setattr(DecompositionEngine, "__init__", forbidden)

    def test_rted_auto_never_uses_recursive_engine(self, forbidden_recursive_engine):
        for tree_f, tree_g in SPF_PAIRS[:20]:
            expected = small_pair_distance(tree_f, tree_g)
            assert RTED().distance(tree_f, tree_g) == pytest.approx(expected)
            assert RTED(engine="spf").distance(tree_f, tree_g) == pytest.approx(expected)

    @pytest.mark.parametrize("strategy", EXECUTOR_STRATEGIES, ids=lambda s: s.name)
    def test_gted_spf_never_uses_recursive_engine(self, forbidden_recursive_engine, strategy):
        for tree_f, tree_g in SPF_PAIRS[:10]:
            expected = small_pair_distance(tree_f, tree_g)
            assert GTED(strategy, engine="spf").distance(tree_f, tree_g) == (
                pytest.approx(expected)
            )

    @pytest.mark.parametrize("name", ["rted", "klein-h", "demaine-h", "zhang-l", "zhang-r"])
    def test_registry_auto_never_uses_recursive_engine(self, forbidden_recursive_engine, name):
        tree_f, tree_g = SPF_PAIRS[3]
        expected = small_pair_distance(tree_f, tree_g)
        assert make_algorithm(name).distance(tree_f, tree_g) == pytest.approx(expected)

    def test_recursive_engine_still_selectable(self):
        tree_f, tree_g = SPF_PAIRS[4]
        result = RTED(engine="recursive").compute(tree_f, tree_g)
        assert result.extra["engine"] == "recursive"


class TestDeepTrees:
    """Path-shaped inputs beyond any reasonable recursion limit."""

    def test_deep_left_path_spf(self):
        deep = _path_tree(1200)
        bushy = random_tree(24, rng=3)
        expected = small_pair_distance(deep, bushy)
        assert spf_L(deep, bushy) == pytest.approx(expected)
        assert spf_R(deep, bushy) == pytest.approx(expected)

    def test_deep_pair_both_deep(self):
        left = _path_tree(1100, label="a")
        right = _path_tree(1050, label="b")
        # Both trees are pure paths with disjoint labels: the cheapest script
        # renames all 1051 nodes of the shorter path and deletes the other 50.
        assert spf_L(left, right) == pytest.approx(1101.0)

    def test_5000_deep_zhang_l_without_recursion_limit(self, monkeypatch):
        """Acceptance: a 5000-deep linear tree under zhang-l, with
        sys.setrecursionlimit forbidden for the whole computation."""
        deep = _path_tree(5000)
        bushy = random_tree(30, rng=7)
        expected = small_pair_distance(deep, bushy)

        def forbidden(limit):  # pragma: no cover - would fail the test
            raise AssertionError("sys.setrecursionlimit must not be touched")

        monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
        from repro.api import compute

        assert compute(deep, bushy, algorithm="zhang-l").distance == pytest.approx(expected)
        assert compute(deep, bushy, algorithm="zhang-l", engine="spf").distance == (
            pytest.approx(expected)
        )
        assert GTED(RightFStrategy(), engine="spf").distance(deep, bushy) == (
            pytest.approx(expected)
        )

    def test_5000_deep_heavy_and_rted_without_recursion_limit(self, monkeypatch):
        """Acceptance: heavy strategies and full RTED on a 5000-deep path
        tree, with the interpreter recursion limit left at its default and
        sys.setrecursionlimit forbidden end-to-end."""
        deep = _path_tree(5000)
        bushy = random_tree(30, rng=7)
        expected = small_pair_distance(deep, bushy)

        def forbidden(limit):  # pragma: no cover - would fail the test
            raise AssertionError("sys.setrecursionlimit must not be touched")

        monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
        from repro.api import compute

        assert spf_H(deep, bushy) == pytest.approx(expected)
        assert GTED(HeavyFStrategy(), engine="spf").distance(deep, bushy) == (
            pytest.approx(expected)
        )
        # Full RTED (auto engine): Algorithm 2 plus the iterative executor,
        # whatever mix of paths the optimal strategy picks.
        assert compute(deep, bushy, algorithm="rted").distance == pytest.approx(expected)
        assert compute(bushy, deep, algorithm="klein-h").distance == pytest.approx(expected)

    def test_deep_heavy_both_directions(self, monkeypatch):
        """Heavy spine runs on deep × deep caterpillar pairs.

        Caterpillars are the worst case for the boundary grid (|A| is
        genuinely quadratic, so no keyroot shortcut applies) — kept at a
        moderate size for runtime, the point is depth × depth correctness.
        Both sweeps of this pair exceed the small-pair cell budget (about
        5.7M cells), so the budget is raised for the reference run.
        """
        left_cat = _caterpillar(130)
        right_cat = _caterpillar(120, leaf_first=True, label="b")
        monkeypatch.setattr(batch_kernel, "SMALL_PAIR_CELLS", 8_000_000)
        expected = small_pair_distance(left_cat, right_cat)
        assert spf_H(left_cat, right_cat) == pytest.approx(expected)

    def test_fallback_engine_still_bumps_recursion_limit_capped(self):
        from repro.algorithms.forest_engine import MAX_RECURSION_LIMIT, _recursion_headroom

        before = sys.getrecursionlimit()
        with _recursion_headroom(10**9):
            assert sys.getrecursionlimit() == MAX_RECURSION_LIMIT
        assert sys.getrecursionlimit() == before
