"""Tests for the amortized execution layer (TedWorkspace, interning).

The contract under test is *bit-identity*: a workspace may cache frames,
intern labels into alphabet tables and short-circuit small unit-cost
pairs, but the distances it produces must equal the one-off results
exactly (``==``, not ``approx``) — across random pairs, mixed shapes, unit
and fractional cost models, and repeated-tree (self-join) sequences where
stale caches would surface.
"""

import random

import pytest

from repro.algorithms import batch_kernel
from repro.algorithms import (
    RTED,
    LabelInterner,
    TedWorkspace,
    WorkspaceTED,
    make_algorithm,
    spf_L,
    spf_R,
)
from repro.costs import (
    UNIT_COST,
    StringRenameCostModel,
    UnitCostModel,
    WeightedCostModel,
)
from repro.datasets import clustered_corpus, random_tree
from repro.datasets.shapes import make_shape
from repro.exceptions import WorkspaceError
from repro.join import TreeCorpus, batch_distances, batch_self_join, batch_similarity_join

from conftest import random_tree_pairs

FRACTIONAL = WeightedCostModel(delete_cost=1.3, insert_cost=0.7, rename_cost=1.9)


def _mixed_shape_trees():
    """Trees across the shape families plus random ones (sizes 1..40)."""
    trees = [
        make_shape("left-branch", 25),
        make_shape("right-branch", 25),
        make_shape("full-binary", 31),
        make_shape("zigzag", 24),
        random_tree(1, rng=11),
        random_tree(3, rng=12),
    ]
    trees += [random_tree(5 + 2 * k, rng=100 + k) for k in range(12)]
    return trees


def _pair_sequence(trees, count, seed=7):
    """Pairs sampled *with replacement* — repeated trees, self-pairs included."""
    rng = random.Random(seed)
    return [
        (rng.randrange(len(trees)), rng.randrange(len(trees))) for _ in range(count)
    ]


class TestBitIdentity:
    """Workspace-reused vs fresh-context results, exact equality."""

    @pytest.mark.parametrize("cost_model", [UNIT_COST, FRACTIONAL], ids=["unit", "fractional"])
    @pytest.mark.parametrize("algorithm", ["rted", "zhang-l"])
    def test_property_200_random_pairs(self, algorithm, cost_model):
        trees = _mixed_shape_trees()
        pairs = _pair_sequence(trees, 200)
        workspace = TedWorkspace(cost_model)
        amortized = make_algorithm(algorithm, workspace=workspace)
        fresh = make_algorithm(algorithm)
        for i, j in pairs:
            a = amortized.compute(trees[i], trees[j], cost_model=cost_model).distance
            b = fresh.compute(trees[i], trees[j], cost_model=cost_model).distance
            assert a == b, (algorithm, cost_model, i, j)
        if cost_model is UNIT_COST:
            assert workspace.stats.small_pair_runs > 0

    def test_repeated_tree_self_join_sequence(self):
        # The same few trees queried over and over — the cache-staleness
        # scenario.  Every repetition must reproduce the first answer.
        trees = [random_tree(20, rng=k) for k in range(4)]
        workspace = TedWorkspace()
        algorithm = make_algorithm("rted", workspace=workspace)
        baseline = {}
        for _ in range(5):
            for i in range(len(trees)):
                for j in range(len(trees)):
                    d = algorithm.compute(trees[i], trees[j]).distance
                    assert baseline.setdefault((i, j), d) == d
        assert workspace.stats.frame_hits + workspace.stats.small_pair_runs > 0

    @pytest.mark.parametrize("cost_model", [UNIT_COST, FRACTIONAL], ids=["unit", "fractional"])
    def test_large_pairs_use_workspace_contexts(self, cost_model, monkeypatch):
        # Pairs outside the small-pair cell budget run the executor with
        # workspace-backed contexts (cached frames, interned rename tables).
        # These pairs fit the default budget, so a zero
        # budget keeps the unit-cost ones on the executor too.
        monkeypatch.setattr(batch_kernel, "SMALL_PAIR_CELLS", 0)
        trees = [random_tree(90 + 10 * k, rng=50 + k) for k in range(4)]
        workspace = TedWorkspace(cost_model)
        amortized = make_algorithm("rted", workspace=workspace)
        fresh = make_algorithm("rted")
        for i in range(len(trees)):
            for j in range(len(trees)):
                a = amortized.compute(trees[i], trees[j], cost_model=cost_model).distance
                b = fresh.compute(trees[i], trees[j], cost_model=cost_model).distance
                assert a == b
        assert workspace.stats.small_pair_runs == 0
        assert workspace.stats.frame_hits > 0

    def test_spf_functions_accept_workspace(self):
        workspace = TedWorkspace(FRACTIONAL)
        for tree_f, tree_g in random_tree_pairs(count=20, max_size=14, seed=5):
            assert spf_L(tree_f, tree_g, cost_model=FRACTIONAL, workspace=workspace) == spf_L(
                tree_f, tree_g, cost_model=FRACTIONAL
            )
            assert spf_R(tree_f, tree_g, cost_model=FRACTIONAL, workspace=workspace) == spf_R(
                tree_f, tree_g, cost_model=FRACTIONAL
            )


class TestBatchLayer:
    # The fresh-context oracle of these tests is a pre-built algorithm
    # instance: batch_distances runs an instance exactly as configured, per
    # pair, while a registry name runs amortized.
    def test_batch_distances_amortized_matches_fresh_instance(self):
        trees = clustered_corpus(
            num_clusters=5, cluster_size=6, tree_size=12, num_edits=2, rng=9
        )
        pairs = [(i, j) for i in range(len(trees)) for j in range(i + 1, len(trees))]
        amortized = batch_distances(trees, None, pairs, algorithm="rted")
        fresh = batch_distances(trees, None, pairs, algorithm=make_algorithm("rted"))
        assert [(i, j, d) for i, j, d, _ in amortized] == [(i, j, d) for i, j, d, _ in fresh]

    def test_batch_join_amortized_matches_fresh_instance(self):
        trees = clustered_corpus(
            num_clusters=6, cluster_size=5, tree_size=12, num_edits=2, rng=4
        )
        amortized = batch_self_join(trees, 3.0, algorithm="zhang-l")
        fresh = batch_self_join(trees, 3.0, algorithm=make_algorithm("zhang-l"))
        assert amortized.matches == fresh.matches

    def test_cross_corpus_interning(self):
        # A cross join interns both corpora into one dictionary; labels seen
        # only in corpus_b must still gather correct costs.
        a = TreeCorpus([random_tree(12, rng=k, alphabet=["x", "y"]) for k in range(5)])
        b = TreeCorpus([random_tree(12, rng=30 + k, alphabet=["y", "z", "w"]) for k in range(5)])
        pairs = [(i, j) for i in range(len(a)) for j in range(len(b))]
        for cm in (None, FRACTIONAL):
            amortized = batch_distances(a, b, pairs, algorithm="rted", cost_model=cm)
            fresh = batch_distances(a, b, pairs, algorithm=make_algorithm("rted"), cost_model=cm)
            assert [(i, j, d) for i, j, d, _ in amortized] == [
                (i, j, d) for i, j, d, _ in fresh
            ]

    def test_explicit_workspace_reused_across_batches(self):
        trees = TreeCorpus([random_tree(14, rng=k) for k in range(6)])
        workspace = TedWorkspace(interner=trees.interner())
        pairs = [(i, j) for i in range(len(trees)) for j in range(i + 1, len(trees))]
        first = batch_distances(trees, None, pairs, workspace=workspace)
        hits_after_first = workspace.stats.small_pair_runs
        second = batch_distances(trees, None, pairs, workspace=workspace)
        assert first == second
        assert workspace.stats.small_pair_runs > hits_after_first

    def test_workers_match_serial(self):
        trees = clustered_corpus(
            num_clusters=4, cluster_size=5, tree_size=12, num_edits=2, rng=2
        )
        pairs = [(i, j) for i in range(len(trees)) for j in range(i + 1, len(trees))]
        serial = batch_distances(trees, None, pairs, algorithm="rted")
        fanned = batch_distances(trees, None, pairs, algorithm="rted", workers=2, chunk_size=20)
        assert sorted(serial) == sorted(fanned)


class TestCostModelBinding:
    def test_mismatched_explicit_workspace_raises(self):
        trees = [random_tree(10, rng=1), random_tree(10, rng=2)]
        workspace = TedWorkspace(FRACTIONAL)
        with pytest.raises(WorkspaceError):
            batch_distances(trees, None, [(0, 1)], workspace=workspace)  # unit batch

    def test_wrapper_bypasses_foreign_cost_model(self):
        # WorkspaceTED with a unit workspace asked for a fractional distance:
        # must bypass the caches and still be exact.
        workspace = TedWorkspace()
        algorithm = WorkspaceTED(RTED(), workspace)
        tree_f, tree_g = random_tree(15, rng=3), random_tree(15, rng=4)
        expected = RTED().compute(tree_f, tree_g, cost_model=FRACTIONAL).distance
        assert algorithm.compute(tree_f, tree_g, cost_model=FRACTIONAL).distance == expected
        assert workspace.stats.bypasses > 0

    def test_matches_unit_aliases(self):
        workspace = TedWorkspace()
        assert workspace.matches(None)
        assert workspace.matches(UNIT_COST)
        assert workspace.matches(UnitCostModel())
        assert not workspace.matches(FRACTIONAL)
        # A model that merely *behaves* like unit cost is not trusted.
        assert not workspace.matches(WeightedCostModel(1.0, 1.0, 1.0))

    def test_string_rename_model_amortized_exactly(self):
        cm = StringRenameCostModel()
        trees = [random_tree(18, rng=60 + k, alphabet=["alpha", "beta", "betas", "x"]) for k in range(4)]
        workspace = TedWorkspace(cm)
        amortized = make_algorithm("rted", workspace=workspace)
        fresh = make_algorithm("rted")
        for i in range(len(trees)):
            for j in range(len(trees)):
                assert (
                    amortized.compute(trees[i], trees[j], cost_model=cm).distance
                    == fresh.compute(trees[i], trees[j], cost_model=cm).distance
                )


class TestWorkspaceInternals:
    def test_interner_codes_stable_and_shared(self):
        interner = LabelInterner()
        tree = random_tree(20, rng=8)
        first = interner.codes_postorder(tree)
        assert interner.codes_postorder(tree) is first
        # Codes decode back to the original labels.
        assert [interner.labels[c] for c in first] == list(tree.labels)

    def test_non_reflexive_labels_fall_back(self):
        # A NaN label is identical-to-itself for dict lookup but unequal
        # under the cost model's ==; interning must refuse it so the unit
        # kernels cannot charge rename 0 where UnitCostModel charges 1.
        from repro.trees import Node, Tree

        shared_nan = float("nan")
        tree_a = Tree(Node(shared_nan))
        tree_b = Tree(Node(shared_nan))
        workspace = TedWorkspace()
        assert workspace.compute_small(tree_a, tree_b) is None
        amortized = make_algorithm("rted", workspace=workspace)
        fresh = make_algorithm("rted")
        assert (
            amortized.compute(tree_a, tree_b).distance
            == fresh.compute(tree_a, tree_b).distance
            == 1.0
        )

    def test_prebuilt_oracle_instance_never_short_circuited(self):
        # An explicitly constructed oracle passed to batch_distances must run
        # as configured — the workspace applies to registry names only.
        trees = [random_tree(8, rng=1), random_tree(8, rng=2)]
        oracle = RTED(engine="recursive")
        results = batch_distances(trees, None, [(0, 1)], algorithm=oracle)
        expected = oracle.compute(trees[0], trees[1])
        assert results[0][2] == expected.distance
        assert results[0][3] == expected.subproblems

    def test_unhashable_labels_fall_back(self):
        from repro.trees import Node, Tree

        tree = Tree(Node(["unhashable"], [Node(["leaf"])]))
        other = random_tree(6, rng=1)
        workspace = TedWorkspace()
        assert workspace.compute_small(tree, other) is None
        amortized = make_algorithm("rted", workspace=workspace)
        assert (
            amortized.compute(tree, other).distance
            == make_algorithm("rted").compute(tree, other).distance
        )

    def test_small_pair_cells_respected(self, monkeypatch):
        from repro.algorithms.batch_kernel import sweep_sizes

        small = random_tree(8, rng=1)
        large = random_tree(9, rng=2)
        (left_s, right_s), (left_l, right_l) = sweep_sizes(small), sweep_sizes(large)
        budget = min(left_s * left_s, right_s * right_s)
        monkeypatch.setattr(batch_kernel, "SMALL_PAIR_CELLS", budget)
        workspace = TedWorkspace()
        assert workspace.compute_small(small, small)[:2] == (0.0, budget)
        assert min(left_s * left_l, right_s * right_l) > budget
        assert workspace.compute_small(small, large) is None

    def test_over_budget_pair_builds_no_pack(self):
        # The cell gate runs before the one-tree packs are built: a pair it
        # refuses leaves no pack behind and runs no lane.
        tree_f, tree_g = make_shape("zigzag", 300), make_shape("zigzag", 300)
        workspace = TedWorkspace()
        assert workspace.compute_small(tree_f, tree_g) is None
        assert not workspace._packs
        assert workspace.stats.small_pair_runs == 0

    def test_clear_resets_caches(self):
        workspace = TedWorkspace()
        tree = random_tree(10, rng=1)
        first = workspace.compute_small(tree, tree)
        workspace.clear()
        assert workspace.compute_small(tree, tree) == first
        assert first[0] == 0.0


def _listified(tree):
    """``tree`` with every label wrapped in a list (unhashable labels)."""
    from repro.trees import Node, Tree

    nodes = []
    for v in range(tree.n):  # postorder: children come first
        nodes.append(Node([tree.labels[v]], [nodes[c] for c in tree.children[v]]))
    return Tree(nodes[tree.root])


def _fallback_pairs():
    rng = random.Random(41)
    pairs = [
        (random_tree(n, rng=rng, alphabet="abcdefgh"), random_tree(m, rng=rng, alphabet="abcdefgh"))
        for n, m in ((24, 30), (40, 33), (18, 45))
    ]
    return pairs + [tuple(_listified(tree) for tree in pairs[0])]


class TestRenameFallback:
    """Alphabets past ``MAX_DENSE_ALPHABET`` and uninternable labels get
    their rename matrices from :func:`repro.algorithms.spf_numpy.rename_matrix`
    — with a shared workspace and with a context's private one alike."""

    @pytest.mark.parametrize("runner", ["rted", "spf_L", "spf_H"])
    def test_fallback_matches_simple_ted(self, runner, monkeypatch):
        from repro.algorithms import SinglePathContext, spf_numpy, workspace as workspace_mod
        from repro.algorithms.strategies import SIDE_F
        from repro.trees.tree import HEAVY, LEFT

        monkeypatch.setattr(workspace_mod, "MAX_DENSE_ALPHABET", 4)
        fallbacks = []
        rename_matrix = spf_numpy.rename_matrix

        def counted(*args):
            fallbacks.append(None)
            return rename_matrix(*args)

        monkeypatch.setattr(spf_numpy, "rename_matrix", counted)
        cost_model = WeightedCostModel(1, 1, 1.5)

        def run(tree_f, tree_g, workspace):
            if runner == "rted":
                result = RTED(engine="spf", workspace=workspace).compute(
                    tree_f, tree_g, cost_model=cost_model
                )
                return result.distance, result.subproblems
            context = SinglePathContext(tree_f, tree_g, cost_model=cost_model, workspace=workspace)
            kind = LEFT if runner == "spf_L" else HEAVY
            return context.run(SIDE_F, kind, tree_f.root, tree_g.root), context.cells

        oracle = make_algorithm("simple")
        shared = TedWorkspace(cost_model)
        for tree_f, tree_g in _fallback_pairs():
            assert len(set(map(repr, tree_f.labels + tree_g.labels))) >= 5
            expected = oracle.compute(tree_f, tree_g, cost_model=cost_model).distance
            one_off = run(tree_f, tree_g, None)
            amortized = run(tree_f, tree_g, shared)
            assert one_off == amortized
            assert one_off[0] == expected
        if runner != "spf_H":  # the inner-path kernels call the cost model directly
            assert fallbacks
