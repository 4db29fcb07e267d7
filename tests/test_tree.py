"""Unit tests for repro.trees.tree (indexing, paths, decomposition sizes)."""

import pytest
from hypothesis import given, settings

from repro.exceptions import InvalidNodeError, TreeConstructionError
from repro.trees import HEAVY, LEFT, RIGHT, Node, Tree, tree_from_nested

from conftest import tree_arrays, trees


@pytest.fixture
def example() -> Tree:
    #        a
    #      / | \
    #     b  c  f
    #        |\
    #        d e
    return tree_from_nested(("a", ["b", ("c", ["d", "e"]), "f"]))


class TestIndexing:
    def test_postorder_labels(self, example):
        assert list(example.labels) == ["b", "d", "e", "c", "f", "a"]

    def test_root_is_last_postorder_node(self, example):
        assert example.root == example.n - 1
        assert example.label(example.root) == "a"

    def test_parents(self, example):
        root = example.root
        assert example.parents[root] == -1
        b, d, e, c, f = 0, 1, 2, 3, 4
        assert example.parents[b] == root
        assert example.parents[c] == root
        assert example.parents[f] == root
        assert example.parents[d] == c
        assert example.parents[e] == c

    def test_children_in_left_to_right_order(self, example):
        assert example.children[example.root] == [0, 3, 4]
        assert example.children[3] == [1, 2]

    def test_sizes(self, example):
        assert example.sizes[example.root] == 6
        assert example.sizes[3] == 3
        assert example.sizes[0] == 1

    def test_depths(self, example):
        assert example.depths[example.root] == 0
        assert example.depths[0] == 1
        assert example.depths[1] == 2
        assert example.depth() == 2

    def test_leftmost_and_rightmost_leaves(self, example):
        root = example.root
        assert example.lml[root] == 0  # node b
        assert example.rml[root] == 4  # node f
        assert example.lml[3] == 1  # c's leftmost leaf is d
        assert example.rml[3] == 2  # c's rightmost leaf is e

    def test_pre_post_mappings_are_inverse(self, example):
        for post_id in range(example.n):
            assert example.post_of_pre[example.pre_of_post[post_id]] == post_id

    def test_preorder_labels(self, example):
        assert example.labels_preorder() == ["a", "b", "c", "d", "e", "f"]

    def test_invalid_constructor_argument(self):
        with pytest.raises(TreeConstructionError):
            Tree("not a node")

    def test_invalid_node_id(self, example):
        with pytest.raises(InvalidNodeError):
            example.label(99)


class TestSubtreeQueries:
    def test_subtree_nodes_contiguous(self, example):
        assert example.subtree_nodes(3) == [1, 2, 3]

    def test_is_descendant(self, example):
        assert example.is_descendant(1, 3)
        assert example.is_descendant(3, 3)
        assert not example.is_descendant(3, 1)
        assert not example.is_descendant(0, 3)

    def test_subtree_extraction(self, example):
        sub = example.subtree(3)
        assert sub.n == 3
        assert list(sub.labels) == ["d", "e", "c"]
        for v in range(example.n):
            assert tree_arrays(example.subtree(v)) == tree_arrays(Tree(example.to_node(v)))

    @given(trees(max_children=4))
    @settings(max_examples=40, deadline=None)
    def test_subtree_arrays_match_node_route(self, tree):
        for v in range(tree.n):
            assert tree_arrays(tree.subtree(v)) == tree_arrays(Tree(tree.to_node(v)))

    def test_num_leaves(self, example):
        assert example.num_leaves() == 4
        assert example.num_leaves(3) == 2

    def test_iter_preorder_of_subtree(self, example):
        assert list(example.iter_preorder(3)) == [3, 1, 2]


class TestPaths:
    def test_left_path(self, example):
        assert example.root_leaf_path(example.root, LEFT) == [example.root, 0]

    def test_right_path(self, example):
        assert example.root_leaf_path(example.root, RIGHT) == [example.root, 4]

    def test_heavy_path(self, example):
        # c roots the largest subtree (3 nodes); its heavy child is d (ties -> leftmost).
        assert example.root_leaf_path(example.root, HEAVY) == [example.root, 3, 1]

    def test_heavy_child_tie_breaks_to_leftmost(self):
        tree = tree_from_nested(("a", ["b", "c"]))
        assert tree.heavy_child[tree.root] == 0

    def test_on_parent_path(self, example):
        assert example.on_parent_path(0, LEFT)
        assert not example.on_parent_path(0, RIGHT)
        assert example.on_parent_path(4, RIGHT)
        assert example.on_parent_path(3, HEAVY)
        assert not example.on_parent_path(example.root, LEFT)

    def test_relevant_subtrees_left(self, example):
        # Hanging off the left path (a -> b): subtrees rooted at c and f.
        assert example.relevant_subtrees(example.root, LEFT) == [3, 4]

    def test_relevant_subtrees_heavy(self, example):
        # Heavy path a -> c -> d; hanging: b, e, f.
        assert example.relevant_subtrees(example.root, HEAVY) == [0, 2, 4]

    def test_path_partitioning_covers_tree_disjointly(self, example):
        for kind in (LEFT, RIGHT, HEAVY):
            partitioning = example.path_partitioning(kind)
            nodes = [v for path in partitioning for v in path]
            assert sorted(nodes) == list(range(example.n))
            # Each path ends at a leaf.
            for path in partitioning:
                assert example.is_leaf(path[-1])


class TestDecompositionSizes:
    def test_single_node(self):
        tree = Tree(Node("a"))
        assert tree.full_decomposition_sizes() == [1]
        assert tree.left_decomposition_sizes() == [1]
        assert tree.right_decomposition_sizes() == [1]

    def test_full_decomposition_lemma1_example(self, figure3_tree):
        # Figure 3 of the paper shows the full decomposition of the 7-node
        # example tree; |A(F)| counts distinct subforests including F itself.
        sizes = figure3_tree.full_decomposition_sizes()
        # Closed form: n(n+3)/2 - sum of subtree sizes.
        n = figure3_tree.n
        expected = n * (n + 3) // 2 - sum(
            figure3_tree.sizes[v] for v in range(figure3_tree.n)
        )
        assert sizes[figure3_tree.root] == expected

    def test_left_right_decomposition_of_balanced_pair(self):
        tree = tree_from_nested(("a", [("b", ["c"]), ("d", ["e"])]))
        # Left decomposition relevant subtrees: whole tree + subtree(d) => 5 + 2 = 7.
        assert tree.left_decomposition_sizes()[tree.root] == 7
        # Right decomposition: whole tree + subtree(b) => 5 + 2 = 7.
        assert tree.right_decomposition_sizes()[tree.root] == 7


class TestKeyroots:
    def test_keyroots_contain_root(self, example):
        assert example.root in example.keyroots_left()
        assert example.root in example.keyroots_right()

    def test_left_keyroots_are_nodes_with_distinct_leftmost_leaf(self, example):
        keyroots = example.keyroots_left()
        # b (0) is on the root's left path, so it is not a keyroot; c, e, f are.
        assert keyroots == [2, 3, 4, 5]

    def test_keyroots_of_left_branch_chain(self):
        tree = tree_from_nested(("a", [("b", [("c", ["d"])])]))
        assert tree.keyroots_left() == [tree.root]


class TestDerivedTrees:
    def test_mirrored_reverses_children(self, example):
        mirrored = example.mirrored()
        assert mirrored.labels_preorder() == ["a", "f", "c", "e", "d", "b"]
        assert mirrored.n == example.n
        assert tree_arrays(mirrored) == tree_arrays(Tree(example.to_node().mirrored()))

    @given(trees(max_children=4))
    @settings(max_examples=40, deadline=None)
    def test_mirrored_arrays_match_node_route(self, tree):
        assert tree_arrays(tree.mirrored()) == tree_arrays(Tree(tree.to_node().mirrored()))

    def test_to_node_round_trip(self, example):
        rebuilt = Tree(example.to_node())
        assert rebuilt.structurally_equal(example)

    def test_structural_equality_detects_label_change(self, example):
        other = tree_from_nested(("a", ["b", ("c", ["d", "x"]), "f"]))
        assert not example.structurally_equal(other)


class TestTreePropertyBased:
    @given(trees())
    @settings(max_examples=60, deadline=None)
    def test_sizes_and_parents_consistent(self, tree):
        for v in range(tree.n):
            assert tree.sizes[v] == 1 + sum(tree.sizes[c] for c in tree.children[v])
            for c in tree.children[v]:
                assert tree.parents[c] == v
        assert tree.sizes[tree.root] == tree.n

    @given(trees())
    @settings(max_examples=60, deadline=None)
    def test_postorder_ids_of_subtrees_are_contiguous(self, tree):
        for v in range(tree.n):
            nodes = tree.subtree_nodes(v)
            assert nodes == list(range(v - tree.sizes[v] + 1, v + 1))

    @given(trees())
    @settings(max_examples=60, deadline=None)
    def test_mirroring_twice_is_identity(self, tree):
        assert tree.mirrored().mirrored().structurally_equal(tree)

    @given(trees())
    @settings(max_examples=60, deadline=None)
    def test_path_partitionings_cover_all_nodes(self, tree):
        for kind in (LEFT, RIGHT, HEAVY):
            covered = sorted(v for path in tree.path_partitioning(kind) for v in path)
            assert covered == list(range(tree.n))


@pytest.fixture
def figure3_tree():
    return tree_from_nested(("A", [("B", ["D", ("E", ["F"]), "G"]), "C"]))


class TestSpfIndexArrays:
    """Index arrays consumed by the iterative single-path functions."""

    def test_rpost_is_postorder_of_mirrored_tree(self, example):
        rpost = example.rpost_of_post()
        mirrored = example.mirrored()
        # Node with postorder id v maps to postorder id rpost[v] in the mirror.
        assert [mirrored.labels[rpost[v]] for v in range(example.n)] == list(example.labels)

    def test_rpost_roundtrip(self, example):
        rpost = example.rpost_of_post()
        post = example.post_of_rpost()
        assert sorted(rpost) == list(range(example.n))
        assert all(rpost[post[i]] == i for i in range(example.n))

    def test_rpost_subtrees_are_contiguous(self, example):
        rpost = example.rpost_of_post()
        for v in range(example.n):
            ids = sorted(rpost[u] for u in example.subtree_nodes(v))
            assert ids == list(range(rpost[v] - example.sizes[v] + 1, rpost[v] + 1))

    def test_subtree_offset(self, example):
        for v in range(example.n):
            assert example.subtree_offset(v) == v - example.sizes[v] + 1
        assert example.subtree_offset(example.root) == 0

    def test_subtree_keyroots_match_rebuilt_subtree(self, example):
        for v in range(example.n):
            offset = example.subtree_offset(v)
            sub = example.subtree(v)
            assert example.subtree_keyroots(v, LEFT) == [
                offset + k for k in sub.keyroots_left()
            ]
            assert example.subtree_keyroots(v, RIGHT) == [
                offset + k for k in sub.keyroots_right()
            ]

    def test_subtree_keyroots_whole_tree(self, example):
        assert example.subtree_keyroots(example.root, LEFT) == example.keyroots_left()
        assert example.subtree_keyroots(example.root, RIGHT) == example.keyroots_right()

    def test_subtree_keyroots_reject_heavy(self, example):
        with pytest.raises(ValueError):
            example.subtree_keyroots(example.root, HEAVY)

    @given(trees())
    @settings(max_examples=40, deadline=None)
    def test_subtree_keyroots_property(self, tree):
        for v in range(tree.n):
            offset = tree.subtree_offset(v)
            sub = tree.subtree(v)
            assert tree.subtree_keyroots(v, LEFT) == [offset + k for k in sub.keyroots_left()]
