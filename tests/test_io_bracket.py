"""Unit tests for bracket-notation parsing and serialization."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import left_branch_tree
from repro.datasets.realworld import treebank_like_tree
from repro.exceptions import ParseError
from repro.io import (
    dump_bracket_collection,
    parse_bracket,
    parse_bracket_collection,
    to_bracket,
)
from repro.io.bracket import escape_label
from repro.trees import Node, Tree

from conftest import MALFORMED_BRACKET, tree_arrays, trees


class TestParsing:
    def test_single_node(self):
        tree = parse_bracket("{a}")
        assert tree.n == 1 and tree.label(tree.root) == "a"

    def test_nested(self):
        tree = parse_bracket("{a{b}{c{d}}}")
        assert tree.n == 4
        assert tree.labels_preorder() == ["a", "b", "c", "d"]

    def test_whitespace_tolerated_around_tree(self):
        assert parse_bracket("  {a{b}}  ").n == 2

    def test_empty_label_allowed(self):
        tree = parse_bracket("{{x}}")
        assert tree.label(tree.root) == ""
        assert tree.n == 2

    def test_escaped_braces_in_label(self):
        tree = parse_bracket(r"{a\{b\}}")
        assert tree.label(tree.root) == "a{b}"

    def test_label_with_spaces_and_punctuation(self):
        tree = parse_bracket("{hello world, 42!{x}}")
        assert tree.label(tree.root) == "hello world, 42!"

    @pytest.mark.parametrize(
        "text, message, position", MALFORMED_BRACKET, ids=[repr(t) for t, _, _ in MALFORMED_BRACKET]
    )
    def test_malformed_input_raises(self, text, message, position):
        with pytest.raises(ParseError) as caught:
            parse_bracket(text)
        assert str(caught.value) == message
        assert caught.value.position == position

    def test_parse_builds_no_node(self, monkeypatch):
        made = []
        init = Node.__init__

        def counting_init(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Node, "__init__", counting_init)
        tree = parse_bracket(r"{a{b\{}{c{d}{}}}")
        assert tree.n == 5
        assert made == []


# Labels that need escaping, empty labels, and chains deep enough to matter.
_LABELS = st.text(alphabet="ab{}\\ ", max_size=4)
_BUSHY = st.recursive(
    _LABELS.map(Node),
    lambda children: st.builds(Node, _LABELS, st.lists(children, max_size=4)),
    max_leaves=16,
)


def _chain_onto(labels, tail: Node) -> Node:
    node = tail
    for label in reversed(labels):
        node = Node(label, [node])
    return node


_NODES = st.one_of(
    _BUSHY,
    st.builds(_chain_onto, st.lists(_LABELS, max_size=40), _BUSHY),
)


def _check_definitions(tree: Tree, root: Node) -> None:
    """Check every array of ``tree`` against its definition on ``root``."""
    post = list(root.iter_postorder())
    pre = list(root.iter_preorder())
    post_id = {id(node): v for v, node in enumerate(post)}
    pre_id = {id(node): i for i, node in enumerate(pre)}
    parent = {id(c): node for node in pre for c in node.children}
    assert tree.n == len(post)
    for v, node in enumerate(post):
        kids = [post_id[id(c)] for c in node.children]
        up = parent.get(id(node))
        assert tree.labels[v] == node.label
        assert tree.children[v] == kids
        assert tree.parents[v] == (post_id[id(up)] if up else -1)
        assert tree.child_index[v] == (
            [id(c) for c in up.children].index(id(node)) if up else 0
        )
        assert tree.sizes[v] == node.size()
        depth, above = 0, up
        while above is not None:
            depth, above = depth + 1, parent.get(id(above))
        assert tree.depths[v] == depth
        leftmost = rightmost = node
        while leftmost.children:
            leftmost = leftmost.children[0]
        while rightmost.children:
            rightmost = rightmost.children[-1]
        assert tree.lml[v] == post_id[id(leftmost)]
        assert tree.rml[v] == post_id[id(rightmost)]
        assert tree.pre_of_post[v] == pre_id[id(node)]
        assert tree.post_of_pre[tree.pre_of_post[v]] == v
        # The heavy child roots the largest subtree; ties go to the leftmost.
        sizes = [c.size() for c in node.children]
        heavy = kids[sizes.index(max(sizes))] if kids else -1
        assert tree.heavy_child[v] == heavy


class TestIndexer:
    @given(_NODES)
    @settings(max_examples=150, deadline=None)
    def test_bracket_and_node_routes_agree_with_definitions(self, root):
        from_node = Tree(root)
        from_text = parse_bracket(to_bracket(root))
        _check_definitions(from_node, root)
        assert tree_arrays(from_text) == tree_arrays(from_node)


class TestHugeInputs:
    """Peak traced memory of a parse stays within a fixed budget per node."""

    @staticmethod
    def _peak(text: str):
        tracemalloc.start()
        try:
            tree = parse_bracket(text)
            return tree, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: left_branch_tree(100_001),
            lambda: treebank_like_tree(random.Random(1), target_size=200_000),
        ],
        ids=["left-branch-100001", "treebank-200000"],
    )
    def test_deep_and_wide_trees(self, build):
        source = build()
        text = to_bracket(source)
        tree, peak = self._peak(text)
        assert tree.n == source.n
        assert peak <= 450 * tree.n

    def test_megabyte_label_of_escapes(self):
        # One node, so the budget is per input byte: the scan keeps one
        # piece per escape, never a per-escape stack or a token list.
        label = "{}\\" * 350_000
        assert len(label) > 1_000_000
        text = "{" + escape_label(label) + "}"
        tree, peak = self._peak(text)
        assert tree.labels == [label]
        assert peak <= 8 * len(text)


class TestSerialization:
    def test_round_trip_simple(self):
        text = "{a{b}{c{d}}}"
        assert to_bracket(parse_bracket(text)) == text

    def test_round_trip_with_special_characters(self):
        original = parse_bracket(r"{we\{ird{x}}")
        assert parse_bracket(to_bracket(original)).structurally_equal(original)

    @given(trees())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random_trees(self, tree):
        assert parse_bracket(to_bracket(tree)).structurally_equal(tree)

    def test_deep_tree_serialization_does_not_recurse(self):
        from repro.datasets import left_branch_tree

        tree = left_branch_tree(4001)
        text = to_bracket(tree)
        assert text.count("{") == tree.n
        assert parse_bracket(text).n == tree.n


class TestCollections:
    def test_collection_round_trip(self):
        trees_in = [parse_bracket("{a{b}}"), parse_bracket("{x}")]
        text = dump_bracket_collection(trees_in)
        trees_out = parse_bracket_collection(text)
        assert len(trees_out) == 2
        assert trees_out[0].structurally_equal(trees_in[0])

    def test_collection_skips_comments_and_blank_lines(self):
        text = "# comment\n\n{a}\n   \n{b{c}}\n"
        assert [t.n for t in parse_bracket_collection(text)] == [1, 2]

    def test_collection_reports_line_number_on_error(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_bracket_collection("{a}\n{broken\n")
