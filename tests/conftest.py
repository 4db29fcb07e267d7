"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.algorithms import TedWorkspace
from repro.trees import Node, Tree, tree_from_nested
from repro.datasets import random_tree


# --------------------------------------------------------------------------- #
# Deterministic example trees
# --------------------------------------------------------------------------- #
@pytest.fixture
def paper_tree() -> Tree:
    """The example tree of Figure 1 of the paper: root a, children b, (e->c?), d.

    Labels follow the figure: a root with three children b, e (which has one
    child c) and d.
    """
    return tree_from_nested(("a", ["b", ("e", ["c"]), "d"]))


@pytest.fixture
def figure3_tree() -> Tree:
    """The tree used in Figures 3 and 4 (A with children B(D, E(F), G) and C)."""
    return tree_from_nested(("A", [("B", ["D", ("E", ["F"]), "G"]), "C"]))


@pytest.fixture
def small_pair() -> tuple:
    """A small, hand-checkable tree pair with known unit-cost distance 2."""
    t1 = tree_from_nested(("a", ["b", ("c", ["d"])]))
    t2 = tree_from_nested(("a", [("c", ["d"]), "e"]))
    return t1, t2


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20110401)


@pytest.fixture(params=[False, True], ids=["provider", "no-native"])
def kill_switch(request, monkeypatch):
    """Run a test with the compiled small-pair provider and again with
    ``RTED_NO_NATIVE=1`` (the Python lanes)."""
    if request.param:
        monkeypatch.setenv("RTED_NO_NATIVE", "1")
    else:
        monkeypatch.delenv("RTED_NO_NATIVE", raising=False)
    return request.param


def random_tree_pairs(count: int, max_size: int = 14, seed: int = 7):
    """Deterministic list of random tree pairs for cross-algorithm tests."""
    generator = random.Random(seed)
    pairs = []
    for _ in range(count):
        size_a = generator.randint(1, max_size)
        size_b = generator.randint(1, max_size)
        pairs.append(
            (
                random_tree(size_a, rng=generator, max_depth=8, max_fanout=4),
                random_tree(size_b, rng=generator, max_depth=8, max_fanout=4),
            )
        )
    return pairs


def small_pair_distance(tree_f: Tree, tree_g: Tree) -> float:
    """Unit-cost reference distance from the small-pair program: the
    Zhang–Shasha keyroot sweep, in the C kernel or, without a provider,
    through spf's scalar region kernel.

    With the C kernel it shares no code with the ``spf`` executor; without
    one it shares ``spf._region_py``, and ``tests/test_batch_kernel.py``
    checks those Python lanes against the ``SimpleTED`` oracle instead.
    The sweep runs iteratively, so any depth within the cell budget is
    fine; a pair over the budget fails the test rather than silently
    losing its reference.
    """
    result = TedWorkspace().compute_small(tree_f, tree_g)
    assert result is not None, "pair exceeds the small-pair cell budget"
    return result[0]


#: The eleven postorder arrays every :class:`Tree` carries.
TREE_ARRAYS = (
    "labels",
    "parents",
    "children",
    "sizes",
    "depths",
    "lml",
    "rml",
    "pre_of_post",
    "post_of_pre",
    "child_index",
    "heavy_child",
)


def tree_arrays(tree: Tree) -> dict:
    """The :data:`TREE_ARRAYS` of ``tree`` as plain lists, for equality checks."""
    return {name: list(getattr(tree, name)) for name in TREE_ARRAYS}


#: Malformed bracket texts with the message and position their ``ParseError``
#: carries.  Positions count from the start of the stripped text.
MALFORMED_BRACKET = [
    ("", "empty input", 0),
    ("   ", "empty input", 0),
    ("a", "expected '{' at position 0", 0),
    ("}", "expected '{' at position 0", 0),
    ("{a", "expected '}' at position 2", 2),
    ("{a{b}", "expected '}' at position 5", 5),
    ("{a{b}x}", "expected '}' at position 5", 5),
    ("{a\\", "expected '}' at position 3", 3),
    ("{a\\}", "expected '}' at position 4", 4),
    ("{a}}", "trailing characters after tree: '}'", 3),
    ("{a}{b}", "trailing characters after tree: '{b}'", 3),
    ("{a}trailing", "trailing characters after tree: 'trailing'", 3),
    ("{a}  {b}", "trailing characters after tree: '  {b}'", 3),
]


# --------------------------------------------------------------------------- #
# Hypothesis strategies
# --------------------------------------------------------------------------- #
_LABELS = st.sampled_from(list("abcde"))


def _node_strategy(max_children: int, max_depth: int):
    return st.recursive(
        _LABELS.map(Node),
        lambda children: st.builds(
            Node,
            _LABELS,
            st.lists(children, min_size=0, max_size=max_children),
        ),
        max_leaves=12,
    )


@st.composite
def trees(draw, max_children: int = 3, max_depth: int = 4) -> Tree:
    """Hypothesis strategy generating small random :class:`Tree` objects."""
    node = draw(_node_strategy(max_children, max_depth))
    return Tree(node)


@st.composite
def tree_pairs(draw) -> tuple:
    """Hypothesis strategy generating pairs of small random trees."""
    return draw(trees()), draw(trees())
