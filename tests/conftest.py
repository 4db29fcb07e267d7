"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

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
    ``RTED_NO_NATIVE=1`` (the Python twin)."""
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
