"""Shape statistics for trees and tree collections.

These summaries mirror the dataset characteristics the RTED paper reports
(average size, depth, fanout) and are used both by the dataset simulators and
by the experiment harnesses when describing workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from .tree import Tree


@dataclass(frozen=True)
class TreeShapeStats:
    """Shape statistics of a single tree."""

    size: int
    depth: int
    max_fanout: int
    avg_fanout: float
    num_leaves: int
    left_heaviness: float
    """Fraction of internal nodes whose heavy child is the leftmost child."""

    right_heaviness: float
    """Fraction of internal nodes whose heavy child is the rightmost child."""


@dataclass(frozen=True)
class CollectionStats:
    """Aggregate shape statistics of a collection of trees."""

    num_trees: int
    avg_size: float
    max_size: int
    avg_depth: float
    max_depth: int
    avg_fanout: float
    max_fanout: int


def tree_stats(tree: Tree) -> TreeShapeStats:
    """Compute :class:`TreeShapeStats` for ``tree``."""
    internal = [v for v in range(tree.n) if tree.children[v]]
    num_children = sum(len(tree.children[v]) for v in internal)
    left_heavy = sum(1 for v in internal if tree.heavy_child[v] == tree.children[v][0])
    right_heavy = sum(1 for v in internal if tree.heavy_child[v] == tree.children[v][-1])
    denominator = max(len(internal), 1)
    return TreeShapeStats(
        size=tree.n,
        depth=tree.depth(),
        max_fanout=tree.max_fanout(),
        avg_fanout=num_children / denominator,
        num_leaves=tree.num_leaves(),
        left_heaviness=left_heavy / denominator,
        right_heaviness=right_heavy / denominator,
    )


def collection_stats(trees: Iterable[Tree]) -> CollectionStats:
    """Compute :class:`CollectionStats` for a collection of trees."""
    sizes: List[int] = []
    depths: List[int] = []
    fanouts: List[int] = []
    for tree in trees:
        sizes.append(tree.n)
        depths.append(tree.depth())
        fanouts.append(tree.max_fanout())
    if not sizes:
        return CollectionStats(0, 0.0, 0, 0.0, 0, 0.0, 0)
    return CollectionStats(
        num_trees=len(sizes),
        avg_size=sum(sizes) / len(sizes),
        max_size=max(sizes),
        avg_depth=sum(depths) / len(depths),
        max_depth=max(depths),
        avg_fanout=sum(fanouts) / len(fanouts),
        max_fanout=max(fanouts),
    )


def label_histogram(tree: Tree) -> dict:
    """Multiset of labels as a ``label -> count`` dictionary."""
    histogram: dict = {}
    for label in tree.labels:
        histogram[label] = histogram.get(label, 0) + 1
    return histogram


def shape_signature(tree: Tree) -> Sequence[int]:
    """A label-agnostic signature of the tree shape.

    Two trees have the same signature iff they are structurally identical
    ignoring labels (children counts in postorder fully determine the shape).
    """
    return tuple(len(tree.children[v]) for v in range(tree.n))
