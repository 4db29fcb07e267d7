"""Traversal helpers shared by serializers, bounds, and experiments.

The :class:`~repro.trees.tree.Tree` class exposes the basic pre/postorder
iterators; this module adds the derived traversals used elsewhere in the
library (breadth-first order, leaves, ancestor chains, Euler tours, and
per-level grouping).
"""

from __future__ import annotations

from collections import deque
from typing import List, Tuple

from .tree import Tree


def bfs_order(tree: Tree) -> List[int]:
    """Node ids in breadth-first (level) order starting at the root."""
    order: List[int] = []
    queue = deque([tree.root])
    while queue:
        v = queue.popleft()
        order.append(v)
        queue.extend(tree.children[v])
    return order


def leaves(tree: Tree) -> List[int]:
    """Postorder ids of all leaves, in ascending (left-to-right) order."""
    return [v for v in range(tree.n) if not tree.children[v]]


def ancestors(tree: Tree, v: int) -> List[int]:
    """Ancestors of ``v`` from its parent up to the root (exclusive of ``v``)."""
    chain: List[int] = []
    current = tree.parents[v]
    while current != -1:
        chain.append(current)
        current = tree.parents[current]
    return chain


def root_path_labels(tree: Tree, v: int) -> List[object]:
    """Labels from the root down to ``v`` (inclusive)."""
    chain = [v] + ancestors(tree, v)
    chain.reverse()
    return [tree.labels[u] for u in chain]


def levels(tree: Tree) -> List[List[int]]:
    """Group node ids by depth; ``levels(t)[d]`` lists all nodes at depth ``d``."""
    grouped: List[List[int]] = [[] for _ in range(tree.depth() + 1)]
    for v in range(tree.n):
        grouped[tree.depths[v]].append(v)
    return grouped


def euler_tour(tree: Tree) -> List[Tuple[str, int]]:
    """Euler tour as a list of ``("enter" | "leave", node_id)`` events.

    The tour visits every node twice; it is the traversal underlying the
    bracket serialization and several tree encodings.
    """
    events: List[Tuple[str, int]] = []

    def visit(v: int) -> None:
        stack: List[Tuple[int, int]] = [(v, 0)]
        while stack:
            node, child_pos = stack.pop()
            if child_pos == 0:
                events.append(("enter", node))
            if child_pos < len(tree.children[node]):
                stack.append((node, child_pos + 1))
                stack.append((tree.children[node][child_pos], 0))
            else:
                events.append(("leave", node))

    visit(tree.root)
    return events


def lowest_common_ancestor(tree: Tree, u: int, v: int) -> int:
    """Lowest common ancestor of ``u`` and ``v`` (simple linear-walk version)."""
    ancestors_u = set([u]) | set(ancestors(tree, u))
    current = v
    while current not in ancestors_u:
        current = tree.parents[current]
    return current
