"""Convenience constructors for trees.

These helpers build :class:`~repro.trees.tree.Tree` objects from common
Python-native descriptions: nested tuples, parent arrays, and edge lists.
Parsers for textual formats (bracket notation, Newick, XML) live in
:mod:`repro.io`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import TreeConstructionError
from .node import Node, node_from_nested
from .tree import Tree


def tree_from_nested(spec: object) -> Tree:
    """Build a tree from a nested ``(label, [children])`` specification.

    Examples
    --------
    >>> t = tree_from_nested(("a", ["b", ("c", ["d"])]))
    >>> t.n
    4
    """
    return Tree(node_from_nested(spec))


def tree_from_parent_array(
    labels: Sequence[object], parents: Sequence[int]
) -> Tree:
    """Build a tree from parallel ``labels`` / ``parents`` arrays.

    ``parents[i]`` is the index (into the same arrays) of node ``i``'s parent,
    or ``-1`` for the root.  Children keep the relative order of their indices.

    Raises
    ------
    TreeConstructionError
        If the arrays have different lengths, there is not exactly one root,
        or the parent pointers contain a cycle.
    """
    if len(labels) != len(parents):
        raise TreeConstructionError(
            f"labels ({len(labels)}) and parents ({len(parents)}) must have the same length"
        )
    n = len(labels)
    if n == 0:
        raise TreeConstructionError("cannot build an empty tree")

    roots = [i for i, p in enumerate(parents) if p == -1]
    if len(roots) != 1:
        raise TreeConstructionError(f"expected exactly one root, found {len(roots)}")

    children: List[List[int]] = [[] for _ in range(n)]
    for i, p in enumerate(parents):
        if p == -1:
            continue
        if not 0 <= p < n:
            raise TreeConstructionError(f"parent index {p} of node {i} out of range")
        children[p].append(i)

    # With one root, a node the walk never reaches hangs off a cycle.
    tree = _preorder_tree(roots[0], children.__getitem__, labels.__getitem__)
    if tree.n != n:
        raise TreeConstructionError("parent array contains a cycle")
    return tree


def tree_from_edges(
    edges: Iterable[Tuple[object, object]],
    labels: Optional[Dict[object, object]] = None,
    root: Optional[object] = None,
) -> Tree:
    """Build a tree from ``(parent, child)`` edges.

    Children keep the order in which their edges appear.  Node identities may
    be any hashable values; ``labels`` optionally maps identities to labels
    (defaulting to the identity itself).  When ``root`` is omitted it is
    inferred as the unique node that never appears as a child.
    """
    edge_list = list(edges)
    children: Dict[object, List[object]] = {}
    all_nodes: Dict[object, None] = {}
    child_nodes = set()
    for parent, child in edge_list:
        children.setdefault(parent, []).append(child)
        all_nodes.setdefault(parent)
        all_nodes.setdefault(child)
        child_nodes.add(child)

    if not all_nodes:
        raise TreeConstructionError("cannot build a tree from an empty edge list")

    if root is None:
        candidates = [v for v in all_nodes if v not in child_nodes]
        if len(candidates) != 1:
            raise TreeConstructionError(
                f"expected exactly one root candidate, found {len(candidates)}"
            )
        root = candidates[0]
    elif root not in all_nodes:
        raise TreeConstructionError(f"declared root {root!r} does not appear in the edges")

    def label_of(identity: object) -> object:
        if labels is None:
            return identity
        return labels.get(identity, identity)

    tree = _preorder_tree(root, lambda v: children.get(v, ()), label_of)
    if tree.n != len(all_nodes):
        raise TreeConstructionError(
            "edge list is not connected: "
            f"{len(all_nodes) - tree.n} node(s) unreachable from the root"
        )
    return tree


def _preorder_tree(root, children, label) -> Tree:
    """Index the tree under ``root`` (``children(v)`` left to right, ``label(v)``)
    by an explicit-stack preorder walk.  Only an edge list can reach a node
    twice: each entry of a parent array names one parent."""
    labels: List[object] = []
    parents: List[int] = []
    seen = set()
    stack = [(root, -1)]
    while stack:
        v, parent = stack.pop()
        if v in seen:
            raise TreeConstructionError("edge list contains a cycle or a node with two parents")
        seen.add(v)
        stack.extend((c, len(labels)) for c in reversed(children(v)))
        labels.append(label(v))
        parents.append(parent)
    return Tree._from_preorder(labels, parents)


def single_node_tree(label: object = "a") -> Tree:
    """A tree consisting of a single labeled node."""
    return Tree(Node(label))


def path_tree(labels: Sequence[object]) -> Tree:
    """A degenerate path (each node has exactly one child), top to bottom."""
    if not labels:
        raise TreeConstructionError("path_tree requires at least one label")
    root = Node(labels[0])
    current = root
    for label in labels[1:]:
        current = current.add_child(Node(label))
    return Tree(root)


def star_tree(root_label: object, leaf_labels: Sequence[object]) -> Tree:
    """A root with ``len(leaf_labels)`` leaf children."""
    return Tree(Node(root_label, [Node(label) for label in leaf_labels]))
