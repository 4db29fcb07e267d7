"""Indexed, immutable ordered labeled trees.

:class:`Tree` is the workhorse data structure of the library.  It holds a tree as
flat arrays indexed by *postorder position* (0-based), which is the node
identifier used throughout the algorithms:

* ``labels[i]`` — label of node ``i``;
* ``parents[i]`` — postorder id of the parent (``-1`` for the root);
* ``children[i]`` — postorder ids of the children, left to right;
* ``sizes[i]`` — number of nodes in the subtree rooted at ``i``;
* ``depths[i]`` — distance from the root;
* ``lml[i]`` / ``rml[i]`` — leftmost / rightmost leaf descendant of ``i``;
* ``pre_of_post[i]`` — preorder position of the node with postorder id ``i``.

On top of the raw arrays the class precomputes everything the RTED machinery
needs: heavy children, membership of a node in its parent's left/right/heavy
path, Zhang–Shasha keyroots, and the decomposition cardinalities of
Lemmas 1–3 of the paper (``|A(F_v)|``, ``|F(F_v, Γ_L)|``, ``|F(F_v, Γ_R)|``).
The iterative single-path functions (:mod:`repro.algorithms.spf`) additionally
use the reverse-postorder ids (:meth:`Tree.rpost_of_post`), per-subtree
keyroot slices (:meth:`Tree.subtree_keyroots`) and subtree-local offsets
(:meth:`Tree.subtree_offset`); see ``DESIGN.md`` for how they fit together.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Sequence, Tuple

from ..exceptions import InvalidNodeError, TreeConstructionError
from .node import Node

#: Path-kind constants.  ``LEFT``/``RIGHT``/``HEAVY`` identify root-leaf paths
#: that always descend to the leftmost child, the rightmost child, or the
#: child rooting the largest subtree, respectively.
LEFT = "left"
RIGHT = "right"
HEAVY = "heavy"

PATH_KINDS = (LEFT, RIGHT, HEAVY)


class Tree:
    """An immutable ordered labeled tree with postorder-indexed node arrays.

    Parameters
    ----------
    root:
        Root :class:`~repro.trees.node.Node` of the tree to index.  The node
        structure is not modified and not referenced after construction.

    Examples
    --------
    >>> from repro.trees import Node, Tree
    >>> t = Tree(Node("a", [Node("b"), Node("c", [Node("d")])]))
    >>> t.n
    4
    >>> t.label(t.root)
    'a'
    >>> t.sizes[t.root]
    4
    """

    __slots__ = (
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
        "_full_decomp",
        "_left_decomp",
        "_right_decomp",
        "_keyroots_left",
        "_keyroots_right",
        "_leaf_counts",
        "_rpost_of_post",
        "_post_of_rpost",
        "_on_path_all",
    )

    def __init__(self, root: Node) -> None:
        if not isinstance(root, Node):
            raise TreeConstructionError(
                f"Tree must be constructed from a Node, got {type(root).__name__}"
            )
        self._index_preorder(*_node_preorder(root))

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_preorder(cls, labels: List[object], parents: List[int]) -> "Tree":
        """Index the tree whose preorder node ``i`` has label ``labels[i]`` and
        parent ``parents[i]`` (a preorder id; ``-1`` for the root, node 0)."""
        tree = cls.__new__(cls)
        tree._index_preorder(labels, parents)
        return tree

    def _index_preorder(self, labels: List[object], parents: List[int]) -> None:
        """Populate every postorder array from preorder labels and parents.

        Preorder node ``i`` spans ``[i, i + size - 1]``, so its postorder id
        is ``i + size - 1 - depth``, its leftmost leaf ``i - depth`` and its
        rightmost leaf preorder node ``i + size - 1``.  The children sweep
        meets siblings left to right; a strict ``>`` keeps heavy-child ties on
        the leftmost child, as the reference RTED implementation does.
        """
        n = len(labels)
        depth = [0] * n
        for i in range(1, n):
            depth[i] = depth[parents[i]] + 1
        size = [1] * n
        for i in range(n - 1, 0, -1):
            size[parents[i]] += size[i]
        post_of_pre = [i + s - 1 - d for i, s, d in zip(range(n), size, depth)]
        del depth
        pre_of_post = [0] * n
        for i, v in enumerate(post_of_pre):
            pre_of_post[v] = i
        sizes = list(map(size.__getitem__, pre_of_post))
        rml = [post_of_pre[i + s - 1] for i, s in zip(pre_of_post, sizes)]
        del size
        # A trailing -1 maps the root's parent id (-1) to -1.
        post_of_pre.append(-1)
        parent_post = list(map(post_of_pre.__getitem__, parents))
        post_of_pre.pop()
        children: List[List[int]] = [[] for _ in range(n)]
        child_index = [0] * n
        heavy = [-1] * n
        heavy_size = [0] * n
        for p, c in zip(parent_post[1:], post_of_pre[1:]):
            kids = children[p]
            child_index[c] = len(kids)
            kids.append(c)
            if sizes[c] > heavy_size[p]:
                heavy_size[p] = sizes[c]
                heavy[p] = c
        lml = [v - s + 1 for v, s in enumerate(sizes)]

        self.labels: Sequence[object] = list(map(labels.__getitem__, pre_of_post))
        self.parents: Sequence[int] = list(map(parent_post.__getitem__, pre_of_post))
        self.children: Sequence[List[int]] = children
        self.sizes: Sequence[int] = sizes
        self.depths: Sequence[int] = [i - low for i, low in zip(pre_of_post, lml)]
        self.lml: Sequence[int] = lml
        self.rml: Sequence[int] = rml
        self.pre_of_post: Sequence[int] = pre_of_post
        self.post_of_pre: Sequence[int] = post_of_pre
        self.child_index: Sequence[int] = child_index
        self.heavy_child: Sequence[int] = heavy
        self._full_decomp: Optional[List[int]] = None
        self._left_decomp: Optional[List[int]] = None
        self._right_decomp: Optional[List[int]] = None
        self._keyroots_left: Optional[List[int]] = None
        self._keyroots_right: Optional[List[int]] = None
        self._leaf_counts: Optional[List[int]] = None
        self._rpost_of_post: Optional[List[int]] = None
        self._post_of_rpost: Optional[List[int]] = None
        self._on_path_all: dict = {}

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of nodes in the tree."""
        return len(self.labels)

    def __len__(self) -> int:
        return self.n

    @property
    def root(self) -> int:
        """Postorder id of the root node (always ``n - 1``)."""
        return self.n - 1

    def label(self, v: int) -> object:
        """Label of node ``v``."""
        self._check(v)
        return self.labels[v]

    def parent(self, v: int) -> int:
        """Postorder id of the parent of ``v`` (``-1`` for the root)."""
        self._check(v)
        return self.parents[v]

    def is_leaf(self, v: int) -> bool:
        """``True`` when ``v`` has no children."""
        self._check(v)
        return not self.children[v]

    def is_root(self, v: int) -> bool:
        """``True`` when ``v`` is the root."""
        self._check(v)
        return self.parents[v] == -1

    def num_leaves(self, v: Optional[int] = None) -> int:
        """Number of leaves in the subtree rooted at ``v`` (default: whole tree)."""
        if self._leaf_counts is None:
            counts = [0] * self.n
            for u in range(self.n):
                if not self.children[u]:
                    counts[u] = 1
                else:
                    counts[u] = sum(counts[c] for c in self.children[u])
            self._leaf_counts = counts
        if v is None:
            v = self.root
        self._check(v)
        return self._leaf_counts[v]

    def depth(self) -> int:
        """Height of the tree (a single-node tree has depth 0)."""
        return max(self.depths)

    def max_fanout(self) -> int:
        """Maximum number of children over all nodes."""
        return max((len(c) for c in self.children), default=0)

    def _check(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise InvalidNodeError(f"node id {v} out of range [0, {self.n})")

    # ------------------------------------------------------------------ #
    # Traversals
    # ------------------------------------------------------------------ #
    def iter_postorder(self, v: Optional[int] = None) -> Iterator[int]:
        """Yield postorder ids of the subtree rooted at ``v`` in postorder.

        For the default ``v=None`` (whole tree) this is simply
        ``range(self.n)``; for a subtree it is the contiguous-in-structure set
        of descendants, still in ascending postorder.
        """
        if v is None:
            yield from range(self.n)
            return
        self._check(v)
        yield from self.subtree_nodes(v)

    def iter_preorder(self, v: Optional[int] = None) -> Iterator[int]:
        """Yield postorder ids of the subtree rooted at ``v`` in preorder."""
        if v is None:
            v = self.root
        self._check(v)
        first = self.pre_of_post[v]
        yield from self.post_of_pre[first : first + self.sizes[v]]

    def subtree_nodes(self, v: int) -> List[int]:
        """Postorder ids of all nodes in the subtree rooted at ``v``, ascending.

        Because descendants of ``v`` receive postorder ids in
        ``[v - sizes[v] + 1, v]``, this is a contiguous range.
        """
        self._check(v)
        return list(range(v - self.sizes[v] + 1, v + 1))

    def is_descendant(self, u: int, v: int) -> bool:
        """``True`` iff ``u`` is ``v`` or a descendant of ``v``."""
        self._check(u)
        self._check(v)
        return v - self.sizes[v] + 1 <= u <= v

    # ------------------------------------------------------------------ #
    # Paths (left / right / heavy)
    # ------------------------------------------------------------------ #
    def path_child(self, v: int, kind: str) -> int:
        """The child of ``v`` that continues the ``kind`` path (``-1`` for leaves)."""
        self._check(v)
        kids = self.children[v]
        if not kids:
            return -1
        if kind == LEFT:
            return kids[0]
        if kind == RIGHT:
            return kids[-1]
        if kind == HEAVY:
            return self.heavy_child[v]
        raise ValueError(f"unknown path kind {kind!r}")

    def root_leaf_path(self, v: int, kind: str) -> List[int]:
        """Nodes of the ``kind`` root-leaf path of the subtree rooted at ``v``.

        The path starts at ``v`` and repeatedly descends to the left / right /
        heavy child until a leaf is reached.
        """
        path = [v]
        current = v
        while self.children[current]:
            current = self.path_child(current, kind)
            path.append(current)
        return path

    def path_set(self, v: int, kind: str) -> frozenset:
        """Same as :meth:`root_leaf_path` but returned as a frozenset of node ids."""
        return frozenset(self.root_leaf_path(v, kind))

    def on_parent_path(self, v: int, kind: str) -> bool:
        """``True`` iff ``v`` lies on the ``kind`` path of its parent's subtree.

        Equivalently: ``v`` is the leftmost (``LEFT``), rightmost (``RIGHT``)
        or heavy (``HEAVY``) child of its parent.  The root returns ``False``.
        """
        p = self.parents[v]
        if p == -1:
            return False
        return self.path_child(p, kind) == v

    def on_parent_path_all(self, kind: str) -> List[bool]:
        """:meth:`on_parent_path` evaluated for every node, cached per ``kind``.

        ``on_parent_path_all(kind)[v]`` is ``True`` iff ``v`` continues the
        ``kind`` path of its parent.  The flat boolean array is the form the
        vectorized strategy computation (Algorithm 2) and the single-path
        chain builder consume; for ``HEAVY`` it is the heavy-path membership
        index of the whole tree.
        """
        if kind not in PATH_KINDS:
            raise ValueError(f"unknown path kind {kind!r}")
        cached = self._on_path_all.get(kind)
        if cached is None:
            cached = [self.on_parent_path(v, kind) for v in range(self.n)]
            self._on_path_all[kind] = cached
        return cached

    def relevant_subtrees(self, v: int, kind: str) -> List[int]:
        """Roots of the relevant subtrees ``F_v − γ_kind(F_v)`` (Definition 2).

        These are the subtrees hanging off the ``kind`` root-leaf path of the
        subtree rooted at ``v``, i.e. every child of a path node that is not
        itself on the path.  Returned in ascending postorder.
        """
        roots: List[int] = []
        for u in self.root_leaf_path(v, kind):
            next_on_path = self.path_child(u, kind)
            for c in self.children[u]:
                if c != next_on_path:
                    roots.append(c)
        roots.sort()
        return roots

    def path_partitioning(self, kind: str, v: Optional[int] = None) -> List[List[int]]:
        """The ``kind`` path partitioning Γ_kind of the subtree rooted at ``v``.

        Returns a list of node-id lists; the paths are disjoint, each ends at a
        leaf, and together they cover every node of the subtree.
        """
        if v is None:
            v = self.root
        partitions: List[List[int]] = []
        pending = [v]
        while pending:
            u = pending.pop()
            path = self.root_leaf_path(u, kind)
            partitions.append(path)
            pending.extend(self.relevant_subtrees(u, kind))
        return partitions

    # ------------------------------------------------------------------ #
    # Decomposition cardinalities (Lemmas 1-3 of the paper)
    # ------------------------------------------------------------------ #
    def full_decomposition_sizes(self) -> List[int]:
        """``|A(F_v)|`` for every node ``v`` (Lemma 1).

        ``|A(F)| = |F|(|F|+3)/2 − Σ_{x∈F} |F_x|`` — the number of distinct
        subforests in the full decomposition of the subtree rooted at ``v``.
        """
        if self._full_decomp is None:
            subtree_size_sums = [0] * self.n
            for v in range(self.n):
                subtree_size_sums[v] = self.sizes[v] + sum(
                    subtree_size_sums[c] for c in self.children[v]
                )
            self._full_decomp = [
                self.sizes[v] * (self.sizes[v] + 3) // 2 - subtree_size_sums[v]
                for v in range(self.n)
            ]
        return self._full_decomp

    def left_decomposition_sizes(self) -> List[int]:
        """``|F(F_v, Γ_L(F_v))|`` for every node ``v`` (Lemma 3, left paths)."""
        if self._left_decomp is None:
            self._left_decomp = self._path_decomposition_sizes(LEFT)
        return self._left_decomp

    def right_decomposition_sizes(self) -> List[int]:
        """``|F(F_v, Γ_R(F_v))|`` for every node ``v`` (Lemma 3, right paths)."""
        if self._right_decomp is None:
            self._right_decomp = self._path_decomposition_sizes(RIGHT)
        return self._right_decomp

    def _path_decomposition_sizes(self, kind: str) -> List[int]:
        """Number of relevant subforests of the recursive ``kind`` decomposition.

        By Lemma 3 this equals the sum of the sizes of all relevant subtrees in
        the recursive decomposition, which admits the bottom-up recurrence

        ``off[v] = Σ_c off[c] + Σ_{c not on kind path of v} sizes[c]``
        ``result[v] = sizes[v] + off[v]``
        """
        off = [0] * self.n
        result = [0] * self.n
        for v in range(self.n):
            total = 0
            path_child = self.path_child(v, kind)
            for c in self.children[v]:
                total += off[c]
                if c != path_child:
                    total += self.sizes[c]
            off[v] = total
            result[v] = self.sizes[v] + total
        return result

    # ------------------------------------------------------------------ #
    # Zhang-Shasha keyroots
    # ------------------------------------------------------------------ #
    def keyroots_left(self) -> List[int]:
        """LR-keyroots for the left-path (classic Zhang–Shasha) decomposition.

        A node is a keyroot iff it is the root or it is not the leftmost child
        of its parent (equivalently, its leftmost leaf differs from its
        parent's).  Returned in ascending postorder.
        """
        if self._keyroots_left is None:
            self._keyroots_left = [
                v
                for v in range(self.n)
                if self.parents[v] == -1 or self.lml[v] != self.lml[self.parents[v]]
            ]
        return self._keyroots_left

    def keyroots_right(self) -> List[int]:
        """Keyroots for the mirror (right-path) Zhang–Shasha decomposition."""
        if self._keyroots_right is None:
            self._keyroots_right = [
                v
                for v in range(self.n)
                if self.parents[v] == -1 or self.rml[v] != self.rml[self.parents[v]]
            ]
        return self._keyroots_right

    # ------------------------------------------------------------------ #
    # Index arrays for the iterative single-path functions (repro.algorithms.spf)
    # ------------------------------------------------------------------ #
    def rpost_of_post(self) -> List[int]:
        """Reverse-postorder id of every node, indexed by postorder id.

        The reverse postorder visits children right-to-left before their
        parent, i.e. it is the postorder of the *mirrored* tree, and equals
        ``n - 1 - preorder``.  In reverse-postorder coordinates the subtree of
        ``v`` occupies the contiguous range
        ``[rpost(v) - sizes[v] + 1, rpost(v)]`` and the rightmost leaf plays
        the role of the leftmost leaf, which lets the right-path single-path
        function reuse the left-path recurrence on flat arrays without
        materializing a mirrored tree.
        """
        if self._rpost_of_post is None:
            last = self.n - 1
            self._rpost_of_post = [last - p for p in self.pre_of_post]
        return self._rpost_of_post

    def post_of_rpost(self) -> List[int]:
        """Inverse of :meth:`rpost_of_post`: postorder id for a reverse-postorder id."""
        if self._post_of_rpost is None:
            inverse = [0] * self.n
            for post_id, rpost_id in enumerate(self.rpost_of_post()):
                inverse[rpost_id] = post_id
            self._post_of_rpost = inverse
        return self._post_of_rpost

    def subtree_offset(self, v: int) -> int:
        """Postorder id of the first node of the subtree rooted at ``v``.

        ``u - subtree_offset(v)`` is the *subtree-local* index of a descendant
        ``u``, the row/column index used by the dense single-path tables.
        """
        self._check(v)
        return v - self.sizes[v] + 1

    def subtree_keyroots(self, v: int, kind: str = LEFT) -> List[int]:
        """Keyroots of the subtree rooted at ``v``, in ascending postorder.

        For ``v`` the whole-tree root this equals :meth:`keyroots_left` /
        :meth:`keyroots_right`.  For an inner ``v`` the result is the slice of
        the global keyroot list falling inside the subtree's contiguous
        postorder range, plus ``v`` itself (the root of a subtree is always a
        keyroot of that subtree even when it is a leftmost/rightmost child
        globally).
        """
        self._check(v)
        if kind == LEFT:
            keyroots = self.keyroots_left()
        elif kind == RIGHT:
            keyroots = self.keyroots_right()
        else:
            raise ValueError(f"subtree keyroots are defined for left/right paths, not {kind!r}")
        low = self.subtree_offset(v)
        slice_ = keyroots[bisect_left(keyroots, low) : bisect_right(keyroots, v)]
        if not slice_ or slice_[-1] != v:
            slice_ = slice_ + [v]
        return slice_

    # ------------------------------------------------------------------ #
    # Derived trees
    # ------------------------------------------------------------------ #
    def to_node(self, v: Optional[int] = None) -> Node:
        """Reconstruct a mutable :class:`Node` structure for the subtree at ``v``."""
        if v is None:
            v = self.root
        self._check(v)
        nodes = {u: Node(self.labels[u]) for u in self.subtree_nodes(v)}
        for u in self.subtree_nodes(v):
            nodes[u].children = [nodes[c] for c in self.children[u]]
        return nodes[v]

    def subtree(self, v: int) -> "Tree":
        """Return the subtree rooted at ``v`` as a new :class:`Tree`."""
        nodes = list(self.iter_preorder(v))
        first = self.pre_of_post[v]
        pre, parents = self.pre_of_post, self.parents
        return Tree._from_preorder(
            [self.labels[u] for u in nodes],
            [-1] + [pre[parents[u]] - first for u in nodes[1:]],
        )

    def mirrored(self) -> "Tree":
        """Return a new tree with the order of children reversed at every node.

        Reverse postorder is the mirrored tree's preorder: ``u`` becomes ``n - 1 - u``.
        """
        last = self.n - 1
        return Tree._from_preorder(
            self.labels[::-1], [-1] + [last - p for p in self.parents[-2::-1]]
        )

    # ------------------------------------------------------------------ #
    # Label sequences (used by bounds and serializers)
    # ------------------------------------------------------------------ #
    def labels_postorder(self) -> List[object]:
        """Labels in postorder."""
        return list(self.labels)

    def labels_preorder(self) -> List[object]:
        """Labels in preorder."""
        return [self.labels[self.post_of_pre[i]] for i in range(self.n)]

    # ------------------------------------------------------------------ #
    # Equality / representation
    # ------------------------------------------------------------------ #
    def structurally_equal(self, other: "Tree") -> bool:
        """``True`` iff both trees have identical shape and labels."""
        if not isinstance(other, Tree):
            return False
        return (
            self.n == other.n
            and list(self.labels) == list(other.labels)
            and list(self.parents) == list(other.parents)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tree(n={self.n}, depth={self.depth()}, root_label={self.labels[self.root]!r})"


def _node_preorder(root: Node) -> Tuple[List[object], List[int]]:
    """Preorder labels and parent ids under ``root``; each stack frame is a
    parent's id and an iterator over its remaining children."""
    labels: List[object] = [root.label]
    parents = [-1]
    add_label = labels.append
    add_parent = parents.append
    stack = [(0, iter(root.children))]
    push = stack.append
    while stack:
        parent, kids = stack[-1]
        for child in kids:
            add_parent(parent)
            add_label(child.label)
            if child.children:
                push((len(labels) - 1, iter(child.children)))
                break
        else:
            stack.pop()
    return labels, parents
