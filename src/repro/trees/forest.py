"""Light-weight subforest views used by the decomposition engine.

A *relevant subforest* of a tree (in the sense of the RTED paper) is obtained
by repeatedly removing the leftmost or rightmost root node.  After the first
removal every connected component of such a forest is a complete subtree of
the original tree, so a subforest is fully described by the ordered tuple of
its component roots.  :class:`ForestView` wraps that tuple together with the
owning :class:`~repro.trees.tree.Tree` and provides the removal operations the
recursive tree edit distance formula needs.

The representation is deliberately simple: it favours clarity and testability
over raw speed, which is what the generic decomposition engine
(:mod:`repro.algorithms.forest_engine`) needs.  The production ``spf``
executor does not use it.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from .tree import Tree


class ForestView:
    """An ordered forest of complete subtrees of a host tree.

    Parameters
    ----------
    tree:
        The host :class:`Tree`.
    roots:
        Tuple of postorder ids of the component roots, in left-to-right order.
    """

    __slots__ = ("tree", "roots")

    def __init__(self, tree: Tree, roots: Tuple[int, ...]) -> None:
        self.tree = tree
        self.roots = roots

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def whole_tree(cls, tree: Tree) -> "ForestView":
        """The forest consisting of the complete tree."""
        return cls(tree, (tree.root,))

    @classmethod
    def subtree(cls, tree: Tree, v: int) -> "ForestView":
        """The forest consisting of the single subtree rooted at ``v``."""
        return cls(tree, (v,))

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        """``True`` when the forest has no nodes."""
        return not self.roots

    @property
    def is_tree(self) -> bool:
        """``True`` when the forest consists of exactly one component."""
        return len(self.roots) == 1

    def size(self) -> int:
        """Total number of nodes in the forest."""
        sizes = self.tree.sizes
        return sum(sizes[r] for r in self.roots)

    @property
    def leftmost_root(self) -> int:
        """Postorder id of the leftmost component root (``rL`` in the paper)."""
        return self.roots[0]

    @property
    def rightmost_root(self) -> int:
        """Postorder id of the rightmost component root (``rR`` in the paper)."""
        return self.roots[-1]

    def iter_nodes(self) -> Iterator[int]:
        """Yield all node ids in the forest (ascending postorder per component)."""
        for r in self.roots:
            yield from self.tree.subtree_nodes(r)

    # ------------------------------------------------------------------ #
    # Removal operations of the recursive formula
    # ------------------------------------------------------------------ #
    def remove_leftmost_root(self) -> "ForestView":
        """``F − rL(F)``: delete the leftmost root, exposing its children."""
        v = self.roots[0]
        children = tuple(self.tree.children[v])
        return ForestView(self.tree, children + self.roots[1:])

    def remove_rightmost_root(self) -> "ForestView":
        """``F − rR(F)``: delete the rightmost root, exposing its children."""
        v = self.roots[-1]
        children = tuple(self.tree.children[v])
        return ForestView(self.tree, self.roots[:-1] + children)

    def leftmost_subtree(self) -> "ForestView":
        """``F_{rL(F)}``: the complete subtree rooted at the leftmost root."""
        return ForestView(self.tree, (self.roots[0],))

    def rightmost_subtree(self) -> "ForestView":
        """``F_{rR(F)}``: the complete subtree rooted at the rightmost root."""
        return ForestView(self.tree, (self.roots[-1],))

    def without_leftmost_subtree(self) -> "ForestView":
        """``F − F_{rL(F)}``: drop the whole leftmost component."""
        return ForestView(self.tree, self.roots[1:])

    def without_rightmost_subtree(self) -> "ForestView":
        """``F − F_{rR(F)}``: drop the whole rightmost component."""
        return ForestView(self.tree, self.roots[:-1])

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def key(self) -> Tuple[int, ...]:
        """Hashable identity of the forest within its host tree."""
        return self.roots

    def labels(self) -> List[object]:
        """Labels of all nodes in the forest (per-component postorder)."""
        return [self.tree.labels[v] for v in self.iter_nodes()]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ForestView)
            and self.tree is other.tree
            and self.roots == other.roots
        )

    def __hash__(self) -> int:
        return hash((id(self.tree), self.roots))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ForestView(roots={self.roots})"


def enumerate_full_decomposition(tree: Tree, v: int | None = None) -> set:
    """Enumerate the full decomposition ``A(F_v)`` as a set of forest keys.

    This is the *definitional* (exponential-looking, but memoized) computation
    of Definition 1, used in tests to validate the closed-form of Lemma 1.
    """
    if v is None:
        v = tree.root
    seen: set = set()

    def visit(forest: ForestView) -> None:
        if forest.is_empty or forest.key() in seen:
            return
        seen.add(forest.key())
        visit(forest.remove_leftmost_root())
        visit(forest.remove_rightmost_root())

    visit(ForestView.subtree(tree, v))
    return seen


def enumerate_path_decomposition(tree: Tree, v: int, kind: str) -> List[Tuple[int, ...]]:
    """Enumerate the relevant subforests ``F(F_v, γ_kind(F_v))`` (Definition 3).

    Returns forest keys in the order the decomposition produces them; the
    cardinality must equal ``|F_v|`` by Lemma 2.
    """
    path = tree.path_set(v, kind)
    result: List[Tuple[int, ...]] = []
    forest = ForestView.subtree(tree, v)
    while not forest.is_empty:
        result.append(forest.key())
        if forest.leftmost_root in path:
            forest = forest.remove_rightmost_root()
        else:
            forest = forest.remove_leftmost_root()
    return result


def enumerate_recursive_path_decomposition(tree: Tree, v: int, kind: str) -> List[Tuple[int, ...]]:
    """Enumerate ``F(F_v, Γ_kind)`` — the recursive path decomposition (Eq. 1).

    The subforests of ``F_v`` w.r.t. its ``kind`` path, plus recursively the
    subforests of every relevant subtree.  The cardinality must match
    :meth:`Tree.left_decomposition_sizes` / ``right_decomposition_sizes``
    (Lemma 3).
    """
    result: List[Tuple[int, ...]] = []
    pending = [v]
    while pending:
        u = pending.pop()
        result.extend(enumerate_path_decomposition(tree, u, kind))
        pending.extend(tree.relevant_subtrees(u, kind))
    return result
