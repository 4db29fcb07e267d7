"""Path strategies (Definition 4 of the paper).

A *path strategy* maps every pair of subtrees ``(F_v, G_w)`` to a root-leaf
path in one of the two subtrees.  An *LRH strategy* only uses left, right and
heavy paths.  The strategies of the published algorithms and the optimal
strategy computed by Algorithm 2 are all expressed through the small
:class:`PathChoice` / :class:`Strategy` interface below, which is what the
generic decomposition engine (:mod:`repro.algorithms.forest_engine`) and GTED
consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..exceptions import StrategyError
from ..trees.tree import HEAVY, LEFT, PATH_KINDS, RIGHT, Tree

#: Which input tree the chosen path belongs to.
SIDE_F = "F"
SIDE_G = "G"


@dataclass(frozen=True)
class PathChoice:
    """A root-leaf path choice: the owning tree (``F`` or ``G``) and path kind."""

    side: str
    kind: str

    def __post_init__(self) -> None:
        if self.side not in (SIDE_F, SIDE_G):
            raise StrategyError(f"invalid side {self.side!r}; expected 'F' or 'G'")
        if self.kind not in PATH_KINDS:
            raise StrategyError(f"invalid path kind {self.kind!r}; expected one of {PATH_KINDS}")


class Strategy:
    """Base class for path strategies.

    ``choose`` receives the two host trees and the postorder ids of the
    subtree roots of the current pair and returns a :class:`PathChoice`.
    """

    #: Human-readable strategy identifier.
    name: str = "abstract"

    def choose(self, tree_f: Tree, tree_g: Tree, v: int, w: int) -> PathChoice:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class LeftFStrategy(Strategy):
    """Zhang-L: always decompose the left-hand tree along its left path."""

    name = "left-F"

    def choose(self, tree_f: Tree, tree_g: Tree, v: int, w: int) -> PathChoice:
        return PathChoice(SIDE_F, LEFT)


class RightFStrategy(Strategy):
    """Zhang-R: always decompose the left-hand tree along its right path."""

    name = "right-F"

    def choose(self, tree_f: Tree, tree_g: Tree, v: int, w: int) -> PathChoice:
        return PathChoice(SIDE_F, RIGHT)


class HeavyFStrategy(Strategy):
    """Klein-H: always decompose the left-hand tree along its heavy path."""

    name = "heavy-F"

    def choose(self, tree_f: Tree, tree_g: Tree, v: int, w: int) -> PathChoice:
        return PathChoice(SIDE_F, HEAVY)


class LeftGStrategy(Strategy):
    """Always decompose the right-hand tree along its left path."""

    name = "left-G"

    def choose(self, tree_f: Tree, tree_g: Tree, v: int, w: int) -> PathChoice:
        return PathChoice(SIDE_G, LEFT)


class RightGStrategy(Strategy):
    """Always decompose the right-hand tree along its right path."""

    name = "right-G"

    def choose(self, tree_f: Tree, tree_g: Tree, v: int, w: int) -> PathChoice:
        return PathChoice(SIDE_G, RIGHT)


class HeavyGStrategy(Strategy):
    """Always decompose the right-hand tree along its heavy path."""

    name = "heavy-G"

    def choose(self, tree_f: Tree, tree_g: Tree, v: int, w: int) -> PathChoice:
        return PathChoice(SIDE_G, HEAVY)


class HeavyLargerStrategy(Strategy):
    """Demaine-H: decompose the larger of the two subtrees along its heavy path."""

    name = "heavy-larger"

    def choose(self, tree_f: Tree, tree_g: Tree, v: int, w: int) -> PathChoice:
        if tree_f.sizes[v] >= tree_g.sizes[w]:
            return PathChoice(SIDE_F, HEAVY)
        return PathChoice(SIDE_G, HEAVY)


class PrecomputedStrategy(Strategy):
    """A strategy backed by an explicit ``|F| × |G|`` array of path choices.

    This is the form produced by Algorithm 2 (OptStrategy): entry ``(v, w)``
    holds the optimal path for the pair of subtrees rooted at ``v`` and ``w``.
    """

    name = "precomputed"

    def __init__(self, choices: Sequence[Sequence[PathChoice]], name: str = "precomputed") -> None:
        self._choices = choices
        self.name = name

    def choose(self, tree_f: Tree, tree_g: Tree, v: int, w: int) -> PathChoice:
        try:
            choice = self._choices[v][w]
        except IndexError as exc:
            raise StrategyError(f"no strategy entry for subtree pair ({v}, {w})") from exc
        if choice is None:
            raise StrategyError(f"strategy entry for subtree pair ({v}, {w}) is empty")
        return choice

    def as_matrix(self) -> Sequence[Sequence[PathChoice]]:
        """The raw choice matrix (row = node of F, column = node of G)."""
        return self._choices


#: The six fixed single-path strategies, in the tie-breaking order used by the
#: cost formula (heavy-F, heavy-G, left-F, left-G, right-F, right-G).  The
#: list position doubles as the integer *path-choice code* used by
#: :class:`EncodedStrategy` and the flat-array Algorithm 2.
ALL_FIXED_CHOICES: List[PathChoice] = [
    PathChoice(SIDE_F, HEAVY),
    PathChoice(SIDE_G, HEAVY),
    PathChoice(SIDE_F, LEFT),
    PathChoice(SIDE_G, LEFT),
    PathChoice(SIDE_F, RIGHT),
    PathChoice(SIDE_G, RIGHT),
]


class EncodedStrategy(Strategy):
    """A strategy backed by a flat ``|F| × |G|`` matrix of integer codes.

    Entry ``(v, w)`` is an index into :data:`ALL_FIXED_CHOICES`.  This is the
    form Algorithm 2 produces natively: one small int per subtree pair
    instead of a :class:`PathChoice` object, which keeps the ``O(n^2)``
    strategy matrix allocation-free under NumPy and cache-friendly in pure
    Python.  ``choose`` decodes through the shared six-entry choice table, so
    consumers still receive ordinary :class:`PathChoice` instances.
    """

    name = "encoded"

    def __init__(self, codes: Sequence[Sequence[int]], name: str = "encoded") -> None:
        self._codes = codes
        self.name = name

    def choose(self, tree_f: Tree, tree_g: Tree, v: int, w: int) -> PathChoice:
        try:
            code = self._codes[v][w]
        except IndexError as exc:
            raise StrategyError(f"no strategy entry for subtree pair ({v}, {w})") from exc
        try:
            return ALL_FIXED_CHOICES[code]
        except (IndexError, TypeError) as exc:
            raise StrategyError(
                f"invalid path-choice code {code!r} for subtree pair ({v}, {w})"
            ) from exc

    def as_matrix(self) -> List[List[PathChoice]]:
        """The decoded :class:`PathChoice` matrix (materialized on demand)."""
        return [[ALL_FIXED_CHOICES[code] for code in row] for row in self._codes]


def fixed_strategy_for(choice: PathChoice) -> Strategy:
    """Return the constant strategy that always answers ``choice``."""
    mapping = {
        (SIDE_F, LEFT): LeftFStrategy,
        (SIDE_F, RIGHT): RightFStrategy,
        (SIDE_F, HEAVY): HeavyFStrategy,
        (SIDE_G, LEFT): LeftGStrategy,
        (SIDE_G, RIGHT): RightGStrategy,
        (SIDE_G, HEAVY): HeavyGStrategy,
    }
    return mapping[(choice.side, choice.kind)]()
