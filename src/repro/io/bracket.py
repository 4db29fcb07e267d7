"""Bracket notation parser and serializer.

Bracket notation is the interchange format used by the reference RTED / APTED
implementations: a tree is written as ``{label{child_1}...{child_k}}``.  For
example ``{a{b}{c{d}}}`` denotes a root ``a`` with children ``b`` and ``c``,
where ``c`` has a single child ``d``.

Labels may contain any characters; literal ``{``, ``}`` and ``\\`` must be
escaped with a backslash.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from ..exceptions import ParseError
from ..trees.node import Node
from ..trees.tree import Tree

#: A token is ``{`` or an escape pair (group 1: the escaped character, ``""``
#: for a lone final backslash), a plain label run (2) and the ``}`` run after
#: it (3).  The first position the pattern does not match is an error.
_TOKEN = re.compile(r"(?:\{|\\(.?))([^{}\\]*)(\}*)", re.S)


def escape_label(label: str) -> str:
    """Escape the characters that have structural meaning in bracket notation."""
    return label.replace("\\", "\\\\").replace("{", "\\{").replace("}", "\\}")


def parse_bracket_node(text: str) -> Node:
    """Parse bracket notation into a :class:`~repro.trees.node.Node` (see :func:`parse_bracket`)."""
    return parse_bracket(text).to_node()


def parse_bracket(text: str) -> Tree:
    """Parse bracket notation into an indexed :class:`~repro.trees.tree.Tree`.

    Raises
    ------
    ParseError
        If the text is not a single well-formed bracket-notation tree.
    """
    return Tree._from_preorder(*_preorder(text))


def _preorder(text: str) -> Tuple[List[str], List[int]]:
    """Scan ``text`` once into preorder labels and parent ids.  ``open_ids``
    stacks the open nodes over a ``-1`` sentinel; a label with escapes gathers
    its pieces in a list.  Positions count from the stripped text's start."""
    text = text.strip()
    if not text:
        raise ParseError("empty input", position=0)
    labels: List = []
    parents: List[int] = []
    add_label = labels.append
    add_parent = parents.append
    open_ids = [-1]
    push = open_ids.append
    escaped: List[int] = []
    match = None
    for match in iter(_TOKEN.scanner(text).match, None):
        char, run, shut = match.groups()
        if char is None:
            add_parent(open_ids[-1])
            push(len(labels))
            add_label(run)
        else:
            # An escape continues the newest node's label while that node is
            # still open with no children.
            node = len(labels) - 1
            if node < 0:
                raise ParseError("expected '{' at position 0", position=0)
            if open_ids[-1] != node:
                raise ParseError(
                    f"expected '}}' at position {match.start()}", position=match.start()
                )
            pieces = labels[node]
            if type(pieces) is str:
                pieces = labels[node] = [pieces]
                escaped.append(node)
            pieces.append(char)
            if run:
                pieces.append(run)
        if shut:
            depth = len(open_ids) - 1
            if len(shut) >= depth:
                # This run closes the root: nothing may follow it.
                end = match.end() - len(shut) + depth
                if end < len(text):
                    raise ParseError(
                        f"trailing characters after tree: {text[end:]!r}", position=end
                    )
                open_ids.clear()
            else:
                del open_ids[-len(shut) :]
    if not labels:
        raise ParseError("expected '{' at position 0", position=0)
    if open_ids:
        raise ParseError(f"expected '}}' at position {match.end()}", position=match.end())
    for node in escaped:
        labels[node] = "".join(labels[node])
    return labels, parents


def to_bracket(tree: Tree | Node) -> str:
    """Serialize a tree (or node) to bracket notation.

    Round-trips with :func:`parse_bracket` for string labels:
    ``parse_bracket(to_bracket(t)).structurally_equal(t)`` holds.  Nodes are
    written in preorder; a leaf is followed by the ``}`` of every node whose
    rightmost leaf it is.
    """
    if isinstance(tree, Node):
        tree = Tree(tree)
    closers = [0] * tree.n
    for leaf in tree.rml:
        closers[leaf] += 1
    labels = tree.labels
    return "".join(
        "{" + escape_label(str(labels[v])) + "}" * closers[v] for v in tree.post_of_pre
    )


def parse_bracket_collection(text: str) -> List[Tree]:
    """Parse a newline-separated collection of bracket-notation trees.

    Blank lines and lines starting with ``#`` are ignored, which makes the
    format convenient for small on-disk datasets.
    """
    trees: List[Tree] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            trees.append(parse_bracket(line))
        except ParseError as exc:
            raise ParseError(f"line {line_number}: {exc}", position=exc.position) from exc
    return trees


def dump_bracket_collection(trees: List[Tree]) -> str:
    """Serialize a collection of trees, one bracket-notation tree per line."""
    return "\n".join(to_bracket(tree) for tree in trees) + "\n"
