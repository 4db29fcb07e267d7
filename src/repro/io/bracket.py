"""Bracket notation parser and serializer.

Bracket notation is the interchange format used by the reference RTED / APTED
implementations: a tree is written as ``{label{child_1}...{child_k}}``.  For
example ``{a{b}{c{d}}}`` denotes a root ``a`` with children ``b`` and ``c``,
where ``c`` has a single child ``d``.

Labels may contain any characters; literal ``{``, ``}`` and ``\\`` must be
escaped with a backslash.
"""

from __future__ import annotations

from typing import List, Tuple

from ..exceptions import ParseError
from ..trees.node import Node
from ..trees.tree import Tree

_ESCAPE = "\\"
_OPEN = "{"
_CLOSE = "}"


def escape_label(label: str) -> str:
    """Escape the characters that have structural meaning in bracket notation."""
    out = []
    for ch in label:
        if ch in (_OPEN, _CLOSE, _ESCAPE):
            out.append(_ESCAPE)
        out.append(ch)
    return "".join(out)


def parse_bracket_node(text: str) -> Node:
    """Parse bracket notation into a :class:`~repro.trees.node.Node`.

    Raises
    ------
    ParseError
        If the text is not a single well-formed bracket-notation tree.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty input", position=0)
    node, end = _parse_subtree(text, 0)
    if text[end:].strip():
        raise ParseError(f"trailing characters after tree: {text[end:]!r}", position=end)
    return node


def parse_bracket(text: str) -> Tree:
    """Parse bracket notation into an indexed :class:`~repro.trees.tree.Tree`."""
    return Tree(parse_bracket_node(text))


def _parse_label(text: str, pos: int) -> Tuple[str, int]:
    """Consume a (possibly escaped) label starting at ``pos``."""
    label_chars: List[str] = []
    while pos < len(text):
        ch = text[pos]
        if ch == _ESCAPE and pos + 1 < len(text):
            label_chars.append(text[pos + 1])
            pos += 2
            continue
        if ch in (_OPEN, _CLOSE):
            break
        label_chars.append(ch)
        pos += 1
    return "".join(label_chars), pos


def _parse_subtree(text: str, pos: int) -> Tuple[Node, int]:
    """Parse one ``{label{child}...}`` subtree iteratively.

    A stack of currently open nodes replaces recursion so that arbitrarily
    deep trees (e.g. branch/chain shapes) parse at the default interpreter
    recursion limit.
    """
    if pos >= len(text) or text[pos] != _OPEN:
        raise ParseError(f"expected '{{' at position {pos}", position=pos)
    open_nodes: List[Node] = []
    while True:
        if text[pos] == _OPEN:
            label, pos = _parse_label(text, pos + 1)
            node = Node(label)
            if open_nodes:
                open_nodes[-1].add_child(node)
            open_nodes.append(node)
        elif text[pos] == _CLOSE:
            closed = open_nodes.pop()
            pos += 1
            if not open_nodes:
                return closed, pos
        else:
            # Only '{' (next child) or '}' (close) may follow a closed child.
            raise ParseError(f"expected '}}' at position {pos}", position=pos)
        if pos >= len(text):
            raise ParseError(f"expected '}}' at position {pos}", position=pos)


def to_bracket(tree: Tree | Node) -> str:
    """Serialize a tree (or node) to bracket notation.

    Round-trips with :func:`parse_bracket` for string labels:
    ``parse_bracket(to_bracket(t)).structurally_equal(t)`` holds.
    """
    if isinstance(tree, Tree):
        root = tree.to_node()
    else:
        root = tree

    pieces: List[str] = []

    def emit(node: Node) -> None:
        # Iterative emission keeps very deep trees (e.g. the left-branch shape)
        # from exhausting the recursion limit.
        stack: List[Tuple[Node, int]] = [(node, 0)]
        while stack:
            current, child_pos = stack.pop()
            if child_pos == 0:
                pieces.append(_OPEN + escape_label(str(current.label)))
            if child_pos < len(current.children):
                stack.append((current, child_pos + 1))
                stack.append((current.children[child_pos], 0))
            else:
                pieces.append(_CLOSE)

    emit(root)
    return "".join(pieces)


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
