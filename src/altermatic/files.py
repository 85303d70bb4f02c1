"""Text formats for hypergraphs and edge colorings.

Hypergraph files: UTF-8 text, ``#`` starts a comment, blank lines are
skipped.  The first significant line is ``n <count>``; every following
significant line is one edge as whitespace-separated 1-based vertex ids.
Ids may arrive in any order and repeats within a line collapse (edges are
sets); edges are stored sorted.  The file order of edges defines Kneser
vertex indices, so round-tripping preserves it exactly.

Coloring files: one positive integer per significant line; line i colors
hyperedge i in the hypergraph's file order.  The palette is the maximum
value present.
"""

from __future__ import annotations

from .core import Hypergraph, mask_of, vertices_of
from .coloring import Coloring


class ParseError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _significant_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield number, body


def parse_hypergraph(text: str) -> Hypergraph:
    lines = _significant_lines(text)
    try:
        number, body = next(lines)
    except StopIteration:
        raise ParseError("missing 'n <count>' header")
    tokens = body.split()
    if len(tokens) != 2 or tokens[0] != "n":
        raise ParseError("expected 'n <count>' header", number)
    try:
        n = int(tokens[1])
    except ValueError:
        raise ParseError(f"vertex count {tokens[1]!r} is not an integer", number)
    if n < 1:
        raise ParseError(f"vertex count must be positive, got {n}", number)

    edges: list[int] = []
    seen: set[int] = set()
    for number, body in lines:
        try:
            ids = sorted({int(t) for t in body.split()})
        except ValueError:
            raise ParseError(f"edge line is not whitespace-separated integers: {body!r}", number)
        if not ids:
            raise ParseError("empty edge", number)
        for v in ids:
            if not 1 <= v <= n:
                raise ParseError(f"vertex {v} outside 1..{n}", number)
        mask = mask_of(ids)
        if mask in seen:
            raise ParseError(f"duplicate edge {tuple(ids)}", number)
        seen.add(mask)
        edges.append(mask)
    return Hypergraph(n, tuple(edges))


def serialize_hypergraph(h: Hypergraph, comment: str | None = None) -> str:
    out = []
    if comment:
        out.extend(f"# {line}" for line in comment.splitlines())
    out.append(f"n {h.n}")
    out.extend(" ".join(str(v) for v in vertices_of(e)) for e in h.edges)
    return "\n".join(out) + "\n"


def parse_coloring(text: str, expected_len: int) -> Coloring:
    values: list[int] = []
    for number, body in _significant_lines(text):
        tokens = body.split()
        if len(tokens) != 1:
            raise ParseError(f"expected one color per line, got {body!r}", number)
        try:
            value = int(tokens[0])
        except ValueError:
            raise ParseError(f"color {tokens[0]!r} is not an integer", number)
        if value < 1:
            raise ParseError(f"colors are positive integers, got {value}", number)
        if len(values) == expected_len:
            raise ParseError(f"more colors than the {expected_len} hyperedges", number)
        values.append(value)
    if len(values) != expected_len:
        raise ParseError(f"{len(values)} colors for {expected_len} hyperedges")
    return Coloring(tuple(values), max(values) if values else 0)


def serialize_coloring(c: Coloring) -> str:
    return "".join(f"{v}\n" for v in c.assignment)
