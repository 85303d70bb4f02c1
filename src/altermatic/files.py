"""Text formats for hypergraphs and edge colorings.

Hypergraph files: UTF-8 text, ``#`` starts a comment, blank lines are
skipped.  The first significant line is ``n <count>``; every following
significant line is one edge as whitespace-separated 1-based vertex ids.
Ids may arrive in any order and repeats within a line collapse (edges are
sets); edges are stored sorted.  The file order of edges defines Kneser
vertex indices, so round-tripping preserves it exactly.

Coloring files: one positive integer per significant line; line i colors
hyperedge i in the hypergraph's file order.  The palette is the maximum
value present.  Numbers in both formats are ASCII digits, optionally signed.

Canonical text, ASCII with no ``#`` and no ``_``, is read in one pass: a
hypergraph whose lines are ``n <count>`` and then edges of the tokens
``1``..``n`` alone, each looked up in a table of vertex bits, and a
coloring with one integer per line.  The hypergraph pass first skips the
leading lines that start with ``#``, the comment ``serialize_hypergraph``
writes.  Any other text, and any canonical text that pass does not
accept, is read line by line; that parser raises every ``ParseError``, so
messages and line numbers do not depend on the path taken.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .core import DEFAULT_VERTEX_CAP, Hypergraph, vertex_cap, vertices_of
from .coloring import Coloring

# token -> vertex bit, for the canonical pass
_BITS = {str(v): 1 << (v - 1) for v in range(1, DEFAULT_VERTEX_CAP + 1)}


class ParseError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _significant_lines(text: str):
    plain = text.isascii() and "_" not in text  # then no line needs the check below
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield number, body  # checked once the caller accepts it, so its messages come first
            if not plain and ("_" in body or not (body.isascii() or "".join(body.split()).isascii())):
                raise ParseError(f"numbers are an optional sign and ASCII digits, got {body!r}", number)


def _canonical(text: str) -> bool:
    return text.isascii() and "#" not in text and "_" not in text


def parse_hypergraph(text: str) -> Hypergraph:
    body = text
    while body.startswith("#"):
        comment, _, body = body.partition("\n")
        if len(comment.splitlines()) > 1:  # a line end other than LF or CRLF
            return _hypergraph_lines(text)
    if _canonical(body):
        lines = body.splitlines()
        try:
            head, count = lines[0].split()
            if head == "n":
                bit = _BITS.__getitem__
                n = bit(count).bit_length()
                # a blank line, a token out of range or a duplicate edge
                # fails ``Hypergraph``'s own checks
                return Hypergraph(n, tuple([reduce(or_, map(bit, line.split()), 0) for line in lines[1:]]))
        except (LookupError, ValueError):
            pass
    return _hypergraph_lines(text)


def _hypergraph_lines(text: str) -> Hypergraph:
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
    cap = vertex_cap()
    if n > cap:
        raise ParseError(f"vertex count {n} exceeds vertex cap {cap}", number)

    edges: list[int] = []
    seen: set[int] = set()
    for number, body in lines:
        try:
            ids = list(map(int, body.split()))
        except ValueError:
            raise ParseError(f"edge line is not whitespace-separated integers: {body!r}", number)
        mask = 0
        for v in ids:
            if not 1 <= v <= n:
                bad = min(u for u in ids if not 1 <= u <= n)
                raise ParseError(f"vertex {bad} outside 1..{n}", number)
            mask |= 1 << (v - 1)
        if mask in seen:
            raise ParseError(f"duplicate edge {vertices_of(mask)}", number)
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
    if _canonical(text):
        try:
            values = list(map(int, text.splitlines()))
        except ValueError:  # a line that is not one integer
            pass
        else:
            if len(values) == expected_len and min(values, default=1) >= 1:
                return Coloring(tuple(values), max(values, default=0))
    return _coloring_lines(text, expected_len)


def _coloring_lines(text: str, expected_len: int) -> Coloring:
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
