"""Core combinatorial types: hypergraphs, sign vectors, vertex orderings.

Vertices are the integers 1..n.  Every vertex subset is carried as a Python
int used as a fixed-width bit mask, with vertex v stored in bit v-1.  All
types are immutable after construction and every function here is pure, so
everything in this module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable

DEFAULT_VERTEX_CAP = 63


class SearchLimitError(RuntimeError):
    """A configured resource cap (step budget, enumeration size) was hit."""


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment variable {name} must be an integer, got {raw!r}")


def vertex_cap() -> int:
    """Largest supported vertex count (ALTERMATIC_N_CAP, default 63).

    The cap is a guard rail: the searches in this library enumerate up to
    3**n sign vectors, which is hopeless long before n reaches 63.
    """
    return _env_int("ALTERMATIC_N_CAP", DEFAULT_VERTEX_CAP)


def mask_of(vertices: Iterable[int]) -> int:
    """Bit mask for a collection of 1-based vertex ids."""
    m = 0
    for v in vertices:
        if v < 1:
            raise ValueError(f"vertex ids are 1-based, got {v}")
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based vertex ids present in a bit mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class SignVector:
    """An element of {R,0,B}^n, stored as the disjoint pair (reds, blues).

    Position p holds R when bit p-1 of ``reds`` is set, B when the same bit
    of ``blues`` is set, and 0 otherwise.  Whether positions mean literal
    vertices or slots of some ordering depends on context; ``apply_order``
    converts from the latter to the former.
    """

    n: int
    reds: int = 0
    blues: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"sign vector length must be positive, got {self.n}")
        if self.n > vertex_cap():
            raise ValueError(f"length {self.n} exceeds vertex cap {vertex_cap()}")
        full = (1 << self.n) - 1
        if self.reds & ~full or self.blues & ~full:
            raise ValueError("sign entries outside 1..n")
        if self.reds & self.blues:
            raise ValueError("reds and blues must be disjoint")

    @classmethod
    def from_word(cls, word: str) -> "SignVector":
        """Build from a string over the alphabet R, B, 0 such as 'RRBB0R0RB'."""
        reds = blues = 0
        for i, ch in enumerate(word):
            if ch == "R":
                reds |= 1 << i
            elif ch == "B":
                blues |= 1 << i
            elif ch != "0":
                raise ValueError(f"unexpected sign character {ch!r}")
        return cls(len(word), reds, blues)

    @classmethod
    def from_sets(cls, n: int, reds: Iterable[int] = (), blues: Iterable[int] = ()) -> "SignVector":
        return cls(n, mask_of(reds), mask_of(blues))

    def word(self) -> str:
        chars = []
        for p in range(self.n):
            if (self.reds >> p) & 1:
                chars.append("R")
            elif (self.blues >> p) & 1:
                chars.append("B")
            else:
                chars.append("0")
        return "".join(chars)

    def sign_at(self, position: int) -> int:
        """+1, -1 or 0 at a 1-based position."""
        b = 1 << (position - 1)
        if self.reds & b:
            return 1
        if self.blues & b:
            return -1
        return 0


@dataclass(frozen=True)
class LinearOrder:
    """A linear ordering of the vertices 1..n: perm[j] is the vertex in slot j.

    ``perm == (3, 1, 2)`` reads "vertex 3 comes first, then 1, then 2".
    """

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.perm}")

    @classmethod
    def identity(cls, n: int) -> "LinearOrder":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.perm)

    def vertex_at(self, position: int) -> int:
        """Vertex occupying a 1-based position."""
        return self.perm[position - 1]

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.perm))


@dataclass(frozen=True)
class Hypergraph:
    """A simple hypergraph on vertices 1..n.

    ``edges`` is an ordered tuple of bit masks; the position of an edge in
    the tuple is its index everywhere else in the library (Kneser graph
    vertices, coloring files).  Edges must be nonempty, within 1..n and
    pairwise distinct; duplicates are an error, never silently dropped.

    ``origin`` is populated on hypergraphs produced by ``restrict`` and maps
    each retained edge back to its index in the parent hypergraph.  It is
    carried alongside the value and ignored by equality.
    """

    n: int
    edges: tuple[int, ...]
    origin: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        if self.n > vertex_cap():
            raise ValueError(f"vertex count {self.n} exceeds vertex cap {vertex_cap()}")
        full = (1 << self.n) - 1
        seen = set()
        for e in self.edges:
            if e == 0:
                raise ValueError("empty edge")
            if e & ~full:
                raise ValueError(f"edge {vertices_of(e)} has vertices outside 1..{self.n}")
            if e in seen:
                raise ValueError(f"duplicate edge {vertices_of(e)}")
            seen.add(e)
        if self.origin is not None and len(self.origin) != len(self.edges):
            raise ValueError("origin map length differs from edge count")

    @classmethod
    def from_edge_sets(cls, n: int, edge_sets: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls(n, tuple(mask_of(e) for e in edge_sets))

    def edge_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(vertices_of(e) for e in self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class SimpleGraph:
    """An undirected simple graph; ``rows[i]`` is the neighbor mask of vertex i.

    Vertices are 0-based here (they typically index hyperedges of some
    hypergraph).  No loops, symmetric adjacency.
    """

    vcount: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.vcount < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.rows) != self.vcount:
            raise ValueError("adjacency row count differs from vertex count")
        full = (1 << self.vcount) - 1 if self.vcount else 0
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {i} mentions vertices out of range")
            if (row >> i) & 1:
                raise ValueError(f"loop at vertex {i}")
        for i, row in enumerate(self.rows):
            m = row
            while m:
                low = m & -m
                j = low.bit_length() - 1
                m ^= low
                if not (self.rows[j] >> i) & 1:
                    raise ValueError(f"adjacency not symmetric at ({i}, {j})")

    @classmethod
    def from_edges(cls, vcount: int, pairs: Iterable[tuple[int, int]]) -> "SimpleGraph":
        rows = [0] * vcount
        for a, b in pairs:
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return cls(vcount, tuple(rows))

    @property
    def edge_count(self) -> int:
        return sum(bin(r).count("1") for r in self.rows) // 2

    def degree(self, v: int) -> int:
        return bin(self.rows[v]).count("1")

    def adjacent(self, a: int, b: int) -> bool:
        return bool((self.rows[a] >> b) & 1)

    def edge_list(self) -> tuple[tuple[int, int], ...]:
        out = []
        for i in range(self.vcount):
            m = self.rows[i] >> (i + 1)
            j = i + 1
            while m:
                if m & 1:
                    out.append((i, j))
                m >>= 1
                j += 1
        return tuple(out)


def alt_masks(n: int, reds: int, blues: int) -> int:
    """Length of a longest alternating subsequence of a word given as masks.

    Equals one plus the number of sign changes in the run-length profile,
    found in a single left-to-right scan; the all-zero word gives 0.
    """
    changes = 0
    last = 0
    for p in range(n):
        bit = 1 << p
        s = 1 if reds & bit else (-1 if blues & bit else 0)
        if s and s != last:
            changes += 1
            last = s
    return changes


def alt(x: SignVector) -> int:
    """Length of a longest alternating subsequence of the nonzero entries."""
    return alt_masks(x.n, x.reds, x.blues)


def support_size(x: SignVector) -> int:
    """Number of nonzero entries."""
    return bin(x.reds).count("1") + bin(x.blues).count("1")


def subset_of(x: SignVector, y: SignVector) -> bool:
    """Componentwise containment: x.reds within y.reds and x.blues within y.blues."""
    if x.n != y.n:
        raise ValueError("sign vectors have different lengths")
    return (x.reds & ~y.reds) == 0 and (x.blues & ~y.blues) == 0


def apply_order(x: SignVector, order: LinearOrder) -> SignVector:
    """Relabel a sign word through an ordering: slot j labels vertex perm[j].

    With the identity ordering this is the identity map.  For fixed
    ``order`` it is a bijection on sign vectors.
    """
    if x.n != order.n:
        raise ValueError("sign vector and ordering have different lengths")
    if order.is_identity():
        return x
    reds = blues = 0
    for p in range(x.n):
        bit = 1 << p
        vbit = 1 << (order.perm[p] - 1)
        if x.reds & bit:
            reds |= vbit
        elif x.blues & bit:
            blues |= vbit
    return SignVector(x.n, reds, blues)


def restrict(h: Hypergraph, x: SignVector, order: LinearOrder | None = None) -> Hypergraph:
    """Sub-hypergraph of the edges lying entirely inside one color class of x.

    The sign word is first pushed through ``order`` (identity when omitted);
    an edge survives when it is contained in the red vertex set or in the
    blue vertex set.  Edge order is inherited and the result's ``origin``
    records each survivor's index in ``h``.
    """
    if order is None:
        order = LinearOrder.identity(h.n)
    if x.n != h.n:
        raise ValueError("sign vector length differs from vertex count")
    labeled = apply_order(x, order)
    kept = []
    origin = []
    for i, e in enumerate(h.edges):
        if e & ~labeled.reds == 0 or e & ~labeled.blues == 0:
            kept.append(e)
            origin.append(i)
    return Hypergraph(h.n, tuple(kept), tuple(origin))
