"""Core combinatorial types: hypergraphs, sign vectors, vertex orderings.

Vertices are the integers 1..n.  Every vertex subset is carried as a Python
int used as a fixed-width bit mask, with vertex v stored in bit v-1.  All
types are immutable after construction and every function here is pure, so
everything in this module is safe for unrestricted concurrent use.  A
``Hypergraph`` computes its masks lazily, once, on first read; a concurrent
first read at worst recomputes the same value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

DEFAULT_VERTEX_CAP = 63


class SearchLimitError(RuntimeError):
    """A configured resource cap (step budget, enumeration size) was hit."""


def vertex_cap() -> int:
    """Largest supported vertex count, the constant ``DEFAULT_VERTEX_CAP``.

    The cap is a guard rail: the searches in this library enumerate up to
    3**n sign vectors, which is hopeless long before n reaches 63.
    """
    return DEFAULT_VERTEX_CAP


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

    ``incidence`` and ``kneser_rows`` are kept in the instance ``__dict__``
    (hence no ``slots=True``); equality, hash and repr ignore them.
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

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """Entry p holds the index bits of the edges that hold vertex bit p:
        bit i exactly when edge i has bit p.  One entry per vertex."""
        inc = [0] * self.n
        for i, e in enumerate(self.edges):
            bit = 1 << i
            while e:
                low = e & -e
                e ^= low
                inc[low.bit_length() - 1] |= bit
        return tuple(inc)

    @cached_property
    def kneser_rows(self) -> tuple[int, ...]:
        """Row i holds the index bits of the edges disjoint from edge i:
        every edge bit except those of the edges meeting it, which are the
        OR of the incidence masks of its vertices."""
        inc = self.incidence
        full = (1 << len(self.edges)) - 1
        rows = []
        for e in self.edges:
            meet = 0
            while e:
                low = e & -e
                e ^= low
                meet |= inc[low.bit_length() - 1]
            rows.append(full & ~meet)
        return tuple(rows)


@dataclass(frozen=True)
class SimpleGraph:
    """An undirected simple graph; ``rows[i]`` is the neighbor mask of vertex i.

    Vertices are 0-based, often hyperedges.  No loops, symmetric adjacency: checked
    by ``SimpleGraph(...)`` and ``from_edges``, true by construction in ``kneser_graph``.
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
            for j in vertices_of(row):
                if not (self.rows[j - 1] >> i) & 1:
                    raise ValueError(f"adjacency not symmetric at ({i}, {j - 1})")

    @classmethod
    def from_edges(cls, vcount: int, pairs: Iterable[tuple[int, int]]) -> "SimpleGraph":
        rows = [0] * vcount
        for a, b in pairs:
            if not (0 <= a < vcount and 0 <= b < vcount):
                raise ValueError(f"edge ({a}, {b}) has an end outside 0..{vcount - 1}")
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return cls(vcount, tuple(rows))

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()


def _trusted_graph(rows: tuple[int, ...]) -> SimpleGraph:
    # No __post_init__; kneser_graph's rows only: test_kneser_rows_and_incidence_match_the_definitions.
    g = object.__new__(SimpleGraph)
    g.__dict__.update(vcount=len(rows), rows=rows)
    return g


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
    return x.reds.bit_count() + x.blues.bit_count()


def apply_order(x: SignVector, order: LinearOrder) -> SignVector:
    """Relabel a sign word through an ordering: slot j labels vertex perm[j].

    With the identity ordering this is the identity map.  For fixed
    ``order`` it is a bijection on sign vectors.
    """
    if x.n != order.n:
        raise ValueError("sign vector and ordering have different lengths")
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
