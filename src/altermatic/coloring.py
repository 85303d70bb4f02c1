"""Exact graph coloring: properness checks, decision, and chromatic number.

The decision procedure is branch and bound over a dynamic DSATUR vertex
order (most saturated first, ties to the lowest index) with two standard
symmetry cuts: a greedy maximal clique is pre-colored 1..q, and a vertex
may open at most one fresh color beyond those already in use.  The search
runs on an explicit stack, so its depth is not limited by Python's
recursion limit.  The chromatic number is the least budget, counted up
from the clique size, that the decision accepts.  Instances at the scale
this library targets (a few dozen Kneser vertices) solve in milliseconds.

Each solve call owns its search state, so distinct calls may run
concurrently; a single call is single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import SimpleGraph


@dataclass(frozen=True)
class Coloring:
    """Colors 1..palette assigned to the vertices of some graph, in order."""

    assignment: tuple[int, ...]
    palette: int

    def __post_init__(self) -> None:
        if self.palette < 0:
            raise ValueError("palette size must be nonnegative")
        for i, c in enumerate(self.assignment):
            if not 1 <= c <= self.palette:
                raise ValueError(f"color {c} at index {i} outside 1..{self.palette}")

    @property
    def colors_used(self) -> int:
        return len(set(self.assignment))


class ChromaticResult(NamedTuple):
    number: int
    coloring: Coloring


def first_clash(g: SimpleGraph, c: Coloring) -> tuple[int, int] | None:
    """Lexicographically first adjacent pair (i, j), i < j, sharing a color."""
    if len(c.assignment) != g.vcount:
        raise ValueError(f"coloring has {len(c.assignment)} entries for {g.vcount} vertices")
    for i in range(g.vcount):
        m = g.rows[i] >> (i + 1)
        j = i + 1
        while m:
            if m & 1 and c.assignment[i] == c.assignment[j]:
                return i, j
            m >>= 1
            j += 1
    return None


def is_proper(g: SimpleGraph, c: Coloring) -> bool:
    """True iff no adjacent pair shares a color."""
    return first_clash(g, c) is None


def greedy_clique(g: SimpleGraph) -> list[int]:
    """A maximal clique grown greedily from the highest-degree vertices."""
    order = sorted(range(g.vcount), key=lambda v: (-bin(g.rows[v]).count("1"), v))
    clique: list[int] = []
    common = (1 << g.vcount) - 1
    for v in order:
        if (common >> v) & 1:
            clique.append(v)
            common &= g.rows[v]
    return clique


def _most_saturated(vertices, satmask: list[int], stop: int) -> int:
    """The most saturated vertex, ties to the lowest index.

    The scan stops at the first vertex whose saturation reaches ``stop``.
    """
    best_v = -1
    best_s = -1
    for v in vertices:
        s = bin(satmask[v]).count("1")
        if s > best_s or (s == best_s and v < best_v):
            best_s = s
            best_v = v
            if s >= stop:
                break
    return best_v


def _decide(g: SimpleGraph, t: int) -> list[int] | None:
    """A proper coloring with colors 1..t, or None if none exists."""
    n = g.vcount
    if n == 0:
        return []
    if t <= 0:
        return None
    if t >= n:
        return list(range(1, n + 1))

    clique = greedy_clique(g)
    if len(clique) > t:
        return None

    colors = [0] * n
    satmask = [0] * n
    uncolored = set(range(n))
    for idx, v in enumerate(clique):
        colors[v] = idx + 1
        uncolored.discard(v)
        m = g.rows[v]
        while m:
            low = m & -m
            m ^= low
            satmask[low.bit_length() - 1] |= 1 << idx
    rows = g.rows

    # One frame per colored vertex: (vertex, untried colors, neighbors whose
    # saturation its color set, that color's bit, colors in use before it).
    stack: list[tuple[int, int, list[int], int, int]] = []
    used = len(clique)
    while uncolored:
        v = _most_saturated(uncolored, satmask, t)
        limit = used + 1 if used < t else t
        avail = ~satmask[v] & ((1 << limit) - 1)
        if avail:
            uncolored.discard(v)
        else:
            # Backtrack to the deepest vertex with an untried color.
            while True:
                if not stack:
                    return None
                v, avail, touched, bit, used = stack.pop()
                for w in touched:
                    satmask[w] &= ~bit
                if avail:
                    break
                colors[v] = 0
                uncolored.add(v)
        bit = avail & -avail
        col = bit.bit_length()
        colors[v] = col
        touched = []
        m = rows[v]
        while m:
            lw = m & -m
            m ^= lw
            w = lw.bit_length() - 1
            if not satmask[w] & bit:
                satmask[w] |= bit
                touched.append(w)
        stack.append((v, avail ^ bit, touched, bit, used))
        if col > used:
            used = col
    return colors


def chromatic_at_most(g: SimpleGraph, t: int) -> bool:
    """True iff ``g`` has a proper coloring with at most ``t`` colors.

    Monotone in ``t``.  With t = 0 only the vertexless graph qualifies; a
    graph with vertices and no edges still needs one color.
    """
    if t < 0:
        raise ValueError("color budget must be nonnegative")
    return _decide(g, t) is not None


def chromatic_number(g: SimpleGraph) -> ChromaticResult:
    """Least color count with a witness coloring that attains it.

    Runs the exact decision for t = max(greedy clique size, 1), t + 1, ...
    and returns the first budget that succeeds; a budget of one color per
    vertex always does.  The witness is deterministic and, since every
    smaller budget failed, uses exactly the returned number of colors.
    """
    if g.vcount == 0:
        return ChromaticResult(0, Coloring((), 0))
    t = max(len(greedy_clique(g)), 1)
    while True:
        found = _decide(g, t)
        if found is not None:
            return ChromaticResult(t, Coloring(tuple(found), t))
        t += 1
