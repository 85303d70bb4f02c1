"""Exact graph coloring: properness checks, decision, and chromatic number.

The decision procedure is branch and bound over a dynamic DSATUR vertex
order (most saturated first, ties to the lowest index) with two standard
symmetry cuts: a greedy maximal clique is pre-colored 1..q, and a vertex
may open at most one fresh color beyond those already in use.  Instances
at the scale this library targets (a few dozen Kneser vertices) solve in
milliseconds.

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

    @classmethod
    def from_values(cls, values, palette: int | None = None) -> "Coloring":
        vals = tuple(values)
        if palette is None:
            palette = max(vals) if vals else 0
        return cls(vals, palette)

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


def _most_saturated(vertices, satmask: list[int], stop: int) -> tuple[int, int]:
    """(vertex, saturation) of the most saturated vertex, ties to the lowest index.

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
    return best_v, best_s


def greedy_coloring(g: SimpleGraph) -> list[int]:
    """DSATUR heuristic coloring; lowest feasible color, no backtracking."""
    n = g.vcount
    colors = [0] * n
    satmask = [0] * n
    for _ in range(n):
        v = _most_saturated((u for u in range(n) if not colors[u]), satmask, n + 1)[0]
        col = 1
        while (satmask[v] >> (col - 1)) & 1:
            col += 1
        colors[v] = col
        m = g.rows[v]
        while m:
            low = m & -m
            m ^= low
            satmask[low.bit_length() - 1] |= 1 << (col - 1)
    return colors


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

    def extend(used: int) -> bool:
        if not uncolored:
            return True
        v, s = _most_saturated(uncolored, satmask, t)
        if s >= t:
            return False
        limit = used + 1 if used < t else t
        avail = ~satmask[v] & ((1 << limit) - 1)
        if not avail:
            return False
        uncolored.discard(v)
        neigh = rows[v]
        while avail:
            low = avail & -avail
            avail ^= low
            col = low.bit_length()
            colors[v] = col
            bit = 1 << (col - 1)
            touched = []
            m = neigh
            while m:
                lw = m & -m
                m ^= lw
                w = lw.bit_length() - 1
                if not satmask[w] & bit:
                    satmask[w] |= bit
                    touched.append(w)
            if extend(used if col <= used else col):
                return True
            for w in touched:
                satmask[w] &= ~bit
        colors[v] = 0
        uncolored.add(v)
        return False

    if extend(len(clique)):
        return colors
    return None


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

    Brackets the answer between a greedy maximal clique (lower bound) and
    a DSATUR heuristic coloring (upper bound), then runs the exact decision
    upward from the clique bound.  The witness is deterministic and always
    uses exactly the returned number of colors.
    """
    if g.vcount == 0:
        return ChromaticResult(0, Coloring((), 0))
    heur = greedy_coloring(g)
    ub = max(heur)
    lb = max(len(greedy_clique(g)), 1)
    for t in range(lb, ub):
        found = _decide(g, t)
        if found is not None:
            return ChromaticResult(t, Coloring(tuple(found), t))
    return ChromaticResult(ub, Coloring(tuple(heur), ub))
