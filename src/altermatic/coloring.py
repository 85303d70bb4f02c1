"""Exact graph coloring: properness checks, decision, and chromatic number.

The decision procedure is branch and bound over a dynamic DSATUR vertex
order (Brelaz 1979: most saturated first, ties to the lowest index) with
two standard symmetry cuts: a greedy maximal clique is pre-colored 1..q,
and a vertex may open at most one fresh color beyond those already in
use.  Its only saturation state is one vertex mask per color, the
neighbors of that color's vertices; a vertex's saturation is the number
of masks holding it, and backtracking restores one mask.  The search
runs on an explicit stack, so its depth is not limited by Python's
recursion limit.  The chromatic number is the least budget, counted up
from the clique size or a proven lower bound, that the decision accepts;
it ends without deciding at the palette of a given proper coloring.
One DSATUR pass without backtracking gives an upper bound.

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
    """Lexicographically first adjacent pair (i, j), i < j, sharing a color:
    i is the least vertex with such a neighbor, so j is its least one."""
    if len(c.assignment) != g.vcount:
        raise ValueError(f"coloring has {len(c.assignment)} entries for {g.vcount} vertices")
    same: dict[int, int] = {}  # one vertex mask per color used
    for i, color in enumerate(c.assignment):
        same[color] = same.get(color, 0) | 1 << i
    for i, row in enumerate(g.rows):
        m = row & same[c.assignment[i]]
        if m:
            return i, (m & -m).bit_length() - 1
    return None


def is_proper(g: SimpleGraph, c: Coloring) -> bool:
    """True iff no adjacent pair shares a color."""
    return first_clash(g, c) is None


def greedy_clique(g: SimpleGraph) -> list[int]:
    """A maximal clique grown greedily from the highest-degree vertices."""
    order = sorted(range(g.vcount), key=lambda v: (-g.rows[v].bit_count(), v))
    clique: list[int] = []
    common = (1 << g.vcount) - 1
    for v in order:
        if (common >> v) & 1:
            clique.append(v)
            common &= g.rows[v]
    return clique


def _most_saturated(cands: int, near: list[int]) -> int:
    """The candidate in the most ``near`` masks, ties to the lowest index.

    ``cands`` is a nonempty vertex mask.  Membership counts are kept bit
    sliced: ``planes[i]`` holds bit i of every candidate's count, and each
    mask is added with a ripple carry.  Narrowing to the candidates set on
    the highest planes first leaves exactly those of maximum count.
    """
    planes: list[int] = []
    for m in near:
        carry = m & cands
        for i, p in enumerate(planes):
            if not carry:
                break
            planes[i] = p ^ carry
            carry &= p
        if carry:
            planes.append(carry)
    for p in reversed(planes):
        if cands & p:
            cands &= p
    return (cands & -cands).bit_length() - 1


def greedy_color_count(g: SimpleGraph) -> int:
    """Colors used by one DSATUR pass without backtracking: an upper bound
    on the chromatic number.  Each vertex, most saturated first, takes the
    lowest color none of its neighbors has."""
    near: list[int] = []
    uncolored = (1 << g.vcount) - 1
    while uncolored:
        v = _most_saturated(uncolored, near)
        c = next((c for c, m in enumerate(near) if not m >> v & 1), len(near))
        if c == len(near):
            near.append(0)
        near[c] |= g.rows[v]
        uncolored ^= 1 << v
    return len(near)


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

    rows = g.rows
    colors = [0] * n
    # near[c]: the vertices adjacent to some vertex of color c + 1.
    near = [0] * t
    uncolored = (1 << n) - 1
    for c, v in enumerate(clique):
        colors[v] = c + 1
        near[c] = rows[v]
        uncolored ^= 1 << v

    # One frame per colored vertex: (vertex, untried colors, the mask of its
    # color before it, colors in use before it).
    stack: list[tuple[int, int, int, int]] = []
    used = len(clique)
    while uncolored:
        v = _most_saturated(uncolored, near)
        limit = used + 1 if used < t else t
        avail = sum(1 << c for c in range(limit) if not near[c] >> v & 1)
        if avail:
            uncolored ^= 1 << v
        else:
            # Backtrack to the deepest vertex with an untried color.
            while True:
                if not stack:
                    return None
                v, avail, before, used = stack.pop()
                near[colors[v] - 1] = before
                if avail:
                    break
                colors[v] = 0
                uncolored |= 1 << v
        bit = avail & -avail
        c = bit.bit_length() - 1
        colors[v] = c + 1
        stack.append((v, avail ^ bit, near[c], used))
        near[c] |= rows[v]
        if c >= used:
            used = c + 1
    return colors


def chromatic_at_most(g: SimpleGraph, t: int) -> bool:
    """True iff ``g`` has a proper coloring with at most ``t`` colors.

    Monotone in ``t``.  With t = 0 only the vertexless graph qualifies; a
    graph with vertices and no edges still needs one color.
    """
    if t < 0:
        raise ValueError("color budget must be nonnegative")
    return _decide(g, t) is not None


def chromatic_number(
    g: SimpleGraph, *, lower: int | None = None, upper: Coloring | None = None
) -> ChromaticResult:
    """Least color count with a witness coloring that attains it.

    Runs the exact decision for t = max(``lower``, 1), t + 1, ... and
    returns the first budget that succeeds; a budget of one color per
    vertex always does.  ``lower`` must be a proven lower bound on the
    chromatic number, such as an altermatic bound: the rungs below it are
    never tried.  Without ``lower`` the ladder starts at the greedy clique
    size, which ``bounds.lower_bound``'s bound already includes.  ``upper``,
    when given, must be a proper coloring of ``g``, such as
    ``kneser.cut_coloring``: the ladder ends at its palette, where it
    returns ``upper`` itself without deciding.  Else the
    witness is the decision's coloring at the returned budget, which does
    not depend on ``lower``.  Since every smaller budget fails, the
    witness uses exactly the returned number of colors either way.

    Raises ValueError when ``upper`` has the wrong length or a palette
    below the ladder's first rung, which no proper coloring can have
    when ``lower`` is proven.
    """
    if upper is not None and len(upper.assignment) != g.vcount:
        raise ValueError(f"upper coloring has {len(upper.assignment)} entries for {g.vcount} vertices")
    if g.vcount == 0:
        return ChromaticResult(0, Coloring((), 0))
    t = max(len(greedy_clique(g)) if lower is None else lower, 1)
    if upper is not None and upper.palette < t:
        raise ValueError(f"upper coloring uses {upper.palette} colors, below the first rung {t}")
    while upper is None or t < upper.palette:
        found = _decide(g, t)
        if found is not None:
            return ChromaticResult(t, Coloring(tuple(found), t))
        t += 1
    return ChromaticResult(t, upper)
