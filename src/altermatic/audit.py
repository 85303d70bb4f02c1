"""Constructive auditing of Kneser graph colorings.

A coloring of the hyperedges of H that uses at most n - alt + k - 2 colors
cannot properly color the Kneser graph of H.  This module operationalizes
the argument behind that fact as a path-following search: sign words get a
signed level, nested chains of signed vertex insertions ("permissible
sequences", each a plain tuple of signed steps, see ``neighbors``) form a
graph under two local rewrite rules, and the structure of that graph
forces any walk from the empty chain to run into a contradiction.  The
contradiction is a level tie, which is always concrete - two disjoint
hyperedges carrying the same color - so ``AuditContext.level`` and
``neighbors`` return a tie as its ``Witness``.  A rule that fails instead
raises ``AuditAnomaly`` where it is found.

Levels and chains live in ordering slots ("positions"); whenever a level
needs to look at actual hyperedges, the position sets are pushed through
the ordering first.  Each walk owns its caches, so concurrent audits over
the same immutable inputs are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import Hypergraph, LinearOrder, SearchLimitError, SignVector, alt_masks, restrict, vertices_of
from .coloring import Coloring, first_clash
from .kneser import kneser_graph
from . import bounds

# Walk move budget unless the caller passes ``step_cap`` (``--step-cap``).
DEFAULT_STEP_CAP = 10_000_000


class AuditAnomaly(RuntimeError):
    """An internal consistency rule failed; indicates an implementation bug
    (or a degenerate regime the rules do not cover), never a bad input to
    ``audit``.  Also raised for a chain given to ``neighbors`` that is not
    permissible."""


@dataclass(frozen=True)
class Witness:
    """Two disjoint hyperedges with the same color: proof of an improper coloring.

    ``edge_a`` and ``edge_b`` are 0-based indices into the hypergraph's edge
    tuple; ``context`` is the sign word at which the clash surfaced (the
    all-zero word for clashes found by a direct properness scan).
    """

    edge_a: int
    edge_b: int
    color: int
    context: SignVector


@dataclass(frozen=True)
class ProperWithinBound:
    """Walk ended with no clash and a full properness scan confirmed the coloring."""

    steps: int


LevelOutcome = Union[int, Witness]
NeighborOutcome = Union[list[tuple[int, ...]], Witness]


class AuditContext:
    """Evaluation state for one (hypergraph, coloring, k, ordering) audit.

    ``alt_value``, the feasibility ceiling for the ordering (identity when
    omitted), comes from ``bounds.alt_sigma``, which also rejects a
    non-positive ``k`` and an ordering of the wrong length.

    Besides the level and peak caches, it carries the last chain that
    ``neighbors`` answered: its prefix pairs (reds, blues), its levels,
    and each chain that call produced with the one pair index it changes
    (0 for a mirror).  A walk step asks for one of those chains, so it
    levels one new pair instead of every prefix; the lists are updated in
    place.  A mirror negates the levels it has: swapping the sides of a
    nonempty pair keeps alt and moves the earliest signed position to the
    other side (low band), or swaps the two peaks (high band).
    """

    def __init__(self, h: Hypergraph, c: Coloring, k: int, order: LinearOrder | None = None):
        if len(c.assignment) != len(h.edges):
            raise ValueError(
                f"coloring has {len(c.assignment)} entries for {len(h.edges)} hyperedges"
            )
        if order is None:
            order = LinearOrder.identity(h.n)
        self.h = h
        self.c = c
        self.k = k
        self.order = order
        self.alt_value = bounds.alt_sigma(h, order, k).alt_value
        self._vbit = tuple(1 << (v - 1) for v in order.perm)
        # (edge mask, (color, index)) from the highest color down, lowest
        # index first within a color (sorting is stable, also in reverse),
        # so the first edge inside a side gives its peak
        ranked = sorted(range(len(h.edges)), key=c.assignment.__getitem__, reverse=True)
        self._by_peak = [(h.edges[i], (c.assignment[i], i)) for i in ranked]
        self._peaks: dict[int, tuple[int, int | None]] = {}
        self._level: dict[tuple[int, int], LevelOutcome] = {}
        self._last: tuple[list[int], list[int], list[int], dict[tuple[int, ...], int]] = ([], [], [], {})

    def vertex_mask(self, position_mask: int) -> int:
        out = 0
        m = position_mask
        while m:
            low = m & -m
            m ^= low
            out |= self._vbit[low.bit_length() - 1]
        return out

    def _peak_of(self, position_mask: int) -> tuple[int, int | None]:
        """(largest color on a hyperedge inside one side, lowest edge index
        carrying it), or (0, None) when the side encloses no hyperedge."""
        got = self._peaks.get(position_mask)
        if got is None:
            members = self.vertex_mask(position_mask)
            got = (0, None)
            for e, peak in self._by_peak:
                if e & ~members == 0:
                    got = peak
                    break
            self._peaks[position_mask] = got
        return got

    def level(self, reds: int, blues: int) -> LevelOutcome:
        """Signed level of the position-space pair (reds, blues), or the
        ``Witness`` of a level tie.

        Low band: plus or minus (alt + 1) while alt stays within the
        feasibility ceiling, positive when the blues are empty or the
        earliest signed position is red.  High band: ceiling + (maximum
        color enclosed by either side) - k + 2, signed by the side
        attaining it.  Values beyond n can only appear when the palette
        exceeds the audited regime.  A pair whose sides tie gets the
        tie's ``Witness`` instead (two disjoint edges of one color, which
        the tie always has), so a chain is checked as it is levelled.

        Nested pairs never carry opposite levels v and -v: adding positions
        never lowers alt, and flips the low-band sign only by inserting a
        blue before the earliest signed position, which raises alt; in the
        high band the outer sides contain the inner ones, so the inner
        winning side's peak cannot drop; and the bands' magnitudes never
        overlap.
        """
        key = (reds, blues)
        got = self._level.get(key)
        if got is None:
            got = self._level_uncached(reds, blues)
            self._level[key] = got
        return got

    def _level_uncached(self, reds: int, blues: int) -> LevelOutcome:
        a = alt_masks(self.n, reds, blues)
        if a <= self.alt_value:
            support = reds | blues
            positive = blues == 0 or (support & -support) & reds
            return a + 1 if positive else -(a + 1)
        hr, pr = self._peak_of(reds)
        hb, pb = self._peak_of(blues)
        if max(hr, hb) == 0:
            raise AuditAnomaly(
                "pair beyond the feasibility ceiling encloses no edge at all; "
                f"reds={vertices_of(reds)} blues={vertices_of(blues)}"
            )
        if max(hr, hb) < self.k:
            # The survivors need at least k colors (the pair sits beyond the
            # feasibility ceiling) but carry fewer than k color classes, so
            # some class holds a disjoint pair; only reachable for k >= 2
            # with an improper coloring.
            return self._monochromatic_survivors(reds, blues)
        if hr == hb:
            assert pr is not None and pb is not None
            return Witness(pr, pb, hr, SignVector(self.n, reds, blues))
        magnitude = self.alt_value + max(hr, hb) - self.k + 2
        assert magnitude >= self.alt_value + 2
        return magnitude if hr > hb else -magnitude

    def _monochromatic_survivors(self, reds: int, blues: int) -> Witness:
        """Lowest-index disjoint same-colored pair among the pair's survivors."""
        context = SignVector(self.n, reds, blues)
        sub = restrict(self.h, context, self.order)
        colors = self.c.assignment
        clash = first_clash(
            kneser_graph(sub), Coloring(tuple(colors[i] for i in sub.origin), self.c.palette)
        )
        if clash is None:
            raise AuditAnomaly(
                "survivors below the level jump contain no monochromatic disjoint pair, "
                "so the ceiling from bounds.alt_sigma is wrong for these inputs"
            )
        a, b = (sub.origin[i] for i in clash)
        return Witness(a, b, colors[a], context)

    @property
    def n(self) -> int:
        return self.h.n


def _swapped(steps: tuple[int, ...], i: int) -> tuple[int, ...]:
    """``steps`` with insertion steps i and i+1 (1-based) exchanged."""
    return steps[: i - 1] + (steps[i], steps[i - 1]) + steps[i + 1:]


def neighbors(steps: tuple[int, ...], ctx: AuditContext) -> NeighborOutcome:
    """The one or two chains adjacent to the chain ``steps`` in the audit graph.

    A chain is a permissible sequence written as its signed steps: step +p
    inserts position p on the red side, -p on the blue side, and the chain
    of pairs is read off the prefixes.  Its steps must lie within 1..n in
    absolute value, with no position inserted twice, so a chain of m steps
    has pairs of support 0, 1, ..., m; any other step raises
    ``ValueError``.

    Exactly one of two exclusive situations applies to a permissible chain:

    * two consecutive levels coincide at a unique index i >= 1: the
      neighbors re-route the chain around that plateau, swapping insertion
      steps i, i+1 and (when they exist) i+1, i+2, or dropping the last
      step when the plateau sits at the end;
    * all levels are distinct and exactly one, at index i, misses the
      chain's signed support: the neighbors append that level as a fresh
      insertion and, depending on i, swap steps i, i+1, drop the last step,
      or mirror the whole chain (i = 0).

    The empty chain's mirror is itself and is discarded, leaving its single
    append neighbor.  An append whose position exceeds n is dropped (only
    reachable when the palette exceeds the audited regime), which is what
    lets beyond-regime walks terminate.  ``steps`` itself is checked here,
    not the chains it produces, which are checked when they are levelled in
    turn: the first level tie along ``steps`` comes back as its
    ``Witness``, and a step missing from its levels or any failure of the
    dichotomy raises ``AuditAnomaly``.

    A chain produced by the last call on ``ctx`` is levelled from that
    call's prefix pairs (see ``AuditContext``): a swap or an append levels
    its one new prefix, a drop none, and a mirror none, as it negates the
    levels it has.  Its
    steps need no check, as they are valid by construction: swaps, drops
    and mirrors keep the positions, and an append adds a nonzero level
    within 1..n in absolute value whose position is checked to be free.
    Any other chain is levelled and checked from scratch.
    """
    n = ctx.n
    m = len(steps)
    level = ctx.level
    reds, blues, values, made = ctx._last
    j = made.get(steps)
    made.clear()  # the lists now describe ``steps``, or nothing reuses them
    tie = None
    if j is None:
        # level every prefix pair, the empty one (level 1) first, and check
        # every step, also those after the first tie
        reds, blues, values = [0], [0], [level(0, 0)]
        ctx._last = (reds, blues, values, made)
        r = b = 0
        for s in steps:
            p = abs(s)
            if not 0 < p <= n:
                raise ValueError(f"step {s} outside signed range 1..{n}")
            bit = 1 << (p - 1)
            if (r | b) & bit:
                raise ValueError(f"position {p} inserted twice")
            if s > 0:
                r |= bit
            else:
                b |= bit
            reds.append(r)
            blues.append(b)
            if tie is None:
                lv = level(r, b)
                if isinstance(lv, Witness):
                    tie = lv
                else:
                    values.append(lv)
    elif j == 0:
        # a mirror: every nonempty pair swaps sides, negating its level
        reds, blues = blues, reds
        ctx._last = (reds, blues, values, made)
        values[1:] = [-v for v in values[1:]]
    elif j > m:
        # a drop: the last pair goes
        del reds[-1], blues[-1], values[-1]
    else:
        # a swap of steps j, j+1 (j < m) or an append (j = m): only pair j
        # changes, to pair j - 1 plus the new step j
        s = steps[j - 1]
        r, b = reds[j - 1], blues[j - 1]
        if s > 0:
            r |= 1 << (s - 1)
        else:
            b |= 1 << (-s - 1)
        lv = level(r, b)
        if isinstance(lv, Witness):
            tie = lv
        elif j < len(reds):
            reds[j], blues[j], values[j] = r, b, lv
        else:
            reds.append(r)
            blues.append(b)
            values.append(lv)
    if tie is not None:
        return tie
    support = set(steps)
    seen = set(values)
    if not support <= seen:
        raise AuditAnomaly(f"chain {steps} is not permissible (levels {values})")

    # the m + 1 levels hold the m steps, so either one level repeats (and
    # the support is all of them) or one level misses the support; each
    # produced chain is kept with the one pair index it changes
    if len(seen) == m:
        val = sum(values) - sum(seen)
        i = values.index(val)
        if values[i + 1] != val:
            raise AuditAnomaly(
                f"rule dichotomy failed: plateaus at [], unmatched levels at [], levels {values}"
            )
        if i == 0:
            raise AuditAnomaly(f"level 1 repeated at the chain root; levels {values}")
        made[_swapped(steps, i)] = i
        if i < m - 1:
            made[_swapped(steps, i + 1)] = i + 1
        else:
            made[steps[:-1]] = m
    else:
        (val,) = seen - support
        i = values.index(val)
        if abs(val) <= n:
            # val itself is missing from the support, so only -val can hold
            # its position
            if -val in support:
                raise AuditAnomaly(f"append target {val} collides with step {-val} of chain {steps}")
            made[steps + (val,)] = m + 1
        if m > 0:
            if i == 0:
                made[tuple(-s for s in steps)] = 0
            elif i == m:
                made[steps[:-1]] = m
            else:
                made[_swapped(steps, i)] = i
    return list(made)


def verify_witness(w: Witness, h: Hypergraph, c: Coloring) -> bool:
    """Independent re-check: valid indices, disjoint edges, equal colors."""
    e = len(h.edges)
    if not (0 <= w.edge_a < e and 0 <= w.edge_b < e) or w.edge_a == w.edge_b:
        return False
    if h.edges[w.edge_a] & h.edges[w.edge_b]:
        return False
    return c.assignment[w.edge_a] == c.assignment[w.edge_b] == w.color


def audit(
    h: Hypergraph,
    c: Coloring,
    k: int,
    order: LinearOrder | None = None,
    step_cap: int = DEFAULT_STEP_CAP,
) -> Witness | ProperWithinBound:
    """Walk the audit graph and extract a monochromatic disjoint edge pair.

    Starting at the empty chain (the unique degree-one vertex) the walk
    moves to whichever neighbor is not the vertex it just left, and checks
    each chain once, as ``neighbors`` levels it on arrival.  Every chain
    after the first is one the previous call produced, so ``neighbors``
    levels only the pair it changes.  While the
    coloring uses at most n - alt + k - 2 colors, every interior vertex has
    exactly two neighbors unless a level tie reveals a witness, and a tie
    must eventually occur, so the walk is the constructive proof
    that such colorings are improper.  Wider palettes may let the walk
    reach another degree-one chain; the coloring then gets a direct
    properness scan, returning ``ProperWithinBound`` when it passes and the
    first clashing pair as an ordinary witness when it does not.

    The walk makes at most ``step_cap`` moves, whatever its outcome: the
    budget is checked before each move, and a walk that needs one more
    raises ``SearchLimitError``.

    Every returned witness is independently re-verified.  Identical inputs
    walk identical paths and return identical witnesses.
    """
    if step_cap < 1:
        raise ValueError("step cap must be positive")
    ctx = AuditContext(h, c, k, order)

    def settle(w: Witness) -> Witness:
        if not verify_witness(w, h, c):
            raise AuditAnomaly(f"witness failed re-verification: {w}")
        return w

    prev, cur, steps = None, (), 0
    while True:
        outcome = neighbors(cur, ctx)
        if isinstance(outcome, Witness):
            return settle(outcome)
        onward = [q for q in outcome if q != prev]
        if prev is not None and len(onward) == len(outcome):
            raise AuditAnomaly(
                f"walk arrived at {cur} which does not list {prev} as a neighbor"
            )
        if not onward:
            clash = first_clash(kneser_graph(h), c)
            if clash is None:
                return ProperWithinBound(steps)
            a, b = clash
            return settle(Witness(a, b, c.assignment[a], SignVector(h.n)))
        if steps >= step_cap:
            raise SearchLimitError(f"audit walk exceeded step cap {step_cap}")
        prev, cur = cur, onward[0]
        steps += 1
