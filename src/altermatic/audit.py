"""Constructive auditing of Kneser graph colorings.

A coloring of the hyperedges of H that uses at most n - alt + k - 2 colors
cannot properly color the Kneser graph of H.  This module operationalizes
the argument behind that fact as a path-following search: sign words get a
signed level, nested chains of signed vertex insertions ("permissible
sequences") form a graph under two local rewrite rules, and the structure
of that graph forces any walk from the empty chain to run into a
contradiction.  The contradiction is always concrete - two disjoint
hyperedges carrying the same color - and is returned as a ``Witness``.

Levels and chains live in ordering slots ("positions"); whenever a level
needs to look at actual hyperedges, the position sets are pushed through
the ordering first.  Each walk owns its caches, so concurrent audits over
the same immutable inputs are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .core import Hypergraph, LinearOrder, SearchLimitError, SignVector, _env_int, alt_masks, vertices_of
from .coloring import Coloring, first_clash
from .kneser import kneser_graph
from . import bounds

DEFAULT_STEP_CAP = 10_000_000


def step_cap_default() -> int:
    """Walk step budget (ALTERMATIC_STEP_CAP, default ten million)."""
    return _env_int("ALTERMATIC_STEP_CAP", DEFAULT_STEP_CAP)


class AuditAnomaly(RuntimeError):
    """An internal consistency rule failed; indicates an implementation bug
    (or a degenerate regime the rules do not cover), never a bad input."""


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


@dataclass(frozen=True)
class SignedLevel:
    """Signed level of a sign word.

    Low band: plus or minus (alt + 1) while alt stays within the feasibility
    ceiling, positive when the blues are empty or the earliest signed
    position is red.  High band: ceiling + (maximum color enclosed by either
    side) - k + 2, signed by the side attaining it; the attaining edges are
    kept for witness extraction.  Values beyond n can only appear when the
    palette exceeds the audited regime.
    """

    value: int
    red_peak: int | None = None
    blue_peak: int | None = None


@dataclass(frozen=True)
class TieDetected:
    """Both sides enclose the same maximum color: immediate witness."""

    witness: Witness


@dataclass(frozen=True)
class Violation:
    """A rule failure met while computing neighbors.

    Carries a verified ``witness`` when the failure certifies the coloring
    improper, otherwise a diagnostic ``detail`` describing the anomaly.
    """

    witness: Witness | None
    detail: str


@dataclass(frozen=True)
class PermissibleSequence:
    """A nested chain of disjoint sign pairs, one signed position per step.

    Step +p inserts position p on the red side, -p on the blue side; the
    chain of pairs is read off the prefixes.  Absolute values are distinct,
    so a chain of m steps has pairs of support 0, 1, ..., m.  The defining
    level condition (every inserted signed position appears among the chain's
    levels) depends on a coloring context and is checked by ``is_permissible``.
    """

    n: int
    steps: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for s in self.steps:
            if s == 0 or abs(s) > self.n:
                raise ValueError(f"step {s} outside signed range 1..{self.n}")
            if abs(s) in seen:
                raise ValueError(f"position {abs(s)} inserted twice")
            seen.add(abs(s))

    @property
    def length(self) -> int:
        return len(self.steps)

    def pairs(self) -> list[tuple[int, int]]:
        """(reds, blues) position masks of every chain prefix, smallest first."""
        reds = blues = 0
        out = [(0, 0)]
        for s in self.steps:
            if s > 0:
                reds |= 1 << (s - 1)
            else:
                blues |= 1 << (-s - 1)
            out.append((reds, blues))
        return out

    def mirrored(self) -> "PermissibleSequence":
        return PermissibleSequence(self.n, tuple(-s for s in self.steps))


LevelOutcome = Union[SignedLevel, TieDetected]
NeighborOutcome = Union[list[PermissibleSequence], Violation]


def _peak(members: int, h: Hypergraph, c: Coloring) -> tuple[int, int | None]:
    """(largest color on a hyperedge inside the vertex mask, lowest edge index
    carrying it), or (0, None) when the mask encloses no hyperedge."""
    best = 0
    arg = None
    for i, e in enumerate(h.edges):
        if e & ~members == 0 and c.assignment[i] > best:
            best = c.assignment[i]
            arg = i
    return best, arg


def max_enclosed_color(members: int, h: Hypergraph, c: Coloring) -> int:
    """Largest color on a hyperedge contained in the vertex mask; 0 if none."""
    if len(c.assignment) != len(h.edges):
        raise ValueError("coloring length differs from edge count")
    return _peak(members, h, c)[0]


class AuditContext:
    """Evaluation state for one (hypergraph, coloring, k, ordering) audit.

    ``alt_value`` is the feasibility ceiling for the given ordering; it is
    computed on demand via ``bounds.alt_sigma`` when not supplied.
    """

    def __init__(
        self,
        h: Hypergraph,
        c: Coloring,
        k: int,
        order: LinearOrder | None = None,
        alt_value: int | None = None,
    ):
        if k < 1:
            raise ValueError(f"level k must be positive, got {k}")
        if len(c.assignment) != len(h.edges):
            raise ValueError(
                f"coloring has {len(c.assignment)} entries for {len(h.edges)} hyperedges"
            )
        if order is None:
            order = LinearOrder.identity(h.n)
        if order.n != h.n:
            raise ValueError("ordering length differs from vertex count")
        self.h = h
        self.c = c
        self.k = k
        self.order = order
        if alt_value is None:
            alt_value = bounds.alt_sigma(h, order, k).alt_value
        self.alt_value = alt_value
        self.palette_bound = h.n - alt_value + k - 2
        self._vbit = tuple(1 << (v - 1) for v in order.perm)
        self._peaks: dict[int, tuple[int, int | None]] = {}
        self._level: dict[tuple[int, int], LevelOutcome] = {}

    def vertex_mask(self, position_mask: int) -> int:
        out = 0
        m = position_mask
        while m:
            low = m & -m
            m ^= low
            out |= self._vbit[low.bit_length() - 1]
        return out

    def _peak_of(self, position_mask: int) -> tuple[int, int | None]:
        """(max enclosed color, lowest attaining edge index) for one side."""
        got = self._peaks.get(position_mask)
        if got is None:
            got = _peak(self.vertex_mask(position_mask), self.h, self.c)
            self._peaks[position_mask] = got
        return got

    def level(self, reds: int, blues: int) -> LevelOutcome:
        """Signed level of the position-space pair (reds, blues)."""
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
            return SignedLevel(a + 1 if positive else -(a + 1))
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
            return TieDetected(self._monochromatic_survivors(reds, blues))
        if hr == hb:
            assert pr is not None and pb is not None
            witness = Witness(pr, pb, hr, SignVector(self.n, reds, blues))
            return TieDetected(witness)
        magnitude = self.alt_value + max(hr, hb) - self.k + 2
        assert magnitude >= self.alt_value + 2
        if hr > hb:
            return SignedLevel(magnitude, red_peak=pr, blue_peak=pb)
        return SignedLevel(-magnitude, red_peak=pr, blue_peak=pb)

    def _monochromatic_survivors(self, reds: int, blues: int) -> Witness:
        """Lowest-index disjoint same-colored pair among the pair's survivors."""
        rmask = self.vertex_mask(reds)
        bmask = self.vertex_mask(blues)
        survivors = [
            i for i, e in enumerate(self.h.edges)
            if e & ~rmask == 0 or e & ~bmask == 0
        ]
        for s, i in enumerate(survivors):
            for j in survivors[s + 1:]:
                if self.h.edges[i] & self.h.edges[j] == 0 and (
                    self.c.assignment[i] == self.c.assignment[j]
                ):
                    return Witness(i, j, self.c.assignment[i], SignVector(self.n, reds, blues))
        raise AuditAnomaly(
            "survivors below the level jump contain no monochromatic disjoint pair; "
            "was the supplied alternation ceiling computed for these inputs?"
        )

    @property
    def n(self) -> int:
        return self.h.n


def signed_level(
    x: SignVector,
    h: Hypergraph,
    c: Coloring,
    alt_value: int,
    k: int,
    order: LinearOrder | None = None,
) -> LevelOutcome:
    """One-shot signed level of a sign word; see ``AuditContext.level``.

    ``alt_value`` must be the feasibility ceiling previously computed for
    (h, order, k).  For repeated evaluations build one ``AuditContext`` and
    call its ``level`` method instead.
    """
    ctx = AuditContext(h, c, k, order, alt_value=alt_value)
    return ctx.level(x.reds, x.blues)


def _chain_levels(ctx: AuditContext, seq: PermissibleSequence):
    """Levels along the chain, or the TieDetected that blocked them."""
    out = []
    for reds, blues in seq.pairs():
        lv = ctx.level(reds, blues)
        if isinstance(lv, TieDetected):
            return None, lv
        out.append(lv.value)
    return out, None


def is_permissible(ctx: AuditContext, seq: PermissibleSequence) -> bool:
    """Whether every inserted signed position appears among the chain's levels.

    Raises ``AuditAnomaly`` wrapped in the caller when a level tie blocks
    evaluation; callers that can produce witnesses use ``_chain_levels``
    directly to keep the tie.
    """
    values, tie = _chain_levels(ctx, seq)
    if values is None:
        raise AuditAnomaly("level tie while testing permissibility; audit the coloring instead")
    return set(seq.steps) <= set(values)


def _swap_steps(seq: PermissibleSequence, i: int) -> PermissibleSequence:
    """Exchange the insertion order of chain steps i and i+1 (1-based)."""
    s = list(seq.steps)
    s[i - 1], s[i] = s[i], s[i - 1]
    return PermissibleSequence(seq.n, tuple(s))


def neighbors(seq: PermissibleSequence, ctx: AuditContext) -> NeighborOutcome:
    """The one or two chains adjacent to ``seq`` in the audit graph.

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
    lets beyond-regime walks terminate.  Any level tie, any antipodal level
    pair along the chain, and any failure of the dichotomy or of the
    produced chains' permissibility comes back as a ``Violation`` - with a
    witness whenever the failure certifies the coloring improper.
    """
    m = seq.length
    values, tie = _chain_levels(ctx, seq)
    if values is None:
        return Violation(tie.witness, "level tie along the chain")

    # Antipodal levels on nested pairs certify a monochromatic disjoint pair.
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            if values[i] == -values[j]:
                return _antipodal_violation(ctx, seq, values, i, j)

    support = set(seq.steps)
    plateau = [i for i in range(m) if values[i] == values[i + 1]]
    missing = [i for i in range(m + 1) if values[i] not in support]

    produced: list[PermissibleSequence] = []
    if len(plateau) == 1 and not missing:
        i = plateau[0]
        if i == 0:
            return Violation(None, f"level 1 repeated at the chain root; levels {values}")
        produced.append(_swap_steps(seq, i))
        if i < m - 1:
            produced.append(_swap_steps(seq, i + 1))
        else:
            produced.append(PermissibleSequence(seq.n, seq.steps[:-1]))
    elif len(missing) == 1 and not plateau:
        i = missing[0]
        val = values[i]
        if abs(val) <= seq.n:
            if abs(val) in {abs(s) for s in seq.steps}:
                return Violation(
                    None,
                    f"append target {val} collides with the chain support without an antipodal pair",
                )
            produced.append(PermissibleSequence(seq.n, seq.steps + (val,)))
        if m > 0:
            if i == 0:
                produced.append(seq.mirrored())
            elif i == m:
                produced.append(PermissibleSequence(seq.n, seq.steps[:-1]))
            else:
                produced.append(_swap_steps(seq, i))
    else:
        return Violation(
            None,
            f"rule dichotomy failed: plateaus at {plateau}, unmatched levels at {missing}, levels {values}",
        )

    for q in produced:
        q_values, q_tie = _chain_levels(ctx, q)
        if q_values is None:
            return Violation(q_tie.witness, "level tie on a produced neighbor")
        if not set(q.steps) <= set(q_values):
            return Violation(
                None,
                f"produced chain {q.steps} is not permissible (levels {q_values})",
            )
    return produced


def _antipodal_violation(
    ctx: AuditContext,
    seq: PermissibleSequence,
    values: list[int],
    i: int,
    j: int,
) -> Violation:
    """Witness for levels v and -v on nested pairs i < j of the chain.

    Both levels must sit in the high band, each attained by an enclosed
    edge of its signed side; the inner pair's attaining edge lies inside one
    side of the outer pair and the outer pair's attaining edge inside the
    other, so they are disjoint and share the attained color.
    """
    pairs = seq.pairs()
    inner = ctx.level(*pairs[i])
    outer = ctx.level(*pairs[j])
    assert isinstance(inner, SignedLevel) and isinstance(outer, SignedLevel)
    a = inner.red_peak if inner.value > 0 else inner.blue_peak
    b = outer.blue_peak if inner.value > 0 else outer.red_peak
    if a is None or b is None:
        return Violation(
            None,
            f"antipodal levels {values[i]}, {values[j]} at chain indices {i}, {j} "
            "without high-band attaining edges",
        )
    color = ctx.c.assignment[a]
    if color != ctx.c.assignment[b]:
        return Violation(
            None,
            f"antipodal levels at {i}, {j} but attaining colors differ: "
            f"{color} vs {ctx.c.assignment[b]}",
        )
    witness = Witness(a, b, color, SignVector(ctx.n, *pairs[j]))
    return Violation(witness, f"antipodal levels {values[i]} and {values[j]} on nested pairs")


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
    step_cap: int | None = None,
) -> Witness | ProperWithinBound:
    """Walk the audit graph and extract a monochromatic disjoint edge pair.

    Starting at the empty chain (the unique degree-one vertex) the walk
    moves to whichever neighbor is not the vertex it just left.  While the
    coloring uses at most n - alt + k - 2 colors, every interior vertex has
    exactly two neighbors unless a rule violation reveals a witness, and a
    violation must eventually occur, so the walk is the constructive proof
    that such colorings are improper.  Wider palettes may let the walk
    reach another degree-one chain; the coloring then gets a direct
    properness scan, returning ``ProperWithinBound`` when it passes and the
    first clashing pair as an ordinary witness when it does not.

    Every returned witness is independently re-verified.  Identical inputs
    walk identical paths and return identical witnesses.
    """
    ctx = AuditContext(h, c, k, order)
    cap = step_cap if step_cap is not None else step_cap_default()
    if cap < 1:
        raise ValueError("step cap must be positive")

    def settle(v: Violation) -> Witness:
        if v.witness is None:
            raise AuditAnomaly(v.detail)
        if not verify_witness(v.witness, h, c):
            raise AuditAnomaly(f"witness failed re-verification: {v.witness}")
        return v.witness

    prev = PermissibleSequence(h.n)
    outcome = neighbors(prev, ctx)
    if isinstance(outcome, Violation):
        return settle(outcome)
    cur = outcome[0]
    steps = 1
    while steps <= cap:
        outcome = neighbors(cur, ctx)
        if isinstance(outcome, Violation):
            return settle(outcome)
        onward = [q for q in outcome if q != prev]
        if len(onward) == len(outcome):
            raise AuditAnomaly(
                f"walk arrived at {cur.steps} which does not list {prev.steps} as a neighbor"
            )
        if not onward:
            return _terminal_check(ctx, steps, settle)
        prev, cur = cur, onward[0]
        steps += 1
    raise SearchLimitError(f"audit walk exceeded step cap {cap}")


def _terminal_check(ctx: AuditContext, steps: int, settle) -> Witness | ProperWithinBound:
    clash = first_clash(kneser_graph(ctx.h), ctx.c)
    if clash is None:
        return ProperWithinBound(steps)
    a, b = clash
    witness = Witness(a, b, ctx.c.assignment[a], SignVector(ctx.n))
    return settle(Violation(witness, "direct properness scan"))


@dataclass
class AuditGraphStats:
    """Census of the audit graph on all permissible chains of one context."""

    candidates: int
    vertex_count: int
    degree_histogram: dict[int, int]
    violations: list[tuple[PermissibleSequence, Violation]]
    neighbor_map: dict[PermissibleSequence, tuple[PermissibleSequence, ...]] = field(repr=False)


def enumerate_audit_graph(
    h: Hypergraph,
    c: Coloring,
    k: int,
    order: LinearOrder | None = None,
    size_cap: int = 200_000,
) -> AuditGraphStats:
    """Enumerate every permissible chain, its neighbors, and all violations.

    A test instrument for small n: the degree histogram exposes the
    impossible profile (one vertex of degree one, the rest of degree two)
    that the walk exploits, and the neighbor map lets tests check symmetry.
    Chains are generated by extending step prefixes; a prefix whose newest
    pair has a level tie is recorded once as a violation and pruned, since
    the poisoned pair stays in every extension.
    """
    ctx = AuditContext(h, c, k, order)
    n = h.n
    total = 0
    layer = 1
    for m in range(n + 1):
        total += layer
        layer *= 2 * (n - m)
    if total > size_cap:
        raise SearchLimitError(f"{total} candidate chains exceed size cap {size_cap}")

    vertices: list[PermissibleSequence] = []
    violations: list[tuple[PermissibleSequence, Violation]] = []

    def grow(steps: tuple[int, ...], values: list[int]) -> None:
        seq = PermissibleSequence(n, steps)
        if set(steps) <= set(values):
            vertices.append(seq)
        if len(steps) == n:
            return
        taken = {abs(s) for s in steps}
        for p in range(1, n + 1):
            if p in taken:
                continue
            for s in (p, -p):
                nxt = steps + (s,)
                reds, blues = PermissibleSequence(n, nxt).pairs()[-1]
                lv = ctx.level(reds, blues)
                if isinstance(lv, TieDetected):
                    violations.append(
                        (PermissibleSequence(n, nxt), Violation(lv.witness, "level tie"))
                    )
                    continue
                grow(nxt, values + [lv.value])

    root = ctx.level(0, 0)
    assert isinstance(root, SignedLevel)
    grow((), [root.value])

    neighbor_map: dict[PermissibleSequence, tuple[PermissibleSequence, ...]] = {}
    degree_histogram: dict[int, int] = {}
    for seq in vertices:
        outcome = neighbors(seq, ctx)
        if isinstance(outcome, Violation):
            violations.append((seq, outcome))
            continue
        neighbor_map[seq] = tuple(outcome)
        d = len(outcome)
        degree_histogram[d] = degree_histogram.get(d, 0) + 1

    return AuditGraphStats(
        candidates=total,
        vertex_count=len(vertices),
        degree_histogram=degree_histogram,
        violations=violations,
        neighbor_map=neighbor_map,
    )
