"""Brute-force reference implementations and the audit-graph census.

Everything here recomputes a quantity the production code obtains by a
smarter route, using the most literal method available: explicit
subsequence enumeration, restricted-growth-string assignment enumeration,
full ternary enumeration of sign words.  The census enumerates every
permissible chain of one audit context, where the audit walk visits only
the chains on its path.  They exist to cross-check the fast paths in the
test suite and the audit demo; never call them for real work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

from .audit import AuditContext, Witness, neighbors
from .core import Hypergraph, LinearOrder, SearchLimitError, SignVector, SimpleGraph
from .coloring import Coloring, chromatic_at_most
from .kneser import kneser_graph


def alt_by_enumeration(x: SignVector) -> int:
    """Longest alternating subsequence by trying every subsequence."""
    signs = [1 if ch == "R" else -1 for ch in x.word() if ch != "0"]
    best = 0
    for size in range(1, len(signs) + 1):
        for picks in combinations(range(len(signs)), size):
            if all(signs[picks[i]] != signs[picks[i + 1]] for i in range(size - 1)):
                best = size
                break  # longer sizes may still work; keep scanning sizes
    return best


def longest_alternating_starts(x: SignVector) -> set[int]:
    """Signs that can begin a maximum-length alternating subsequence."""
    signs = [1 if ch == "R" else -1 for ch in x.word() if ch != "0"]
    best = 0
    starts: set[int] = set()
    for size in range(1, len(signs) + 1):
        for picks in combinations(range(len(signs)), size):
            if all(signs[picks[i]] != signs[picks[i + 1]] for i in range(size - 1)):
                if size > best:
                    best = size
                    starts = set()
                starts.add(signs[picks[0]])
    return starts


def chromatic_by_enumeration(g: SimpleGraph) -> int:
    """Exact chromatic number by enumerating canonical color assignments.

    Assignments are generated in restricted growth form (a vertex may use
    at most one color beyond those already used), which visits every
    coloring exactly once up to color renaming.  Exponential; keep the
    graph at eight or so vertices.
    """
    n = g.vcount
    if n == 0:
        return 0

    best = n

    def extend(v: int, colors: list[int], used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if v == n:
            best = used
            return
        for c in range(1, min(used + 1, best - 1) + 1):
            ok = True
            m = g.rows[v] & ((1 << v) - 1)
            while m:
                low = m & -m
                m ^= low
                if colors[low.bit_length() - 1] == c:
                    ok = False
                    break
            if ok:
                colors[v] = c
                extend(v + 1, colors, max(used, c))
                colors[v] = 0

    extend(0, [0] * n, 0)
    return best


def feasible_by_scan(h: Hypergraph, reds: int, blues: int, k: int) -> bool:
    """Feasibility from scratch: collect survivors, then test their budget."""
    survivors = [e for e in h.edges if e & ~reds == 0 or e & ~blues == 0]
    if k == 1:
        return not survivors
    sub = Hypergraph(h.n, tuple(survivors)) if survivors else None
    if sub is None:
        return True
    return chromatic_at_most(kneser_graph(sub), k - 1)


def alt_sigma_by_enumeration(h: Hypergraph, order: LinearOrder, k: int) -> int:
    """Maximum alt over feasible words by visiting all 3**n of them."""
    n = h.n
    best = 0
    for word in product((0, 1, -1), repeat=n):
        reds = blues = 0
        for pos, s in enumerate(word):
            bit = 1 << (order.perm[pos] - 1)
            if s == 1:
                reds |= bit
            elif s == -1:
                blues |= bit
        if not feasible_by_scan(h, reds, blues, k):
            continue
        a = 0
        last = 0
        for s in word:
            if s and s != last:
                a += 1
                last = s
        if a > best:
            best = a
            if best == n:
                break
    return best


@dataclass
class AuditGraphStats:
    """Census of the audit graph on all permissible chains of one context;
    ``violations`` holds its level ties, each as (chain, witness)."""

    candidates: int
    vertex_count: int
    degree_histogram: dict[int, int]
    violations: list[tuple[tuple[int, ...], Witness]]
    neighbor_map: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = field(repr=False)


def enumerate_audit_graph(
    h: Hypergraph,
    c: Coloring,
    k: int,
    order: LinearOrder | None = None,
    size_cap: int = 200_000,
) -> AuditGraphStats:
    """Enumerate every permissible chain, its neighbors, and all level ties.

    A test instrument for small n: the degree histogram exposes the
    impossible profile (one vertex of degree one, the rest of degree two)
    that the walk exploits, and the neighbor map lets tests check symmetry.
    Chains are generated by extending step prefixes; a prefix whose newest
    pair has a level tie is recorded once as a violation and pruned, since
    the poisoned pair stays in every extension, so ``neighbors`` answers
    every listed chain with a list (or raises ``AuditAnomaly``).
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

    vertices: list[tuple[int, ...]] = []
    violations: list[tuple[tuple[int, ...], Witness]] = []

    def grow(steps: tuple[int, ...], values: list[int], reds: int, blues: int) -> None:
        if set(steps) <= set(values):
            vertices.append(steps)
        if len(steps) == n:
            return
        for p in range(1, n + 1):
            bit = 1 << (p - 1)
            if (reds | blues) & bit:
                continue
            for s, pair in ((p, (reds | bit, blues)), (-p, (reds, blues | bit))):
                nxt = steps + (s,)
                lv = ctx.level(*pair)
                if isinstance(lv, Witness):
                    violations.append((nxt, lv))
                    continue
                grow(nxt, values + [lv], *pair)

    root = ctx.level(0, 0)
    assert isinstance(root, int)
    grow((), [root], 0, 0)

    neighbor_map: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
    degree_histogram: dict[int, int] = {}
    for seq in vertices:
        outcome = neighbors(seq, ctx)
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
