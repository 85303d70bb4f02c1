"""General Kneser graphs and the hypergraph families used to exercise them.

The Kneser graph of a hypergraph has one vertex per hyperedge, with edges
between disjoint hyperedges.  Generators emit edges in lexicographic order
of their sorted vertex tuples so that Kneser vertex indices are stable
across runs and platforms.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from .core import Hypergraph, SimpleGraph, mask_of, vertices_of


def disjointness_graph(edges) -> SimpleGraph:
    """Graph on a sequence of vertex masks; i ~ j iff masks i and j are disjoint."""
    m = len(edges)
    rows = [0] * m
    for i in range(m):
        ei = edges[i]
        for j in range(i + 1, m):
            if ei & edges[j] == 0:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return SimpleGraph(m, tuple(rows))


def kneser_graph(h: Hypergraph) -> SimpleGraph:
    """Graph on the hyperedges of ``h``; i ~ j iff edges i and j are disjoint.

    Nonempty edges are never disjoint from themselves, so there are no
    loops.  An empty edge list gives the empty graph.
    """
    return disjointness_graph(h.edges)


def complete_uniform(m: int, r: int) -> Hypergraph:
    """All r-subsets of 1..m, in lexicographic order.

    The Kneser graph of this hypergraph is the classical Kneser graph on
    r-subsets of an m-set; for example (5, 2) yields the Petersen graph.
    """
    if r < 1 or r > m:
        raise ValueError(f"need 1 <= r <= m, got r={r}, m={m}")
    return Hypergraph(m, tuple(mask_of(c) for c in combinations(range(1, m + 1), r)))


def schrijver_hypergraph(m: int, r: int) -> Hypergraph:
    """Stable r-subsets of the m-cycle: no two elements cyclically adjacent.

    A subset is kept when it contains no pair {i, i+1} and not both 1 and m.
    Requires m >= 2r; below that no stable r-subset exists.
    """
    if r < 1:
        raise ValueError(f"subset size must be positive, got {r}")
    if m < 2 * r:
        raise ValueError(f"need m >= 2r for stable subsets to exist, got m={m}, r={r}")
    edges = []
    for c in combinations(range(1, m + 1), r):
        stable = all(c[i + 1] - c[i] >= 2 for i in range(len(c) - 1))
        if stable and not (c[0] == 1 and c[-1] == m):
            edges.append(mask_of(c))
    return Hypergraph(m, tuple(edges))


def _count_subsets(n: int, lo: int, hi: int) -> int:
    return sum(comb(n, s) for s in range(lo, hi + 1))


def _unrank_subset(n: int, size: int, rank: int) -> int:
    """Mask of the rank-th size-subset of 1..n in lexicographic order."""
    mask = 0
    v = 1
    remaining = size
    while remaining:
        # subsets starting at v: C(n - v, remaining - 1) of them
        c = comb(n - v, remaining - 1)
        if rank < c:
            mask |= 1 << (v - 1)
            remaining -= 1
        else:
            rank -= c
        v += 1
    return mask


def random_hypergraph(n: int, ecount: int, sizes: tuple[int, int], seed: int) -> Hypergraph:
    """Sample ``ecount`` distinct edges uniformly among subsets with size in ``sizes``.

    Deterministic for a fixed seed.  Edges are returned in lexicographic
    order of their sorted vertex tuples, like the other generators.
    """
    lo, hi = sizes
    if not (1 <= lo <= hi <= n):
        raise ValueError(f"need 1 <= lo <= hi <= n, got sizes={sizes}, n={n}")
    if ecount < 1:
        raise ValueError(f"edge count must be positive, got {ecount}")
    available = _count_subsets(n, lo, hi)
    if ecount > available:
        raise ValueError(f"requested {ecount} edges but only {available} subsets of size {lo}..{hi} exist")

    rng = random.Random(seed)
    if available <= max(4096, 2 * ecount):
        pool = []
        for s in range(lo, hi + 1):
            pool.extend(mask_of(c) for c in combinations(range(1, n + 1), s))
        chosen = rng.sample(pool, ecount)
    else:
        size_counts = []
        for s in range(lo, hi + 1):
            size_counts.append((_count_subsets(n, s, s), s))
        chosen_set: set[int] = set()
        while len(chosen_set) < ecount:
            idx = rng.randrange(available)
            for count, s in size_counts:
                if idx < count:
                    chosen_set.add(_unrank_subset(n, s, idx))
                    break
                idx -= count
        chosen = list(chosen_set)

    chosen.sort(key=vertices_of)
    return Hypergraph(n, tuple(chosen))
