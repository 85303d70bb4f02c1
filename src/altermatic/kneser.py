"""General Kneser graphs and the hypergraph families used to exercise them.

The Kneser graph of a hypergraph has one vertex per hyperedge, with edges
between disjoint hyperedges.  Its adjacency rows are
``Hypergraph.kneser_rows``, which the hypergraph builds once from its
per-vertex incidence masks (``Hypergraph.incidence``) and keeps.
Generators emit edges in lexicographic order of their sorted vertex
tuples so that Kneser vertex indices are stable across runs and
platforms.  ``cut_coloring`` builds a proper colouring of the Kneser
graph from the hypergraph alone: an upper bound on its chromatic number.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from .coloring import Coloring
from .core import Hypergraph, SimpleGraph, _trusted_graph, mask_of, vertex_cap, vertices_of


def kneser_graph(h: Hypergraph) -> SimpleGraph:
    """Graph on the hyperedges of ``h``; i ~ j iff edges i and j are disjoint.

    Disjointness is symmetric and no nonempty edge misses itself, so the rows
    skip ``SimpleGraph``'s checks.  An empty edge list gives the empty graph.
    """
    return _trusted_graph(h.kneser_rows)


def cut_coloring(h: Hypergraph) -> Coloring:
    """A proper colouring of ``kneser_graph(h)`` read from ``h`` alone.

    It generalises the standard colouring of KG(m,r) (Kneser 1955; Lovasz
    1978) under the identity ordering.  The cut c is the least one such
    that the edges whose least vertex is above c pairwise intersect.  Each
    edge whose least vertex is at most c takes one colour per distinct
    least vertex, in increasing order: edges sharing their least vertex
    meet there.  The tail edges above c take one more colour, or none
    when there is no tail.  On KG(m,r) the cut is m - 2r + 1 and the
    palette is m - 2r + 2 = chi.  Without edges the palette is 0.
    """
    # by_least[v]: the index bits of the edges whose least vertex bit is v;
    # near[v]: the edges disjoint from one of them.
    by_least = [0] * h.n
    near = [0] * h.n
    for i, (e, row) in enumerate(zip(h.edges, h.kneser_rows)):
        v = (e & -e).bit_length() - 1
        by_least[v] |= 1 << i
        near[v] |= row
    # Lower the cut from n while the edges with least vertex above it
    # pairwise intersect.  Edges sharing a least vertex meet, so the cut
    # stops at the first vertex whose edges miss some edge already above.
    tail = 0
    for cut in range(h.n, 0, -1):
        tail |= by_least[cut - 1]
        if near[cut - 1] & tail:
            break
    else:
        cut = 0
    heads = [v for v in range(cut) if by_least[v]]
    color = {v: c for c, v in enumerate(heads, 1)}
    tail_color = len(heads) + 1
    assignment = tuple(color.get((e & -e).bit_length() - 1, tail_color) for e in h.edges)
    return Coloring(assignment, max(assignment, default=0))


def complete_uniform(m: int, r: int) -> Hypergraph:
    """All r-subsets of 1..m, in lexicographic order.

    The Kneser graph of this hypergraph is the classical Kneser graph on
    r-subsets of an m-set; for example (5, 2) yields the Petersen graph.
    """
    if r < 1 or r > m:
        raise ValueError(f"need 1 <= r <= m, got r={r}, m={m}")
    if m > vertex_cap():
        raise ValueError(f"vertex count {m} exceeds vertex cap {vertex_cap()}")
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
    if m > vertex_cap():
        raise ValueError(f"vertex count {m} exceeds vertex cap {vertex_cap()}")
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
    if n > vertex_cap():
        raise ValueError(f"vertex count {n} exceeds vertex cap {vertex_cap()}")
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
