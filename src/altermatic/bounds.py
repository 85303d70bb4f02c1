"""Altermatic lower bounds on the chromatic number of a Kneser graph.

For an ordering sigma and level k, the search maximizes alt(X) over sign
words X whose surviving sub-hypergraph (edges inside one color class of X)
has a Kneser graph colorable with k-1 colors; for k = 1 the requirement is
that no edge survives at all, and for k = 2 that the survivors pairwise
intersect, since a graph is 1-colorable exactly when it has no edges.
The quantity n - alt + k - 1 is then a lower bound on the chromatic number
of the full Kneser graph, for every sigma and every k <= chi + 1;
minimizing alt over orderings gives the strongest form.

Determining the per-ordering maximum is NP-hard in general, so both the
per-ordering search and the minimization are exact exponential procedures
guarded by size caps.  Each search owns its mutable state; shared inputs
are immutable, so independent searches may run concurrently.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import combinations, islice, permutations
from operator import or_

from .core import Hypergraph, LinearOrder, SignVector, vertices_of
from .coloring import chromatic_at_most, chromatic_number, greedy_color_count
from .kneser import kneser_graph

# Largest n for which exhaustive ordering scans are allowed: 8! = 40,320
# orderings before symmetry reduction.
FACTORIAL_CAP = 8
# Seeded shuffles ``lower_bound`` tries after the identity ordering.
SEED_ORDERINGS = 128
# Feasible words an ``_AltSearch`` keeps to refute threshold runs unwalked.
REMEMBERED_WORDS = 4


@dataclass(frozen=True)
class AltReport:
    """Outcome of an alternation search.

    ``witness`` is a sign word in ordering slots: slot j of the word refers
    to vertex ``sigma.perm[j]``, so ``apply_order(witness, sigma)`` labels
    actual vertices.  ``sigma_mode`` is "single" for a fixed-ordering
    search, "exhaustive" or "sampled" for minimization; a sampled minimum
    is an upper bound on the true minimum, hence still yields a valid
    (possibly weaker) chromatic bound.  A minimization stops scanning at
    a floor that no ordering can go below (see ``alt_min``); the report
    is the one the full scan gives.
    """

    alt_value: int
    witness: SignVector
    sigma: LinearOrder
    k: int
    sigma_mode: str

    @property
    def n(self) -> int:
        return self.sigma.n

    @property
    def bound(self) -> int:
        """n - alt + k - 1: a lower bound on chi when k <= chi + 1.  Above
        that level every word is feasible, alt = n, and k - 1 exceeds chi."""
        return self.n - self.alt_value + self.k - 1


@dataclass(frozen=True)
class TheoremCheck:
    """Comparison of the altermatic bound against the exact chromatic number."""

    bound: int
    chi: int
    holds: bool
    tight: bool
    report: AltReport


class _AltSearch:
    """Shared machinery for the per-ordering searches of one (H, k) pair.

    Feasibility is a question about the surviving edge-index set, as a bit
    mask over edge indices; that set is what the restriction boils down to.
    At k = 2 the set is feasible when no two survivors are disjoint.  The
    search reads that from one clash mask per edge, its row of the Kneser
    graph (the index bits of the edges disjoint from it), which is
    ``h.kneser_rows``; a set is feasible when no survivor's clash mask
    meets it.  At k >= 3 the answer comes from ``chromatic_at_most`` on
    the survivors' Kneser graph, memoized on the set, since the same sets
    recur across branches and across orderings.  That coloring question
    is asked only for survivor sets that a walk or ``_half_floor``
    reaches, never up front for the whole of H: where the word that
    alternates along the whole ordering is feasible, the walk's first
    descent reaches alt = n in n nodes.

    The search also remembers the last ``REMEMBERED_WORDS`` feasible words
    its walks ended on, by vertex rather than by slot, newest first.
    Which edges survive a word depends only on which vertices are R and
    which are B, never on the ordering, so a remembered word is feasible
    under every ordering.  When one of them reaches alt >= threshold under
    the ordering of a threshold run, the maximum does too, and the run
    returns None without a walk, exactly as the walk would.  Every
    returned result still comes from a full walk.
    """

    def __init__(self, h: Hypergraph, k: int):
        if k < 1:
            raise ValueError(f"level k must be positive, got {k}")
        self.h = h
        self.k = k
        # k >= 3: feasibility by survivor set, decided by a coloring
        self._chrom: dict[int, bool] = {}
        if k == 2:
            self._clash = h.kneser_rows
        # Remembered words as ``bytes.translate`` arguments: a table taking
        # each vertex id to b"R" or b"B", and the ids of its 0 vertices
        # (ids are at most ``core.DEFAULT_VERTEX_CAP`` = 63, so one byte).
        self._words: list[tuple[bytes, bytes]] = []
        # k = 1: the size of the largest edge-free vertex set found, and the
        # least size shown to hold an edge in every set (see ``_free_at_most``)
        self._free = (0, h.n + 1)

    def _chrom_ok(self, survivors: int) -> bool:
        if self.k == 2:
            # 1-colorable means edgeless: no survivor's clash mask meets the set
            clash = self._clash
            m = survivors
            while m:
                low = m & -m
                m ^= low
                if clash[low.bit_length() - 1] & survivors:
                    return False
            return True
        cached = self._chrom.get(survivors)
        if cached is None:
            edges = tuple(e for i, e in enumerate(self.h.edges) if (survivors >> i) & 1)
            cached = chromatic_at_most(kneser_graph(Hypergraph(self.h.n, edges)), self.k - 1)
            self._chrom[survivors] = cached
        return cached

    def _free_at_most(self, size: int) -> bool:
        """Whether every vertex set of size + 1 holds an edge: F_1 <= size.

        The first question grows a maximal edge-free set greedily.  Past
        its size, a depth-first search adds vertices in increasing order,
        and returns at its first edge-free set of size + 1, grown greedily
        to a maximal one.  The largest set found and the least size refuted
        are kept, so a later question is searched only past both.
        """
        found, refuted = self._free
        if size < found or size + 1 >= refuted:
            return size + 1 >= refuted
        n, inc, target = self.h.n, self.h.incidence, size + 1
        # once[i], twice[i]: index bits of the edges holding at least one,
        # and at least two, vertices >= i
        once = [0] * (n + 1)
        twice = [0] * (n + 1)
        for v in range(n - 1, -1, -1):
            twice[v] = twice[v + 1] | once[v + 1] & inc[v]
            once[v] = once[v + 1] | inc[v]
        if not found:
            # v joins unless an edge holding it has no vertex left out and
            # none above v
            out = 0
            for v in range(n):
                if inc[v] & ~(out | once[v + 1]):
                    out |= inc[v]
                else:
                    found += 1
            self._free = (found, refuted)
            if size < found:
                return False

        def grow(i: int, count: int, out: int) -> int:
            # the set has ``count`` vertices below i; ``out`` holds the edges
            # of the vertices below i left out.  A vertex j >= i may join
            # only if each edge holding it has a vertex left out or a second
            # one >= i, or the set and j would hold that edge; how many may
            # join bounds how far the set can grow.
            keep = out | twice[i]
            may = [j for j in range(i, n) if inc[j] & keep == inc[j]]
            if count + len(may) < target:
                return 0
            if not may:
                return count
            skip, u = out, i
            for t, j in enumerate(may):
                if count + len(may) - t < target:
                    return 0
                while u < j:
                    skip |= inc[u]
                    u += 1
                reached = grow(j + 1, count + 1, skip)
                if reached:
                    return reached
            return 0

        reached = grow(0, 0, 0)
        grow = None  # see ``_walk``
        self._free = (reached, refuted) if reached else (found, target)
        return not reached

    def _refuted(self, perm: tuple[int, ...], threshold: int) -> bytes | None:
        """The signs, slot by slot under ``perm``, of the newest remembered
        word that reaches alt >= threshold, or None if none does.  A sign
        is ``R`` or ``B``, and a 0 slot is a zero byte.  ``run`` needs only
        the truth value; ``lower_bound`` repairs ``perm`` from the word."""
        key = bytes(perm)
        for table, zeros in self._words:
            signs = key.translate(table, zeros)
            # alt is the number of runs of equal signs; no word is empty
            if signs.count(b"RB") + signs.count(b"BR") + 1 >= threshold:
                return key.translate(table)
        return None

    def _remember(self, perm: tuple[int, ...], reds: int, blues: int) -> None:
        """Keep the word with R slots ``reds`` and B slots ``blues`` under
        ``perm``, by vertex, in front of the others."""
        if not reds | blues:
            return  # the empty word reaches no positive threshold
        table = bytearray(256)
        zeros = bytearray()
        for j, v in enumerate(perm):
            if reds >> j & 1:
                table[v] = 82  # R
            elif blues >> j & 1:
                table[v] = 66  # B
            else:
                zeros.append(v)
        self._words.insert(0, (bytes(table), bytes(zeros)))
        del self._words[REMEMBERED_WORDS:]

    def run(self, perm: tuple[int, ...], threshold: int | None = None) -> tuple[int, SignVector] | None:
        """Maximum alt over feasible words under the ordering ``perm`` with
        one witness, or None when ``threshold`` is set and the maximum
        reaches it.

        A remembered word may answer None before any walk (see the class
        docstring); otherwise ``_walk`` decides, and the word it ended on is
        remembered.
        """
        n = self.h.n
        if threshold is not None and self._refuted(perm, threshold):
            return None
        limit = n + 1 if threshold is None else threshold
        alt, reds, blues = self._walk(perm, limit)
        self._remember(perm, reds, blues)
        return None if alt >= limit else (alt, SignVector(n, reds, blues))

    def _walk(self, perm: tuple[int, ...], limit: int) -> tuple[int, int, int]:
        """(alt, R slots, B slots) of the word the walk under ``perm`` ends
        on: the first feasible word found with alt >= ``limit``, or else
        the witness of the maximum.

        Only strictly alternating words are searched.  That loses nothing:
        the entries of a longest alternating subsequence of any optimal word
        form a word with the same alt, and it is feasible because
        feasibility is downward closed.  So the walk gives each slot, in
        order, either 0 or the sign opposite to the last nonzero one, and
        alt is the number of nonzero slots.  The first nonzero sign is R:
        swapping the two colors everywhere preserves both alt and
        feasibility, so the mirror image is never better.  A branch dies as
        soon as its partial word is infeasible or its alt ceiling (current
        alt plus unassigned slots) cannot beat the best found.

        The walk makes two passes.  The first tries the sign before 0 at
        every slot, so it meets high-alt words early: it stops as soon as
        some feasible word reaches alt >= ``limit`` (the minimization uses
        this to discard orderings that cannot improve on the current
        minimum), and otherwise it ends with the exact maximum A.  The
        second pass tries 0 first, which visits words in lexicographic
        order with 0 before a sign, and stops at the first word of alt A;
        its ceiling cuts at A - 1 only drop subtrees without such a word.
        So the witness is the lexicographically least optimal word, and it
        does not depend on ``limit``.

        Giving slot ``depth`` the side the next nonzero slot joins makes
        newly monochromatic exactly the edges that hold its vertex v and
        no vertex off that side.  The vertices off it are those of earlier
        slots on the other side or at 0, whose edges ``onxt`` holds, and
        those of later slots, whose edges ``later[depth + 1]`` holds.  So
        the new edges are ``h.incidence[v - 1] & ~(onxt | later[depth + 1])``:
        one test of edge-index masks at every node, for every k.

        At k = 1 a branch also dies when its side ceiling cannot beat the
        best found.  A word is feasible there when no edge lies inside one
        side, so a later slot j can join a side only if no edge has j's
        vertex as its one vertex outside that side.  The vertices of the
        slots in between are unknown, so the test counts only the edges
        that hold no other vertex of a slot >= ``depth`` (``two[depth]``
        holds the others): j may join a side only if each edge holding
        its vertex is in ``two[depth]`` or in that side's ``o`` mask
        (``onxt`` for the next sign's side, ``oprev`` for the other).
        Every feasible completion gives its nonzero later slots, in order,
        sides that alternate from the next sign's side, each one a side it
        may join.  The longest such run is found greedily, slot by slot,
        so alt cannot exceed cur plus that run.  The test stops as soon as
        the run beats best or can no longer do so.  It runs only where
        cur < best: at cur = best it rarely cuts, and testing there too
        made the k = 1 walks of the seed-7 ``verify`` benchmark pass about
        40% slower.  It cuts only subtrees without a word above best, so
        both passes meet the same improvements, the same threshold stop
        and the same witness, and the word remembered does not change.  At
        k = 2 the same test with a clash scan per slot cut few nodes
        (7,257 to 7,009 per seed-7 ``chromatic`` pass) and made the walk
        slower, so it is not used there.

        At k = 1 the first pass also stops at best = 2 F_1, where F_1 is the
        size of the largest edge-free vertex set.  Each side of a feasible
        word is edge-free, so a word of alt a has ceil(a/2) <= F_1 slots on
        R.  At an even best b, when ``_free_at_most(b/2)`` finds no
        edge-free set of b/2 + 1 vertices, no word beats b: the pass ends
        as at ``limit``, with the maximum it would have ended with, so the
        second pass, the witness and the word remembered do not change.  At
        k = 2 the same bound is loose: on KG(m,r), alt = 2r - 1, while any
        2r - 1 vertices form a feasible one-sided word.
        """
        n = self.h.n
        best = -1
        best_sides = (0, 0)
        zero_first = False
        k = self.k
        slot_inc = [self.h.incidence[v - 1] for v in perm]
        # later[d]: index bits of the edges holding the vertex of some slot >= d
        later = [0] * (n + 1)
        for d in range(n - 1, -1, -1):
            later[d] = later[d + 1] | slot_inc[d]
        # two[d]: those holding the vertices of two or more such slots, built
        # at the first side-ceiling test (most short walks make none)
        two = None
        # the k = 1 stop asks nothing below best = 2 * (largest edge-free set
        # found); at k > 1 it never asks
        ask = 2 * self._free[0] if k == 1 else n + 1

        # ``onxt``/``oprev``: index bits of the edges holding a given vertex
        # off the side the next nonzero slot joins, and off the other side;
        # ``wnxt``/``wprev``: the slots of those two sides.
        def walk(depth: int, onxt: int, oprev: int, wnxt: int, wprev: int, cur: int, surv: int) -> None:
            nonlocal best, best_sides, two, stop, ask
            if cur > best:
                best = cur
                # the first nonzero slot is R, so ``prev`` is R when cur is odd
                best_sides = (wprev, wnxt) if cur % 2 else (wnxt, wprev)
                if best >= stop:
                    return
                if best >= ask and not best % 2:
                    if self._free_at_most(best // 2):
                        stop = best  # no word beats 2 F_1 (see above)
                        return
                    ask = 2 * self._free[0]
            if depth == n or cur + (n - depth) <= best:
                return
            if k == 1 and cur < best:
                # the side ceiling (see above): ``allowed`` holds the edges a
                # slot may hold to join the side the run joins next;
                # ``need`` counts the slots the run still needs to beat
                # best, and ``spare`` the slots it may still pass over
                if two is None:
                    two = [0] * (n + 1)
                    for d in range(n - 1, -1, -1):
                        two[d] = two[d + 1] | later[d + 1] & slot_inc[d]
                allowed, other = onxt | two[depth], oprev | two[depth]
                need = best - cur + 1
                spare = n - depth - need
                for inc in slot_inc[depth:]:
                    if inc & allowed == inc:
                        need -= 1
                        if not need:
                            break
                        allowed, other = other, allowed
                    elif spare:
                        spare -= 1
                    else:
                        return
            at = slot_inc[depth]
            if zero_first:
                walk(depth + 1, onxt | at, oprev | at, wnxt, wprev, cur, surv)
                if best >= stop:
                    return
            # ``fresh``: index bits of the edges this sign makes monochromatic
            fresh = at & ~(onxt | later[depth + 1])
            if not fresh or k > 1 and self._chrom_ok(surv | fresh):
                walk(depth + 1, oprev | at, onxt, wprev, wnxt | (1 << depth), cur + 1, surv | fresh)
            if not zero_first and best < stop:
                walk(depth + 1, onxt | at, oprev | at, wnxt, wprev, cur, surv)

        stop = limit
        walk(0, 0, 0, 0, 0, 0, 0)
        if best < limit:
            best, stop, zero_first = best - 1, best, True
            walk(0, 0, 0, 0, 0, 0, 0)
        # ``walk`` refers to itself; dropping that reference lets reference
        # counting free it here instead of leaving a cycle for the collector
        walk = None
        return (best, *best_sides)


def alt_sigma(h: Hypergraph, order: LinearOrder, k: int) -> AltReport:
    """Exact maximum alt over feasible sign words for one fixed ordering."""
    if order.n != h.n:
        raise ValueError("ordering length differs from vertex count")
    search = _AltSearch(h, k)
    outcome = search.run(order.perm)
    assert outcome is not None
    return AltReport(outcome[0], outcome[1], order, k, "single")


def lower_bound(h: Hypergraph, *, clique: int, target: int) -> tuple[int, int, tuple[int, ...] | None]:
    """(bound, k, perm): a lower bound on chi, the level k that proves it
    and the ordering it holds at, so that for k >= 1 ``bound ==
    alt_sigma(h, LinearOrder(perm), k).bound``.

    The rungs: ``clique``, the size of a clique of the Kneser graph, as
    k = 0 with perm None; the identity at k = 1, then at k = 2 when H has
    an edge (so that chi >= 1); then, if the identity's bound is at least
    ``clique``, at most n repairs (``_repairs``) and then the
    ``SEED_ORDERINGS`` shuffles at k = 1, so the bound is never below what
    the shuffles alone give.  Only a strict raise replaces the proof.  The
    ladder stops once the bound reaches ``target``, say an upper bound on
    chi; a higher target changes no bound.  On KG(m,r) the k = 1 identity
    bound is chi, on SG(m,r) the k = 2 one.
    """
    n = h.n
    best, level, proof = clique, 0, None
    if best >= target:
        return best, level, proof
    perm = tuple(range(1, n + 1))
    search = _AltSearch(h, 1)
    alt1 = search.run(perm)[0]
    identity, k = n - alt1, 1
    # alt at k = 2 is at least alt1, so k = 2 raises the bound only where they are equal
    if identity < target and h.edges and _AltSearch(h, 2).run(perm, threshold=alt1 + 1) is not None:
        identity, k = identity + 1, 2
    if identity > best:
        best, level, proof = identity, k, perm
    elif identity < clique:
        return best, level, proof  # the clique binds, not the orderings
    tried = {perm}
    for _ in range(n):
        # the word that beat ``perm``: the identity's witness, or the
        # word the last run ended on or was refuted by
        signs = best < target and search._refuted(perm, n - best)
        perm = signs and next((p for p in _repairs(perm, signs) if p not in tried), None)
        if not perm:
            break
        tried.add(perm)
        outcome = search.run(perm, threshold=n - best)
        if outcome is not None:
            best, level, proof = n - outcome[0], 1, perm
    for shuffled in _seed_orderings(n):
        if best >= target:
            break
        outcome = search.run(shuffled, threshold=n - best)
        if outcome is not None:
            best, level, proof = n - outcome[0], 1, shuffled
    return best, level, proof


def _repairs(perm: tuple[int, ...], signs: bytes):
    """The orderings that gather one side of the word ``signs`` (slot by
    slot under ``perm``) into one block, the other vertices kept in order:
    the larger side first, its block at the side's first slot and then at
    its last."""
    for side in sorted(b"RB", key=signs.count, reverse=True):
        block = tuple(v for v, s in zip(perm, signs) if s == side)
        if block:
            rest = tuple(v for v, s in zip(perm, signs) if s != side)
            for at in (signs.index(side), signs.rindex(side) + 1 - len(block)):
                yield rest[:at] + block + rest[at:]


def _twin_classes(h: Hypergraph) -> list[tuple[int, ...]]:
    """The twin classes of H, singletons included, each in increasing
    order, ordered by least member.

    u and v are twins when swapping them maps E(H) onto itself.  Twinship
    is an equivalence relation, since (u w) = (u v)(v w)(u v), so each
    class is found by testing its least member against the larger
    vertices of no class yet.  Isolated vertices form one class.  Twins
    lie in equally many edges, so only such pairs are tested.
    """
    edges = set(h.edges)
    degree = [0, *(m.bit_count() for m in h.incidence)]
    classes = []
    placed = set()
    for u in range(1, h.n + 1):
        if u in placed:
            continue
        c = [u]
        for v in range(u + 1, h.n + 1):
            if v in placed or degree[v] != degree[u]:
                continue
            both = (1 << (u - 1)) | (1 << (v - 1))
            # the swap fixes the edges holding both or neither of u, v
            if all(e ^ both in edges for e in edges if 0 < e & both < both):
                c.append(v)
                placed.add(v)
        classes.append(tuple(c))
    return classes


def _class_automorphisms(h: Hypergraph, classes: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The automorphisms of H, other than the identity, that map each twin
    class onto a twin class in increasing order; g[v] is the image of
    vertex v, and g[0] is 0.  ``classes`` is ``_twin_classes(h)``.

    An automorphism g maps twin classes onto twin classes, since
    g (u v) g^-1 = (g(u) g(v)).  So the swaps within classes generate a
    normal subgroup T of Aut(H), and each coset of T holds exactly one
    automorphism that keeps every class in increasing order: these are
    the coset representatives.  Each is fixed by where it sends each
    class, so the search backtracks over class-to-class maps, class by
    class in order of least member.

    The co-degree of two vertices is the number of edges holding both; a
    vertex's co-degree with itself is its degree.  Each class gets a key
    that every automorphism keeps: its size and the multiset of its
    members' co-degrees.  A class is offered only classes of its key
    whose members have, with the images of the vertices mapped so far,
    the co-degrees its own members have with those vertices; and each
    edge is checked as soon as all of its vertices are mapped.  On most
    inputs the keys alone leave every class only itself, and the search
    ends before it starts.
    """
    n = h.n
    inc = (0, *h.incidence)
    meet = [[(a & b).bit_count() for b in inc] for a in inc]
    keys = [(len(c), *sorted(meet[c[0]])) for c in classes]
    if len(set(keys)) == len(classes):
        return ()
    # offers[i]: the lead bits of the classes that classes[i] may map onto
    offers = [sum(1 << c[0] for c, other in zip(classes, keys) if other == key) for key in keys]
    index = {v: i for i, c in enumerate(classes) for v in c}
    # due[i]: the vertices of each edge whose last class is classes[i]
    due = [[] for _ in classes]
    for e in h.edges:
        verts = vertices_of(e)
        due[max(index[v] for v in verts)].append(verts)
    # fits[y][m]: the vertex bits of the w with co-degree m with y
    fits = [{} for _ in inc]
    for y, row in enumerate(fits):
        for w in range(1, n + 1):
            row[meet[w][y]] = row.get(meet[w][y], 0) | 1 << w
    edges = set(h.edges)
    image = list(range(n + 1))
    identity = tuple(image)
    mapped: list[int] = []
    found = []

    def extend(i: int, free: int) -> None:
        # ``free``: the lead bits of the classes that are no image yet
        if i == len(classes):
            if tuple(image) != identity:
                found.append(tuple(image))
            return
        members = classes[i]
        # allowed[t]: the vertex bits that member t may map to
        allowed = []
        for u in members:
            bits = -1
            for x in mapped:
                bits &= fits[image[x]].get(meet[u][x], 0)
            allowed.append(bits)
        leads = offers[i] & free & allowed[0]
        while leads:
            low = leads & -leads
            leads ^= low
            target = classes[index[low.bit_length() - 1]]
            if not all(bits >> w & 1 for bits, w in zip(allowed, target)):
                continue
            for u, w in zip(members, target):
                image[u] = w
            if all(sum(1 << (image[v] - 1) for v in verts) in edges for verts in due[i]):
                mapped.extend(members)
                extend(i + 1, free ^ low)
                del mapped[-len(members) :]

    extend(0, sum(1 << c[0] for c in classes))
    # ``extend`` refers to itself; see ``_AltSearch._walk``
    extend = None
    return tuple(found)


def _ordering_stream(
    n: int, classes: list[tuple[int, ...]], automorphisms: tuple[tuple[int, ...], ...] = ()
):
    """Lexicographic scan of orderings that holds the least ordering of
    every orbit of Aut(H) x reversal, and some others.

    An automorphism g of H maps an ordering sigma to g o sigma (slot j
    holds g(sigma[j])), which sees the same slot hypergraph up to the
    numbering of its edges.  Reversal reverses every sign word without
    changing its alternation count or its survivor sets.  So the
    orderings of one orbit all have the same alt and witness word.  The
    least ordering of every orbit is generated; an ordering is dropped
    only when one of its orbit comes before it:

    - Only orderings listing each of the twin ``classes`` (see
      ``_twin_classes``) in increasing order are generated: that is the
      least way to fill the positions of a class.
    - ``automorphisms`` are the other coset representatives of the twin
      swaps (see ``_class_automorphisms``).  Each g keeps every class in
      increasing order, so g o sigma is twin-sorted too, and sigma is
      dropped when g o sigma < sigma.  With the twin swaps this covers all
      of Aut(H).  While slots are filled left to right, g stays live as
      long as it fixes every placed vertex; a live g that maps the next
      vertex lower drops the prefix, and one that maps it higher dies.
    - An ordering is dropped when it ends lower than it starts, since its
      reverse comes first, and when some g makes the twin-sorted
      g o reverse(sigma) start lower.  Both depend only on the first and
      the last vertex, so each such pair is looked up once.  A reverse
      image that starts at the same vertex is not compared further, so
      the stream also holds some orderings that are not the least of
      their orbit.

    Each slot is offered, in increasing order, every unplaced vertex that
    is the least unplaced member of its class and that no live g maps
    lower.  Once no g is live and no class has two unplaced members, every
    order of the rest is allowed, so the walk hands the tail over in one
    block, ``permutations`` of the remaining vertices, which keeps the
    stream in lexicographic order.  Without twins or automorphisms the
    block starts at the first slot, and the stream is the plain
    reversal-filtered permutation scan.
    """
    # ``before[v]``: the bit of v's predecessor in its class; ``lead[v]``:
    # the least member of v's class, where a twin-sorted ordering that
    # starts at v starts; ``heads``: the bits of the vertices with a successor
    before = [0] * (n + 1)
    lead = [0] * (n + 1)
    heads = 0
    for c in classes:
        for u, v in zip(c, c[1:]):
            before[v] = 1 << u
            heads |= 1 << u
        for v in c:
            lead[v] = c[0]
    rows: dict[int, list[bool]] = {}

    def ends(f):
        # entry u: whether to keep the orderings from f to u; one row per
        # first vertex, built when first asked for
        row = rows.get(f)
        if row is None:
            row = rows[f] = [u > f and all(lead[g[u]] >= f for g in automorphisms) for u in range(n + 1)]
        return row

    def blocks(prefix, rest, bits, live):
        # (prefix, tails), in lexicographic order of prefix + tail.
        # ``bits``: the vertex bits of ``rest``; ``live``: the automorphisms
        # that fix every vertex of ``prefix``.  Classes are placed in
        # increasing order, so a class has two members in ``rest`` exactly
        # when a vertex of ``heads`` is in ``rest``.
        if not live and not heads & bits:
            yield prefix, permutations(rest)
            return
        for i, v in enumerate(rest):
            if before[v] & bits:
                continue
            kept = []
            for g in live:
                if g[v] < v:
                    break
                if g[v] == v:
                    kept.append(g)
            else:
                yield from blocks(prefix + (v,), rest[:i] + rest[i + 1 :], bits ^ (1 << v), kept)

    try:
        for prefix, tails in blocks((), tuple(range(1, n + 1)), (2 << n) - 2, automorphisms):
            if not prefix:
                for p in tails:
                    # p[0] == p[-1] only when n = 1, whose one ordering is kept
                    if p[0] <= p[-1]:
                        yield p
                continue
            last = ends(prefix[0])
            for tail in tails:
                if last[tail[-1]]:
                    yield prefix + tail
    finally:
        # ``blocks`` refers to itself; dropping it here, also when the scan
        # stops early and drops the stream, lets reference counting free it
        # (see ``_AltSearch._walk``)
        blocks = None


def _sampled_orderings(n: int, samples: int, seed: int):
    """The identity, then ``samples`` seeded shuffles, drawn one at a time
    so that an early stop draws no more of them."""
    yield tuple(range(1, n + 1))
    rng = random.Random(seed)
    for _ in range(samples):
        p = list(range(1, n + 1))
        rng.shuffle(p)
        yield tuple(p)


@functools.cache
def _seed_orderings(n: int) -> tuple[tuple[int, ...], ...]:
    """The ``SEED_ORDERINGS`` shuffles of ``lower_bound``, drawn once per n:
    ``_sampled_orderings(n, SEED_ORDERINGS, 0)`` without the identity."""
    return tuple(islice(_sampled_orderings(n, SEED_ORDERINGS, 0), 1, None))


def alt_min(
    h: Hypergraph, k: int, *, samples: int | None = None, seed: int = 0, theorem_floor: bool = False
) -> AltReport:
    """Minimum of the per-ordering maxima, exhaustive or sampled.

    Exhaustive mode (n at most ``FACTORIAL_CAP``; a larger n is refused
    before any search, even where every word is feasible) scans the
    orderings of ``_ordering_stream`` and reports the first one attaining
    the minimum: the lexicographically first minimiser over all n! orderings.
    The stream holds the least ordering of every orbit under Aut(H) and
    reversal, and some others (see ``_ordering_stream``).  Every ordering
    of an orbit has the same alt and witness, so the orbit of the first
    minimiser holds only minimisers, and it is the least of them; so it
    is generated, every ordering scanned before it has a larger alt, and
    the reduction changes no report.  The identity, the least ordering of
    all, is scanned first.  The half floor (below) is computed only when
    the scan would go on past it, and H is searched for twins and
    automorphisms only when the scan goes on past both floors.

    Sampled mode scans the identity plus ``samples`` seeded random
    orderings and is flagged as such: the result can overshoot the true
    minimum but every scanned ordering already certifies its own
    chromatic bound, so the report stays sound.

    A scan stops at the larger of two floors, below which no ordering's
    alt can go.  Once the best ordering sits at a floor, no later one can
    be strictly lower, and only a strictly lower one replaces it, so the
    stop changes no report.

    - With ``theorem_floor``, the theorem's floor n + k - 1 - U in either
      mode, where U is one DSATUR count of KG(H), made only when the scan
      would go on past the identity and the half floor.  When some word is
      infeasible, KG(H) is not (k-1)-colorable, so chi >= k and the theorem
      gives alt >= n + k - 1 - chi >= n + k - 1 - U for every ordering.
      Otherwise every ordering has alt n, and the identity's report is the
      one a full scan gives, wherever the scan stops.  ``verify_theorem``
      leaves it off: this floor assumes the theorem it checks.
    - The half floor: the largest size s of a vertex set S whose edges
      of at most ceil(s/2) vertices form a feasible survivor set.  Under
      any ordering the word that alternates along S has alt s and puts
      ceil(s/2) vertices of S on R and floor(s/2) on B.  Each of its
      survivors lies inside one side, so it is one of those edges, and
      the word is feasible by downward closure.  At k <= 2 this is the
      largest S whose balanced splits are all feasible.  It is at least
      the size of the largest feasible one-sided word (R = S, B = 0).
      This floor assumes no theorem and no coloring, so ``verify_theorem``
      may stop at it and its check stays independent.  It is found by
      ``_half_floor``.  A scanned ordering whose alt falls below it
      contradicts that argument, so it raises ``AssertionError`` rather
      than replace the best.  Its search over vertex sets is exponential
      in n, so a sampled scan asks only whether S may be the whole vertex
      set, and only when the identity's alt is n and k <= 2: whether the
      edges of at most ceil(n/2) vertices are none (k = 1) or pairwise
      intersect (k = 2).  At k >= 3 that question is a coloring, never
      asked.
    """
    n = h.n
    _check_scan(n, samples)
    search = _AltSearch(h, k)
    mode = "exhaustive" if samples is None else "sampled"

    identity = tuple(range(1, n + 1))
    best = (*search.run(identity), identity)
    if samples is None:
        half = _half_floor(search, 0, best[0])
    else:  # its first size alone: no search at k = 1, one clash scan at k = 2
        half = _half_floor(search, n - 1, n) if best[0] == n and k <= 2 else 0
    stop = half
    if best[0] > stop and theorem_floor:
        stop = max(stop, n + k - 1 - greedy_color_count(kneser_graph(h)))
    if best[0] > stop:
        if samples is None:
            classes = _twin_classes(h)
            orderings = _ordering_stream(n, classes, _class_automorphisms(h, classes))
        else:
            orderings = _sampled_orderings(n, samples, seed)
        for perm in islice(orderings, 1, None):
            outcome = search.run(perm, threshold=best[0])
            if outcome is not None:
                if outcome[0] < half:
                    raise AssertionError(f"alt {outcome[0]} under {perm} is below the half floor {half}")
                best = (*outcome, perm)
                if best[0] <= stop:
                    break
    return AltReport(best[0], best[1], LinearOrder(best[2]), k, mode)


def _check_scan(n: int, samples: int | None) -> None:
    """Raise ``ValueError`` for a scan that ``alt_min`` refuses on n
    vertices: a sample count below 1, or an exhaustive scan past
    ``FACTORIAL_CAP``.  It needs no search, so callers run it first."""
    if samples is None:
        if n > FACTORIAL_CAP:
            raise ValueError(
                f"exhaustive ordering scan refused for n={n} > cap {FACTORIAL_CAP}; use sampled mode"
            )
    elif samples < 1:
        raise ValueError(f"sample count must be positive, got {samples}")


def _half_floor(search: _AltSearch, low: int, high: int) -> int:
    """The largest size s in low + 1..high of a vertex set S whose edges of
    at most ceil(s/2) vertices form a feasible survivor set, or 0 if there
    is none; sizes are tried largest first.  The edges inside S are those
    holding no vertex outside it."""
    h = search.h
    for size in range(high, low, -1):
        half = (size + 1) // 2
        small = sum(1 << i for i, e in enumerate(h.edges) if e.bit_count() <= half)
        for outside in combinations(h.incidence, h.n - size):
            inside = small & ~functools.reduce(or_, outside, 0)
            if not inside or search.k > 1 and search._chrom_ok(inside):
                return size
    return 0


def verify_theorem(h: Hypergraph, k: int, *, samples: int | None = None, seed: int = 0) -> TheoremCheck:
    """Compare the altermatic bound with the exact chromatic number.

    ``holds`` must come out True on every input; a False outcome means an
    implementation bug, reproducible from the ordering and witness word of
    the record's ``report``.  A scan that ``alt_min`` refuses is refused
    before chi is computed; levels beyond chi + 1 are rejected once chi is
    known.
    """
    if k < 1:
        raise ValueError(f"level k must be positive, got {k}")
    _check_scan(h.n, samples)
    chi = chromatic_number(kneser_graph(h)).number
    if k > chi + 1:
        raise ValueError(f"level k={k} exceeds chi+1 = {chi + 1}")
    report = alt_min(h, k, samples=samples, seed=seed)
    return TheoremCheck(
        bound=report.bound, chi=chi, holds=chi >= report.bound, tight=chi == report.bound, report=report
    )
