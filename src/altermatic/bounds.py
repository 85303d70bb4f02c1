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
from itertools import islice, permutations

from .core import Hypergraph, LinearOrder, SignVector
from .coloring import ChromaticResult, Coloring, chromatic_at_most, chromatic_number
from .kneser import kneser_graph

# Largest n for which exhaustive ordering scans are allowed: 8! = 40,320
# orderings before twin reduction.
FACTORIAL_CAP = 8
# Seeded shuffles ``seed_bound`` tries after the identity ordering.
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
    (possibly weaker) chromatic bound.  A minimization given a ceiling on
    chi stops scanning at the theorem's floor (see ``alt_min``); the
    report is the one the full scan gives.
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
    coloring: Coloring


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
    recur across branches and across orderings.

    The search also remembers the last ``REMEMBERED_WORDS`` feasible words
    its walks ended on, by vertex rather than by slot, most recently useful
    first.  Which edges survive a word depends only on which vertices are
    R and which are B, never on the ordering, so a remembered word is
    feasible under every ordering.  When one of them reaches alt >=
    threshold under the ordering of a threshold run, the maximum does too,
    and the run returns None without a walk, exactly as the walk would.
    Every returned result still comes from a full walk.

    A search built with ``remember=False`` keeps no words.  Sampled
    ``alt_min`` builds it so: under a random ordering a word seldom reaches
    the threshold, and the runs it does refute are those whose walk stops
    early anyway, so checking and storing cost more than they save.
    """

    def __init__(self, h: Hypergraph, k: int, *, remember: bool = True):
        if k < 1:
            raise ValueError(f"level k must be positive, got {k}")
        self.h = h
        self.k = k
        # k >= 3: feasibility by survivor set, decided by a coloring
        self._chrom: dict[int, bool] = {}
        # True when even the all-surviving edge set fits the budget, in
        # which case every sign word is feasible and alt = n outright; at
        # k = 2 that is when H is an intersecting family.
        if k == 1:
            self.all_feasible = not h.edges
        elif k == 2:
            self._clash = h.kneser_rows
            self.all_feasible = not any(self._clash)
        else:
            full = (1 << len(h.edges)) - 1
            self.all_feasible = self._chrom[full] = chromatic_at_most(kneser_graph(h), k - 1)
        # Remembered words as ``bytes.translate`` arguments: a table taking
        # each vertex id to b"R" or b"B", and the ids of its 0 vertices
        # (ids are at most ``core.DEFAULT_VERTEX_CAP`` = 63, so one byte).
        self._words: list[tuple[bytes, bytes]] | None = [] if remember else None

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

    def alternating_word(self) -> SignVector:
        n = self.h.n
        return SignVector(
            n,
            sum(1 << p for p in range(0, n, 2)),
            sum(1 << p for p in range(1, n, 2)),
        )

    def _refuted(self, perm: tuple[int, ...], threshold: int) -> bool:
        """Whether a remembered word reaches alt >= threshold under ``perm``;
        the word that does moves to the front."""
        key = bytes(perm)
        words = self._words
        for word in words:
            signs = key.translate(*word)
            # alt is the number of runs of equal signs; no word is empty
            if signs.count(b"RB") + signs.count(b"BR") + 1 >= threshold:
                if word is not words[0]:
                    words.remove(word)
                    words.insert(0, word)
                return True
        return False

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
        if self.all_feasible:
            return None if threshold is not None and n >= threshold else (n, self.alternating_word())
        remembering = self._words is not None
        if remembering and threshold is not None and self._refuted(perm, threshold):
            return None
        limit = n + 1 if threshold is None else threshold
        alt, reds, blues = self._walk(perm, limit)
        if remembering:
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

        # ``onxt``/``oprev``: index bits of the edges holding a given vertex
        # off the side the next nonzero slot joins, and off the other side;
        # ``wnxt``/``wprev``: the slots of those two sides.
        def walk(depth: int, onxt: int, oprev: int, wnxt: int, wprev: int, cur: int, surv: int) -> None:
            nonlocal best, best_sides
            if cur > best:
                best = cur
                # the first nonzero slot is R, so ``prev`` is R when cur is odd
                best_sides = (wprev, wnxt) if cur % 2 else (wnxt, wprev)
                if best >= limit:
                    return
            if depth == n or cur + (n - depth) <= best:
                return
            at = slot_inc[depth]
            if zero_first:
                walk(depth + 1, onxt | at, oprev | at, wnxt, wprev, cur, surv)
                if best >= limit:
                    return
            # ``fresh``: index bits of the edges this sign makes monochromatic
            fresh = at & ~(onxt | later[depth + 1])
            if not fresh or k > 1 and self._chrom_ok(surv | fresh):
                walk(depth + 1, oprev | at, onxt, wprev, wnxt | (1 << depth), cur + 1, surv | fresh)
            if not zero_first and best < limit:
                walk(depth + 1, onxt | at, oprev | at, wnxt, wprev, cur, surv)

        walk(0, 0, 0, 0, 0, 0, 0)
        if best < limit:
            best, limit, zero_first = best - 1, best, True
            walk(0, 0, 0, 0, 0, 0, 0)
        return (best, *best_sides)


def alt_sigma(h: Hypergraph, order: LinearOrder, k: int) -> AltReport:
    """Exact maximum alt over feasible sign words for one fixed ordering."""
    if order.n != h.n:
        raise ValueError("ordering length differs from vertex count")
    search = _AltSearch(h, k)
    outcome = search.run(order.perm)
    assert outcome is not None
    return AltReport(outcome[0], outcome[1], order, k, "single")


def seed_bound(h: Hypergraph, *, clique: int, ceiling: int) -> tuple[int, int, tuple[int, ...]]:
    """(bound, k, perm): an altermatic lower bound on chi, the level k that
    gives it and the ordering ``perm`` that proves it, so that ``bound ==
    alt_sigma(h, LinearOrder(perm), k).bound``.

    It starts from the larger bound of the identity ordering at k = 1 and
    k = 2.  Both levels are valid when ``h`` has an edge, since then chi >=
    1 and k <= 2 <= chi + 1; without edges the bound is 0 at k = 1.  alt at
    k = 2 is at least alt at k = 1, so the k = 2 bound is larger only when
    the two are equal, and the k = 2 search stops at its first word beyond
    alt1.  On KG(m,r) the k = 1 bound equals chi; on SG(m,r) only the k = 2
    one does (Schrijver 1978).

    Then, when that bound is at least ``clique`` (the size of a clique of
    the Kneser graph, so that the altermatic bound is the binding lower
    bound), it tries the ``SEED_ORDERINGS`` seeded shuffles of
    ``_seed_orderings`` at k = 1, keeping each ordering that raises the
    bound.  Each search stops at its first word that reaches the bound
    already held, and a word remembered from an earlier shuffle settles
    most of them before any walk.  The scan ends once the bound reaches
    ``ceiling``, an upper bound on chi such as
    ``coloring.greedy_color_count``, which no ordering can pass.
    """
    n = h.n
    perm = tuple(range(1, n + 1))
    search = _AltSearch(h, 1)
    alt1 = search.run(perm)[0]
    if h.edges and _AltSearch(h, 2).run(perm, threshold=alt1 + 1) is not None:
        best, level = n - alt1 + 1, 2
    else:
        best, level = n - alt1, 1
    proof = perm
    if best >= clique:
        for shuffled in _seed_orderings(n):
            if best >= ceiling:
                break
            outcome = search.run(shuffled, threshold=n - best)
            if outcome is not None:
                best, level, proof = n - outcome[0], 1, shuffled
    return best, level, proof


def _twin_pairs(h: Hypergraph) -> tuple[tuple[int, int], ...]:
    """Pairs (u, v) of twins, v the next larger member of u's twin class.

    u and v are twins when swapping them maps E(H) onto itself.  Twinship
    is an equivalence relation, since (u w) = (u v)(v w)(u v), so each
    class is found by testing its least member against the larger
    unplaced vertices; the class of u then reads as the chain of pairs
    starting at u.  Isolated vertices form one class.
    """
    edges = set(h.edges)
    pairs = []
    placed = set()
    for u in range(1, h.n + 1):
        if u in placed:
            continue
        last = u
        for v in range(u + 1, h.n + 1):
            both = (1 << (u - 1)) | (1 << (v - 1))
            # the swap fixes the edges holding both or neither of u, v
            if v not in placed and all(e ^ both in edges for e in edges if 0 < e & both < both):
                pairs.append((last, v))
                last = v
                placed.add(v)
    return tuple(pairs)


def _ordering_stream(n: int, twins: tuple[tuple[int, int], ...]):
    """Lexicographic scan of orderings, one representative per reversal
    pair and per arrangement of twin classes.

    Reversing an ordering reverses every sign word without changing its
    alternation count or its survivor sets, so an ordering and its reverse
    always agree; the lexicographically smaller one stands for both.

    For each pair (u, v) of ``twins`` (see ``_twin_pairs``) only orderings
    listing u before v are generated, so each twin class appears in
    increasing order.  Swapping two twins maps E(H) onto itself, so
    orderings that differ by such swaps see the same slot hypergraph, up
    to the numbering of its edges: their searches take the same branches
    and return the same alt and witness word.

    Slots are filled left to right.  Each slot is offered, in increasing
    order, every unplaced vertex that is the least unplaced member of its
    class.  Once no class has two unplaced members, every order of the
    rest is allowed, so the tail is ``permutations`` of the remaining
    vertices, which keeps the stream in lexicographic order.  Without
    twins that happens at the first slot, and the stream is the plain
    reversal-filtered permutation scan.
    """
    before = {v: u for u, v in twins}
    heads = {u for u, _ in twins}

    def prefixes(prefix, rest, open_pairs):
        # ``open_pairs``: pairs (u, v) of ``twins`` with u still in ``rest``
        if not open_pairs:
            yield prefix, rest
            return
        for i, v in enumerate(rest):
            if before.get(v) not in rest:
                yield from prefixes(prefix + (v,), rest[:i] + rest[i + 1 :], open_pairs - (v in heads))

    for prefix, rest in prefixes((), tuple(range(1, n + 1)), len(twins)):
        if prefix:
            first = prefix[0]
            for tail in permutations(rest):
                if first < tail[-1]:
                    yield prefix + tail
        else:
            for p in permutations(rest):
                # p[0] == p[-1] only when n = 1, whose one ordering is kept
                if p[0] <= p[-1]:
                    yield p


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
    """The ``SEED_ORDERINGS`` shuffles of ``seed_bound``, drawn once per n:
    ``_sampled_orderings(n, SEED_ORDERINGS, 0)`` without the identity."""
    return tuple(islice(_sampled_orderings(n, SEED_ORDERINGS, 0), 1, None))


def alt_min(
    h: Hypergraph, k: int, *, samples: int | None = None, seed: int = 0, ceiling: int | None = None
) -> AltReport:
    """Minimum of the per-ordering maxima, exhaustive or sampled.

    Exhaustive mode (n at most ``FACTORIAL_CAP``) scans the orderings
    of ``_ordering_stream`` and reports the first one attaining the
    minimum: the lexicographically first minimiser over all n! orderings.
    An ordering is never generated when its reverse, or an ordering
    obtained by sorting twin vertices (``_twin_pairs``) within their
    positions, comes earlier; either has the same alt and witness, and
    the first minimiser is generated, because sorting the values within
    fixed positions is lexicographically smallest and a minimiser's
    reverse is a minimiser too.  So twin reduction changes no report.

    Sampled mode scans the identity plus ``samples`` seeded random
    orderings and is flagged as such: the result can overshoot the true
    minimum but every scanned ordering already certifies its own
    chromatic bound, so the report stays sound.

    Either scan stops at the floor max(0, n + k - 1 - ``ceiling``).  It
    only runs when some word is infeasible, that is when KG(H) is not
    (k-1)-colorable, so chi >= k and the theorem gives
    chi >= n - alt + k - 1 for every ordering: no ordering has alt below
    n + k - 1 - chi.  Once the best ordering sits at the floor, no later
    one can be strictly lower, and only a strictly lower one replaces it,
    so the stop changes no report.  ``ceiling`` must be a proven upper bound on chi, such as
    ``coloring.greedy_color_count`` of ``kneser_graph(h)``; never pass a
    bound derived from the altermatic bound itself.  Without it the floor
    is 0, where alt cannot go lower anyway.
    """
    n = h.n
    search = _AltSearch(h, k, remember=samples is None)
    mode = "exhaustive" if samples is None else "sampled"

    if search.all_feasible:
        return AltReport(n, search.alternating_word(), LinearOrder.identity(n), k, mode)

    if samples is None:
        if n > FACTORIAL_CAP:
            raise ValueError(
                f"exhaustive ordering scan refused for n={n} > cap {FACTORIAL_CAP}; use sampled mode"
            )
        orderings = _ordering_stream(n, _twin_pairs(h))
    else:
        if samples < 1:
            raise ValueError(f"sample count must be positive, got {samples}")
        orderings = _sampled_orderings(n, samples, seed)

    floor = 0 if ceiling is None else max(0, n + k - 1 - ceiling)
    best: tuple[int, SignVector, tuple[int, ...]] | None = None
    for perm in orderings:
        outcome = search.run(perm, threshold=None if best is None else best[0])
        if outcome is not None:
            best = (outcome[0], outcome[1], perm)
            if best[0] <= floor:
                break
    assert best is not None
    return AltReport(best[0], best[1], LinearOrder(best[2]), k, mode)


def verify_theorem(h: Hypergraph, k: int, *, samples: int | None = None, seed: int = 0) -> TheoremCheck:
    """Compare the altermatic bound with the exact chromatic number.

    ``holds`` must come out True on every input; a False outcome means an
    implementation bug, reproducible from the ordering and witness word of
    the record's ``report``.  Levels beyond chi + 1 are rejected once chi
    is known.
    """
    if k < 1:
        raise ValueError(f"level k must be positive, got {k}")
    chi: ChromaticResult = chromatic_number(kneser_graph(h))
    if k > chi.number + 1:
        raise ValueError(f"level k={k} exceeds chi+1 = {chi.number + 1}")
    report = alt_min(h, k, samples=samples, seed=seed)
    holds = chi.number >= report.bound
    tight = chi.number == report.bound
    return TheoremCheck(
        bound=report.bound,
        chi=chi.number,
        holds=holds,
        tight=tight,
        report=report,
        coloring=chi.coloring,
    )
