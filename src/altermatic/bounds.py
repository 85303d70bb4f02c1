"""Altermatic lower bounds on the chromatic number of a Kneser graph.

For an ordering sigma and level k, the search maximizes alt(X) over sign
words X whose surviving sub-hypergraph (edges inside one color class of X)
has a Kneser graph colorable with k-1 colors; for k = 1 the requirement is
that no edge survives at all.  The quantity n - alt + k - 1 is then a lower
bound on the chromatic number of the full Kneser graph, for every sigma;
minimizing alt over orderings gives the strongest form.

Determining the per-ordering maximum is NP-hard in general, so both the
per-ordering search and the minimization are exact exponential procedures
guarded by size caps.  Each search owns its mutable state; shared inputs
are immutable, so independent searches may run concurrently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations

from .core import Hypergraph, LinearOrder, SignVector, _env_int, restrict
from .coloring import ChromaticResult, Coloring, chromatic_at_most, chromatic_number
from .kneser import disjointness_graph, kneser_graph

DEFAULT_FACTORIAL_CAP = 8


def factorial_cap() -> int:
    """Largest n for which exhaustive ordering scans are allowed
    (ALTERMATIC_FACTORIAL_CAP, default 8)."""
    return _env_int("ALTERMATIC_FACTORIAL_CAP", DEFAULT_FACTORIAL_CAP)


@dataclass(frozen=True)
class AltReport:
    """Outcome of an alternation search.

    ``witness`` is a sign word in ordering slots: slot j of the word refers
    to vertex ``sigma.perm[j]``, so ``apply_order(witness, sigma)`` labels
    actual vertices.  ``sigma_mode`` is "single" for a fixed-ordering
    search, "exhaustive" or "sampled" for minimization; a sampled minimum
    is an upper bound on the true minimum, hence still yields a valid
    (possibly weaker) chromatic bound.
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


def feasible(h: Hypergraph, x: SignVector, order: LinearOrder, k: int) -> bool:
    """Whether x's surviving sub-hypergraph is within the k-level budget.

    k = 1 asks for an empty surviving edge set; k >= 2 asks the Kneser
    graph of the survivors to be (k-1)-colorable.  Downward closed: any
    sub-sign-vector of a feasible one is feasible.
    """
    if k < 1:
        raise ValueError(f"level k must be positive, got {k}")
    sub = restrict(h, x, order)
    if k == 1:
        return not sub.edges
    return chromatic_at_most(kneser_graph(sub), k - 1)


class _AltSearch:
    """Shared machinery for the per-ordering searches of one (H, k) pair.

    Chromatic feasibility is memoized on the surviving edge-index set, as
    a bit mask over edge indices; that set is what the restriction boils
    down to, and the same sets recur across branches and across orderings.
    """

    def __init__(self, h: Hypergraph, k: int):
        if k < 1:
            raise ValueError(f"level k must be positive, got {k}")
        self.h = h
        self.k = k
        # by_vertex[v] lists (index bit, edge mask) for the edges containing v.
        self.by_vertex: list[list[tuple[int, int]]] = [[] for _ in range(h.n + 1)]
        for idx, e in enumerate(h.edges):
            m = e
            while m:
                low = m & -m
                m ^= low
                self.by_vertex[low.bit_length()].append((1 << idx, e))
        self._chrom: dict[int, bool] = {}

    def full_feasible(self) -> bool:
        """True when even the all-surviving edge set fits the budget,
        in which case every sign word is feasible and alt = n outright."""
        if self.k == 1:
            return not self.h.edges
        return self._chrom_ok((1 << len(self.h.edges)) - 1)

    def _chrom_ok(self, survivors: int) -> bool:
        cached = self._chrom.get(survivors)
        if cached is None:
            edges = [e for i, e in enumerate(self.h.edges) if (survivors >> i) & 1]
            cached = chromatic_at_most(disjointness_graph(edges), self.k - 1)
            self._chrom[survivors] = cached
        return cached

    def alternating_word(self) -> SignVector:
        n = self.h.n
        return SignVector(
            n,
            sum(1 << p for p in range(0, n, 2)),
            sum(1 << p for p in range(1, n, 2)),
        )

    def run(self, order: LinearOrder, threshold: int | None = None) -> tuple[int, SignVector] | None:
        """Maximum alt over feasible words under ``order`` with one witness.

        Depth-first over slots in order, branching 0, R, B; a branch dies
        as soon as its partial word is infeasible (feasibility is downward
        closed) or its alt ceiling (current alt plus unassigned slots)
        cannot beat the best found.  The first branch to leave the all-zero
        prefix only tries R: swapping the two colors everywhere preserves
        both alt and feasibility, so the mirror image is never better.

        With ``threshold`` set, returns None as soon as some feasible word
        reaches alt >= threshold; used by the minimization to discard
        orderings that cannot improve on the current minimum.
        """
        n = self.h.n
        if self.full_feasible():
            if threshold is not None and n >= threshold:
                return None
            return n, self.alternating_word()

        best = -1
        best_word = SignVector(n)
        aborted = False
        k = self.k
        by_vertex = self.by_vertex
        perm = order.perm

        def walk(depth: int, reds: int, blues: int, wr: int, wb: int, cur: int, last: int, surv: int) -> None:
            nonlocal best, best_word, aborted
            if cur > best:
                best = cur
                best_word = SignVector(n, wr, wb)
                if threshold is not None and best >= threshold:
                    aborted = True
                    return
            if depth == n or cur + (n - depth) <= best:
                return
            slot = 1 << depth
            v = perm[depth]
            walk(depth + 1, reds, blues, wr, wb, cur, last, surv)
            if aborted:
                return
            for sign in (1, -1):
                if sign == -1 and last == 0 and cur == 0:
                    continue  # mirror cut: all-zero prefix opens with R only
                side = (reds if sign == 1 else blues) | (1 << (v - 1))
                fresh = 0
                dead = False
                for bit, e in by_vertex[v]:
                    if e & ~side == 0:
                        if k == 1:
                            dead = True
                            break
                        fresh |= bit
                if dead or (fresh and not self._chrom_ok(surv | fresh)):
                    continue
                nr, nb = (side, blues) if sign == 1 else (reds, side)
                nwr, nwb = (wr | slot, wb) if sign == 1 else (wr, wb | slot)
                walk(depth + 1, nr, nb, nwr, nwb, cur + (1 if sign != last else 0), sign, surv | fresh)
                if aborted:
                    return

        walk(0, 0, 0, 0, 0, 0, 0, 0)
        if aborted:
            return None
        return best, best_word


def alt_sigma(h: Hypergraph, order: LinearOrder, k: int) -> AltReport:
    """Exact maximum alt over feasible sign words for one fixed ordering."""
    if order.n != h.n:
        raise ValueError("ordering length differs from vertex count")
    search = _AltSearch(h, k)
    outcome = search.run(order)
    assert outcome is not None
    return AltReport(outcome[0], outcome[1], order, k, "single")


def _ordering_stream(n: int):
    """Lexicographic scan of orderings, one representative per reversal pair.

    Reversing an ordering reverses every sign word without changing its
    alternation count or its survivor sets, so an ordering and its reverse
    always agree; the lexicographically smaller one stands for both.
    """
    for perm in permutations(range(1, n + 1)):
        if n == 1 or perm[0] < perm[-1]:
            yield perm


def alt_min(h: Hypergraph, k: int, *, samples: int | None = None, seed: int = 0) -> AltReport:
    """Minimum of the per-ordering maxima, exhaustive or sampled.

    Exhaustive mode scans every ordering (n bounded by the factorial cap)
    and reports the first ordering attaining the minimum in the scan order
    of ``_ordering_stream``.  Sampled mode scans the identity plus
    ``samples`` seeded random orderings and is flagged as such: the result
    can overshoot the true minimum but every scanned ordering already
    certifies its own chromatic bound, so the report stays sound.
    """
    n = h.n
    search = _AltSearch(h, k)
    mode = "exhaustive" if samples is None else "sampled"

    if search.full_feasible():
        return AltReport(n, search.alternating_word(), LinearOrder.identity(n), k, mode)

    if samples is None:
        cap = factorial_cap()
        if n > cap:
            raise ValueError(f"exhaustive ordering scan refused for n={n} > cap {cap}; use sampled mode")
        orderings = (LinearOrder(p) for p in _ordering_stream(n))
    else:
        if samples < 1:
            raise ValueError(f"sample count must be positive, got {samples}")
        rng = random.Random(seed)
        pool = [LinearOrder.identity(n)]
        for _ in range(samples):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            pool.append(LinearOrder(tuple(p)))
        orderings = iter(pool)

    best: tuple[int, SignVector, LinearOrder] | None = None
    for order in orderings:
        outcome = search.run(order, threshold=None if best is None else best[0])
        if outcome is not None:
            best = (outcome[0], outcome[1], order)
            if best[0] == 0:
                break
    assert best is not None
    return AltReport(best[0], best[1], best[2], k, mode)


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
