"""Signed levels, permissible chains, neighbor rules, and the audit walk."""

import importlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from altermatic import (
    AuditAnomaly,
    AuditContext,
    Coloring,
    Hypergraph,
    LinearOrder,
    ProperWithinBound,
    SearchLimitError,
    SignVector,
    Witness,
    alt,
    alt_sigma,
    audit,
    chromatic_number,
    complete_uniform,
    is_proper,
    kneser_graph,
    mask_of,
    neighbors,
    random_hypergraph,
    schrijver_hypergraph,
    verify_witness,
)
from altermatic.reference import enumerate_audit_graph
from helpers import all_sign_vectors, random_sign_vector, sub_vectors

AUDIT = importlib.import_module("altermatic.audit")  # the package's ``audit`` is the function
PAIRS4 = complete_uniform(4, 2)
ONES4 = Coloring((1,) * 6, 1)


def optimal_coloring(h):
    return chromatic_number(kneser_graph(h)).coloring


def ctx_for(h, coloring, k=1, order=None):
    return AuditContext(h, coloring, k, order)


def enclosed_peak(mask, h, c):
    """Largest color on a hyperedge inside the vertex mask; 0 if none."""
    return max((col for e, col in zip(h.edges, c.assignment) if e & ~mask == 0), default=0)


def enclosed_peak_edge(mask, h, c):
    """(enclosed_peak, lowest index of an edge inside the mask with that
    color), or (0, None) when the mask encloses no edge."""
    peak = enclosed_peak(mask, h, c)
    inside = (i for i, (e, col) in enumerate(zip(h.edges, c.assignment)) if e & ~mask == 0 and col == peak)
    return peak, next(inside, None)


def test_enclosed_peak_examples():
    h = Hypergraph.from_edge_sets(3, [[1, 2], [3]])
    c = Coloring((2, 1), 2)
    ctx = ctx_for(h, c)
    for mask, peak in ((0, 0), (mask_of([1, 2]), 2), (mask_of([3]), 1)):
        assert enclosed_peak(mask, h, c) == peak
        assert ctx._peak_of(mask)[0] == peak


def test_level_of_empty_pair_is_plus_one():
    ctx = ctx_for(PAIRS4, ONES4)
    lv = ctx.level(0, 0)
    assert lv == 1


def test_level_low_band_example():
    # alt ceiling 2 for the pairs-of-four family at k=1
    ctx = ctx_for(PAIRS4, optimal_coloring(PAIRS4))
    assert ctx.alt_value == 2
    x = SignVector.from_sets(4, reds=[2])
    assert ctx.level(x.reds, x.blues) == 2


def test_level_sign_follows_earliest_position():
    ctx = ctx_for(PAIRS4, optimal_coloring(PAIRS4))
    minus = ctx.level(0, mask_of([1]))
    assert minus == -2
    plus = ctx.level(mask_of([1]), mask_of([2]))
    assert plus == 3


def test_level_tie_yields_witness():
    # {1,3} and {2,4} share color 1; the pair with those sides must trip
    c = Coloring((2, 1, 3, 4, 1, 5), 5)
    ctx = ctx_for(PAIRS4, c)
    w = ctx.level(mask_of([1, 3]), mask_of([2, 4]))
    assert isinstance(w, Witness)
    assert (w.edge_a, w.edge_b, w.color) == (1, 4, 1)
    assert verify_witness(w, PAIRS4, c)
    assert w.context == SignVector.from_sets(4, reds=[1, 3], blues=[2, 4])


def test_level_magnitude_formula():
    h = complete_uniform(5, 2)
    c = optimal_coloring(h)
    ctx = ctx_for(h, c)
    for x in all_sign_vectors(5):
        lv = ctx.level(x.reds, x.blues)
        assert isinstance(lv, int)
        if alt(x) <= ctx.alt_value:
            assert abs(lv) == alt(x) + 1
        else:
            peak = max(
                enclosed_peak(ctx.vertex_mask(x.reds), h, c),
                enclosed_peak(ctx.vertex_mask(x.blues), h, c),
            )
            assert abs(lv) == ctx.alt_value + peak - 1 + 2


def test_level_can_exceed_n_beyond_regime():
    # optimal palettes always exceed the audited regime, so high-band
    # levels may leave the signed range 1..n: an X whose side encloses a
    # color-2 edge with a vertex gap reaches magnitude alt_I + 2 + 1 = 5
    c = optimal_coloring(PAIRS4)
    ctx = ctx_for(PAIRS4, c)
    peak = 0
    for x in all_sign_vectors(4):
        lv = ctx.level(x.reds, x.blues)
        assert isinstance(lv, int)
        peak = max(peak, abs(lv))
    assert peak == 5 > 4


@pytest.mark.parametrize("seed", range(6))
def test_level_invariants_proper_colorings(seed):
    h = random_hypergraph(5, 7, (1, 3), 700 + seed)
    c = optimal_coloring(h)
    ctx = ctx_for(h, c)
    levels = {}
    for x in all_sign_vectors(5):
        lv = ctx.level(x.reds, x.blues)
        assert isinstance(lv, int)  # proper colorings never tie
        levels[(x.reds, x.blues)] = lv
        if alt(x) > ctx.alt_value:
            assert abs(lv) >= ctx.alt_value + 2  # level jump
    for y in all_sign_vectors(5):
        ly = levels[(y.reds, y.blues)]
        for x in sub_vectors(y):
            lx = levels[(x.reds, x.blues)]
            assert abs(lx) <= abs(ly)  # monotone magnitude
            assert lx + ly != 0  # no antipodal nesting


@pytest.mark.parametrize("seed", range(12))
def test_no_antipodal_nesting_under_any_coloring(seed):
    # neighbors has no rule for levels v and -v on nested pairs because
    # they cannot occur; check that below, at and above the regime palette,
    # and that swapping the sides of a nonempty pair negates its level (or
    # ties both ways), which lets neighbors mirror a chain without levelling
    import math

    rng = random.Random(60_000 + seed)
    n = rng.randint(3, 6)
    hi = min(3, n)
    avail = sum(math.comb(n, s) for s in range(1, hi + 1))
    h = random_hypergraph(n, rng.randint(n, min(14, avail)), (1, hi), seed=61_000 + seed)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    order = LinearOrder(tuple(perm))
    high_pairs = 0
    for k in (1, 2):
        regime = n - alt_sigma(h, order, k).alt_value + k - 2
        for palette in sorted({max(1, regime + d) for d in (-1, 0, 1, 3)}):
            c = Coloring(tuple(rng.randint(1, palette) for _ in h.edges), palette)
            ctx = ctx_for(h, c, k, order)
            levels = {(x.reds, x.blues): ctx.level(x.reds, x.blues) for x in all_sign_vectors(n)}
            for (reds, blues), lv in levels.items():
                if reds | blues:
                    back = levels[(blues, reds)]
                    if isinstance(lv, Witness):
                        assert isinstance(back, Witness), (k, palette, reds, blues)
                    else:
                        assert back == -lv, (k, palette, reds, blues)
            for y in all_sign_vectors(n):
                ly = levels[(y.reds, y.blues)]
                if isinstance(ly, Witness):
                    continue
                for x in sub_vectors(y):
                    lx = levels[(x.reds, x.blues)]
                    if isinstance(lx, Witness):
                        continue
                    assert lx + ly != 0, (k, palette, x, y)
                    high_pairs += abs(lx) >= ctx.alt_value + 2
    assert high_pairs > 0  # the high band is reached, not only the low one


def test_empty_chain_has_unique_neighbor():
    ctx = ctx_for(PAIRS4, optimal_coloring(PAIRS4))
    assert neighbors((), ctx) == [(1,)]


def test_singleton_chain_neighbors():
    # levels 1, 2: the missing level 2 appends, and dropping the last step
    # recovers the empty chain, mirroring the base case
    ctx = ctx_for(PAIRS4, optimal_coloring(PAIRS4))
    assert neighbors((1,), ctx) == [(1, 2), ()]


def test_neighbors_refuses_malformed_chains():
    # a step of 0, a position beyond n on either side, a position twice
    ctx = ctx_for(PAIRS4, optimal_coloring(PAIRS4))
    for steps in ((0,), (5,), (-5,), (1, -1), (2, 3, 2)):
        with pytest.raises(ValueError):
            neighbors(steps, ctx)
    # also after a level tie: the sides {1, 3} and {2, 4} both enclose a
    # color-1 edge
    ones = ctx_for(PAIRS4, ONES4)
    assert isinstance(neighbors((1, -2, 3, -4), ones), Witness)
    with pytest.raises(ValueError):
        neighbors((1, -2, 3, -4, 1), ones)


def test_neighbors_raises_on_a_chain_that_is_not_permissible():
    # levels 1, 2 leave step 3 unheld: a rule failure, not a tie
    ctx = ctx_for(PAIRS4, optimal_coloring(PAIRS4))
    with pytest.raises(AuditAnomaly) as caught:
        neighbors((3,), ctx)
    assert str(caught.value) == "chain (3,) is not permissible (levels [1, 2])"


def test_mirror_levels_no_pair(monkeypatch):
    # swapping the sides of every pair negates each level, so the call that
    # answers a mirrored chain levels nothing, and answers as a fresh
    # context does
    h = complete_uniform(5, 2)
    c = Coloring((1,) * len(h.edges), 1)
    ctx = ctx_for(h, c)
    calls = []
    level = AuditContext.level

    def counted_level(self, reds, blues):
        calls.append((reds, blues))
        return level(self, reds, blues)

    monkeypatch.setattr(AuditContext, "level", counted_level)
    mirrors = 0
    prev, cur = None, ()
    while True:
        calls.clear()
        outcome = neighbors(cur, ctx)
        if cur and prev == tuple(-s for s in cur):
            assert calls == [], cur
            assert outcome == neighbors(cur, ctx_for(h, c)), cur
            mirrors += 1
        if isinstance(outcome, Witness):
            break
        prev, cur = cur, [q for q in outcome if q != prev][0]
    assert mirrors == 1


def neighbor_census(h, coloring, k=1):
    # neighbors checks only the chain it is given, so every produced chain
    # is checked here in turn: it lists its producer, or its tie
    # certifies the coloring improper
    stats = enumerate_audit_graph(h, coloring, k)
    ctx = ctx_for(h, coloring, k)
    for seq, ns in stats.neighbor_map.items():
        for q in ns:
            back = neighbors(q, ctx)
            if isinstance(back, Witness):
                assert verify_witness(back, h, coloring), (seq, q)
            else:
                assert seq in back, (seq, q)
    return stats


@pytest.mark.parametrize(
    "h,colorize",
    [
        (PAIRS4, "proper"),
        (PAIRS4, "ones"),
        (complete_uniform(3, 1), "proper"),
        (random_hypergraph(4, 5, (1, 3), 3), "proper"),
        (random_hypergraph(4, 5, (1, 3), 3), "ones"),
        (random_hypergraph(4, 4, (1, 2), 8), "proper"),
    ],
)
def test_neighbor_symmetry_exhaustive(h, colorize):
    c = optimal_coloring(h) if colorize == "proper" else Coloring((1,) * len(h.edges), 1)
    stats = neighbor_census(h, c)
    assert stats.neighbor_map[()] == ((1,),)


def test_neighbor_symmetry_level_two():
    h = random_hypergraph(4, 6, (1, 3), 12)
    neighbor_census(h, optimal_coloring(h), k=2)


def test_violations_carry_verified_witnesses():
    stats = enumerate_audit_graph(PAIRS4, ONES4, 1)
    assert stats.violations
    for seq, violation in stats.violations:
        assert isinstance(violation, Witness)
        assert verify_witness(violation, PAIRS4, ONES4)


def test_audit_graph_empty_edge_set():
    h = Hypergraph(3, ())
    stats = enumerate_audit_graph(h, Coloring((), 0), 1)
    assert not stats.violations
    assert stats.degree_histogram[1] >= 1
    assert len(stats.neighbor_map[()]) == 1


def test_audit_graph_size_cap():
    with pytest.raises(SearchLimitError):
        enumerate_audit_graph(complete_uniform(6, 2), optimal_coloring(complete_uniform(6, 2)), 1, size_cap=10)


def test_audit_one_color_pairs_of_four():
    w = audit(PAIRS4, ONES4, 1)
    assert isinstance(w, Witness)
    assert verify_witness(w, PAIRS4, ONES4)
    # complementary pair, found deterministically
    assert (w.edge_a, w.edge_b, w.color) == (2, 3, 1)
    assert PAIRS4.edges[w.edge_a] & PAIRS4.edges[w.edge_b] == 0
    assert audit(PAIRS4, ONES4, 1) == w


def test_audit_capped_min_coloring():
    h = complete_uniform(6, 2)
    values = [min(min(vs), 3) for vs in h.edge_sets()]
    c = Coloring(tuple(values), 3)
    w = audit(h, c, 1)
    assert isinstance(w, Witness)
    assert verify_witness(w, h, c)
    assert w.color == 3  # colors 1 and 2 are stars, only color 3 has disjoint pairs


def test_audit_proper_coloring_terminates():
    h = complete_uniform(5, 2)
    c = optimal_coloring(h)
    out = audit(h, c, 1)
    assert isinstance(out, ProperWithinBound)
    assert out.steps > 0


def test_audit_beyond_regime_improper_still_witnesses():
    # palette above the audited regime: the walk may terminate, but the
    # final properness scan still surfaces a clash
    rng = random.Random(61)
    h = complete_uniform(5, 2)
    for _ in range(10):
        values = tuple(rng.randint(1, 4) for _ in h.edges)
        c = Coloring(values, 4)
        out = audit(h, c, 1)
        if is_proper(kneser_graph(h), c):
            assert isinstance(out, ProperWithinBound)
        else:
            assert isinstance(out, Witness)
            assert verify_witness(out, h, c)


def test_audit_level_two_within_regime():
    # alt ceiling 3 at k=2, so the regime allows 3 colors; every such
    # coloring of the 15 pairs must clash
    h = complete_uniform(6, 2)
    assert alt_sigma(h, LinearOrder.identity(6), 2).alt_value == 3
    rng = random.Random(67)
    for _ in range(15):
        c = Coloring(tuple(rng.randint(1, 3) for _ in h.edges), 3)
        w = audit(h, c, 2)
        assert isinstance(w, Witness)
        assert verify_witness(w, h, c)


def test_audit_level_two_degenerate_palette():
    # one color at k=2 keeps the enclosed maxima below the level jump;
    # the witness then comes from a survivor scan instead of side peaks
    h = complete_uniform(6, 2)
    ones = Coloring((1,) * 15, 1)
    w = audit(h, ones, 2)
    assert isinstance(w, Witness)
    assert verify_witness(w, h, ones)
    # {1, 3} and {2, 4}: the first disjoint pair among the survivors
    assert (w.edge_a, w.edge_b, w.color, w.context.word()) == (1, 6, 1, "RBRB00")


def brute_survivor_clash(h, c, order, reds, blues):
    """(a, b) of the lowest-index disjoint same-colored pair of edges lying
    inside the red or the blue vertices of a slot pair, or None."""
    red_vs = {order.perm[p] for p in range(h.n) if reds >> p & 1}
    blue_vs = {order.perm[p] for p in range(h.n) if blues >> p & 1}
    sets = [set(e) for e in h.edge_sets()]
    survivors = [i for i, e in enumerate(sets) if e <= red_vs or e <= blue_vs]
    for s, a in enumerate(survivors):
        for b in survivors[s + 1:]:
            if not sets[a] & sets[b] and c.assignment[a] == c.assignment[b]:
                return a, b
    return None


def test_survivor_clash_matches_brute_force():
    rng = random.Random(71)
    found = missed = 0
    for trial in range(150):
        n = rng.randint(2, 7)
        hi = min(3, n)
        avail = sum(math.comb(n, s) for s in range(1, hi + 1))
        h = random_hypergraph(n, rng.randint(2, min(14, avail)), (1, hi), seed=72_000 + trial)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        order = LinearOrder(tuple(perm))
        k = rng.choice((2, 3))
        palette = rng.randint(1, k - 1)
        c = Coloring(tuple(rng.randint(1, palette) for _ in h.edges), palette)
        ctx = AuditContext(h, c, k, order)
        for _ in range(5):
            x = random_sign_vector(rng, n)
            expected = brute_survivor_clash(h, c, order, x.reds, x.blues)
            if expected is None:
                with pytest.raises(AuditAnomaly, match="no monochromatic disjoint pair"):
                    ctx._monochromatic_survivors(x.reds, x.blues)
                missed += 1
            else:
                w = ctx._monochromatic_survivors(x.reds, x.blues)
                a, b = expected
                assert w == Witness(a, b, c.assignment[a], x), (trial, x)
                found += 1
    assert found > 100 and missed > 100


def test_audit_random_instances_random_orderings():
    import math

    audits = 0
    for trial in range(60):
        rng = random.Random(50_000 + trial)
        n = rng.randint(2, 7)
        hi = min(3, n)
        avail = sum(math.comb(n, s) for s in range(1, hi + 1))
        h = random_hypergraph(n, rng.randint(1, min(12, avail)), (1, hi), seed=51_000 + trial)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        order = LinearOrder(tuple(perm))
        for k in (1, 2):
            ceiling = alt_sigma(h, order, k).alt_value
            palette = n - ceiling + k - 2
            if palette < 1:
                continue  # no coloring fits the regime
            c = Coloring(tuple(rng.randint(1, palette) for _ in h.edges), palette)
            w = audit(h, c, k, order)
            assert isinstance(w, Witness), (trial, k)
            assert verify_witness(w, h, c), (trial, k)
            audits += 1
    assert audits > 30


@pytest.mark.parametrize("m, r", [(8, 2), (9, 3)])
def test_walk_chains_and_peaks_on_regime_colorings(m, r):
    # every chain neighbors produces holds distinct positions within
    # +-1..n, and _peak_of, which stops at the first edge of a presorted
    # list, agrees with the plain definition along whole walks
    h = complete_uniform(m, r)
    palette = m - (2 * r - 2) - 1  # n - alt - 1 at k = 1, alt = 2r - 2
    ties = 0
    for seed in range(4):
        rng = random.Random(seed)
        c = Coloring(tuple(rng.randint(1, palette) for _ in h.edges), palette)
        ctx = ctx_for(h, c)
        prev, cur = None, ()
        while True:
            outcome = neighbors(cur, ctx)
            if isinstance(outcome, Witness):
                break
            for q in outcome:
                assert all(0 < abs(s) <= h.n for s in q) and len({abs(s) for s in q}) == len(q), q
            onward = [q for q in outcome if q != prev]
            assert onward, "a regime coloring walk ends in a violation"
            prev, cur = cur, onward[0]
        assert outcome == audit(h, c, 1)
        for reds, blues in ctx._level:
            for side in (reds, blues):
                mask = ctx.vertex_mask(side)
                peak = enclosed_peak_edge(mask, h, c)
                assert ctx._peak_of(side) == peak
                ties += sum(e & ~mask == 0 and col == peak[0] for e, col in zip(h.edges, c.assignment)) > 1
    assert ties > 0


def fresh_walk(h, c, k, order=None):
    """The audit walk with every chain answered on a fresh context: the
    list of (chain, answer) it visits, the last one ending the walk."""
    visits, prev, cur = [], None, ()
    while True:
        outcome = neighbors(cur, AuditContext(h, c, k, order))
        visits.append((cur, outcome))
        if isinstance(outcome, Witness):
            return visits
        onward = [q for q in outcome if q != prev]
        if not onward:
            return visits
        prev, cur = cur, onward[0]


def least_element(h, cap):
    return Coloring(tuple(min(min(vs), cap) for vs in h.edge_sets()), cap)


def walk_cases(family):
    """(h, k, order, coloring): a seeded regime coloring and a proper one
    at k = 1 and 2, under the identity or (random inputs) a seeded ordering."""
    if family == "random":
        rng = random.Random(83)
        inputs = []
        for trial in range(6):
            n = rng.randint(4, 7)
            h = random_hypergraph(n, rng.randint(4, 12), (1, 3), seed=84_000 + trial)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            inputs.append((h, LinearOrder(tuple(perm)), optimal_coloring(h)))
    else:
        h = {"KG(8,2)": complete_uniform(8, 2), "KG(9,3)": complete_uniform(9, 3),
             "SG(8,2)": schrijver_hypergraph(8, 2)}[family]
        r = max(len(vs) for vs in h.edge_sets())
        inputs = [(h, None, least_element(h, h.n - 2 * r + 2))]
        rng = random.Random(85)
    for h, order, proper in inputs:
        for k in (1, 2):
            palette = h.n - alt_sigma(h, order or LinearOrder.identity(h.n), k).alt_value + k - 2
            if palette >= 1:
                yield h, k, order, Coloring(tuple(rng.randint(1, palette) for _ in h.edges), palette)
            yield h, k, order, proper


@pytest.mark.parametrize("family", ["KG(8,2)", "KG(9,3)", "SG(8,2)", "random"])
def test_walk_matches_fresh_context_answers(monkeypatch, family):
    # neighbors levels a chain from the chain that produced it; a walk
    # answering every chain on a fresh context visits the same chains, gets
    # the same answers and ends with the same outcome
    real = AUDIT.neighbors
    calls = []

    def recorded(steps, ctx):
        outcome = real(steps, ctx)
        calls.append((steps, outcome))
        return outcome

    monkeypatch.setattr(AUDIT, "neighbors", recorded)
    kinds = set()
    for h, k, order, c in walk_cases(family):
        calls.clear()
        out = audit(h, c, k, order)
        visits = fresh_walk(h, c, k, order)
        assert calls == visits, (k, c)
        last = visits[-1][1]
        if isinstance(last, Witness):
            assert out == last
        else:
            assert out == ProperWithinBound(len(visits) - 1)
        kinds.add(type(out))
    assert kinds == {Witness, ProperWithinBound}


def test_walk_levels_about_one_pair_per_step(monkeypatch):
    # a walk step changes at most one prefix pair, so it levels at most
    # one new pair (a mirror aside); levelling every prefix took about 6
    h = complete_uniform(12, 3)
    rng = random.Random(3)
    c = Coloring(tuple(rng.randint(1, 7) for _ in h.edges), 7)  # n - alt - 1 at k = 1
    counts = {"level": 0, "neighbors": 0}
    level, real = AuditContext.level, AUDIT.neighbors

    def counted_level(self, reds, blues):
        counts["level"] += 1
        return level(self, reds, blues)

    def counted_neighbors(steps, ctx):
        counts["neighbors"] += 1
        return real(steps, ctx)

    monkeypatch.setattr(AuditContext, "level", counted_level)
    monkeypatch.setattr(AUDIT, "neighbors", counted_neighbors)
    assert isinstance(audit(h, c, 1), Witness)
    steps = counts["neighbors"] - 1
    assert steps > 20
    assert counts["level"] <= 1.5 * steps


def test_neighbors_refuses_malformed_chains_after_a_walk():
    h = complete_uniform(8, 2)
    c = least_element(h, 6)
    ctx = ctx_for(h, c)
    prev, cur = None, ()
    for _ in range(8):
        produced = neighbors(cur, ctx)
        prev, cur = cur, [q for q in produced if q != prev][0]
    assert len(cur) > 2
    for steps in ((0,), (9,), (-9,), (1, -1), (2, 3, 2), cur + (cur[0],), cur + (-cur[-1],), cur[:-1] + (9,)):
        with pytest.raises(ValueError):
            neighbors(steps, ctx)
    fresh = ctx_for(h, c)
    assert neighbors(cur, ctx) == neighbors(cur, fresh)


@pytest.mark.parametrize("k", [1, 2])
def test_produced_chains_answer_in_either_order(k):
    h = complete_uniform(8, 2)
    rng = random.Random(87)
    palette = 8 - alt_sigma(h, LinearOrder.identity(8), k).alt_value + k - 2
    pairs = 0
    for c in (least_element(h, 6), Coloring(tuple(rng.randint(1, palette) for _ in h.edges), palette)):
        for chain, outcome in fresh_walk(h, c, k):
            if isinstance(outcome, Witness) or len(outcome) < 2:
                continue
            answers = [neighbors(q, ctx_for(h, c, k)) for q in outcome]
            for order in ((0, 1), (1, 0)):
                ctx = ctx_for(h, c, k)
                assert neighbors(chain, ctx) == outcome
                for i in order:
                    assert neighbors(outcome[i], ctx) == answers[i], (chain, order)
            pairs += 1
    assert pairs > 10


def test_audit_respects_sigma():
    h = complete_uniform(5, 2)
    order = LinearOrder((3, 5, 1, 2, 4))
    w = audit(h, Coloring((1, 2) * 5, 2), 1, order)
    assert isinstance(w, Witness)
    assert verify_witness(w, h, Coloring((1, 2) * 5, 2))


def test_audit_step_cap():
    with pytest.raises(SearchLimitError):
        audit(complete_uniform(5, 2), optimal_coloring(complete_uniform(5, 2)), 1, step_cap=2)


def test_audit_step_cap_bounds_every_outcome_by_moves():
    # A walk of s moves finishes with step_cap = s and raises with s - 1,
    # whether it ends at a witness or proper.
    h = complete_uniform(6, 2)
    stars = Coloring(tuple(min(min(vs), 3) for vs in h.edge_sets()), 3)
    assert isinstance(audit(h, stars, 1, step_cap=19), Witness)
    with pytest.raises(SearchLimitError, match="step cap 18"):
        audit(h, stars, 1, step_cap=18)
    h = complete_uniform(5, 2)
    assert audit(h, optimal_coloring(h), 1, step_cap=9) == ProperWithinBound(9)
    with pytest.raises(SearchLimitError, match="step cap 8"):
        audit(h, optimal_coloring(h), 1, step_cap=8)


def test_audit_rejects_step_cap_before_searching(monkeypatch):
    def no_search(*args):
        raise AssertionError("alt_sigma ran before the step cap was checked")

    monkeypatch.setattr("altermatic.bounds.alt_sigma", no_search)
    with pytest.raises(ValueError, match="step cap must be positive"):
        audit(complete_uniform(5, 2), optimal_coloring(complete_uniform(5, 2)), 1, step_cap=0)


def test_audit_rejects_malformed_coloring():
    with pytest.raises(ValueError):
        audit(PAIRS4, Coloring((1, 1), 1), 1)


def test_audit_context_alt_value_matches_bounds():
    order = LinearOrder((2, 1, 4, 3))
    ctx = AuditContext(PAIRS4, ONES4, 1, order)
    assert ctx.alt_value == alt_sigma(PAIRS4, order, 1).alt_value


def test_audit_rejects_bad_level_and_ordering():
    with pytest.raises(ValueError, match=r"^level k must be positive, got 0$"):
        audit(PAIRS4, ONES4, 0)
    with pytest.raises(ValueError, match=r"^ordering length differs from vertex count$"):
        audit(PAIRS4, ONES4, 1, LinearOrder((2, 1, 3)))


def test_witness_context_encloses_both_edges():
    # within the audited regime the walk itself finds the clash, at a sign
    # word whose two sides enclose the two edges (identity ordering:
    # positions are vertices); frozen from a hand-checked run
    w = audit(PAIRS4, ONES4, 1)
    assert isinstance(w, Witness)
    assert w.context.word() == "RBBR"
    ea, eb = PAIRS4.edges[w.edge_a], PAIRS4.edges[w.edge_b]
    sides = {w.context.reds, w.context.blues}
    assert any(ea & ~side == 0 for side in sides)
    assert any(eb & ~side == 0 for side in sides)
    assert not any(ea & ~side == 0 and eb & ~side == 0 for side in sides)


def test_beyond_regime_tie_found_by_final_scan():
    # with a palette far beyond the regime the walk may end at a second
    # degree-one chain; the final properness scan still yields the clash,
    # tagged with the all-zero context
    c = Coloring((2, 1, 3, 4, 1, 5), 5)
    w = audit(PAIRS4, c, 1)
    assert isinstance(w, Witness)
    assert verify_witness(w, PAIRS4, c)
    assert (w.edge_a, w.edge_b, w.color) == (1, 4, 1)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.data())
def test_every_audit_outcome_is_sound(data):
    n = data.draw(st.integers(1, 6))
    edges = data.draw(st.sets(st.frozensets(st.integers(1, n), min_size=1), max_size=8))
    h = Hypergraph.from_edge_sets(n, sorted(sorted(e) for e in edges))
    palette = data.draw(st.integers(1, 4))
    colors = data.draw(st.lists(st.integers(1, palette), min_size=len(h.edges), max_size=len(h.edges)))
    c = Coloring(tuple(colors), palette)
    k = data.draw(st.integers(1, 3))
    order = LinearOrder(tuple(data.draw(st.permutations(range(1, n + 1)))))
    out = audit(h, c, k, order)  # an AuditAnomaly fails the test
    g = kneser_graph(h)
    if isinstance(out, Witness):
        assert verify_witness(out, h, c)
    else:
        assert isinstance(out, ProperWithinBound) and is_proper(g, c)
    # the theorem's regime: such a coloring cannot be proper
    if k <= chromatic_number(g).number + 1 and palette <= n - alt_sigma(h, order, k).alt_value + k - 2:
        assert isinstance(out, Witness)
