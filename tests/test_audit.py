"""Signed levels, permissible chains, neighbor rules, and the audit walk."""

import random

import pytest

from altermatic import (
    AuditContext,
    Coloring,
    Hypergraph,
    LinearOrder,
    PermissibleSequence,
    ProperWithinBound,
    SearchLimitError,
    SignVector,
    SignedLevel,
    TieDetected,
    Violation,
    Witness,
    alt,
    alt_sigma,
    audit,
    chromatic_number,
    complete_uniform,
    enumerate_audit_graph,
    is_proper,
    kneser_graph,
    max_enclosed_color,
    mask_of,
    neighbors,
    random_hypergraph,
    signed_level,
    subset_of,
    verify_witness,
)
from helpers import all_sign_vectors, sub_vectors

PAIRS4 = complete_uniform(4, 2)
ONES4 = Coloring((1,) * 6, 1)


def optimal_coloring(h):
    return chromatic_number(kneser_graph(h)).coloring


def ctx_for(h, coloring, k=1, order=None):
    return AuditContext(h, coloring, k, order)


def test_max_enclosed_color_examples():
    h = Hypergraph.from_edge_sets(3, [[1, 2], [3]])
    c = Coloring((2, 1), 2)
    assert max_enclosed_color(0, h, c) == 0
    assert max_enclosed_color(mask_of([1, 2]), h, c) == 2
    assert max_enclosed_color(mask_of([3]), h, c) == 1


def test_level_of_empty_pair_is_plus_one():
    ctx = ctx_for(PAIRS4, ONES4)
    lv = ctx.level(0, 0)
    assert isinstance(lv, SignedLevel) and lv.value == 1


def test_level_low_band_example():
    # alt ceiling 2 for the pairs-of-four family at k=1
    ctx = ctx_for(PAIRS4, optimal_coloring(PAIRS4))
    assert ctx.alt_value == 2
    x = SignVector.from_sets(4, reds=[2])
    lv = signed_level(x, PAIRS4, optimal_coloring(PAIRS4), 2, 1)
    assert isinstance(lv, SignedLevel) and lv.value == 2


def test_level_sign_follows_earliest_position():
    ctx = ctx_for(PAIRS4, optimal_coloring(PAIRS4))
    minus = ctx.level(0, mask_of([1]))
    assert isinstance(minus, SignedLevel) and minus.value == -2
    plus = ctx.level(mask_of([1]), mask_of([2]))
    assert isinstance(plus, SignedLevel) and plus.value == 3


def test_level_tie_yields_witness():
    # {1,3} and {2,4} share color 1; the pair with those sides must trip
    c = Coloring((2, 1, 3, 4, 1, 5), 5)
    ctx = ctx_for(PAIRS4, c)
    lv = ctx.level(mask_of([1, 3]), mask_of([2, 4]))
    assert isinstance(lv, TieDetected)
    w = lv.witness
    assert (w.edge_a, w.edge_b, w.color) == (1, 4, 1)
    assert verify_witness(w, PAIRS4, c)
    assert w.context == SignVector.from_sets(4, reds=[1, 3], blues=[2, 4])


def test_level_magnitude_formula():
    h = complete_uniform(5, 2)
    c = optimal_coloring(h)
    ctx = ctx_for(h, c)
    for x in all_sign_vectors(5):
        lv = ctx.level(x.reds, x.blues)
        assert isinstance(lv, SignedLevel)
        if alt(x) <= ctx.alt_value:
            assert abs(lv.value) == alt(x) + 1
        else:
            peak = max(
                max_enclosed_color(ctx.vertex_mask(x.reds), h, c),
                max_enclosed_color(ctx.vertex_mask(x.blues), h, c),
            )
            assert abs(lv.value) == ctx.alt_value + peak - 1 + 2


def test_level_can_exceed_n_beyond_regime():
    # optimal palettes always exceed the audited regime, so high-band
    # levels may leave the signed range 1..n: an X whose side encloses a
    # color-2 edge with a vertex gap reaches magnitude alt_I + 2 + 1 = 5
    c = optimal_coloring(PAIRS4)
    ctx = ctx_for(PAIRS4, c)
    peak = 0
    for x in all_sign_vectors(4):
        lv = ctx.level(x.reds, x.blues)
        assert isinstance(lv, SignedLevel)
        peak = max(peak, abs(lv.value))
    assert peak == 5 > 4


@pytest.mark.parametrize("seed", range(6))
def test_level_invariants_proper_colorings(seed):
    h = random_hypergraph(5, 7, (1, 3), 700 + seed)
    c = optimal_coloring(h)
    ctx = ctx_for(h, c)
    levels = {}
    for x in all_sign_vectors(5):
        lv = ctx.level(x.reds, x.blues)
        assert isinstance(lv, SignedLevel)  # proper colorings never tie
        levels[(x.reds, x.blues)] = lv.value
        if alt(x) > ctx.alt_value:
            assert abs(lv.value) >= ctx.alt_value + 2  # level jump
    for y in all_sign_vectors(5):
        ly = levels[(y.reds, y.blues)]
        for x in sub_vectors(y):
            lx = levels[(x.reds, x.blues)]
            assert abs(lx) <= abs(ly)  # monotone magnitude
            assert lx + ly != 0  # no antipodal nesting


def test_permissible_sequence_validation():
    PermissibleSequence(4, (1, -3))
    with pytest.raises(ValueError):
        PermissibleSequence(4, (1, -1))  # same position twice
    with pytest.raises(ValueError):
        PermissibleSequence(4, (5,))  # out of range
    with pytest.raises(ValueError):
        PermissibleSequence(4, (0,))


def test_pairs_accumulate_steps():
    seq = PermissibleSequence(4, (2, -4, 1))
    assert seq.pairs() == [
        (0, 0),
        (mask_of([2]), 0),
        (mask_of([2]), mask_of([4])),
        (mask_of([1, 2]), mask_of([4])),
    ]


def test_empty_chain_has_unique_neighbor():
    ctx = ctx_for(PAIRS4, optimal_coloring(PAIRS4))
    out = neighbors(PermissibleSequence(4), ctx)
    assert [q.steps for q in out] == [(1,)]


def test_singleton_chain_neighbors():
    # levels 1, 2: the missing level 2 appends, and dropping the last step
    # recovers the empty chain, mirroring the base case
    ctx = ctx_for(PAIRS4, optimal_coloring(PAIRS4))
    out = neighbors(PermissibleSequence(4, (1,)), ctx)
    assert [q.steps for q in out] == [(1, 2), ()]


def neighbor_census(h, coloring, k=1):
    stats = enumerate_audit_graph(h, coloring, k)
    for seq, ns in stats.neighbor_map.items():
        for q in ns:
            if q in stats.neighbor_map:
                assert seq in stats.neighbor_map[q], (seq.steps, q.steps)
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
    empties = [s for s in stats.neighbor_map if s.length == 0]
    assert len(empties) == 1
    assert [q.steps for q in stats.neighbor_map[empties[0]]] == [(1,)]


def test_neighbor_symmetry_level_two():
    h = random_hypergraph(4, 6, (1, 3), 12)
    neighbor_census(h, optimal_coloring(h), k=2)


def test_violations_carry_verified_witnesses():
    stats = enumerate_audit_graph(PAIRS4, ONES4, 1)
    assert stats.violations
    for seq, violation in stats.violations:
        assert isinstance(violation, Violation)
        if violation.witness is not None:
            assert verify_witness(violation.witness, PAIRS4, ONES4)
        else:
            assert violation.detail


def test_audit_graph_empty_edge_set():
    h = Hypergraph(3, ())
    stats = enumerate_audit_graph(h, Coloring((), 0), 1)
    assert not stats.violations
    empty = [s for s in stats.neighbor_map if s.length == 0]
    assert stats.degree_histogram[1] >= 1
    assert len(stats.neighbor_map[empty[0]]) == 1


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


def test_audit_respects_sigma():
    h = complete_uniform(5, 2)
    order = LinearOrder((3, 5, 1, 2, 4))
    w = audit(h, Coloring((1, 2) * 5, 2), 1, order)
    assert isinstance(w, Witness)
    assert verify_witness(w, h, Coloring((1, 2) * 5, 2))


def test_audit_step_cap():
    with pytest.raises(SearchLimitError):
        audit(complete_uniform(5, 2), optimal_coloring(complete_uniform(5, 2)), 1, step_cap=2)


def test_audit_rejects_malformed_coloring():
    with pytest.raises(ValueError):
        audit(PAIRS4, Coloring((1, 1), 1), 1)


def test_audit_context_alt_value_matches_bounds():
    order = LinearOrder((2, 1, 4, 3))
    ctx = AuditContext(PAIRS4, ONES4, 1, order)
    assert ctx.alt_value == alt_sigma(PAIRS4, order, 1).alt_value
    assert ctx.palette_bound == 4 - ctx.alt_value + 1 - 2


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
