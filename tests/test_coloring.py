"""Exact coloring solver against trivial cases and the enumeration oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from altermatic import (
    Coloring,
    SimpleGraph,
    chromatic_at_most,
    chromatic_number,
    complete_uniform,
    is_proper,
    kneser_graph,
    random_hypergraph,
    schrijver_hypergraph,
)
from altermatic import reference
from altermatic.coloring import _decide, _most_saturated, first_clash, greedy_color_count
from helpers import random_graph


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_is_proper_basics():
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    assert is_proper(g, Coloring((1, 2, 1), 2))
    assert not is_proper(g, Coloring((1, 1, 1), 1))
    assert is_proper(SimpleGraph(0, ()), Coloring((), 0))
    with pytest.raises(ValueError):
        is_proper(g, Coloring((1, 2), 2))
    assert first_clash(g, Coloring((1, 2, 1), 2)) is None
    assert first_clash(g, Coloring((1, 1, 1), 1)) == (0, 1)
    two_clashes = SimpleGraph.from_edges(4, [(0, 3), (1, 2), (2, 3)])
    assert first_clash(two_clashes, Coloring((1, 2, 2, 1), 2)) == (0, 3)
    with pytest.raises(ValueError):
        first_clash(g, Coloring((1, 2), 2))
    # Masks are kept per color used, so a huge color value costs nothing.
    assert first_clash(g, Coloring((1, 10**12, 1), 10**12)) is None
    assert first_clash(g, Coloring((1, 10**12, 10**12), 10**12)) == (1, 2)


def test_petersen_coloring_roundtrip():
    g = kneser_graph(complete_uniform(5, 2))
    number, witness = chromatic_number(g)
    assert number == 3
    assert is_proper(g, witness)
    assert witness.colors_used == 3


def test_chromatic_at_most_petersen():
    g = kneser_graph(complete_uniform(5, 2))
    assert not chromatic_at_most(g, 2)
    assert chromatic_at_most(g, 3)


def test_edgeless_and_empty():
    assert chromatic_at_most(SimpleGraph(4, (0, 0, 0, 0)), 1)
    assert not chromatic_at_most(SimpleGraph(4, (0, 0, 0, 0)), 0)
    assert chromatic_at_most(SimpleGraph(0, ()), 0)
    assert chromatic_number(SimpleGraph(0, ())).number == 0


def test_clique_needs_all_colors():
    assert not chromatic_at_most(complete_graph(4), 3)
    assert chromatic_at_most(complete_graph(4), 4)


def test_matching_is_bipartite():
    assert chromatic_number(kneser_graph(complete_uniform(4, 2))).number == 2


def test_monotone_in_budget():
    rng = random.Random(31)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 9), 0.4)
        results = [chromatic_at_most(g, t) for t in range(g.vcount + 1)]
        assert results == sorted(results)  # False... then True...
        assert results[-1]


def test_witness_properties():
    rng = random.Random(37)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        number, witness = chromatic_number(g)
        assert is_proper(g, witness)
        assert witness.colors_used == number
        assert witness.palette == number


def test_agrees_with_enumeration_oracle():
    rng = random.Random(41)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        assert chromatic_number(g).number == reference.chromatic_by_enumeration(g)


def test_kneser_graphs_against_oracle():
    for seed in range(8):
        g = kneser_graph(random_hypergraph(6, 8, (1, 3), seed))
        assert chromatic_number(g).number == reference.chromatic_by_enumeration(g)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph.from_edges(n, [p for p, k in zip(pairs, keep) if k])


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(small_graphs())
def test_decide_is_exact_at_every_budget(g):
    # None exactly below chi, else a proper coloring within the budget: a
    # ladder may start at any proven lower bound and lose nothing
    chi = reference.chromatic_by_enumeration(g)
    for t in range(g.vcount + 2):
        found = _decide(g, t)
        if t < chi:
            assert found is None, t
        else:
            assert found is not None and is_proper(g, Coloring(tuple(found), t)), t


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(small_graphs(), st.data())
def test_first_clash_is_the_first_same_colored_edge(g, data):
    palette = data.draw(st.integers(1, 3))
    colors = data.draw(st.lists(st.integers(1, palette), min_size=g.vcount, max_size=g.vcount))
    c = Coloring(tuple(colors), palette)
    pairs = ((i, j) for i in range(g.vcount) for j in range(i + 1, g.vcount))
    first = next((p for p in pairs if g.rows[p[0]] >> p[1] & 1 and colors[p[0]] == colors[p[1]]), None)
    assert first_clash(g, c) == first


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(small_graphs())
def test_greedy_color_count_is_an_upper_bound(g):
    # chi <= one DSATUR pass <= max degree + 1, as any greedy coloring is
    max_degree = max((row.bit_count() for row in g.rows), default=-1)
    assert reference.chromatic_by_enumeration(g) <= greedy_color_count(g) <= max_degree + 1


def test_lower_bound_skips_rungs_and_keeps_the_witness():
    rng = random.Random(59)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        full = chromatic_number(g)
        for lower in range(full.number + 1):
            assert chromatic_number(g, lower=lower) == full


def greedy_in_order(g: SimpleGraph, order: list[int]) -> Coloring:
    """Each vertex in ``order`` takes the lowest color its colored neighbors
    lack: a proper coloring that uses exactly 1..palette."""
    colors = [0] * g.vcount
    for v in order:
        taken = {colors[u] for u in range(g.vcount) if g.rows[v] >> u & 1}
        colors[v] = next(c for c in range(1, g.vcount + 1) if c not in taken)
    return Coloring(tuple(colors), max(colors, default=0))


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(small_graphs(), st.data())
def test_upper_ends_the_ladder_and_changes_no_number(g, data):
    # for a proper upper coloring u and a proven lower bound l, the number
    # is that of the full ladder; the witness is u exactly when chi equals
    # u's palette, and else the full ladder's witness
    full = chromatic_number(g)
    chi = full.number
    order = data.draw(st.permutations(range(g.vcount)))
    uppers = [greedy_in_order(g, order), Coloring(tuple(range(1, g.vcount + 1)), g.vcount)]
    if g.vcount:
        uppers.append(Coloring(full.coloring.assignment, chi + data.draw(st.integers(0, 2))))
    for u in uppers:
        assert is_proper(g, u)
        for lower in range(chi + 1):
            result = chromatic_number(g, lower=lower, upper=u)
            assert result.number == chi
            if g.vcount:
                assert (result.coloring is u) == (chi == u.palette)
                assert result.coloring == (u if chi == u.palette else full.coloring)


def test_upper_of_the_wrong_size_or_below_the_first_rung_is_refused():
    g = complete_graph(3)
    with pytest.raises(ValueError, match="2 entries for 3 vertices"):
        chromatic_number(g, upper=Coloring((1, 2), 2))
    with pytest.raises(ValueError, match="1 entries for 0 vertices"):
        chromatic_number(SimpleGraph(0, ()), upper=Coloring((1,), 1))
    # the greedy clique of K3 is the first rung, 3
    with pytest.raises(ValueError, match="uses 2 colors, below the first rung 3"):
        chromatic_number(g, upper=Coloring((1, 2, 2), 2))
    # an unproven lower bound above the palette
    with pytest.raises(ValueError, match="uses 3 colors, below the first rung 4"):
        chromatic_number(g, lower=4, upper=Coloring((1, 2, 3), 3))
    assert chromatic_number(g, lower=3, upper=Coloring((1, 2, 3), 3)).coloring == Coloring((1, 2, 3), 3)


def test_odd_cycle_longer_than_the_recursion_limit():
    n = 1501
    g = SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    number, witness = chromatic_number(g)
    assert number == 3
    assert is_proper(g, witness) and witness.colors_used == 3
    assert not chromatic_at_most(g, 2)


# _decide(g, t) for t from the greedy clique size up to chi, one digit per
# vertex; pins the DSATUR tie rule (lowest index) and the color order.
DECIDE_GOLDEN = [
    (complete_uniform(6, 2), 3, [None, "111112234234343"]),
    (complete_uniform(7, 3), 2, [None, "12221222122222211113313113313112333"]),
    (schrijver_hypergraph(7, 2), 3, [None, None, "11112222443533"]),
    (random_hypergraph(7, 14, (2, 3), 15), 3, ["11233211112223"]),
]


@pytest.mark.parametrize("h, lo, expected", DECIDE_GOLDEN)
def test_decide_golden(h, lo, expected):
    g = kneser_graph(h)
    found = [_decide(g, t) for t in range(lo, lo + len(expected))]
    assert [None if f is None else "".join(map(str, f)) for f in found] == expected


def test_most_saturated_against_counting():
    rng = random.Random(53)
    for _ in range(400):
        n = rng.randint(1, 12)
        cands = rng.randint(1, (1 << n) - 1)
        near = [rng.getrandbits(n) for _ in range(rng.randint(0, 9))]
        counts = {v: sum(m >> v & 1 for m in near) for v in range(n) if cands >> v & 1}
        top = max(counts.values())
        assert _most_saturated(cands, near) == min(v for v in counts if counts[v] == top)
    assert _most_saturated(0b10110, []) == 1
    assert _most_saturated(0b111, [0b110, 0b011]) == 1
    assert _most_saturated(0b101, [0b100, 0b001, 0b100, 0b001]) == 0


def test_deterministic_witness():
    g = kneser_graph(complete_uniform(6, 2))
    assert chromatic_number(g) == chromatic_number(g)


def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring((1, 3), 2)
    with pytest.raises(ValueError):
        Coloring((0,), 1)


@pytest.mark.parametrize(
    "assignment, palette, message",
    [
        ((2, 1, 4, 0), 3, "color 4 at index 2 outside 1..3"),
        ((1, 0, 5), 3, "color 0 at index 1 outside 1..3"),
        ((3, 3, 3), 2, "color 3 at index 0 outside 1..2"),
        ((1,), 0, "color 1 at index 0 outside 1..0"),
        ((1, 2, -1), 2, "color -1 at index 2 outside 1..2"),
    ],
)
def test_coloring_validation_names_the_first_bad_color(assignment, palette, message):
    with pytest.raises(ValueError) as err:
        Coloring(assignment, palette)
    assert str(err.value) == message
