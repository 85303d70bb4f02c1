"""Kneser graph construction and the hypergraph generators."""

import pytest
from hypothesis import given, settings, strategies as st

from altermatic import (
    Hypergraph,
    SimpleGraph,
    complete_uniform,
    is_proper,
    kneser_graph,
    random_hypergraph,
    schrijver_hypergraph,
    vertices_of,
)
from altermatic import bounds, kneser, reference
from altermatic.kneser import cut_coloring


def test_pairs_of_four_is_perfect_matching():
    g = kneser_graph(complete_uniform(4, 2))
    assert g.vcount == 6
    assert g.edge_count == 3
    assert all(g.degree(v) == 1 for v in range(6))
    # each pair is adjacent exactly to its complement
    h = complete_uniform(4, 2)
    for i in range(g.vcount):
        for j in range(g.vcount):
            if g.rows[i] >> j & 1:
                assert h.edges[i] ^ h.edges[j] == 0b1111


def test_single_edge_is_isolated_vertex():
    g = kneser_graph(Hypergraph.from_edge_sets(3, [[1, 2]]))
    assert g.vcount == 1
    assert g.edge_count == 0


def test_petersen_shape():
    g = kneser_graph(complete_uniform(5, 2))
    assert g.vcount == 10
    assert g.edge_count == 15
    assert all(g.degree(v) == 3 for v in range(10))


def test_kneser_graph_has_no_loops():
    for h in (complete_uniform(5, 2), schrijver_hypergraph(6, 2)):
        g = kneser_graph(h)
        assert g.vcount == len(h.edges)
        for v in range(g.vcount):
            assert not g.rows[v] >> v & 1


@st.composite
def edge_lists(draw):
    """(n, edges): n <= 8 and distinct nonempty masks over 1..n, drawn as
    a random list, an edgeless one, a single edge, a list on the low
    vertices only (the top ones isolated), or a chain of nested edges."""
    n = draw(st.integers(1, 8))
    full = (1 << n) - 1
    shape = draw(st.sampled_from(("random", "edgeless", "single", "low", "nested")))
    if shape == "random":
        edges = draw(st.lists(st.integers(1, full), unique=True, max_size=20))
    elif shape == "edgeless":
        edges = []
    elif shape == "single":
        edges = [draw(st.integers(1, full))]
    elif shape == "low":
        low = (1 << draw(st.integers(1, n))) - 1
        edges = draw(st.lists(st.integers(1, low), unique=True, max_size=20))
    else:
        order = draw(st.permutations(range(n)))
        sizes = draw(st.lists(st.integers(1, n), unique=True, min_size=1))
        edges = [sum(1 << p for p in order[:size]) for size in sizes]
    return n, edges


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(edge_lists())
def test_kneser_rows_and_incidence_match_the_definitions(instance):
    n, edges = instance
    m = len(edges)
    h = Hypergraph(n, tuple(edges))
    assert len(h.kneser_rows) == m
    for i, row in enumerate(h.kneser_rows):
        for j in range(m):
            assert bool(row >> j & 1) == (i != j and not edges[i] & edges[j]), (i, j)
    assert len(h.incidence) == n
    for p, row in enumerate(h.incidence):
        for i, e in enumerate(edges):
            assert bool(row >> i & 1) == bool(e >> p & 1), (p, i)
    # kneser_graph skips SimpleGraph's checks on these rows; they pass them.
    g = kneser_graph(h)
    assert type(g) is SimpleGraph
    assert g == SimpleGraph(m, h.kneser_rows)


def cut_coloring_by_definition(edges: list[int]) -> tuple[int, ...]:
    """The cut colouring straight from its definition, on vertex tuples:
    the least cut c whose tail (edges with least vertex above c) is
    pairwise intersecting, one colour per distinct least vertex <= c in
    increasing order, then one for the tail."""
    sets = [set(vertices_of(e)) for e in edges]
    cut = next(
        c for c in range(max((min(s) for s in sets), default=0) + 1)
        if all(a & b for a in sets for b in sets if min(a) > c and min(b) > c)
    )
    heads = sorted({min(s) for s in sets if min(s) <= cut})
    return tuple(heads.index(min(s)) + 1 if min(s) <= cut else len(heads) + 1 for s in sets)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(edge_lists())
def test_cut_coloring_is_a_proper_upper_bound(instance):
    n, edges = instance
    h = Hypergraph(n, tuple(edges))
    g = kneser_graph(h)
    c = cut_coloring(h)
    assert c.assignment == cut_coloring_by_definition(edges)
    assert is_proper(g, c)
    assert set(c.assignment) == set(range(1, c.palette + 1))
    if g.vcount <= 9:
        assert c.palette >= reference.chromatic_by_enumeration(g)


@pytest.mark.parametrize("family", [complete_uniform, schrijver_hypergraph])
def test_cut_coloring_is_the_standard_colouring_on_the_families(family):
    # chi(KG(m,r)) = chi(SG(m,r)) = m - 2r + 2 for m >= 2r (Lovasz 1978;
    # Schrijver 1978); below 2r every two r-subsets meet, so chi is 1
    for m in range(1, 12):
        for r in range(1, m + 1):
            if family is schrijver_hypergraph and m < 2 * r:
                continue
            h = family(m, r)
            c = cut_coloring(h)
            assert is_proper(kneser_graph(h), c), (m, r)
            assert set(c.assignment) == set(range(1, c.palette + 1)), (m, r)
            assert c.palette == max(m - 2 * r + 2, 1), (m, r)


def test_graph_and_level_two_search_share_the_hypergraph_rows():
    h = schrijver_hypergraph(8, 2)
    assert kneser_graph(h).rows is h.kneser_rows
    assert bounds._AltSearch(h, 2)._clash is h.kneser_rows


def test_cached_masks_leave_the_value_unchanged():
    h = complete_uniform(5, 2)
    before = (hash(h), repr(h))
    assert h.incidence and h.kneser_rows
    assert h == Hypergraph(h.n, h.edges)
    assert (hash(h), repr(h)) == before


def test_complete_uniform_counts_and_order():
    assert len(complete_uniform(4, 2).edges) == 6
    assert len(complete_uniform(5, 2).edges) == 10
    assert complete_uniform(3, 3).edge_sets() == ((1, 2, 3),)
    # lexicographic order of sorted tuples
    assert complete_uniform(4, 2).edge_sets() == (
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    )


def test_complete_uniform_rejects_bad_range():
    with pytest.raises(ValueError):
        complete_uniform(3, 4)
    with pytest.raises(ValueError):
        complete_uniform(3, 0)


def test_schrijver_small_cases():
    assert schrijver_hypergraph(4, 2).edge_sets() == ((1, 3), (2, 4))
    sg52 = schrijver_hypergraph(5, 2)
    assert len(sg52.edges) == 5
    g = kneser_graph(sg52)  # the 5-cycle
    assert g.vcount == 5 and g.edge_count == 5
    assert all(g.degree(v) == 2 for v in range(5))


def test_schrijver_tight_cases():
    assert schrijver_hypergraph(4, 2).edge_sets() == ((1, 3), (2, 4))
    assert schrijver_hypergraph(6, 3).edge_sets() == ((1, 3, 5), (2, 4, 6))


def test_schrijver_rejects_small_ground_set():
    with pytest.raises(ValueError):
        schrijver_hypergraph(3, 2)


def test_schrijver_subset_of_complete():
    for m, r in ((5, 2), (6, 2), (7, 3)):
        stable = set(schrijver_hypergraph(m, r).edges)
        full = set(complete_uniform(m, r).edges)
        assert stable < full


def test_generators_refuse_a_ground_set_above_the_cap_before_listing_subsets(monkeypatch):
    # KG(64,32) has C(64,32) edges, and counting the subsets of sizes
    # 1..50,000 of a 100,000-set runs for more than 5 s; the cap refuses
    # both at once.  Argument errors keep their own messages.
    def unreachable(*args):
        raise AssertionError("subsets listed or counted above the vertex cap")

    monkeypatch.setattr(kneser, "combinations", unreachable)
    monkeypatch.setattr(kneser, "comb", unreachable)
    for make, n in (
        (lambda: complete_uniform(64, 32), 64),
        (lambda: schrijver_hypergraph(70, 30), 70),
        (lambda: random_hypergraph(100_000, 1, (1, 50_000), seed=0), 100_000),
    ):
        with pytest.raises(ValueError, match=f"^vertex count {n} exceeds vertex cap 63$"):
            make()
    for make, message in (
        (lambda: complete_uniform(64, 65), "need 1 <= r <= m"),
        (lambda: schrijver_hypergraph(70, 36), "need m >= 2r"),
        (lambda: random_hypergraph(100_000, 0, (1, 2), seed=0), "edge count must be positive"),
    ):
        with pytest.raises(ValueError, match=message):
            make()


def test_random_hypergraph_deterministic():
    a = random_hypergraph(5, 3, (2, 2), seed=7)
    b = random_hypergraph(5, 3, (2, 2), seed=7)
    assert a == b
    assert len(a.edges) == 3
    assert all(len(e) == 2 for e in a.edge_sets())
    assert random_hypergraph(5, 3, (2, 2), seed=8) != a


def test_random_hypergraph_infeasible():
    with pytest.raises(ValueError):
        random_hypergraph(4, 7, (2, 2), seed=0)  # only C(4,2)=6 exist


def test_random_hypergraph_forced():
    assert random_hypergraph(1, 1, (1, 1), seed=123).edge_sets() == ((1,),)


def test_random_hypergraph_size_range():
    h = random_hypergraph(8, 12, (1, 3), seed=3)
    assert len(h.edges) == 12
    assert all(1 <= len(e) <= 3 for e in h.edge_sets())


def test_random_hypergraph_large_space_path():
    # forces the unranking branch: C(16,1..8) is far above the pool cutoff
    h = random_hypergraph(16, 10, (1, 8), seed=5)
    assert len(h.edges) == 10
    assert h == random_hypergraph(16, 10, (1, 8), seed=5)
