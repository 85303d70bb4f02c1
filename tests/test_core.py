"""Sign vector primitives: alternation, ordering, restriction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from altermatic import (
    Hypergraph,
    LinearOrder,
    SignVector,
    SimpleGraph,
    alt,
    apply_order,
    complete_uniform,
    restrict,
    support_size,
)
from altermatic import reference
from helpers import all_sign_vectors, random_sign_vector, sub_vectors, subset_of


def test_alt_reference_word():
    x = SignVector.from_word("RRBB0R0RB")
    assert alt(x) == 4
    assert support_size(x) == 7


def test_alt_zero_vector():
    for n in (1, 4, 9):
        assert alt(SignVector(n)) == 0


def test_alt_strictly_alternating():
    x = SignVector.from_sets(3, reds=[1, 3], blues=[2])
    assert alt(x) == 3


def test_support_size_cases():
    assert support_size(SignVector(5)) == 0
    assert support_size(SignVector.from_sets(3, reds=[1], blues=[2])) == 2


def test_alt_matches_enumeration_exhaustively():
    for n in (1, 2, 3, 4, 5):
        for x in all_sign_vectors(n):
            assert alt(x) == reference.alt_by_enumeration(x)


def test_alt_matches_enumeration_sampled():
    rng = random.Random(7)
    for _ in range(300):
        x = random_sign_vector(rng, rng.randint(1, 8))
        assert alt(x) == reference.alt_by_enumeration(x)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.text(alphabet="RB0", min_size=1, max_size=12))
def test_alt_matches_enumeration_property(word):
    x = SignVector.from_word(word)
    assert alt(x) == reference.alt_by_enumeration(x)


def test_subset_examples():
    x = SignVector.from_sets(3, reds=[1])
    y = SignVector.from_sets(3, reds=[1, 3], blues=[2])
    assert subset_of(x, y)
    assert not subset_of(SignVector.from_sets(3, reds=[1]), SignVector.from_sets(3, blues=[1]))
    assert subset_of(y, y)


def test_alt_monotone_under_subset_exhaustive():
    for n in (2, 4, 6):
        for y in all_sign_vectors(n):
            ay = alt(y)
            for x in sub_vectors(y):
                assert subset_of(x, y)
                assert alt(x) <= ay


def test_alt_monotone_sampled_large():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(2, 12)
        y = random_sign_vector(rng, n)
        reds = blues = 0
        for p in range(n):
            bit = 1 << p
            if y.reds & bit and rng.random() < 0.6:
                reds |= bit
            if y.blues & bit and rng.random() < 0.6:
                blues |= bit
        x = SignVector(n, reds, blues)
        assert subset_of(x, y)
        assert alt(x) <= alt(y)


def test_alt_bounded_by_support():
    rng = random.Random(13)
    for _ in range(300):
        x = random_sign_vector(rng, rng.randint(1, 12))
        assert alt(x) <= support_size(x) <= x.n


def test_leading_sign_property():
    # if the earliest signed position is red, some longest alternating
    # subsequence starts with R (and symmetrically for blue)
    rng = random.Random(17)
    checked = 0
    for _ in range(300):
        x = random_sign_vector(rng, rng.randint(1, 8))
        if support_size(x) == 0:
            continue
        support = x.reds | x.blues
        first_red = bool((support & -support) & x.reds)
        starts = reference.longest_alternating_starts(x)
        assert (1 if first_red else -1) in starts
        checked += 1
    assert checked > 200


def test_apply_order_identity():
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(1, 10)
        x = random_sign_vector(rng, n)
        assert apply_order(x, LinearOrder.identity(n)) == x


def test_apply_order_relabels():
    x = SignVector.from_word("RB0")
    out = apply_order(x, LinearOrder((2, 3, 1)))
    assert out == SignVector.from_sets(3, reds=[2], blues=[3])
    out2 = apply_order(SignVector.from_word("RB"), LinearOrder((2, 1)))
    assert out2 == SignVector.from_sets(2, reds=[2], blues=[1])


def test_apply_order_bijection():
    order = LinearOrder((3, 1, 4, 2))
    images = {apply_order(x, order) for x in all_sign_vectors(4)}
    assert len(images) == 3**4


def test_restrict_pairs_example():
    h = complete_uniform(4, 2)
    sub = restrict(h, SignVector.from_sets(4, reds=[1, 2], blues=[3]))
    assert sub.edge_sets() == ((1, 2),)
    assert sub.origin == (0,)


def test_restrict_empty_sign_vector():
    h = complete_uniform(4, 2)
    assert restrict(h, SignVector(4)).edges == ()


def test_restrict_both_sides():
    h = Hypergraph.from_edge_sets(3, [[1], [2, 3]])
    sub = restrict(h, SignVector.from_sets(3, reds=[1], blues=[2, 3]))
    assert sub.edge_sets() == ((1,), (2, 3))
    assert sub.origin == (0, 1)


def test_restrict_respects_order():
    h = Hypergraph.from_edge_sets(3, [[1, 2], [2, 3]])
    # word RB0 under ordering 2<3<1 labels vertex 2 red, vertex 3 blue
    sub = restrict(h, SignVector.from_word("RR0"), LinearOrder((2, 3, 1)))
    assert sub.edge_sets() == ((2, 3),)


def test_restrict_monotone():
    rng = random.Random(23)
    h = complete_uniform(6, 2)
    for _ in range(100):
        y = random_sign_vector(rng, 6)
        reds = y.reds & rng.getrandbits(6)
        blues = y.blues & rng.getrandbits(6)
        x = SignVector(6, reds, blues)
        inner = set(restrict(h, x).edges)
        outer = set(restrict(h, y).edges)
        assert inner <= outer


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph.from_edge_sets(3, [[1, 2], [2, 1]])  # duplicate edge
    with pytest.raises(ValueError):
        Hypergraph(3, (0,))  # empty edge
    with pytest.raises(ValueError):
        Hypergraph.from_edge_sets(3, [[4]])  # out of range
    with pytest.raises(ValueError):
        Hypergraph(0, ())


def test_simple_graph_from_edges_refuses_out_of_range_ids():
    for pair in ((0, 3), (3, 0), (-1, 2), (1, -3)):
        with pytest.raises(ValueError, match=rf"edge \({pair[0]}, {pair[1]}\) has an end outside 0\.\.2"):
            SimpleGraph.from_edges(3, [(0, 1), pair])
    assert SimpleGraph.from_edges(3, [(0, 2), (2, 1)]).rows == (0b100, 0b100, 0b011)


def test_simple_graph_refuses_rows_it_cannot_trust():
    # Only kneser_graph skips these checks; rows from callers get them all.
    for vcount, rows, message in (
        (2, (0b10, 0b00), r"not symmetric at \(0, 1\)"),
        (3, (0b010, 0b101, 0b110), "loop at vertex 2"),
        (2, (0b110, 0b001), "row 0 mentions vertices out of range"),
        (2, (0b10, 0b100), "row 1 mentions vertices out of range"),  # before (0, 1)
        (3, (0b10, 0b01), "row count differs"),
    ):
        with pytest.raises(ValueError, match=message):
            SimpleGraph(vcount, rows)
    with pytest.raises(ValueError, match="loop at vertex 1"):
        SimpleGraph.from_edges(3, [(0, 2), (1, 1), (0, 5)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(-1, [])
    assert SimpleGraph(3, (0b010, 0b101, 0b010)).edge_count == 2


def test_sign_vector_validation():
    with pytest.raises(ValueError):
        SignVector(3, reds=1, blues=1)  # overlap
    with pytest.raises(ValueError):
        SignVector(2, reds=0b100)  # out of range
    with pytest.raises(ValueError):
        SignVector.from_word("RX0")


def test_linear_order_validation():
    with pytest.raises(ValueError):
        LinearOrder((1, 1, 2))
    with pytest.raises(ValueError):
        LinearOrder((2, 3))


def test_vertex_cap_bounds_hypergraphs_and_sign_vectors():
    with pytest.raises(ValueError, match="vertex cap 63"):
        Hypergraph(64, ())
    with pytest.raises(ValueError, match="vertex cap 63"):
        SignVector(64)
    assert Hypergraph(63, ()).n == SignVector(63).n == 63


PUBLIC_API = [
    "AltReport", "AuditAnomaly", "AuditContext", "ChromaticResult", "Coloring",
    "Hypergraph", "LinearOrder", "ParseError",
    "ProperWithinBound", "SearchLimitError", "SignVector",
    "SimpleGraph", "TheoremCheck", "Violation", "Witness",
    "alt", "alt_min", "alt_sigma", "apply_order", "audit", "chromatic_at_most",
    "chromatic_number", "complete_uniform", "is_proper",
    "kneser_graph", "mask_of", "neighbors", "parse_coloring", "parse_hypergraph",
    "random_hypergraph", "restrict", "schrijver_hypergraph", "serialize_coloring",
    "serialize_hypergraph", "support_size", "verify_theorem", "verify_witness",
    "vertices_of",
]


def test_public_api():
    # a new export has to be added here on purpose
    import altermatic

    assert sorted(altermatic.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(altermatic, name) is not None
