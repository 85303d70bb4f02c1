"""Exact coloring solver against trivial cases and the enumeration oracle."""

import random

import pytest

from altermatic import (
    Coloring,
    SimpleGraph,
    chromatic_at_most,
    chromatic_number,
    complete_uniform,
    is_proper,
    kneser_graph,
    random_hypergraph,
)
from altermatic import reference
from altermatic.coloring import first_clash
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


def test_deterministic_witness():
    g = kneser_graph(complete_uniform(6, 2))
    assert chromatic_number(g) == chromatic_number(g)


def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring((1, 3), 2)
    with pytest.raises(ValueError):
        Coloring((0,), 1)
    assert Coloring.from_values([2, 1, 2]).palette == 2
