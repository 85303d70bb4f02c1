"""Alternation searches, minimization over orderings, and the bound itself."""

import random

import pytest

from altermatic import (
    Hypergraph,
    LinearOrder,
    SignVector,
    alt,
    alt_min,
    alt_sigma,
    chromatic_number,
    complete_uniform,
    feasible,
    kneser_graph,
    random_hypergraph,
    schrijver_hypergraph,
    subset_of,
    verify_theorem,
)
from altermatic import reference
from helpers import all_sign_vectors


def test_feasible_examples():
    h = complete_uniform(4, 2)
    order = LinearOrder.identity(4)
    assert feasible(h, SignVector(4), order, 1)
    assert not feasible(h, SignVector.from_sets(4, reds=[1, 2]), order, 1)
    # survivors {1,2} and {3,4} are disjoint: their Kneser graph is one
    # edge, which needs two colors, so the k=2 budget (one color) fails
    assert not feasible(h, SignVector.from_sets(4, reds=[1, 2], blues=[3, 4]), order, 2)


def test_feasible_rejects_bad_level():
    with pytest.raises(ValueError):
        feasible(complete_uniform(4, 2), SignVector(4), LinearOrder.identity(4), 0)


def test_alt_sigma_pairs_families():
    assert alt_sigma(complete_uniform(4, 2), LinearOrder.identity(4), 1).alt_value == 2
    assert alt_sigma(complete_uniform(6, 3), LinearOrder.identity(6), 1).alt_value == 4


def test_alt_sigma_empty_edges_is_n():
    h = Hypergraph(5, ())
    rep = alt_sigma(h, LinearOrder.identity(5), 1)
    assert rep.alt_value == 5
    assert alt(rep.witness) == 5


def test_alt_sigma_witness_is_feasible():
    rng = random.Random(43)
    for seed in range(10):
        h = random_hypergraph(6, rng.randint(1, 12), (1, 3), seed)
        for k in (1, 2):
            rep = alt_sigma(h, LinearOrder.identity(6), k)
            assert alt(rep.witness) == rep.alt_value
            assert feasible(h, rep.witness, rep.sigma, k)


def test_alt_sigma_matches_enumeration():
    for seed in range(10):
        h = random_hypergraph(6, 9, (1, 4), 200 + seed)
        order = LinearOrder.identity(6)
        for k in (1, 2, 3):
            assert alt_sigma(h, order, k).alt_value == reference.alt_sigma_by_enumeration(h, order, k)


def test_alt_sigma_under_permuted_orders():
    rng = random.Random(47)
    h = random_hypergraph(6, 8, (2, 3), 5)
    for _ in range(6):
        perm = list(range(1, 7))
        rng.shuffle(perm)
        order = LinearOrder(tuple(perm))
        assert alt_sigma(h, order, 1).alt_value == reference.alt_sigma_by_enumeration(h, order, 1)


def test_alt_sigma_nondecreasing_in_k():
    for seed in range(6):
        h = random_hypergraph(6, 10, (1, 3), 300 + seed)
        order = LinearOrder.identity(6)
        values = [alt_sigma(h, order, k).alt_value for k in (1, 2, 3, 4)]
        assert values == sorted(values)


def test_feasibility_downward_closed():
    h = random_hypergraph(5, 6, (1, 3), 9)
    order = LinearOrder.identity(5)
    for k in (1, 2):
        status = {(x.reds, x.blues): feasible(h, x, order, k) for x in all_sign_vectors(5)}
        for x in all_sign_vectors(5):
            if not status[(x.reds, x.blues)]:
                continue
            for y in all_sign_vectors(5):
                if subset_of(y, x):
                    assert status[(y.reds, y.blues)]


def test_alt_min_vertex_transitive_family():
    rep = alt_min(complete_uniform(5, 2), 1)
    assert rep.alt_value == 2
    assert rep.bound == 3
    assert rep.sigma_mode == "exhaustive"
    # vertex-transitive: every ordering agrees
    rng = random.Random(53)
    for _ in range(10):
        perm = list(range(1, 6))
        rng.shuffle(perm)
        assert alt_sigma(complete_uniform(5, 2), LinearOrder(tuple(perm)), 1).alt_value == 2


def test_alt_min_at_level_chi_plus_one():
    for h in (complete_uniform(4, 2), complete_uniform(5, 2)):
        chi = chromatic_number(kneser_graph(h)).number
        rep = alt_min(h, chi + 1)
        assert rep.alt_value == h.n
        assert rep.bound == chi


def test_alt_min_empty_edges():
    h = Hypergraph(4, ())
    rep = alt_min(h, 1)
    assert rep.alt_value == 4
    assert rep.bound == 0
    assert chromatic_number(kneser_graph(h)).number == 0


def test_alt_min_exhaustive_cap():
    h = random_hypergraph(9, 5, (2, 3), 1)
    with pytest.raises(ValueError):
        alt_min(h, 1)  # 9! exceeds the default factorial cap
    rep = alt_min(h, 1, samples=8, seed=0)
    assert rep.sigma_mode == "sampled"


def test_alt_min_exhaustive_equals_scan():
    # the threshold/reversal cuts must not change the answer
    from itertools import permutations

    for seed in range(4):
        h = random_hypergraph(5, 7, (1, 3), 400 + seed)
        for k in (1, 2):
            via_scan = min(
                alt_sigma(h, LinearOrder(p), k).alt_value
                for p in permutations(range(1, 6))
            )
            assert alt_min(h, k).alt_value == via_scan


def test_sampled_mode_bounds_exhaustive():
    for seed in range(4):
        h = random_hypergraph(6, 8, (1, 3), 500 + seed)
        exact = alt_min(h, 1).alt_value
        sampled = alt_min(h, 1, samples=10, seed=3).alt_value
        assert sampled >= exact  # a sampled minimum can only overshoot


def test_lower_bound_arithmetic():
    h = complete_uniform(6, 2)
    rep = alt_min(h, 1)
    assert rep.bound == 6 - 2 + 0 == 4


def test_per_sigma_bound_always_valid():
    rng = random.Random(59)
    for seed in range(6):
        h = random_hypergraph(6, 9, (1, 4), 600 + seed)
        chi = chromatic_number(kneser_graph(h)).number
        for k in (1, 2):
            if k > chi + 1:
                continue
            for _ in range(4):
                perm = list(range(1, 7))
                rng.shuffle(perm)
                rep = alt_sigma(h, LinearOrder(tuple(perm)), k)
                assert chi >= rep.bound


def test_verify_theorem_pairs_of_five():
    check = verify_theorem(complete_uniform(5, 2), 1)
    assert (check.bound, check.chi, check.holds, check.tight) == (3, 3, True, True)


def test_verify_theorem_schrijver():
    check = verify_theorem(schrijver_hypergraph(5, 2), 1)
    assert check.chi == 3
    assert check.holds
    assert check.bound == 2  # this representation is valid but not tight


def test_verify_theorem_random_level_two():
    check = verify_theorem(random_hypergraph(6, 9, (1, 4), 42), 2)
    assert check.holds


def test_verify_theorem_rejects_large_k():
    with pytest.raises(ValueError):
        verify_theorem(complete_uniform(5, 2), 5)  # chi=3 allows k up to 4
    assert verify_theorem(complete_uniform(5, 2), 4).tight
