"""Alternation searches, minimization over orderings, and the bound itself."""

import gc
import random
import sys
from itertools import combinations, islice, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from altermatic import (
    Hypergraph,
    LinearOrder,
    SignVector,
    alt,
    alt_min,
    alt_sigma,
    chromatic_number,
    complete_uniform,
    kneser_graph,
    mask_of,
    random_hypergraph,
    schrijver_hypergraph,
    verify_theorem,
    vertices_of,
)
from altermatic import bounds, reference
from altermatic import coloring as coloring_module, kneser as kneser_module
from altermatic.coloring import greedy_clique, greedy_color_count
from helpers import all_sign_vectors, feasible, first_optimal_word, sub_vectors, subset_of


@st.composite
def small_instances(draw):
    """(h, order, k): n <= 6, at most 8 distinct edges, a shuffled ordering, k in 1..3."""
    n = draw(st.integers(1, 6))
    edges = draw(st.lists(st.integers(1, (1 << n) - 1), unique=True, max_size=8))
    perm = draw(st.permutations(range(1, n + 1)))
    return Hypergraph(n, tuple(edges)), LinearOrder(tuple(perm)), draw(st.integers(1, 3))


def _cycle(n):
    return Hypergraph.from_edge_sets(n, [[v, v % n + 1] for v in range(1, n + 1)])


def test_feasible_examples():
    h = complete_uniform(4, 2)
    order = LinearOrder.identity(4)
    assert feasible(h, SignVector(4), order, 1)
    assert not feasible(h, SignVector.from_sets(4, reds=[1, 2]), order, 1)
    # survivors {1,2} and {3,4} are disjoint: their Kneser graph is one
    # edge, which needs two colors, so the k=2 budget (one color) fails
    assert not feasible(h, SignVector.from_sets(4, reds=[1, 2], blues=[3, 4]), order, 2)


def test_searches_reject_bad_level():
    h = complete_uniform(4, 2)
    with pytest.raises(ValueError):
        bounds._AltSearch(h, 0)
    with pytest.raises(ValueError):
        alt_sigma(h, LinearOrder.identity(4), 0)


def test_alt_sigma_pairs_families():
    assert alt_sigma(complete_uniform(4, 2), LinearOrder.identity(4), 1).alt_value == 2
    assert alt_sigma(complete_uniform(6, 3), LinearOrder.identity(6), 1).alt_value == 4


def test_alt_sigma_empty_edges_is_n():
    h = Hypergraph(5, ())
    order = LinearOrder.identity(5)
    rep = alt_sigma(h, order, 1)
    assert rep.alt_value == 5 == reference.alt_sigma_by_enumeration(h, order, 1)
    assert rep.witness.word() == "RBRBR"


def test_level_seven_on_kg_12_3_colours_no_whole_kneser_graph(monkeypatch):
    # the alternating word is feasible at k = 7 (its survivors' Kneser
    # graph is 4-colorable), so the walk's first descent reaches alt 12;
    # refuting that all 220 vertices of KG(12,3) are 6-colorable took
    # about 20 s, and no search needs that answer
    decide = coloring_module._decide

    def refusing(g, t):
        if g.vcount == 220:
            raise AssertionError(f"asked to {t}-colour the whole Kneser graph")
        return decide(g, t)

    monkeypatch.setattr(coloring_module, "_decide", refusing)
    rep = alt_sigma(complete_uniform(12, 3), LinearOrder.identity(12), 7)
    assert (rep.alt_value, rep.witness.word(), rep.bound) == (12, "RBRBRBRBRBRB", 6)


def test_alt_sigma_witness_is_feasible():
    rng = random.Random(43)
    for seed in range(10):
        h = random_hypergraph(6, rng.randint(1, 12), (1, 3), seed)
        for k in (1, 2):
            rep = alt_sigma(h, LinearOrder.identity(6), k)
            assert alt(rep.witness) == rep.alt_value
            assert feasible(h, rep.witness, rep.sigma, k)
            # witnesses are strictly alternating and open with R
            letters = rep.witness.word().replace("0", "")
            assert letters == ("RB" * 6)[: len(letters)]


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
        for k in (1, 2, 3):
            assert alt_sigma(h, order, k).alt_value == reference.alt_sigma_by_enumeration(h, order, k)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(small_instances())
def test_alt_sigma_witness_is_first_optimal_word(instance):
    # the witness rule on its own, whatever order the walk takes
    h, order, k = instance
    rep = alt_sigma(h, order, k)
    assert (rep.alt_value, rep.witness) == first_optimal_word(h, order, k)


@st.composite
def dense_or_sparse_instances(draw):
    """(h, order, k): n <= 7, a shuffled ordering, k in 1..3, and edges of
    one of two kinds.  Dense inputs keep most 2- and 3-subsets, so each
    sign makes many edges monochromatic at once; sparse inputs hold at
    most n edges, so most vertices lie on one edge or none."""
    n = draw(st.integers(2, 7))
    if draw(st.booleans()):
        pool = [mask_of(c) for size in (2, 3) for c in combinations(range(1, n + 1), size)]
        dropped = draw(st.sets(st.sampled_from(pool), max_size=len(pool) // 4))
        edges = [e for e in pool if e not in dropped]
    else:
        edges = draw(st.lists(st.integers(1, (1 << n) - 1), unique=True, max_size=n))
    perm = draw(st.permutations(range(1, n + 1)))
    return Hypergraph(n, tuple(edges)), LinearOrder(tuple(perm)), draw(st.integers(1, 3))


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(dense_or_sparse_instances())
def test_alt_sigma_matches_enumeration_on_dense_and_sparse_inputs(instance):
    h, order, k = instance
    rep = alt_sigma(h, order, k)
    assert rep.alt_value == reference.alt_sigma_by_enumeration(h, order, k)
    assert (rep.alt_value, rep.witness) == first_optimal_word(h, order, k)


def _level_one_inputs(rng, count):
    """(h, order): seeded random inputs on up to 8 vertices under shuffled
    orderings, in three kinds in turn: mixed edge sizes with one-vertex
    edges, dense 2-uniform inputs and sparse 2- and 3-subsets."""
    for i in range(count):
        n = rng.randint(1, 8)
        if i % 3 == 0:
            edges = {1 << rng.randrange(n) for _ in range(rng.randint(0, 2))}
            edges |= {rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(0, 2 * n))}
        elif i % 3 == 1:
            edges = {mask_of(c) for c in combinations(range(1, n + 1), 2) if rng.random() < 0.7}
        else:
            sizes = [s for s in (2, 3) if s <= n] or [n]
            edges = {mask_of(rng.sample(range(1, n + 1), rng.choice(sizes))) for _ in range(n)}
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        yield Hypergraph(n, tuple(sorted(edges))), LinearOrder(tuple(perm))


def test_side_ceiling_at_level_one_matches_enumeration():
    # the k = 1 walk cuts a branch when no run of later slots, each on a
    # side that no edge blocks it from, can beat the best word; that cut
    # changes no maximum, no witness and no threshold decision
    for h, order in _level_one_inputs(random.Random(33), 300):
        rep = alt_sigma(h, order, 1)
        assert rep.alt_value == reference.alt_sigma_by_enumeration(h, order, 1), (h, order)
        assert (rep.alt_value, rep.witness) == first_optimal_word(h, order, 1), (h, order)
        for t in range(h.n + 2):
            outcome = bounds._AltSearch(h, 1).run(order.perm, t)
            assert outcome == (None if rep.alt_value >= t else (rep.alt_value, rep.witness)), (h, order, t)


def _walk_nodes(h, k):
    """Nodes that ``_AltSearch._walk`` visits for ``alt_sigma`` at the
    identity: calls of its inner ``walk``, counted by a profile hook."""
    nodes = 0

    def count(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "walk" and frame.f_code.co_filename == bounds.__file__:
            nodes += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        alt_sigma(h, LinearOrder.identity(h.n), k)
    finally:
        sys.setprofile(previous)
    return nodes


def test_side_ceiling_cuts_the_level_one_walk():
    # machine-independent work count, both passes of the walk: without the
    # side ceiling KG(12,3) took 1,798 nodes and the random input (that of
    # ``gen random -n 30 -e 200 --sizes 2..3 --seed 1``) 282,088; with it
    # 356 and 13,605 at the time of writing
    assert _walk_nodes(complete_uniform(12, 3), 1) <= 400
    assert _walk_nodes(random_hypergraph(30, 200, (2, 3), 1), 1) <= 15_000


def _largest_edge_free(h):
    full = (1 << h.n) - 1
    return max(s.bit_count() for s in range(full + 1) if not any(e & s == e for e in h.edges))


def _free_stop_inputs(rng, count):
    """(h, order): KG(m,r), disjoint unions of two of them and the inputs
    of ``_level_one_inputs``, in turn, on up to 8 vertices."""
    mixed = _level_one_inputs(rng, count)
    for i in range(count):
        if i % 3 == 0:
            m = rng.randint(1, 8)
            h = complete_uniform(m, rng.randint(1, m))
        elif i % 3 == 1:
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            left, right = complete_uniform(a, rng.randint(1, a)), complete_uniform(b, rng.randint(1, b))
            h = Hypergraph(a + b, left.edges + tuple(e << a for e in right.edges))
        else:
            yield next(mixed)
            continue
        perm = list(range(1, h.n + 1))
        rng.shuffle(perm)
        yield h, LinearOrder(tuple(perm))


def test_free_stop_at_level_one_matches_enumeration():
    # the k = 1 walk stops at best = 2 F_1 once no edge-free set of
    # best/2 + 1 vertices exists; the maximum, witness and threshold
    # decisions stay those of the full walk
    stopped = larger = 0
    for h, order in _free_stop_inputs(random.Random(36), 300):
        search = bounds._AltSearch(h, 1)
        alt_value, witness = search.run(order.perm)
        assert alt_value == reference.alt_sigma_by_enumeration(h, order, 1), (h, order)
        assert (alt_value, witness) == first_optimal_word(h, order, 1), (h, order)
        free = _largest_edge_free(h)
        found, refuted = search._free
        assert found <= free < refuted, (h, found, refuted)
        if refuted <= h.n:
            assert refuted == free + 1 == alt_value // 2 + 1, (h, order)
            stopped += 1
        # the search found an edge-free set larger than the best word's sides
        larger += found > alt_value // 2
        for t in range(h.n + 2):
            outcome = bounds._AltSearch(h, 1).run(order.perm, t)
            assert outcome == (None if alt_value >= t else (alt_value, witness)), (h, order, t)
    assert stopped > 50 and larger > 50


def test_free_stop_cuts_the_kneser_walk():
    # machine-independent work count: KG(12,3) took 356 nodes without the
    # stop at 2 F_1, and KG(16,5) 12,904
    assert _walk_nodes(complete_uniform(12, 3), 1) <= 40
    assert _walk_nodes(complete_uniform(16, 5), 1) <= 60


def test_alt_sigma_on_kg_16_5():
    # each vertex lies on C(15,4) = 1,365 edges, so the walk's edge test
    # works on 4,368-bit incidence masks
    rep = alt_sigma(complete_uniform(16, 5), LinearOrder.identity(16), 1)
    assert rep.alt_value == 8
    assert rep.witness.word() == "00000000RBRBRBRB"


@st.composite
def level_two_inputs(draw):
    """(h, order, words): n <= 7, a shuffled ordering and up to 20 sign
    words as (R vertices, B vertices), where h is random, an intersecting
    family (every edge holds vertex 1), a single edge, or edgeless."""
    n = draw(st.integers(1, 7))
    full = (1 << n) - 1
    shape = draw(st.sampled_from(("random", "intersecting", "single", "edgeless")))
    if shape == "random":
        edges = draw(st.lists(st.integers(1, full), unique=True, max_size=12))
    elif shape == "intersecting":
        rest = st.integers(0, full >> 1)
        edges = [m << 1 | 1 for m in draw(st.lists(rest, unique=True, min_size=1, max_size=12))]
    elif shape == "single":
        edges = [draw(st.integers(1, full))]
    else:
        edges = []
    words = []
    for signs in draw(st.lists(st.lists(st.sampled_from((0, 1, -1)), min_size=n, max_size=n), max_size=20)):
        reds = sum(1 << v for v, s in enumerate(signs) if s == 1)
        blues = sum(1 << v for v, s in enumerate(signs) if s == -1)
        words.append((reds, blues))
    perm = draw(st.permutations(range(1, n + 1)))
    return Hypergraph(n, tuple(edges)), LinearOrder(tuple(perm)), words


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(level_two_inputs())
def test_level_two_feasibility_matches_the_coloring_scan(instance):
    # k = 2 asks no coloring question: one search's clash masks, its
    # Kneser rows, must agree with a fresh 1-coloring decision on every
    # word and through a walk
    h, order, words = instance
    n, full = h.n, (1 << h.n) - 1
    search = bounds._AltSearch(h, 2)
    for reds, blues in words:
        survivors = sum(1 << i for i, e in enumerate(h.edges) if e & ~reds == 0 or e & ~blues == 0)
        assert search._chrom_ok(survivors) == reference.feasible_by_scan(h, reds, blues, 2), (reds, blues)
    # the walk grows survivor sets edge by edge on the same masks
    alt_value = search.run(order.perm)[0]
    assert alt_value == alt_sigma(h, order, 2).alt_value == reference.alt_sigma_by_enumeration(h, order, 2)
    # where every word is feasible, as for an intersecting family, the
    # walk reaches every slot
    if reference.feasible_by_scan(h, full, 0, 2) or all(e & 1 for e in h.edges):
        assert alt_value == n


def test_level_two_search_asks_no_coloring_question(monkeypatch):
    # machine-independent work count: the k = 2 search answers from clash
    # masks alone.  SG(11,2) is where the k = 2 seed is tight; on the
    # R(10,43) input the k = 2 search runs and a k = 1 repair wins
    cases = {schrijver_hypergraph(11, 2): (9, 2), random_hypergraph(10, 43, (2, 2), 3): (8, 1)}
    graphs = {h: kneser_graph(h) for h in cases}
    calls, levels = [], []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    chrom_ok = bounds._AltSearch._chrom_ok

    def counting_chrom_ok(self, survivors):
        levels.append(self.k)
        return chrom_ok(self, survivors)

    for module, name in (
        (bounds, "kneser_graph"),
        (bounds, "chromatic_at_most"),
        (kneser_module, "kneser_graph"),
        (coloring_module, "chromatic_at_most"),
    ):
        counting(module, name)
    monkeypatch.setattr(bounds._AltSearch, "_chrom_ok", counting_chrom_ok)
    for h, expected in cases.items():
        g = graphs[h]
        levels.clear()
        clique, ceiling = len(greedy_clique(g)), greedy_color_count(g)
        assert bounds.lower_bound(h, clique=clique, target=ceiling)[:2] == expected
        assert levels and set(levels) == {2}
    rep = alt_sigma(complete_uniform(16, 5), LinearOrder.identity(16), 2)
    assert (rep.alt_value, rep.witness.word()) == (9, "0000000RBRBRBRBR")
    assert calls == []


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(small_instances())
def test_run_threshold_is_a_decision(instance):
    # run(perm, t) is None exactly when the maximum reaches t, and is the
    # full answer otherwise; one search serves every t, as in alt_min
    h, order, k = instance
    search = bounds._AltSearch(h, k)
    full = search.run(order.perm)
    for t in range(h.n + 2):
        assert search.run(order.perm, t) == (None if full[0] >= t else full), t


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.data())
def test_shared_search_answers_as_a_fresh_one(data):
    # the words one search remembers from earlier runs change no outcome
    # of a later run
    n = data.draw(st.integers(1, 7))
    edges = data.draw(st.lists(st.integers(1, (1 << n) - 1), unique=True, max_size=10))
    h, k = Hypergraph(n, tuple(edges)), data.draw(st.integers(1, 2))
    thresholds = st.none() | st.integers(0, n + 1)
    runs = data.draw(st.lists(st.tuples(st.permutations(range(1, n + 1)), thresholds), min_size=1, max_size=12))
    shared = bounds._AltSearch(h, k)
    for perm, t in runs:
        assert shared.run(tuple(perm), t) == bounds._AltSearch(h, k).run(tuple(perm), t), (perm, t)


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


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(small_instances(), st.data())
def test_feasibility_downward_closed_property(instance, data):
    h, order, k = instance
    x = data.draw(st.builds(SignVector.from_word, st.text("RB0", min_size=h.n, max_size=h.n)))
    # drop entries in a drawn order until x is feasible, so the claim is never vacuous
    for p in data.draw(st.permutations(range(h.n))):
        if feasible(h, x, order, k):
            break
        x = SignVector(h.n, x.reds & ~(1 << p), x.blues & ~(1 << p))
    assert feasible(h, x, order, k)
    for y in sub_vectors(x):
        assert feasible(h, y, order, k)


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


def test_alt_min_golden_reports():
    # exact (alt, sigma, witness) pin the scan order and the 0-first branch order
    cases = {
        ("KG(6,2)", 1): (2, (1, 2, 3, 4, 5, 6), "0000RB"),
        ("KG(6,2)", 2): (3, (1, 2, 3, 4, 5, 6), "000RBR"),
        ("SG(7,2)", 1): (3, (1, 2, 3, 4, 5, 6, 7), "R0000BR"),
        ("SG(7,2)", 2): (3, (1, 2, 3, 4, 5, 6, 7), "0000RBR"),
        ("random", 1): (3, (1, 2, 4, 3, 5, 6), "R000BR"),
        ("random", 2): (4, (1, 2, 3, 4, 6, 5), "0RB0RB"),
        ("KG(8,3)", 1): (4, (1, 2, 3, 4, 5, 6, 7, 8), "0000RBRB"),
        ("SG(8,2)", 1): (3, (1, 2, 3, 4, 5, 6, 7, 8), "R00000BR"),
        ("C4+2", 1): (4, (1, 2, 4, 5, 3, 6), "0RBR0B"),
        ("C7", 1): (4, (1, 2, 4, 6, 3, 5, 7), "0R00BRB"),
        ("C7", 2): (5, (1, 2, 3, 5, 7, 4, 6), "0RBRB0R"),
        ("C8", 1): (4, (1, 3, 5, 2, 7, 4, 6, 8), "000R0BRB"),
        ("C8", 2): (5, (1, 2, 8, 5, 7, 4, 6, 3), "0RB00RBR"),
    }
    graphs = {
        "KG(6,2)": complete_uniform(6, 2),
        "SG(7,2)": schrijver_hypergraph(7, 2),
        "random": random_hypergraph(6, 10, (1, 3), 17),
        "KG(8,3)": complete_uniform(8, 3),
        "SG(8,2)": schrijver_hypergraph(8, 2),
        # a 4-cycle (twin classes {1,3} and {2,4}) and two isolated vertices
        "C4+2": Hypergraph.from_edge_sets(6, [[1, 2], [2, 3], [3, 4], [1, 4]]),
        # cycles: dihedral symmetry and no twins
        "C7": _cycle(7),
        "C8": _cycle(8),
    }
    for (name, k), expected in cases.items():
        rep = alt_min(graphs[name], k)
        assert (rep.alt_value, rep.sigma.perm, rep.witness.word()) == expected, (name, k)


def test_alt_min_at_level_chi_plus_one():
    # every word is feasible: an edgeless H at k = 1, an intersecting
    # family at k = 2 and KG(m,2) at chi + 1; the scan stops at the
    # identity, whose walk ends on the alternating word
    for h in (Hypergraph(4, ()), complete_uniform(5, 3), complete_uniform(4, 2), complete_uniform(5, 2)):
        chi = chromatic_number(kneser_graph(h)).number
        identity = LinearOrder.identity(h.n)
        rep = alt_min(h, chi + 1)
        assert (rep.alt_value, rep.sigma, rep.witness.word()) == (h.n, identity, "RBRBR"[: h.n])
        assert rep.alt_value == reference.alt_sigma_by_enumeration(h, identity, chi + 1)
        assert rep.bound == chi
        assert alt_sigma(h, identity, chi + 1).witness == rep.witness


def test_alt_min_empty_edges():
    h = Hypergraph(4, ())
    rep = alt_min(h, 1)
    assert rep.alt_value == 4
    assert rep.bound == 0
    assert chromatic_number(kneser_graph(h)).number == 0
    # a sample count below 1 is refused also where every word is feasible:
    # here, and for an intersecting family at k = 2
    for g, k, samples in ((h, 1, 0), (complete_uniform(9, 5), 2, -1)):
        with pytest.raises(ValueError, match="sample count must be positive"):
            alt_min(g, k, samples=samples)


def test_alt_min_exhaustive_cap():
    h = random_hypergraph(9, 5, (2, 3), 1)
    with pytest.raises(ValueError):
        alt_min(h, 1)  # 9! exceeds the default factorial cap
    rep = alt_min(h, 1, samples=8, seed=0)
    assert rep.sigma_mode == "sampled"
    # the cap holds also where every word is feasible and the identity
    # alone settles the minimum: edgeless, and an intersecting family at
    # k = 2.  A sampled scan stops at the identity
    for g, k in ((Hypergraph(9, ()), 1), (complete_uniform(9, 5), 2)):
        with pytest.raises(ValueError, match="cap"):
            alt_min(g, k)
        for samples in (1, 4):
            rep = alt_min(g, k, samples=samples)
            assert (rep.alt_value, rep.sigma, rep.witness.word()) == (9, LinearOrder.identity(9), "RBRBRBRBR")


def test_refused_scans_colour_nothing(monkeypatch):
    # KG(11,4) takes minutes to refute 4 colours, which both verify's chi
    # and the level-5 set-up ask for; a refused request must fail before
    # either, so a colouring call here fails the test instead of hanging
    def refuse(*_):
        raise AssertionError("a refused scan started colouring")

    monkeypatch.setattr(bounds, "chromatic_number", refuse)
    monkeypatch.setattr(bounds, "chromatic_at_most", refuse)
    h = complete_uniform(11, 4)
    for call, message in (
        (lambda: verify_theorem(h, 1, samples=0), "sample count must be positive"),
        (lambda: verify_theorem(h, 1), "cap"),
        (lambda: alt_min(h, 5), "cap"),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_alt_min_exhaustive_equals_scan():
    # the threshold/reversal/twin cuts must not change the answer: the
    # report is the lexicographically first minimising ordering
    for seed in range(4):
        h = random_hypergraph(5, 7, (1, 3), 400 + seed)
        for k in (1, 2):
            via_scan = min(
                (alt_sigma(h, LinearOrder(p), k).alt_value, p)
                for p in permutations(range(1, 6))
            )
            rep = alt_min(h, k)
            assert (rep.alt_value, rep.sigma.perm) == via_scan


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.data())
def test_alt_min_is_first_minimiser_with_planted_twins(data):
    n = data.draw(st.integers(3, 6))
    verts = data.draw(st.permutations(range(1, n + 1)))
    isolated = data.draw(st.integers(1, min(2, n - 1)))
    active = verts[isolated:]
    cuts = sorted(data.draw(st.sets(st.integers(1, len(active) - 1), max_size=2)) if len(active) > 1 else ())
    classes = [active[a:b] for a, b in zip([0, *cuts], [*cuts, len(active)])]
    # each edge type takes ``m`` members of each class in all possible
    # ways, so the edge set is closed under permutations within classes
    edges = set()
    for _ in range(data.draw(st.integers(1, 4))):
        counts = [data.draw(st.integers(0, len(c))) for c in classes]
        for parts in product(*(combinations(c, m) for c, m in zip(classes, counts))):
            if any(parts):
                edges.add(frozenset(v for part in parts for v in part))
    if not edges:
        edges.add(frozenset(classes[0]))
    h = Hypergraph.from_edge_sets(n, sorted(sorted(e) for e in edges))
    k = data.draw(st.integers(1, 3))
    first = min((alt_sigma(h, LinearOrder(p), k).alt_value, p) for p in permutations(range(1, n + 1)))
    rep = alt_min(h, k)
    assert (rep.alt_value, rep.sigma.perm) == first
    assert rep.witness == alt_sigma(h, rep.sigma, k).witness


def test_alt_min_scans_one_ordering_per_twin_arrangement(monkeypatch):
    # machine-independent work count: every vertex of KG(m,r) is a twin of
    # every other, so one ordering settles it; SG(7,2) has no twins, and
    # its dihedral group with reversal leaves 360 of the 7!/2 = 2,520
    # reversal-filtered orderings: the 192 orbit leaders and 168 others,
    # each with a smaller reverse image that starts at the same vertex
    calls = []
    run = bounds._AltSearch.run

    def counting(self, perm, threshold=None):
        calls.append(perm)
        return run(self, perm, threshold)

    monkeypatch.setattr(bounds._AltSearch, "run", counting)
    for h, expected in ((complete_uniform(8, 2), 1), (complete_uniform(8, 3), 1), (schrijver_hypergraph(7, 2), 360)):
        calls.clear()
        alt_min(h, 1)
        assert len(calls) == expected


@st.composite
def floor_instances(draw):
    """(h, k): n <= 7, one to eight distinct edges of sizes 1..4, k in 1..3."""
    n = draw(st.integers(1, 7))
    sized = [m for m in range(1, 1 << n) if m.bit_count() <= 4]
    edges = draw(st.lists(st.sampled_from(sized), unique=True, min_size=1, max_size=8))
    return Hypergraph(n, tuple(edges)), draw(st.integers(1, 3))


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(floor_instances(), st.integers(0, 3))
def test_ceiling_changes_no_report(instance, seed):
    # oracle: the scan without the theorem's floor; the DSATUR count is a
    # proven upper bound on chi, so stopping at its floor keeps alt, sigma
    # and witness in both modes
    h, k = instance
    assert alt_min(h, k, theorem_floor=True) == alt_min(h, k)
    assert alt_min(h, k, samples=12, seed=seed, theorem_floor=True) == alt_min(h, k, samples=12, seed=seed)


def test_scan_stops_at_the_floor_only_where_given_a_ceiling(monkeypatch):
    # machine-independent work count.  At k = 2 the half floor stops both
    # scans of SG(8,2) at the identity: the largest vertex set whose edges
    # (each of 2 vertices) pairwise intersect, such as {1, 3, 5}, has 3
    # vertices, the identity's alt.  At k = 1 its bound is chi - 1, so no
    # floor is met and the full scan of its 2,520 orderings, which hold one
    # per orbit of its dihedral group with reversal, stays.
    calls = []
    run = bounds._AltSearch.run

    def counting(self, perm, threshold=None):
        calls.append(perm)
        return run(self, perm, threshold)

    monkeypatch.setattr(bounds._AltSearch, "run", counting)
    h = schrijver_hypergraph(8, 2)
    for scan, expected in (
        (lambda: alt_min(h, 2, theorem_floor=True), 1),
        (lambda: alt_min(h, 1, theorem_floor=True), 2520),
        (lambda: verify_theorem(h, 2), 1),
    ):
        calls.clear()
        scan()
        assert len(calls) == expected


def test_theorem_floor_makes_one_dsatur_pass_only_where_the_scan_needs_it(monkeypatch):
    # machine-independent work count.  R(6,16) at k = 1: the identity's alt
    # is 5 and the half floor 3, so alt_min counts DSATUR colours once
    # (U = 2) and stops at the floor 6 + 1 - 1 - 2 = 4 after 4 orderings.
    # verify_theorem leaves that floor off, since the floor assumes the
    # theorem it checks, and scans 360 orderings without a DSATUR pass
    h = random_hypergraph(6, 16, (2, 4), 9)
    runs, passes = [], []
    run, real = bounds._AltSearch.run, greedy_color_count

    def counting_run(self, perm, threshold=None):
        runs.append(perm)
        return run(self, perm, threshold)

    def counting_pass(g):
        passes.append(g.vcount)
        return real(g)

    monkeypatch.setattr(bounds._AltSearch, "run", counting_run)
    for module in (bounds, coloring_module):
        monkeypatch.setattr(module, "greedy_color_count", counting_pass, raising=False)
    assert alt_min(h, 1, theorem_floor=True).alt_value == 4
    assert (len(runs), passes) == (4, [len(h.edges)])
    runs.clear()
    passes.clear()
    assert verify_theorem(h, 1).report.alt_value == 4
    assert (len(runs), passes) == (360, [])


def test_verify_stops_at_the_free_floor(monkeypatch):
    # machine-independent work count: the 8-cycle's half floor is 4 at
    # k = 1 (an independent set) and 5 at k = 2 (a path of two edges and
    # two more vertices, such as {1, 2, 3, 5, 7}), its minimum alt at both
    # levels, so its scan of 2,520 orderings stops at the first minimiser
    calls = []
    run = bounds._AltSearch.run

    def counting(self, perm, threshold=None):
        calls.append(perm)
        return run(self, perm, threshold)

    monkeypatch.setattr(bounds._AltSearch, "run", counting)
    for k, expected in ((1, 973), (2, 670)):
        calls.clear()
        check = verify_theorem(_cycle(8), k)
        assert len(calls) == expected
        assert (check.report.alt_value, check.bound, check.tight) == (3 + k, 4, True)


def _brute_one_sided_floor(h, k):
    # the largest vertex set whose one-sided word is feasible
    return max(s.bit_count() for s in range(1 << h.n) if reference.feasible_by_scan(h, s, 0, k))


def _brute_half_floor(h, k):
    # oracle at k <= 2: the largest vertex set S all of whose balanced
    # splits (ceil(|S|/2) vertices R, the rest B) are feasible
    best = 0
    for s in range(1 << h.n):
        size = s.bit_count()
        if size > best and all(
            reference.feasible_by_scan(h, mask_of(reds), s & ~mask_of(reds), k)
            for reds in combinations(vertices_of(s), (size + 1) // 2)
        ):
            best = size
    return best


def _assert_no_ordering_below(h, k, floor):
    # against the enumeration oracle up to n = 5, and against
    # ``alt_sigma`` at n = 6, where the oracle would take seconds per input
    for p in permutations(range(1, h.n + 1)):
        order = LinearOrder(p)
        if h.n <= 5:
            assert floor <= reference.alt_sigma_by_enumeration(h, order, k)
        else:
            assert floor <= alt_sigma(h, order, k).alt_value


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(small_instances())
def test_half_floor_is_the_largest_set_whose_balanced_splits_are_feasible(instance):
    # at k <= 2; at k = 3 it lies between the largest feasible one-sided
    # word and every ordering's alt
    h, _, k = instance
    half = bounds._half_floor(bounds._AltSearch(h, k), 0, h.n)
    if k <= 2:
        assert half == _brute_half_floor(h, k)
    else:
        assert _brute_one_sided_floor(h, k) <= half
    _assert_no_ordering_below(h, k, half)


@pytest.mark.parametrize(
    "edges, k",
    [([[1, 2, 3]], 1), ([[1], [2, 3, 4]], 2)],
    ids=["123-k1", "1-234-k2"],
)
def test_half_floor_passes_the_one_sided_floor(edges, k):
    # on 4 vertices the largest feasible one-sided word has 3, but a
    # balanced split of all 4 keeps no edge of 3 vertices, so every split
    # is feasible and no ordering has alt below 4
    h = Hypergraph.from_edge_sets(4, edges)
    half = bounds._half_floor(bounds._AltSearch(h, k), 0, h.n)
    assert (_brute_one_sided_floor(h, k), half, _brute_half_floor(h, k)) == (3, 4, 4)
    _assert_no_ordering_below(h, k, half)


def test_verify_stops_at_the_half_floor(monkeypatch):
    # machine-independent work count: the 7-vertex input's half floor at
    # k = 1 is 6 (the one edge inside {1, 2, 3, 4, 6, 7} has 4 vertices),
    # its minimum alt, which its second ordering reaches; the largest
    # feasible one-sided word has 5 vertices, and stopping there scanned
    # all 2,520 orderings.  The two 4-vertex inputs of
    # ``test_half_floor_passes_the_one_sided_floor`` stop at the identity,
    # where stopping at 3 scanned 3 orderings
    calls = []
    run = bounds._AltSearch.run

    def counting(self, perm, threshold=None):
        calls.append(perm)
        return run(self, perm, threshold)

    monkeypatch.setattr(bounds._AltSearch, "run", counting)
    h = Hypergraph.from_edge_sets(7, [[1, 3, 4, 6], [3, 5, 6], [3, 5, 6, 7], [4, 5, 6], [4, 5, 7]])
    check = verify_theorem(h, 1)
    assert len(calls) == 2
    rep = check.report
    assert (rep.alt_value, rep.sigma.perm, rep.witness.word(), check.chi) == (6, (1, 2, 3, 4, 5, 7, 6), "RB0RBRB", 1)
    for edges, k in (([[1, 2, 3]], 1), ([[1], [2, 3, 4]], 2)):
        calls.clear()
        verify_theorem(Hypergraph.from_edge_sets(4, edges), k)
        assert len(calls) == 1


def test_alt_below_the_free_floor_is_an_internal_error(monkeypatch):
    # a walk that answered too low an alt would contradict downward
    # closure; the scan raises rather than report it.  The 8-cycle's
    # half floor at k = 1 is 4, and the patched threshold runs answer 3.
    run = bounds._AltSearch.run

    def too_low(self, perm, threshold=None):
        if threshold is None:
            return run(self, perm)
        return 3, SignVector(self.h.n, 0b101, 0b10)

    monkeypatch.setattr(bounds._AltSearch, "run", too_low)
    with pytest.raises(AssertionError, match="below the half floor 4"):
        alt_min(_cycle(8), 1)


def _filtered_stream(n, classes):
    # oracle: every permutation, kept when it precedes its reverse and
    # lists each class in increasing order
    stream = (p for p in permutations(range(1, n + 1)) if n == 1 or p[0] < p[-1])
    for c in classes:
        for u, v in zip(c, c[1:]):
            stream = filter(lambda p, u=u, v=v: p.index(u) < p.index(v), stream)
    return list(stream)


def _with_singletons(n, classes):
    # the shape of ``_twin_classes``: ``classes`` and a singleton for each
    # other vertex, each in increasing order, ordered by least member
    placed = {v for c in classes for v in c}
    singletons = [(v,) for v in range(1, n + 1) if v not in placed]
    return sorted([tuple(sorted(c)) for c in classes if c] + singletons)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.data())
def test_ordering_stream_equals_filtered_scan(data):
    n = data.draw(st.integers(1, 7))
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    classes = _with_singletons(n, [[v for v in range(1, n + 1) if labels[v - 1] == c] for c in range(n)])
    assert list(bounds._ordering_stream(n, classes)) == _filtered_stream(n, classes)


@pytest.mark.parametrize(
    "classes",
    [[(1, 2)], [(7, 8)], [(1, 8)], [tuple(range(1, 9))], []],
    ids=["1-2", "7-8", "1-8", "all", "none"],
)
def test_ordering_stream_equals_filtered_scan_at_cap(classes):
    classes = _with_singletons(8, classes)
    assert list(bounds._ordering_stream(8, classes)) == _filtered_stream(8, classes)


def test_ordering_stream_draws_at_most_n_orderings_on_kneser(monkeypatch):
    # machine-independent work count: the orderings drawn from
    # ``permutations``.  Every vertex of KG(8,r) is a twin of every other,
    # so the stream places n - 1 of them and draws one; a filter over all
    # orderings draws 8! = 40,320.  SG(7,2) has no twins, and its 13 other
    # automorphisms leave 360 of its 7!/2 = 2,520 orderings.
    drawn = 0

    def counting(items):
        nonlocal drawn
        for p in permutations(items):
            drawn += 1
            yield p

    monkeypatch.setattr(bounds, "permutations", counting)
    for h in (complete_uniform(8, 2), complete_uniform(8, 3)):
        drawn = 0
        alt_min(h, 1)
        assert drawn <= h.n
    sg = schrijver_hypergraph(7, 2)
    classes = bounds._twin_classes(sg)
    automorphisms = bounds._class_automorphisms(sg, classes)
    assert len(automorphisms) == 13
    assert sum(1 for _ in bounds._ordering_stream(7, classes, automorphisms)) == 360


def _brute_automorphisms(h):
    """Aut(H) by brute force, each g a tuple with g[v] the image of v and g[0] = 0."""
    edges = set(h.edges)
    group = []
    for images in permutations(range(1, h.n + 1)):
        g = (0, *images)
        if all(mask_of(g[v] for v in vertices_of(e)) in edges for e in h.edges):
            group.append(g)
    return group


def _brute_class_automorphisms(h, classes):
    """The automorphisms of H other than the identity that keep every twin
    class in increasing order, by brute force."""
    identity = tuple(range(h.n + 1))
    return {
        g
        for g in _brute_automorphisms(h)
        if g != identity and all(g[u] < g[v] for c in classes for u, v in zip(c, c[1:]))
    }


def _brute_leaders(h):
    """The lexicographically least ordering of each orbit of Aut(H) x reversal."""
    group = _brute_automorphisms(h)
    seen, leaders = set(), []
    for p in permutations(range(1, h.n + 1)):
        if p not in seen:
            leaders.append(p)
            for g in group:
                image = tuple(g[v] for v in p)
                seen.update((image, image[::-1]))
    return leaders


@st.composite
def symmetric_instances(draw):
    """(h, k): n <= 6 and k in 1..3; H is random, a cycle or disjoint
    copies of one small hypergraph, the last two with relabelled vertices."""
    kind = draw(st.sampled_from(["random", "cycle", "copies"]))
    if kind == "random":
        n = draw(st.integers(1, 6))
        edges = draw(st.lists(st.integers(1, (1 << n) - 1), unique=True, min_size=1, max_size=8))
    else:
        if kind == "cycle":
            n = draw(st.integers(3, 6))
            edges = _cycle(n).edges
        else:
            size = draw(st.integers(1, 3))
            copies = draw(st.integers(2, 6 // size))
            n = size * copies
            base = draw(st.lists(st.integers(1, (1 << size) - 1), unique=True, min_size=1, max_size=4))
            edges = [e << (c * size) for c in range(copies) for e in base]
        label = (0, *draw(st.permutations(range(1, n + 1))))
        edges = [mask_of(label[v] for v in vertices_of(e)) for e in edges]
    return Hypergraph(n, tuple(edges)), draw(st.integers(1, 3))


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.one_of(symmetric_instances(), floor_instances()))
def test_alt_min_is_first_minimiser_under_symmetry(instance):
    # oracle: alt_sigma under all n! orderings, n <= 7; the report is the
    # first minimiser, with its own witness
    h, k = instance
    orderings = permutations(range(1, h.n + 1))
    alt_value, sigma = min((alt_sigma(h, LinearOrder(p), k).alt_value, p) for p in orderings)
    witness = alt_sigma(h, LinearOrder(sigma), k).witness
    assert alt_min(h, k) == bounds.AltReport(alt_value, witness, LinearOrder(sigma), k, "exhaustive")


def _brute_twin_classes(h):
    """For each vertex u, the v whose swap with u maps E(H) onto itself,
    each such set once, ordered by least member."""
    edges = set(h.edges)

    def twins(u, v):
        swap = {u: v, v: u}
        return {mask_of(swap.get(w, w) for w in vertices_of(e)) for e in edges} == edges

    return sorted({tuple(v for v in range(1, h.n + 1) if twins(u, v)) for u in range(1, h.n + 1)})


@st.composite
def sparse_instances(draw):
    """H with n <= 7 and at most 6 edges, so some vertices are often isolated."""
    n = draw(st.integers(1, 7))
    return Hypergraph(n, tuple(draw(st.lists(st.integers(1, (1 << n) - 1), unique=True, max_size=6))))


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.one_of(symmetric_instances().map(lambda instance: instance[0]), sparse_instances()))
def test_twin_classes_match_the_definition(h):
    # oracle: u and v are twins when swapping them maps E(H) onto itself,
    # tested for every pair; isolated vertices are twins of each other
    assert bounds._twin_classes(h) == _brute_twin_classes(h)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(symmetric_instances())
def test_ordering_stream_holds_every_orbit_leader(instance):
    # oracles: Aut(H) and its orbit leaders by brute force.  The class
    # automorphisms are the automorphisms other than the identity that
    # keep every twin class in increasing order.  The stream increases
    # strictly and holds every leader.  It is the twin stream without each
    # ordering that some class automorphism g maps lower, or whose reverse
    # image under g, twin-sorted, starts lower.
    h, _ = instance
    classes = bounds._twin_classes(h)
    automorphisms = bounds._class_automorphisms(h, classes)
    assert len(set(automorphisms)) == len(automorphisms)
    assert set(automorphisms) == _brute_class_automorphisms(h, classes)
    stream = list(bounds._ordering_stream(h.n, classes, automorphisms))
    assert all(p < q for p, q in zip(stream, stream[1:]))
    leaders = _brute_leaders(h)
    assert set(leaders) <= set(stream)
    lead = {v: c[0] for c in classes for v in c}
    assert stream == [
        p
        for p in _filtered_stream(h.n, classes)
        if all(tuple(g[v] for v in p) > p and lead[g[p[-1]]] >= p[0] for g in automorphisms)
    ]


def _regular_instance(seed):
    """A 7-vertex H with edges of sizes 2..3 in which every vertex lies in
    equally many edges, drawn greedily from ``seed``."""
    rng = random.Random(seed)
    degree = rng.choice((2, 3))
    while True:
        count, edges = [0] * 8, set()
        while len(unfilled := [v for v in range(1, 8) if count[v] < degree]) > 1:
            e = mask_of(rng.sample(unfilled, min(len(unfilled), rng.choice((2, 3)))))
            if e in edges:
                break
            edges.add(e)
            for v in vertices_of(e):
                count[v] += 1
        if not unfilled:
            return Hypergraph(7, tuple(sorted(edges)))


@pytest.mark.parametrize(
    "h",
    [_regular_instance(seed) for seed in range(8)]
    + [_cycle(7)]
    + [random_hypergraph(7, 9, (2, 3), seed) for seed in range(3)],
    ids=[f"regular-{seed}" for seed in range(8)] + ["cycle"] + [f"random-{seed}" for seed in range(3)],
)
def test_class_automorphisms_at_seven_vertices(h):
    # oracle: brute force over all 7! maps.  Every vertex of a regular input
    # has the same degree, so the co-degree keys leave most classes several
    # candidates, and the backtracking alone must find the automorphisms
    classes = bounds._twin_classes(h)
    automorphisms = bounds._class_automorphisms(h, classes)
    assert len(set(automorphisms)) == len(automorphisms)
    assert set(automorphisms) == _brute_class_automorphisms(h, classes)


def test_remembered_words_spare_most_walks(monkeypatch):
    # machine-independent work count: a word that reached the minimum under
    # one ordering reaches it under most of the next ones, so few of the
    # 2,520 or 360 orderings scanned get walked (4, 4 and 3 at the time of
    # writing), and the search holds at most REMEMBERED_WORDS words
    walks, sizes = [], []
    walk, remember = bounds._AltSearch._walk, bounds._AltSearch._remember

    def counting_walk(self, perm, limit):
        walks.append(perm)
        return walk(self, perm, limit)

    def counting_remember(self, perm, reds, blues):
        remember(self, perm, reds, blues)
        sizes.append(len(self._words))

    monkeypatch.setattr(bounds._AltSearch, "_walk", counting_walk)
    monkeypatch.setattr(bounds._AltSearch, "_remember", counting_remember)
    sg82, sg72 = schrijver_hypergraph(8, 2), schrijver_hypergraph(7, 2)
    for h, k, ceiling in ((sg82, 1, 8), (sg72, 1, 8), (sg82, 2, 6)):
        walks.clear()
        alt_min(h, k)
        assert len(walks) <= ceiling
    assert max(sizes) == bounds.REMEMBERED_WORDS


def test_walks_leave_no_reference_cycles():
    # each walk, ordering stream and automorphism search frees its recursive
    # closures by reference counting; a cycle left per walk made the
    # collector run every few requests.  The last exhaustive scan input
    # has the twins 7, 8 and the reflection 1-6, 2-5, 3-4.
    h = schrijver_hypergraph(8, 2)
    pairs = [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [6, 8], [1, 7], [1, 8]]
    scanned = (random_hypergraph(7, 20, (2, 4), 3), h, Hypergraph.from_edge_sets(8, pairs))
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for k in (1, 2):
            for p in islice(permutations(range(1, 9)), 40):
                alt_sigma(h, LinearOrder(p), k)
        assert gc.collect() == 0
        for g in scanned:
            for _ in range(5):
                alt_min(g, 1)
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_sampled_mode_bounds_exhaustive():
    for seed in range(4):
        h = random_hypergraph(6, 8, (1, 3), 500 + seed)
        exact = alt_min(h, 1).alt_value
        sampled = alt_min(h, 1, samples=10, seed=3).alt_value
        assert sampled >= exact  # a sampled minimum can only overshoot


def test_sampled_alt_min_draws_orderings_lazily():
    # the identity already reaches alt 0, so the scan stops before the first
    # shuffle; a sample list built up front would hold 10**12 orderings
    h = Hypergraph.from_edge_sets(3, [[1], [2], [3]])
    rep = alt_min(h, 1, samples=10**12)
    assert (rep.alt_value, rep.sigma.perm, rep.sigma_mode) == (0, (1, 2, 3), "sampled")


def test_sampled_scan_stops_at_the_identity_where_every_word_is_feasible(monkeypatch):
    # at k <= 2 a sampled scan whose identity reaches alt n asks whether
    # the whole vertex set is free: H edgeless at k = 1, its edges
    # pairwise intersecting at k = 2.  If so, every ordering has alt n and
    # no shuffle is run.  At k >= 3 that question would colour the whole
    # Kneser graph, so it is never asked, and the shuffles are run
    runs = []
    run, decide = bounds._AltSearch.run, coloring_module._decide

    def counting_run(self, perm, threshold=None):
        runs.append(perm)
        return run(self, perm, threshold)

    def refusing(g, t):
        if g.vcount in (6, 220):
            raise AssertionError(f"asked to {t}-colour the whole Kneser graph")
        return decide(g, t)

    monkeypatch.setattr(bounds._AltSearch, "run", counting_run)
    monkeypatch.setattr(coloring_module, "_decide", refusing)
    star = Hypergraph.from_edge_sets(9, [[1, 2], [1, 3], [1, 4], [2, 3, 4]])
    path = Hypergraph.from_edge_sets(5, [[1, 2], [2, 3]])
    for h, k in ((Hypergraph(9, ()), 1), (star, 2), (complete_uniform(9, 5), 2), (path, 2)):
        runs.clear()
        rep = alt_min(h, k, samples=4)
        assert (rep.alt_value, rep.sigma, rep.sigma_mode) == (h.n, LinearOrder.identity(h.n), "sampled")
        assert rep.witness.word() == "RBRBRBRBR"[: h.n]
        assert runs == [rep.sigma.perm]
    # the alternating word is feasible, but not every word: the scan goes
    # on, and a shuffle goes below alt n
    h = Hypergraph.from_edge_sets(5, [[1, 2]])
    runs.clear()
    rep = alt_min(h, 1, samples=6)
    scanned = list(runs)
    assert len(scanned) == 7
    assert rep.alt_value == min(alt_sigma(h, LinearOrder(p), 1).alt_value for p in scanned) == 4
    # KG(4,2) at chi + 1 = 3 and KG(12,3) at k = 7: every shuffle is run
    for h, k in ((complete_uniform(4, 2), 3), (complete_uniform(12, 3), 7)):
        runs.clear()
        rep = alt_min(h, k, samples=2)
        assert (rep.alt_value, rep.sigma, rep.witness.word()) == (h.n, LinearOrder.identity(h.n), "RB" * (h.n // 2))
        assert len(runs) == 3


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


def seed_of(h):
    """``lower_bound`` as ``chromatic`` calls it."""
    g = kneser_graph(h)
    return bounds.lower_bound(h, clique=len(greedy_clique(g)), target=greedy_color_count(g))


def test_seed_bound_is_proven_by_its_ordering_and_at_most_chi():
    # random inputs on both sides of the clique gate and the ceiling, and
    # 2-subset inputs on which some shuffled ordering beats the identity
    cases = [random_hypergraph(4 + s % 4, 1 + s % 14, (1, 3), 500 + s) for s in range(60)]
    cases += [random_hypergraph(7 + s % 3, 14 + s % 3 * 6, (2, 2), 700 + s) for s in range(30)]
    raised = 0
    for h in cases:
        g = kneser_graph(h)
        clique, ceiling = len(greedy_clique(g)), greedy_color_count(g)
        bound, k, perm = bounds.lower_bound(h, clique=clique, target=ceiling)
        assert bound == (alt_sigma(h, LinearOrder(perm), k).bound if k else clique)
        identity = LinearOrder.identity(h.n)
        b1, b2 = alt_sigma(h, identity, 1).bound, alt_sigma(h, identity, 2).bound
        first = (b2, 2, identity.perm) if b2 > b1 else (b1, 1, identity.perm)
        assert max(first[0], clique) <= bound <= chromatic_number(g).number <= ceiling
        if first[0] < clique or first[0] >= ceiling or bound == first[0]:
            # the scan did not run, or no shuffle raised the bound; only a
            # strict raise replaces the clique
            assert (bound, k, perm) == (first if first[0] > clique else (clique, 0, None))
        else:
            assert k == 1 and perm != identity.perm
            raised += 1
        # the gate closes on a larger clique, and the target alone keeps
        # the identity bound
        assert bounds.lower_bound(h, clique=first[0] + 1, target=ceiling + 1) == (first[0] + 1, 0, None)
        assert bounds.lower_bound(h, clique=0, target=first[0]) == first
    assert raised >= 20
    assert seed_of(Hypergraph(4, ())) == (0, 0, None)


def test_lower_bound_at_its_target_searches_no_ordering(monkeypatch):
    # a clique that already reaches the target is the bound, at k = 0,
    # whatever the orderings would give
    calls = []
    run = bounds._AltSearch.run

    def counting_run(self, perm, threshold=None):
        calls.append(perm)
        return run(self, perm, threshold)

    monkeypatch.setattr(bounds._AltSearch, "run", counting_run)
    cases = [complete_uniform(m, r) for m in range(2, 9) for r in range(1, m // 2 + 1)]
    cases += [random_hypergraph(6 + s % 4, 8 + s % 5 * 4, (2, 3), 400 + s) for s in range(20)]
    for h in cases:
        clique = len(greedy_clique(kneser_graph(h)))
        for target in range(clique + 1):
            assert bounds.lower_bound(h, clique=clique, target=target) == (clique, 0, None)
        assert bounds.lower_bound(h, clique=clique + 5, target=clique + 5) == (clique + 5, 0, None)
    assert calls == []


def test_seed_bound_is_tight_on_kneser_and_schrijver_families():
    # k = 1 is tight on KG(m,r); on SG(m,r), r >= 2, only k = 2 is, and no
    # shuffle can pass chi, so the identity stays the proof, except where
    # the greedy clique is already chi (r = 1 or m = 2r)
    for m in range(2, 10):
        for r in range(1, m // 2 + 1):
            chi, identity = m - 2 * r + 2, tuple(range(1, m + 1))
            if r == 1 or m == 2 * r:
                assert seed_of(complete_uniform(m, r)) == seed_of(schrijver_hypergraph(m, r)) == (chi, 0, None)
                continue
            assert seed_of(complete_uniform(m, r)) == (chi, 1, identity)
            assert seed_of(schrijver_hypergraph(m, r)) == (chi, 2, identity)


def _cut_seed(h, clique=None):
    """``lower_bound`` as ``chromatic`` calls it, with the cut colouring's
    palette as the target, and the greedy clique unless ``clique`` is set."""
    if clique is None:
        clique = len(greedy_clique(kneser_graph(h)))
    ceiling = kneser_module.cut_coloring(h).palette
    return bounds.lower_bound(h, clique=clique, target=ceiling), ceiling


def test_seed_bound_is_never_below_the_shuffles():
    # the repairs come before the same shuffles, so the seed reaches at
    # least what the identity and the shuffles alone give, up to the
    # ceiling; a clique of 0 lets every scan run
    cases = [random_hypergraph(8 + s % 4, 20 + s % 4 * 8, (2, 2), 900 + s) for s in range(32)]
    cases += [random_hypergraph(6 + s % 5, 6 + s % 5 * 3, (1, 4), 950 + s) for s in range(32)]
    raised = 0
    for h in cases:
        (bound, k, perm), ceiling = _cut_seed(h, clique=0)
        assert bound == alt_sigma(h, LinearOrder(perm), k).bound
        orderings = [LinearOrder.identity(h.n), *map(LinearOrder, bounds._seed_orderings(h.n))]
        shuffled = max(alt_sigma(h, order, 1).bound for order in orderings)
        floor = max(shuffled, alt_sigma(h, orderings[0], 2).bound)
        assert bound >= min(ceiling, floor)
        raised += bound > floor
    assert raised >= 5


def test_repairs_gather_one_side_larger_first():
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randint(1, 12)
        perm = tuple(rng.sample(range(1, n + 1), n))
        signs = bytes(rng.choice(b"RB\x00") for _ in range(n))
        counts = {side: signs.count(side) for side in b"RB"}
        sides = sorted((side for side in b"RB" if counts[side]), key=lambda side: -counts[side])
        moves = list(bounds._repairs(perm, signs))
        assert len(moves) == 2 * len(sides)
        for i, move in enumerate(moves):
            side = sides[i // 2]
            block = [v for v, s in zip(perm, signs) if s == side]
            rest = [v for v, s in zip(perm, signs) if s != side]
            assert sorted(move) == sorted(perm)
            start = move.index(block[0])
            assert list(move[start : start + len(block)]) == block
            assert [v for v in move if v not in block] == rest
            # at the side's first slot, then ending at its last
            assert start == (signs.index(side) if i % 2 == 0 else signs.rindex(side) + 1 - len(block))


def test_repairs_reach_the_seed_in_a_few_walks(monkeypatch):
    # machine-independent work count: from the word that beats the
    # identity, a few repairs reach chi = 8 on these 2-subset inputs, where
    # the shuffles took 61 runs (seed 3) or ended at 7 after 130 (seed 31)
    calls = []
    run = bounds._AltSearch.run

    def counting_run(self, perm, threshold=None):
        calls.append(perm)
        return run(self, perm, threshold)

    monkeypatch.setattr(bounds._AltSearch, "run", counting_run)
    assert _cut_seed(random_hypergraph(10, 43, (2, 2), 3))[0][:2] == (8, 1)
    assert len(calls) <= 8
    assert _cut_seed(random_hypergraph(10, 43, (2, 2), 31)) == ((8, 1, (1, 3, 8, 2, 4, 5, 6, 7, 9, 10)), 8)


def test_chromatic_number_from_the_seed_matches_the_full_ladder():
    cases = [random_hypergraph(4 + s % 5, 1 + s % 14, (1, 3), 600 + s) for s in range(40)]
    cases += [random_hypergraph(7 + s % 3, 14 + s % 3 * 6, (2, 2), 800 + s) for s in range(30)]
    cases += [f(m, r) for m in range(2, 10) for r in range(1, m // 2 + 1) for f in (complete_uniform, schrijver_hypergraph)]
    for h in cases:
        g = kneser_graph(h)
        assert chromatic_number(g, lower=seed_of(h)[0]) == chromatic_number(g)
