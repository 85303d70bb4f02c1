"""Acceptance suite: one test per release criterion, every value exact.

Each test prints a single PASS line with its runtime (visible with -s or
on failure); run the file with ``pytest tests/test_acceptance.py -v``.
"""

import math
import random
import time

from altermatic import (
    AuditContext,
    Coloring,
    LinearOrder,
    SignVector,
    Witness,
    alt,
    alt_sigma,
    audit,
    chromatic_number,
    complete_uniform,
    kneser_graph,
    random_hypergraph,
    schrijver_hypergraph,
    support_size,
    verify_theorem,
    verify_witness,
)
from altermatic import reference
from helpers import all_sign_vectors, sub_vectors

KNESER_FAMILY = ((4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (6, 3), (7, 3))
SCHRIJVER_FAMILY = ((4, 2), (5, 2), (6, 2), (7, 2), (6, 3))


def announce(number: int, started: float, detail: str) -> None:
    print(f"ACCEPTANCE {number} PASS ({time.perf_counter() - started:.1f}s): {detail}")


def seeded_instance(trial: int):
    """Deterministic random instance: n <= 9, at most 20 edges of size 1..4."""
    rng = random.Random(9000 + trial)
    n = rng.randint(3, 9)
    sizes = (1, min(4, n))
    available = sum(
        math.comb(n, s) for s in range(sizes[0], sizes[1] + 1)
    )
    ecount = rng.randint(1, min(20, available))
    return random_hypergraph(n, ecount, sizes, seed=13_000 + trial)


def test_criterion_1_alternation_word_example():
    started = time.perf_counter()
    x = SignVector.from_word("RRBB0R0RB")
    assert alt(x) == 4
    assert support_size(x) == 7
    announce(1, started, "alt(RRBB0R0RB) = 4, support 7")


def test_criterion_2_kneser_family_chromatic_numbers():
    started = time.perf_counter()
    for m, r in KNESER_FAMILY:
        number, witness = chromatic_number(kneser_graph(complete_uniform(m, r)))
        assert number == m - 2 * r + 2, (m, r, number)
        assert witness.colors_used == number
    announce(2, started, f"chi(KG(m,r)) = m-2r+2 for {KNESER_FAMILY}")


def test_criterion_3_altermatic_tightness_on_kneser():
    started = time.perf_counter()
    for m, r in KNESER_FAMILY:
        h = complete_uniform(m, r)
        order = LinearOrder.identity(m)
        rep = alt_sigma(h, order, 1)
        assert rep.alt_value == 2 * r - 2, (m, r, rep.alt_value)
        assert rep.bound == m - 2 * r + 2
        if m <= 7:
            assert reference.alt_sigma_by_enumeration(h, order, 1) == 2 * r - 2
    announce(3, started, "alt under identity = 2r-2, bound = m-2r+2 = chi; oracle-checked for m <= 7")


def test_criterion_4_schrijver_family_chromatic_numbers():
    started = time.perf_counter()
    for m, r in SCHRIJVER_FAMILY:
        number = chromatic_number(kneser_graph(schrijver_hypergraph(m, r))).number
        assert number == m - 2 * r + 2, (m, r, number)
    announce(4, started, f"chi of the stable families equals m-2r+2 for {SCHRIJVER_FAMILY}")


def test_criterion_5_bound_below_chi_on_random_instances():
    started = time.perf_counter()
    checked = 0
    for trial in range(200):
        h = seeded_instance(trial)
        samples = None if h.n <= 7 else 32
        for k in (1, 2):
            check = verify_theorem(h, k, samples=samples, seed=trial)
            assert check.holds, (trial, k, check)
            checked += 1
    announce(5, started, f"bound <= chi on {checked} (instance, k) checks over 200 seeded hypergraphs")


def test_criterion_6_pruned_search_equals_enumeration():
    started = time.perf_counter()
    for trial in range(50):
        rng = random.Random(20_000 + trial)
        n = rng.randint(3, 7)
        available = sum(math.comb(n, s) for s in range(1, min(4, n) + 1))
        h = random_hypergraph(n, rng.randint(1, min(20, available)), (1, min(4, n)), seed=21_000 + trial)
        order = LinearOrder.identity(n)
        for k in (1, 2, 3):
            fast = alt_sigma(h, order, k).alt_value
            slow = reference.alt_sigma_by_enumeration(h, order, k)
            assert fast == slow, (trial, k, fast, slow)
    announce(6, started, "pruned search equals full ternary enumeration, 50 instances, k in {1,2,3}")


def test_criterion_7_level_invariants_under_proper_colorings():
    started = time.perf_counter()
    for trial in range(20):
        rng = random.Random(30_000 + trial)
        n = rng.randint(3, 6)
        available = sum(math.comb(n, s) for s in range(1, min(4, n) + 1))
        h = random_hypergraph(n, rng.randint(1, min(12, available)), (1, min(4, n)), seed=31_000 + trial)
        c = chromatic_number(kneser_graph(h)).coloring
        ctx = AuditContext(h, c, 1)
        root = ctx.level(0, 0)
        assert root == 1
        levels = {}
        for x in all_sign_vectors(n):
            lv = ctx.level(x.reds, x.blues)
            assert isinstance(lv, int), (trial, x)
            levels[(x.reds, x.blues)] = lv
            if alt(x) > ctx.alt_value:
                assert abs(lv) >= ctx.alt_value + 2, (trial, x)
        for y in all_sign_vectors(n):
            ly = levels[(y.reds, y.blues)]
            for x in sub_vectors(y):
                lx = levels[(x.reds, x.blues)]
                assert abs(lx) <= abs(ly), (trial, x, y)
                assert lx + ly != 0, (trial, x, y)
    announce(7, started, "root level 1, monotone magnitude, no antipodal nesting, level jump; 20 instances")


def test_criterion_8_audit_always_extracts_witness():
    started = time.perf_counter()
    trials = 0
    for m in (4, 5, 6):
        h = complete_uniform(m, 2)
        alt_i = alt_sigma(h, LinearOrder.identity(m), 1).alt_value
        palette = m - alt_i + 1 - 2
        assert palette == m - 3
        per_family = 34 if m == 4 else 33
        for i in range(per_family):
            rng = random.Random(40_000 + 100 * m + i)
            values = [rng.randint(1, palette) for _ in h.edges]
            for j, pos in enumerate(rng.sample(range(len(h.edges)), palette)):
                values[pos] = j + 1  # every color appears
            c = Coloring(tuple(values), palette)
            w = audit(h, c, 1)
            assert isinstance(w, Witness), (m, i)
            assert verify_witness(w, h, c), (m, i)
            assert h.edges[w.edge_a] & h.edges[w.edge_b] == 0
            assert c.assignment[w.edge_a] == c.assignment[w.edge_b] == w.color
            trials += 1
    assert trials == 100
    announce(8, started, "100 audits of regime-sized colorings all returned verified witnesses")


def test_criterion_9_neighbor_symmetry_and_base_case():
    started = time.perf_counter()
    instances = [
        (complete_uniform(4, 2), "proper", 1),
        (complete_uniform(4, 2), "ones", 1),
        (complete_uniform(3, 1), "proper", 1),
        (schrijver_hypergraph(4, 2), "proper", 1),
        (random_hypergraph(4, 5, (1, 3), 3), "proper", 1),
        (random_hypergraph(4, 5, (1, 3), 3), "ones", 1),
        (random_hypergraph(4, 6, (1, 3), 12), "proper", 2),
        (random_hypergraph(3, 3, (1, 2), 5), "proper", 1),
    ]
    for h, colorize, k in instances:
        if colorize == "proper":
            c = chromatic_number(kneser_graph(h)).coloring
        else:
            c = Coloring((1,) * len(h.edges), 1)
        stats = reference.enumerate_audit_graph(h, c, k)
        for seq, ns in stats.neighbor_map.items():
            for q in ns:
                if q in stats.neighbor_map:
                    assert seq in stats.neighbor_map[q], (seq, q)
        assert stats.neighbor_map[()] == ((1,),)
    announce(9, started, f"neighbor relation symmetric, empty chain has the single neighbor (+1); {len(instances)} instances")
