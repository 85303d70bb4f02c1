"""Shared generators for the test suite."""

import random
from itertools import product

from altermatic import Hypergraph, LinearOrder, SignVector, SimpleGraph, apply_order, reference


def random_sign_vector(rng: random.Random, n: int) -> SignVector:
    reds = blues = 0
    for p in range(n):
        r = rng.random()
        if r < 1 / 3:
            reds |= 1 << p
        elif r < 2 / 3:
            blues |= 1 << p
    return SignVector(n, reds, blues)


def all_sign_vectors(n: int):
    for code in range(3**n):
        reds = blues = 0
        c = code
        for p in range(n):
            c, digit = divmod(c, 3)
            if digit == 1:
                reds |= 1 << p
            elif digit == 2:
                blues |= 1 << p
        yield SignVector(n, reds, blues)


def subset_of(x: SignVector, y: SignVector) -> bool:
    """Componentwise containment: x.reds within y.reds and x.blues within y.blues."""
    return x.n == y.n and x.reds & ~y.reds == 0 and x.blues & ~y.blues == 0


def sub_vectors(y: SignVector):
    """All x with x below y componentwise, via subsets of y's support."""
    support = [p for p in range(y.n) if (y.reds | y.blues) >> p & 1]
    for code in range(1 << len(support)):
        reds = blues = 0
        for i, p in enumerate(support):
            if code >> i & 1:
                bit = 1 << p
                if y.reds & bit:
                    reds |= bit
                else:
                    blues |= bit
        yield SignVector(y.n, reds, blues)


def random_graph(rng: random.Random, n: int, p: float) -> SimpleGraph:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return SimpleGraph.from_edges(n, pairs)


def feasible(h: Hypergraph, x: SignVector, order: LinearOrder, k: int) -> bool:
    """Whether the slot word x, labelled through ``order``, is feasible at
    level k, by the reference scan."""
    vertex_word = apply_order(x, order)
    return reference.feasible_by_scan(h, vertex_word.reds, vertex_word.blues, k)


def first_optimal_word(h: Hypergraph, order: LinearOrder, k: int) -> tuple[int, SignVector]:
    """(alt, witness) of one ordering by brute force over slot words.

    Only strictly alternating words opening with R are tried; each is fixed
    by its support, whose slots take R, B, R, ... in turn.  Supports come
    in lexicographic order with 0 before a sign, so the first feasible word
    of the largest alt is the lexicographically least optimal word.
    """
    best = -1
    for support in product((0, 1), repeat=h.n):
        reds = blues = count = 0
        for p, used in enumerate(support):
            if used:
                if count % 2:
                    blues |= 1 << p
                else:
                    reds |= 1 << p
                count += 1
        if count > best:
            word = SignVector(h.n, reds, blues)
            if feasible(h, word, order, k):
                best, witness = count, word
    return best, witness
