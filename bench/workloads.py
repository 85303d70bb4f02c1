"""Workload inputs, request lists and answer checks for the benchmark.

Every input is generated here with the standard library alone, written as
``.hg``/``.col`` files, and handed to the program only as file paths on an
``altermatic`` command line.  Nothing here calls into the program while
building inputs, so a change to the library's own generators cannot
change what is measured.

Each workload mixes requests on fixed instances, which carry most of the
cost, with many short requests on small instances drawn from the workload
seed, which set the median.  Long random instances are drawn once from a
fixed seed: a run holds too few of them to average out how much their
cost varies from one draw to the next (on a 2-core 2.0 GHz Xeon virtual
machine, the exhaustive ``altbound`` on a random n=8 hypergraph varies by
about 20%, ``chromatic`` on a random n=11 one from 0.02 s to 7 s).  No
single request runs for seconds, because the reference-loop correction in
``run.py`` cannot see a slow phase that starts and ends inside one
request.

Each request carries a ``check`` that inspects the parsed JSON report and
returns an error message, or None when the answer is right.  Checks run
outside the timed region.
"""

from __future__ import annotations

import importlib
import math
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

ALTBOUND_FIXED_RANDOM = 2  # random n=7 hypergraphs of 20 edges, each at k=1 and k=2
ALTBOUND_SMALL = 20  # seeded random n=6 hypergraphs, each at k=1 and k=2
CHROMATIC_FIXED_RANDOM = 8  # random n=10 hypergraphs of 43 2-subsets
CHROMATIC_SMALL = 100  # seeded random n=9 hypergraphs of 34 2-subsets
VERIFY_PER_N = 16  # acceptance-criterion-5 instances per n in 3..9, each at k=1 and k=2
AUDIT_REGIME = 32  # seeded regime colorings per Kneser graph


@dataclass(frozen=True)
class Instance:
    """A hypergraph on 1..n as vertex bit masks, in file order."""

    n: int
    edges: tuple[int, ...]

    def text(self) -> str:
        lines = [f"n {self.n}"]
        lines.extend(" ".join(str(v) for v in _vertices(e)) for e in self.edges)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Callable[[dict], str | None]
    label: str


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def _vertices(mask: int) -> tuple[int, ...]:
    return tuple(p + 1 for p in range(mask.bit_length()) if mask >> p & 1)


def kneser(m: int, r: int) -> Instance:
    """All r-subsets of 1..m, lexicographic."""
    return Instance(m, tuple(_mask(c) for c in combinations(range(1, m + 1), r)))


def schrijver(m: int, r: int) -> Instance:
    """Stable r-subsets of the m-cycle, lexicographic."""
    edges = []
    for c in combinations(range(1, m + 1), r):
        if all(c[i + 1] - c[i] >= 2 for i in range(r - 1)) and not (c[0] == 1 and c[-1] == m):
            edges.append(_mask(c))
    return Instance(m, tuple(edges))


def random_instance(rng: random.Random, n: int, count: int, lo: int, hi: int) -> Instance:
    """``count`` distinct subsets of 1..n with sizes lo..hi, uniformly, lexicographic."""
    pool = [c for s in range(lo, hi + 1) for c in combinations(range(1, n + 1), s)]
    return Instance(n, tuple(_mask(c) for c in sorted(rng.sample(pool, count))))


def _fixed_rng(workload: str) -> random.Random:
    return random.Random(f"{workload}:fixed")


def _disjoint_clash(inst: Instance, colors) -> str | None:
    """The first pair of disjoint edges sharing a color, as a message."""
    edges = inst.edges
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if edges[i] & edges[j] == 0 and colors[i] == colors[j]:
                return f"edges {i + 1} and {j + 1} are disjoint and share color {colors[i]}"
    return None


class Inputs:
    """Writes numbered input files into one directory."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def write(self, text: str, suffix: str) -> str:
        self.count += 1
        path = self.directory / f"{self.count:04d}{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)


def _lib(module: str):
    # import_module, because the attribute ``altermatic.audit`` is the
    # re-exported function, not the submodule.
    return importlib.import_module(f"altermatic.{module}")


# ---------------------------------------------------------------- altbound


def _check_altbound(inst: Instance, k: int, family: tuple[int, int] | None, kneser_family: bool):
    def check(rep: dict) -> str | None:
        core, reference = _lib("core"), _lib("reference")
        word = core.SignVector.from_word(rep["witness"])
        if core.alt(word) != rep["alt"]:
            return f"witness {rep['witness']} has alt {core.alt(word)}, report says {rep['alt']}"
        if rep["bound"] != inst.n - rep["alt"] + k - 1:
            return f"bound {rep['bound']} is not n - alt + k - 1"
        labeled = core.apply_order(word, core.LinearOrder(tuple(rep["sigma"])))
        if not reference.feasible_by_scan(core.Hypergraph(inst.n, inst.edges), labeled.reds, labeled.blues, k):
            return f"witness {rep['witness']} under sigma {rep['sigma']} is infeasible"
        if family is not None:
            m, r = family
            if kneser_family and k == 1 and rep["alt"] != 2 * r - 2:
                return f"KG alt at k=1 is {rep['alt']}, expected 2r-2 = {2 * r - 2}"
            if rep["bound"] > m - 2 * r + 2:
                return f"bound {rep['bound']} exceeds chi = {m - 2 * r + 2}"
        return None

    return check


def altbound(rng: random.Random, inputs: Inputs) -> list[Request]:
    cases = [
        ("KG(8,2)", kneser(8, 2), 1, (8, 2), True),
        ("KG(8,3)", kneser(8, 3), 1, (8, 3), True),
        ("SG(8,2)", schrijver(8, 2), 1, (8, 2), False),
        ("KG(8,2)", kneser(8, 2), 2, (8, 2), True),
    ]
    fixed = _fixed_rng("altbound")
    for i in range(ALTBOUND_FIXED_RANDOM):
        inst = random_instance(fixed, 7, 20, 2, 4)
        cases.append((f"R(7,20)#{i}", inst, 1, None, False))
        cases.append((f"R(7,20)#{i}", inst, 2, None, False))
    for i in range(ALTBOUND_SMALL):
        inst = random_instance(rng, 6, 16, 2, 4)
        cases.append((f"R(6,16)#{i}", inst, 1, None, False))
        cases.append((f"R(6,16)#{i}", inst, 2, None, False))
    out = []
    for label, inst, k, family, kneser_family in cases:
        path = inputs.write(inst.text(), ".hg")
        argv = ("altbound", "-H", path, "-k", str(k), "--exhaustive", "--json")
        out.append(Request(argv, _check_altbound(inst, k, family, kneser_family), f"altbound {label} k={k}"))
    return out


# --------------------------------------------------------------- chromatic


def _check_chromatic(inst: Instance, chi: int | None):
    def check(rep: dict) -> str | None:
        colors = rep["coloring"]
        if chi is not None and rep["chi"] != chi:
            return f"chi {rep['chi']}, expected m - 2r + 2 = {chi}"
        if len(colors) != len(inst.edges):
            return f"coloring has {len(colors)} entries for {len(inst.edges)} edges"
        if set(colors) != set(range(1, rep["chi"] + 1)):
            return f"coloring does not use exactly the colors 1..{rep['chi']}"
        return _disjoint_clash(inst, colors)

    return check


def chromatic(rng: random.Random, inputs: Inputs) -> list[Request]:
    cases = [
        ("KG(10,2)", kneser(10, 2), 10 - 4 + 2),
        ("KG(9,3)", kneser(9, 3), 9 - 6 + 2),
        ("SG(10,2)", schrijver(10, 2), 10 - 4 + 2),
        ("SG(11,2)", schrijver(11, 2), 11 - 4 + 2),
    ]
    fixed = _fixed_rng("chromatic")
    for i in range(CHROMATIC_FIXED_RANDOM):
        cases.append((f"R(10,43)#{i}", random_instance(fixed, 10, 43, 2, 2), None))
    for i in range(CHROMATIC_SMALL):
        cases.append((f"R(9,34)#{i}", random_instance(rng, 9, 34, 2, 2), None))
    out = []
    for label, inst, chi in cases:
        path = inputs.write(inst.text(), ".hg")
        out.append(Request(("chromatic", "-H", path, "--json"), _check_chromatic(inst, chi), f"chromatic {label}"))
    return out


# ------------------------------------------------------------------ verify


def _check_verify(rep: dict) -> str | None:
    if rep["holds"] is not True:
        return f"bound {rep['bound']} exceeds chi {rep['chi']}"
    return None


def verify(rng: random.Random, inputs: Inputs) -> list[Request]:
    """The generator of acceptance criterion 5, drawn from the workload seed.

    Every n in 3..9 gets the same number of instances instead of a random
    share, and the n=7 instances come from a fixed seed: the exhaustive
    n=7 requests carry most of the cost, and their number and draw moved
    the total by a third between seeds.
    """
    fixed = _fixed_rng("verify")
    out = []
    for i in range(7 * VERIFY_PER_N):
        n = 3 + i % 7
        draw = fixed if n == 7 else rng
        hi = min(4, n)
        available = sum(math.comb(n, s) for s in range(1, hi + 1))
        inst = random_instance(draw, n, draw.randint(1, min(20, available)), 1, hi)
        path = inputs.write(inst.text(), ".hg")
        mode = ("--exhaustive",) if n <= 7 else ("--samples", "32", "--seed", str(rng.randrange(1 << 16)))
        for k in (1, 2):
            argv = ("verify", "-H", path, "-k", str(k), *mode, "--json")
            out.append(Request(argv, _check_verify, f"verify #{i} n={n} k={k}"))
    return out


# ------------------------------------------------------------------- audit


def _check_audit(inst: Instance, colors: tuple[int, ...], regime: bool):
    def check(rep: dict) -> str | None:
        if rep["outcome"] == "proper-within-bound":
            if regime:
                return "regime coloring came back proper-within-bound"
            return _disjoint_clash(inst, colors)
        if not regime:
            return "proper coloring came back with a witness"
        audit_mod, core, coloring = _lib("audit"), _lib("core"), _lib("coloring")
        w = audit_mod.Witness(
            rep["witness_edge_a"] - 1,
            rep["witness_edge_b"] - 1,
            rep["witness_color"],
            core.SignVector.from_word(rep["witness_context"]),
        )
        h = core.Hypergraph(inst.n, inst.edges)
        if not audit_mod.verify_witness(w, h, coloring.Coloring(colors, max(colors))):
            return f"witness edges {w.edge_a + 1}, {w.edge_b + 1} fail verify_witness"
        return None

    return check


def min_element_coloring(m: int, r: int, inst: Instance) -> tuple[int, ...]:
    """The proper coloring by least element, capped at m - 2r + 2."""
    top = m - 2 * r + 2
    return tuple(min(_vertices(e)[0], top) for e in inst.edges)


def audit(rng: random.Random, inputs: Inputs) -> list[Request]:
    out = []
    for m, r in ((8, 2), (10, 2), (12, 2), (9, 3), (10, 3), (12, 3)):
        inst = kneser(m, r)
        path = inputs.write(inst.text(), ".hg")
        palette = m - (2 * r - 2) - 1  # n - alt - 1 at k = 1, with alt = 2r - 2 on KG(m, r)
        colorings = []
        for _ in range(AUDIT_REGIME):
            values = [rng.randint(1, palette) for _ in inst.edges]
            for j, pos in enumerate(rng.sample(range(len(inst.edges)), palette)):
                values[pos] = j + 1  # every color appears
            colorings.append((tuple(values), True))
        colorings.append((min_element_coloring(m, r, inst), False))
        for colors, regime in colorings:
            cpath = inputs.write("".join(f"{c}\n" for c in colors), ".col")
            argv = ("audit", "-H", path, "-c", cpath, "-k", "1", "--json")
            kind = "regime" if regime else "proper"
            out.append(Request(argv, _check_audit(inst, colors, regime), f"audit KG({m},{r}) {kind}"))
    return out


WORKLOADS = {
    "altbound": altbound,
    "chromatic": chromatic,
    "verify": verify,
    "audit": audit,
}


def build(workload: str, seed: int, directory: Path) -> list[Request]:
    """Write the inputs of one workload and return its request list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), Inputs(directory))
