"""Command line for generating, bounding, verifying and auditing.

Reports are line-oriented ``key value`` text by default, or one JSON
object with ``--json``.  Identical invocations on identical inputs render
byte-identical output except for the trailing timing field.  ``-`` stands
for stdin on inputs and stdout on outputs.

Exit codes: 0 success, 1 verification failure (or internal audit anomaly),
2 usage, parse or unreadable-input error, 3 resource cap hit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .audit import AuditAnomaly, ProperWithinBound, audit, enumerate_audit_graph, verify_witness
from .bounds import alt_min, alt_sigma, factorial_cap, verify_theorem
from .coloring import Coloring, chromatic_number
from .core import Hypergraph, LinearOrder, SearchLimitError, SignVector, alt, support_size, vertices_of
from .files import ParseError, parse_coloring, parse_hypergraph, serialize_coloring, serialize_hypergraph
from .kneser import complete_uniform, kneser_graph, random_hypergraph, schrijver_hypergraph
from . import reference

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _read_text(path: str) -> tuple[str, str]:
    """(contents, sha256 hex digest) of a file path or '-' for stdin."""
    if path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).read_text(encoding="utf-8")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return text, digest


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _emit(report: dict, json_mode: bool) -> None:
    if json_mode:
        print(json.dumps(report, indent=2, sort_keys=False))
        return
    for key, value in report.items():
        if isinstance(value, (list, tuple)):
            value = " ".join(str(v) for v in value)
        print(f"{key.replace('_', '-')} {value}")


def _base_report(command: str) -> dict:
    return {"command": command, "tool": f"altermatic {__version__}"}


def _parse_sigma(raw: str | None, n: int) -> LinearOrder:
    if raw is None:
        return LinearOrder.identity(n)
    try:
        perm = tuple(int(t) for t in raw.split())
    except ValueError:
        raise ParseError(f"ordering must be whitespace-separated integers, got {raw!r}")
    return LinearOrder(perm)


def _parse_sizes(raw: str) -> tuple[int, int]:
    try:
        if ".." in raw:
            lo, hi = raw.split("..", 1)
            return int(lo), int(hi)
        v = int(raw)
        return v, v
    except ValueError:
        raise ParseError(f"sizes must look like '2..4' or '3', got {raw!r}")


def _alt_mode(args, n: int) -> tuple[int | None, int]:
    """Resolve (samples, seed): exhaustive when small enough, else sampled."""
    if args.exhaustive:
        return None, 0
    if args.samples is not None:
        return args.samples, args.seed
    if n <= factorial_cap():
        return None, 0
    return 32, args.seed


def _witness_fields(report: dict, w, h: Hypergraph) -> None:
    report["outcome"] = "witness"
    report["witness_edge_a"] = w.edge_a + 1
    report["witness_edge_a_vertices"] = vertices_of(h.edges[w.edge_a])
    report["witness_edge_b"] = w.edge_b + 1
    report["witness_edge_b_vertices"] = vertices_of(h.edges[w.edge_b])
    report["witness_color"] = w.color
    report["witness_context"] = w.context.word()


def _cmd_gen(args) -> int:
    if args.family == "kneser":
        h = complete_uniform(args.m, args.r)
        comment = f"altermatic gen kneser -m {args.m} -r {args.r}"
    elif args.family == "schrijver":
        h = schrijver_hypergraph(args.m, args.r)
        comment = f"altermatic gen schrijver -m {args.m} -r {args.r}"
    else:
        sizes = _parse_sizes(args.sizes)
        h = random_hypergraph(args.n, args.edges, sizes, args.seed)
        comment = (
            f"altermatic gen random -n {args.n} -e {args.edges} "
            f"--sizes {sizes[0]}..{sizes[1]} --seed {args.seed}"
        )
    sys.stdout.write(serialize_hypergraph(h, comment))
    return EXIT_OK


def _cmd_chromatic(args) -> int:
    started = time.perf_counter()
    text, digest = _read_text(args.hypergraph)
    h = parse_hypergraph(text)
    result = chromatic_number(kneser_graph(h))
    report = _base_report("chromatic")
    report["input_h_sha256"] = digest
    report["n"] = h.n
    report["edges"] = len(h.edges)
    report["chi"] = result.number
    report["coloring"] = result.coloring.assignment
    report["elapsed_s"] = round(time.perf_counter() - started, 3)
    _emit(report, args.json)
    if args.coloring_out:
        _write_text(args.coloring_out, serialize_coloring(result.coloring))
    return EXIT_OK


def _cmd_altsigma(args) -> int:
    started = time.perf_counter()
    text, digest = _read_text(args.hypergraph)
    h = parse_hypergraph(text)
    order = _parse_sigma(args.sigma, h.n)
    rep = alt_sigma(h, order, args.k)
    report = _base_report("altsigma")
    report["input_h_sha256"] = digest
    report["n"] = h.n
    report["edges"] = len(h.edges)
    report["k"] = args.k
    report["sigma"] = order.perm
    report["sigma_mode"] = rep.sigma_mode
    report["alt"] = rep.alt_value
    report["witness"] = rep.witness.word()
    report["bound"] = rep.bound
    report["elapsed_s"] = round(time.perf_counter() - started, 3)
    _emit(report, args.json)
    return EXIT_OK


def _cmd_altbound(args) -> int:
    started = time.perf_counter()
    text, digest = _read_text(args.hypergraph)
    h = parse_hypergraph(text)
    samples, seed = _alt_mode(args, h.n)
    rep = alt_min(h, args.k, samples=samples, seed=seed)
    report = _base_report("altbound")
    report["input_h_sha256"] = digest
    report["n"] = h.n
    report["edges"] = len(h.edges)
    report["k"] = args.k
    report["sigma_mode"] = rep.sigma_mode
    if samples is not None:
        report["samples"] = samples
        report["seed"] = seed
    report["alt"] = rep.alt_value
    report["sigma"] = rep.sigma.perm
    report["witness"] = rep.witness.word()
    report["bound"] = rep.bound
    report["elapsed_s"] = round(time.perf_counter() - started, 3)
    _emit(report, args.json)
    return EXIT_OK


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    text, digest = _read_text(args.hypergraph)
    h = parse_hypergraph(text)
    samples, seed = _alt_mode(args, h.n)
    check = verify_theorem(h, args.k, samples=samples, seed=seed)
    report = _base_report("verify")
    report["input_h_sha256"] = digest
    report["n"] = h.n
    report["edges"] = len(h.edges)
    report["k"] = args.k
    report["sigma_mode"] = check.report.sigma_mode
    report["alt"] = check.report.alt_value
    report["bound"] = check.bound
    report["chi"] = check.chi
    report["holds"] = check.holds
    report["tight"] = check.tight
    if not check.holds:
        report["failure_sigma"] = check.report.sigma.perm
        report["failure_witness"] = check.report.witness.word()
    report["elapsed_s"] = round(time.perf_counter() - started, 3)
    _emit(report, args.json)
    return EXIT_OK if check.holds else EXIT_FAILED


def _cmd_audit(args) -> int:
    started = time.perf_counter()
    text, digest = _read_text(args.hypergraph)
    h = parse_hypergraph(text)
    ctext, cdigest = _read_text(args.coloring)
    coloring = parse_coloring(ctext, len(h.edges))
    order = _parse_sigma(args.sigma, h.n)
    outcome = audit(h, coloring, args.k, order, step_cap=args.step_cap)
    report = _base_report("audit")
    report["input_h_sha256"] = digest
    report["input_c_sha256"] = cdigest
    report["n"] = h.n
    report["edges"] = len(h.edges)
    report["k"] = args.k
    report["sigma"] = order.perm
    report["palette"] = coloring.palette
    if isinstance(outcome, ProperWithinBound):
        report["outcome"] = "proper-within-bound"
        report["steps"] = outcome.steps
    else:
        _witness_fields(report, outcome, h)
        report["verified"] = verify_witness(outcome, h, coloring)
    report["elapsed_s"] = round(time.perf_counter() - started, 3)
    _emit(report, args.json)
    return EXIT_OK


def _selftest_checks():
    petersen = complete_uniform(5, 2)
    pairs4 = complete_uniform(4, 2)

    def words():
        x = SignVector.from_word("RRBB0R0RB")
        assert alt(x) == 4 and support_size(x) == 7
        assert alt(SignVector(6)) == 0
        assert reference.alt_by_enumeration(x) == 4

    def alt_scan_oracle():
        import random as _random

        rng = _random.Random(20240901)
        for _ in range(200):
            n = rng.randint(1, 8)
            reds = blues = 0
            for p in range(n):
                r = rng.random()
                if r < 1 / 3:
                    reds |= 1 << p
                elif r < 2 / 3:
                    blues |= 1 << p
            x = SignVector(n, reds, blues)
            assert alt(x) == reference.alt_by_enumeration(x)

    def chromatic_families():
        assert chromatic_number(kneser_graph(pairs4)).number == 2
        assert chromatic_number(kneser_graph(petersen)).number == 3
        assert chromatic_number(kneser_graph(schrijver_hypergraph(5, 2))).number == 3

    def chromatic_oracle():
        for seed in range(6):
            h = random_hypergraph(6, 8, (1, 3), seed)
            g = kneser_graph(h)
            assert chromatic_number(g).number == reference.chromatic_by_enumeration(g)

    def alt_search_oracle():
        for seed in range(4):
            h = random_hypergraph(5, 6, (1, 3), seed)
            order = LinearOrder.identity(5)
            for k in (1, 2):
                assert alt_sigma(h, order, k).alt_value == reference.alt_sigma_by_enumeration(h, order, k)

    def theorem_holds():
        for seed in range(8):
            h = random_hypergraph(6, 9, (1, 4), 100 + seed)
            for k in (1, 2):
                assert verify_theorem(h, k).holds

    def audit_witness():
        ones = Coloring((1,) * 6, 1)
        w = audit(pairs4, ones, 1)
        assert verify_witness(w, pairs4, ones)

    def audit_graph_shape():
        proper = chromatic_number(kneser_graph(pairs4)).coloring
        stats = enumerate_audit_graph(pairs4, proper, 1)
        empty = [s for s in stats.neighbor_map if s.length == 0]
        assert len(empty) == 1
        assert [q.steps for q in stats.neighbor_map[empty[0]]] == [(1,)]
        for seq, ns in stats.neighbor_map.items():
            for q in ns:
                assert q not in stats.neighbor_map or seq in stats.neighbor_map[q]

    return [
        ("alternating-word-basics", words),
        ("alt-scan-vs-enumeration", alt_scan_oracle),
        ("chromatic-families", chromatic_families),
        ("chromatic-vs-enumeration", chromatic_oracle),
        ("alt-search-vs-enumeration", alt_search_oracle),
        ("bound-below-chi", theorem_holds),
        ("audit-extracts-witness", audit_witness),
        ("audit-graph-shape", audit_graph_shape),
    ]


def _cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok {name}")
    print(f"selftest {'failed' if failures else 'passed'} ({failures} failures)")
    return EXIT_FAILED if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altermatic",
        description="Altermatic chromatic lower bounds for general Kneser graphs.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen", help="generate a hypergraph file on stdout")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    g1 = gen_sub.add_parser("kneser", help="all r-subsets of 1..m")
    g1.add_argument("-m", type=int, required=True)
    g1.add_argument("-r", type=int, required=True)
    g2 = gen_sub.add_parser("schrijver", help="stable r-subsets of the m-cycle")
    g2.add_argument("-m", type=int, required=True)
    g2.add_argument("-r", type=int, required=True)
    g3 = gen_sub.add_parser("random", help="seeded random edge sample")
    g3.add_argument("-n", type=int, required=True)
    g3.add_argument("-e", "--edges", type=int, required=True)
    g3.add_argument("--sizes", default="2..3", help="edge size range, e.g. 2..4")
    g3.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_gen)

    def common(p, coloring=False):
        p.add_argument("-H", "--hypergraph", required=True, help="hypergraph file, '-' for stdin")
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        if coloring:
            p.add_argument("-c", "--coloring", required=True, help="coloring file, '-' for stdin")

    def alt_mode_flags(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--exhaustive", action="store_true", help="scan every vertex ordering")
        group.add_argument("--samples", type=int, help="scan the identity plus this many random orderings")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled orderings")

    chrom = sub.add_parser("chromatic", help="exact chromatic number of the Kneser graph")
    common(chrom)
    chrom.add_argument("-o", "--coloring-out", help="write the witness coloring file here")
    chrom.set_defaults(func=_cmd_chromatic)

    asig = sub.add_parser("altsigma", help="alternation ceiling for one vertex ordering")
    common(asig)
    asig.add_argument("-k", type=int, required=True)
    asig.add_argument("--sigma", help="ordering as space-separated vertex ids, default identity")
    asig.set_defaults(func=_cmd_altsigma)

    abound = sub.add_parser("altbound", help="minimized alternation ceiling and chromatic bound")
    common(abound)
    abound.add_argument("-k", type=int, required=True)
    alt_mode_flags(abound)
    abound.set_defaults(func=_cmd_altbound)

    ver = sub.add_parser("verify", help="compare the bound against the exact chromatic number")
    common(ver)
    ver.add_argument("-k", type=int, required=True)
    alt_mode_flags(ver)
    ver.set_defaults(func=_cmd_verify)

    aud = sub.add_parser("audit", help="extract a monochromatic disjoint pair from a coloring")
    common(aud, coloring=True)
    aud.add_argument("-k", type=int, required=True)
    aud.add_argument("--sigma", help="ordering as space-separated vertex ids, default identity")
    aud.add_argument("--step-cap", type=int, default=None, help="walk step budget")
    aud.set_defaults(func=_cmd_audit)

    st = sub.add_parser("selftest", help="run the embedded example and oracle checks")
    st.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except AuditAnomaly as exc:
        print(f"audit anomaly (implementation bug, please report): {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
