"""Command line for generating, bounding, verifying and auditing.

Reports are line-oriented ``key value`` text by default, or one JSON
object with ``--json``.  Identical invocations on identical inputs render
byte-identical output except for the trailing timing field.  ``-`` stands
for stdin on inputs and stdout on outputs.

Exit codes: 0 success, 1 verification failure (or internal audit anomaly),
2 usage, parse or unreadable-input error, 3 resource cap hit, 141 (128 +
SIGPIPE) when the reader of standard output has gone.

The argument parser is built once per process, on the first ``main``
call, and every later call parses with the same one: ``parse_args``
makes a fresh namespace each time and nothing changes the parser after
it is built.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .audit import DEFAULT_STEP_CAP, AuditAnomaly, ProperWithinBound, audit, verify_witness
from .bounds import FACTORIAL_CAP, AltReport, alt_min, alt_sigma, lower_bound, verify_theorem
from .coloring import chromatic_at_most, chromatic_number, greedy_clique
from .core import Hypergraph, LinearOrder, SearchLimitError, vertices_of
from .files import ParseError, parse_coloring, parse_hypergraph, serialize_coloring, serialize_hypergraph
from .kneser import complete_uniform, cut_coloring, kneser_graph, random_hypergraph, schrijver_hypergraph

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


def _read_text(path: str) -> tuple[str, str]:
    """(contents, sha256 hex digest) of a file path or '-' for stdin."""
    if path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).read_text(encoding="utf-8")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return text, digest


def _emit(report: dict, json_mode: bool) -> None:
    if json_mode:
        print(json.dumps(report, indent=2, sort_keys=False))
        return
    for key, value in report.items():
        if isinstance(value, (list, tuple)):
            value = " ".join(str(v) for v in value)
        print(f"{key.replace('_', '-')} {value}")


@contextmanager
def _request(args):
    """The frame of every command that reads ``-H``.

    Reads, hashes and parses ``-H``, then ``-c`` where the command has
    one, and yields ``(h, coloring, report)`` with the shared leading
    report fields filled in.  The command's body adds its own fields;
    the frame then appends ``elapsed_s`` and emits.  A body that raises
    emits nothing.
    """
    if args.hypergraph == "-" == getattr(args, "coloring", None):
        raise ValueError("-H and -c cannot both read stdin")
    started = time.perf_counter()
    text, digest = _read_text(args.hypergraph)
    h = parse_hypergraph(text)
    report = {"command": args.cmd, "tool": f"altermatic {__version__}", "input_h_sha256": digest}
    coloring = None
    if "coloring" in args:
        ctext, cdigest = _read_text(args.coloring)
        report["input_c_sha256"] = cdigest
        coloring = parse_coloring(ctext, len(h.edges))
    report["n"] = h.n
    report["edges"] = len(h.edges)
    if "k" in args:
        report["k"] = args.k
    yield h, coloring, report
    report["elapsed_s"] = round(time.perf_counter() - started, 3)
    _emit(report, args.json)


def _parse_sigma(raw: str | None, n: int) -> LinearOrder:
    if raw is None:
        return LinearOrder.identity(n)
    try:
        perm = tuple(int(t) for t in raw.split())
    except ValueError:
        raise ParseError(f"ordering must be whitespace-separated integers, got {raw!r}")
    if len(perm) != n:
        raise ParseError(f"ordering lists {len(perm)} vertices, hypergraph has {n}")
    try:
        return LinearOrder(perm)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


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
    if n <= FACTORIAL_CAP:
        return None, 0
    return 32, args.seed


def _within_level(h: Hypergraph, rep: AltReport) -> AltReport:
    """``rep``, unless its level k exceeds chi + 1, where its bound is false.

    alt < n means KG(H) is not (k-1)-colorable, so k <= chi.  At alt = n
    the bound is k - 1, which holds exactly when KG(H) is not
    (k-2)-colorable.  For k >= 3 the lower-bound ladder (the greedy clique,
    then orderings at k = 1 and 2) often proves chi >= k - 1 at once; only
    when it does not is (k-2)-colorability decided exactly.  At k = 2 the
    decision is whether KG(H) has a vertex, which takes no search.
    """
    if rep.alt_value < h.n or rep.k < 2:
        return rep
    g = kneser_graph(h)
    if rep.k >= 3 and lower_bound(h, clique=len(greedy_clique(g)), target=rep.k - 1)[0] >= rep.k - 1:
        return rep
    if chromatic_at_most(g, rep.k - 2):
        raise ValueError(f"level k={rep.k} exceeds chi+1: the Kneser graph is {rep.k - 2}-colorable")
    return rep


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
    with _request(args) as (h, _, report):
        g = kneser_graph(h)
        upper = cut_coloring(h)
        lower, level, _ = lower_bound(h, clique=len(greedy_clique(g)), target=upper.palette)
        result = chromatic_number(g, lower=lower, upper=upper)
        report["chi"] = result.number
        if result.number > lower:
            report["chi_proof"] = "search"  # it refuted chi - 1 colors
        else:
            report["chi_proof"] = f"altermatic-k{level}" if level else "clique"
        report["coloring"] = result.coloring.assignment
        # A file is written before the report, so a failed write emits none.
        if args.coloring_out and args.coloring_out != "-":
            Path(args.coloring_out).write_text(serialize_coloring(result.coloring), encoding="utf-8")
    if args.coloring_out == "-":
        sys.stdout.write(serialize_coloring(result.coloring))
    return EXIT_OK


def _cmd_altsigma(args) -> int:
    with _request(args) as (h, _, report):
        order = _parse_sigma(args.sigma, h.n)
        rep = _within_level(h, alt_sigma(h, order, args.k))
        report["sigma"] = order.perm
        report["sigma_mode"] = rep.sigma_mode
        report["alt"] = rep.alt_value
        report["witness"] = rep.witness.word()
        report["bound"] = rep.bound
    return EXIT_OK


def _cmd_altbound(args) -> int:
    with _request(args) as (h, _, report):
        samples, seed = _alt_mode(args, h.n)
        rep = _within_level(h, alt_min(h, args.k, samples=samples, seed=seed, theorem_floor=True))
        report["sigma_mode"] = rep.sigma_mode
        if samples is not None:
            report["samples"] = samples
            report["seed"] = seed
        report["alt"] = rep.alt_value
        report["sigma"] = rep.sigma.perm
        report["witness"] = rep.witness.word()
        report["bound"] = rep.bound
    return EXIT_OK


def _cmd_verify(args) -> int:
    with _request(args) as (h, _, report):
        samples, seed = _alt_mode(args, h.n)
        check = verify_theorem(h, args.k, samples=samples, seed=seed)
        report["sigma_mode"] = check.report.sigma_mode
        report["alt"] = check.report.alt_value
        report["bound"] = check.bound
        report["chi"] = check.chi
        report["holds"] = check.holds
        report["tight"] = check.tight
        if not check.holds:
            report["failure_sigma"] = check.report.sigma.perm
            report["failure_witness"] = check.report.witness.word()
    return EXIT_OK if check.holds else EXIT_FAILED


def _cmd_audit(args) -> int:
    with _request(args) as (h, coloring, report):
        order = _parse_sigma(args.sigma, h.n)
        outcome = audit(h, coloring, args.k, order, step_cap=args.step_cap)
        report["sigma"] = order.perm
        report["palette"] = coloring.palette
        if isinstance(outcome, ProperWithinBound):
            report["outcome"] = "proper-within-bound"
            report["steps"] = outcome.steps
        else:
            report["outcome"] = "witness"
            report["witness_edge_a"] = outcome.edge_a + 1
            report["witness_edge_a_vertices"] = vertices_of(h.edges[outcome.edge_a])
            report["witness_edge_b"] = outcome.edge_b + 1
            report["witness_edge_b_vertices"] = vertices_of(h.edges[outcome.edge_b])
            report["witness_color"] = outcome.color
            report["witness_context"] = outcome.context.word()
            report["verified"] = verify_witness(outcome, h, coloring)
    return EXIT_OK


@functools.cache
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
    aud.add_argument("--step-cap", type=int, default=DEFAULT_STEP_CAP, help="walk step budget")
    aud.set_defaults(func=_cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nobody reads the report any more.  Send what stdout still buffers
        # to devnull, so that flushing it at interpreter exit prints nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
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
