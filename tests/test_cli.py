"""Command-line surface: subcommands, formats, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from altermatic import (
    ChromaticResult,
    Coloring,
    Hypergraph,
    alt_min,
    chromatic_number,
    complete_uniform,
    is_proper,
    kneser_graph,
    parse_hypergraph,
    random_hypergraph,
    schrijver_hypergraph,
    serialize_hypergraph,
)
from altermatic import bounds, cli, coloring
from altermatic.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_dict(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def write_kneser(tmp_path, m, r, name="h.hg"):
    path = tmp_path / name
    path.write_text(serialize_hypergraph(complete_uniform(m, r)))
    return str(path)


def test_gen_kneser_parses_back(capsys):
    code, out, _ = run(capsys, "gen", "kneser", "-m", "5", "-r", "2")
    assert code == 0
    assert parse_hypergraph(out) == complete_uniform(5, 2)


def test_gen_schrijver_and_random(capsys):
    code, out, _ = run(capsys, "gen", "schrijver", "-m", "6", "-r", "2")
    assert code == 0
    assert len(parse_hypergraph(out).edges) == 9
    code, out, _ = run(capsys, "gen", "random", "-n", "6", "-e", "5", "--sizes", "2..3", "--seed", "9")
    assert code == 0
    h = parse_hypergraph(out)
    assert len(h.edges) == 5
    code, out2, _ = run(capsys, "gen", "random", "-n", "6", "-e", "5", "--sizes", "2..3", "--seed", "9")
    assert out == out2


def test_chromatic_petersen(capsys, tmp_path):
    path = write_kneser(tmp_path, 5, 2)
    code, out, _ = run(capsys, "chromatic", "-H", path)
    assert code == 0
    rep = report_dict(out)
    assert rep["chi"] == "3"


def test_chromatic_answers_kneser_11_4_with_the_cut_colouring(capsys, tmp_path):
    # The seed proves 5 = chi and the cut colouring has 5 colours, so the
    # ladder ends without deciding the feasible rung 5, which the DSATUR
    # search did not settle in 90 s.  Checked edge by edge on the sets.
    path = write_kneser(tmp_path, 11, 4)
    code, out, err = run(capsys, "chromatic", "-H", path)
    assert code == 0, err
    rep = report_dict(out)
    assert (rep["chi"], rep["chi-proof"]) == ("5", "altermatic-k1")
    colors = [int(c) for c in rep["coloring"].split()]
    sets = [set(e) for e in complete_uniform(11, 4).edge_sets()]
    assert len(colors) == len(sets) == 330
    assert set(colors) == {1, 2, 3, 4, 5}
    for i, a in enumerate(sets):
        for j in range(i + 1, len(sets)):
            assert a & sets[j] or colors[i] != colors[j], (i, j)


@pytest.mark.parametrize("m, r", [(16, 5), (18, 6)])
def test_chromatic_answers_large_kneser_graphs_at_once(capsys, tmp_path, m, r):
    # chi = m - 2r + 2 = 8 (Lovasz 1978): the seed proves it and the cut
    # colouring attains it.  These took 2.1 s and 40.4 s while every Kneser
    # graph was re-scanned for symmetry; the colouring is checked edge by edge.
    h = complete_uniform(m, r)
    path = tmp_path / "h.hg"
    path.write_text(serialize_hypergraph(h))
    code, out, err = run(capsys, "chromatic", "-H", str(path), "--json")
    assert code == 0, err
    rep = json.loads(out)
    assert (rep["chi"], rep["chi_proof"]) == (8, "altermatic-k1")
    assert set(rep["coloring"]) == set(range(1, 9))
    assert is_proper(kneser_graph(h), Coloring(tuple(rep["coloring"]), 8))


def test_chromatic_on_more_kneser_vertices_than_the_recursion_limit(capsys, tmp_path):
    # A small random Kneser graph plus 1,100 edges that all hold vertex 1
    # and six of {2..8}: they meet each other and every small edge, so they
    # are isolated Kneser vertices that the coloring search still visits.
    small = [[v + 1 for v in e] for e in random_hypergraph(7, 14, (2, 3), 15).edge_sets()]
    big = [
        [1] + [v for v in range(2, 9) if v != skip] + [9 + i for i in range(8) if extra >> i & 1]
        for skip in range(2, 9)
        for extra in range(256)
    ][:1100]
    path = tmp_path / "deep.hg"
    path.write_text(serialize_hypergraph(Hypergraph.from_edge_sets(16, small + big)))
    code, out, err = run(capsys, "chromatic", "-H", str(path))
    assert code == 0, err
    assert report_dict(out)["chi"] == "3"


@pytest.mark.parametrize(
    "h, chi, proof",
    [
        (complete_uniform(10, 2), 8, "altermatic-k1"),
        (complete_uniform(9, 3), 5, "altermatic-k1"),
        (schrijver_hypergraph(10, 2), 8, "altermatic-k2"),
        (schrijver_hypergraph(11, 2), 9, "altermatic-k2"),
    ]
    + [(random_hypergraph(10, 43, (2, 2), s), 8, "altermatic-k1") for s in (0, 1, 3, 4, 5)],
    ids=["KG(10,2)", "KG(9,3)", "SG(10,2)", "SG(11,2)"] + [f"R(10,43)s{s}" for s in (0, 1, 3, 4, 5)],
)
def test_chromatic_decides_once_on_tight_families(capsys, tmp_path, monkeypatch, h, chi, proof):
    # The altermatic seed equals chi here, and so does the cut colouring's
    # palette, so the ladder starts and ends at chi: it returns the cut
    # colouring and makes no decision on the command's Kneser graph.  On
    # the random 2-subset inputs the identity bound is below chi and a
    # repaired ordering proves it.  The k = 2 seed search decides survivor
    # graphs of its own, which are not counted.
    graphs, budgets = [], []
    real_kneser, real_decide = cli.kneser_graph, coloring._decide

    def recording_kneser(h):
        graphs.append(real_kneser(h))
        return graphs[-1]

    def counting_decide(g, t):
        if any(g is seen for seen in graphs):
            budgets.append(t)
        return real_decide(g, t)

    monkeypatch.setattr(cli, "kneser_graph", recording_kneser)
    monkeypatch.setattr(coloring, "_decide", counting_decide)
    path = tmp_path / "h.hg"
    path.write_text(serialize_hypergraph(h))
    code, out, err = run(capsys, "chromatic", "-H", str(path))
    assert code == 0, err
    rep = report_dict(out)
    assert (rep["chi"], rep["chi-proof"]) == (str(chi), proof)
    assert budgets == []


@pytest.mark.parametrize(
    "h, chi, proof",
    [
        (complete_uniform(4, 2), 2, "clique"),
        (random_hypergraph(6, 12, (2, 2), 9), 4, "altermatic-k1"),
        (random_hypergraph(6, 10, (2, 2), 12), 4, "search"),
    ],
    ids=["KG(4,2)", "R(6,12)", "R(6,10)"],
)
def test_chi_proof_names_clique_or_search(capsys, tmp_path, monkeypatch, h, chi, proof):
    # the clique, or a repaired ordering's altermatic bound (R(6,12): the
    # identity gives 3), or else the exact search: R(6,10) needs it, since
    # its least alt over all orderings gives 3 at both k = 1 and k = 2.
    # The command passes the lower-bound ladder's bound, which includes
    # the clique, to the decision as its proven lower bound, so outside
    # the decision procedure, which grows a clique of its own per rung,
    # the greedy clique is grown once per request
    grown = []
    real = coloring.greedy_clique

    def counting(g):
        if sys._getframe(1).f_code.co_name != "_decide":
            grown.append(g.vcount)
        return real(g)

    monkeypatch.setattr(coloring, "greedy_clique", counting)
    monkeypatch.setattr(cli, "greedy_clique", counting)
    path = tmp_path / "h.hg"
    path.write_text(serialize_hypergraph(h))
    code, out, _ = run(capsys, "chromatic", "-H", str(path), "--json")
    rep = json.loads(out)
    assert (code, rep["chi"], rep["chi_proof"]) == (0, chi, proof)
    assert list(rep)[list(rep).index("chi") + 1] == "chi_proof"
    assert grown == [len(h.edges)]
    assert is_proper(kneser_graph(h), Coloring(tuple(rep["coloring"]), chi))
    assert max(rep["coloring"]) == chi


def test_chromatic_writes_witness_file(capsys, tmp_path):
    path = write_kneser(tmp_path, 4, 2)
    out_path = tmp_path / "witness.col"
    code, out, _ = run(capsys, "chromatic", "-H", path, "-o", str(out_path))
    assert code == 0
    lines = out_path.read_text().split()
    assert len(lines) == 6 and set(lines) == {"1", "2"}


def test_chromatic_unwritable_output_emits_no_report(capsys, tmp_path):
    path = write_kneser(tmp_path, 4, 2)
    code, out, err = run(capsys, "chromatic", "-H", path, "-o", str(tmp_path / "missing" / "x.col"))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_altbound_pairs_of_five(capsys, tmp_path):
    path = write_kneser(tmp_path, 5, 2)
    code, out, _ = run(capsys, "altbound", "-H", path, "-k", "1", "--exhaustive")
    assert code == 0
    rep = report_dict(out)
    assert rep["alt"] == "2"
    assert rep["bound"] == "3"
    assert rep["sigma-mode"] == "exhaustive"


def test_altbound_stops_at_the_half_floor(capsys, tmp_path, monkeypatch):
    # SG(8,2) at k = 2: the identity's alt 3 is the half floor ({1, 3, 5}
    # holds pairwise intersecting edges), so the command runs one ordering,
    # where the full scan runs 8!/2, and makes no DSATUR pass
    path = tmp_path / "sg82.hg"
    path.write_text(serialize_hypergraph(schrijver_hypergraph(8, 2)))
    calls = []
    run_search = bounds._AltSearch.run

    def counting(self, perm, threshold=None):
        calls.append(perm)
        return run_search(self, perm, threshold)

    monkeypatch.setattr(bounds._AltSearch, "run", counting)
    code, out, _ = run(capsys, "altbound", "-H", str(path), "-k", "2", "--exhaustive")
    assert code == 0
    assert report_dict(out)["bound"] == "6"
    assert len(calls) == 1


def test_altbound_makes_no_dsatur_pass_that_the_half_floor_settles(capsys, tmp_path, monkeypatch):
    # KG(8,3) at k = 1: the identity's alt 4 is the half floor, so the
    # theorem's floor, whose DSATUR count of KG(H) is 5, is never needed
    passes = []
    real = coloring.greedy_color_count

    def counting(g):
        passes.append(g.vcount)
        return real(g)

    for module in (cli, bounds, coloring):
        monkeypatch.setattr(module, "greedy_color_count", counting, raising=False)
    path = write_kneser(tmp_path, 8, 3)
    code, out, _ = run(capsys, "altbound", "-H", path, "-k", "1", "--exhaustive")
    assert code == 0
    assert (report_dict(out)["alt"], report_dict(out)["bound"]) == ("4", "4")
    assert passes == []


def test_altsigma_defaults_to_identity(capsys, tmp_path):
    path = write_kneser(tmp_path, 6, 3)
    code, out, _ = run(capsys, "altsigma", "-H", path, "-k", "1")
    rep = report_dict(out)
    assert code == 0
    assert rep["alt"] == "4"
    assert rep["sigma"] == "1 2 3 4 5 6"


def test_altsigma_explicit_sigma(capsys, tmp_path):
    path = write_kneser(tmp_path, 4, 2)
    code, out, _ = run(capsys, "altsigma", "-H", path, "-k", "1", "--sigma", "4 3 2 1")
    assert code == 0
    assert report_dict(out)["alt"] == "2"


def test_verify_exit_code_and_json(capsys, tmp_path):
    path = write_kneser(tmp_path, 5, 2)
    code, out, _ = run(capsys, "verify", "-H", path, "-k", "1", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["holds"] is True and rep["tight"] is True
    assert rep["bound"] == 3 and rep["chi"] == 3


def test_verify_failure_reports_reproduction(capsys, tmp_path, monkeypatch):
    # A chromatic number below the bound must surface as a failed check
    # carrying the ordering and witness word that reproduce it.
    h = complete_uniform(5, 2)
    one_color = ChromaticResult(1, Coloring((1,) * len(h.edges), 1))
    monkeypatch.setattr("altermatic.bounds.chromatic_number", lambda g: one_color)
    path = write_kneser(tmp_path, 5, 2)
    code, out, _ = run(capsys, "verify", "-H", path, "-k", "1", "--json")
    assert code == 1
    rep = json.loads(out)
    assert rep["holds"] is False
    expected = alt_min(h, 1)
    assert rep["failure_sigma"] == list(expected.sigma.perm)
    assert rep["failure_witness"] == expected.witness.word()


def test_audit_one_color(capsys, tmp_path):
    path = write_kneser(tmp_path, 4, 2)
    col = tmp_path / "ones.col"
    col.write_text("1\n" * 6)
    code, out, _ = run(capsys, "audit", "-H", path, "-k", "1", "-c", str(col))
    assert code == 0
    rep = report_dict(out)
    assert rep["outcome"] == "witness"
    assert rep["verified"] == "True"
    # complementary pair: vertex sets partition 1..4
    a = set(rep["witness-edge-a-vertices"].split())
    b = set(rep["witness-edge-b-vertices"].split())
    assert not (a & b) and a | b == {"1", "2", "3", "4"}


def test_audit_proper_coloring(capsys, tmp_path):
    path = write_kneser(tmp_path, 4, 2)
    col = tmp_path / "proper.col"
    col.write_text("1\n1\n1\n2\n2\n2\n")  # complements get distinct colors
    code, out, _ = run(capsys, "audit", "-H", path, "-k", "1", "-c", str(col))
    assert code == 0
    assert report_dict(out)["outcome"] == "proper-within-bound"
    col.write_text("1\n1\n1\n" + "1000000000000\n" * 3)  # colors are only compared
    code, out, _ = run(capsys, "audit", "-H", path, "-k", "1", "-c", str(col))
    assert (code, report_dict(out)["outcome"]) == (0, "proper-within-bound")


def test_audit_step_cap_exit_code(capsys, tmp_path):
    path = write_kneser(tmp_path, 4, 2)
    col = tmp_path / "proper.col"
    col.write_text("1\n1\n1\n2\n2\n2\n")
    code, _, err = run(capsys, "audit", "-H", path, "-k", "1", "-c", str(col), "--step-cap", "1")
    assert code == 3
    assert "cap" in err


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.hg"
    bad.write_text("n 3\n1 2\n2 1\n")
    code, _, err = run(capsys, "chromatic", "-H", str(bad))
    assert code == 2
    assert "duplicate" in err
    path = write_kneser(tmp_path, 4, 2)
    code, out, err = run(capsys, "altsigma", "-H", path, "-k", "1", "--sigma", "3")
    assert code == 2 and not out
    assert err == "parse error: ordering lists 1 vertices, hypergraph has 4\n"
    path = write_kneser(tmp_path, 5, 2)
    for sigma in ("1 1 2 3 4", "0 1 2 3 4"):
        code, out, err = run(capsys, "altsigma", "-H", path, "-k", "1", "--sigma", sigma)
        assert code == 2 and not out
        assert err.startswith("parse error: not a permutation of 1..5")
    huge = tmp_path / "huge.hg"
    huge.write_text("n 100000000\n" + "".join(f"{100000000 - i}\n" for i in range(20)))
    code, out, err = run(capsys, "chromatic", "-H", str(huge))
    assert code == 2 and not out
    assert err == "parse error: line 1: vertex count 100000000 exceeds vertex cap 63\n"


def test_unreadable_input_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "chromatic", "-H", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_usage_error_exit_code(capsys, tmp_path):
    path = write_kneser(tmp_path, 4, 2)
    code, _, _ = run(capsys, "altbound", "-H", path, "-k", "1", "--exhaustive", "--samples", "4")
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    # an invalid sample count is refused also where no ordering is scanned
    edgeless = tmp_path / "edgeless.hg"
    edgeless.write_text("n 4\n")
    for command in ("altbound", "verify"):
        code, out, err = run(capsys, command, "-H", str(edgeless), "-k", "1", "--samples", "0")
        assert code == 2 and not out
        assert err == "error: sample count must be positive, got 0\n"


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_broken_pipe_exits_141_quietly(capsys, tmp_path, monkeypatch, failing):
    # the reader of stdout has gone (``... | grep -q``): no error line, exit
    # 128 + SIGPIPE, and the stdout descriptor now leads to devnull, so the
    # flush at interpreter exit cannot fail again
    path = write_kneser(tmp_path, 4, 2)
    read_end, write_end = os.pipe()
    os.close(read_end)

    class GoneReader(io.StringIO):
        def fileno(self):
            return write_end

    def broken(*_):
        raise BrokenPipeError(32, "Broken pipe")

    stdout = GoneReader()
    setattr(stdout, failing, broken)
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        code = main(["altbound", "-H", path, "-k", "1"])
        assert os.write(write_end, b"x") == 1
    finally:
        os.close(write_end)
    assert code == 141
    assert capsys.readouterr().err == ""


def test_exhaustive_cap_is_usage_error(capsys, tmp_path):
    path = tmp_path / "big.hg"
    path.write_text(serialize_hypergraph(complete_uniform(9, 4)))
    code, _, err = run(capsys, "altbound", "-H", str(path), "-k", "1", "--exhaustive")
    assert code == 2
    assert "cap" in err


def test_refused_scans_exit_2_before_colouring(capsys, tmp_path, monkeypatch):
    # on KG(11,4) a colouring that refutes 4 colours takes minutes, so a
    # refused request that starts one fails here instead of hanging
    def refuse(*_):
        raise AssertionError("a refused request started colouring")

    for module in (bounds, cli):
        monkeypatch.setattr(module, "chromatic_number", refuse)
        monkeypatch.setattr(module, "chromatic_at_most", refuse)
    path = write_kneser(tmp_path, 11, 4)
    for argv in (
        ("verify", "-k", "1", "--samples", "0"),
        ("verify", "-k", "1", "--exhaustive"),
        ("altbound", "-k", "5", "--exhaustive"),
    ):
        code, out, err = run(capsys, argv[0], "-H", path, *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("error: ")


def test_reports_byte_identical_modulo_timing(capsys, tmp_path):
    path = write_kneser(tmp_path, 5, 2)
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "-H", path, "-k", "1")
        assert code == 0
        runs.append([line for line in out.splitlines() if not line.startswith("elapsed-s")])
    assert runs[0] == runs[1]


def test_sampled_mode_flagged(capsys, tmp_path):
    path = write_kneser(tmp_path, 5, 2)
    code, out, _ = run(capsys, "altbound", "-H", path, "-k", "1", "--samples", "4", "--seed", "11")
    assert code == 0
    rep = report_dict(out)
    assert rep["sigma-mode"] == "sampled"
    assert rep["samples"] == "4"
    assert rep["seed"] == "11"


def test_default_mode_above_the_factorial_cap_samples_32_orderings(capsys, tmp_path):
    path = tmp_path / "r9.hg"
    path.write_text(serialize_hypergraph(random_hypergraph(9, 12, (1, 4), 0)))
    code, out, _ = run(capsys, "altbound", "-H", str(path), "-k", "1")
    assert code == 0
    rep = report_dict(out)
    assert (rep["sigma-mode"], rep["samples"], rep["seed"]) == ("sampled", "32", "0")
    assert rep["sigma"] == "4 9 1 8 3 2 5 6 7"  # not the identity: the samples were scanned
    code, out, _ = run(capsys, "altbound", "-H", str(path), "-k", "1", "--samples", "32", "--seed", "0")
    assert code == 0
    explicit = report_dict(out)
    del rep["elapsed-s"], explicit["elapsed-s"]
    assert rep == explicit


def test_gen_random_single_size_and_malformed_sizes(capsys):
    code, out, _ = run(capsys, "gen", "random", "-n", "6", "-e", "4", "--sizes", "3")
    assert code == 0
    h = parse_hypergraph(out)
    assert len(h.edges) == 4
    assert all(len(e) == 3 for e in h.edge_sets())
    code, out, err = run(capsys, "gen", "random", "-n", "6", "-e", "4", "--sizes", "2-3")
    assert code == 2 and not out
    assert err == "parse error: sizes must look like '2..4' or '3', got '2-3'\n"


def test_non_integer_sigma_is_parse_error(capsys, tmp_path):
    path = write_kneser(tmp_path, 4, 2)
    code, out, err = run(capsys, "altsigma", "-H", path, "-k", "1", "--sigma", "1 x 3")
    assert code == 2 and not out
    assert err == "parse error: ordering must be whitespace-separated integers, got '1 x 3'\n"


def test_stdin_dash(capsys, tmp_path, monkeypatch):
    import io

    text = serialize_hypergraph(complete_uniform(4, 2))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "chromatic", "-H", "-")
    assert code == 0
    assert report_dict(out)["chi"] == "2"


def test_audit_rejects_both_inputs_on_stdin(capsys, monkeypatch):
    text = serialize_hypergraph(complete_uniform(4, 2))
    stdin = io.StringIO(text)
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "audit", "-H", "-", "-c", "-", "-k", "1")
    assert code == 2 and out == ""
    assert err == "error: -H and -c cannot both read stdin\n"
    assert stdin.read() == text  # rejected before anything was read


def test_caps_are_reached_through_inputs(capsys, tmp_path):
    path = write_kneser(tmp_path, 4, 2)
    col = tmp_path / "proper.col"
    col.write_text("1\n1\n1\n2\n2\n2\n")
    code, _, _ = run(capsys, "audit", "-H", path, "-k", "1", "-c", str(col), "--step-cap", "1")
    assert code == 3
    code, _, err = run(capsys, "altbound", "-H", write_kneser(tmp_path, 9, 2), "-k", "1", "--exhaustive")
    assert code == 2 and "cap" in err


def test_environment_sets_no_cap(capsys, tmp_path, monkeypatch):
    # The caps are constants: variables that once set them change no result.
    kg52 = write_kneser(tmp_path, 5, 2)
    kg42 = write_kneser(tmp_path, 4, 2, "kg42.hg")
    col = tmp_path / "proper.col"
    col.write_text("1\n1\n1\n2\n2\n2\n")

    def results():
        parsed = parse_hypergraph("n 5\n1 2\n3 4\n")
        outs = []
        for argv in (("altbound", "-H", kg52, "-k", "1", "--exhaustive"),
                     ("audit", "-H", kg42, "-k", "1", "-c", str(col))):
            code, out, err = run(capsys, *argv)
            outs.append((code, [line for line in out.splitlines() if not line.startswith("elapsed-s")], err))
        return parsed, outs

    clean = results()
    assert [code for code, _, _ in clean[1]] == [0, 0]
    monkeypatch.setenv("ALTERMATIC_N_CAP", "4")
    monkeypatch.setenv("ALTERMATIC_FACTORIAL_CAP", "3")
    monkeypatch.setenv("ALTERMATIC_STEP_CAP", "abc")
    assert results() == clean


@pytest.mark.parametrize(
    "argv",
    [("altbound", "-k", "9"), ("altsigma", "-k", "5"), ("altbound", "-k", "5", "--json")],
    ids=" ".join,
)
def test_level_beyond_chi_plus_one_is_usage_error(capsys, tmp_path, argv):
    # chi(KG(5,2)) = 3: at k = 5 and 9 every word is feasible and the
    # bound k - 1 would exceed chi.
    code, out, err = run(capsys, argv[0], "-H", write_kneser(tmp_path, 5, 2), *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith(f"error: level k={argv[2]} exceeds chi+1")


def test_level_within_a_cheap_lower_bound_skips_the_colouring(capsys, tmp_path, monkeypatch):
    # chi(KG(12,3)) = 8: every word is feasible at k = 8, and the k = 1
    # bound at the identity, 12 - 4 = 8, already proves chi >= 7, so the
    # exact refutation of 6 colours (many seconds) never starts
    def refuse(*_):
        raise AssertionError("a proven level started colouring")

    monkeypatch.setattr(cli, "chromatic_at_most", refuse)
    code, out, _ = run(capsys, "altsigma", "-H", write_kneser(tmp_path, 12, 3), "-k", "8")
    assert code == 0
    assert report_dict(out)["bound"] == "7"


def test_level_within_the_k2_bound_skips_the_colouring(capsys, tmp_path, monkeypatch):
    # chi(SG(11,3)) = 7: every word is feasible at k = 8, the greedy
    # clique and the k = 1 bound at the identity fall short of 7, and the
    # k = 2 bound at the identity, 7, proves chi >= 7 without refuting 6
    # colours exactly
    def refuse(*_):
        raise AssertionError("a proven level started colouring")

    monkeypatch.setattr(cli, "chromatic_at_most", refuse)
    path = tmp_path / "sg113.hg"
    path.write_text(serialize_hypergraph(schrijver_hypergraph(11, 3)))
    code, out, _ = run(capsys, "altsigma", "-H", str(path), "-k", "8")
    assert code == 0
    assert report_dict(out)["bound"] == "7"


@pytest.mark.parametrize("seed", [3, 31])
def test_level_within_a_repaired_bound_skips_the_colouring(capsys, tmp_path, monkeypatch, seed):
    # chi = 8 on these 2-subset inputs: every word is feasible at k = 9 and
    # k = 10, the greedy clique and the identity's bounds fall short of 8,
    # and the ladder's repairs reach 8, so k = 9 needs no exact refutation
    # of 7 colours; k = 10 still does decide, and is refused
    path = tmp_path / "r.hg"
    path.write_text(serialize_hypergraph(random_hypergraph(10, 43, (2, 2), seed)))
    code, out, err = run(capsys, "altsigma", "-H", str(path), "-k", "10")
    assert code == 2 and out == ""
    assert err.startswith("error: level k=10 exceeds chi+1")

    def refuse(*_):
        raise AssertionError("a proven level started colouring")

    monkeypatch.setattr(cli, "chromatic_at_most", refuse)
    code, out, _ = run(capsys, "altsigma", "-H", str(path), "-k", "9")
    assert code == 0
    assert report_dict(out)["bound"] == "8"


def test_level_chi_plus_one_still_bounds(capsys, tmp_path):
    code, out, _ = run(capsys, "altsigma", "-H", write_kneser(tmp_path, 5, 2), "-k", "4")
    assert code == 0
    assert report_dict(out)["bound"] == "3"


def test_edgeless_levels(capsys, tmp_path):
    path = tmp_path / "edgeless.hg"
    path.write_text("n 3\n")
    path = str(path)
    code, out, _ = run(capsys, "altsigma", "-H", path, "-k", "1")
    assert code == 0
    assert report_dict(out)["bound"] == "0"
    code, out, err = run(capsys, "altsigma", "-H", path, "-k", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: level k=2 exceeds chi+1")


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.frozensets(st.integers(1, n), min_size=1), max_size=8),
        )
    ),
    st.integers(1, 5),
)
def test_bound_never_exceeds_chi(hypergraph, k):
    n, edges = hypergraph
    h = Hypergraph.from_edge_sets(n, sorted(sorted(e) for e in edges))
    chi = chromatic_number(kneser_graph(h)).number
    for command in ("altsigma", "altbound"):
        out, err = io.StringIO(), io.StringIO()
        stdin = io.StringIO(serialize_hypergraph(h))
        with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "-H", "-", "-k", str(k), "--json"])
        if k > chi + 1:
            assert code == 2 and out.getvalue() == ""
            assert "exceeds chi+1" in err.getvalue()
        else:
            assert code == 0, err.getvalue()
            assert json.loads(out.getvalue())["bound"] <= chi


# Exact reports of each input command on KG(5,2) and SG(6,2), rendered
# below in both formats; only the trailing elapsed-s line is left out.
GOLDEN_INPUTS = {
    "kg52.hg": "n 5\n1 2\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n3 4\n3 5\n4 5\n",
    "kg52-one.col": "1\n" * 10,
    "kg52-proper.col": "1\n1\n1\n1\n2\n2\n3\n2\n3\n3\n",
    "sg62.hg": "n 6\n1 3\n1 4\n1 5\n2 4\n2 5\n2 6\n3 5\n3 6\n4 6\n",
    "sg62-one.col": "1\n" * 9,
    "sg62-proper.col": "1\n1\n1\n2\n2\n2\n3\n3\n4\n",
}
KG52_SHA = "24df60f3665933b08efdc171d2dd0b59e84fedac0df12e98be82eead08d29b76"
SG62_SHA = "e3dfcd3fd7d3f139a6ab50d78a7d98c7104a4a639861191fb1d8842ac94ee99c"
GOLDEN = [
    (
        ("chromatic", "-H", "kg52.hg", "-o", "-"),
        {"command": "chromatic",
         "tool": "altermatic 0.1.0",
         "input_h_sha256": KG52_SHA,
         "n": 5,
         "edges": 10,
         "chi": 3,
         "chi_proof": "altermatic-k1",
         "coloring": [1, 1, 1, 1, 2, 2, 2, 3, 3, 3]},
        "1\n1\n1\n1\n2\n2\n2\n3\n3\n3\n",
    ),
    (
        ("altsigma", "-H", "kg52.hg", "-k", "2", "--sigma", "2 4 1 5 3"),
        {"command": "altsigma",
         "tool": "altermatic 0.1.0",
         "input_h_sha256": KG52_SHA,
         "n": 5,
         "edges": 10,
         "k": 2,
         "sigma": [2, 4, 1, 5, 3],
         "sigma_mode": "single",
         "alt": 3,
         "witness": "00RBR",
         "bound": 3},
        "",
    ),
    (
        ("altbound", "-H", "kg52.hg", "-k", "2"),
        {"command": "altbound",
         "tool": "altermatic 0.1.0",
         "input_h_sha256": KG52_SHA,
         "n": 5,
         "edges": 10,
         "k": 2,
         "sigma_mode": "exhaustive",
         "alt": 3,
         "sigma": [1, 2, 3, 4, 5],
         "witness": "00RBR",
         "bound": 3},
        "",
    ),
    (
        ("altbound", "-H", "kg52.hg", "-k", "1", "--samples", "5", "--seed", "3"),
        {"command": "altbound",
         "tool": "altermatic 0.1.0",
         "input_h_sha256": KG52_SHA,
         "n": 5,
         "edges": 10,
         "k": 1,
         "sigma_mode": "sampled",
         "samples": 5,
         "seed": 3,
         "alt": 2,
         "sigma": [1, 2, 3, 4, 5],
         "witness": "000RB",
         "bound": 3},
        "",
    ),
    (
        ("verify", "-H", "kg52.hg", "-k", "1"),
        {"command": "verify",
         "tool": "altermatic 0.1.0",
         "input_h_sha256": KG52_SHA,
         "n": 5,
         "edges": 10,
         "k": 1,
         "sigma_mode": "exhaustive",
         "alt": 2,
         "bound": 3,
         "chi": 3,
         "holds": True,
         "tight": True},
        "",
    ),
    (
        ("audit", "-H", "kg52.hg", "-k", "1", "-c", "kg52-one.col"),
        {"command": "audit",
         "tool": "altermatic 0.1.0",
         "input_h_sha256": KG52_SHA,
         "input_c_sha256": "9538e71364e030fa5cb12310065b555dc371cca0eccc44a9530624b5be45929a",
         "n": 5,
         "edges": 10,
         "k": 1,
         "sigma": [1, 2, 3, 4, 5],
         "palette": 1,
         "outcome": "witness",
         "witness_edge_a": 3,
         "witness_edge_a_vertices": [1, 4],
         "witness_edge_b": 5,
         "witness_edge_b_vertices": [2, 3],
         "witness_color": 1,
         "witness_context": "RBBR0",
         "verified": True},
        "",
    ),
    (
        ("audit", "-H", "kg52.hg", "-k", "1", "-c", "kg52-proper.col"),
        {"command": "audit",
         "tool": "altermatic 0.1.0",
         "input_h_sha256": KG52_SHA,
         "input_c_sha256": "7c738a5612b40afdbe56d363ac3190b03bc8ff85ef22fd4924335c186648cfbe",
         "n": 5,
         "edges": 10,
         "k": 1,
         "sigma": [1, 2, 3, 4, 5],
         "palette": 3,
         "outcome": "proper-within-bound",
         "steps": 9},
        "",
    ),
    (
        ("chromatic", "-H", "sg62.hg", "-o", "-"),
        {"command": "chromatic",
         "tool": "altermatic 0.1.0",
         "input_h_sha256": SG62_SHA,
         "n": 6,
         "edges": 9,
         "chi": 4,
         "chi_proof": "altermatic-k2",
         "coloring": [1, 1, 1, 2, 2, 2, 3, 3, 4]},
        "1\n1\n1\n2\n2\n2\n3\n3\n4\n",
    ),
    (
        ("altsigma", "-H", "sg62.hg", "-k", "2", "--sigma", "6 1 5 2 4 3"),
        {"command": "altsigma",
         "tool": "altermatic 0.1.0",
         "input_h_sha256": SG62_SHA,
         "n": 6,
         "edges": 9,
         "k": 2,
         "sigma": [6, 1, 5, 2, 4, 3],
         "sigma_mode": "single",
         "alt": 5,
         "witness": "0RBRBR",
         "bound": 2},
        "",
    ),
    (
        ("altbound", "-H", "sg62.hg", "-k", "2"),
        {"command": "altbound",
         "tool": "altermatic 0.1.0",
         "input_h_sha256": SG62_SHA,
         "n": 6,
         "edges": 9,
         "k": 2,
         "sigma_mode": "exhaustive",
         "alt": 3,
         "sigma": [1, 2, 3, 4, 5, 6],
         "witness": "000RBR",
         "bound": 4},
        "",
    ),
    (
        ("altbound", "-H", "sg62.hg", "-k", "1", "--samples", "5", "--seed", "3"),
        {"command": "altbound",
         "tool": "altermatic 0.1.0",
         "input_h_sha256": SG62_SHA,
         "n": 6,
         "edges": 9,
         "k": 1,
         "sigma_mode": "sampled",
         "samples": 5,
         "seed": 3,
         "alt": 3,
         "sigma": [1, 2, 3, 4, 5, 6],
         "witness": "R000BR",
         "bound": 3},
        "",
    ),
    (
        ("verify", "-H", "sg62.hg", "-k", "1"),
        {"command": "verify",
         "tool": "altermatic 0.1.0",
         "input_h_sha256": SG62_SHA,
         "n": 6,
         "edges": 9,
         "k": 1,
         "sigma_mode": "exhaustive",
         "alt": 3,
         "bound": 3,
         "chi": 4,
         "holds": True,
         "tight": False},
        "",
    ),
    (
        ("audit", "-H", "sg62.hg", "-k", "1", "-c", "sg62-one.col"),
        {"command": "audit",
         "tool": "altermatic 0.1.0",
         "input_h_sha256": SG62_SHA,
         "input_c_sha256": "406b56cb84cb1d73807fef0915cc9f5d6710fd82f78b507c3e5fc616e378b0f4",
         "n": 6,
         "edges": 9,
         "k": 1,
         "sigma": [1, 2, 3, 4, 5, 6],
         "palette": 1,
         "outcome": "witness",
         "witness_edge_a": 1,
         "witness_edge_a_vertices": [1, 3],
         "witness_edge_b": 4,
         "witness_edge_b_vertices": [2, 4],
         "witness_color": 1,
         "witness_context": "RBRB00",
         "verified": True},
        "",
    ),
    (
        ("audit", "-H", "sg62.hg", "-k", "1", "-c", "sg62-proper.col"),
        {"command": "audit",
         "tool": "altermatic 0.1.0",
         "input_h_sha256": SG62_SHA,
         "input_c_sha256": "4dc3170a3524d35f1cc57b38e87c04947beffc261a8d8d222d6f5ca31cebab58",
         "n": 6,
         "edges": 9,
         "k": 1,
         "sigma": [1, 2, 3, 4, 5, 6],
         "palette": 4,
         "outcome": "proper-within-bound",
         "steps": 25},
        "",
    ),
]


def drop_elapsed(text):
    return "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith(("elapsed-s ", '  "elapsed_s": '))
    )


def render(report, json_mode):
    report = {**report, "elapsed_s": 0.0}
    if json_mode:
        return drop_elapsed(json.dumps(report, indent=2) + "\n")
    lines = []
    for key, value in report.items():
        if isinstance(value, list):
            value = " ".join(map(str, value))
        lines.append(f"{key.replace('_', '-')} {value}\n")
    return drop_elapsed("".join(lines))


@pytest.mark.parametrize("argv, report, tail", GOLDEN, ids=[" ".join(a for a in case[0] if a != "-H") for case in GOLDEN])
def test_golden_reports(capsys, tmp_path, argv, report, tail):
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in GOLDEN_INPUTS else a for a in argv]
    for json_mode in (False, True):
        code, out, err = run(capsys, *argv, *(["--json"] if json_mode else []))
        assert (code, err) == (0, "")
        assert drop_elapsed(out) == render(report, json_mode) + tail


def test_shared_parser_keeps_no_state_between_requests(capsys, tmp_path):
    # One process parses every request with one parser: no option, default
    # or error of one request may reach the report of the next.
    verify = {
        "command": "verify",
        "tool": "altermatic 0.1.0",
        "input_h_sha256": KG52_SHA,
        "n": 5,
        "edges": 10,
        "k": 1,
        "sigma_mode": "exhaustive",
        "alt": 2,
        "bound": 3,
        "chi": 3,
        "holds": True,
        "tight": True,
    }
    kg52 = tmp_path / "kg52.hg"
    kg52.write_text(GOLDEN_INPUTS["kg52.hg"])
    kg42 = write_kneser(tmp_path, 4, 2)
    col = tmp_path / "proper.col"
    col.write_text("1\n1\n1\n2\n2\n2\n")
    altbound = {
        "command": "altbound",
        "tool": "altermatic 0.1.0",
        "input_h_sha256": KG52_SHA,
        "n": 5,
        "edges": 10,
        "k": 1,
        "sigma_mode": "sampled",
        "samples": 5,
        "seed": 3,
        "alt": 2,
        "sigma": [1, 2, 3, 4, 5],
        "witness": "000RB",
        "bound": 3,
    }
    exhaustive = {key: value for key, value in altbound.items() if key not in ("samples", "seed")}
    exhaustive["sigma_mode"] = "exhaustive"
    audit_proper = {
        "command": "audit",
        "tool": "altermatic 0.1.0",
        "input_h_sha256": "7bf187e7ba9c6e2dc61f974384e51b551216e44a9805ecbb2dc74f5f836ded42",
        "input_c_sha256": "7b1ea648185254164f2e27eb7665fb3682c11273ecb952b0e91e946c8c3801c0",
        "n": 4,
        "edges": 6,
        "k": 1,
        "sigma": [1, 2, 3, 4],
        "palette": 2,
        "outcome": "proper-within-bound",
        "steps": 8,
    }
    steps = [
        (("altbound", "-H", str(kg52), "-k", "1", "--samples", "5", "--seed", "3"), 0, render(altbound, False)),
        (("altbound", "-H", str(kg52), "-k", "1"), 0, render(exhaustive, False)),
        (("audit", "-H", kg42, "-c", str(col), "-k", "1", "--step-cap", "1"), 3, ""),
        (("audit", "-H", kg42, "-c", str(col), "-k", "1"), 0, render(audit_proper, False)),
        (("verify", "-H", str(kg52), "-k", "1", "--json"), 0, render(verify, True)),
        (("verify", "-H", str(kg52), "-k", "1"), 0, render(verify, False)),
        (("verify", "-H", str(kg52)), 2, ""),
        (("verify", "-H", str(kg52), "-k", "1"), 0, render(verify, False)),
    ]
    for argv, want_code, want_out in steps:
        code, out, err = run(capsys, *argv)
        assert (code, drop_elapsed(out)) == (want_code, want_out), argv
        if want_code == 3:
            assert err == "resource cap: audit walk exceeded step cap 1\n"
        elif want_code == 2:
            assert err.splitlines()[-1] == "altermatic verify: error: the following arguments are required: -k"
        else:
            assert err == ""


def test_main_builds_no_parser_after_the_first_request(capsys, tmp_path, monkeypatch):
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    kg52, one, proper = (str(tmp_path / name) for name in ("kg52.hg", "kg52-one.col", "kg52-proper.col"))
    requests = [
        ("gen", "kneser", "-m", "5", "-r", "2"),
        ("gen", "random", "-n", "6", "-e", "5", "--seed", "9"),
        ("chromatic", "-H", kg52),
        ("altsigma", "-H", kg52, "-k", "2", "--sigma", "2 4 1 5 3"),
        ("altbound", "-H", kg52, "-k", "1"),
        ("altbound", "-H", kg52, "-k", "1", "--samples", "5", "--seed", "3", "--json"),
        ("verify", "-H", kg52, "-k", "1"),
        ("verify", "-H", kg52, "-k", "2", "--exhaustive", "--json"),
        ("audit", "-H", kg52, "-c", one, "-k", "1"),
        ("audit", "-H", kg52, "-c", proper, "-k", "1", "--json"),
    ]
    assert run(capsys, *requests[0])[0] == 0
    counts = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        counts.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in requests:
        assert run(capsys, *argv)[0] == 0, argv
    assert len(counts) == 0


def test_importing_the_cli_builds_no_parser():
    # Set-up time is what a fresh interpreter pays to import the command
    # line, so the parser waits for the first request.
    script = (
        "import argparse\n"
        "counts = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    counts.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import altermatic.cli\n"
        "print(len(counts))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60, check=False
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")
