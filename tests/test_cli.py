"""Command-line surface: subcommands, formats, exit codes, determinism."""

import json

import pytest

from altermatic import (
    ChromaticResult,
    Coloring,
    Hypergraph,
    alt_min,
    complete_uniform,
    parse_hypergraph,
    random_hypergraph,
    serialize_hypergraph,
)
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


def test_chromatic_writes_witness_file(capsys, tmp_path):
    path = write_kneser(tmp_path, 4, 2)
    out_path = tmp_path / "witness.col"
    code, out, _ = run(capsys, "chromatic", "-H", path, "-o", str(out_path))
    assert code == 0
    lines = out_path.read_text().split()
    assert len(lines) == 6 and set(lines) == {"1", "2"}


def test_altbound_pairs_of_five(capsys, tmp_path):
    path = write_kneser(tmp_path, 5, 2)
    code, out, _ = run(capsys, "altbound", "-H", path, "-k", "1", "--exhaustive")
    assert code == 0
    rep = report_dict(out)
    assert rep["alt"] == "2"
    assert rep["bound"] == "3"
    assert rep["sigma-mode"] == "exhaustive"


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


def test_exhaustive_cap_is_usage_error(capsys, tmp_path):
    path = tmp_path / "big.hg"
    path.write_text(serialize_hypergraph(complete_uniform(9, 4)))
    code, _, err = run(capsys, "altbound", "-H", str(path), "-k", "1", "--exhaustive")
    assert code == 2
    assert "cap" in err


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


def test_stdin_dash(capsys, tmp_path, monkeypatch):
    import io

    text = serialize_hypergraph(complete_uniform(4, 2))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "chromatic", "-H", "-")
    assert code == 0
    assert report_dict(out)["chi"] == "2"


def test_env_caps_respected(capsys, tmp_path, monkeypatch):
    path = write_kneser(tmp_path, 4, 2)
    col = tmp_path / "proper.col"
    col.write_text("1\n1\n1\n2\n2\n2\n")
    monkeypatch.setenv("ALTERMATIC_STEP_CAP", "1")
    code, _, _ = run(capsys, "audit", "-H", path, "-k", "1", "-c", str(col))
    assert code == 3
    monkeypatch.delenv("ALTERMATIC_STEP_CAP")
    monkeypatch.setenv("ALTERMATIC_FACTORIAL_CAP", "3")
    code, _, err = run(capsys, "altbound", "-H", path, "-k", "1", "--exhaustive")
    assert code == 2 and "cap" in err


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "selftest passed" in out
