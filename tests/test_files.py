"""Hypergraph and coloring file formats."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from altermatic import (
    Coloring,
    Hypergraph,
    ParseError,
    complete_uniform,
    parse_coloring,
    parse_hypergraph,
    random_hypergraph,
    schrijver_hypergraph,
    serialize_coloring,
    serialize_hypergraph,
)
from altermatic import files


def test_parse_basic():
    h = parse_hypergraph("n 4\n1 2\n3 4\n")
    assert h == Hypergraph.from_edge_sets(4, [[1, 2], [3, 4]])


def test_parse_collapses_repeats_within_line():
    h = parse_hypergraph("n 3\n1 1 2\n")
    assert h.edge_sets() == ((1, 2),)


def test_parse_sorts_within_line_but_keeps_file_order():
    h = parse_hypergraph("n 3\n3 1\n2 1\n")
    assert h.edge_sets() == ((1, 3), (1, 2))


def test_parse_duplicate_edge_is_error():
    with pytest.raises(ParseError) as err:
        parse_hypergraph("n 3\n1 2\n2 1\n")
    assert err.value.line == 3
    assert "duplicate" in str(err.value)


def test_parse_vertex_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_hypergraph("n 3\n1 4\n")
    assert err.value.line == 2


def test_parse_edge_errors_name_the_lowest_bad_vertex_and_the_sorted_edge():
    with pytest.raises(ParseError) as err:
        parse_hypergraph("n 3\n1 2\n9 2 -4 0 7\n")
    assert str(err.value) == "line 3: vertex -4 outside 1..3"
    with pytest.raises(ParseError) as err:
        parse_hypergraph("n 3\n2 5 4\n")
    assert str(err.value) == "line 2: vertex 4 outside 1..3"
    with pytest.raises(ParseError) as err:
        parse_hypergraph("n 5\n3 1 5\n# c\n5 3 1 3\n")
    assert str(err.value) == "line 4: duplicate edge (1, 3, 5)"


def test_parse_non_integer_tokens_name_their_line():
    with pytest.raises(ParseError) as err:
        parse_hypergraph("n x\n1 2\n")
    assert err.value.line == 1
    assert "vertex count 'x' is not an integer" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_hypergraph("# c\nn 3\n1 2\n1 a\n")
    assert err.value.line == 4
    assert "not whitespace-separated integers" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_coloring("1\n\nx\n", 2)
    assert err.value.line == 3
    assert "color 'x' is not an integer" in str(err.value)
    # int() alone reads '1_0' as 10 and the Arabic-Indic digit four as 4.
    for text, line, parse in (
        ("n 1_0\n1 2\n", 1, parse_hypergraph),
        ("n 4\n3 \u0664\n", 2, parse_hypergraph),
        ("1\n1_0\n", 2, lambda t: parse_coloring(t, 2)),
    ):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line
        assert "numbers are an optional sign and ASCII digits" in str(err.value)
    # Lines refused on other grounds keep their messages.
    for text, message in (
        ("n_4\n1 2\n", "line 1: expected 'n <count>' header"),
        ("n 4\nx_1\n", "line 2: edge line is not whitespace-separated integers"),
        ("n 4\n5 \u0664\n", "line 2: vertex 5 outside 1..4"),
    ):
        with pytest.raises(ParseError, match=message):
            parse_hypergraph(text)
    with pytest.raises(ParseError, match="line 2: more colors than the 1 hyperedges"):
        parse_coloring("1\n1_0\n", 1)
    assert parse_hypergraph("n 3 # \u0664\n+1 2\u00a03\n").edge_sets() == ((1, 2, 3),)


def test_parse_missing_header():
    with pytest.raises(ParseError):
        parse_hypergraph("1 2\n")
    with pytest.raises(ParseError):
        parse_hypergraph("# only a comment\n")
    with pytest.raises(ParseError):
        parse_hypergraph("n 0\n")


def test_parse_rejects_vertex_count_over_cap_at_header():
    # The edge lines would each cost a 12.5 MB mask if parsed before the cap.
    with pytest.raises(ParseError) as err:
        parse_hypergraph("n 100000000\n" + "".join(f"{100000000 - i}\n" for i in range(20)))
    assert err.value.line == 1
    assert str(err.value) == "line 1: vertex count 100000000 exceeds vertex cap 63"
    assert parse_hypergraph("n 63\n1 63\n").n == 63
    with pytest.raises(ParseError) as err:
        parse_hypergraph("# c\nn 64\n1 2\n")
    assert err.value.line == 2
    assert "vertex cap 63" in str(err.value)


def test_parse_comments_and_blanks():
    text = "# header\n\nn 4   # four vertices\n1 2  # an edge\n\n3 4\n"
    h = parse_hypergraph(text)
    assert h.edge_sets() == ((1, 2), (3, 4))


def test_roundtrip_preserves_edge_order():
    for h in (
        complete_uniform(5, 2),
        schrijver_hypergraph(6, 2),
        random_hypergraph(7, 9, (1, 4), 77),
        Hypergraph.from_edge_sets(4, [[3, 4], [1, 2]]),
    ):
        again = parse_hypergraph(serialize_hypergraph(h))
        assert again == h
        assert again.edges == h.edges  # order included
    with_comment = serialize_hypergraph(complete_uniform(4, 2), comment="made by a test")
    assert parse_hypergraph(with_comment) == complete_uniform(4, 2)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.frozensets(st.integers(1, n), min_size=1), unique=True, max_size=15),
        )
    ),
    st.none() | st.text(),
)
def test_roundtrip_property(hypergraph, comment):
    n, edges = hypergraph
    h = Hypergraph.from_edge_sets(n, edges)
    text = serialize_hypergraph(h, comment=comment)
    again = parse_hypergraph(text)
    assert (again.n, again.edges) == (h.n, h.edges)  # edge order included


def test_parse_coloring_basic():
    c = parse_coloring("1\n1\n2\n", 3)
    assert c == Coloring((1, 1, 2), 2)


def test_parse_coloring_length_mismatch():
    with pytest.raises(ParseError):
        parse_coloring("1\n2\n", 3)
    with pytest.raises(ParseError):
        parse_coloring("1\n2\n1\n2\n", 3)


def test_parse_coloring_rejects_nonpositive():
    with pytest.raises(ParseError) as err:
        parse_coloring("0\n1\n", 2)
    assert err.value.line == 1


def test_parse_coloring_one_value_per_line():
    with pytest.raises(ParseError):
        parse_coloring("1 2\n", 2)


def test_coloring_roundtrip():
    c = Coloring((3, 1, 2, 2), 3)
    assert parse_coloring(serialize_coloring(c), 4) == c
    assert parse_coloring("", 0) == Coloring((), 0)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.line


def _canonical_texts(rng, count):
    """(hypergraph text, coloring text, edge count): seeded random files in
    canonical text, with tabs and runs of spaces between tokens, repeated
    and unsorted ids, CRLF or LF line ends and an optional final newline."""
    for _ in range(count):
        n = rng.randint(1, 12)
        edges = list({rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(0, 15))})
        lines = [rng.choice(("n ", "n\t", " n  ")) + str(n)]
        for e in edges:
            ids = [v for v in range(1, n + 1) if e >> (v - 1) & 1]
            ids += rng.sample(ids, rng.randint(0, len(ids) - 1))
            rng.shuffle(ids)
            lines.append(rng.choice((" ", "\t", "  ")).join(map(str, ids)))
        colors = [str(rng.randint(1, 9)) for _ in edges]
        end = rng.choice(("\n", "\r\n"))
        tail = end if rng.random() < 0.7 else ""
        yield end.join(lines) + tail, end.join(colors) + (tail if colors else ""), len(edges)


def test_canonical_pass_matches_the_line_parser(monkeypatch):
    # a comment sends the same file to the line parser; canonical files
    # never reach it
    texts = list(_canonical_texts(random.Random(36), 300))
    general = {"h": 0, "c": 0}
    hypergraph_lines, coloring_lines = files._hypergraph_lines, files._coloring_lines

    def count_h(text):
        general["h"] += 1
        return hypergraph_lines(text)

    def count_c(text, expected_len):
        general["c"] += 1
        return coloring_lines(text, expected_len)

    monkeypatch.setattr(files, "_hypergraph_lines", count_h)
    monkeypatch.setattr(files, "_coloring_lines", count_c)
    results = [(parse_hypergraph(h), parse_coloring(c, m)) for h, c, m in texts]
    assert general == {"h": 0, "c": 0}
    for (h, c, m), (hg, col) in zip(texts, results):
        again = parse_hypergraph(h + "# c\n")
        assert (again.n, again.edges) == (hg.n, hg.edges)
        assert parse_coloring(c + "# c\n", m) == col
    assert general == {"h": len(texts), "c": len(texts)}


def test_leading_comments_keep_the_table_pass(monkeypatch):
    # the comment ``serialize_hypergraph`` writes, as ``altermatic gen``
    # does, is skipped; a comment line that splits into two lines is not
    texts = [h for h, _, _ in _canonical_texts(random.Random(37), 200)]
    comments = ("altermatic gen kneser -m 5 -r 2", "two\nlines_, # and \u00e9", "crlf\r\nend")
    corpus = [files._hypergraph_lines(text) for text in texts]
    general = []
    hypergraph_lines = files._hypergraph_lines

    def count_h(text):
        general.append(text)
        return hypergraph_lines(text)

    monkeypatch.setattr(files, "_hypergraph_lines", count_h)
    for i, h in enumerate(corpus):
        assert parse_hypergraph(serialize_hypergraph(h, comments[i % 3])) == h
    assert general == []
    text = "# a\rn 2\nn 3\n1 2\n"
    assert _outcome(parse_hypergraph, text) == ("line 3: edge line is not whitespace-separated integers: 'n 3'", 3)
    assert general == [text]


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("n 4\n1 2\n0 3\n3 4\n", ("line 3: vertex 0 outside 1..4", 3)),
        ("n 4\n1 2\n2 5\n3 4\n", ("line 3: vertex 5 outside 1..4", 3)),
        ("n 4\r\n1 2\r\n2 5\r\n", ("line 3: vertex 5 outside 1..4", 3)),
        ("n 4\n1 2\n2 3\n3 2\n", ("line 4: duplicate edge (2, 3)", 4)),
        ("n 4\n1 2\n \t\n2 3\n3 3 2\n", ("line 5: duplicate edge (2, 3)", 5)),
        ("n 4\n1 2\nx 4\n", ("line 3: edge line is not whitespace-separated integers: 'x 4'", 3)),
        ("n 64\n1 2\n", ("line 1: vertex count 64 exceeds vertex cap 63", 1)),
        ("n 4\n1 2\n\n2 3\n3 4\n", Hypergraph.from_edge_sets(4, [[1, 2], [2, 3], [3, 4]])),
        ("n 4\n1 2\n+3 4\n", Hypergraph.from_edge_sets(4, [[1, 2], [3, 4]])),
        ("n 4\n1 2\n03 4\n", Hypergraph.from_edge_sets(4, [[1, 2], [3, 4]])),
    ],
)
def test_hypergraph_defects_keep_their_messages(text, outcome):
    assert _outcome(parse_hypergraph, text) == outcome


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("1\n0\n1\n", ("line 2: colors are positive integers, got 0", 2)),
        ("1\n-2\n1\n", ("line 2: colors are positive integers, got -2", 2)),
        ("1\n2 1\n1\n", ("line 2: expected one color per line, got '2 1'", 2)),
        ("1\nx\n1\n", ("line 2: color 'x' is not an integer", 2)),
        ("1\n2\n1\n2\n", ("line 4: more colors than the 3 hyperedges", 4)),
        ("1\n2\n", ("2 colors for 3 hyperedges", None)),
        ("1\n\n2\n1\n", Coloring((1, 2, 1), 2)),
        ("1\n+3\n03\n", Coloring((1, 3, 3), 3)),
    ],
)
def test_coloring_defects_keep_their_messages(text, outcome):
    assert _outcome(lambda t: parse_coloring(t, 3), text) == outcome
