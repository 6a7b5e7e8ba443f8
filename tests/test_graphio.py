import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmwis import (
    GeneratorSpec,
    Graph,
    GraphParseError,
    ReportDocument,
    emit_graph,
    error_document,
    generate,
    graphio,
    parse_graph,
)


def parse_err(text: str) -> GraphParseError:
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    return err.value


def test_parse_minimal():
    g, w = parse_graph("p 3 2\ne 1 2\ne 2 3\n")
    assert g.vertices == {1, 2, 3}
    assert list(g.edges()) == [(1, 2), (2, 3)]
    assert w == {1: 1, 2: 1, 3: 1}


def test_parse_weights_and_comments():
    text = "c a demo file\np 3 1\nn 2 17\nn 3 0\ne 1 3\nc trailing comment\n"
    g, w = parse_graph(text)
    assert w == {1: 1, 2: 17, 3: 0}
    assert list(g.edges()) == [(1, 3)]


def test_parse_accepts_bytes_and_blank_lines():
    g, w = parse_graph(b"\np 2 1\n\ne 1 2\n\n")
    assert g.edge_count == 1


def test_parse_empty_graph():
    g, w = parse_graph("p 0 0\n")
    assert g.n == 0
    assert w == {}


def test_parse_isolated_vertices():
    g, w = parse_graph("p 4 0\n")
    assert g.n == 4
    assert g.edge_count == 0


def test_error_missing_header():
    err = parse_err("e 1 2\n")
    assert err.kind == "header"
    assert err.line_no == 1
    assert str(err) == "line 1: 'e' record before the p line"
    err = parse_err("c only a comment\n")
    assert err.kind == "header"
    assert err.line_no == 0


def test_error_second_header():
    err = parse_err("p 2 0\np 2 0\n")
    assert err.kind == "header"
    assert err.line_no == 2
    assert str(err) == "line 2: second p line"


def test_error_negative_counts():
    err = parse_err("p -1 0\n")
    assert err.kind == "header"
    assert str(err) == "line 1: counts must be non-negative"
    assert parse_err("p 2 -1\n").kind == "header"


def test_error_vertex_count_over_the_cap():
    err = parse_err("c a comment\np 16385 0\n")
    assert (err.kind, err.line_no) == ("header", 2)
    assert str(err) == "line 2: vertex count 16385 exceeds 16384"
    assert parse_err("p 1000000000 0\n").kind == "header"
    g, w = parse_graph("p 16384 0\n")
    assert g.n == len(w) == graphio.MAX_VERTICES == 16384


def test_error_malformed_lines():
    err = parse_err("p 2\n")
    assert err.kind == "malformed"
    assert str(err) == "line 1: p line needs exactly 2 numbers"
    assert parse_err("p 2 0 9\n").kind == "malformed"
    assert parse_err("p two 0\n").kind == "malformed"
    err = parse_err("p 2 0\nq 1 2\n")
    assert err.kind == "malformed"
    assert str(err) == "line 2: unknown record type 'q'"
    err = parse_err("p 2 1\ne 1\n")
    assert err.kind == "malformed"
    assert str(err) == "line 2: e line needs two endpoints"
    assert parse_err("p 2 1\ne 1 2 3\n").kind == "malformed"
    err = parse_err("p 2 0\nn 1\n")
    assert err.kind == "malformed"
    assert str(err) == "line 2: n line needs an id and a weight"
    err = parse_err("p 2 1\ne one 2\n")
    assert err.kind == "malformed"
    assert err.line_no == 2


@pytest.mark.parametrize(
    "text, line_no, field",
    [
        ("p 1 0\nn 1 1_000\n", 2, "weight"),
        ("p 3 0\nn +2 7\n", 2, "vertex id"),
        ("p 3 0\nn \u0663 4\n", 2, "vertex id"),  # an Arabic-Indic 3
        ("p \uff13 0\n", 1, "vertex count"),  # a fullwidth 3
        ("p 2 +1\n", 1, "edge count"),
        ("c + _ \u0663\np 2 1\ne 1 2_0\n", 3, "endpoint"),
        ("p 2 1\ne 1 --2\n", 2, "endpoint"),
        # More digits than int() converts.
        pytest.param("p 1 0\nn 1 " + "9" * 5000 + "\n", 2, "weight", id="5000-digits"),
    ],
)
def test_error_integers_that_are_not_ascii_decimal(text, line_no, field):
    # int() takes the first six of these spellings; the format takes none.
    err = parse_err(text)
    assert (err.kind, err.line_no) == ("malformed", line_no)
    assert f"{field} must be an ASCII decimal integer" in str(err)


def test_comments_may_hold_any_characters():
    g, w = parse_graph("c +1_000 \u0663\np 2 1\nn 2 -0\ne 1 2\n")
    assert list(g.edges()) == [(1, 2)] and w == {1: 1, 2: 0}


def test_error_invalid_utf8():
    with pytest.raises(GraphParseError) as caught:
        parse_graph(b"\xff\xfe p 1 0")
    assert caught.value.kind == "malformed"
    assert caught.value.line_no == 0


def test_error_id_range():
    err = parse_err("p 3 1\ne 1 4\n")
    assert err.kind == "id-range" and err.line_no == 2
    assert parse_err("p 3 1\ne 0 2\n").kind == "id-range"
    assert parse_err("p 3 0\nn 4 1\n").kind == "id-range"
    assert parse_err("p 3 0\nn 0 1\n").kind == "id-range"


def test_error_weight_range():
    err = parse_err("p 2 0\nn 1 -3\n")
    assert err.kind == "weight-range" and err.line_no == 2
    err = parse_err("p 2 0\nn 1 1\nn 2 1000000001\n")
    assert err.kind == "weight-range" and err.line_no == 3
    assert parse_graph("p 1 0\nn 1 1000000000\n")[1] == {1: 10**9}


def test_error_duplicate_weight():
    err = parse_err("p 2 0\nn 1 3\nn 1 4\n")
    assert err.kind == "duplicate-weight" and err.line_no == 3


def test_error_duplicate_edge():
    err = parse_err("p 3 2\ne 1 2\ne 2 1\n")
    assert err.kind == "duplicate-edge" and err.line_no == 3
    assert str(err) == "line 3: edge (1, 2) repeated"


def test_error_self_loop():
    err = parse_err("p 3 1\ne 2 2\n")
    assert err.kind == "self-loop" and err.line_no == 2
    assert str(err) == "line 2: self-loop at vertex 2"


def test_error_count_mismatch():
    err = parse_err("p 3 2\ne 1 2\n")
    assert err.kind == "count-mismatch" and err.line_no == 0
    assert str(err) == "line 0: p line declared 2 edges, found 1"
    assert parse_err("p 3 0\ne 1 2\n").kind == "count-mismatch"


def test_emit_writes_all_weights():
    g = Graph([1, 2, 3], [(1, 3)])
    text = emit_graph(g, {1: 4, 2: 1, 3: 0})
    assert text == "p 3 1\nn 1 4\nn 2 1\nn 3 0\ne 1 3\n"


def test_emit_comment_lines():
    g = Graph([1], [])
    text = emit_graph(g, {1: 1}, comment="hello\nworld")
    assert text.startswith("c hello\nc world\np 1 0\n")


def test_emit_comment_breaks_lines_only_at_newline(monkeypatch):
    g = Graph([1], [])
    text = emit_graph(g, {1: 1}, comment="x\x0by z")
    assert text == "c x\x0by z\np 1 0\nn 1 1\n"

    def no_line_loop(text):
        raise AssertionError("an emitted file reached the line loop")

    monkeypatch.setattr(graphio, "_parse_lines", no_line_loop)
    assert parse_graph(text) == parse_graph(text.encode()) == (g, {1: 1})
    # With "\n" as the only break, the lines are those str.splitlines() gives.
    for comment in ("\n", "a\n", "\na", "a\n\nb", "a\nb\n\n", " \n\n"):
        head = "".join(f"c {part}\n" for part in comment.splitlines())
        assert emit_graph(g, {1: 1}, comment=comment) == head + "p 1 0\nn 1 1\n"


def test_emit_requires_contiguous_ids():
    with pytest.raises(ValueError):
        emit_graph(Graph([2, 3], [(2, 3)]), {2: 1, 3: 1})


def test_emit_requires_full_weights():
    with pytest.raises(ValueError):
        emit_graph(Graph([1, 2], []), {1: 1})


def test_emit_enforces_the_weight_cap():
    g = Graph([1, 2], [(1, 2)])
    assert parse_graph(emit_graph(g, {1: 0, 2: 10**9})) == (g, {1: 0, 2: 10**9})
    with pytest.raises(ValueError):
        emit_graph(g, {1: 0, 2: 10**9 + 1})
    with pytest.raises(ValueError):
        generate(GeneratorSpec(kind="path", size=2, seed=0, weight_range=(0, 10**9 + 1)))


def test_round_trip_identity():
    for seed in range(20):
        g, w = generate(GeneratorSpec(kind="random-gnp", size=15, seed=seed, p=0.3))
        g2, w2 = parse_graph(emit_graph(g, w))
        assert g2 == g
        assert w2 == w


def test_round_trip_is_byte_stable():
    g, w = generate(GeneratorSpec(kind="random-gnp", size=10, seed=7, p=0.5))
    text = emit_graph(g, w)
    assert emit_graph(*parse_graph(text)) == text


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_round_trip_property(data):
    n = data.draw(st.integers(min_value=0, max_value=12), label="n")
    ids = list(range(1, n + 1))
    edges = [
        (u, v)
        for u in ids
        for v in ids
        if u < v and data.draw(st.booleans(), label=f"e{u},{v}")
    ]
    g = Graph(ids, edges)
    w = {v: data.draw(st.integers(min_value=0, max_value=9), label=f"w{v}") for v in ids}
    g2, w2 = parse_graph(emit_graph(g, w))
    assert (g2, w2) == (g, w)


def test_report_document_shape():
    doc = ReportDocument(command="solve", payload={"assertion_level": "fair", "weight": 9})
    d = doc.to_dict()
    assert d == {
        "format_version": 1,
        "command": "solve",
        "assertion_level": "fair",
        "weight": 9,
    }


def test_report_json_is_sorted_and_newline_terminated():
    doc = ReportDocument(command="z", payload={"b": 1, "a": 2})
    text = doc.to_json()
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["a"] == 2
    keys = [line.split('"')[1] for line in text.splitlines() if line.startswith('  "')]
    assert keys == sorted(keys)


def test_report_json_deterministic():
    doc1 = ReportDocument(command="solve", payload={"x": [1, 2]})
    doc2 = ReportDocument(command="solve", payload={"x": [1, 2]})
    assert doc1.to_json() == doc2.to_json()


def test_error_document_shape():
    text = error_document("parse-error", "bad line", {"line": 3})
    parsed = json.loads(text)
    assert parsed["error"]["kind"] == "parse-error"
    assert parsed["error"]["message"] == "bad line"
    assert parsed["error"]["details"] == {"line": 3}
    assert parsed["format_version"] == 1


def test_parse_error_rejects_unknown_kind():
    with pytest.raises(ValueError):
        GraphParseError("weird", 1, "nope")


# Characters that str.splitlines() takes as line ends and the format does not.
_NOT_LINE_ENDS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=[f"U+{ord(c):04X}" for c in _NOT_LINE_ENDS])
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_lines_end_only_at_newline(char, as_bytes):
    def read(text):
        return parse_graph(text.encode() if as_bytes else text)

    # A comment line holds any text, these characters included.
    g, w = read(f"c a{char}b\np 1 0\n")
    assert (g.n, w) == (1, {1: 1})
    # Inside a record they only separate tokens, so this is one line of six.
    with pytest.raises(GraphParseError) as err:
        read(f"p 1 0{char}n 1 5\n")
    assert (err.value.kind, err.value.line_no) == ("malformed", 1)
    assert str(err.value) == "line 1: p line needs exactly 2 numbers"
    # Error lines count "\n" alone, as an editor shows them.
    with pytest.raises(GraphParseError) as err:
        read(f"c x{char}y{char}z\np 2 0\nq 1 2\n")
    assert (err.value.kind, err.value.line_no) == ("malformed", 3)


def test_crlf_lines_parse_and_count_as_one_line_each():
    g, w = parse_graph(b"c made on Windows\r\np 2 1\r\nn 1 5\r\ne 1 2\r\n")
    assert list(g.edges()) == [(1, 2)] and w == {1: 5, 2: 1}
    err = parse_err("p 2 0\r\n\r\nq 1 2\r\n")
    assert (err.kind, err.line_no) == ("malformed", 3)


def _outcome(read, data):
    """(graph, weights, table fields) read from data, or the error's (kind, line, message)."""
    try:
        g, w = read(data)
    except GraphParseError as exc:
        return ("error", exc.kind, exc.line_no, str(exc))
    t = g.table
    return ("graph", g, g.mask, list(w.items()), t.ids, t.rank, t.adj, t.closed_adj)


def _line_loop(data):
    return graphio._parse_lines(data.decode() if isinstance(data, bytes) else data)


# Each mutation rewrites one line of an emitted file into a list of lines.
_MUTATIONS = {
    "long-number": lambda line, n: [line.replace(" ", " 0000000000", 1)],
    "leading-zero": lambda line, n: [line.replace(" ", " 0")],
    "minus-zero": lambda line, n: [line.rsplit(" ", 1)[0] + " -0"],
    "plus-one": lambda line, n: [line.replace(" ", " +", 1)],
    "append-digit": lambda line, n: [line + "1"],
    "tab": lambda line, n: [line.replace(" ", "\t", 1)],
    "spaces": lambda line, n: [line.replace(" ", "   ")],
    "blank": lambda line, n: ["", line],
    "crlf": lambda line, n: [line + "\r"],
    "comment": lambda line, n: ["c between records", line],
    "weight-after": lambda line, n: [line, f"n {n} 3"],
    "second-p": lambda line, n: [line, f"p {n} 0"],
    "vertex-cap": lambda line, n: ["p 16385 0"],
    "duplicate": lambda line, n: [line, line],
    "reversed": lambda line, n: [" ".join([line[:1], *line.split()[:0:-1]])],
    "self-loop": lambda line, n: [line, "e 1 1"],
    "id-zero": lambda line, n: [line, "e 0 1"],
    "id-over": lambda line, n: [line, f"e 1 {n + 1}"],
    "weight-over": lambda line, n: [line, f"n {n} 1000000001"],
    "drop": lambda line, n: [],
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_pass_reader_equals_the_line_loop(data):
    n = data.draw(st.integers(min_value=0, max_value=9), label="n")
    ids = list(range(1, n + 1))
    edges = [(u, v) for u in ids for v in ids if u < v and data.draw(st.booleans())]
    w = {v: data.draw(st.integers(min_value=0, max_value=10**9)) for v in ids}
    comment = data.draw(st.sampled_from([None, "made by a test", "two\nlines \u0663"]))
    lines = emit_graph(Graph(ids, edges), w, comment=comment).split("\n")
    for _ in range(data.draw(st.integers(min_value=0, max_value=3), label="mutations")):
        if not lines:
            break
        kind = data.draw(st.sampled_from(sorted(_MUTATIONS)), label="kind")
        i = data.draw(st.integers(min_value=0, max_value=len(lines) - 1), label="line")
        lines[i : i + 1] = _MUTATIONS[kind](lines[i], n)
    text = "\n".join(lines)
    expected = _outcome(_line_loop, text)
    assert _outcome(parse_graph, text) == expected
    assert _outcome(parse_graph, text.encode()) == expected


def _generated_file(tmp_path, size):
    from qmwis.cli import cli_main

    path = tmp_path / f"cograph{size}.graph"
    argv = ["generate", "cograph", "--size", str(size), "--seed", "1", "--out", str(path)]
    assert cli_main(argv) == 0
    return path.read_bytes()


def _peak(read, data):
    tracemalloc.start()
    try:
        read(data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_canonical_files_take_the_one_pass_path(tmp_path, monkeypatch):
    small = _generated_file(tmp_path, 72)
    large = _generated_file(tmp_path, 1000)
    assert large.startswith(b"c generated kind=cograph size=1000 seed=1\np 1000 ")
    expected = _outcome(_line_loop, small)

    def no_line_loop(text):
        raise AssertionError("a canonical file reached the line loop")

    monkeypatch.setattr(graphio, "_parse_lines", no_line_loop)
    assert _outcome(parse_graph, small) == expected
    g, w = parse_graph(large)
    assert emit_graph(g, w, comment="generated kind=cograph size=1000 seed=1").encode() == large
    for seed in range(5):
        g, w = generate(GeneratorSpec(kind="random-gnp", size=20, seed=seed, p=0.4))
        for comment in (None, "a comment", "\u0663   non-ASCII"):
            text = emit_graph(g, w, comment=comment)
            assert parse_graph(text) == parse_graph(text.encode()) == (g, w)
    monkeypatch.undo()

    assert _peak(parse_graph, small) <= _peak(_line_loop, small)
    # The line loop holds at least the decoded text, as long as the file;
    # tracing its peak on this file would take seconds.
    assert _peak(parse_graph, large) <= len(large)
