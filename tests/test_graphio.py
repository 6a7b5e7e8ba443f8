import json

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
    err = parse_err("c only a comment\n")
    assert err.kind == "header"
    assert err.line_no == 0


def test_error_second_header():
    err = parse_err("p 2 0\np 2 0\n")
    assert err.kind == "header"
    assert err.line_no == 2


def test_error_negative_counts():
    assert parse_err("p -1 0\n").kind == "header"
    assert parse_err("p 2 -1\n").kind == "header"


def test_error_malformed_lines():
    assert parse_err("p 2\n").kind == "malformed"
    assert parse_err("p 2 0 9\n").kind == "malformed"
    assert parse_err("p two 0\n").kind == "malformed"
    assert parse_err("p 2 0\nq 1 2\n").kind == "malformed"
    assert parse_err("p 2 1\ne 1\n").kind == "malformed"
    assert parse_err("p 2 1\ne 1 2 3\n").kind == "malformed"
    assert parse_err("p 2 0\nn 1\n").kind == "malformed"
    err = parse_err("p 2 1\ne one 2\n")
    assert err.kind == "malformed"
    assert err.line_no == 2


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


def test_error_self_loop():
    err = parse_err("p 3 1\ne 2 2\n")
    assert err.kind == "self-loop" and err.line_no == 2


def test_error_count_mismatch():
    err = parse_err("p 3 2\ne 1 2\n")
    assert err.kind == "count-mismatch" and err.line_no == 0
    assert parse_err("p 3 0\ne 1 2\n").kind == "count-mismatch"


def test_emit_writes_all_weights():
    g = Graph([1, 2, 3], [(1, 3)])
    text = emit_graph(g, {1: 4, 2: 1, 3: 0})
    assert text == "p 3 1\nn 1 4\nn 2 1\nn 3 0\ne 1 3\n"


def test_emit_comment_lines():
    g = Graph([1], [])
    text = emit_graph(g, {1: 1}, comment="hello\nworld")
    assert text.startswith("c hello\nc world\np 1 0\n")


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
