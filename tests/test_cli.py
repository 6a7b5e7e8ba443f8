import io
import json

import pytest

import qmwis.cli as cli
from qmwis import InvariantViolation, parse_graph


def c5_text() -> str:
    return "p 5 5\nn 1 3\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n"


@pytest.fixture()
def c5_file(tmp_path):
    path = tmp_path / "c5.graph"
    path.write_text(c5_text())
    return str(path)


def run(argv, capsys):
    code = cli.cli_main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_solve_reports_weight(c5_file, capsys):
    code, out, err = run(["solve", c5_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "solve"
    assert doc["weight"] == 4
    assert doc["format_version"] == 1
    assert "witness" not in doc
    assert err == ""


def test_solve_witness_flag(c5_file, capsys):
    code, out, _ = run(["solve", c5_file, "--witness"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["weight"] == 4
    assert 1 in doc["witness"]


def test_solve_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(c5_text()))
    code, out, _ = run(["solve", "-"], capsys)
    assert code == 0
    assert json.loads(out)["weight"] == 4


def test_solve_reports_are_byte_identical(c5_file, capsys):
    _, first, _ = run(["solve", c5_file], capsys)
    _, second, _ = run(["solve", c5_file], capsys)
    assert first == second


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("p 2 1\ne 1 1\n")
    code, out, err = run(["solve", str(bad)], capsys)
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["kind"] == "parse-error"
    assert doc["error"]["details"] == {"kind": "self-loop", "line": 2, "file": str(bad)}


def test_parse_error_from_stdin_names_the_dash(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("p 2 1\ne 1 3\n"))
    code, out, err = run(["solve", "-"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["details"] == {"kind": "id-range", "line": 2, "file": "-"}


def test_parse_error_in_pattern_file_names_it(tmp_path, c5_file, capsys):
    pattern = tmp_path / "h.graph"
    pattern.write_text("p 3 2\ne 1 2\n")
    code, out, err = run(
        ["solve-hfree", c5_file, "--pattern", str(pattern), "--oracle", "bruteforce"], capsys
    )
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "parse-error"
    assert error["details"] == {"kind": "count-mismatch", "line": 0, "file": str(pattern)}


def test_missing_file_exit_code(capsys):
    code, _, err = run(["solve", "/nonexistent/x.graph"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "io-error"


def test_invariant_violation_exit_code(c5_file, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InvariantViolation("level-emptiness", "synthetic failure")

    monkeypatch.setattr(cli, "solve_pkfree", boom)
    code, out, err = run(["solve", c5_file], capsys)
    assert code == 3
    doc = json.loads(err)
    assert doc["error"]["kind"] == "invariant-violation"
    assert doc["error"]["details"]["rule"] == "level-emptiness"


@pytest.mark.parametrize(
    "exc, code, kind",
    [
        (RecursionError("maximum recursion depth exceeded"), 4, "recursion-limit"),
        (MemoryError(), 5, "out-of-memory"),
        (KeyboardInterrupt(), 130, "interrupted"),
    ],
    ids=["recursion", "memory", "interrupt"],
)
def test_runtime_failures_end_in_json_errors(exc, code, kind, c5_file, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "solve_pkfree", boom)
    got, out, err = run(["solve", c5_file], capsys)
    assert got == code
    assert out == ""
    assert json.loads(err)["error"]["kind"] == kind


@pytest.fixture()
def long_path_file(tmp_path):
    # Far deeper than the interpreter's default recursion limit.
    n = 1500
    path = tmp_path / "p1500.graph"
    path.write_text(f"p {n} {n - 1}\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, n)))
    return str(path)


def test_check_pkfree_on_a_long_path(long_path_file, capsys):
    code, out, err = run(["check-pkfree", "1400", long_path_file], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["pk_free"] is False
    # No component has 1501 vertices, so there is nothing to search.
    code, out, err = run(["check-pkfree", "1501", long_path_file], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["pk_free"] is True


def test_solve_hfree_with_a_long_path_pattern(long_path_file, c5_file, capsys):
    code, out, err = run(
        ["solve-hfree", c5_file, "--pattern", long_path_file, "--oracle", "pk:1500"], capsys
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["weight"] == 4


def test_unknown_subcommand_is_input_error(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 2


def test_no_arguments_is_input_error(capsys):
    assert run([], capsys)[0] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "f", "--nonsense", "2"], "qmwis: unrecognized arguments: --nonsense 2"),
        (["solve", "f", "--parallel", "2"], "qmwis: unrecognized arguments: --parallel 2"),
        (["solve"], "qmwis solve: the following arguments are required: file"),
    ],
    ids=["unknown-flag", "removed-parallel-flag", "missing-file"],
)
def test_usage_errors_end_in_json_error_document(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"kind": "input-error", "message": message, "details": {}}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bench", "{dir}"], ["--stats", "{dir}/stats.json"]),
        (
            ["solve-hfree", "{graph}", "--pattern", "{graph}", "--oracle", "bruteforce"],
            ["--k-hint", "4"],
        ),
        (["check-pkfree", "4", "{graph}"], ["--witness"]),
        (["generate", "path", "--size", "3"], ["--assert", "off"]),
        (["separator", "{graph}"], ["--assert", "off"]),
        (["check-pkfree", "4", "{graph}"], ["--assert", "paranoid"]),
    ],
    ids=[
        "bench-stats",
        "solve-hfree-k-hint",
        "check-pkfree-witness",
        "generate-assert",
        "separator-assert",
        "check-pkfree-assert",
    ],
)
def test_flags_a_subcommand_would_ignore_are_usage_errors(argv, flag, c5_file, tmp_path, capsys):
    argv, flag = ([arg.format(dir=tmp_path, graph=c5_file) for arg in a] for a in (argv, flag))
    assert run(argv, capsys)[0] == 0
    code, out, err = run(argv + flag, capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error == {
        "kind": "input-error",
        "message": f"qmwis: unrecognized arguments: {' '.join(flag)}",
        "details": {},
    }
    assert not (tmp_path / "stats.json").exists()


def test_generate_weight_cap(capsys):
    args = ["generate", "path", "--size", "3", "--weight-lo", "1000000000"]
    code, out, _ = run([*args, "--weight-hi", "1000000000"], capsys)
    assert code == 0
    assert parse_graph(out)[1] == {1: 10**9, 2: 10**9, 3: 10**9}
    code, out, err = run([*args, "--weight-hi", "1000000001"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["kind"] == "input-error"


def test_help_exits_zero(capsys):
    code, out, err = run(["solve", "--help"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: qmwis solve")


def test_assert_level_flag(c5_file, capsys):
    code, out, _ = run(["solve", c5_file, "--assert", "paranoid"], capsys)
    assert json.loads(out)["assertion_level"] == "paranoid"
    code, out, _ = run(["solve", c5_file], capsys)
    assert json.loads(out)["assertion_level"] == "fair"


def test_environment_variables_change_nothing(c5_file, tmp_path, capsys, monkeypatch):
    pattern = tmp_path / "h.graph"
    pattern.write_text("p 3 2\ne 1 2\ne 2 3\n")
    commands = [
        ["solve", c5_file, "--witness"],
        ["solve-hfree", c5_file, "--pattern", str(pattern), "--oracle", "bruteforce"],
    ]
    before = [run(argv, capsys) for argv in commands]
    monkeypatch.setenv("QMWIS_ASSERT", "off")
    monkeypatch.setenv("QMWIS_BRUTEFORCE_CAP", "2")
    assert [run(argv, capsys) for argv in commands] == before
    assert json.loads(before[0][1])["assertion_level"] == "fair"
    assert before[1][0] == 0


def test_stats_file(c5_file, tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    code, _, _ = run(["solve", c5_file, "--stats", str(stats_path)], capsys)
    assert code == 0
    doc = json.loads(stats_path.read_text())
    assert doc["command"] == "solve-stats"
    assert doc["stats"]["calls"] > 0


def test_solve_hfree(tmp_path, c5_file, capsys):
    pattern = tmp_path / "h.graph"
    pattern.write_text("p 4 2\ne 1 2\ne 3 4\n")
    code, out, _ = run(
        [
            "solve-hfree",
            c5_file,
            "--pattern",
            str(pattern),
            "--oracle",
            "bruteforce",
            "--oracle",
            "bruteforce",
            "--assume-hfree",
            "--witness",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["weight"] == 4
    assert doc["pattern"]["components"] == [2, 2]
    assert doc["oracle_calls"] > 0


def test_solve_hfree_oracle_count_mismatch(tmp_path, c5_file, capsys):
    pattern = tmp_path / "h.graph"
    pattern.write_text("p 4 2\ne 1 2\ne 3 4\n")
    code, _, err = run(
        ["solve-hfree", c5_file, "--pattern", str(pattern), "--oracle", "bruteforce"],
        capsys,
    )
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "input-error"


def test_solve_hfree_bad_oracle_spec(tmp_path, c5_file, capsys):
    pattern = tmp_path / "h.graph"
    pattern.write_text("p 2 1\ne 1 2\n")
    code, _, err = run(
        ["solve-hfree", c5_file, "--pattern", str(pattern), "--oracle", "magic"], capsys
    )
    assert code == 2
    assert "magic" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("spec", ["bruteforce:x", "pk:x", "pk:"])
def test_solve_hfree_malformed_oracle_spec_names_the_forms(spec, tmp_path, c5_file, capsys):
    pattern = tmp_path / "h.graph"
    pattern.write_text("p 2 1\ne 1 2\n")
    code, _, err = run(["solve-hfree", c5_file, "--pattern", str(pattern), "--oracle", spec], capsys)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["kind"] == "input-error"
    assert repr(spec) in error["message"]
    assert "bruteforce, bruteforce:<cap>, or pk:<k>" in error["message"]


def test_solve_hfree_rejects_a_pk_size_before_building_the_path(
    tmp_path, c5_file, capsys, monkeypatch
):
    # pk:K claims the K-vertex path, whose adjacency takes O(K^2) bits, so a
    # K that is not its component's size is rejected without building it.
    def unbuilt(k):
        raise AssertionError(f"make_pk_oracle({k}) was called")

    monkeypatch.setattr(cli, "make_pk_oracle", unbuilt)
    pattern = tmp_path / "h.graph"
    pattern.write_text("p 2 1\ne 1 2\n")
    argv = ["solve-hfree", c5_file, "--pattern", str(pattern), "--oracle", "pk:20000"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == cli.error_document(
        "input-error", "oracle 0 (p20000) claims a pattern that is not isomorphic to component 0"
    )


def test_solve_hfree_pk_oracle_spec(tmp_path, capsys):
    host = tmp_path / "g.graph"
    host.write_text("p 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
    pattern = tmp_path / "h.graph"
    pattern.write_text("p 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    code, out, _ = run(
        ["solve-hfree", str(host), "--pattern", str(pattern), "--oracle", "pk:4"], capsys
    )
    assert code == 0
    assert json.loads(out)["weight"] == 1


def test_bruteforce_cap_spec(tmp_path, capsys):
    # K5 is already P3-free, so the very first call hits the oracle with
    # all 5 vertices; a cap of 2 must refuse that
    host = tmp_path / "k5.graph"
    edges = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
    host.write_text("p 5 10\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    pattern = tmp_path / "h.graph"
    pattern.write_text("p 3 2\ne 1 2\ne 2 3\n")
    args = ["solve-hfree", str(host), "--pattern", str(pattern), "--oracle"]
    code, _, err = run([*args, "bruteforce:2"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "input-error"
    code, out, _ = run([*args, "bruteforce"], capsys)
    assert code == 0
    assert json.loads(out)["weight"] == 1


@pytest.mark.parametrize("i", ["0", "4097", "15000"])
def test_separator_rejects_i_outside_its_range(i, c5_file, capsys):
    code, out, err = run(["separator", c5_file, "--i", i], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "input-error"
    assert error["message"] == f"--i must be in 1..4096, got {i}"


def test_separator_at_the_largest_i(c5_file, capsys):
    code, out, _ = run(["separator", c5_file, "--i", str(cli.MAX_SEPARATOR_I)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["core"] == doc["closed_neighborhood"] == [1, 2, 3, 4, 5]
    assert doc["balance_bound"] == f"5/{2**4096}"
    assert doc["balanced"] is True


def test_separator_report(c5_file, capsys):
    code, out, _ = run(["separator", c5_file, "--i", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["balanced"] is True
    assert doc["parameter_i"] == 2
    assert set(doc["core"]) <= {1, 2, 3, 4, 5}
    assert doc["balance_bound"] == "5/4"
    assert "assertion_level" not in doc


def test_check_pkfree(c5_file, capsys):
    code, out, _ = run(["check-pkfree", "5", c5_file], capsys)
    assert code == 0
    assert json.loads(out)["pk_free"] is True
    code, out, _ = run(["check-pkfree", "4", c5_file], capsys)
    assert json.loads(out)["pk_free"] is False
    assert "assertion_level" not in json.loads(out)


def test_generate_stdout_round_trips(capsys):
    code, out, _ = run(
        ["generate", "random-gnp", "--size", "8", "--p", "0.5", "--seed", "3"], capsys
    )
    assert code == 0
    g, w = parse_graph(out)
    assert g.n == 8


def test_generate_deterministic_per_seed(capsys):
    args = ["generate", "random-gnp", "--size", "9", "--p", "0.4", "--seed", "5"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


def test_generate_out_file(tmp_path, capsys):
    out_path = tmp_path / "g.graph"
    code, out, _ = run(
        ["generate", "cograph", "--size", "6", "--seed", "1", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert out == ""
    g, _ = parse_graph(out_path.read_text())
    assert g.n == 6


def test_generate_rejection_failure_is_input_error(capsys):
    code, _, err = run(
        [
            "generate",
            "pk-free-rejection",
            "--size",
            "30",
            "--p",
            "0.1",
            "--path-bound",
            "4",
            "--max-attempts",
            "2",
        ],
        capsys,
    )
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "input-error"


def test_bench_directory(tmp_path, capsys):
    for seed in (1, 2):
        code, _, _ = run(
            [
                "generate",
                "random-gnp",
                "--size",
                "7",
                "--p",
                "0.4",
                "--seed",
                str(seed),
                "--out",
                str(tmp_path / f"g{seed}.graph"),
            ],
            capsys,
        )
        assert code == 0
    code, out, _ = run(["bench", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["totals"]["graphs"] == 2
    assert [row["file"] for row in doc["graphs"]] == ["g1.graph", "g2.graph"]


def test_bench_parse_error_names_the_bad_file(tmp_path, capsys):
    (tmp_path / "a.graph").write_text(c5_text())
    (tmp_path / "b.graph").write_text("p 2 0\nn 1 -4\n")
    code, out, err = run(["bench", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "parse-error"
    assert error["details"] == {
        "kind": "weight-range",
        "line": 2,
        "file": str(tmp_path / "b.graph"),
    }


@pytest.mark.parametrize("p", ["1.7", "-0.1", "nan"])
def test_generate_rejects_edge_probability_outside_unit_interval(p, capsys):
    code, out, err = run(["generate", "random-gnp", "--size", "4", "--p", p], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "input-error"
    assert "edge probability" in error["message"]


def test_bench_rejects_non_directory(capsys):
    code, _, err = run(["bench", "/nonexistent-dir"], capsys)
    assert code == 2
