import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmwis
import qmwis.cli as cli
import qmwis.pkfree as pkfree
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


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_invalid_utf8_is_a_parse_error_from_file_and_stdin(source, tmp_path, capsys, monkeypatch):
    data = b"c caf\xe9\np 2 1\ne 1 2\n"
    path = tmp_path / "latin1.graph"
    path.write_bytes(data)
    if source == "stdin":
        # A real stdin: text on top of a byte stream, strict whatever the locale.
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="ascii"))
        path = "-"
    code, out, err = run(["solve", str(path)], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "parse-error"
    assert error["details"] == {"kind": "malformed", "line": 0, "file": str(path)}
    assert "not valid UTF-8" in error["message"]


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


def violation_documents(argv, call, capsys):
    """(the CLI's error object for argv, the InvariantViolation call raises)."""
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    with pytest.raises(InvariantViolation) as info:
        call()
    error = json.loads(err)["error"]
    assert (error["kind"], error["message"]) == ("invariant-violation", str(info.value))
    return error, info.value


def test_a_path_claim_error_carries_k_and_vertex(tmp_path, capsys):
    path = tmp_path / "gnp30.graph"
    argv = ["generate", "random-gnp", "--size", "30", "--p", "0.3", "--seed", "1", "--out", str(path)]
    assert run(argv, capsys)[0] == 0
    g, w = parse_graph(path.read_bytes())
    error, exc = violation_documents(
        ["solve", str(path), "--k-hint", "3", "--assert", "paranoid"],
        lambda: qmwis.solve_pkfree(g, w, k_hint=3, assertion_level="paranoid"),
        capsys,
    )
    assert exc.details == {"k": 3, "vertex": exc.details["vertex"]}
    assert error["details"] == {"k": 3, "vertex": exc.details["vertex"], "rule": "path-claim"}


def test_a_false_claim_of_4_is_refuted_from_a_separator_core(tmp_path, capsys):
    # The root decides only k <= 3. This graph's smallest true claim is 14,
    # and its first separator core already holds an induced P4.
    path = tmp_path / "gnp30.graph"
    argv = ["generate", "random-gnp", "--size", "30", "--p", "0.3", "--seed", "1", "--out", str(path)]
    assert run(argv, capsys)[0] == 0
    g, w = parse_graph(path.read_bytes())
    error, exc = violation_documents(
        ["solve", str(path), "--k-hint", "4", "--assert", "paranoid"],
        lambda: qmwis.solve_pkfree(g, w, k_hint=4, assertion_level="paranoid"),
        capsys,
    )
    assert (exc.rule, exc.details) == ("path-claim", {"k": 4, "vertex": 1})
    assert error["details"] == {"k": 4, "vertex": 1, "rule": "path-claim"}


def test_a_separator_balance_error_carries_the_core(tmp_path, capsys, monkeypatch):
    # A one-vertex core at the end of a 10-vertex path leaves 8 vertices in
    # one component, more than 10/2^1.
    path = tmp_path / "path10.graph"
    path.write_text("p 10 9\n" + "".join(f"e {v} {v + 1}\n" for v in range(1, 10)))
    monkeypatch.setattr(cli, "balanced_separator_core", lambda g, i: g.mask & -g.mask)
    code, out, err = run(["separator", str(path), "--i", "1"], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == {
        "kind": "invariant-violation",
        "message": "separator-balance: core neighborhood is not 5-balanced",
        "details": {"core": [1], "rule": "separator-balance"},
    }


def test_a_recurrence_error_carries_both_potentials(cograph8_file, capsys, monkeypatch):
    # A potential that never falls breaks the first audited edge's rule.
    monkeypatch.setattr(pkfree._PathScheme, "potential", lambda *args: 100)
    g, w = parse_graph(Path(cograph8_file).read_bytes())
    error, exc = violation_documents(
        ["solve", cograph8_file, "--k-hint", "4", "--assert", "paranoid"],
        lambda: qmwis.solve_pkfree(g, w, k_hint=4, assertion_level="paranoid"),
        capsys,
    )
    assert exc.details == {"parent": 100, "child": 100, "rule": exc.rule, "k": 4}
    assert error["details"] == exc.details


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
        (["separator", "{graph}"], ["--stats", "{dir}/stats.json"]),
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
        "separator-stats",
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


def test_one_process_builds_one_parser(c5_file, capsys, monkeypatch):
    # Every subcommand, every --help, usage errors and an unknown subcommand
    # share the parser the first call builds: one root and five subcommand
    # parsers, built once.
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(cli._Parser, "__init__", lambda p, **kw: built.append(p) or init(p, **kw))
    argvs = [
        ["solve", c5_file],
        ["solve-hfree", c5_file, "--pattern", c5_file, "--oracle", "bruteforce"],
        ["separator", c5_file],
        ["check-pkfree", "3", c5_file],
        ["generate", "path", "--size", "3"],
        ["--help"],
        ["-h", "solve"],
        *([name, "--help"] for name in cli._COMMANDS),
    ]
    refused = [["solve", c5_file, "--nonsense"], ["bogus"], []]
    cli.build_parser.cache_clear()
    codes = [run(argv, capsys)[0] for argv in argvs + refused]
    assert codes == [0] * len(argvs) + [2] * len(refused)
    assert len(built) == 1 + len(cli._COMMANDS)


@pytest.mark.parametrize(
    "argv, only",
    [([], None), (["--help"], None), (["bogus"], None), (["-h", "solve"], None)]
    + [([name, "--help"], name) for name in cli._COMMANDS],
)
def test_a_call_builds_the_parser_of_its_subcommand_only(argv, only, capsys, monkeypatch):
    # The first call of a process builds the one shared parser, root and all
    # five subcommands; it reads the parser of the subcommand it names (`only`,
    # or the root's for None), and a repeated call builds nothing more.
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(cli._Parser, "__init__", lambda p, **kw: built.append(p) or init(p, **kw))
    cli.build_parser.cache_clear()
    first = run(argv, capsys)
    assert len(built) == 1 + len(cli._COMMANDS)
    assert run(argv, capsys) == first
    assert len(built) == 1 + len(cli._COMMANDS)
    code, out, err = first
    if only is not None:
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: qmwis {only} ")
    elif code == 0:
        # Five subcommands fit the usage line in 80 columns; argparse wraps it
        # after "[-h]" when they do not.
        assert out.startswith("usage: qmwis [-h]")
    else:
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["kind"] == "input-error"


def test_importing_the_cli_builds_no_parser():
    # Benchmark workers import qmwis.cli during set-up; the parser waits
    # for the first call.
    probe = "import argparse; argparse.ArgumentParser.__init__ = None; import qmwis.cli"
    env = {**os.environ, "PYTHONPATH": str(Path(qmwis.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_a_shared_parser_carries_nothing_from_one_call_to_the_next(tmp_path, c5_file, capsys):
    pattern = tmp_path / "h.graph"
    pattern.write_text("p 4 2\ne 1 2\ne 3 4\n")
    hfree = ["solve-hfree", c5_file, "--pattern", str(pattern)]
    argvs = [
        [*hfree, "--oracle", "bruteforce", "--oracle", "bruteforce"],
        hfree,
        ["solve", c5_file, "--witness", "--k-hint", "3", "--stats", str(tmp_path / "s.json")],
        ["solve", c5_file],
        ["solve", c5_file, "--assert", "bogus"],
        ["solve", "--help"],
        ["separator", c5_file, "--i", "3"],
        ["separator", c5_file],
        ["generate", "star", "--size", "4", "--seed", "2"],
        ["generate", "star", "--size", "4"],
    ]

    def outcomes(clear):
        results = []
        for argv in argvs:
            if clear:
                cli.build_parser.cache_clear()
            results.append(run(argv, capsys))
        return results

    fresh = outcomes(clear=True)
    assert outcomes(clear=False) == fresh
    assert "(0 given)" in json.loads(fresh[1][2])["error"]["message"]
    assert "witness" in json.loads(fresh[2][1]) and "witness" not in json.loads(fresh[3][1])
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 2, 0, 0, 0, 0, 0]


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


@pytest.mark.parametrize(
    "spec",
    ["bruteforce:x", "pk:x", "pk:", "pk: 4", "pk:+4", "pk:\u0664", "bruteforce:\u0662\u0665"],
)
def test_solve_hfree_malformed_oracle_spec_names_the_forms(spec, tmp_path, c5_file, capsys):
    pattern = tmp_path / "h.graph"
    pattern.write_text("p 2 1\ne 1 2\n")
    code, _, err = run(["solve-hfree", c5_file, "--pattern", str(pattern), "--oracle", spec], capsys)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["kind"] == "input-error"
    assert repr(spec) in error["message"]
    assert "bruteforce, bruteforce:<cap>, or pk:<k>" in error["message"]


def test_solve_rejects_integers_that_are_not_ascii_decimal(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("p 3 0\nn 1 1_000\n")
    code, out, err = run(["solve", str(bad)], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "parse-error"
    assert (error["details"]["kind"], error["details"]["line"]) == ("malformed", 2)


def test_solve_hfree_rejects_a_pk_size_before_building_the_path(
    tmp_path, c5_file, capsys, monkeypatch
):
    # pk:K claims the K-vertex path, whose adjacency takes O(K^2) bits, so a
    # K that is not its component's size is rejected without building it.
    def unbuilt(k):
        raise AssertionError(f"make_pk_oracle({k}) was called")

    monkeypatch.setattr("qmwis.hfree.make_pk_oracle", unbuilt)
    pattern = tmp_path / "h.graph"
    pattern.write_text("p 2 1\ne 1 2\n")
    argv = ["solve-hfree", c5_file, "--pattern", str(pattern), "--oracle", "pk:20000"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == cli.error_document(
        "input-error", "oracle 0 (p20000) claims a pattern that is not isomorphic to component 0"
    )


def test_solve_hfree_reports_the_first_faulty_oracle_spec(tmp_path, c5_file, capsys):
    # Specs are checked left to right, a pk size that cannot be its
    # component's as soon as it is read.
    pattern = tmp_path / "p4k3.graph"
    pattern.write_text("p 7 6\ne 1 2\ne 2 3\ne 3 4\ne 5 6\ne 6 7\ne 5 7\n")
    argv = ["solve-hfree", c5_file, "--pattern", str(pattern)]
    code, out, err = run([*argv, "--oracle", "pk:9", "--oracle", "magic"], capsys)
    assert (code, out) == (2, "")
    assert err == cli.error_document(
        "input-error", "oracle 0 (p9) claims a pattern that is not isomorphic to component 0"
    )
    code, out, err = run([*argv, "--oracle", "magic", "--oracle", "pk:9"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["message"].startswith("unknown oracle spec 'magic'")
    code, out, err = run([*argv, "--oracle", "pk:4", "--oracle", "pk:9"], capsys)
    assert (code, out) == (2, "")
    assert err == cli.error_document(
        "input-error", "oracle 1 (p9) claims a pattern that is not isomorphic to component 1"
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
    code, _, err = run([*args, "bruteforce:0"], capsys)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["kind"] == "input-error"
    assert error["message"] == "brute-force cap must be >= 1, got 0"
    code, out, _ = run([*args, "bruteforce"], capsys)
    assert code == 0
    assert json.loads(out)["weight"] == 1


def test_a_leaf_past_its_oracles_cap_is_an_input_error_naming_the_oracle(tmp_path, capsys):
    host = tmp_path / "c30.graph"
    host.write_text("p 30 30\n" + "".join(f"e {i} {i % 30 + 1}\n" for i in range(1, 31)))
    pattern = tmp_path / "p4k3.graph"
    pattern.write_text("p 7 6\ne 1 2\ne 2 3\ne 3 4\ne 5 6\ne 6 7\ne 5 7\n")
    argv = ["solve-hfree", str(host), "--pattern", str(pattern)]
    code, out, err = run([*argv, "--oracle", "pk:4", "--oracle", "bruteforce"], capsys)
    assert (code, out) == (2, "")
    assert err == cli.error_document(
        "input-error",
        "oracle 1 (bruteforce<=25) on a 30-vertex leaf component: brute force refuses 30 > 25 vertices",
    )


@pytest.mark.parametrize(
    "argv, name, token",
    [
        (["solve", "{graph}", "--k-hint", "1_0"], "--k-hint", "1_0"),
        (["solve", "{graph}", "--k-hint", " 4"], "--k-hint", " 4"),
        (["solve", "{graph}", "--k-hint", "+4"], "--k-hint", "+4"),
        (["check-pkfree", "٣", "{graph}"], "k", "٣"),
        (["separator", "{graph}", "--i", "+2"], "--i", "+2"),
        (["separator", "{graph}", "--i", "２"], "--i", "２"),
        (["generate", "path", "--size", " 4"], "--size", " 4"),
        (["generate", "path", "--size", "3", "--seed", "1_0"], "--seed", "1_0"),
        (["generate", "path", "--size", "3", "--path-bound", "+5"], "--path-bound", "+5"),
        (["generate", "path", "--size", "3", "--weight-lo", "٣"], "--weight-lo", "٣"),
        (["generate", "path", "--size", "3", "--weight-hi", "9 "], "--weight-hi", "9 "),
        (["generate", "path", "--size", "3", "--max-attempts", "1_0"], "--max-attempts", "1_0"),
    ],
)
def test_integer_flags_take_only_ascii_decimals(argv, name, token, c5_file, tmp_path, capsys):
    argv = [arg.format(dir=tmp_path, graph=c5_file) for arg in argv]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "kind": "input-error",
        "message": f"qmwis {argv[0]}: argument {name}: "
        f"must be an ASCII decimal integer, got {token!r}",
        "details": {},
    }


@pytest.fixture()
def cograph8_file(tmp_path, capsys):
    path = tmp_path / "cograph8.graph"
    argv = ["generate", "cograph", "--size", "8", "--seed", "1", "--out", str(path)]
    assert run(argv, capsys)[0] == 0
    return str(path)


def test_k_hint_at_its_bound_writes_the_stats(cograph8_file, tmp_path, capsys):
    # 16385 claims what every larger k_hint would of a graph file; its
    # potentials print well inside CPython's int-to-str limit.
    stats = tmp_path / "stats.json"
    argv = ["solve", cograph8_file, "--k-hint", "16385", "--assert", "paranoid"]
    code, out, err = run([*argv, "--stats", str(stats)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["weight"] > 0
    assert json.loads(stats.read_text())["stats"]["measure_trace_tail"]


@pytest.mark.parametrize(
    "k", ["16386", "00016386", "1" + "0" * 2200], ids=["16386", "zero-padded", "2201-digits"]
)
def test_k_hint_above_its_bound_is_refused_before_reading(k, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    argv = ["solve", str(tmp_path / "missing"), "--k-hint", k, "--stats", str(stats)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "kind": "input-error",
        "message": f"qmwis solve: argument --k-hint: must be at most 16385, got {k!r}",
        "details": {},
    }
    assert not stats.exists()


@pytest.mark.parametrize(
    "p", ["\u0660.\u0665", " 0.5", "0.5 ", "0.1_5", "1_0", "1e-1", "+0.5", "inf", "", ".", "0..5"]
)
def test_generate_takes_the_edge_probability_as_an_ascii_decimal(p, capsys):
    code, out, err = run(["generate", "random-gnp", "--size", "5", "--p", p, "--seed", "1"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "kind": "input-error",
        "message": "qmwis generate: argument --p: edge probability must be "
        f"ASCII digits with at most one '.', got {p!r}",
        "details": {},
    }


def test_generate_edge_probability_spellings_that_stay(capsys):
    outputs = set()
    for p in ["0.5", ".5", "0.50", "00.5"]:
        code, out, _ = run(["generate", "random-gnp", "--size", "6", "--p", p], capsys)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    for p in ["0", "1", "1.", "1.0"]:
        assert run(["generate", "random-gnp", "--size", "4", "--p", p], capsys)[0] == 0


def test_integer_flags_take_ascii_decimals_with_a_minus(capsys):
    code, out, _ = run(["generate", "path", "--size", "3", "--seed", "-7"], capsys)
    assert code == 0
    assert parse_graph(out)[0].n == 3


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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{g}"],
        ["solve-hfree", "{g}", "--pattern", "{ok}", "--oracle", "bruteforce"],
        ["solve-hfree", "{ok}", "--pattern", "{g}", "--oracle", "bruteforce"],
        ["separator", "{g}"],
        ["check-pkfree", "3", "{g}"],
    ],
    ids=["solve", "solve-hfree", "solve-hfree-pattern", "separator", "check-pkfree"],
)
def test_a_huge_declared_vertex_count_is_a_header_error(argv, tmp_path):
    # A 15-byte file must not make any subcommand allocate for 10^9 vertices:
    # under a 1 GiB address-space limit the run ends as a parse error.
    (tmp_path / "huge.graph").write_text("p 1000000000 0\n")
    ok = tmp_path / "ok.txt"
    ok.write_text("p 1 0\n")
    args = [a.format(g=tmp_path / "huge.graph", ok=ok) for a in argv]
    limited_cli = (
        "import resource, runpy, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "sys.argv[0] = 'qmwis'\n"
        "runpy.run_module('qmwis.cli', run_name='__main__')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qmwis.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", limited_cli, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    error = json.loads(proc.stderr)["error"]
    assert error["kind"] == "parse-error"
    assert error["details"]["kind"] == "header"
    assert error["details"]["line"] == 1


@pytest.mark.parametrize("p", ["1.7", "-0.1", "nan"])
def test_generate_rejects_edge_probability_outside_unit_interval(p, capsys):
    code, out, err = run(["generate", "random-gnp", "--size", "4", "--p", p], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "input-error"
    assert "edge probability" in error["message"]


def test_generate_refuses_a_size_over_the_file_cap(tmp_path, capsys):
    out_path = tmp_path / "big.graph"
    code, out, err = run(["generate", "path", "--size", "16385", "--out", str(out_path)], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "input-error"
    assert error["message"] == "size 16385 exceeds 16384, the most vertices a graph file holds"
    assert not out_path.exists()
    code, out, err = run(["generate", "path", "--size", "-1", "--out", str(out_path)], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "input-error"
    assert error["message"] == "size must be >= 0, got -1"
    assert not out_path.exists()


def test_bench_is_an_unknown_subcommand(tmp_path, capsys):
    # A shell loop over `qmwis solve` solves a directory. Python versions
    # quote argparse's choice list differently, so only its parts are pinned.
    code, out, err = run(["bench", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert (error["kind"], error["details"]) == ("input-error", {})
    assert "invalid choice" in error["message"] and "'bench'" in error["message"]
