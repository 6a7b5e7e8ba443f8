"""The package's public surface, pinned so that any change to it shows in a diff."""

import inspect
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import qmwis

PUBLIC_NAMES = [
    "ComponentOracle",
    "DEFAULT_BRUTE_FORCE_CAP",
    "GenerationError",
    "GeneratorSpec",
    "Graph",
    "GraphParseError",
    "GraphTooLarge",
    "InvariantViolation",
    "PARSE_ERROR_KINDS",
    "PatternGraph",
    "REPORT_FORMAT_VERSION",
    "RULE_ADD_NEIGHBORHOOD",
    "RULE_ADD_SEPARATOR",
    "RULE_BRANCH_DELETE",
    "RULE_BRANCH_TAKE",
    "RULE_COMPONENT",
    "ReportDocument",
    "RunStats",
    "SolveResult",
    "VertexMultiFamily",
    "WeightMap",
    "assert_recurrence_step",
    "balanced_separator_core",
    "branch_threshold",
    "brute_force_mwis",
    "ceil_log2",
    "closed_neighborhood",
    "connected_components",
    "emit_graph",
    "error_document",
    "find_branchable",
    "find_induced_copy",
    "generate",
    "gyarfas_path",
    "induced_subgraph",
    "is_independent_set",
    "longest_induced_path_at_most",
    "make_bruteforce_oracle",
    "make_pk_oracle",
    "max_measure_h",
    "max_measure_k",
    "measure_h",
    "measure_k",
    "parse_graph",
    "remove_vertices",
    "solve_hfree",
    "solve_pkfree",
    "total_weight",
    "validate_weights",
    "verify_balanced",
    "verify_witness",
]


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from qmwis import *", namespace)
    assert all(name in namespace for name in qmwis.__all__)


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 51
    assert sorted(qmwis.__all__) == PUBLIC_NAMES
    assert set(qmwis.__all__) <= set(dir(qmwis))


# Run in a fresh interpreter: by now the test run has loaded every module.
# The CLI calls build the parser, solve with a path claim checked at the
# root, write a --stats file, and test for induced paths; none may load the
# pattern solver or the brute-force module.
IMPORT_PROBE = """
import contextlib, io, sys
import qmwis
assert [m for m in sys.modules if m.startswith("qmwis.")] == [], sorted(sys.modules)
assert set(qmwis.__all__) <= set(dir(qmwis))
from qmwis import cli
qmwis.Graph, qmwis.solve_pkfree
path, stats = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.cli_main(["solve", path, "--assert", "paranoid", "--k-hint", "4"]) == 0
    assert cli.cli_main(["solve", path, "--stats", stats]) == 0
    assert cli.cli_main(["check-pkfree", "4", path]) == 0
assert {"qmwis.hfree", "qmwis.oracle"}.isdisjoint(sys.modules), sorted(sys.modules)
"""

GENERATE_PROBE = """
import contextlib, io
from qmwis import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.cli_main(["generate", "path", "--size", "5"]) == 0
"""

# dataclasses and what it loads: no path-solving or generating process
# needs them, as its records are named tuples and a plain counter class.
NOT_LOADED = """
import sys
assert {"dataclasses", "inspect", "ast", "dis", "tokenize"}.isdisjoint(sys.modules), sorted(sys.modules)
"""


def _probe(script: str, *args: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(Path(qmwis.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script + NOT_LOADED, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_path_solving_leaves_the_pattern_modules_unloaded(tmp_path):
    graph = tmp_path / "c4.graph"
    graph.write_text("p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n")
    _probe(IMPORT_PROBE, str(graph), str(tmp_path / "stats.json"))


def test_generating_loads_no_dataclasses():
    _probe(GENERATE_PROBE)


def test_the_public_solvers_parameters_are_pinned():
    # A new option is a deliberate edit of this pin; the root (N, F) is no option.
    params = {
        qmwis.solve_pkfree: ["g", "w", "k_hint", "assertion_level"],
        qmwis.solve_hfree: ["pattern", "g", "w", "oracles", "assume_hfree", "assertion_level"],
    }
    for solver, names in params.items():
        assert list(inspect.signature(solver).parameters) == names
    g = qmwis.Graph([1, 2], [(1, 2)])
    for option in ({"capacity_n": 3}, {"family": qmwis.VertexMultiFamily()}):
        with pytest.raises(TypeError):
            qmwis.solve_pkfree(g, {1: 1, 2: 1}, **option)


def test_the_records_are_immutable():
    records = [
        (qmwis.SolveResult(1, frozenset({1}), qmwis.RunStats()), "weight"),
        (qmwis.ReportDocument("solve", {}), "payload"),
        (qmwis.GeneratorSpec("path", 5, 0), "size"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_a_fresh_run_stats_snapshot_is_pinned():
    # Key order included: reports sort keys, but to_dict's callers may not.
    assert json.dumps(qmwis.RunStats().to_dict()) == (
        '{"calls": 0, "component_recursions": 0, "branch_steps": 0, "separators_added": 0, '
        '"neighborhoods_added": 0, "oracle_calls": 0, "oracle_calls_by_index": {}, '
        '"max_family_size": 0, "max_depth": 0, "max_graph_size": 0, "max_level_occupancy": {}, '
        '"assertions_checked": 0, "measure_trace_tail": []}'
    )


def test_generator_spec_repr_is_pinned():
    spec = qmwis.GeneratorSpec(kind="random-gnp", size=12, seed=42, p=0.4)
    assert repr(spec) == (
        "GeneratorSpec(kind='random-gnp', size=12, seed=42, p=0.4, path_bound=None, "
        "weight_range=(0, 100), max_attempts=5000)"
    )


def test_each_public_name_is_its_home_modules_object():
    for name in qmwis.__all__:
        home = f"qmwis.{qmwis._HOME[name]}"
        value = getattr(qmwis, name)
        assert value is getattr(import_module(home), name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home, name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'solve_pk'"):
        qmwis.solve_pk
    assert not hasattr(qmwis, "oracles")
