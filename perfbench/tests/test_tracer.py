import dataclasses

import pytest

import qmwis
import tracer as tracer_module
from qmwis import cli, graph, levels, pkfree
from calibration import Calibrator
from tracer import Tracer
from worker import build_calls, solve_all, summarize
from workloads import WORKLOADS, instances


@pytest.fixture(autouse=True)
def restore_cli_solver(monkeypatch):
    # build_calls rebinds the CLI's solver to a hook; undo it after each test.
    monkeypatch.setattr(cli, "solve_pkfree", cli.solve_pkfree)


def small_run(name, tmp_path, traced, size=16, count=3):
    workload = dataclasses.replace(WORKLOADS[name], size=size)
    insts = instances(workload, 5, count)
    tracer = Tracer() if traced else None
    hook, calls = build_calls(workload, insts, tmp_path, tracer)
    cal = Calibrator()
    if tracer is not None:
        tracer.install()
    try:
        records = solve_all(calls, hook, tracer, cal)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return summarize(workload, insts, records, tracer, cal), records, tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_span_self_time_plus_children_is_its_duration(name, tmp_path):
    _, _, t = small_run(name, tmp_path, traced=True)
    n = t.mark()
    assert n > 0
    children = [0] * n
    for i in range(n):
        p = t.parents[i]
        if p >= 0:
            assert p < i
            assert t.starts[p] <= t.starts[i] <= t.ends[i] <= t.ends[p]
            children[p] += t.ends[i] - t.starts[i]
    own = t.self_times()
    for i in range(n):
        assert own[i] >= 0
        assert own[i] + children[i] == t.ends[i] - t.starts[i]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_top_level_spans_plus_residuals_are_the_traced_time(name, tmp_path):
    out, records, t = small_run(name, tmp_path, traced=True)
    to_ns = 1e9 / out["scale"]
    inner_ns = sum(inner[1] for *_, inner in records)
    inner_top = sum(t.top_level_ns(inner[2], inner[3]) for *_, inner in records)
    assert inner_top + out["engine_residual_s"] * to_ns == pytest.approx(inner_ns, abs=2)
    outer_ns = sum(rec[2] for rec in records)
    outer_top = sum(t.top_level_ns(rec[3], rec[4]) for rec in records)
    residual = (out["engine_residual_s"] + out["cli_residual_s"]) * to_ns
    assert outer_top + residual == pytest.approx(outer_ns, abs=2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reproduces_weights_counts_and_reports(name, tmp_path):
    plain, _, _ = small_run(name, tmp_path / "plain", traced=False)
    traced, _, _ = small_run(name, tmp_path / "traced", traced=True)
    assert plain["errors"] == traced["errors"] == [None] * 3
    for key in ("weights", "counts", "digests"):
        assert plain[key] == traced[key]


def test_layers_separate_by_workload(tmp_path):
    spans = {name: small_run(name, tmp_path / name, traced=True)[0]["spans"] for name in WORKLOADS}
    for name, rows in spans.items():
        hfree_only = rows["hfree.find_induced_copy"]["calls"] + rows["oracle.pk"]["calls"]
        assert (hfree_only > 0) == (name == "hfree-p4k3")
        audit = rows["instrumentation.recurrence"]["calls"] + rows["graphio.parse_graph"]["calls"]
        assert (audit > 0) == (name == "cli-audit")


def test_install_rebinds_every_import_and_uninstall_restores():
    originals = (graph.remove_vertices, levels.VertexMultiFamily.subtract, qmwis.ReportDocument.to_json)
    t = Tracer()
    t.install()
    try:
        assert pkfree.remove_vertices is graph.remove_vertices is qmwis.remove_vertices
        assert graph.remove_vertices.__wrapped__ is originals[0]
        assert levels.VertexMultiFamily.subtract.__wrapped__ is originals[1]
        assert qmwis.ReportDocument.to_json.__wrapped__ is originals[2]
        assert t.absent == []
    finally:
        t.uninstall()
    assert pkfree.remove_vertices is graph.remove_vertices is originals[0]
    assert levels.VertexMultiFamily.subtract is originals[1]
    assert qmwis.ReportDocument.to_json is originals[2]


def test_missing_layer_is_reported_absent(monkeypatch):
    spans = dict(tracer_module.SPANS, **{"graph.gone": (("qmwis.graph", "no_such_function"),)})
    monkeypatch.setattr(tracer_module, "SPANS", spans)
    t = Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["graph.gone"]
    assert "graph.gone" not in t.totals()


def test_hit_ratio_counts_non_none_returns():
    t = Tracer()
    find = t.wrap("levels.find_branchable", lambda x: x)
    for x in (None, 3, None, 0):
        find(x)
    row = t.totals()["levels.find_branchable"]
    assert (row["calls"], row["hit_ratio"]) == (4, 0.5)
