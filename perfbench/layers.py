"""The layers the traced run measures and the per-layer metric catalogue.

SPANS maps a span name to the functions it times, as (module, attribute)
pairs; a dotted attribute is a method rebound on its class. The oracle spans
have no entry: they time the oracle callables the benchmark itself passes to
solve_hfree.

PER_LAYER lists every per-layer metric with its unit, its better direction
and the end-to-end metrics and workloads it is predicted to move, so a later
change can cite the prediction by name. BENCHMARK.json repeats the names,
units and directions; a test keeps the two in step.
"""

from __future__ import annotations

SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "graph.remove_vertices": (("qmwis.graph", "remove_vertices"),),
    "graph.induced_subgraph": (("qmwis.graph", "induced_subgraph"),),
    "graph.connected_components": (("qmwis.graph", "connected_components"),),
    "graph.closed_neighborhood": (("qmwis.graph", "closed_neighborhood"),),
    "levels.find_branchable": (("qmwis.levels", "find_branchable"),),
    "levels.family_subtract": (("qmwis.levels", "VertexMultiFamily.subtract"),),
    "levels.family_add": (("qmwis.levels", "VertexMultiFamily.add"),),
    "separators.balanced_separator_core": (("qmwis.separators", "balanced_separator_core"),),
    "hfree.find_induced_copy": (("qmwis.hfree", "find_induced_copy"),),
    "instrumentation.measure": (
        ("qmwis.instrumentation", "measure_k"),
        ("qmwis.instrumentation", "measure_h"),
    ),
    "instrumentation.recurrence": (("qmwis.instrumentation", "assert_recurrence_step"),),
    "instrumentation.verify_balanced": (("qmwis.separators", "verify_balanced"),),
    "pkfree.verify_witness": (("qmwis.pkfree", "verify_witness"),),
    "graphio.parse_graph": (("qmwis.graphio", "parse_graph"),),
    "graphio.report": (("qmwis.graphio", "ReportDocument.to_json"),),
}

ORACLE_SPANS = ("oracle.pk", "oracle.bruteforce")

# Spans whose ratio of non-None returns to calls is reported as .hit_ratio.
HIT_SPANS = frozenset({"levels.find_branchable", "hfree.find_induced_copy"})

# Counters summed over instances from SolveResult.stats (max_depth: maximum).
ENGINE_COUNTS = {
    "engine.calls": "calls",
    "engine.branch_steps": "branch_steps",
    "engine.separators_added": "separators_added",
    "engine.component_recursions": "component_recursions",
    "engine.neighborhoods_added": "neighborhoods_added_count",
    "engine.oracle_calls": "oracle_calls",
    "engine.max_depth": "max_depth",
}

_P50 = "solve_s.p50"
_GNP, _COG, _HF, _CLI = "pk-gnp-sparse", "pk-cograph-dense", "hfree-p4k3", "cli-audit"


def _span_metrics(span: str, moves, parts=("calls", "self_s")):
    units = {"calls": ("count", "lower"), "self_s": ("s", "lower"), "hit_ratio": ("ratio", "higher")}
    return [(f"{span}.{part}", *units[part], moves) for part in parts]


_GRAPH_MOVES = ((_P50, _COG), (_P50, _GNP))
_LEVEL_MOVES = ((_P50, _HF), (_P50, _COG))
_CLI_MOVES = ((_P50, _CLI),)

# (name, unit, better, ((end-to-end metric, workload), ...))
PER_LAYER: list[tuple[str, str, str, tuple[tuple[str, str], ...]]] = [
    *_span_metrics("graph.remove_vertices", _GRAPH_MOVES),
    *_span_metrics("graph.induced_subgraph", _GRAPH_MOVES),
    *_span_metrics("graph.connected_components", _GRAPH_MOVES),
    *_span_metrics("graph.closed_neighborhood", _GRAPH_MOVES),
    *_span_metrics("levels.find_branchable", _LEVEL_MOVES, ("calls", "self_s", "hit_ratio")),
    *_span_metrics("levels.family_subtract", _LEVEL_MOVES),
    *_span_metrics("levels.family_add", _LEVEL_MOVES),
    *_span_metrics("separators.balanced_separator_core", ((_P50, _GNP),)),
    *_span_metrics("hfree.find_induced_copy", ((_P50, _HF),), ("calls", "self_s", "hit_ratio")),
    *_span_metrics("oracle.pk", ((_P50, _HF),)),
    *_span_metrics("oracle.bruteforce", ((_P50, _HF),)),
    *_span_metrics("instrumentation.measure", _CLI_MOVES),
    *_span_metrics("instrumentation.recurrence", _CLI_MOVES),
    *_span_metrics("instrumentation.verify_balanced", _CLI_MOVES),
    *_span_metrics("pkfree.verify_witness", _CLI_MOVES),
    ("engine.calls", "count", "lower", (("batch_s", _GNP),)),
    ("engine.branch_steps", "count", "lower", (("batch_s", _GNP),)),
    ("engine.separators_added", "count", "lower", (("batch_s", _GNP),)),
    ("engine.component_recursions", "count", "lower", (("batch_s", _COG),)),
    ("engine.neighborhoods_added", "count", "lower", (("batch_s", _HF),)),
    ("engine.oracle_calls", "count", "lower", (("batch_s", _HF),)),
    ("engine.max_depth", "count", "lower", (("peak_rss_mib", _GNP),)),
    ("engine.residual_s", "s", "lower", ((_P50, _GNP),)),
    ("engine.us_per_call", "us", "lower", (("batch_s", _COG),)),
    ("graphio.parse_graph.self_s", "s", "lower", _CLI_MOVES),
    ("graphio.report.self_s", "s", "lower", _CLI_MOVES),
    ("cli.residual_s", "s", "lower", _CLI_MOVES),
    ("trace.overhead_ratio", "ratio", "lower", ()),
]
