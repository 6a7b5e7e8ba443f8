"""The package's public surface, pinned so that any change to it shows in a diff."""

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
