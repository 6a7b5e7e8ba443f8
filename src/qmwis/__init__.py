"""Exact maximum-weight independent set via separator-guided branching.

The package solves MWIS exactly on graphs without long induced paths
(solve_pkfree) and, more generally, on graphs excluding a fixed disconnected
pattern when an exact solver is supplied for each connected piece of the
pattern (solve_hfree). Supporting machinery: balanced separators built from
induced paths, vertex multifamilies with level sets, runtime invariant
checking with measure bookkeeping, brute-force reference solvers, random
generators, and a plain-text graph format with JSON reports.
"""

from .graph import (
    Graph,
    WeightMap,
    closed_neighborhood,
    connected_components,
    induced_subgraph,
    is_independent_set,
    remove_vertices,
    total_weight,
    validate_weights,
)
from .graphio import (
    PARSE_ERROR_KINDS,
    REPORT_FORMAT_VERSION,
    GraphParseError,
    ReportDocument,
    emit_graph,
    error_document,
    parse_graph,
)
from .hfree import (
    ComponentOracle,
    PatternGraph,
    find_induced_copy,
    make_bruteforce_oracle,
    make_pk_oracle,
    solve_hfree,
)
from .instrumentation import (
    RULE_ADD_NEIGHBORHOOD,
    RULE_ADD_SEPARATOR,
    RULE_BRANCH_DELETE,
    RULE_BRANCH_TAKE,
    RULE_COMPONENT,
    InvariantViolation,
    RunStats,
    assert_recurrence_step,
    max_measure_h,
    max_measure_k,
    measure_h,
    measure_k,
)
from .levels import VertexMultiFamily, branch_threshold, ceil_log2, find_branchable
from .oracle import (
    DEFAULT_BRUTE_FORCE_CAP,
    GenerationError,
    GeneratorSpec,
    GraphTooLarge,
    brute_force_mwis,
    generate,
    longest_induced_path_at_most,
)
from .pkfree import SolveResult, solve_pkfree, verify_witness
from .separators import balanced_separator_core, gyarfas_path, verify_balanced

__version__ = "0.1.0"

__all__ = [
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
