"""Exact maximum-weight independent set via separator-guided branching.

The package solves MWIS exactly on graphs without long induced paths
(solve_pkfree) and, more generally, on graphs excluding a fixed disconnected
pattern when an exact solver is supplied for each connected piece of the
pattern (solve_hfree). Supporting machinery: balanced separators built from
induced paths, vertex multifamilies with level sets, runtime invariant
checking with measure bookkeeping, brute-force reference solvers, random
generators, and a plain-text graph format with JSON reports.

Importing the package loads none of its modules. Each public name loads
its home module, listed in _EXPORTS, on first use, so a process that only
solves P_k-free instances never loads the pattern solver (hfree) or the
brute-force solver and generators (oracle).
"""

from importlib import import_module

__version__ = "0.1.0"

# The home module of every public name; __all__ is read from it.
_EXPORTS = {
    "graph": """Graph WeightMap closed_neighborhood connected_components induced_subgraph
        is_independent_set remove_vertices total_weight validate_weights""",
    "graphio": """PARSE_ERROR_KINDS REPORT_FORMAT_VERSION GraphParseError ReportDocument
        emit_graph error_document parse_graph""",
    "hfree": """ComponentOracle PatternGraph find_induced_copy make_bruteforce_oracle
        make_pk_oracle solve_hfree""",
    "instrumentation": """RULE_ADD_NEIGHBORHOOD RULE_ADD_SEPARATOR RULE_BRANCH_DELETE
        RULE_BRANCH_TAKE RULE_COMPONENT InvariantViolation RunStats assert_recurrence_step
        max_measure_h max_measure_k measure_h measure_k""",
    "levels": "VertexMultiFamily branch_threshold ceil_log2 find_branchable",
    "oracle": """DEFAULT_BRUTE_FORCE_CAP GenerationError GeneratorSpec GraphTooLarge
        brute_force_mwis generate""",
    "pkfree": "SolveResult solve_pkfree verify_witness",
    "separators": """balanced_separator_core gyarfas_path longest_induced_path_at_most
        verify_balanced""",
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    # Kept, so the next lookup finds it without calling this function.
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
