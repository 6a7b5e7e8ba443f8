"""Command line front end.

Subcommands: solve, solve-hfree, separator, check-pkfree, generate, bench.
Reports go to stdout as JSON; diagnostics go to stderr as JSON. Exit codes:
0 success, 2 input error, 3 invariant violation, 4 recursion limit,
5 out of memory, 130 interrupted. Only the solving subcommands (solve,
solve-hfree, bench) take --assert; their reports carry the level. The
separator exponent --i must lie in 1..MAX_SEPARATOR_I (4096).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from .graph import Graph, WeightMap, closed_neighborhood
from .graphio import GraphParseError, ReportDocument, emit_graph, error_document, parse_graph
from .hfree import ComponentOracle, PatternGraph, make_bruteforce_oracle, make_pk_oracle, solve_hfree
from .instrumentation import InvariantViolation
from .oracle import (
    DEFAULT_BRUTE_FORCE_CAP,
    GenerationError,
    GeneratorSpec,
    GraphTooLarge,
    generate,
    longest_induced_path_at_most,
)
from .pkfree import _LEVELS, SolveResult, solve_pkfree
from .separators import balanced_separator_core, verify_balanced

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VIOLATION = 3
EXIT_RECURSION = 4
EXIT_MEMORY = 5
EXIT_INTERRUPTED = 130

# separator --i runs from 1 to this. The report prints N/2^i in full, and
# 2^4096 has 1,234 digits, below CPython's int-to-str limit of 4,300.
MAX_SEPARATOR_I = 4096


class _Parser(argparse.ArgumentParser):
    # Subparsers inherit this class, so every usage error raises instead of
    # printing usage text and exiting; cli_main reports it as an input error.
    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmwis",
        description="Exact maximum-weight independent set via separator-guided branching.",
    )
    # Each subcommand takes only the shared flags it reads, so a flag it
    # would ignore is a usage error.
    level = _Parser(add_help=False)
    level.add_argument(
        "--assert",
        dest="assertion_level",
        choices=tuple(_LEVELS),
        default="fair",
        help="runtime invariant checking level (default: %(default)s)",
    )
    output = _Parser(add_help=False)
    output.add_argument("--stats", metavar="PATH", help="write run statistics JSON to PATH")
    output.add_argument("--witness", action="store_true", help="include the witness in the report")
    k_hint = _Parser(add_help=False)
    k_hint.add_argument("--k-hint", type=int, default=None, help="claimed induced-path bound")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", parents=[level, output, k_hint], help="solve one graph file")
    p_solve.add_argument("file", help="graph file path, or - for stdin")

    p_hfree = sub.add_parser(
        "solve-hfree", parents=[level, output], help="solve with a forbidden pattern and oracles"
    )
    p_hfree.add_argument("file", help="graph file path, or - for stdin")
    p_hfree.add_argument("--pattern", required=True, help="pattern graph file")
    p_hfree.add_argument(
        "--oracle",
        action="append",
        default=None,
        metavar="SPEC",
        help="oracle per pattern component, in order: bruteforce | bruteforce:<cap> | pk:<k>",
    )
    p_hfree.add_argument(
        "--assume-hfree",
        action="store_true",
        help="claim the input is pattern-free; enables the pattern-dependent invariants",
    )

    p_sep = sub.add_parser("separator", help="compute a balanced separator core")
    p_sep.add_argument("file", help="graph file path, or - for stdin")
    p_sep.add_argument("--i", dest="parameter_i", type=int, default=2, help="balance exponent")

    p_check = sub.add_parser("check-pkfree", help="test for induced paths on k vertices")
    p_check.add_argument("k", type=int, help="path length to forbid")
    p_check.add_argument("file", help="graph file path, or - for stdin")

    p_gen = sub.add_parser("generate", help="emit a generated graph file")
    p_gen.add_argument("kind", choices=GeneratorSpec.KINDS, help="generator family")
    p_gen.add_argument("--seed", type=int, default=0, help="generator seed")
    p_gen.add_argument("--size", type=int, required=True, help="vertex count")
    p_gen.add_argument("--p", type=float, default=None, help="edge probability")
    p_gen.add_argument("--path-bound", type=int, default=None, help="rejection bound k")
    p_gen.add_argument("--weight-lo", type=int, default=0, help="minimum weight")
    p_gen.add_argument("--weight-hi", type=int, default=100, help="maximum weight")
    p_gen.add_argument("--max-attempts", type=int, default=5000, help="rejection attempt cap")
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")

    p_bench = sub.add_parser(
        "bench", parents=[level, k_hint], help="solve every graph in a directory"
    )
    p_bench.add_argument("dir", help="directory of .graph files")

    return parser


def _read_graph(path: str) -> tuple[Graph, WeightMap]:
    """Parse the graph file at path (- for stdin); a parse error names the file."""
    data = sys.stdin.read() if path == "-" else Path(path).read_bytes()
    try:
        return parse_graph(data)
    except GraphParseError as exc:
        exc.file = path
        raise


def _solver_payload(result: SolveResult, args: argparse.Namespace, g: Graph) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "assertion_level": args.assertion_level,
        "input": {"vertices": g.n, "edges": g.edge_count},
        "weight": result.weight,
        "assertions_checked": result.stats.assertions_checked,
    }
    if args.witness:
        payload["witness"] = sorted(result.witness)
    return payload


def _finish(report: ReportDocument) -> int:
    sys.stdout.write(report.to_json())
    return EXIT_OK


def _finish_solve(report: ReportDocument, result: SolveResult, args: argparse.Namespace) -> int:
    if args.stats:
        payload = {"assertion_level": args.assertion_level, "stats": result.stats.to_dict()}
        Path(args.stats).write_text(ReportDocument(f"{report.command}-stats", payload).to_json())
    return _finish(report)


def _parse_oracle_spec(spec: str, size: int) -> ComponentOracle | None:
    # None stands for pk:K, K >= 1, on a component of another size: the K-vertex
    # path could not be that component, and it takes O(K^2) bits to build.
    if spec == "bruteforce":
        return make_bruteforce_oracle(DEFAULT_BRUTE_FORCE_CAP)
    forms = "(expected bruteforce, bruteforce:<cap>, or pk:<k>)"
    kind, colon, arg = spec.partition(":")
    if not colon or kind not in ("bruteforce", "pk"):
        raise ValueError(f"unknown oracle spec {spec!r} {forms}")
    try:
        value = int(arg)
    except ValueError:
        raise ValueError(f"oracle spec {spec!r} needs an integer after the colon {forms}") from None
    if kind == "pk":
        return make_pk_oracle(value) if value < 1 or value == size else None
    if value < 1:
        raise ValueError(f"brute-force cap must be >= 1, got {value}")
    return make_bruteforce_oracle(value)


def _cmd_solve(args: argparse.Namespace) -> int:
    g, w = _read_graph(args.file)
    result = solve_pkfree(g, w, k_hint=args.k_hint, assertion_level=args.assertion_level)
    return _finish_solve(ReportDocument("solve", _solver_payload(result, args, g)), result, args)


def _cmd_solve_hfree(args: argparse.Namespace) -> int:
    g, w = _read_graph(args.file)
    pattern_graph, _ = _read_graph(args.pattern)
    pattern = PatternGraph.from_graph(pattern_graph)
    specs = args.oracle or []
    if len(specs) != len(pattern.components):
        raise ValueError(
            f"pattern has {len(pattern.components)} components; "
            f"pass --oracle once per component ({len(specs)} given)"
        )
    oracles = [_parse_oracle_spec(spec, part.n) for spec, part in zip(specs, pattern.components)]
    if None in oracles:
        # solve_hfree's message for a claim of the wrong size
        i = oracles.index(None)
        claim = f"oracle {i} (p{int(specs[i][3:])}) claims a pattern"
        raise ValueError(f"{claim} that is not isomorphic to component {i}")
    result = solve_hfree(
        pattern, g, w, oracles, assume_hfree=args.assume_hfree, assertion_level=args.assertion_level
    )
    payload = _solver_payload(result, args, g)
    payload["pattern"] = {
        "components": [part.n for part in pattern.components],
        "total_size": pattern.total_size,
    }
    payload["oracle_calls"] = result.stats.oracle_calls
    return _finish_solve(ReportDocument("solve-hfree", payload), result, args)


def _cmd_separator(args: argparse.Namespace) -> int:
    if not 1 <= args.parameter_i <= MAX_SEPARATOR_I:
        raise ValueError(f"--i must be in 1..{MAX_SEPARATOR_I}, got {args.parameter_i}")
    g, _ = _read_graph(args.file)
    core = g.table.decode(balanced_separator_core(g, args.parameter_i))
    bound = Fraction(g.n, 2**args.parameter_i)
    neighborhood = closed_neighborhood(g, core)
    balanced = verify_balanced(g, neighborhood, bound)
    report = ReportDocument(
        "separator",
        {
            "input": {"vertices": g.n, "edges": g.edge_count},
            "parameter_i": args.parameter_i,
            "core": sorted(core),
            "closed_neighborhood": sorted(neighborhood),
            "balance_bound": str(bound),
            "balanced": balanced,
        },
    )
    if not balanced:
        raise InvariantViolation(
            "separator-balance",
            f"core neighborhood is not {bound}-balanced",
            {"core": sorted(core)},
        )
    return _finish(report)


def _cmd_check_pkfree(args: argparse.Namespace) -> int:
    g, _ = _read_graph(args.file)
    free = longest_induced_path_at_most(g, args.k)
    payload = {"input": {"vertices": g.n, "edges": g.edge_count}, "k": args.k, "pk_free": free}
    return _finish(ReportDocument("check-pkfree", payload))


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        kind=args.kind,
        size=args.size,
        seed=args.seed,
        p=args.p,
        path_bound=args.path_bound,
        weight_range=(args.weight_lo, args.weight_hi),
        max_attempts=args.max_attempts,
    )
    g, w = generate(spec)
    text = emit_graph(g, w, comment=f"generated kind={spec.kind} size={spec.size} seed={spec.seed}")
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise ValueError(f"{args.dir} is not a directory")
    rows: list[dict[str, Any]] = []
    total_weight = 0
    total_calls = 0
    for path in sorted(root.glob("*.graph")):
        g, w = _read_graph(str(path))
        result = solve_pkfree(g, w, k_hint=args.k_hint, assertion_level=args.assertion_level)
        total_weight += result.weight
        total_calls += result.stats.calls
        rows.append(
            {
                "file": path.name,
                "vertices": g.n,
                "edges": g.edge_count,
                "weight": result.weight,
                "calls": result.stats.calls,
                "max_depth": result.stats.max_depth,
            }
        )
    report = ReportDocument(
        "bench",
        {
            "assertion_level": args.assertion_level,
            "directory": args.dir,
            "graphs": rows,
            "totals": {"graphs": len(rows), "weight": total_weight, "calls": total_calls},
        },
    )
    return _finish(report)


_COMMANDS = {
    "solve": _cmd_solve,
    "solve-hfree": _cmd_solve_hfree,
    "separator": _cmd_separator,
    "check-pkfree": _cmd_check_pkfree,
    "generate": _cmd_generate,
    "bench": _cmd_bench,
}


def cli_main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except SystemExit as exc:  # --help
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    except InvariantViolation as exc:
        sys.stderr.write(error_document("invariant-violation", str(exc), {"rule": exc.rule}))
        return EXIT_VIOLATION
    except GraphParseError as exc:
        details = {"kind": exc.kind, "line": exc.line_no, "file": exc.file}
        sys.stderr.write(error_document("parse-error", str(exc), details))
        return EXIT_INPUT
    except (GraphTooLarge, GenerationError, ValueError) as exc:
        sys.stderr.write(error_document("input-error", str(exc)))
        return EXIT_INPUT
    except OSError as exc:
        sys.stderr.write(error_document("io-error", str(exc)))
        return EXIT_INPUT
    except RecursionError as exc:
        sys.stderr.write(error_document("recursion-limit", str(exc)))
        return EXIT_RECURSION
    except MemoryError:
        sys.stderr.write(error_document("out-of-memory", "the run ran out of memory"))
        return EXIT_MEMORY
    except KeyboardInterrupt:
        sys.stderr.write(error_document("interrupted", "the run was interrupted"))
        return EXIT_INTERRUPTED


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
