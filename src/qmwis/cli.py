"""Command line front end.

Subcommands: solve, solve-hfree, separator, check-pkfree, generate.
Reports go to stdout as JSON; diagnostics go to stderr as JSON. Exit codes:
0 success, 2 input error, 3 invariant violation, 4 recursion limit,
5 out of memory, 130 interrupted. Only the solving subcommands (solve and
solve-hfree) take --assert; their reports carry the level. The
separator exponent --i must lie in 1..MAX_SEPARATOR_I (4096) and --k-hint
at most MAX_K_HINT (16,385). Integer flags take ASCII decimal integers
only, as graph files do, and generate --p ASCII digits and at most one '.'.
hfree.py and oracle.py are imported only by the code that calls them.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from .graph import Graph, WeightMap, closed_neighborhood
from .graphio import (
    GENERATOR_KINDS,
    MAX_VERTICES,
    GraphParseError,
    ReportDocument,
    emit_graph,
    error_document,
    parse_decimal,
    parse_graph,
)
from .instrumentation import InvariantViolation
from .pkfree import _LEVELS, SolveResult, solve_pkfree
from .separators import balanced_separator_core, longest_induced_path_at_most, verify_balanced

if TYPE_CHECKING:
    from .hfree import ComponentOracle

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VIOLATION = 3
EXIT_RECURSION = 4
EXIT_MEMORY = 5
EXIT_INTERRUPTED = 130

# separator --i runs from 1 to this. The report prints N/2^i in full, and
# 2^4096 has 1,234 digits, below CPython's int-to-str limit of 4,300.
MAX_SEPARATOR_I = 4096

# --k-hint runs up to this. A graph file holds at most MAX_VERTICES
# vertices, so every larger k claims the same; the potentials in the
# --stats measure trace grow with k, past CPython's int-to-str limit.
MAX_K_HINT = MAX_VERTICES + 1


class _Parser(argparse.ArgumentParser):
    # Subparsers inherit this class, so every usage error raises instead of
    # printing usage text and exiting; cli_main reports it as an input error.
    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _decimal(text: str) -> int:
    # The integer flags take the spelling graph files do: int() would also
    # accept "1_0", "+2", " 4" and non-ASCII digits.
    value = parse_decimal(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"must be an ASCII decimal integer, got {text!r}")
    return value


def _k_hint(text: str) -> int:
    value = _decimal(text)
    if value > MAX_K_HINT:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_K_HINT}, got {text!r}")
    return value


def _probability(text: str) -> float:
    # ASCII digits with at most one ".": float() would also take " 0.5",
    # "0.1_5", "1e-1", "+0.5", "inf" and non-ASCII digits.
    if not (text.isascii() and text.replace(".", "", 1).isdigit()):
        raise argparse.ArgumentTypeError(
            f"edge probability must be ASCII digits with at most one '.', got {text!r}"
        )
    return float(text)


# The flags that several subcommands share. Each subcommand takes only the
# shared flags it reads, so a flag it would ignore is a usage error.
def _add_level(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--assert",
        dest="assertion_level",
        choices=tuple(_LEVELS),
        default="fair",
        help="runtime invariant checking level (default: %(default)s)",
    )


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stats", metavar="PATH", help="write run statistics JSON to PATH")
    p.add_argument("--witness", action="store_true", help="include the witness in the report")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, with all five subcommands.

    Built by the first cli_main call, not the import, and shared by later
    calls, since parsing never changes it.
    """
    parser = _Parser(
        prog="qmwis",
        description="Exact maximum-weight independent set via separator-guided branching.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_line: str, *shared) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_line)
        for add_flags in shared:
            add_flags(p)
        return p

    p = add("solve", "solve one graph file", _add_level, _add_output)
    p.add_argument("--k-hint", type=_k_hint, default=None, help="claimed induced-path bound")
    p.add_argument("file", help="graph file path, or - for stdin")

    p = add("solve-hfree", "solve with a forbidden pattern and oracles", _add_level, _add_output)
    p.add_argument("file", help="graph file path, or - for stdin")
    p.add_argument("--pattern", required=True, help="pattern graph file")
    p.add_argument(
        "--oracle",
        action="append",
        default=None,
        metavar="SPEC",
        help="oracle per pattern component, in order: bruteforce | bruteforce:<cap> | pk:<k>",
    )
    p.add_argument(
        "--assume-hfree",
        action="store_true",
        help="claim the input is pattern-free; enables the pattern-dependent invariants",
    )

    p = add("separator", "compute a balanced separator core")
    p.add_argument("file", help="graph file path, or - for stdin")
    p.add_argument("--i", dest="parameter_i", type=_decimal, default=2, help="balance exponent")

    p = add("check-pkfree", "test for induced paths on k vertices")
    p.add_argument("k", type=_decimal, help="path length to forbid")
    p.add_argument("file", help="graph file path, or - for stdin")

    p = add("generate", "emit a generated graph file")
    p.add_argument("kind", choices=GENERATOR_KINDS, help="generator family")
    p.add_argument("--seed", type=_decimal, default=0, help="generator seed")
    p.add_argument("--size", type=_decimal, required=True, help="vertex count")
    p.add_argument("--p", type=_probability, default=None, help="edge probability")
    p.add_argument("--path-bound", type=_decimal, default=None, help="rejection bound k")
    p.add_argument("--weight-lo", type=_decimal, default=0, help="minimum weight")
    p.add_argument("--weight-hi", type=_decimal, default=100, help="maximum weight")
    p.add_argument("--max-attempts", type=_decimal, default=5000, help="rejection attempt cap")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    return parser


def _read_graph(path: str) -> tuple[Graph, WeightMap]:
    """Parse the graph file at path (- for stdin); a parse error names the file.

    Both are read as bytes where the stream allows it, so parse_graph's
    UTF-8 check applies to stdin as it does to a file.
    """
    if path == "-":
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
    else:
        data = Path(path).read_bytes()
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


def _parse_oracle_spec(spec: str, index: int, size: int) -> ComponentOracle:
    from .hfree import _not_isomorphic, make_bruteforce_oracle, make_pk_oracle

    if spec == "bruteforce":
        return make_bruteforce_oracle()
    forms = "(expected bruteforce, bruteforce:<cap>, or pk:<k>)"
    kind, colon, arg = spec.partition(":")
    if not colon or kind not in ("bruteforce", "pk"):
        raise ValueError(f"unknown oracle spec {spec!r} {forms}")
    value = parse_decimal(arg)
    if value is None:
        raise ValueError(f"oracle spec {spec!r} needs a decimal integer after the colon {forms}")
    if kind == "pk":
        # A K-vertex path, K >= 1, of another size cannot be the component,
        # and it takes O(K^2) bits to build: refuse it with solve_hfree's message.
        if value >= 1 and value != size:
            raise _not_isomorphic(index, f"p{value}")
        return make_pk_oracle(value)
    return make_bruteforce_oracle(value)


def _cmd_solve(args: argparse.Namespace) -> int:
    g, w = _read_graph(args.file)
    result = solve_pkfree(g, w, k_hint=args.k_hint, assertion_level=args.assertion_level)
    return _finish_solve(ReportDocument("solve", _solver_payload(result, args, g)), result, args)


def _cmd_solve_hfree(args: argparse.Namespace) -> int:
    from .hfree import PatternGraph, solve_hfree

    g, w = _read_graph(args.file)
    pattern_graph, _ = _read_graph(args.pattern)
    pattern = PatternGraph.from_graph(pattern_graph)
    specs = args.oracle or []
    if len(specs) != len(pattern.components):
        raise ValueError(
            f"pattern has {len(pattern.components)} components; "
            f"pass --oracle once per component ({len(specs)} given)"
        )
    oracles = [_parse_oracle_spec(specs[i], i, part.n) for i, part in enumerate(pattern.components)]
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
    from fractions import Fraction

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
    from .oracle import GenerationError, GeneratorSpec, generate

    spec = GeneratorSpec(
        kind=args.kind,
        size=args.size,
        seed=args.seed,
        p=args.p,
        path_bound=args.path_bound,
        weight_range=(args.weight_lo, args.weight_hi),
        max_attempts=args.max_attempts,
    )
    try:
        g, w = generate(spec)
    except GenerationError as exc:
        # A RuntimeError; cli_main reports it as the input error it is.
        raise ValueError(str(exc)) from exc
    text = emit_graph(g, w, comment=f"generated kind={spec.kind} size={spec.size} seed={spec.seed}")
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "solve-hfree": _cmd_solve_hfree,
    "separator": _cmd_separator,
    "check-pkfree": _cmd_check_pkfree,
    "generate": _cmd_generate,
}


def cli_main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except SystemExit as exc:  # --help
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    except InvariantViolation as exc:
        details = {**exc.details, "rule": exc.rule}
        sys.stderr.write(error_document("invariant-violation", str(exc), details))
        return EXIT_VIOLATION
    except GraphParseError as exc:
        details = {"kind": exc.kind, "line": exc.line_no, "file": exc.file}
        sys.stderr.write(error_document("parse-error", str(exc), details))
        return EXIT_INPUT
    except ValueError as exc:
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
