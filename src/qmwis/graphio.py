"""Text format for weighted graphs and the JSON report envelope.

The graph format is line based and 1-indexed:

    c free-text comment
    p <vertex-count> <edge-count>
    n <vertex-id> <weight>
    e <u> <v>

The p line comes before any n/e record and appears exactly once. Every
number is an ASCII decimal integer: an optional "-" and the digits 0-9,
without "+", "_" or other digits. Vertices are implicitly 1..n; an n
record sets a weight (default 1). Reports are emitted with sorted keys and
no timestamps, so identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from .graph import Graph, WeightMap

REPORT_FORMAT_VERSION = 1

MAX_WEIGHT = 10**9

PARSE_ERROR_KINDS = (
    "malformed",
    "header",
    "id-range",
    "weight-range",
    "duplicate-weight",
    "duplicate-edge",
    "self-loop",
    "count-mismatch",
)


class GraphParseError(ValueError):
    """A rejected graph file, with the offending line and error kind."""

    def __init__(self, kind: str, line_no: int, message: str):
        if kind not in PARSE_ERROR_KINDS:
            raise ValueError(f"unknown parse error kind {kind!r}")
        super().__init__(f"line {line_no}: {message}")
        self.kind = kind
        self.line_no = line_no


def parse_decimal(token: str) -> int | None:
    """The value of an optional "-" followed by ASCII digits 0-9, else None.

    int() also takes "1_000", "+2", blanks around the digits and non-ASCII
    digits; graph files and oracle specs accept none of these spellings.
    """
    if token.isascii() and token.lstrip("-").isdigit():
        try:
            return int(token)
        except ValueError:  # "--1", or more digits than int() converts
            pass
    return None


def _not_decimal(parts: list[str], line_no: int, *fields: str) -> GraphParseError:
    # The error for the first of parts[1:] that parse_decimal rejects.
    what, token = next((f, t) for f, t in zip(fields, parts[1:]) if parse_decimal(t) is None)
    return GraphParseError(
        "malformed", line_no, f"{what} must be an ASCII decimal integer, got {token!r}"
    )


def parse_graph(data: bytes | str) -> tuple[Graph, WeightMap]:
    """Read a weighted graph from text.

    Returns:
        (graph, weights) with vertices 1..n and every vertex weighted
        (missing n records default to weight 1).

    Raises:
        GraphParseError: with .kind and .line_no describing the rejection.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphParseError("malformed", 0, f"not valid UTF-8: {exc}") from None
    else:
        text = data

    n: int | None = None
    declared_m = 0
    weights: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "c":
            continue
        if tag == "p":
            if n is not None:
                raise GraphParseError("header", line_no, "second p line")
            if len(parts) != 3:
                raise GraphParseError("malformed", line_no, "p line needs exactly 2 numbers")
            n, declared_m = parse_decimal(parts[1]), parse_decimal(parts[2])
            if n is None or declared_m is None:
                raise _not_decimal(parts, line_no, "vertex count", "edge count")
            if n < 0 or declared_m < 0:
                raise GraphParseError("header", line_no, "counts must be non-negative")
            continue
        if n is None:
            raise GraphParseError("header", line_no, f"{tag!r} record before the p line")
        if tag == "n":
            if len(parts) != 3:
                raise GraphParseError("malformed", line_no, "n line needs an id and a weight")
            vid, weight = parse_decimal(parts[1]), parse_decimal(parts[2])
            if vid is None or weight is None:
                raise _not_decimal(parts, line_no, "vertex id", "weight")
            if not 1 <= vid <= n:
                raise GraphParseError("id-range", line_no, f"vertex id {vid} outside 1..{n}")
            if not 0 <= weight <= MAX_WEIGHT:
                raise GraphParseError(
                    "weight-range", line_no, f"weight {weight} outside 0..{MAX_WEIGHT}"
                )
            if vid in weights:
                raise GraphParseError("duplicate-weight", line_no, f"second weight for vertex {vid}")
            weights[vid] = weight
        elif tag == "e":
            if len(parts) != 3:
                raise GraphParseError("malformed", line_no, "e line needs two endpoints")
            u, v = parse_decimal(parts[1]), parse_decimal(parts[2])
            if u is None or v is None:
                raise _not_decimal(parts, line_no, "endpoint", "endpoint")
            if u == v:
                raise GraphParseError("self-loop", line_no, f"self-loop at vertex {u}")
            for endpoint in (u, v):
                if not 1 <= endpoint <= n:
                    raise GraphParseError(
                        "id-range", line_no, f"vertex id {endpoint} outside 1..{n}"
                    )
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphParseError("duplicate-edge", line_no, f"edge {key} repeated")
            seen.add(key)
            edges.append(key)
        else:
            raise GraphParseError("malformed", line_no, f"unknown record type {tag!r}")

    if n is None:
        raise GraphParseError("header", 0, "missing p line")
    if len(edges) != declared_m:
        raise GraphParseError(
            "count-mismatch", 0, f"p line declared {declared_m} edges, found {len(edges)}"
        )
    graph = Graph(range(1, n + 1), edges)
    return graph, {v: weights.get(v, 1) for v in range(1, n + 1)}


def emit_graph(g: Graph, w: WeightMap, comment: str | None = None) -> str:
    """Canonical text for a weighted graph; parse(emit(g, w)) == (g, w).

    Requires the vertex set to be exactly 1..n (the format has no room for
    arbitrary ids). Every weight is written explicitly.
    """
    ids = g.vertex_ids()
    if ids != tuple(range(1, g.n + 1)):
        raise ValueError("emit_graph requires the vertex set to be exactly 1..n")
    missing = [v for v in ids if v not in w]
    if missing:
        raise ValueError(f"weights missing for vertices {missing[:5]}")
    outside = [v for v in ids if not 0 <= w[v] <= MAX_WEIGHT]
    if outside:
        raise ValueError(f"weights outside 0..{MAX_WEIGHT} for vertices {outside[:5]}")
    lines: list[str] = []
    if comment:
        lines.extend(f"c {part}" for part in comment.splitlines())
    lines.append(f"p {g.n} {g.edge_count}")
    lines.extend(f"n {v} {w[v]}" for v in ids)
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReportDocument:
    """One command's machine-readable result.

    payload carries the command-specific fields (weight, witness, core, the
    assertion level of a solving command, ...). Serialization sorts keys
    and contains no wall-clock data, so equal runs give equal bytes.
    """

    command: str
    payload: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {"format_version": REPORT_FORMAT_VERSION, "command": self.command, **self.payload}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def error_document(kind: str, message: str, details: dict[str, Any] | None = None) -> str:
    """JSON diagnostic for stderr; same determinism rules as reports."""
    doc = {
        "format_version": REPORT_FORMAT_VERSION,
        "error": {"kind": kind, "message": message, "details": details or {}},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
