"""Text format for weighted graphs and the JSON report envelope.

The graph format is line based and 1-indexed:

    c free-text comment
    p <vertex-count> <edge-count>
    n <vertex-id> <weight>
    e <u> <v>

The p line comes before any n/e record and appears exactly once. Every
number is an ASCII decimal integer: an optional "-" and the digits 0-9,
without "+", "_" or other digits. Vertices are implicitly 1..n; an n
record sets a weight (default 1). The p line may declare at most
MAX_VERTICES (16,384) vertices. Lines end at "\n" only; other whitespace,
a CRLF ending's "\r" included, just separates tokens.

Reports are emitted with sorted keys and no timestamps, so identical
inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
import re
from typing import Any, NamedTuple

from .graph import Graph, VertexTable, WeightMap, _set_items

REPORT_FORMAT_VERSION = 1

MAX_WEIGHT = 10**9

MAX_VERTICES = 2**14

# The graph families qmwis generate draws (see GeneratorSpec), here so
# the CLI parser can list them without loading the generators.
GENERATOR_KINDS = ("random-gnp", "cograph", "pk-free-rejection", "path", "cycle", "star", "complete")

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


# Per record tag: the arity error and the names of its two numbers.
_RECORDS = {
    "p": ("p line needs exactly 2 numbers", "vertex count", "edge count"),
    "n": ("n line needs an id and a weight", "vertex id", "weight"),
    "e": ("e line needs two endpoints", "endpoint", "endpoint"),
}


def parse_graph(data: bytes | str) -> tuple[Graph, WeightMap]:
    """Read a weighted graph from text.

    Returns:
        (graph, weights) with vertices 1..n and every vertex weighted
        (missing n records default to weight 1).

    Raises:
        GraphParseError: with .kind and .line_no describing the rejection.
    """
    parsed = _parse_canonical(data)
    if parsed is not None:
        return parsed
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphParseError("malformed", 0, f"not valid UTF-8: {exc}") from None
    return _parse_lines(data)


_CANONICAL_HEAD = re.compile(rb"(?:c(?: [^\n]*)?\n)*p ([0-9]{1,10}) ([0-9]{1,10})\n")
_CANONICAL_RECORDS = re.compile(rb"(?:[ne] [0-9]{1,10} [0-9]{1,10}\n)*")

# Bytes of records checked and converted at a time. The regular expression
# keeps state per record it matches, so with the chunk's tokens the reader
# holds some 50 KiB at once, whatever the file's length.
_CHUNK = 1024


def _parse_canonical(data: bytes | str) -> tuple[Graph, WeightMap] | None:
    """parse_graph's result for a valid file in canonical form, else None.

    The canonical form is what emit_graph writes: comment lines, the p
    line, then n and e records, each number 1 to 10 ASCII digits (which
    bounds the int() work per number), fields one space apart and every
    line ended by "\n". It is read in one pass: each chunk of records is
    checked by one regular expression and split into tokens. An id token is
    looked up in a table of the spellings "1".."n" to get its rank, and
    each edge sets two bits of the adjacency masks directly; a self-loop or
    a repeated edge sets fewer, which the masks' bit count shows at the
    end. None means only that this reader cannot vouch for the input: it
    may be valid in a spelling the form leaves out (such as an id with a
    leading zero), or invalid. parse_graph then reads it line by line,
    with the same result or error.
    """
    if isinstance(data, str):
        try:
            data = data.encode("utf-8")
        except UnicodeEncodeError:  # lone surrogates
            return None
    head = _CANONICAL_HEAD.match(data)
    if head is None:
        return None
    try:
        # Records are ASCII; only comment text can be invalid UTF-8.
        data[: head.start(1)].decode("utf-8")
    except UnicodeDecodeError:
        return None
    n, declared_m = int(head[1]), int(head[2])
    if n > MAX_VERTICES:
        return None
    rank = {b"%d" % v: v - 1 for v in range(1, n + 1)}
    adj = [0] * n
    weights: dict[int, int] = {}
    m = 0
    pos, size = head.end(), len(data)
    while pos < size:
        stop = size if size - pos <= _CHUNK else data.rfind(b"\n", pos, pos + _CHUNK) + 1
        if stop <= pos or not _CANONICAL_RECORDS.fullmatch(data, pos, stop):
            return None
        tokens = data[pos:stop].split()
        tags = tokens[::3]
        try:
            for tag, a, b in zip(tags, tokens[1::3], tokens[2::3]):
                if tag == b"e":
                    ra, rb = rank[a], rank[b]
                    adj[ra] |= 1 << rb
                    adj[rb] |= 1 << ra
                else:
                    v, weight = rank[a] + 1, int(b)
                    if v in weights or weight > MAX_WEIGHT:
                        return None
                    weights[v] = weight
        except KeyError:  # an id outside 1..n, or spelled otherwise
            return None
        m += tags.count(b"e")
        pos = stop
    # Each e record sets at most two bits, and exactly two unless it is a
    # self-loop or repeats an edge.
    if m != declared_m or sum(map(int.bit_count, adj)) != 2 * m:
        return None
    table = VertexTable.from_masks(tuple(range(1, n + 1)), adj)
    return Graph._sub(table, (1 << n) - 1), {v: weights.get(v, 1) for v in range(1, n + 1)}


def _parse_lines(text: str) -> tuple[Graph, WeightMap]:
    """The graph format's definition: every record and every error."""
    n: int | None = None
    declared_m = 0
    weights: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()

    for line_no, raw in enumerate(text.split("\n"), start=1):
        parts = raw.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "c":
            continue
        if tag == "p":
            if n is not None:
                raise GraphParseError("header", line_no, "second p line")
        elif n is None:
            raise GraphParseError("header", line_no, f"{tag!r} record before the p line")
        if tag not in _RECORDS:
            raise GraphParseError("malformed", line_no, f"unknown record type {tag!r}")
        if len(parts) != 3:
            raise GraphParseError("malformed", line_no, _RECORDS[tag][0])
        a, b = parse_decimal(parts[1]), parse_decimal(parts[2])
        if a is None or b is None:
            _, first, second = _RECORDS[tag]
            what, token = (first, parts[1]) if a is None else (second, parts[2])
            raise GraphParseError(
                "malformed", line_no, f"{what} must be an ASCII decimal integer, got {token!r}"
            )
        if tag == "e":
            if a == b:
                raise GraphParseError("self-loop", line_no, f"self-loop at vertex {a}")
            for v in (a, b):
                if not 1 <= v <= n:
                    raise GraphParseError("id-range", line_no, f"vertex id {v} outside 1..{n}")
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise GraphParseError("duplicate-edge", line_no, f"edge {key} repeated")
            seen.add(key)
            edges.append(key)
        elif tag == "n":
            if not 1 <= a <= n:
                raise GraphParseError("id-range", line_no, f"vertex id {a} outside 1..{n}")
            if not 0 <= b <= MAX_WEIGHT:
                raise GraphParseError(
                    "weight-range", line_no, f"weight {b} outside 0..{MAX_WEIGHT}"
                )
            if a in weights:
                raise GraphParseError("duplicate-weight", line_no, f"second weight for vertex {a}")
            weights[a] = b
        else:
            if a < 0 or b < 0:
                raise GraphParseError("header", line_no, "counts must be non-negative")
            # The graph's table takes about n^2/16 bytes, whatever the file's length.
            if a > MAX_VERTICES:
                raise GraphParseError("header", line_no, f"vertex count {a} exceeds {MAX_VERTICES}")
            n, declared_m = a, b

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
    arbitrary ids). Every weight is written explicitly, so each must be one
    parse_graph reads back: an int, not a bool, in 0..MAX_WEIGHT. Each
    vertex's row of e records names its higher neighbours in increasing order.
    """
    ids = g.vertex_ids()
    if ids != tuple(range(1, g.n + 1)):
        raise ValueError("emit_graph requires the vertex set to be exactly 1..n")
    missing = [v for v in ids if v not in w]
    if missing:
        raise ValueError(f"weights missing for vertices {missing[:5]}")
    untyped = [v for v in ids if not isinstance(w[v], int) or isinstance(w[v], bool)]
    if untyped:
        raise ValueError(f"weights must be integers; not for vertices {untyped[:5]}")
    outside = [v for v in ids if not 0 <= w[v] <= MAX_WEIGHT]
    if outside:
        raise ValueError(f"weights outside 0..{MAX_WEIGHT} for vertices {outside[:5]}")
    lines: list[str] = []
    if comment:
        # Lines end only at "\n", as in parse_graph; a trailing one adds no line.
        lines.extend(f"c {part}" for part in comment.removesuffix("\n").split("\n"))
    lines.append(f"p {g.n} {g.edge_count}")
    lines.extend(f"n {v} {w[v]}" for v in ids)
    # Named by table rank, since a subgraph's table may hold ids outside 1..n.
    table, live = g.table, g.mask
    adj, names = table.adj, list(map(str, table.ids))
    for r in table.ranks(live):
        if upper := adj[r] & live >> (r + 1) << (r + 1):
            lines += map(f"e {names[r]} ".__add__, _set_items(upper, names))
    return "\n".join(lines) + "\n"


class ReportDocument(NamedTuple):
    """One command's machine-readable result.

    payload carries the command-specific fields (weight, witness, core, the
    assertion level of a solving command, ...).
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
