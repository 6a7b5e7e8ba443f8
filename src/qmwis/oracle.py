"""Ground-truth brute force and instance generators.

The brute-force solver is the independent reference every equivalence test
compares against. It is deliberately simple: bitmask branch and bound with a
greedy weighted clique-cover bound, validated in the test suite against a
raw subset enumeration on small graphs.

Generators are fully deterministic functions of their spec: the same kind,
size, parameters, and seed always produce the identical graph and weights
(edges are drawn before weights, so the draw order is part of the format).
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .graph import Graph, VertexTable, WeightMap, _check_positive, component_masks, validate_weights
from .graphio import GENERATOR_KINDS, MAX_VERTICES, MAX_WEIGHT
from .separators import longest_induced_path_at_most

DEFAULT_BRUTE_FORCE_CAP = 25


class GraphTooLarge(ValueError):
    """Raised when a brute-force call exceeds its configured size cap."""


def brute_force_mwis(
    g: Graph,
    w: WeightMap,
    max_size: int = DEFAULT_BRUTE_FORCE_CAP,
) -> tuple[int, frozenset[int]]:
    """Exact maximum-weight independent set by branch and bound.

    The witness is the heaviest independent set, ties to the larger mask
    over g's table: of two tied optima, the one holding the highest id
    where they differ. It depends on (g, w) alone, not on the search order.

    Args:
        g: graph, at most max_size vertices.
        w: non-negative integer vertex weights, defined on every vertex.
        max_size: refusal threshold, an int >= 1; the search is exponential.

    Returns:
        (weight, witness) with witness an independent set of that weight.

    Raises:
        ValueError: when w misses a vertex, a weight is not an int >= 0 or
            max_size is not an int >= 1.
        GraphTooLarge: when |V(g)| > max_size.
    """
    _check_positive("brute-force cap", max_size)
    validate_weights(g, w)
    weight, witness = _brute_force_mask(g, w, max_size)
    return weight, g.table.decode(witness)


def _brute_force_mask(
    g: Graph, w: WeightMap, max_size: int = DEFAULT_BRUTE_FORCE_CAP
) -> tuple[int, int]:
    """brute_force_mwis's (weight, witness), the witness a mask over g's table.

    Trusted: w must already be valid for g. The search reads the shared
    table's adjacency masks and root ranks, so nothing is re-indexed. Each
    component is searched apart, which keeps brute_force_mwis's tie rule,
    as weights and disjoint masks add.
    """
    live = g.mask
    n = live.bit_count()
    if n > max_size:
        raise GraphTooLarge(f"brute force refuses {n} > {max_size} vertices")
    table = g.table
    ids = table.ids
    total = witness = 0
    for comp in component_masks(table.adj, live):
        weight, found = _small_component(ids, w, comp) or _search_component(table, w, comp)
        total += weight
        witness |= found
    return total, witness


def _small_component(ids: tuple[int, ...], w: WeightMap, comp: int) -> tuple[int, int] | None:
    """(weight, mask) of a component of one or two vertices, as brute force answers it, else None.

    Such a component needs no search: an edge keeps its larger end.
    """
    low = comp & -comp
    high = comp ^ low
    if not high:
        return w[ids[low.bit_length() - 1]], low
    if high & (high - 1):
        return None
    return max((w[ids[low.bit_length() - 1]], low), (w[ids[high.bit_length() - 1]], high))


def _search_component(table: VertexTable, w: WeightMap, comp: int) -> tuple[int, int]:
    # The largest (weight, mask) pair of comp, deciding vertices by decreasing degree, then id.
    adj, closed, ids = table.adj, table.closed_adj, table.ids
    order = [r for _, r in sorted([(-(adj[r] & comp).bit_count(), r) for r in table.ranks(comp)])]
    bits = [1 << r for r in order]
    weights = {r: w[ids[r]] for r in order}
    best_weight, best_set = -1, 0

    # Depth-first over (candidates, weight, chosen, next position in order)
    # on an explicit stack, so the depth is not bounded by the interpreter's
    # recursion limit. The delete branch is pushed first, so the take branch
    # is explored first.
    stack = [(comp, 0, 0, 0)]
    while stack:
        cand, current, chosen, j = stack.pop()
        # Greedily pack the candidates into cliques. A leaf below takes at
        # most one vertex of each, and to reach current + bound only ones of
        # greatest weight in their clique, so its mask is at most chosen |
        # tops, which holds each clique's highest such vertex. Without edges
        # every clique is one vertex, and taking them all is that leaf.
        bound = tops = 0
        edgeless = True
        remaining = cand
        while remaining:
            top = remaining & -remaining
            remaining ^= top
            r = top.bit_length() - 1
            clique_max = weights[r]
            pool = remaining & adj[r]
            if pool:
                edgeless = False
                while pool:
                    low = pool & -pool
                    remaining ^= low
                    t = low.bit_length() - 1
                    if weights[t] >= clique_max:
                        clique_max, top = weights[t], low
                    pool &= adj[t]
            bound += clique_max
            tops |= top
        bound += current
        if bound < best_weight or bound == best_weight and chosen | tops <= best_set:
            continue
        if edgeless:
            best_weight, best_set = bound, chosen | cand
            continue
        while not cand & bits[j]:
            j += 1
        r, bit = order[j], bits[j]
        j += 1
        stack.append((cand ^ bit, current, chosen, j))
        stack.append((cand & ~closed[r], current + weights[r], chosen | bit, j))
    return best_weight, best_set


class GenerationError(RuntimeError):
    """Rejection sampling ran out of attempts."""


class GeneratorSpec(NamedTuple):
    """Deterministic description of one generated instance.

    kind is one of KINDS. Edge probability p applies to the gnp-based kinds
    and path_bound k to pk-free-rejection. Weights are drawn uniformly from
    weight_range; the range must lie in [0, MAX_WEIGHT] so every generated
    instance can be written in the graph format.
    """

    kind: str
    size: int
    seed: int
    p: float | None = None
    path_bound: int | None = None
    weight_range: tuple[int, int] = (0, 100)
    max_attempts: int = 5000

    KINDS = GENERATOR_KINDS


def _gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p:
                edges.append((u, v))
    return edges


def _cograph_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    # Random union/join recursion over id ranges; joins and unions are
    # equally likely. The result never contains an induced 4-vertex path.
    edges: list[tuple[int, int]] = []

    def build(lo: int, hi: int) -> None:
        size = hi - lo + 1
        if size <= 1:
            return
        split = rng.randint(1, size - 1)
        mid = lo + split - 1
        build(lo, mid)
        build(mid + 1, hi)
        if rng.random() < 0.5:
            for u in range(lo, mid + 1):
                for v in range(mid + 1, hi + 1):
                    edges.append((u, v))

    build(1, n)
    return edges


def generate(spec: GeneratorSpec) -> tuple[Graph, WeightMap]:
    """Build the graph and weights described by spec.

    Raises:
        ValueError: on a size outside [0, MAX_VERTICES], the largest graph
            the graph format reads back, an unknown kind, missing kind
            parameters, an edge probability p outside [0, 1] or an invalid
            weight range.
        GenerationError: when rejection sampling exhausts max_attempts.
    """
    n = spec.size
    if n < 0:
        raise ValueError(f"size must be >= 0, got {n}")
    if n > MAX_VERTICES:
        # Checked before any graph is built: parse_graph reads no larger one.
        raise ValueError(f"size {n} exceeds {MAX_VERTICES}, the most vertices a graph file holds")
    lo, hi = spec.weight_range
    if lo < 0 or hi < lo or hi > MAX_WEIGHT:
        raise ValueError(f"invalid weight range {spec.weight_range}")
    if spec.p is not None and not 0 <= spec.p <= 1:
        raise ValueError(f"edge probability p must lie in [0, 1], got {spec.p}")
    rng = random.Random(spec.seed)
    vertices = list(range(1, n + 1))

    if spec.kind == "random-gnp":
        if spec.p is None:
            raise ValueError("random-gnp needs an edge probability p")
        graph = Graph(vertices, _gnp_edges(n, spec.p, rng))
    elif spec.kind == "cograph":
        graph = Graph(vertices, _cograph_edges(n, rng))
    elif spec.kind == "pk-free-rejection":
        if spec.p is None or spec.path_bound is None:
            raise ValueError("pk-free-rejection needs p and path_bound")
        graph = None
        for _ in range(spec.max_attempts):
            candidate = Graph(vertices, _gnp_edges(n, spec.p, rng))
            if longest_induced_path_at_most(candidate, spec.path_bound):
                graph = candidate
                break
        if graph is None:
            raise GenerationError(
                f"no P{spec.path_bound}-free sample in {spec.max_attempts} attempts "
                f"(n={n}, p={spec.p})"
            )
    elif spec.kind == "path":
        graph = Graph(vertices, [(i, i + 1) for i in range(1, n)])
    elif spec.kind == "cycle":
        edges = [(i, i + 1) for i in range(1, n)]
        if n >= 3:
            edges.append((1, n))
        graph = Graph(vertices, edges)
    elif spec.kind == "star":
        graph = Graph(vertices, [(1, i) for i in range(2, n + 1)])
    elif spec.kind == "complete":
        graph = Graph(vertices, [(u, v) for u in vertices for v in vertices if u < v])
    else:
        raise ValueError(f"unknown generator kind {spec.kind!r}")

    weights = {v: rng.randint(lo, hi) for v in sorted(graph.vertices)}
    return graph, weights

