"""Ground-truth brute force, induced-path checking, and instance generators.

The brute-force solver is the independent reference every equivalence test
compares against. It is deliberately simple: bitmask branch and bound with a
greedy weighted clique-cover bound, validated in the test suite against a
raw subset enumeration on small graphs. When the bound finds the candidates
edgeless, taking them all is the subtree's answer and the search goes no
deeper there. The search runs on the graph's shared vertex table, its
adjacency masks and root ranks, one component at a time. The pattern
oracles call its trusted mask entry, _brute_force_mask, which skips the
weight check and the witness decoding of the public brute_force_mwis.

Generators are fully deterministic functions of their spec: the same kind,
size, parameters, and seed always produce the identical graph and weights
(edges are drawn before weights, so the draw order is part of the format).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Graph, VertexTable, WeightMap, component_masks, validate_weights
from .graphio import MAX_VERTICES, MAX_WEIGHT

DEFAULT_BRUTE_FORCE_CAP = 25


class GraphTooLarge(ValueError):
    """Raised when a brute-force call exceeds its configured size cap."""


def brute_force_mwis(
    g: Graph,
    w: WeightMap,
    max_size: int = DEFAULT_BRUTE_FORCE_CAP,
) -> tuple[int, frozenset[int]]:
    """Exact maximum-weight independent set by branch and bound.

    Vertices are decided by decreasing degree, ties by id, taking before
    deleting. The witness is the first leaf of that search that is strictly
    heavier than every leaf before it, whichever bound prunes: a subtree
    with edgeless candidates is answered by its first leaf, which takes
    every candidate and is the heaviest in the subtree. The search runs on
    g's own vertex table, one component at a time (see _brute_force_mask);
    the witness is the one the search over all of g would find.

    Args:
        g: graph, at most max_size vertices.
        w: non-negative integer vertex weights, defined on every vertex.
        max_size: refusal threshold; exponential search must stay small.

    Returns:
        (weight, witness) with witness an independent set of that weight.

    Raises:
        ValueError: when w misses a vertex or a weight is not an int >= 0.
        GraphTooLarge: when |V(g)| > max_size.
    """
    validate_weights(g, w)
    weight, witness = _brute_force_mask(g, w, max_size)
    return weight, g.table.decode(witness)


def _brute_force_mask(
    g: Graph, w: WeightMap, max_size: int = DEFAULT_BRUTE_FORCE_CAP
) -> tuple[int, int]:
    """brute_force_mwis's (weight, witness), the witness a mask over g's table.

    Trusted: w must already be valid for g. The search reads the shared
    table's adjacency masks and root ranks, so nothing is re-indexed. Each
    component is searched apart and the parts are summed. A component's
    decisions never change another's, so the first leaf of the whole search
    that reaches the optimum joins each component's first leaf reaching its
    own optimum. For a component of weight 0 that is its first leaf, the
    greedy one, where its own search would keep the empty start. A total of
    0 keeps the empty set: no leaf is strictly heavier than the start.
    """
    live = g.mask
    n = live.bit_count()
    if n > max_size:
        raise GraphTooLarge(f"brute force refuses {n} > {max_size} vertices")
    table = g.table
    ids = table.ids
    total = witness = 0
    for comp in component_masks(table.adj, live):
        # One or two vertices need no search: an edge takes its second
        # vertex (by id, as both have degree 1) only if strictly heavier.
        low = comp & -comp
        high = comp ^ low
        if not high:
            weight, found = w[ids[low.bit_length() - 1]], low
        elif not high & (high - 1):
            weight, found = w[ids[low.bit_length() - 1]], low
            if w[ids[high.bit_length() - 1]] > weight:
                weight, found = w[ids[high.bit_length() - 1]], high
        else:
            weight, found = _search_component(table, w, comp)
        total += weight
        witness |= found
    return (total, witness) if total else (0, 0)


def _search_component(table: VertexTable, w: WeightMap, comp: int) -> tuple[int, int]:
    # The first leaf of comp's search reaching its optimum. The best starts
    # below every leaf, so the first leaf is kept even when it weighs 0.
    adj, closed, ids = table.adj, table.closed_adj, table.ids
    # Decreasing degree; the stable sort over increasing ranks breaks ties
    # on id, keeping the search order deterministic.
    order = sorted(table.ranks(comp), key=lambda r: -(adj[r] & comp).bit_count())
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
        # Greedily pack the candidates into cliques; an independent set takes
        # at most the heaviest vertex of each. Every clique is a single
        # vertex exactly when the candidates have no edge.
        bound = 0
        edgeless = True
        remaining = cand
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            r = low.bit_length() - 1
            clique_max = weights[r]
            pool = remaining & adj[r]
            if pool:
                edgeless = False
                while pool:
                    low = pool & -pool
                    remaining ^= low
                    t = low.bit_length() - 1
                    if weights[t] > clique_max:
                        clique_max = weights[t]
                    pool &= adj[t]
            bound += clique_max
        if current + bound <= best_weight:
            continue
        if edgeless:
            best_weight, best_set = current + bound, chosen | cand
            continue
        while not cand & bits[j]:
            j += 1
        r, bit = order[j], bits[j]
        j += 1
        stack.append((cand ^ bit, current, chosen, j))
        stack.append((cand & ~closed[r], current + weights[r], chosen | bit, j))
    return best_weight, best_set


def longest_induced_path_at_most(g: Graph, k: int) -> bool:
    """True iff g has no induced path on k vertices.

    Depth-first extension of induced paths: the next vertex must be adjacent
    to the current endpoint and non-adjacent to every earlier path vertex.
    Returns as soon as one k-vertex induced path is found. The search keeps
    one candidate mask per path vertex on an explicit stack, so k is not
    bounded by the interpreter's recursion limit. A path lies inside one
    component, so only components with at least k vertices are searched;
    within them the search still restarts from every start vertex.
    """
    if k < 1:
        raise ValueError(f"path length must be >= 1, got {k}")
    if k == 1:
        return g.n == 0

    adj, live = g.table.adj, g.mask
    # Components are disjoint masks, so their sum is their union.
    large = sum(comp for comp in component_masks(adj, live) if comp.bit_count() >= k)
    for start in g.table.ranks(large):
        # Frames (tail, banned, untried): banned is N[path before tail] plus
        # tail (tail lies in N(previous tail)), untried the extensions past
        # tail not yet explored.
        stack = [(start, 1 << start, adj[start] & live)]
        while stack:
            tail, banned, untried = stack.pop()
            if not untried:
                continue
            low = untried & -untried
            stack.append((tail, banned, untried ^ low))
            if len(stack) + 1 == k:
                return False
            reach = banned | adj[tail]
            nxt = low.bit_length() - 1
            stack.append((nxt, reach, adj[nxt] & live & ~reach))
    return True


class GenerationError(RuntimeError):
    """Rejection sampling ran out of attempts."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic description of one generated instance.

    kind is one of random-gnp, cograph, pk-free-rejection, path, cycle,
    star, complete. Edge probability p applies to the gnp-based kinds and
    path_bound k to pk-free-rejection. Weights are drawn uniformly from
    weight_range after the edges; the range must lie in [0, MAX_WEIGHT] so
    every generated instance can be written in the graph format.
    """

    kind: str
    size: int
    seed: int
    p: float | None = None
    path_bound: int | None = None
    weight_range: tuple[int, int] = (0, 100)
    max_attempts: int = 5000

    KINDS = ("random-gnp", "cograph", "pk-free-rejection", "path", "cycle", "star", "complete")


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

