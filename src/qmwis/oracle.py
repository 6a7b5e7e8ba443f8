"""Ground-truth brute force, induced-path checking, and instance generators.

The brute-force solver is the independent reference every equivalence test
compares against. It is deliberately simple: bitmask branch and bound with a
greedy weighted clique-cover bound, validated in the test suite against a
raw subset enumeration on small graphs. When the bound finds the candidates
edgeless, taking them all is the subtree's answer and the search goes no
deeper there.

Generators are fully deterministic functions of their spec: the same kind,
size, parameters, and seed always produce the identical graph and weights
(edges are drawn before weights, so the draw order is part of the format).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Graph, WeightMap, component_masks
from .graphio import MAX_WEIGHT

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
    every candidate and is the heaviest in the subtree.

    Args:
        g: graph, at most max_size vertices.
        w: non-negative integer vertex weights.
        max_size: refusal threshold; exponential search must stay small.

    Returns:
        (weight, witness) with witness an independent set of that weight.

    Raises:
        GraphTooLarge: when |V(g)| > max_size.
    """
    n = g.n
    if n > max_size:
        raise GraphTooLarge(f"brute force refuses {n} > {max_size} vertices")
    if n == 0:
        return 0, frozenset()

    # Sort by degree so high-degree vertices are decided first; the stable
    # sort over increasing ranks breaks ties on id, keeping the search order
    # deterministic.
    table, live = g.table, g.mask
    ranks = sorted(table.ranks(live), key=lambda r: -(table.adj[r] & live).bit_count())
    index = {r: j for j, r in enumerate(ranks)}
    adj_mask = [0] * n
    for j, r in enumerate(ranks):
        m = 0
        nbrs = table.adj[r] & live
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            m |= 1 << index[low.bit_length() - 1]
        adj_mask[j] = m
    ids = [table.ids[r] for r in ranks]
    weights = [w[v] for v in ids]

    best_weight = best_set = 0

    def clique_cover_bound(cand: int) -> tuple[int, bool]:
        # Greedily pack candidates into cliques; an independent set takes at
        # most the heaviest vertex from each clique. Every clique is a single
        # vertex exactly when cand has no edge, reported as the second value.
        bound = 0
        edgeless = True
        remaining = cand
        while remaining:
            j = (remaining & -remaining).bit_length() - 1
            clique = 1 << j
            clique_max = weights[j]
            pool = remaining & adj_mask[j]
            remaining &= ~(1 << j)
            if pool:
                edgeless = False
            while pool:
                t = (pool & -pool).bit_length() - 1
                clique |= 1 << t
                if weights[t] > clique_max:
                    clique_max = weights[t]
                pool &= adj_mask[t]
                remaining &= ~(1 << t)
                pool &= remaining
            bound += clique_max
        return bound, edgeless

    # Depth-first over (candidates, weight, chosen) on an explicit stack, so
    # the depth is not bounded by the interpreter's recursion limit. The
    # delete branch is pushed first, so the take branch is explored first.
    stack = [((1 << n) - 1, 0, 0)]
    while stack:
        cand, current, chosen = stack.pop()
        bound, edgeless = clique_cover_bound(cand)
        if current + bound <= best_weight:
            continue
        if edgeless:
            best_weight, best_set = current + bound, chosen | cand
            continue
        j = (cand & -cand).bit_length() - 1
        bit = 1 << j
        stack.append((cand & ~bit, current, chosen))
        stack.append((cand & ~bit & ~adj_mask[j], current + weights[j], chosen | bit))
    return best_weight, frozenset(ids[j] for j in range(n) if best_set >> j & 1)


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
    if k == 2:
        return g.edge_count == 0

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
        ValueError: on an unknown kind, missing kind parameters, an edge
            probability p outside [0, 1] or an invalid weight range.
        GenerationError: when rejection sampling exhausts max_attempts.
    """
    n = spec.size
    if n < 0:
        raise ValueError(f"size must be >= 0, got {n}")
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

