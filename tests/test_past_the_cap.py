"""Exact references past brute force's 25-vertex cap, and the solvers against them.

The frontier DP below is a dynamic programme over the vertex ids in
increasing order (the DP over a path decomposition of Arnborg and
Proskurowski, 1989). Its state is the set of chosen vertices that still
have a later neighbour, so it runs in O(n 2^width), width being the
largest such frontier, and it shares no code with the solvers. Paths,
cycles, ladders and grids of r rows, both numbered column by column, and
band graphs have width at most 2, 2, 2, r and b, at any size.

Split graphs (a clique K joined to an independent set I) have no induced
P5, and their optimum is I itself or one clique vertex with the part of I
outside its neighbourhood. They are honest inputs for a paranoid audit of
k_hint=5 on which separators fire.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmwis import (
    GeneratorSpec,
    Graph,
    brute_force_mwis,
    connected_components,
    generate,
    is_independent_set,
    make_bruteforce_oracle,
    make_pk_oracle,
    solve_hfree,
    solve_pkfree,
    total_weight,
)


def frontier_mwis(vertices, edges, w) -> tuple[int, frozenset[int]]:
    """(weight, witness) of a maximum-weight independent set, by the frontier DP."""
    ids = sorted(vertices)
    rank = {v: r for r, v in enumerate(ids)}
    adj = [0] * len(ids)
    for u, v in edges:
        adj[rank[u]] |= 1 << rank[v]
        adj[rank[v]] |= 1 << rank[u]
    # frontier[r]: the vertices of rank at most r with a neighbour past r.
    frontier = [sum(1 << u for u in range(r + 1) if adj[u] >> (r + 1)) for r in range(len(ids))]
    # Chosen frontier -> the best (weight, chosen mask) with that frontier.
    states = {0: (0, 0)}
    for r, v in enumerate(ids):
        bit, grown = 1 << r, {}
        for chosen, (weight, taken) in states.items():
            options = [(chosen, weight, taken)]
            # Every chosen earlier neighbour of v is still on the frontier.
            if not adj[r] & chosen:
                options.append((chosen | bit, weight + w[v], taken | bit))
            for state, value, mask in options:
                state &= frontier[r]
                if state not in grown or value > grown[state][0]:
                    grown[state] = value, mask
        states = grown
    weight, taken = states[0]
    return weight, frozenset(v for r, v in enumerate(ids) if taken >> r & 1)


def graph_and_weights(n: int, edges, seed: int) -> tuple[Graph, dict[int, int]]:
    rng = random.Random(seed)
    return Graph(range(1, n + 1), edges), {v: rng.randint(0, 100) for v in range(1, n + 1)}


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return path_edges(n) + [(1, n)]


def ladder_edges(length: int) -> list[tuple[int, int]]:
    # Column i holds 2i - 1 and 2i, so the id order walks the ladder.
    rungs = [(2 * i - 1, 2 * i) for i in range(1, length + 1)]
    rails = [(v, v + 2) for v in range(1, 2 * length - 1)]
    return rungs + rails


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    # Column j holds j * rows + 1 .. (j + 1) * rows, so the id order walks
    # the grid column by column and the frontier holds at most rows vertices.
    down = [(v, v + 1) for v in range(1, rows * cols + 1) if v % rows]
    across = [(v, v + rows) for v in range(1, rows * (cols - 1) + 1)]
    return down + across


def band_edges(n: int, b: int, p: float, seed: int) -> list[tuple[int, int]]:
    # Each pair i < j with j - i <= b is an edge with probability p.
    rng = random.Random(seed)
    return [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, min(n, i + b) + 1) if rng.random() < p
    ]


WIDE = {
    "path-40": (40, path_edges(40)),
    "cycle-40": (40, cycle_edges(40)),
    "ladder-2x30": (60, ladder_edges(30)),
    "band-60-b4": (60, band_edges(60, 4, 0.5, 1)),
    "band-100-b4": (100, band_edges(100, 4, 0.5, 2)),
    "band-80-b6": (80, band_edges(80, 6, 0.5, 3)),
    "grid-3x12": (36, grid_edges(3, 12)),
    "grid-4x10": (40, grid_edges(4, 10)),
    "grid-5x10": (50, grid_edges(5, 10)),
}

# Past the cap, yet small enough for the pattern solver. It hands each
# component of a triangle-free graph above whole to P4+K3's brute-force K3
# oracle, which refuses more than 25 vertices, and it took over 8 s on band
# n=60, b=4.
WIDE_HFREE = {
    "band-30-b4": (30, band_edges(30, 4, 0.5, 4)),
    "band-30-b6": (30, band_edges(30, 6, 0.5, 5)),
    "band-34-b5": (34, band_edges(34, 5, 0.5, 6)),
}

P4_K3 = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])
P4 = Graph(range(1, 5), path_edges(4))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=14),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_the_frontier_dp_agrees_with_brute_force(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    g, w = graph_and_weights(n, edges, seed)
    weight, witness = frontier_mwis(range(1, n + 1), edges, w)
    assert weight == brute_force_mwis(g, w)[0]
    assert is_independent_set(g, witness) and total_weight(w, witness) == weight


@pytest.mark.parametrize("name", list(WIDE))
def test_solve_pkfree_matches_the_frontier_dp_past_the_cap(name):
    n, edges = WIDE[name]
    g, w = graph_and_weights(n, edges, n)
    weight, witness = frontier_mwis(range(1, n + 1), edges, w)
    assert is_independent_set(g, witness) and total_weight(w, witness) == weight
    assert n > 25
    assert solve_pkfree(g, w).weight == weight


@pytest.mark.parametrize("name", list(WIDE_HFREE))
def test_solve_hfree_matches_the_frontier_dp_past_the_cap(name):
    n, edges = WIDE_HFREE[name]
    g, w = graph_and_weights(n, edges, n)
    oracles = [make_pk_oracle(4), make_bruteforce_oracle()]
    assert n > 25
    assert solve_hfree(P4_K3, g, w, oracles).weight == frontier_mwis(range(1, n + 1), edges, w)[0]


def test_solve_hfree_solves_a_union_of_components_each_within_the_cap():
    # Two disjoint C15s are K3-free. Once F holds a P4's neighbourhood no
    # vertex is branchable, so a 30-vertex leaf reaches the brute-force K3
    # oracle, which refuses more than 25 vertices; each 15-vertex component
    # of it is within that cap. One C30 still raises (tests/test_hfree.py).
    edges = cycle_edges(15) + [(u + 15, v + 15) for u, v in cycle_edges(15)]
    g, w = graph_and_weights(30, edges, 30)
    oracles = [make_pk_oracle(4), make_bruteforce_oracle()]
    for level in ("off", "fair", "paranoid"):
        result = solve_hfree(P4_K3, g, w, oracles, assertion_level=level)
        assert result.weight == frontier_mwis(range(1, 31), edges, w)[0]


def split_graph(n: int, seed: int) -> tuple[Graph, dict[int, int], list[int], list[int]]:
    """A clique K = 1..n/2 and an independent set I on the rest, each K-I
    pair an edge with probability 0.3; with its weights, K and I."""
    rng = random.Random(seed)
    clique, independent = list(range(1, n // 2 + 1)), list(range(n // 2 + 1, n + 1))
    edges = [(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :]]
    edges += [(u, v) for u in clique for v in independent if rng.random() < 0.3]
    g, w = graph_and_weights(n, edges, seed)
    return g, w, clique, independent


def split_optimum(g: Graph, w: dict[int, int], clique: list[int], independent: list[int]) -> int:
    # An independent set holds at most one clique vertex.
    best = total_weight(w, independent)
    for v in clique:
        best = max(best, w[v] + total_weight(w, (u for u in independent if not g.has_edge(u, v))))
    return best


@pytest.mark.parametrize("n, seed", [(40, 1), (60, 3), (80, 2)])
def test_the_pk_oracle_past_the_cap_answers_alike_with_and_without_the_memo(
    without_memo, n, seed
):
    # These cographs are connected and hold no P4, so the P4 oracle gets the
    # whole graph, past brute force's cap, and runs the path-free recursion
    # on it, whose memo keys its small split parts by shape.
    g, w = generate(GeneratorSpec(kind="cograph", size=n, seed=seed))
    assert g.n == n > 25 and len(connected_components(g)) == 1
    for level in ("off", "fair", "paranoid"):
        memo = solve_hfree(P4, g, w, [make_pk_oracle(4)], assertion_level=level)
        with without_memo():
            full = solve_hfree(P4, g, w, [make_pk_oracle(4)], assertion_level=level)
        assert (memo.weight, memo.witness) == (full.weight, full.witness)
        assert memo.stats.to_dict() == full.stats.to_dict()
        assert memo.stats.measure_steps == full.stats.measure_steps


@pytest.mark.parametrize("n", [20, 60, 100, 200])
def test_split_graphs_solve_to_their_optimum_under_a_true_k5_claim(n):
    g, w, clique, independent = split_graph(n, n)
    optimum = split_optimum(g, w, clique, independent)
    fair = solve_pkfree(g, w)
    paranoid = solve_pkfree(g, w, k_hint=5, assertion_level="paranoid")
    assert fair.weight == paranoid.weight == optimum
    assert is_independent_set(g, paranoid.witness)
    # The separator rule fires, so the k = 5 bounds are audited on real growth.
    assert paranoid.stats.separators_added > 0 and paranoid.stats.measure_steps > 0
    assert paranoid.stats.calls == fair.stats.calls
