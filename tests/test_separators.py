import random
from fractions import Fraction

import pytest

from qmwis import (
    Graph,
    balanced_separator_core,
    closed_neighborhood,
    connected_components,
    gyarfas_path,
    induced_subgraph,
    longest_induced_path_at_most,
    remove_vertices,
    verify_balanced,
)


def path_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def random_connected(rng: random.Random, n: int, p: float) -> Graph:
    ids = list(range(1, n + 1))
    edges = {(u, v) for u in ids for v in ids if u < v and rng.random() < p}
    # stitch components together along a random spanning chain
    order = ids[:]
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        edges.add((min(a, b), max(a, b)))
    return Graph(ids, edges)


def test_gyarfas_path_single_vertex():
    assert gyarfas_path(Graph([7], []), 7) == [7]


def test_gyarfas_path_on_path_graph():
    # from an endpoint the walk keeps descending into the long remainder
    g = path_graph(7)
    p = gyarfas_path(g, 1)
    assert p == [1, 2, 3, 4]
    rest = remove_vertices(g, closed_neighborhood(g, p))
    assert all(2 * len(c) <= g.n for c in connected_components(rest))


def test_gyarfas_path_start_in_middle():
    g = path_graph(7)
    assert gyarfas_path(g, 4) == [4]


def test_gyarfas_path_is_induced():
    rng = random.Random(11)
    for _ in range(50):
        g = random_connected(rng, rng.randint(2, 16), rng.random())
        start = rng.choice(g.vertex_ids())
        p = gyarfas_path(g, start)
        assert p[0] == start
        assert len(set(p)) == len(p)
        for idx in range(len(p) - 1):
            assert g.has_edge(p[idx], p[idx + 1])
        for a in range(len(p)):
            for b in range(a + 2, len(p)):
                assert not g.has_edge(p[a], p[b])


def test_gyarfas_path_halves_every_graph():
    rng = random.Random(5)
    for _ in range(60):
        g = random_connected(rng, rng.randint(1, 18), rng.random())
        p = gyarfas_path(g, min(g.vertices))
        sep = closed_neighborhood(g, p)
        assert verify_balanced(g, sep, Fraction(g.n, 2))


def test_gyarfas_path_rejects_bad_input():
    with pytest.raises(ValueError):
        gyarfas_path(path_graph(3), 9)
    with pytest.raises(ValueError):
        gyarfas_path(Graph([1, 2], []), 1)


def test_core_p7_parameter_2():
    g = path_graph(7)
    core = g.table.decode(balanced_separator_core(g, 2))
    assert core == {1, 2, 3, 4, 6}
    assert verify_balanced(g, closed_neighborhood(g, core), Fraction(7, 4))


def test_core_degenerate_when_bound_is_single_vertices():
    g = Graph([1, 2], [(1, 2)])
    assert balanced_separator_core(g, 2) == g.mask
    assert g.table.decode(balanced_separator_core(g, 2)) == {1, 2}


def test_core_parameter_must_be_positive():
    with pytest.raises(ValueError):
        balanced_separator_core(path_graph(3), 0)


def test_core_empty_graph():
    g = Graph([], [])
    assert g.table.decode(balanced_separator_core(g, 1)) == frozenset()


def test_core_balances_random_graphs_exactly():
    """Every component left after removing N[X] fits under floor(n / 2^i)."""
    rng = random.Random(23)
    for trial in range(120):
        n = rng.randint(2, 30)
        g = random_connected(rng, n, rng.choice([0.1, 0.3, 0.6]))
        for i in (1, 2, 3):
            if 2**i >= n:
                continue
            sep = closed_neighborhood(g, g.table.decode(balanced_separator_core(g, i)))
            rest = remove_vertices(g, sep)
            for comp in connected_components(rest):
                assert len(comp) * 2**i <= n, (trial, i, n, sorted(comp))


def test_core_handles_disconnected_graphs():
    g = Graph(range(1, 11), [(i, i + 1) for i in range(1, 5)] + [(i, i + 1) for i in range(6, 10)])
    for i in (1, 2, 3):
        sep = closed_neighborhood(g, g.table.decode(balanced_separator_core(g, i)))
        assert verify_balanced(g, sep, Fraction(g.n, 2**i))


def test_core_size_bounded_on_short_path_graphs():
    """Graphs with no induced 5-vertex path give cores of at most 2^(i+1) * 5."""
    rng = random.Random(91)
    produced = 0
    while produced < 40:
        n = rng.randint(4, 18)
        g = random_connected(rng, n, 0.8)
        if not longest_induced_path_at_most(g, 5):
            continue
        produced += 1
        for i in (1, 2, 3):
            assert len(g.table.decode(balanced_separator_core(g, i))) <= 2 ** (i + 1) * 5


def test_verify_balanced():
    g = path_graph(5)
    assert verify_balanced(g, frozenset({3}), 2)
    assert not verify_balanced(g, frozenset({3}), 1)
    assert verify_balanced(g, frozenset(), 5)
    assert not verify_balanced(g, frozenset(), 4)
    assert verify_balanced(g, frozenset({3}), Fraction(5, 2))
