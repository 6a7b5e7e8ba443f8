import pytest

from qmwis import (
    Graph,
    closed_neighborhood,
    connected_components,
    induced_subgraph,
    is_independent_set,
    remove_vertices,
    total_weight,
    validate_weights,
)


def path(n: int) -> Graph:
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def test_basic_shape():
    g = Graph([1, 2, 3], [(1, 2), (2, 3)])
    assert g.n == 3
    assert g.edge_count == 2
    assert g.vertex_ids() == (1, 2, 3)
    assert list(g.edges()) == [(1, 2), (2, 3)]
    assert g.adj(2) == {1, 3}
    assert g.closed(2) == {1, 2, 3}
    assert g.degree(1) == 1
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(1, 3)
    assert 2 in g and 9 not in g


def test_vertices_need_not_be_contiguous():
    g = Graph([4, 7, 12], [(4, 12)])
    assert g.vertex_ids() == (4, 7, 12)
    assert g.adj(7) == frozenset()


def test_edge_endpoints_must_exist():
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 3)])


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 1)])


def test_duplicate_edges_collapse():
    g = Graph([1, 2], [(1, 2), (2, 1)])
    assert g.edge_count == 1


def test_equality_and_hash():
    a = Graph([1, 2, 3], [(1, 2)])
    b = Graph([3, 2, 1], [(2, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph([1, 2, 3], [(1, 3)])


def test_neighborhood_helpers():
    g = path(5)
    assert closed_neighborhood(g, {3}) == {2, 3, 4}
    assert closed_neighborhood(g, {1, 5}) == {1, 2, 4, 5}
    assert closed_neighborhood(g, set()) == frozenset()


def test_induced_subgraph_keeps_only_internal_edges():
    g = path(5)
    h = induced_subgraph(g, {1, 2, 4})
    assert h.vertices == {1, 2, 4}
    assert list(h.edges()) == [(1, 2)]


def test_remove_vertices():
    g = path(4)
    h = remove_vertices(g, {2})
    assert h.vertices == {1, 3, 4}
    assert list(h.edges()) == [(3, 4)]
    assert remove_vertices(g, g.vertices).n == 0


def test_connected_components_ordered_by_min_id():
    g = Graph([1, 2, 3, 4, 5, 6], [(5, 6), (1, 2)])
    comps = connected_components(g)
    assert comps == [frozenset({1, 2}), frozenset({3}), frozenset({4}), frozenset({5, 6})]


def test_total_weight_and_validation():
    g = path(3)
    w = {1: 5, 2: 0, 3: 7}
    assert total_weight(w, {1, 3}) == 12
    assert total_weight(w, set()) == 0
    validate_weights(g, w)
    with pytest.raises(ValueError):
        validate_weights(g, {1: 5, 2: 0})
    with pytest.raises(ValueError):
        validate_weights(g, {1: 5, 2: -1, 3: 7})


def test_is_independent_set():
    g = path(4)
    assert is_independent_set(g, {1, 3})
    assert is_independent_set(g, set())
    assert not is_independent_set(g, {1, 2})
