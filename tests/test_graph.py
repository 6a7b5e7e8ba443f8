import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from qmwis.graph import VertexTable


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
    with pytest.raises(KeyError):
        g.degree(99)
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(1, 3)
    assert 2 in g and 9 not in g


def test_vertices_need_not_be_contiguous():
    g = Graph([4, 7, 12], [(4, 12)])
    assert g.vertex_ids() == (4, 7, 12)
    assert g.adj(7) == frozenset()


@pytest.mark.parametrize("v", [-1, True, 1.0])
def test_vertex_ids_must_be_integers_at_least_zero(v):
    with pytest.raises(ValueError, match="vertex ids must be integers >= 0"):
        Graph([v], [])


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
    assert not a == object() and a != object()
    assert repr(a) == "Graph(n=3, m=1)"


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
    with pytest.raises(ValueError, match="the mask has vertices outside the graph"):
        induced_subgraph(h, g.mask)
    with pytest.raises(ValueError, match="vertex 3 is not in the graph"):
        induced_subgraph(h, {1, 3})


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
    assert not is_independent_set(g, [1, 1])  # a repeated vertex


def reference_table(ids, edges):
    """(ids, adjacency masks, closed masks) with one OR per edge end; the
    first bad edge raises VertexTable's ValueError."""
    ids = tuple(sorted(ids))
    rank = {v: r for r, v in enumerate(ids)}
    adj = [0] * len(ids)
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if u not in rank or v not in rank:
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside the vertex set")
        adj[rank[u]] |= 1 << rank[v]
        adj[rank[v]] |= 1 << rank[u]
    return ids, adj, [a | 1 << r for r, a in enumerate(adj)]


def _outcome(build, ids, edges):
    try:
        table = build(ids, edges)
    except ValueError as exc:
        return "error", str(exc)
    return table if isinstance(table, tuple) else (table.ids, table.adj, table.closed_adj)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_table_build_equals_one_or_per_edge(data):
    # Both sides of the build rule n^2 <= 16 m: the edge count is drawn
    # below or at least n^2/16, counting repeats, reversed pairs and bad
    # edges, which both builds must take as the reference does.
    n = data.draw(st.integers(0, 40), label="n")
    ids = data.draw(st.sets(st.integers(0, 10**15), min_size=n, max_size=n), label="ids")
    order = sorted(ids)
    threshold = -(-n * n // 16)
    dense = n != 1 and data.draw(st.booleans(), label="dense")
    if dense:
        m = data.draw(st.integers(threshold, max(threshold, n * n // 8)), label="m")
    else:
        m = data.draw(st.integers(0, max(threshold - 1, 0)), label="m")
    edges = []
    for _ in range(m if n > 1 else 0):
        u, v = data.draw(st.sampled_from(order)), data.draw(st.sampled_from(order))
        edges.append((u, v) if u != v else (u, order[order.index(u) - 1]))
    if m and data.draw(st.booleans(), label="bad edges"):
        # A self-loop or a foreign endpoint, then maybe another after it:
        # the first bad edge names the error.
        foreign = data.draw(st.integers(0, 10**15).filter(lambda x: x not in ids), label="foreign")
        bad = [(order[0], order[0]), (foreign, foreign), (order[-1], foreign), (foreign, order[0])]
        for edge in data.draw(st.lists(st.sampled_from(bad), min_size=1, max_size=2), label="bad"):
            at = data.draw(st.integers(0, len(edges) - 1), label="at")
            edges[at] = edge
    if edges:
        assert (n * n <= 16 * len(edges)) == dense
    feed = data.draw(st.sampled_from([list, tuple, iter, lambda es: (e for e in es)]), label="as")
    expected = _outcome(reference_table, ids, edges)
    assert _outcome(VertexTable, set(ids), feed(edges)) == expected
    if expected[0] != "error":
        assert _outcome(lambda i, e: Graph(i, e).table, ids, edges) == expected


@pytest.mark.parametrize("n, edges", [(0, []), (1, []), (2, [(1, 0)]), (2, [(0, 1)] * 3)])
def test_the_smallest_tables(n, edges):
    assert _outcome(VertexTable, range(n), edges) == reference_table(range(n), edges)


@pytest.mark.parametrize("m", [9, 10], ids=["sparse", "dense"])
@pytest.mark.parametrize(
    "bad, message",
    [
        ((3, 3), "self-loop at vertex 3"),
        ((9, 9), "self-loop at vertex 9"),
        ((2, 9), "edge (2, 9) has an endpoint outside the vertex set"),
        ((9, 1), "edge (9, 1) has an endpoint outside the vertex set"),
    ],
)
def test_the_first_bad_edge_names_the_error_on_both_builds(m, bad, message):
    # Four vertices: ten pairs are dense (16 <= 16 * 10), nine sparse. The
    # bad edge comes after good ones and before a second, other bad edge.
    good = [(1, 2), (2, 3), (3, 4), (1, 4)]
    edges = (good * 3)[: m - 2] + [bad, (4, 4) if bad[0] != bad[1] else (0, 1)]
    assert len(edges) == m
    with pytest.raises(ValueError) as info:
        VertexTable([1, 2, 3, 4], edges)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        Graph([1, 2, 3, 4], iter(edges))
    assert str(info.value) == message


def test_a_dense_table_passes_the_int_string_limit():
    # Each row of a 700-vertex dense graph is read as a 700-digit base-2
    # string; CPython's limit on int-string conversions (here 640 digits)
    # exempts bases that are powers of two.
    rng = random.Random(700)
    edges = [(u, v) for u in range(700) for v in range(u + 1, 700) if rng.random() < 0.2]
    assert 700 * 700 <= 16 * len(edges)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        table = VertexTable(range(700), edges)
    finally:
        sys.set_int_max_str_digits(old)
    assert (table.ids, table.adj, table.closed_adj) == reference_table(range(700), edges)


def _peak(build, *args):
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_cap_size_sparse_table_holds_no_more_than_its_masks():
    # A path at the format's 16,384-vertex cap takes the sparse build. The
    # copy of its edges is freed before the closed masks are built, so the
    # peak is the reference build's, which keeps no copy, up to a few
    # locals; a copy kept to the end would add 131 KiB.
    n = 16384
    ids, edges = tuple(range(1, n + 1)), [(i, i + 1) for i in range(1, n)]
    assert _peak(VertexTable, ids, edges) <= _peak(reference_table, ids, edges) + 1024


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decode_and_the_accessors_pick_each_set_bit(data):
    # Dense rows, which decode picks under bit flags, beside sparse rows,
    # which it walks, over ids up to 10^12, on the root graph and on an
    # induced subgraph, whose mask cuts every row.
    n = data.draw(st.integers(0, 160), label="n")
    ids = sorted(data.draw(st.sets(st.integers(0, 10**12), min_size=n, max_size=n), label="ids"))
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    dense = [rng.random() < 0.5 for _ in ids]
    edges = [
        (ids[i], ids[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < (0.9 if dense[i] and dense[j] else 2 / n)
    ]
    g = Graph(ids, edges)
    table = g.table

    def reference(mask):
        return frozenset(v for r, v in enumerate(ids) if mask >> r & 1)

    keep = data.draw(st.integers(0, g.mask), label="keep")
    for h in (g, induced_subgraph(g, keep)):
        assert h.vertices == table.decode(h.mask) == reference(h.mask)
        for v in h.vertices:
            r = table.rank[v]
            assert h.adj(v) == reference(table.adj[r] & h.mask)
            assert h.closed(v) == reference(table.closed_adj[r] & h.mask)


@pytest.mark.parametrize("n, crossover", [(64, 14), (16_384, 124)])
def test_closed_equals_a_per_rank_or_on_both_sides_of_the_crossover(monkeypatch, n, crossover):
    # A mask reaching rank n - 1 walks its bits up to the crossover and is
    # picked under bit flags above it, as is the empty mask, which has no
    # position; both give the per-rank OR.
    import qmwis.graph as graph

    rng = random.Random(n)
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(3 * n)}
    table = VertexTable(range(n), edges)
    flagged, real = [], graph._bit_flags

    def spy(mask):
        flagged.append(mask.bit_count())
        return real(mask)

    monkeypatch.setattr(graph, "_bit_flags", spy)
    for k in sorted({k for k in (0, 1, 3, 14, 15, 123, 124, 125) if k <= n} | {n}):
        mask = sum(1 << r for r in rng.sample(range(n - 1), k - 1)) | 1 << n - 1 if k else 0
        expected = mask
        for r in range(n):
            if mask >> r & 1:
                expected |= table.adj[r]
        flagged.clear()
        assert table.closed(mask) == expected
        assert bool(flagged) == (k > crossover or not k)
