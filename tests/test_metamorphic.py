"""Metamorphic properties of the solvers' optimum weight.

Relabelling the vertices, adding isolated zero-weight vertices and taking
disjoint unions (the weights add) must leave the optimum as predicted. Only
weights are compared: ties may pick another witness once ids move, and every
run verifies its own witness.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qmwis import Graph, make_bruteforce_oracle, make_pk_oracle, solve_hfree, solve_pkfree

P4_K3 = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])


@st.composite
def weighted_graphs(draw, max_n):
    n = draw(st.integers(min_value=0, max_value=max_n))
    ids = range(1, n + 1)
    pairs = [(u, v) for u in ids for v in ids if u < v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    weights = draw(st.lists(st.integers(min_value=0, max_value=30), min_size=n, max_size=n))
    return Graph(ids, edges), dict(zip(ids, weights))


def relabel(g, w, new_ids):
    to = dict(zip(g.vertex_ids(), new_ids))
    return Graph(to.values(), [(to[u], to[v]) for u, v in g.edges()]), {to[v]: w[v] for v in w}


def with_isolated(g, w, count):
    extra = range(max(g.vertex_ids(), default=0) + 1, max(g.vertex_ids(), default=0) + 1 + count)
    return Graph([*g.vertex_ids(), *extra], g.edges()), {**w, **dict.fromkeys(extra, 0)}


def disjoint_union(g, w, h, x):
    shift = max(g.vertex_ids(), default=0)
    h, x = relabel(h, x, [v + shift for v in h.vertex_ids()])
    return Graph([*g.vertex_ids(), *h.vertex_ids()], [*g.edges(), *h.edges()]), {**w, **x}


def pk_weight(g, w):
    return solve_pkfree(g, w).weight


def hfree_weight(g, w):
    return solve_hfree(P4_K3, g, w, [make_pk_oracle(4), make_bruteforce_oracle()]).weight


@settings(max_examples=100, deadline=None)
@given(gw=weighted_graphs(14), data=st.data())
def test_relabelling_keeps_the_optimum(gw, data):
    g, w = gw
    new_ids = data.draw(st.lists(st.integers(0, 200), min_size=g.n, max_size=g.n, unique=True))
    h, x = relabel(g, w, new_ids)
    assert pk_weight(h, x) == pk_weight(g, w)
    assert hfree_weight(h, x) == hfree_weight(g, w)


@settings(max_examples=100, deadline=None)
@given(gw=weighted_graphs(12), count=st.integers(min_value=1, max_value=4))
def test_isolated_zero_weight_vertices_keep_the_optimum(gw, count):
    g, w = gw
    h, x = with_isolated(g, w, count)
    assert pk_weight(h, x) == pk_weight(g, w)
    if h.n <= 14:
        assert hfree_weight(h, x) == hfree_weight(g, w)


@settings(max_examples=100, deadline=None)
@given(first=weighted_graphs(10), second=weighted_graphs(10))
def test_a_disjoint_union_adds_the_optima(first, second):
    (g, w), (h, x) = first, second
    u, y = disjoint_union(g, w, h, x)
    assert pk_weight(u, y) == pk_weight(g, w) + pk_weight(h, x)
    if u.n <= 14:
        assert hfree_weight(u, y) == hfree_weight(g, w) + hfree_weight(h, x)
