import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from qmwis.pkfree import _PathScheme


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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_verify_balanced_takes_the_integer_quarter(data):
    # Component sizes are integers, so |C| <= N/4 iff |C| <= N // 4.
    n = data.draw(st.integers(min_value=0, max_value=14), label="n")
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32), label="seed"))
    ids = list(range(1, n + 1))
    p = data.draw(st.sampled_from([0.1, 0.3, 0.6]), label="p")
    g = Graph(ids, [(u, v) for u in ids for v in ids if u < v and rng.random() < p])
    separator = frozenset(v for v in ids if rng.random() < 0.3)
    cap = data.draw(st.integers(min_value=1, max_value=40), label="N")
    assert verify_balanced(g, separator, cap // 4) == verify_balanced(g, separator, Fraction(cap, 4))
    mask = g.table.mask(separator)
    assert verify_balanced(g, mask, cap // 4) == verify_balanced(g, separator, Fraction(cap, 4))


def test_verify_balanced():
    g = path_graph(5)
    assert verify_balanced(g, frozenset({3}), 2)
    assert not verify_balanced(g, frozenset({3}), 1)
    assert verify_balanced(g, frozenset(), 5)
    assert not verify_balanced(g, frozenset(), 4)
    assert verify_balanced(g, frozenset({3}), Fraction(5, 2))


def test_verify_balanced_ignores_vertices_outside_the_graph():
    # 99 is in no table; 1 is in the table but not in the subgraph {2..5},
    # whose component {4, 5} is left whole either way.
    g = remove_vertices(path_graph(5), frozenset({1}))
    assert verify_balanced(g, frozenset({1, 3, 99}), 2)
    assert not verify_balanced(g, frozenset({1, 3, 99}), 1)
    assert not verify_balanced(g, g.table.mask({1, 3}), 1)
    assert verify_balanced(g, g.table.mask({1, 3, 4}), 1)


def _components(g: Graph, vertices: frozenset[int]) -> list[frozenset[int]]:
    # Breadth-first search on frozensets, components ordered by smallest id.
    comps, rest = [], set(vertices)
    for v in sorted(vertices):
        if v not in rest:
            continue
        comp, todo = {v}, [v]
        rest.discard(v)
        while todo:
            for u in g.adj(todo.pop()) & rest:
                rest.discard(u)
                comp.add(u)
                todo.append(u)
        comps.append(frozenset(comp))
    return comps


def _reference_path(g: Graph, current: frozenset[int], start: int) -> list[int]:
    # Descend into the largest component of current - N[tail], the first of
    # equal size, through the smallest neighbour of tail adjacent to it.
    path, tail = [start], start
    while True:
        rest = current - g.closed(tail)
        comps = _components(g, rest)
        if not comps:
            return path
        largest = max(comps, key=len)
        if 2 * len(largest) <= len(current):
            return path
        tail = min(u for u in g.adj(tail) & current if g.adj(u) & largest)
        current = largest | {tail}
        path.append(tail)


def _reference_core(g: Graph, i: int) -> frozenset[int]:
    if 2**i >= g.n:
        return g.vertices
    core = frozenset() if i == 1 else _reference_core(g, i - 1)
    closed = frozenset().union(*(g.closed(v) for v in core))
    for comp in _components(g, g.vertices - closed):
        if len(comp) << i > g.n:
            core |= frozenset(_reference_path(g, comp, min(comp)))
    return core


@st.composite
def _graphs(draw, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=24))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    p = draw(st.sampled_from([0.05, 0.1, 0.2, 0.4, 0.7]))
    ids = list(range(1, n + 1))
    return Graph(ids, [(u, v) for u in ids for v in ids if u < v and rng.random() < p])


@settings(max_examples=200, deadline=None)
@given(g=_graphs(min_n=1), data=st.data())
def test_gyarfas_path_matches_a_frozenset_reference(g, data):
    comp = max(connected_components(g), key=len)
    sub = induced_subgraph(g, comp)
    start = data.draw(st.sampled_from(sorted(comp)), label="start")
    assert gyarfas_path(sub, start) == _reference_path(sub, comp, start)


@settings(max_examples=200, deadline=None)
@given(g=_graphs(), i=st.integers(min_value=1, max_value=4))
def test_balanced_separator_core_matches_a_frozenset_reference(g, i):
    assert g.table.decode(balanced_separator_core(g, i)) == _reference_core(g, i)


@settings(max_examples=200, deadline=None)
@given(g=_graphs(min_n=2), data=st.data())
def test_path_split_is_none_exactly_when_a_component_passes_half(g, data):
    # The solver asks for the split only on graphs of two or more vertices.
    n_cap = data.draw(st.integers(min_value=g.n, max_value=2 * g.n + 2), label="N")
    comps = connected_components(g)
    split = _PathScheme(0, None).split(g, n_cap)
    if any(2 * len(c) > n_cap for c in comps):
        assert split is None
    else:
        assert [g.table.decode(c) for c in split] == comps


@settings(max_examples=200, deadline=None)
@given(g=_graphs(), data=st.data())
def test_verify_balanced_matches_a_frozenset_reference(g, data):
    separator = data.draw(st.sets(st.sampled_from(g.vertex_ids())) if g.n else st.just(set()))
    bound = data.draw(st.one_of(st.integers(0, g.n + 1), st.fractions(0, g.n + 1)), label="bound")
    comps = _components(g, g.vertices - separator)
    assert verify_balanced(g, separator, bound) == all(len(c) <= bound for c in comps)


@settings(max_examples=200, deadline=None)
@given(g=_graphs(), data=st.data())
def test_verify_balanced_matches_components_of_the_remainder(g, data):
    # The definition, with the remainder's own size and one below it among
    # the bounds: there a remainder that is one component is exactly at, or
    # just over, the bound, which is where a shortcut on |V(G) - S| can err.
    separator = data.draw(st.sets(st.sampled_from(g.vertex_ids())) if g.n else st.just(set()))
    rest = g.vertices - separator
    size = len(rest)
    bound = data.draw(
        st.sampled_from([size, size - 1, Fraction(size), Fraction(2 * size - 1, 2), size + 1])
        | st.integers(-1, g.n + 1)
        | st.fractions(-1, g.n + 1),
        label="bound",
    )
    components = connected_components(induced_subgraph(g, rest))
    expected = all(len(c) <= bound for c in components)
    assert verify_balanced(g, separator, bound) is expected
    assert verify_balanced(g, g.table.mask(separator), bound) is expected
