"""Metamorphic properties of the solvers' answers.

Relabelling the vertices, adding isolated zero-weight vertices and taking
disjoint unions (the weights add) must leave the optimum as predicted. Every
answer is the heaviest independent set, ties to the larger mask over the
sorted ids, so the witness is predicted too: an order-preserving
relabelling maps it, an isolated weight-0 vertex joins it, a disjoint union
with its ids kept unites its parts' witnesses, and both solvers return the
same one. Weights of 0-3 make ties common.

The run's counts are predicted as well: the solvers' choices read the
adjacency in id order and never w, so redrawing the weights or relabelling
the ids in order keeps every statistic and memo count.
"""

import random
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmwis.pkfree as pkfree
from qmwis import (
    GeneratorSpec,
    Graph,
    GraphTooLarge,
    RunStats,
    generate,
    make_bruteforce_oracle,
    make_pk_oracle,
    solve_hfree,
    solve_pkfree,
)

P4_K3 = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])


@st.composite
def weighted_graphs(draw, max_n, weight_caps=(3, 30)):
    n = draw(st.integers(min_value=0, max_value=max_n))
    ids = range(1, n + 1)
    pairs = [(u, v) for u in ids for v in ids if u < v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    hi = draw(st.sampled_from(weight_caps))
    weights = draw(st.lists(st.integers(min_value=0, max_value=hi), min_size=n, max_size=n))
    return Graph(ids, edges), dict(zip(ids, weights))


def relabel(g, w, new_ids):
    to = dict(zip(g.vertex_ids(), new_ids))
    return Graph(to.values(), [(to[u], to[v]) for u, v in g.edges()]), {to[v]: w[v] for v in w}


def with_isolated(g, w, count):
    extra = range(max(g.vertex_ids(), default=0) + 1, max(g.vertex_ids(), default=0) + 1 + count)
    return Graph([*g.vertex_ids(), *extra], g.edges()), {**w, **dict.fromkeys(extra, 0)}


def disjoint_union(g, w, h, x):
    # The parts' ids must be disjoint; each keeps its own.
    return Graph([*g.vertex_ids(), *h.vertex_ids()], [*g.edges(), *h.edges()]), {**w, **x}


def pk(g, w):
    result = solve_pkfree(g, w)
    return result.weight, result.witness


def hfree(g, w):
    result = solve_hfree(P4_K3, g, w, [make_pk_oracle(4), make_bruteforce_oracle()])
    return result.weight, result.witness


@settings(max_examples=100, deadline=None)
@given(gw=weighted_graphs(14), data=st.data())
def test_relabelling_keeps_the_optimum(gw, data):
    g, w = gw
    new_ids = data.draw(st.lists(st.integers(0, 200), min_size=g.n, max_size=g.n, unique=True))
    h, x = relabel(g, w, new_ids)
    to = dict(zip(g.vertex_ids(), sorted(new_ids)))
    for solve in (pk, hfree):
        weight, witness = solve(g, w)
        assert solve(h, x)[0] == weight
        assert solve(*relabel(g, w, sorted(new_ids))) == (weight, {to[v] for v in witness})


@settings(max_examples=100, deadline=None)
@given(gw=weighted_graphs(12), count=st.integers(min_value=1, max_value=4))
def test_isolated_zero_weight_vertices_keep_the_optimum(gw, count):
    g, w = gw
    h, x = with_isolated(g, w, count)
    extra = h.vertices - g.vertices
    weight, witness = pk(g, w)
    assert pk(h, x) == (weight, witness | extra)
    if h.n <= 14:
        weight, witness = hfree(g, w)
        assert hfree(h, x) == (weight, witness | extra)


@settings(max_examples=100, deadline=None)
@given(first=weighted_graphs(10), second=weighted_graphs(10))
def test_a_disjoint_union_adds_the_optima(first, second):
    (g, w), (h, x) = first, second
    h, x = relabel(h, x, [v + g.n for v in h.vertex_ids()])
    u, y = disjoint_union(g, w, h, x)
    solvers = (pk, hfree) if u.n <= 14 else (pk,)
    for solve in solvers:
        (a, s), (b, t) = solve(g, w), solve(h, x)
        assert solve(u, y) == (a + b, s | t)


@settings(max_examples=100, deadline=None)
@given(gw=weighted_graphs(14, weight_caps=(3,)))
def test_both_solvers_return_the_same_witness(gw):
    assert pk(*gw) == hfree(*gw)


# (spec, k_hint), solved by solve_pkfree; the gnp graphs also by solve_hfree
# under P4+K3. G(60, 0.05) splits into many parts of 2 to 4 vertices.
COUNTED = [
    (GeneratorSpec(kind="random-gnp", size=24, seed=1, p=0.3), None),
    (GeneratorSpec(kind="cograph", size=60, seed=1), 4),
    (GeneratorSpec(kind="random-gnp", size=60, seed=1, p=0.05), None),
]


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "no-memo"])
@pytest.mark.parametrize("level", ["off", "fair", "paranoid"])
def test_the_counts_read_neither_weights_nor_ids(level, memo, monkeypatch, without_memo):
    # A split part's subtree depends on its shape alone, which makes the
    # memo's shape keys exact; so the whole run's counts, memo hits included,
    # read neither w nor the ids. Under P4+K3, G(60, 0.05) has a leaf
    # component past the brute force cap, so a run's stats are read from its
    # RunStats, the first one built, also when it raises GraphTooLarge.
    built = []

    class Kept(RunStats):
        def __init__(self):
            super().__init__()
            built.append(self)

    def path_run(g, w, k):
        solve_pkfree(g, w, k, level)

    def pattern_run(g, w, k):
        solve_hfree(P4_K3, g, w, [make_pk_oracle(4), make_bruteforce_oracle()], assertion_level=level)

    def counts(solve, g, w, k):
        built.clear()
        try:
            solve(g, w, k)
            raised = None
        except GraphTooLarge as error:
            raised = str(error)
        stats = built[0]
        return raised, stats.to_dict(), stats.memo_hits, stats.memo_calls

    monkeypatch.setattr(pkfree, "RunStats", Kept)
    rng, hits = random.Random(f"{level}-{memo}"), 0
    with nullcontext() if memo else without_memo():
        for spec, k in COUNTED:
            g, w = generate(spec)
            redrawn = {v: rng.randint(0, 100) for v in w}
            h, x = relabel(g, w, sorted(rng.sample(range(10**6 + 1), g.n)))
            for solve in (path_run, pattern_run) if spec.kind == "random-gnp" else (path_run,):
                expected = counts(solve, g, w, k)
                assert counts(solve, g, redrawn, k) == expected
                assert counts(solve, h, x, k) == expected
                hits += expected[2]
    assert (hits > 0) is memo
