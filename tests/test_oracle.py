import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmwis import (
    GenerationError,
    GeneratorSpec,
    Graph,
    GraphTooLarge,
    VertexMultiFamily,
    brute_force_mwis,
    connected_components,
    generate,
    induced_subgraph,
    is_independent_set,
    longest_induced_path_at_most,
    make_bruteforce_oracle,
    make_pk_oracle,
    solve_hfree,
    solve_pkfree,
    total_weight,
)
from qmwis.pkfree import _parse_level, _PathScheme, drive

P4_K3 = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])


def path_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])


def enumerate_mwis(g: Graph, w: dict) -> tuple[int, frozenset[int]]:
    """Raw 2^n reference: the heaviest independent set, ties to the larger mask."""
    ids = g.vertex_ids()
    n = len(ids)
    index = {v: j for j, v in enumerate(ids)}
    adj_mask = [0] * n
    for v in ids:
        for u in g.adj(v):
            adj_mask[index[v]] |= 1 << index[u]
    best_weight = 0
    best_mask = 0
    for mask in range(1 << n):
        ok = True
        weight = 0
        m = mask
        while m:
            j = (m & -m).bit_length() - 1
            if adj_mask[j] & mask:
                ok = False
                break
            weight += w[ids[j]]
            m &= m - 1
        if ok and weight >= best_weight:
            best_weight = weight
            best_mask = mask
    return best_weight, frozenset(ids[j] for j in range(n) if best_mask >> j & 1)


def test_brute_force_small_cases():
    g = Graph([1, 2], [(1, 2)])
    assert brute_force_mwis(g, {1: 3, 2: 5}) == (5, frozenset({2}))
    assert brute_force_mwis(Graph([], []), {}) == (0, frozenset())
    assert brute_force_mwis(Graph([4], []), {4: 9}) == (9, frozenset({4}))


def test_brute_force_zero_weights_allow_empty_witness():
    g = Graph([1, 2], [(1, 2)])
    weight, witness = brute_force_mwis(g, {1: 0, 2: 0})
    assert weight == 0
    assert is_independent_set(g, witness)


def test_brute_force_cycle():
    w = {v: 1 for v in range(1, 6)}
    weight, witness = brute_force_mwis(cycle_graph(5), w)
    assert weight == 2
    assert is_independent_set(cycle_graph(5), witness)


def test_brute_force_respects_cap():
    g = path_graph(6)
    with pytest.raises(GraphTooLarge):
        brute_force_mwis(g, {v: 1 for v in g.vertices}, max_size=5)


def test_brute_force_depth_is_not_bounded_by_the_recursion_limit():
    # 1,500 isolated vertices are 1,500 one-vertex components.
    g = Graph(range(1500), [])
    w = {v: 1 + v % 7 for v in range(1500)}
    assert brute_force_mwis(g, w, max_size=1500) == (sum(w.values()), g.vertices)
    # P600 is one component whose first leaf lies 200 takes deep; the search
    # keeps them on its own stack, within 40 Python frames of the caller's.
    path = path_graph(600)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        weight, witness = brute_force_mwis(path, {v: 1 for v in range(1, 601)}, max_size=600)
    finally:
        sys.setrecursionlimit(limit)
    assert weight == 300
    assert is_independent_set(path, witness)


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


@pytest.mark.parametrize("bad", ["3", True, 2.5, 0, -1])
def test_brute_force_refuses_a_cap_that_is_not_an_int_of_at_least_one(bad):
    # As make_bruteforce_oracle does: a bool, a float or a string is no cap.
    with pytest.raises(ValueError, match=f"^brute-force cap must be .*, got {re.escape(repr(bad))}$"):
        brute_force_mwis(path_graph(3), {1: 1, 2: 1, 3: 1}, max_size=bad)


@pytest.mark.parametrize(
    "w, message",
    [
        ({1: 5, 2: -1}, "weight of vertex 2 must be an integer >= 0, got -1"),
        ({1: True, 2: 2.5}, "weight of vertex 1 must be an integer >= 0, got True"),
        ({1: 5}, "no weight for vertex 2"),
    ],
    ids=["negative", "bool-and-float", "missing"],
)
def test_brute_force_refuses_invalid_weights(w, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        brute_force_mwis(Graph([1, 2], []), w)


def test_brute_force_matches_exhaustive_enumeration():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(0, 10)
        ids = list(range(1, n + 1))
        edges = [(u, v) for u, v in itertools.combinations(ids, 2) if rng.random() < 0.4]
        g = Graph(ids, edges)
        w = {v: rng.randint(0, 30) for v in ids}
        assert brute_force_mwis(g, w)[0] == enumerate_mwis(g, w)[0]


def test_enumerate_witness_is_independent_and_optimal():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(1, 9)
        ids = list(range(1, n + 1))
        edges = [(u, v) for u, v in itertools.combinations(ids, 2) if rng.random() < 0.5]
        g = Graph(ids, edges)
        w = {v: rng.randint(0, 20) for v in ids}
        weight, witness = enumerate_mwis(g, w)
        assert is_independent_set(g, witness)
        assert total_weight(w, witness) == weight


def test_path_detector_on_paths_and_cycles():
    """True means no induced path on k vertices exists."""
    for n in range(1, 8):
        g = path_graph(n)
        assert not longest_induced_path_at_most(g, n)
        assert longest_induced_path_at_most(g, n + 1)
    # C5 contains induced paths on up to 4 vertices, never 5
    assert longest_induced_path_at_most(cycle_graph(5), 5)
    assert not longest_induced_path_at_most(cycle_graph(5), 4)


def test_path_detector_edge_cases():
    empty = Graph([], [])
    assert longest_induced_path_at_most(empty, 1)
    one = Graph([1], [])
    assert not longest_induced_path_at_most(one, 1)
    assert longest_induced_path_at_most(one, 2)
    # complete graphs have no induced path on 3 vertices
    k3 = cycle_graph(3)
    assert longest_induced_path_at_most(k3, 3)
    assert not longest_induced_path_at_most(k3, 2)
    with pytest.raises(ValueError):
        longest_induced_path_at_most(one, 0)


def _naive_has_induced_path(g: Graph, k: int) -> bool:
    for combo in itertools.combinations(g.vertex_ids(), k):
        for perm in itertools.permutations(combo):
            ok = True
            for a in range(k):
                for b in range(a + 1, k):
                    adjacent = g.has_edge(perm[a], perm[b])
                    if adjacent != (b == a + 1):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def test_path_detector_on_two_vertex_paths():
    # A P2 is an edge: the search finds one exactly when some edge exists.
    assert longest_induced_path_at_most(Graph([], []), 2)
    assert longest_induced_path_at_most(Graph([1, 5, 9], []), 2)
    assert not longest_induced_path_at_most(Graph([1, 2], [(1, 2)]), 2)
    assert not longest_induced_path_at_most(Graph([1, 2, 3, 4], [(3, 4)]), 2)


def test_path_detector_matches_naive_search():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 8)
        ids = list(range(1, n + 1))
        edges = [(u, v) for u, v in itertools.combinations(ids, 2) if rng.random() < 0.45]
        g = Graph(ids, edges)
        for k in range(1, n + 1):
            assert longest_induced_path_at_most(g, k) == (not _naive_has_induced_path(g, k))


def test_generate_fixed_shapes():
    g, w = generate(GeneratorSpec(kind="path", size=4, seed=0))
    assert list(g.edges()) == [(1, 2), (2, 3), (3, 4)]
    g, _ = generate(GeneratorSpec(kind="cycle", size=5, seed=0))
    assert g.edge_count == 5 and all(g.degree(v) == 2 for v in g.vertices)
    g, _ = generate(GeneratorSpec(kind="star", size=5, seed=0))
    assert sorted(g.degree(v) for v in g.vertices) == [1, 1, 1, 1, 4]
    g, _ = generate(GeneratorSpec(kind="complete", size=4, seed=0))
    assert g.edge_count == 6


def test_generate_is_deterministic_per_seed():
    spec = GeneratorSpec(kind="random-gnp", size=12, seed=42, p=0.4)
    g1, w1 = generate(spec)
    g2, w2 = generate(spec)
    assert g1 == g2 and w1 == w2
    g3, _ = generate(GeneratorSpec(kind="random-gnp", size=12, seed=43, p=0.4))
    assert g3 != g1


def test_generate_weights_in_range():
    g, w = generate(GeneratorSpec(kind="random-gnp", size=20, seed=1, p=0.3, weight_range=(5, 9)))
    assert set(w) == set(g.vertices)
    assert all(5 <= w[v] <= 9 for v in g.vertices)


def test_generate_cograph_has_no_induced_p4():
    for seed in range(10):
        g, _ = generate(GeneratorSpec(kind="cograph", size=14, seed=seed))
        assert longest_induced_path_at_most(g, 4)


def test_generate_rejection_respects_bound():
    spec = GeneratorSpec(kind="pk-free-rejection", size=12, seed=5, p=0.85, path_bound=5)
    g, _ = generate(spec)
    assert longest_induced_path_at_most(g, 5)


def test_generate_rejection_can_fail():
    # sparse graphs on 30 vertices essentially always carry long induced paths
    spec = GeneratorSpec(
        kind="pk-free-rejection", size=30, seed=0, p=0.2, path_bound=4, max_attempts=3
    )
    with pytest.raises(GenerationError):
        generate(spec)


def test_generate_validates_spec():
    with pytest.raises(ValueError):
        generate(GeneratorSpec(kind="random-gnp", size=5, seed=0))
    with pytest.raises(ValueError):
        generate(GeneratorSpec(kind="pk-free-rejection", size=5, seed=0, p=0.5))
    with pytest.raises(ValueError):
        generate(GeneratorSpec(kind="random-gnp", size=5, seed=0, p=0.5, weight_range=(8, 2)))
    with pytest.raises(ValueError):
        generate(GeneratorSpec(kind="nonsense", size=5, seed=0))


def test_generate_refuses_more_vertices_than_a_graph_file_holds():
    from qmwis.graphio import MAX_VERTICES

    # parse_graph reads no larger graph, so generate builds none.
    with pytest.raises(ValueError, match=f"size {MAX_VERTICES + 1} exceeds {MAX_VERTICES}"):
        generate(GeneratorSpec(kind="path", size=MAX_VERTICES + 1, seed=0))


def test_generate_edge_probability_must_lie_in_unit_interval():
    for kind in ("random-gnp", "pk-free-rejection"):
        for p, edges in ((0, 0), (1, 10)):
            spec = GeneratorSpec(kind=kind, size=5, seed=0, p=p, path_bound=6)
            assert generate(spec)[0].edge_count == edges
        for p in (-1e-9, 1 + 1e-9):
            with pytest.raises(ValueError, match="edge probability"):
                generate(GeneratorSpec(kind=kind, size=5, seed=0, p=p, path_bound=6))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_brute_force_witness_property(data):
    n = data.draw(st.integers(min_value=0, max_value=11), label="n")
    ids = list(range(1, n + 1))
    edges = [
        (u, v)
        for u, v in itertools.combinations(ids, 2)
        if data.draw(st.booleans(), label=f"e{u},{v}")
    ]
    g = Graph(ids, edges)
    w = {
        v: data.draw(st.integers(min_value=0, max_value=40), label=f"w{v}") for v in ids
    }
    weight, witness = brute_force_mwis(g, w)
    assert is_independent_set(g, witness)
    assert total_weight(w, witness) == weight
    # no independent superset improves it
    assert weight == enumerate_mwis(g, w)[0]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_answer_is_the_heaviest_set_ties_to_the_larger_mask(data):
    # Small weights make ties common. Every solver, level, root and qmwis
    # oracle must then report the one optimum the rule picks, whatever path
    # its search took.
    n = data.draw(st.integers(min_value=0, max_value=12), label="n")
    ids = list(range(1, n + 1))
    edges = [
        (u, v)
        for u, v in itertools.combinations(ids, 2)
        if data.draw(st.booleans(), label=f"e{u},{v}")
    ]
    g = Graph(ids, edges)
    hi = data.draw(st.sampled_from([1, 3, 100]), label="hi")
    w = {v: data.draw(st.integers(min_value=0, max_value=hi), label=f"w{v}") for v in ids}
    smallest_k = next(k for k in itertools.count(1) if longest_induced_path_at_most(g, k))
    answers = {"brute force": brute_force_mwis(g, w)}
    for level in ("off", "fair", "paranoid"):
        for k_hint in (None, smallest_k):
            result = solve_pkfree(g, w, k_hint, level)
            answers[f"pk {level} k_hint={k_hint}"] = result.weight, result.witness
        oracles = [make_pk_oracle(4), make_bruteforce_oracle()]
        result = solve_hfree(P4_K3, g, w, oracles, assertion_level=level)
        answers[f"hfree {level}"] = result.weight, result.witness
    # A preloaded root: N past |V(G)| and at most log(N) members, so no
    # level past log(N) is occupied.
    capacity = data.draw(st.integers(min_value=max(1, n), max_value=2 * n + 2), label="N")
    members = data.draw(
        st.lists(st.sets(st.sampled_from(ids)), max_size=(capacity - 1).bit_length())
        if ids
        else st.just([]),
        label="F",
    )
    family = VertexMultiFamily(members).over(g.table)
    weight, mask = drive(_PathScheme(_parse_level("fair"), None), g, w, capacity, family)
    answers["pk fair from (N, F)"] = weight, g.table.decode(mask)
    assert answers == dict.fromkeys(answers, enumerate_mwis(g, w))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_brute_force_witness_is_the_heaviest_leaf_ties_to_the_larger_mask(data):
    # Pins brute force's witness independently of its bound: pruning, the
    # edgeless leaf or any later bound must not move it. Small weights make
    # ties common, so the tie-break is exercised.
    n = data.draw(st.integers(min_value=0, max_value=10), label="n")
    ids = list(range(1, n + 1))
    edges = [
        (u, v)
        for u, v in itertools.combinations(ids, 2)
        if data.draw(st.booleans(), label=f"e{u},{v}")
    ]
    g = Graph(ids, edges)
    w = {v: data.draw(st.integers(min_value=0, max_value=3), label=f"w{v}") for v in ids}
    assert brute_force_mwis(g, w) == enumerate_mwis(g, w)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_brute_force_split_adds_each_components_larger_mask_optimum(data):
    # Unions of small cycles and paths with weights 0-1, under shuffled ids
    # so the components interleave in the vertex order. The answer is the
    # union of each component's own optimum, ties to its larger mask; a
    # component of weight 0 adds its whole larger-mask witness too.
    sizes = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4), label="sizes")
    n = sum(sizes)
    ids = data.draw(st.permutations(range(1, n + 1)), label="ids")
    edges, start = [], 0
    for size in sizes:
        part = ids[start : start + size]
        start += size
        edges += list(zip(part, part[1:]))
        if size >= 3 and data.draw(st.booleans(), label=f"cycle{start}"):
            edges.append((part[-1], part[0]))
    g = Graph(ids, edges)
    w = {v: data.draw(st.integers(0, 1), label=f"w{v}") for v in range(1, n + 1)}
    parts = [enumerate_mwis(induced_subgraph(g, c), w) for c in connected_components(g)]
    expected = sum(p[0] for p in parts), frozenset().union(*(p[1] for p in parts))
    assert brute_force_mwis(g, w) == expected == enumerate_mwis(g, w)


def test_a_pk_oracle_leaf_past_the_brute_force_cap_keeps_the_rule():
    # Past 25 vertices the pk oracle runs the path recursion, whose answer
    # the rule fixes as it fixes solve_pkfree's.
    g, w = generate(GeneratorSpec(kind="cograph", size=60, seed=1, weight_range=(0, 3)))
    result = solve_pkfree(g, w)
    assert make_pk_oracle(4).solve_with_witness(g, w) == (result.weight, result.witness)
