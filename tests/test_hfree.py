import dataclasses
import itertools
import random

import pytest

from qmwis import (
    ComponentOracle,
    GeneratorSpec,
    Graph,
    InvariantViolation,
    PatternGraph,
    brute_force_mwis,
    find_induced_copy,
    generate,
    induced_subgraph,
    is_independent_set,
    make_bruteforce_oracle,
    make_pk_oracle,
    solve_hfree,
    total_weight,
)


def path_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])


def complete_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), list(itertools.combinations(range(1, n + 1), 2)))


def two_k2() -> Graph:
    return Graph([1, 2, 3, 4], [(1, 2), (3, 4)])


def random_graph(rng: random.Random, n: int, p: float) -> tuple[Graph, dict[int, int]]:
    ids = list(range(1, n + 1))
    edges = [(u, v) for u, v in itertools.combinations(ids, 2) if rng.random() < p]
    return Graph(ids, edges), {v: rng.randint(0, 60) for v in ids}


# ---------------------------------------------------------------- patterns


def test_pattern_from_graph_splits_components():
    p = PatternGraph.from_graph(two_k2())
    assert [part.vertices for part in p.components] == [frozenset({1, 2}), frozenset({3, 4})]
    assert p.total_size == 4


def test_pattern_components_may_share_vertex_ids():
    k2 = Graph([1, 2], [(1, 2)])
    p = PatternGraph(components=(k2, k2))
    assert p.total_size == 4
    assert len(p.components) == 2


def test_pattern_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PatternGraph.from_graph(Graph([], []))
    with pytest.raises(ValueError):
        PatternGraph(components=(Graph([1, 2], []),))  # disconnected part
    with pytest.raises(ValueError):
        PatternGraph(components=())
    with pytest.raises(ValueError):
        PatternGraph(components=(two_k2(),))  # disconnected component
    with pytest.raises(ValueError, match="pattern components must be non-empty"):
        PatternGraph(components=(Graph([1], []), Graph([], [])))


# ------------------------------------------------------- induced copies


def test_find_single_vertex_copy_is_smallest_id():
    g = Graph([4, 7, 9], [(4, 7)])
    assert find_induced_copy(g, Graph([1], [])) == {4}


def test_find_p4_in_c5():
    got = find_induced_copy(cycle_graph(5), path_graph(4))
    assert got == {1, 2, 3, 4}


def test_no_p5_in_c5():
    assert find_induced_copy(cycle_graph(5), path_graph(5)) is None


def test_empty_pattern_matches_trivially():
    assert find_induced_copy(cycle_graph(4), Graph([], [])) == frozenset()


def test_pattern_larger_than_host():
    assert find_induced_copy(path_graph(3), path_graph(4)) is None


def test_find_disconnected_copy_requires_non_adjacency():
    # C6 has two independent edges at distance, C5 does not
    assert find_induced_copy(cycle_graph(6), two_k2()) is not None
    assert find_induced_copy(cycle_graph(5), two_k2()) is None


def test_found_copy_induces_the_pattern():
    rng = random.Random(13)
    patterns = [path_graph(3), path_graph(4), two_k2(), cycle_graph(4)]
    for _ in range(60):
        g, _ = random_graph(rng, rng.randint(1, 11), rng.random())
        for h in patterns:
            got = find_induced_copy(g, h)
            if got is None:
                continue
            sub_edges = sum(
                1 for u, v in itertools.combinations(sorted(got), 2) if g.has_edge(u, v)
            )
            assert len(got) == h.n
            assert sub_edges == h.edge_count


def _naive_contains(g: Graph, h: Graph) -> bool:
    hv = h.vertex_ids()
    for combo in itertools.permutations(g.vertex_ids(), h.n):
        if all(
            g.has_edge(combo[a], combo[b]) == h.has_edge(hv[a], hv[b])
            for a in range(h.n)
            for b in range(a + 1, h.n)
        ):
            return True
    return False


def test_copy_search_matches_naive_enumeration():
    rng = random.Random(19)
    fork = Graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (3, 5)])
    patterns = [path_graph(2), path_graph(3), two_k2(), cycle_graph(3), fork, cycle_graph(5)]
    for _ in range(50):
        g, _ = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.5, 0.8]))
        for h in patterns:
            assert (find_induced_copy(g, h) is not None) == _naive_contains(g, h)


def test_is_h_free_spec_cases():
    assert find_induced_copy(complete_graph(5), path_graph(3)) is None
    assert find_induced_copy(cycle_graph(5), path_graph(5)) is None
    assert find_induced_copy(cycle_graph(5), two_k2()) is None
    assert find_induced_copy(cycle_graph(6), two_k2()) is not None


# ------------------------------------------------------------- oracles


def test_pk_oracle_values():
    o = make_pk_oracle(2)
    edgeless = Graph([1, 2, 3], [])
    assert o.solve(edgeless, {1: 2, 2: 3, 3: 4}) == 9
    assert o.claimed_pattern == path_graph(2)
    o4 = make_pk_oracle(4)
    assert o4.solve(Graph([1], []), {1: 3}) == 3
    assert o4.name == "p4"


def test_pk_oracle_on_cographs_matches_brute_force():
    o = make_pk_oracle(4)
    for seed in range(6):
        g, w = generate(GeneratorSpec(kind="cograph", size=14, seed=seed))
        assert o.solve(g, w) == brute_force_mwis(g, w)[0]


def test_pk_oracle_matches_solve_pkfree():
    from qmwis import solve_pkfree

    specs = [GeneratorSpec(kind="random-gnp", size=30, seed=s, p=0.3) for s in (1, 2, 3)]
    specs += [GeneratorSpec(kind="cograph", size=128, seed=s) for s in (1, 2)]
    graphs = [generate(spec) for spec in specs]
    rng = random.Random(808)
    graphs += [random_graph(rng, rng.randint(8, 12), 0.4) for _ in range(50)]
    o = make_pk_oracle(4)
    for g, w in graphs:
        r = solve_pkfree(g, w, assertion_level="off")
        assert o.solve_with_witness(g, w) == (r.weight, r.witness)
        assert o.solve(g, w) == r.weight


def test_pk_oracle_rejects_bad_k():
    with pytest.raises(ValueError):
        make_pk_oracle(0)


@pytest.mark.parametrize("factory", [make_pk_oracle, make_bruteforce_oracle])
@pytest.mark.parametrize("value", [True, False, 4.0, "4", None, 0, -1])
def test_oracle_factories_refuse_a_non_positive_or_non_int_size(factory, value):
    with pytest.raises(ValueError):
        factory(value)


def test_bruteforce_oracle_cap():
    from qmwis import GraphTooLarge

    o = make_bruteforce_oracle(max_size=3)
    assert o.solve(path_graph(3), {1: 1, 2: 1, 3: 1}) == 2
    with pytest.raises(GraphTooLarge):
        o.solve(path_graph(4), {v: 1 for v in range(1, 5)})


def test_pk_oracle_answers_graphs_within_the_cap_by_brute_force(monkeypatch):
    import qmwis.hfree as hfree

    def no_recursion(*args):
        raise AssertionError("the pk oracle ran the path recursion")

    monkeypatch.setattr(hfree, "_run", no_recursion)
    rng = random.Random(2207)
    graphs = []
    for n in range(26):
        # Weights 0-3 force ties, so equal witnesses mean the same search.
        graphs.append(generate(GeneratorSpec(kind="cograph", size=n, seed=n, weight_range=(0, 3))))
        g, _ = random_graph(rng, n, rng.choice([0.2, 0.5]))
        graphs.append((g, {v: rng.randint(0, 3) for v in g.vertices}))
    o = make_pk_oracle(4)
    for g, w in graphs:
        assert o.solve_with_witness(g, w) == brute_force_mwis(g, w)


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec(kind="cograph", size=26, seed=3),
        GeneratorSpec(kind="cograph", size=40, seed=1),
        GeneratorSpec(kind="path", size=30, seed=1),
    ],
    ids=lambda s: f"{s.kind}-{s.size}",
)
def test_pk_oracle_runs_the_path_recursion_past_the_cap(spec, monkeypatch):
    import qmwis.hfree as hfree

    real_run, runs = hfree._run, []

    def traced(*args):
        runs.append(args)
        return real_run(*args)

    monkeypatch.setattr(hfree, "_run", traced)
    g, w = generate(spec)
    weight, witness = make_pk_oracle(4).solve_with_witness(g, w)
    assert len(runs) == 1
    assert weight == brute_force_mwis(g, w, max_size=40)[0]
    assert is_independent_set(g, witness)
    assert total_weight(w, witness) == weight


def test_pk_oracle_verifies_its_brute_force_witness(monkeypatch):
    import qmwis.hfree as hfree
    from qmwis.oracle import _brute_force_mask

    # The leaf P3 on 1-2-3 shares the table of P4, whose vertex 4 (rank 3)
    # lies outside it. The mask entry lies first about the weight, then by
    # a foreign bit, vertex 4, whose weight 0 keeps the sum right.
    g = induced_subgraph(path_graph(4), [1, 2, 3])
    w = {1: 1, 2: 1, 3: 1, 4: 0}
    lies = [(1, 0, "witness weight 2 != reported optimum 3"), (0, 1 << 3, "outside the graph")]
    for extra_weight, extra_bits, message in lies:

        def lying(g: Graph, w, max_size=25) -> tuple[int, int]:
            weight, witness = _brute_force_mask(g, w, max_size)
            return weight + extra_weight, witness | extra_bits

        monkeypatch.setattr(hfree, "_brute_force_mask", lying)
        with pytest.raises(InvariantViolation, match=message) as err:
            make_pk_oracle(4).solve_with_witness(g, w)
        assert err.value.rule == "witness"


# ------------------------------------------------------------ solving


def test_single_component_free_input_is_one_oracle_call():
    """K5 has no induced 3-vertex path, so the run is a single oracle leaf."""
    g = complete_graph(5)
    w = {v: v for v in g.vertices}
    r = solve_hfree(path_graph(3), g, w, [make_bruteforce_oracle()], assertion_level="paranoid")
    assert r.weight == 5
    assert r.witness == {5}
    assert r.stats.oracle_calls == 1
    assert r.stats.neighborhoods_added_count == 0


def test_c5_with_two_k2_pattern():
    g = cycle_graph(5)
    w = {v: 1 for v in g.vertices}
    oracles = [make_bruteforce_oracle(), make_bruteforce_oracle()]
    r = solve_hfree(two_k2(), g, w, oracles, assume_hfree=True, assertion_level="paranoid")
    assert r.weight == 2
    assert is_independent_set(g, r.witness)
    assert r.stats.oracle_calls > 0


def test_plain_graph_pattern_is_wrapped():
    g = cycle_graph(5)
    w = {v: 1 for v in g.vertices}
    r = solve_hfree(two_k2(), g, w, [make_bruteforce_oracle(), make_bruteforce_oracle()])
    assert r.weight == 2


def test_oracle_count_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_hfree(two_k2(), cycle_graph(5), {v: 1 for v in range(1, 6)}, [make_bruteforce_oracle()])


def test_claimed_pattern_mismatch_rejected():
    # a P4 oracle cannot stand in for a K2 component
    oracles = [make_pk_oracle(4), make_bruteforce_oracle()]
    with pytest.raises(ValueError):
        solve_hfree(two_k2(), cycle_graph(5), {v: 1 for v in range(1, 6)}, oracles)


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(71)
    patterns = {
        "2K2": two_k2(),
        "P3+P3": Graph(range(1, 7), [(1, 2), (2, 3), (4, 5), (5, 6)]),
        "K3+K2": Graph(range(1, 6), [(1, 2), (2, 3), (1, 3), (4, 5)]),
    }
    for name, h in patterns.items():
        pattern = PatternGraph.from_graph(h)
        oracles = [make_bruteforce_oracle() for _ in pattern.components]
        for trial in range(40):
            g, w = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.5]))
            want, _ = brute_force_mwis(g, w)
            r = solve_hfree(pattern, g, w, oracles, assertion_level="paranoid")
            assert r.weight == want, (name, trial)
            assert is_independent_set(g, r.witness)
            assert total_weight(w, r.witness) == want


def test_oracle_calls_tracked_by_component_index():
    g = cycle_graph(5)
    w = {v: 1 for v in g.vertices}
    oracles = [make_bruteforce_oracle(), make_bruteforce_oracle()]
    r = solve_hfree(two_k2(), g, w, oracles)
    assert sum(r.stats.oracle_calls_by_index.values()) == r.stats.oracle_calls
    assert set(r.stats.oracle_calls_by_index) <= {0, 1}


def test_an_oracle_without_a_witness_is_rejected():
    with pytest.raises(TypeError):
        ComponentOracle(name="x", solve=lambda g, w: brute_force_mwis(g, w)[0])


def test_a_lying_oracle_is_a_witness_failure():
    def lying(g: Graph, w) -> tuple[int, frozenset[int]]:
        weight, witness = brute_force_mwis(g, w)
        return weight + 1, witness

    oracle = ComponentOracle(name="liar", solve=lambda g, w: lying(g, w)[0], solve_with_witness=lying)
    with pytest.raises(InvariantViolation) as err:
        solve_hfree(path_graph(3), complete_graph(3), {1: 1, 2: 1, 3: 1}, [oracle], assertion_level="off")
    assert err.value.rule == "witness"


def counting(oracle: ComponentOracle, calls: list) -> ComponentOracle:
    """oracle, with each invocation's vertex set appended to calls."""

    def solve_with_witness(g: Graph, w):
        calls.append(g.vertices)
        return oracle.solve_with_witness(g, w)

    return dataclasses.replace(oracle, solve_with_witness=solve_with_witness)


P4_K3 = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])
K3_P4 = Graph(range(1, 8), [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7)])
# The instances of test_golden.py's GOLDEN_HFREE rows.
GOLDEN_HFREE_SPECS = [GeneratorSpec(kind="random-gnp", size=28, seed=s, p=0.3) for s in (1, 2)]


def test_the_solver_calls_only_the_witness_view():
    """Oracles rebuilt with dataclasses.replace, as a call tracer does, solve the same."""
    def no_weight_view(g: Graph, w) -> int:
        raise AssertionError("the solver called an oracle's solve")

    def counted(oracle: ComponentOracle, calls: list) -> ComponentOracle:
        return dataclasses.replace(counting(oracle, calls), solve=no_weight_view)

    g, w = generate(GOLDEN_HFREE_SPECS[0])
    oracles = [make_pk_oracle(4), make_bruteforce_oracle()]
    plain = solve_hfree(P4_K3, g, w, oracles)
    calls: tuple[list, list] = ([], [])
    traced = solve_hfree(P4_K3, g, w, [counted(o, c) for o, c in zip(oracles, calls)])
    assert traced.weight == plain.weight == 560
    assert traced.witness == plain.witness
    assert traced.stats.to_dict() == plain.stats.to_dict()
    # Each distinct (index, vertex set) reaches its oracle exactly once;
    # oracle_calls_by_index counts every leaf, repeated ones too.
    by_index = traced.stats.oracle_calls_by_index
    for i, seen in enumerate(calls):
        assert len(seen) == len(set(seen)) <= by_index[i]
    assert sum(map(len, calls)) < traced.stats.oracle_calls


def _pattern_oracles(name: str) -> tuple[Graph, list[ComponentOracle]]:
    if name == "p4k3":
        return P4_K3, [make_pk_oracle(4), make_bruteforce_oracle()]
    return K3_P4, [make_bruteforce_oracle(), make_pk_oracle(4)]


@pytest.mark.parametrize("name", ["p4k3", "k3p4"])
@pytest.mark.parametrize("spec", GOLDEN_HFREE_SPECS, ids=lambda s: f"gnp-{s.size}-seed{s.seed}")
def test_with_no_memo_every_leaf_invokes_its_oracle(spec, name, monkeypatch):
    import qmwis.hfree as hfree

    g, w = generate(spec)
    pattern, oracles = _pattern_oracles(name)
    default = solve_hfree(pattern, g, w, oracles)
    monkeypatch.setattr(hfree, "LEAF_MEMO_CAP", 0)
    calls: tuple[list, list] = ([], [])
    capped = solve_hfree(pattern, g, w, [counting(o, c) for o, c in zip(oracles, calls)])
    by_index = capped.stats.oracle_calls_by_index
    assert [len(c) for c in calls] == [by_index.get(i, 0) for i in (0, 1)]
    assert capped.weight == default.weight
    assert capped.witness == default.witness
    assert capped.stats.to_dict() == default.stats.to_dict()


def test_the_leaf_memo_lives_for_one_run():
    g, w = generate(GOLDEN_HFREE_SPECS[0])
    calls: tuple[list, list] = ([], [])
    oracles = [counting(o, c) for o, c in zip(_pattern_oracles("p4k3")[1], calls)]
    first = solve_hfree(P4_K3, g, w, oracles)
    counts = [len(c) for c in calls]
    second = solve_hfree(P4_K3, g, w, oracles)
    assert [len(c) for c in calls] == [2 * n for n in counts]
    assert (second.weight, second.witness) == (first.weight, first.witness)


def test_paranoid_verifies_every_oracle_leaf_memo_hits_too(monkeypatch):
    import qmwis.hfree as hfree

    real_verify, verified = hfree.verify_witness, []

    def verify(*args):
        verified.append(args)
        return real_verify(*args)

    monkeypatch.setattr(hfree, "verify_witness", verify)
    g, w = generate(GOLDEN_HFREE_SPECS[0])
    calls: tuple[list, list] = ([], [])
    oracles = [counting(o, c) for o, c in zip(_pattern_oracles("p4k3")[1], calls)]
    r = solve_hfree(P4_K3, g, w, oracles, assertion_level="paranoid")
    assert r.weight == 560
    assert sum(map(len, calls)) < r.stats.oracle_calls
    # Every leaf is verified once; each pk invocation, all on brute-force
    # leaves here, also checks its own witness.
    assert len(verified) == r.stats.oracle_calls + len(calls[0])


@pytest.mark.parametrize("level", ["off", "fair", "paranoid"])
def test_a_lying_oracle_with_repeated_leaves_is_a_witness_failure(level):
    def lying(g: Graph, w) -> tuple[int, frozenset[int]]:
        weight, witness = brute_force_mwis(g, w)
        return weight + 1, witness

    liar = ComponentOracle(name="liar", solve=lambda g, w: lying(g, w)[0], solve_with_witness=lying)
    g, w = generate(GOLDEN_HFREE_SPECS[0])
    with pytest.raises(InvariantViolation) as err:
        solve_hfree(P4_K3, g, w, [make_pk_oracle(4), liar], assertion_level=level)
    assert err.value.rule == "witness"


def test_a_leaf_past_its_oracles_cap_names_the_oracle():
    from qmwis import GraphTooLarge

    # C30 is K3-free, and no vertex is branchable once F holds one P4's
    # neighbourhood, so the whole graph reaches the brute-force oracle.
    g = cycle_graph(30)
    oracles = [make_pk_oracle(4), make_bruteforce_oracle()]
    with pytest.raises(GraphTooLarge) as err:
        solve_hfree(P4_K3, g, {v: 1 for v in g.vertices}, oracles)
    assert str(err.value) == (
        "oracle 1 (bruteforce<=25) on a 30-vertex leaf: brute force refuses 30 > 25 vertices"
    )
    assert isinstance(err.value.__cause__, GraphTooLarge)


def test_single_vertex_graph_with_single_vertex_component():
    """A one-vertex pattern component legitimately adds one neighborhood at N=1."""
    h = PatternGraph(components=(Graph([1], []), Graph([1, 2], [(1, 2)])))
    g = Graph([1], [])
    r = solve_hfree(
        h,
        g,
        {1: 5},
        [make_bruteforce_oracle(), make_bruteforce_oracle()],
        assume_hfree=True,
        assertion_level="paranoid",
    )
    assert r.weight == 5
    assert r.witness == {1}


def test_empty_graph():
    r = solve_hfree(path_graph(3), Graph([], []), {}, [make_bruteforce_oracle()])
    assert r.weight == 0
    assert r.witness == frozenset()


def test_mixed_oracles_for_mixed_pattern():
    # P4 component gets the path solver, triangle component gets brute force
    h = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])
    pattern = PatternGraph.from_graph(h)
    oracles = [make_pk_oracle(4), make_bruteforce_oracle()]
    rng = random.Random(44)
    for _ in range(25):
        g, w = random_graph(rng, rng.randint(1, 12), 0.45)
        want, _ = brute_force_mwis(g, w)
        r = solve_hfree(pattern, g, w, oracles)
        assert r.weight == want


def test_off_level_verifies_the_witness(monkeypatch):
    import qmwis.pkfree as pkfree

    real_drive = pkfree.drive

    def corrupted(*args, **kwargs):
        weight, witness = real_drive(*args, **kwargs)
        return weight + 1, witness

    monkeypatch.setattr(pkfree, "drive", corrupted)
    g = Graph([1, 2, 3], [(1, 2), (2, 3)])
    oracles = [make_bruteforce_oracle()] * 2
    with pytest.raises(InvariantViolation) as info:
        solve_hfree(two_k2(), g, {1: 1, 2: 1, 3: 1}, oracles, assertion_level="off")
    assert info.value.rule == "witness"


@pytest.mark.parametrize("level", ["off", "fair", "paranoid"])
@pytest.mark.parametrize("g", [complete_graph(3), cycle_graph(7)], ids=["root-leaf", "deep-leaf"])
def test_an_oracle_witness_outside_the_graph_is_a_witness_failure(g, level):
    def foreign(g: Graph, w) -> tuple[int, frozenset[int]]:
        weight, witness = brute_force_mwis(g, w)
        return weight, witness | {99}

    oracle = ComponentOracle(
        name="foreign", solve=lambda g, w: foreign(g, w)[0], solve_with_witness=foreign
    )
    w = {v: 1 for v in g.vertex_ids()}
    with pytest.raises(InvariantViolation) as info:
        solve_hfree(path_graph(3), g, w, [oracle], assertion_level=level)
    assert info.value.rule == "witness"
    assert str(info.value) == "witness: witness contains vertices outside the graph: [99]"


def test_a_false_freeness_claim_breaks_the_family_bound():
    # The edgeless graph is full of K1, so assume_hfree is false here.
    g = Graph(range(1, 9), [])
    w = {v: 1 for v in g.vertex_ids()}
    with pytest.raises(InvariantViolation) as info:
        solve_hfree(Graph([1], []), g, w, [make_bruteforce_oracle()], assume_hfree=True)
    assert info.value.rule == "family-size"
    assert str(info.value) == "family-size: |F| = 3 reached c |H| log(N) = 3"
    assert info.value.details == {"family_size": 3, "bound": 3}


def test_paranoid_checks_the_graph_handed_to_an_oracle(monkeypatch):
    import qmwis.hfree as hfree

    monkeypatch.setattr(hfree._PatternScheme, "anchor", lambda self, g, family: None)
    g, oracles = two_k2(), [make_bruteforce_oracle()] * 2
    with pytest.raises(InvariantViolation) as info:
        solve_hfree(g, g, {1: 1, 2: 1, 3: 1, 4: 1}, oracles, assertion_level="paranoid")
    assert info.value.rule == "oracle-validity"
    assert info.value.details == {"oracle": 0, "n": 4}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_paranoid_computes_at_most_one_potential_per_call(seed, monkeypatch):
    # Cographs are P4-free, so K3+P4 is absent; K3 copies make F grow.
    import qmwis.hfree as hfree

    real_measure, counted = hfree.measure_h, []

    def measure(*args):
        counted.append(args)
        return real_measure(*args)

    monkeypatch.setattr(hfree, "measure_h", measure)
    g, w = generate(GeneratorSpec(kind="cograph", size=40, seed=seed))
    pattern = PatternGraph(components=(complete_graph(3), path_graph(4)))
    oracles = [make_bruteforce_oracle(), make_pk_oracle(4)]
    r = solve_hfree(pattern, g, w, oracles, assume_hfree=True, assertion_level="paranoid")
    assert r.stats.neighborhoods_added_count and r.stats.branch_steps
    assert 0 < len(counted) <= r.stats.calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_honest_paranoid_runs_on_cographs(seed):
    """Cographs are P4-free, so assume_hfree is true for K3+P4 and P4+K3 alike."""
    from qmwis import solve_pkfree

    g, w = generate(GeneratorSpec(kind="cograph", size=96, seed=seed))
    assert g.n == 96
    expected = solve_pkfree(g, w, assertion_level="off").weight
    k3, p4 = complete_graph(3), path_graph(4)
    for parts, oracles in (
        ((k3, p4), [make_bruteforce_oracle(), make_pk_oracle(4)]),
        ((p4, k3), [make_pk_oracle(4), make_bruteforce_oracle()]),
    ):
        pattern = PatternGraph(components=parts)
        r = solve_hfree(pattern, g, w, oracles, assume_hfree=True, assertion_level="paranoid")
        assert r.weight == expected
