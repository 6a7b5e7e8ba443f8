import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmwis import (
    GeneratorSpec,
    Graph,
    InvariantViolation,
    RunStats,
    SolveResult,
    VertexMultiFamily,
    brute_force_mwis,
    generate,
    induced_subgraph,
    is_independent_set,
    max_measure_k,
    measure_k,
    solve_pkfree,
    total_weight,
    verify_witness,
)


def path_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])


def petersen() -> Graph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return Graph(range(1, 11), outer + spokes + inner)


def unit_weights(g: Graph) -> dict[int, int]:
    return {v: 1 for v in g.vertices}


def random_graph(rng: random.Random, n: int, p: float) -> tuple[Graph, dict[int, int]]:
    ids = list(range(1, n + 1))
    edges = [(u, v) for u, v in itertools.combinations(ids, 2) if rng.random() < p]
    return Graph(ids, edges), {v: rng.randint(0, 100) for v in ids}


def test_empty_graph():
    r = solve_pkfree(Graph([], []), {})
    assert r.weight == 0
    assert r.witness == frozenset()


def test_single_vertex():
    r = solve_pkfree(Graph([3], []), {3: 7}, assertion_level="paranoid")
    assert r.weight == 7
    assert r.witness == {3}


def test_two_vertex_edge_trace():
    """K2 runs one separator add then one branch; the tie keeps the delete side."""
    r = solve_pkfree(Graph([1, 2], [(1, 2)]), {1: 1, 2: 1}, assertion_level="paranoid")
    assert r.weight == 1
    assert r.witness == {2}
    assert r.stats.separators_added == 1
    assert r.stats.branch_steps == 1
    assert r.stats.calls == 4


def test_three_path_takes_heavy_middle():
    r = solve_pkfree(path_graph(3), {1: 1, 2: 5, 3: 1}, assertion_level="paranoid")
    assert r.weight == 5
    assert r.witness == {2}
    assert r.stats.calls == 6
    assert r.stats.separators_added == 1
    assert r.stats.branch_steps == 1
    assert r.stats.component_recursions == 1


def test_five_cycle_unit_weights():
    r = solve_pkfree(cycle_graph(5), unit_weights(cycle_graph(5)), assertion_level="paranoid")
    assert r.weight == 2
    assert is_independent_set(cycle_graph(5), r.witness)


def test_petersen_unit_weights():
    g = petersen()
    r = solve_pkfree(g, unit_weights(g), assertion_level="paranoid")
    assert r.weight == 4
    assert len(r.witness) == 4
    assert is_independent_set(g, r.witness)


def test_zero_weights_supported():
    g = cycle_graph(4)
    r = solve_pkfree(g, {v: 0 for v in g.vertices})
    assert r.weight == 0
    assert is_independent_set(g, r.witness)


def test_matches_brute_force_across_random_graphs():
    rng = random.Random(101)
    for trial in range(120):
        g, w = random_graph(rng, rng.randint(1, 14), rng.choice([0.15, 0.4, 0.7]))
        want, _ = brute_force_mwis(g, w)
        for level in ("off", "fair", "paranoid"):
            got = solve_pkfree(g, w, assertion_level=level)
            assert got.weight == want, (trial, level)
            assert is_independent_set(g, got.witness)
            assert total_weight(w, got.witness) == got.weight


def test_disconnected_graphs_recurse_by_component():
    g = Graph(range(1, 9), [(1, 2), (3, 4), (5, 6), (7, 8)])
    w = {v: v for v in g.vertices}
    r = solve_pkfree(g, w, assertion_level="paranoid")
    assert r.weight == 2 + 4 + 6 + 8
    assert r.witness == {2, 4, 6, 8}
    assert r.stats.component_recursions >= 1


def test_k_hint_on_cographs_runs_clean_at_paranoid():
    from qmwis import GeneratorSpec, generate

    for seed in range(8):
        g, w = generate(GeneratorSpec(kind="cograph", size=16, seed=seed))
        want, _ = brute_force_mwis(g, w)
        r = solve_pkfree(g, w, k_hint=4, assertion_level="paranoid")
        assert r.weight == want
        mu = measure_k(g.n, max(1, g.n), VertexMultiFamily(), 4)
        assert 0 <= mu <= max_measure_k(max(1, g.n), 4)


def test_k_hint_must_be_positive():
    with pytest.raises(ValueError):
        solve_pkfree(path_graph(2), {1: 1, 2: 1}, k_hint=0)


def test_unknown_assertion_level_rejected():
    with pytest.raises(ValueError):
        solve_pkfree(path_graph(2), {1: 1, 2: 1}, assertion_level="strict")


def test_weights_validated():
    with pytest.raises(ValueError):
        solve_pkfree(path_graph(2), {1: 1})
    with pytest.raises(ValueError):
        solve_pkfree(path_graph(2), {1: 1, 2: -4})


def test_alg1_call_rejects_oversized_graph():
    # Algorithm 1's call on (G, w, N, F) needs |V(G)| <= N.
    g = path_graph(3)
    with pytest.raises(ValueError, match=r"not fair-shaped: \|V\(G\)\| = 3 > N = 2"):
        solve_pkfree(g, unit_weights(g), capacity_n=2)


def test_alg1_call_with_preloaded_family_is_still_exact():
    g = path_graph(4)
    w = {1: 2, 2: 9, 3: 9, 4: 2}
    family = VertexMultiFamily([{1, 2, 3, 4}])
    result = solve_pkfree(g, w, assertion_level="off", capacity_n=4, family=family)
    assert result.weight == 11
    assert is_independent_set(g, result.witness)
    assert total_weight(w, result.witness) == 11
    with pytest.raises(ValueError, match="family members must be vertex sets"):
        solve_pkfree(g, w, capacity_n=4, family=VertexMultiFamily([{1, 9}]))
    with pytest.raises(ValueError, match="family members must be vertex sets"):
        solve_pkfree(g, w, family=VertexMultiFamily([{5}]))


@pytest.mark.parametrize("level", ["off", "fair", "paranoid"])
def test_alg1_call_returns_the_solve_result_of_solve_pkfree(level):
    # The defaulted root: N = max(1, |V(G)|) and F empty over g's table.
    g, w = generate(GeneratorSpec(kind="random-gnp", size=30, seed=1, p=0.3))
    family = VertexMultiFamily(table=g.table)
    got = solve_pkfree(g, w, 4, level, capacity_n=max(1, g.n), family=family)
    want = solve_pkfree(g, w, k_hint=4, assertion_level=level)
    assert isinstance(got, SolveResult)
    assert (got.weight, got.witness) == (want.weight, want.witness)
    assert got.stats.to_dict() == want.stats.to_dict()


def test_alg1_call_takes_no_stats():
    g = path_graph(3)
    with pytest.raises(TypeError):
        solve_pkfree(g, unit_weights(g), stats=RunStats())


def test_the_root_keywords_are_keyword_only():
    g = path_graph(3)
    w = unit_weights(g)
    with pytest.raises(TypeError):
        solve_pkfree(g, w, None, "fair", 3)
    with pytest.raises(TypeError):
        solve_pkfree(g, w, None, "fair", 3, VertexMultiFamily())


def test_collect_witness_take_wins_strictly():
    heavier = solve_pkfree(path_graph(3), {1: 1, 2: 3, 3: 1})
    assert (heavier.witness, heavier.stats.branch_steps) == ({2}, 1)


def test_collect_witness_tie_keeps_delete_side():
    tie = solve_pkfree(path_graph(3), {1: 1, 2: 2, 3: 1})
    assert (tie.witness, tie.stats.branch_steps) == ({1, 3}, 1)  # the delete side


def test_alg1_call_rejects_k_hint_and_n_below_one():
    g = path_graph(3)
    with pytest.raises(ValueError, match="k_hint must be >= 1, got 0"):
        solve_pkfree(g, unit_weights(g), k_hint=0, capacity_n=3)
    with pytest.raises(ValueError, match="N must be >= 1, got 0"):
        solve_pkfree(Graph([], []), {}, capacity_n=0)


@pytest.mark.parametrize("level", ["fair", "paranoid"])
@pytest.mark.parametrize("bad", [4.0, True, "4"], ids=["float", "bool", "str"])
def test_k_hint_and_n_must_be_integers(bad, level):
    # Refused before the run, as validate_weights refuses a weight: a bool
    # is no integer here, and a float would reach int-only code mid-run.
    g = path_graph(3)
    w = unit_weights(g)
    with pytest.raises(ValueError, match=f"k_hint must be an integer, got {re.escape(repr(bad))}$"):
        solve_pkfree(g, w, k_hint=bad, assertion_level=level)
    with pytest.raises(ValueError, match=f"N must be an integer, got {re.escape(repr(bad))}$"):
        solve_pkfree(g, w, assertion_level=level, capacity_n=bad)


def test_verify_witness_accepts_and_rejects():
    # The leaf 1-2-3 shares the table of P4, whose vertex 4 lies outside it.
    # A witness is ids or a mask over that table.
    g = induced_subgraph(path_graph(4), [1, 2, 3])
    w = {1: 1, 2: 5, 3: 1, 4: 7}
    rank = g.table.rank
    verify_witness(g, w, 5, frozenset({2}))
    verify_witness(g, w, 5, 1 << rank[2])
    verify_witness(g, w, 2, 1 << rank[1] | 1 << rank[3])
    verify_witness(g, w, 0, 0)
    with pytest.raises(InvariantViolation):
        verify_witness(g, w, 6, frozenset({2}))
    with pytest.raises(InvariantViolation):
        verify_witness(g, w, 2, frozenset({1, 2}))
    with pytest.raises(InvariantViolation):
        verify_witness(g, w, 5, frozenset({9}))
    bad_masks = [
        (8, 1 << rank[1] | 1 << rank[4], "outside the graph"),
        (5, 1 << 9, "outside the graph"),
        (6, 1 << rank[1] | 1 << rank[2], "not independent"),
        (6, 1 << rank[2], "witness weight 5 != reported optimum 6"),
    ]
    for weight, mask, message in bad_masks:
        with pytest.raises(InvariantViolation, match=message) as err:
            verify_witness(g, w, weight, mask)
        assert err.value.rule == "witness"


def test_stats_depth_and_size_tracking():
    g = cycle_graph(8)
    r = solve_pkfree(g, unit_weights(g))
    assert r.stats.max_graph_size == 8
    assert r.stats.max_depth >= 2
    assert r.stats.max_family_size >= 1


def test_measure_decreases_along_trace():
    g = cycle_graph(6)
    r = solve_pkfree(g, unit_weights(g), k_hint=6, assertion_level="paranoid")
    assert len(r.stats.measure_trace) > 0
    for rule, parent, child in r.stats.measure_trace:
        assert child < parent, rule


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solver_agrees_with_brute_force_property(data):
    n = data.draw(st.integers(min_value=0, max_value=10), label="n")
    ids = list(range(1, n + 1))
    edges = [
        (u, v)
        for u, v in itertools.combinations(ids, 2)
        if data.draw(st.booleans(), label=f"e{u},{v}")
    ]
    g = Graph(ids, edges)
    w = {v: data.draw(st.integers(min_value=0, max_value=60), label=f"w{v}") for v in ids}
    want, _ = brute_force_mwis(g, w)
    got = solve_pkfree(g, w, assertion_level="paranoid")
    assert got.weight == want
    assert is_independent_set(g, got.witness)
    assert total_weight(w, got.witness) == want


@pytest.mark.parametrize("level", ["off", "fair", "paranoid"])
def test_every_level_verifies_the_witness(level, monkeypatch):
    import qmwis.pkfree as pkfree

    real_drive = pkfree.drive

    def corrupted(scheme, g, *args, **kwargs):
        # drive answers with a witness mask over g's table; add vertex 2.
        weight, witness = real_drive(scheme, g, *args, **kwargs)
        return weight, witness | g.table.mask({2})

    monkeypatch.setattr(pkfree, "drive", corrupted)
    with pytest.raises(InvariantViolation) as info:
        solve_pkfree(path_graph(3), {1: 1, 2: 1, 3: 1}, assertion_level=level)
    assert info.value.rule == "witness"
    with pytest.raises(InvariantViolation) as info:
        solve_pkfree(
            path_graph(3),
            {1: 1, 2: 1, 3: 1},
            assertion_level=level,
            capacity_n=3,
            family=VertexMultiFamily(),
        )
    assert info.value.rule == "witness"


def test_an_empty_separator_neighborhood_is_an_audit_failure(monkeypatch):
    import qmwis.pkfree as pkfree

    monkeypatch.setattr(pkfree, "balanced_separator_core", lambda g, i: 0)
    with pytest.raises(InvariantViolation) as info:
        solve_pkfree(path_graph(8), unit_weights(path_graph(8)))
    assert info.value.rule == "add-separator"
    assert str(info.value) == "add-separator: computed an empty separator neighborhood"
    assert info.value.details == {"n": 8, "N": 8}


def test_a_potential_over_its_ceiling_is_an_audit_failure(monkeypatch):
    import qmwis.pkfree as pkfree

    monkeypatch.setattr(pkfree._PathScheme, "ceiling", lambda self, n_cap: 0)
    g = path_graph(3)
    with pytest.raises(InvariantViolation) as info:
        solve_pkfree(g, unit_weights(g), k_hint=3, assertion_level="paranoid")
    assert info.value.rule == "measure-bounds"
    assert info.value.details["ceiling"] == 0


@pytest.mark.parametrize("level", ["off", "fair", "paranoid"])
def test_separator_balance_of_family_members_is_audited_only_at_paranoid(level):
    # {1} is no N/4-balanced separator of the 8-vertex path; only the
    # paranoid per-call audit of F's members notices.
    g = path_graph(8)
    w, family = {v: 1 for v in g.vertex_ids()}, VertexMultiFamily([{1}])
    if level != "paranoid":
        assert solve_pkfree(g, w, assertion_level=level, capacity_n=8, family=family).weight == 4
        return
    with pytest.raises(InvariantViolation) as info:
        solve_pkfree(g, w, assertion_level=level, capacity_n=8, family=family)
    assert info.value.rule == "separator-balance"


def test_growth_retries_never_split_again(monkeypatch):
    # split depends on G and N alone, so each executed node of two or more
    # vertices asks for it once, on its first call, however often F grows
    # afterwards. A growth retry is one more call on the same graph object.
    # Calls answered from the run's memo execute nothing, so they reach
    # neither _check_call nor record_growth.
    import qmwis.pkfree as pkfree

    checked, split_graphs, growths = [], [], []
    real_check, real_split = pkfree._check_call, pkfree._PathScheme.split
    real_growth = pkfree._PathScheme.record_growth

    def check(g, *args):
        checked.append(g)
        return real_check(g, *args)

    def split(self, g, n_cap):
        split_graphs.append(g)
        return real_split(self, g, n_cap)

    def record_growth(self):
        growths.append(self)
        real_growth(self)

    monkeypatch.setattr(pkfree, "_check_call", check)
    monkeypatch.setattr(pkfree._PathScheme, "split", split)
    monkeypatch.setattr(pkfree._PathScheme, "record_growth", record_growth)
    g, w = generate(GeneratorSpec(kind="random-gnp", size=30, seed=1, p=0.3))
    stats = solve_pkfree(g, w).stats
    # The lists keep every graph alive, so no two nodes share an id().
    frames = {id(h) for h in checked if h.n >= 2}
    assert growths and stats.memo_calls > 0
    assert len(checked) + stats.memo_calls == stats.calls
    assert len(split_graphs) == len(frames) > 0
    assert {id(h) for h in split_graphs} == frames
    assert sum(h.n >= 2 for h in checked) - len(frames) == len(growths)


# The counters that describe Algorithm 1's recursion tree, which a memo hit
# replays rather than runs.
TREE_COUNTERS = (
    "calls",
    "component_recursions",
    "branch_steps",
    "separators_added",
    "max_depth",
    "max_family_size",
    "max_graph_size",
    "assertions_checked",
)


def assert_memo_replays_the_tree(g, w):
    # "paranoid" without k_hint runs every node of the tree; "fair" answers
    # each repeated split child from the run's memo.
    memo = solve_pkfree(g, w)
    full = solve_pkfree(g, w, assertion_level="paranoid")
    assert full.stats.memo_hits == full.stats.memo_calls == 0
    assert (memo.weight, memo.witness) == (full.weight, full.witness)
    for name in TREE_COUNTERS:
        assert getattr(memo.stats, name) == getattr(full.stats, name), name


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=30),
    p=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(n=30, p=0.3, seed=1)
def test_memo_replays_the_full_tree_on_gnp(n, p, seed):
    spec = GeneratorSpec(kind="random-gnp", size=n, seed=seed, p=p)
    assert_memo_replays_the_tree(*generate(spec))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=0, max_value=120), seed=st.integers(min_value=0, max_value=2**32))
@example(n=120, seed=1)
def test_memo_replays_the_full_tree_on_cographs(n, seed):
    assert_memo_replays_the_tree(*generate(GeneratorSpec(kind="cograph", size=n, seed=seed)))


def layered_cograph(n: int) -> Graph:
    """A cograph over 1..n whose cotree halves each id range, a union at
    every third depth and a join elsewhere."""
    edges = []

    def build(lo: int, hi: int, depth: int) -> None:
        if hi <= lo:
            return
        mid = (lo + hi) // 2
        build(lo, mid, depth + 1)
        build(mid + 1, hi, depth + 1)
        if depth % 3 != 2:
            edges.extend((u, v) for u in range(lo, mid + 1) for v in range(mid + 1, hi + 1))

    build(1, n, 0)
    return Graph(range(1, n + 1), edges)


def test_memo_answers_repeated_components_once_per_run():
    # Deleting v and taking N[v] leave many components in common. Nothing
    # outlives a run: a second solve of the same graph hits as often.
    g = layered_cograph(64)
    w = {v: v % 7 for v in g.vertex_ids()}
    first, second = solve_pkfree(g, w).stats, solve_pkfree(g, w).stats
    assert first.memo_hits > 0 and first.memo_calls >= first.memo_hits
    assert first.memo_calls < first.calls
    assert (second.memo_hits, second.memo_calls) == (first.memo_hits, first.memo_calls)
    assert first.to_dict() == second.to_dict()
    assert "memo_hits" not in first.to_dict() and "memo_calls" not in first.to_dict()


@pytest.mark.parametrize(
    "kind, size, calls, weight",
    [("path", 40, 344_926, 1204), ("cograph", 1000, 92_269, 7375)],
)
def test_roadmap_table_counts(kind, size, calls, weight):
    # The default run's counts on instances too slow to pin without the memo;
    # generate's cograph kind draws what perfbench's make_instance("cograph",
    # size, 0.5, seed) draws.
    g, w = generate(GeneratorSpec(kind=kind, size=size, seed=1))
    result = solve_pkfree(g, w)
    assert (result.stats.calls, result.weight) == (calls, weight)
    assert result.stats.memo_hits > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_paranoid_computes_one_potential_per_call(seed, monkeypatch):
    # The edge into a call computes the child's potential; the call reuses it.
    import qmwis.pkfree as pkfree

    real_measure, counted = pkfree.measure_k, []

    def measure(*args):
        counted.append(args)
        return real_measure(*args)

    monkeypatch.setattr(pkfree, "measure_k", measure)
    g, w = generate(GeneratorSpec(kind="cograph", size=40, seed=seed))
    stats = solve_pkfree(g, w, k_hint=4, assertion_level="paranoid").stats
    assert stats.separators_added and stats.branch_steps and stats.component_recursions
    assert len(counted) == stats.calls


@pytest.mark.parametrize("seed, size", [(1, 96), (2, 112), (3, 128)])
def test_paranoid_audit_at_benchmark_scale_matches_fair(seed, size):
    # Cographs are P4-free, so k_hint=4 is a true claim and every audit passes.
    g, w = generate(GeneratorSpec(kind="cograph", size=size, seed=seed))
    fair = solve_pkfree(g, w, k_hint=4)
    paranoid = solve_pkfree(g, w, k_hint=4, assertion_level="paranoid")
    assert paranoid.stats.separators_added > 0
    assert (paranoid.weight, paranoid.witness, paranoid.stats.calls) == (
        fair.weight,
        fair.witness,
        fair.stats.calls,
    )
