import hashlib
import itertools
import json
import random
import re
from contextlib import nullcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmwis.pkfree as pkfree
from qmwis import (
    GeneratorSpec,
    Graph,
    InvariantViolation,
    RunStats,
    VertexMultiFamily,
    brute_force_mwis,
    generate,
    induced_subgraph,
    is_independent_set,
    make_bruteforce_oracle,
    make_pk_oracle,
    max_measure_k,
    measure_k,
    solve_hfree,
    solve_pkfree,
    total_weight,
    verify_witness,
)
from qmwis.graph import component_masks, remove_vertices

from test_golden import GOLDEN, GOLDEN_HFREE, P4_K3
from test_past_the_cap import split_graph


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


def drive_from(g: Graph, w: dict, n_cap: int, members: list, level: str = "fair") -> tuple:
    """drive's answer (weight, witness mask) from the root (g, w, N, F of members)."""
    scheme = pkfree._PathScheme(pkfree._parse_level(level), None)
    return pkfree.drive(scheme, g, w, n_cap, VertexMultiFamily(members).over(g.table))


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


def _path_free_instances(kind: str) -> list[tuple[Graph, dict[int, int], int]]:
    """(g, w, a true k_hint) for n = 0..40: gnp graphs have no induced path
    on n + 1 vertices, cographs none on 4 and split graphs none on 5."""
    if kind == "split":
        return [(*split_graph(n, n)[:2], 5) for n in range(41)]
    if kind == "cograph":
        return [(*generate(GeneratorSpec(kind="cograph", size=n, seed=n)), 4) for n in range(41)]
    specs = [GeneratorSpec(kind="random-gnp", size=n, seed=n, p=0.3) for n in range(41)]
    return [(*generate(spec), spec.size + 1) for spec in specs]


@pytest.mark.parametrize("claim", [False, True], ids=["no-k-hint", "k-hint"])
@pytest.mark.parametrize("level", ["off", "fair", "paranoid"])
@pytest.mark.parametrize("kind", ["gnp", "cograph", "split"])
def test_a_path_run_checks_each_n1_node_as_a_small_leaf(kind, level, claim, monkeypatch):
    # The emptiness, family-size and chain audits run from N = 2. A path
    # run loses none that could fire: each of its N = 1 nodes has an empty
    # F and at most one vertex, and is answered as a small leaf, so never
    # reaches the split or a growth of F.
    real_check, real_split, small, reached = pkfree._check_call, pkfree._PathScheme.split, [], []

    def check(g, n, n_cap, log_n, family, scheme, mu=None):
        if n_cap < 2:
            small.append((n, len(family)))
        return real_check(g, n, n_cap, log_n, family, scheme, mu)

    def split(self, g, n_cap):
        reached.append(n_cap)
        return real_split(self, g, n_cap)

    monkeypatch.setattr(pkfree, "_check_call", check)
    monkeypatch.setattr(pkfree._PathScheme, "split", split)
    for g, w, k in _path_free_instances(kind):
        solve_pkfree(g, w, k_hint=k if claim else None, assertion_level=level)
    assert small and all(n <= 1 and not size for n, size in small)
    assert reached and min(reached) >= 2


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


def test_drive_from_a_preloaded_family_is_still_exact():
    g = path_graph(4)
    w = {1: 2, 2: 9, 3: 9, 4: 2}
    weight, mask = drive_from(g, w, 4, [{1, 2, 3, 4}], level="off")
    witness = g.table.decode(mask)
    assert weight == 11
    assert is_independent_set(g, witness)
    assert total_weight(w, witness) == 11


def test_solve_pkfree_takes_no_stats():
    g = path_graph(3)
    with pytest.raises(TypeError):
        solve_pkfree(g, unit_weights(g), stats=RunStats())


def test_a_heavier_take_child_wins_the_branch():
    heavier = solve_pkfree(path_graph(3), {1: 1, 2: 3, 3: 1})
    assert (heavier.witness, heavier.stats.branch_steps) == ({2}, 1)


def test_a_branch_tie_keeps_the_larger_mask():
    tie = solve_pkfree(path_graph(3), {1: 1, 2: 2, 3: 1})
    assert (tie.witness, tie.stats.branch_steps) == ({1, 3}, 1)  # 0b101 > 0b010


def test_solve_pkfree_rejects_k_hint_below_one():
    g = path_graph(3)
    with pytest.raises(ValueError, match="k_hint must be >= 1, got 0"):
        solve_pkfree(g, unit_weights(g), k_hint=0)


@pytest.mark.parametrize("level", ["fair", "paranoid"])
@pytest.mark.parametrize("bad", [4.0, True, "4"], ids=["float", "bool", "str"])
def test_k_hint_must_be_an_integer(bad, level):
    # Refused before the run, as validate_weights refuses a weight: a bool
    # is no integer here, and a float would reach int-only code mid-run.
    g = path_graph(3)
    w = unit_weights(g)
    with pytest.raises(ValueError, match=f"k_hint must be an integer, got {re.escape(repr(bad))}$"):
        solve_pkfree(g, w, k_hint=bad, assertion_level=level)


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


def test_verify_witness_rejects_a_repeated_id():
    # Two copies of one id make a mask of one vertex: the list is not a set.
    g = path_graph(3)
    with pytest.raises(InvariantViolation, match="reported witness is not independent") as err:
        verify_witness(g, unit_weights(g), 2, [1, 1])
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
    real_drive = pkfree.drive

    def corrupted(scheme, g, *args, **kwargs):
        # drive answers with a witness mask over g's table; add vertex 2.
        weight, witness = real_drive(scheme, g, *args, **kwargs)
        return weight, witness | g.table.mask({2})

    monkeypatch.setattr(pkfree, "drive", corrupted)
    with pytest.raises(InvariantViolation) as info:
        solve_pkfree(path_graph(3), {1: 1, 2: 1, 3: 1}, assertion_level=level)
    assert info.value.rule == "witness"


def test_an_empty_separator_neighborhood_is_an_audit_failure(monkeypatch):
    monkeypatch.setattr(pkfree, "balanced_separator_core", lambda g, i: 0)
    with pytest.raises(InvariantViolation) as info:
        solve_pkfree(path_graph(8), unit_weights(path_graph(8)))
    assert info.value.rule == "add-separator"
    assert str(info.value) == "add-separator: computed an empty separator neighborhood"
    assert info.value.details == {"n": 8, "N": 8}


def test_a_potential_over_its_ceiling_is_an_audit_failure(monkeypatch):
    monkeypatch.setattr(pkfree._PathScheme, "ceiling", lambda self, n_cap: 0)
    # A 3-vertex path is P_4-free; k_hint=3 would be refused as a false claim.
    g = path_graph(3)
    with pytest.raises(InvariantViolation) as info:
        solve_pkfree(g, unit_weights(g), k_hint=4, assertion_level="paranoid")
    assert info.value.rule == "measure-bounds"
    assert info.value.details["ceiling"] == 0


@pytest.mark.parametrize("level", ["off", "fair", "paranoid"])
def test_separator_balance_of_family_members_is_audited_only_at_paranoid(level):
    # {1} is no N/4-balanced separator of the 8-vertex path; only the
    # paranoid per-call audit of F's members notices.
    g = path_graph(8)
    w = {v: 1 for v in g.vertex_ids()}
    if level != "paranoid":
        assert drive_from(g, w, 8, [{1}], level)[0] == 4
        return
    with pytest.raises(InvariantViolation) as info:
        drive_from(g, w, 8, [{1}], level)
    assert info.value.rule == "separator-balance"


def test_a_split_part_gets_its_graph_only_when_it_runs(monkeypatch):
    # A split part's graph is cut when the part runs: a repeat answered from
    # the memo and a one-vertex part build none, so each stored part, one
    # per distinct key, built exactly one. A part of 2 to 4 vertices is keyed
    # by its shape, a larger one by its mask; every part that ran is also
    # stored under its mask, as is a small part answered by its shape.
    built = []
    real = pkfree.induced_subgraph
    monkeypatch.setattr(pkfree, "induced_subgraph", lambda g, xs: built.append(xs) or real(g, xs))
    g, w = generate(GeneratorSpec(kind="random-gnp", size=30, seed=1, p=0.3))
    scheme = pkfree._PathScheme(pkfree._parse_level("fair"), None)
    pkfree._run(scheme, g, w)
    assert scheme.stats.memo_hits > 0
    keys = [pkfree._shape(g.table.adj, m)[0] if m.bit_count() <= 4 else m for m in built]
    masks = {key for key in scheme.memo if isinstance(key, int)}
    assert len(set(keys)) == len(keys) and set(built) <= masks
    assert set(keys) == set(scheme.memo) - {m for m in masks if m.bit_count() <= 4}
    assert all(mask.bit_count() > 1 for mask in built)
    assert any(isinstance(key, tuple) for key in keys) and any(isinstance(key, int) for key in keys)


def test_growth_retries_never_split_again(monkeypatch):
    # split depends on G and N alone, so each executed node of two or more
    # vertices asks for it once, on its first call, however often F grows
    # afterwards. A growth retry is one more call on the same graph object.
    # Calls answered from the run's memo execute nothing, so they reach
    # neither _check_call nor record_growth. A one-vertex split part reaches
    # _check_call with a one-vertex graph of its own.
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
    graphs = [h for h in checked if h is not None]
    frames = {id(h) for h in graphs if h.n >= 2}
    assert growths and stats.memo_calls > 0
    assert len(checked) + stats.memo_calls == stats.calls
    assert len(split_graphs) == len(frames) > 0
    assert {id(h) for h in split_graphs} == frames
    assert sum(h.n >= 2 for h in graphs) - len(frames) == len(growths)


def assert_memo_replays_the_tree(without_memo, g, w, **kwargs):
    # The memo answers each repeated split child; without it every node of
    # the tree runs. The stats, measure trace included, must not tell them
    # apart.
    memo = solve_pkfree(g, w, **kwargs)
    with without_memo():
        full = solve_pkfree(g, w, **kwargs)
    assert full.stats.memo_hits == full.stats.memo_calls == 0
    assert (memo.weight, memo.witness) == (full.weight, full.witness)
    assert memo.stats.to_dict() == full.stats.to_dict()
    assert memo.stats.measure_steps == full.stats.measure_steps


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=30),
    p=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(n=30, p=0.3, seed=1)
def test_memo_replays_the_full_tree_on_gnp(without_memo, n, p, seed):
    spec = GeneratorSpec(kind="random-gnp", size=n, seed=seed, p=p)
    for level in ("fair", "paranoid"):
        assert_memo_replays_the_tree(without_memo, *generate(spec), assertion_level=level)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=0, max_value=120), seed=st.integers(min_value=0, max_value=2**32))
@example(n=120, seed=1)
def test_memo_replays_the_full_tree_on_cographs(without_memo, n, seed):
    # Cographs are P4-free, so k_hint=4 is true and paranoid records and
    # replays the measure trace.
    g, w = generate(GeneratorSpec(kind="cograph", size=n, seed=seed))
    assert_memo_replays_the_tree(without_memo, g, w)
    assert_memo_replays_the_tree(without_memo, g, w, k_hint=4, assertion_level="paranoid")


def connected_shapes() -> list[tuple[int, list[tuple[int, int]]]]:
    """Every connected graph on the positions 0..n-1 for n from 2 to 4, as
    (n, edges): the shapes drive keys a path-scheme split part by."""
    shapes = []
    for n in (2, 3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            edges = [pair for i, pair in enumerate(pairs) if chosen >> i & 1]
            table = Graph(range(n), edges).table
            if len(component_masks(table.adj, (1 << n) - 1)) == 1:
                shapes.append((n, edges))
    return shapes


SHAPES = connected_shapes()


def test_each_of_the_43_shapes_has_its_own_key():
    keys = set()
    for n, edges in SHAPES:
        key, ranks = pkfree._shape(Graph(range(n), edges).table.adj, (1 << n) - 1)
        assert key[0] == n and ranks == list(range(n))
        keys.add(key)
    assert len(SHAPES) == len(keys) == 43


def draw_two_copies(data, n, edges, hub_rank):
    """Two copies of the shape, each keeping its rank order, at random ranks
    of a table of up to 14 vertices, the rest isolated; maybe a hub joined to
    every vertex, on rank 0 or, with hub_rank "any", on a random rank.
    Weights of 0 and all-equal weights make ties, which go to the larger
    mask. Returns (g, w)."""
    size = data.draw(st.integers(min_value=2 * n + 2, max_value=14))
    hub = data.draw(st.booleans())
    free = data.draw(st.permutations(range(hub and hub_rank == 0, size)))
    copies = [sorted(free[:n]), sorted(free[n : 2 * n])]
    edge_list = [(c[u] + 1, c[v] + 1) for c in copies for u, v in edges]
    if hub:
        centre = 0 if hub_rank == 0 else free[-1]
        edge_list += [(centre + 1, v + 1) for v in range(size) if v != centre]
    weights = data.draw(
        st.one_of(
            st.lists(st.integers(min_value=0, max_value=2), min_size=size, max_size=size),
            st.integers(min_value=0, max_value=3).map(lambda x: [x] * size),
        )
    )
    return Graph(range(1, size + 1), edge_list), dict(zip(range(1, size + 1), weights))


@pytest.mark.parametrize("n, edges", SHAPES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_a_repeated_shape_answers_as_brute_force_at_any_ranks(n, edges, data):
    # The root splits the two copies apart, or, with the hub, its branch
    # that deletes the hub does, so each copy's table rows also hold a
    # vertex outside it. The hub sits on rank 0: its closed neighbourhood is
    # the whole graph, so it scores at least as high as any vertex on every
    # level and, as ties go to the lowest id, is the first vertex branched
    # on. The second copy is answered from the first's shape entry.
    g, w = draw_two_copies(data, n, edges, hub_rank=0)
    result = solve_pkfree(g, w)
    assert (result.weight, result.witness) == brute_force_mwis(g, w)
    assert result.stats.memo_hits > 0


@pytest.mark.parametrize("n, edges", SHAPES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_a_repeated_shape_with_a_hub_on_any_rank_answers_as_brute_force(n, edges, data):
    # On a higher rank than the copies' vertices, the hub can lose a tie to
    # a copy's vertex, which is then branched on first and breaks that copy,
    # so the memo may not hit; the answer must still be exact.
    g, w = draw_two_copies(data, n, edges, hub_rank="any")
    result = solve_pkfree(g, w)
    assert (result.weight, result.witness) == brute_force_mwis(g, w)


@pytest.mark.parametrize("level", ["off", "fair", "paranoid"])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), tied=st.booleans())
def test_memo_replays_the_full_tree_on_unions_of_every_shape(without_memo, level, seed, tied):
    # Two copies of each shape over shuffled ids, so the copies of a shape
    # often read as different shapes in rank order, and different shapes as
    # one. None holds an induced P5, so k_hint=5 is true and paranoid
    # records the measure trace.
    rng = random.Random(seed)
    ids = list(range(1, 2 * sum(n for n, _ in SHAPES) + 1))
    rng.shuffle(ids)
    edge_list, start = [], 0
    for n, edges in SHAPES * 2:
        edge_list += [(ids[start + u], ids[start + v]) for u, v in edges]
        start += n
    g = Graph(ids, edge_list)
    w = {v: 1 if tied else rng.randint(0, 2) for v in ids}
    assert_memo_replays_the_tree(without_memo, g, w, k_hint=5, assertion_level=level)


@settings(max_examples=3, deadline=None)
@given(
    n=st.integers(min_value=30, max_value=60),
    p=st.sampled_from([0.05, 0.1, 0.2, 0.3]),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(n=60, p=0.05, seed=1)
def test_memo_replays_the_full_tree_on_larger_gnp(without_memo, n, p, seed):
    # Sparse graphs split into many parts of 2 to 4 vertices.
    g, w = generate(GeneratorSpec(kind="random-gnp", size=n, seed=seed, p=p))
    for level in ("off", "fair", "paranoid"):
        assert_memo_replays_the_tree(without_memo, g, w, assertion_level=level)


@pytest.mark.parametrize("n, p, hits, replayed", [(30, 0.3, 172, 829), (60, 0.05, 9837, 220625)])
def test_a_small_part_is_shaped_at_most_once_per_run(
    monkeypatch, without_memo, n, p, hits, replayed
):
    # A split part of 2 to 4 vertices is looked up by its mask before its
    # shape, so _shape runs only on a mask the run has not answered yet. The
    # answer and stats are those of a run without the memo, and the memo
    # counts those of looking every repeat up by its shape.
    g, w = generate(GeneratorSpec(kind="random-gnp", size=n, seed=1, p=p))
    shaped, real = [], pkfree._shape
    monkeypatch.setattr(pkfree, "_shape", lambda adj, mask: shaped.append(mask) or real(adj, mask))
    for level in ("off", "fair", "paranoid"):
        shaped.clear()
        result = solve_pkfree(g, w, assertion_level=level)
        assert shaped and len(set(shaped)) == len(shaped)
        assert all(2 <= mask.bit_count() <= 4 for mask in shaped)
        assert (result.stats.memo_hits, result.stats.memo_calls) == (hits, replayed)
        with without_memo():
            full = solve_pkfree(g, w, assertion_level=level)
        assert (result.weight, result.witness) == (full.weight, full.witness)
        assert result.stats.to_dict() == full.stats.to_dict()


@pytest.mark.parametrize("n, seed", [(20, 1), (40, 2), (60, 3)])
def test_memo_replays_the_full_tree_on_split_graphs(without_memo, n, seed):
    # Split graphs have no induced P5; separators fire on them.
    g, w, _, _ = split_graph(n, seed)
    for level in ("off", "fair", "paranoid"):
        assert_memo_replays_the_tree(without_memo, g, w, k_hint=5, assertion_level=level)


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


@pytest.mark.parametrize(
    "kind, size, k_hint, stats_sha256",
    [
        ("cograph", 1000, 4, "83dfb7695133b04de35e61174eded25dfed3e5a2d847ae084dd3af2e400af86a"),
        ("cograph", 480, 4, "dbe5a4a3f917b81728fe1b35075a40012547eb591fd73c6f78f2f174bb5fea11"),
        ("path", 40, 41, "802a8dbe764f80427a925b7037113760c2aec98a58ec83ba4d5781005a2cf335"),
    ],
)
def test_paranoid_memo_replays_the_measure_trace(kind, size, k_hint, stats_sha256):
    # sha256 of the sorted-key JSON of stats.to_dict(), measure trace
    # included, as a paranoid solver that ran every node computed it (path
    # n=40 is 344,926 calls). Both cographs store subtrees of more than the
    # ring's 4,096 steps, whose memo entries keep only the tail.
    g, w = generate(GeneratorSpec(kind=kind, size=size, seed=1))
    stats = solve_pkfree(g, w, k_hint=k_hint, assertion_level="paranoid").stats
    assert stats.memo_hits > 0
    digest = hashlib.sha256(json.dumps(stats.to_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == stats_sha256


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_paranoid_computes_one_potential_per_call(seed, monkeypatch, without_memo):
    # The edge into a call computes the child's potential; the call reuses it.
    # The edge into a memo hit is computed too, but the hit's replayed
    # memo_calls calls do not run, so with the memo each hit trades them
    # for one computed potential.
    real_measure, counted = pkfree.measure_k, []

    def measure(*args):
        counted.append(args)
        return real_measure(*args)

    monkeypatch.setattr(pkfree, "measure_k", measure)
    g, w = generate(GeneratorSpec(kind="cograph", size=64, seed=seed))
    stats = solve_pkfree(g, w, k_hint=4, assertion_level="paranoid").stats
    assert stats.separators_added and stats.branch_steps and stats.component_recursions
    assert stats.memo_hits > 0
    assert len(counted) == stats.calls - stats.memo_calls + stats.memo_hits
    counted.clear()
    with without_memo():
        full = solve_pkfree(g, w, k_hint=4, assertion_level="paranoid").stats
    assert full.calls == stats.calls
    assert len(counted) == full.calls


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


def _reference_split(g: Graph, n_cap: int) -> list[int] | None:
    parts = component_masks(g.table.adj, g.mask)
    return None if any(c.bit_count() > n_cap // 2 for c in parts) else parts


def test_split_equals_labelling_every_component():
    # The path scheme's split stops at the first part past N/2, but must
    # answer what labelling every component first answers: the components
    # in order, or None exactly when one of them has more than N // 2
    # vertices. N runs from |V(G)| to past 2|V(G)|, so n <= N/2 occurs, and
    # sparse graphs and dropped vertices make disconnected roots.
    rng = random.Random(26)
    scheme, seen = pkfree._PathScheme(1, None), {"split": 0, "none": 0, "disconnected": 0}
    for _ in range(600):
        n = rng.randint(0, 24)
        p = rng.choice([0.03, 0.08, 0.15, 0.3, 0.6])
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
        dropped = set(rng.sample(range(1, n + 1), n // 4))
        g = remove_vertices(Graph(range(1, n + 1), edges), dropped)
        low = max(1, g.n)
        for n_cap in {low, g.n + 1, 2 * g.n, 2 * g.n + 1, rng.randint(low, 3 * g.n + 2)}:
            expected = _reference_split(g, n_cap)
            assert scheme.split(g, n_cap) == expected, (n, edges, g.mask, n_cap)
            seen["none" if expected is None else "split"] += 1
        seen["disconnected"] += len(component_masks(g.table.adj, g.mask)) > 1
    assert min(seen.values()) > 50, seen


@pytest.mark.parametrize("level", ["off", "fair", "paranoid"])
def test_separator_core_runs_once_per_growing_node(level, monkeypatch, without_memo):
    # The core depends on G alone, so an executed node that grows F several
    # times in a row asks for it once. Every growth calls closed_neighborhood
    # on its node's graph; the lists keep every graph alive, so no two nodes
    # share an id(). The memo replays growths, which separators_added
    # counts; it reads 321 on this graph at every level, with the memo
    # (119 executed growing nodes) or without it (301).
    cores, grown = [], []
    real_core, real_closed = pkfree.balanced_separator_core, pkfree.closed_neighborhood

    def core(g, i):
        cores.append(g)
        return real_core(g, i)

    def closed(g, xs):
        grown.append(g)
        return real_closed(g, xs)

    monkeypatch.setattr(pkfree, "balanced_separator_core", core)
    monkeypatch.setattr(pkfree, "closed_neighborhood", closed)
    g, w = generate(GeneratorSpec(kind="random-gnp", size=30, seed=1, p=0.3))
    for context, nodes, growths in ((nullcontext, 119, 139), (without_memo, 301, 321)):
        cores.clear()
        grown.clear()
        with context():
            stats = solve_pkfree(g, w, assertion_level=level).stats
        assert stats.separators_added == 321
        assert [id(h) for h in cores] == list(dict.fromkeys(id(h) for h in grown))
        assert (len(cores), len(grown)) == (nodes, growths)


def _trace_digest(trace) -> str:
    return hashlib.sha256(json.dumps(trace).encode()).hexdigest()[:16]


E6_TRACE = [["component-recurse", 207360, 0]] * 6


@pytest.mark.parametrize(
    "graph, k_hint, calls, max_depth, trace_len, trace_digest",
    [
        (Graph(range(1, 7), []), 2, 7, 2, 6, _trace_digest(E6_TRACE)),
        (path_graph(9), 10, 52, 7, 51, "2bb470df4ec914ec"),
    ],
    ids=["edgeless-6", "path-9"],
)
@pytest.mark.parametrize("level", ["off", "fair", "paranoid"])
def test_one_vertex_parts_keep_the_counts(
    graph, k_hint, calls, max_depth, trace_len, trace_digest, level
):
    # A split's one-vertex parts are answered in the split step; each still
    # counts as a call at its own depth, is checked at "fair" and "paranoid"
    # and has its component edge audited at "paranoid" (with a true k_hint).
    # The figures are those of the solver that ran every part as its own node.
    w = {v: v for v in graph.vertex_ids()}
    k_hint = k_hint if level == "paranoid" else None
    stats = solve_pkfree(graph, w, k_hint=k_hint, assertion_level=level).stats.to_dict()
    assert (stats["calls"], stats["max_depth"]) == (calls, max_depth)
    assert stats["assertions_checked"] == (0 if level == "off" else calls)
    trace = stats["measure_trace_tail"]
    if level == "paranoid":
        assert (len(trace), _trace_digest(trace)) == (trace_len, trace_digest)
    else:
        assert trace == []


def _stats_runs(level: str) -> list:
    """(graph, result) of solve_pkfree on the golden corpus, with its path
    claim at "paranoid", and on G(60, 0.05), and of solve_hfree under P4+K3
    on the golden G(28, 0.3) graphs."""
    runs = []
    for spec, *_, k in GOLDEN:
        g, w = generate(spec)
        runs.append((g, solve_pkfree(g, w, k if level == "paranoid" else None, level)))
    g, w = generate(GeneratorSpec(kind="random-gnp", size=60, seed=1, p=0.05))
    runs.append((g, solve_pkfree(g, w, assertion_level=level)))
    for spec, *_ in GOLDEN_HFREE:
        g, w = generate(spec)
        oracles = [make_pk_oracle(4), make_bruteforce_oracle()]
        runs.append((g, solve_hfree(P4_K3, g, w, oracles, assertion_level=level)))
    return runs


@pytest.mark.parametrize("level", ["off", "fair", "paranoid"])
def test_the_per_call_check_writes_only_calls(level, monkeypatch):
    # Each statistic is set where its value changes, so the check that every
    # executed call passes through writes one counter and folds no levels.
    # inside holds, while a check runs, where its writes start in writes.
    writes, inside, checks = [], [], []

    class LoggedStats(RunStats):
        def __setattr__(self, name, value):
            if inside:
                writes.append(name)
            super().__setattr__(name, value)

        def record_levels(self, sizes):
            if inside:
                writes.append("max_level_occupancy")
            super().record_levels(sizes)

    real = pkfree._check_call

    def check(*args):
        inside.append(len(writes))
        try:
            return real(*args)
        finally:
            checks.append(writes[inside.pop():])

    monkeypatch.setattr(pkfree, "RunStats", LoggedStats)
    monkeypatch.setattr(pkfree, "_check_call", check)
    runs = _stats_runs(level)
    assert all(isinstance(result.stats, LoggedStats) for _, result in runs)
    assert checks and all(written == ["calls"] for written in checks)


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "no-memo"])
@pytest.mark.parametrize("level", ["off", "fair", "paranoid"])
def test_each_maximum_equals_a_fold_over_the_calls(level, memo, monkeypatch, without_memo):
    # max_graph_size comes from the root, max_family_size from the root
    # family and each growth, and at "paranoid" max_level_occupancy from the
    # root family and each grown family. Each equals the fold of n, |F| and
    # the level sizes over every executed call; a memo hit's subtree ran, and
    # was folded, at its first occurrence.
    folds, real = {}, pkfree._check_call

    def check(g, n, n_cap, log_n, family, scheme, mu=None):
        fold = folds.setdefault(scheme.stats, [0, 0, {}])
        fold[0], fold[1] = max(fold[0], n), max(fold[1], len(family))
        if scheme.level >= 2:
            for i, size in enumerate(family.level_sizes(), 1):
                fold[2][i] = max(fold[2].get(i, 0), size)
        return real(g, n, n_cap, log_n, family, scheme, mu)

    monkeypatch.setattr(pkfree, "_check_call", check)
    with nullcontext() if memo else without_memo():
        runs = _stats_runs(level)
    assert any(result.stats.memo_hits for _, result in runs) is memo
    for g, result in runs:
        s = result.stats
        assert [s.max_graph_size, s.max_family_size, s.max_level_occupancy] == folds[s]
        assert s.max_graph_size == g.n
        assert s.assertions_checked == (0 if level == "off" else s.calls)
