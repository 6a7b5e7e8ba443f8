"""Faults injected into the solvers must end in the audit rule that names them.

Each path-solver fault is a monkeypatch on qmwis.pkfree, run on generated
cographs of 96 vertices (as `qmwis generate cograph --size 96` draws them)
with the true claim k_hint=4: cographs are P4-free, so every audit passes on the
honest solver and a violation can only come from the fault. An audit that
passes on a faulty solver proves nothing, so these tests pin which rule
catches which fault, and that a legal variant of a rule is not flagged.
Every run is made twice, with the run's memo and with one that never hits:
a repeated split child's subtree reads only its own mask, so both runs
must break the same rule with the same partial stats, or pass with the
same weight and stats. The faults that keep the recursion's shape but not
its answer run on instances brute force can check: G(20, 0.3) graphs,
which hold induced P4s and so run with no claim, and cographs of 24
vertices with k_hint=4.

A false claim is a fault of the input, not of the solver: at "paranoid"
the root of solve_pkfree refutes k_hint 1, 2 and 3 on a graph that holds
a vertex, an edge or an induced P3, and a larger k_hint when a separator
core holds an induced P_k (rule path-claim).

The pattern solver's fault, at the end, hands an oracle a graph that holds
the oracle's own component (rule oracle-validity).
"""

import itertools
import random
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace

import pytest

import qmwis.hfree as hfree
import qmwis.pkfree as pkfree
import qmwis.separators as separators
from qmwis import (
    RULE_BRANCH_DELETE,
    RULE_BRANCH_TAKE,
    GeneratorSpec,
    Graph,
    InvariantViolation,
    VertexMultiFamily,
    brute_force_mwis,
    find_induced_copy,
    generate,
    solve_pkfree,
)
from qmwis.graph import component_masks

from test_past_the_cap import split_graph, split_optimum

SEEDS = range(1, 7)


def cograph(seed: int):
    return generate(GeneratorSpec(kind="cograph", size=96, seed=seed))


@pytest.fixture(scope="module")
def honest():
    """The fair solver's weight per seed, solved before any fault is patched in."""
    return {seed: solve_pkfree(*cograph(seed), k_hint=4).weight for seed in SEEDS}


def run(seed: int, level: str, context=nullcontext, instance=cograph, k=4):
    """(the rule the run breaks or None, its weight or None, its stats): the
    run solve_pkfree makes on instance(seed) with k_hint=k, inside
    context()."""
    g, w = instance(seed)
    with context():
        scheme = pkfree._PathScheme(pkfree._parse_level(level), k)
        try:
            return None, pkfree._run(scheme, g, w).weight, scheme.stats
        except InvariantViolation as err:
            return err.rule, None, scheme.stats


def rule_of(seed: int, level: str, honest: dict[int, int], without_memo) -> str | None:
    """The rule the run breaks, or None when it passes with the honest weight."""
    rule, weight, stats = run(seed, level)
    full_rule, full_weight, full_stats = run(seed, level, without_memo)
    assert full_stats.memo_hits == 0
    assert (rule, weight, stats.to_dict()) == (full_rule, full_weight, full_stats.to_dict())
    if rule is None:
        assert weight == honest[seed]
        assert stats.memo_hits > 0
    return rule


def one_vertex_core(g, i):
    return g.mask & -g.mask


def half_balanced_core(g, i, real=pkfree.balanced_separator_core):
    return real(g, 1)


@pytest.mark.parametrize("core", [one_vertex_core, half_balanced_core], ids=["one-vertex", "i=1"])
@pytest.mark.parametrize("seed", SEEDS)
def test_an_unbalanced_separator_breaks_separator_balance(
    core, seed, monkeypatch, honest, without_memo
):
    # The path scheme grows F by N[X] for X = balanced_separator_core(G, 2),
    # an N/4-balanced separator; one vertex, or the N/2-balanced core of
    # i = 1, is not, and the paranoid member check sees it.
    monkeypatch.setattr(pkfree, "balanced_separator_core", core)
    assert rule_of(seed, "paranoid", honest, without_memo) == "separator-balance"


@pytest.mark.parametrize("seed, hits", [(2, 68), (3, 16)])
def test_a_fault_after_memo_hits_keeps_the_partial_stats(seed, hits, monkeypatch):
    # With the i = 1 core, these seeds raise only after the memo has answered
    # repeated split children, so the partial stats that rule_of compares
    # include replayed counts and measure steps.
    monkeypatch.setattr(pkfree, "balanced_separator_core", half_balanced_core)
    rule, _, stats = run(seed, "paranoid")
    assert (rule, stats.memo_hits) == ("separator-balance", hits)
    assert stats.memo_calls > hits and stats.to_dict()["measure_trace_tail"]


@pytest.mark.parametrize("level", ["fair", "paranoid"])
def test_a_raise_in_nested_stored_subtrees_keeps_the_run_depth(level, monkeypatch, without_memo):
    # On seed 2 the last graph but one whose separator core the run computes
    # lies in a split child of depth 16 nested in one of depth 11, both still
    # being stored. A fault there raises after 106 memo hits; the run's
    # deepest node, at depth 75, ran before the inner child started. The
    # partial stats keep that depth, as the memo-free run's do.
    real, cores = pkfree.balanced_separator_core, []
    monkeypatch.setattr(
        pkfree, "balanced_separator_core", lambda g, i: cores.append(g.mask) or real(g, i)
    )
    honest = run(2, level)[2]
    stores, open_at_fault = Counter(), []

    class CountingMemo(dict):
        # Only split parts touch the path scheme's memo: a get by mask that
        # misses opens a store marker or finds the part's shape, and the set
        # under the mask, by the store or the shape hit, closes it.
        def get(self, key, default=None):
            hit = super().get(key, default)
            stores["open"] += hit is None and isinstance(key, int)
            return hit

        def __setitem__(self, key, value):
            stores["open"] -= isinstance(key, int)
            super().__setitem__(key, value)

    def planted(g, i):
        if g.mask == cores[-2]:
            open_at_fault.append(stores["open"])
            raise InvariantViolation("planted", "a fault in the last separator core but one")
        return real(g, i)

    monkeypatch.setattr(pkfree, "balanced_separator_core", planted)
    monkeypatch.setattr(pkfree, "_new_memo", CountingMemo)
    rule, _, stats = run(2, level)
    assert (rule, open_at_fault) == ("planted", [2])
    full_rule, _, full = run(2, level, without_memo)
    assert (full_rule, stats.memo_hits) == ("planted", 106)
    assert stats.calls < honest.calls
    assert stats.max_depth == full.max_depth == honest.max_depth == 75
    assert stats.to_dict() == full.to_dict()


@pytest.mark.parametrize("level", ["fair", "paranoid"])
@pytest.mark.parametrize("seed", SEEDS)
def test_no_split_breaks_add_separator(level, seed, monkeypatch, honest, without_memo):
    # Without the component split a disconnected graph reaches the separator
    # rule, whose core is then empty.
    monkeypatch.setattr(pkfree._PathScheme, "split", lambda self, g, n_cap: None)
    assert rule_of(seed, level, honest, without_memo) == "add-separator"


@pytest.mark.parametrize("level, rule", [("fair", "level-emptiness"), ("paranoid", "level-growth")])
@pytest.mark.parametrize("seed", SEEDS)
def test_never_branching_breaks_the_level_bounds(
    level, rule, seed, monkeypatch, honest, without_memo
):
    # F keeps growing without a branch, so the levels climb past log(N):
    # "fair" sees a non-empty L(F, log(N) + 1), "paranoid" already sees a
    # level grow by more than one separator neighborhood can add.
    monkeypatch.setattr(pkfree, "find_branchable", lambda g, family, n_cap: None)
    assert rule_of(seed, level, honest, without_memo) == rule


def lowest_on_level_one(g, family, n_cap):
    live = family.level_masks[0] & g.mask if family.level_masks else 0
    return g.table.ids[(live & -live).bit_length() - 1] if live else None


@pytest.mark.parametrize("level, rule", [("fair", None), ("paranoid", "branch-threshold")])
@pytest.mark.parametrize("seed", SEEDS)
def test_branching_below_the_threshold_breaks_branch_threshold(
    level, rule, seed, monkeypatch, honest, without_memo
):
    # Branching on the lowest vertex of L(F, 1), whatever it covers, keeps
    # the answer exact, so only the paranoid check of rule 2 sees it.
    monkeypatch.setattr(pkfree, "find_branchable", lowest_on_level_one)
    assert rule_of(seed, level, honest, without_memo) == rule


@pytest.mark.parametrize("level", ["fair", "paranoid"])
def test_an_eager_split_passes(level, monkeypatch, honest, without_memo):
    # Splitting every disconnected graph, even when a component passes N/2,
    # is a legal rule: each part restarts with N = |C| and F empty, and the
    # audit must not flag it. On some seeds no such graph arises, so the
    # seeds run together and the eager rule must fire on at least one.
    honest_split, eager_only = pkfree._PathScheme.split, []

    def eager(self, g, n_cap):
        components = component_masks(g.table.adj, g.mask)
        if len(components) == 1:
            return honest_split(self, g, n_cap)
        if max(c.bit_count() for c in components) > n_cap // 2:
            eager_only.append(g)
        return components

    monkeypatch.setattr(pkfree._PathScheme, "split", eager)
    for seed in SEEDS:
        assert rule_of(seed, level, honest, without_memo) is None
    assert eager_only


def gnp20(seed: int):
    return generate(GeneratorSpec(kind="random-gnp", size=20, seed=seed, p=0.3))


def cograph24(seed: int):
    return generate(GeneratorSpec(kind="cograph", size=24, seed=seed))


SMALL = pytest.mark.parametrize(
    "instance, k", [(gnp20, None), (cograph24, 4)], ids=["gnp-20", "cograph-24"]
)


def small_rule(instance, k: int | None, seed: int, level: str, without_memo) -> str | None:
    """The rule the run on instance(seed) breaks, or None when it returns
    brute force's weight; the run without the memo must agree."""
    rule, weight, stats = run(seed, level, instance=instance, k=k)
    full_rule, full_weight, full_stats = run(seed, level, without_memo, instance, k)
    assert (rule, weight, stats.to_dict()) == (full_rule, full_weight, full_stats.to_dict())
    if rule is None:
        assert weight == brute_force_mwis(*instance(seed))[0]
    return rule


@pytest.mark.parametrize(
    "level, rule", [("off", None), ("fair", None), ("paranoid", "separator-balance")]
)
@SMALL
@pytest.mark.parametrize("seed", range(1, 5))
def test_growing_f_by_the_core_alone_breaks_separator_balance(
    level, rule, instance, k, seed, monkeypatch, without_memo
):
    # F must grow by N[X], the closed neighborhood of the core X. A member
    # of X alone keeps the answer exact, and only the paranoid member check
    # sees that it does not separate G.
    monkeypatch.setattr(pkfree, "closed_neighborhood", lambda g, xs: xs)
    assert small_rule(instance, k, seed, level, without_memo) == rule


def take_child_keeps_neighbours(monkeypatch):
    """Plant a take child that drops only v from G and F, as the delete child does.

    drive gets v from find_branchable, builds each child with
    remove_vertices and F.subtract, and audits the delete edge just before
    the take edge, whose child now has the delete child's size.
    """
    real_find, real_remove = pkfree.find_branchable, pkfree.remove_vertices
    real_subtract, real_edge = VertexMultiFamily.subtract, pkfree._check_edge
    last = {}

    def find(g, family, n_cap):
        v = real_find(g, family, n_cap)
        if v is not None:
            last["bit"] = 1 << g.table.rank[v]
        return v

    def edge(parent_mu, n, n_cap, family, rule, scheme):
        if rule == RULE_BRANCH_DELETE:
            last["n"] = n
        elif rule == RULE_BRANCH_TAKE:
            n = last["n"]
        return real_edge(parent_mu, n, n_cap, family, rule, scheme)

    monkeypatch.setattr(pkfree, "find_branchable", find)
    monkeypatch.setattr(pkfree, "remove_vertices", lambda g, xs: real_remove(g, last["bit"]))
    monkeypatch.setattr(VertexMultiFamily, "subtract", lambda f, xs: real_subtract(f, last["bit"]))
    monkeypatch.setattr(pkfree, "_check_edge", edge)


@pytest.mark.parametrize("level", ["off", "fair", "paranoid"])
@SMALL
@pytest.mark.parametrize("seed", range(1, 5))
def test_a_take_child_keeping_n_v_breaks_only_the_witness(
    level, instance, k, seed, monkeypatch, without_memo
):
    # The take child must drop N[v]. One that drops only v lets the answer
    # hold v beside a neighbour. At every level only the witness check sees
    # it: at "paranoid" under k_hint=4 the take edge's potential still
    # decreases enough, so rule branch-take does not fire.
    take_child_keeps_neighbours(monkeypatch)
    assert small_rule(instance, k, seed, level, without_memo) == "witness"


def gnp30():
    return generate(GeneratorSpec(kind="random-gnp", size=30, seed=1, p=0.3))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_false_small_path_claim_breaks_path_claim(k):
    # G(30, 0.3) has vertices, edges and an induced P3, so k_hint 1, 2 and 3
    # are all false; the paranoid root check refutes each before the run.
    g, w = gnp30()
    with pytest.raises(InvariantViolation) as info:
        solve_pkfree(g, w, k_hint=k, assertion_level="paranoid")
    assert info.value.rule == "path-claim"
    assert info.value.details["k"] == k
    # Below "paranoid" the claim is not checked against the graph.
    assert solve_pkfree(g, w, k_hint=3).weight == solve_pkfree(g, w).weight


@pytest.mark.parametrize(
    "k, n, edges",
    [
        (1, 0, []),
        (2, 0, []),
        (2, 6, []),
        (3, 0, []),
        (3, 6, []),
        (3, 10, [(1, 2), (1, 3), (2, 3), (4, 5), (6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9)]),
    ],
    ids=["k1-empty", "k2-empty", "k2-edgeless", "k3-empty", "k3-edgeless", "k3-cliques"],
)
def test_a_true_small_path_claim_passes(k, n, edges):
    g = Graph(range(1, n + 1), edges)
    w = {v: v for v in g.vertex_ids()}
    paranoid = solve_pkfree(g, w, k_hint=k, assertion_level="paranoid")
    fair = solve_pkfree(g, w, k_hint=k)
    assert (paranoid.weight, paranoid.witness) == (fair.weight, fair.witness)


def on_induced_paths(g, k):
    """The vertices that lie on some induced P_k of g, by brute force."""
    pairs = list(itertools.combinations(range(k), 2))
    return {
        v
        for seq in itertools.permutations(g.vertex_ids(), k)
        if all(g.has_edge(seq[i], seq[j]) == (j == i + 1) for i, j in pairs)
        for v in seq
    }


def small_graphs():
    """Named shapes, then random graphs of up to 8 vertices with scattered ids."""
    rng = random.Random(3)
    yield Graph([], [])
    yield Graph(range(1, 7), [])
    cliques = [(1, 2), (1, 3), (2, 3), (4, 5), *itertools.combinations(range(6, 10), 2)]
    yield Graph(range(1, 10), cliques)
    yield Graph(range(1, 8), [(1, v) for v in range(2, 8)])
    yield Graph(range(1, 7), [(v, v + 1) for v in range(1, 6)])
    for _ in range(80):
        ids = rng.sample(range(50), rng.randint(0, 8))
        p = rng.choice([0.1, 0.3, 0.5, 0.8])
        yield Graph(ids, [(u, v) for u, v in itertools.combinations(ids, 2) if rng.random() < p])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_small_path_claim_check_agrees_with_brute_force(k):
    # The paranoid root refutes k_hint = k exactly when g holds an induced
    # P_k, and names a vertex on one.
    refuted = 0
    for g in small_graphs():
        w = {v: v % 5 + 1 for v in g.vertex_ids()}
        witnesses = on_induced_paths(g, k)
        if not witnesses:
            assert solve_pkfree(g, w, k_hint=k, assertion_level="paranoid").weight == (
                solve_pkfree(g, w).weight
            )
            continue
        with pytest.raises(InvariantViolation) as info:
            solve_pkfree(g, w, k_hint=k, assertion_level="paranoid")
        v = info.value.details["vertex"]
        assert info.value.rule == "path-claim"
        assert info.value.details == {"k": k, "vertex": v}
        message = f"k_hint = {k} claims no induced P_{k}, but vertex {v} is on one"
        assert str(info.value) == f"path-claim: {message}"
        assert v in witnesses
        refuted += 1
    assert 0 < refuted < 85


@pytest.mark.parametrize("k", [4, 5])
def test_claims_from_k_4_are_not_checked_at_the_root(k, monkeypatch):
    # A cograph holds induced P3s but no P4, so k_hint 4 and 5 are true; the
    # root check must neither refute them nor run for them.
    checked = []
    monkeypatch.setattr(pkfree, "_induced_path", lambda g, k: checked.append(k))
    g, w = cograph(1)
    paranoid = solve_pkfree(g, w, k_hint=k, assertion_level="paranoid")
    assert paranoid.weight == solve_pkfree(g, w).weight
    assert paranoid.stats.memo_hits > 0
    assert checked == []


@pytest.mark.parametrize("k", [4, 5, 6])
def test_a_separator_core_refutes_only_a_false_claim(k):
    # From k = 4, a paranoid run searches every new separator core X of at
    # least k vertices for an induced P_k. G[X] is an induced subgraph of G,
    # so each raise must name a vertex that brute force puts on an induced
    # P_k of G, and a true claim never raises.
    rng = random.Random(k)
    refuted = 0
    for _ in range(100):
        n = rng.randint(10, 12)
        p = rng.choice([0.15, 0.25, 0.4])
        ids = range(1, n + 1)
        g = Graph(ids, [e for e in itertools.combinations(ids, 2) if rng.random() < p])
        w = {v: rng.randint(1, 9) for v in g.vertex_ids()}
        try:
            result = solve_pkfree(g, w, k_hint=k, assertion_level="paranoid")
        except InvariantViolation as err:
            v = err.details["vertex"]
            assert err.rule == "path-claim"
            assert err.details == {"k": k, "vertex": v}
            message = f"k_hint = {k} claims no induced P_{k}, but vertex {v} is on one"
            assert str(err) == f"path-claim: {message}"
            assert v in on_induced_paths(g, k)
            refuted += 1
        else:
            assert result.weight == solve_pkfree(g, w).weight
    assert refuted > 0


def test_true_claims_pass_the_separator_core_search(monkeypatch):
    # Cographs hold no induced P4 and split graphs no induced P5. The
    # cographs' cores of 4 vertices are searched at k = 4; every core of
    # these split graphs has 1 vertex, so there nothing is searched.
    searched = []

    def search(g, k, real=separators._induced_path):
        searched.append(k)
        return real(g, k)

    monkeypatch.setattr(separators, "_induced_path", search)
    for seed in SEEDS:
        g, w = cograph(seed)
        paranoid = solve_pkfree(g, w, k_hint=4, assertion_level="paranoid")
        assert paranoid.weight == solve_pkfree(g, w).weight
    assert searched and set(searched) == {4}
    searched.clear()
    for n in (20, 60, 100, 200):
        g, w, clique, independent = split_graph(n, n)
        paranoid = solve_pkfree(g, w, k_hint=5, assertion_level="paranoid")
        assert paranoid.weight == split_optimum(g, w, clique, independent)
    assert searched == []


P4_K3 = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])


def test_a_pattern_leaf_holding_its_component_breaks_oracle_validity(monkeypatch, without_memo):
    # The pattern scheme hands a graph to oracle i only when it holds no
    # induced copy of H_i. An anchor that skips the P4 copies of graphs of
    # at most 6 vertices hands the P4 oracle leaves that hold one, and on
    # this graph such a leaf repeats. The paranoid validity search runs on
    # each leaf's first occurrence, so with and without the memo the run
    # breaks the same rule with the same partial stats.
    honest_anchor = hfree._PatternScheme.anchor

    def skipping(self, g, family):
        if len(family) % self.c == 0 and g.n <= 6:
            return None
        return honest_anchor(self, g, family)

    monkeypatch.setattr(hfree._PatternScheme, "anchor", skipping)
    g, w = generate(GeneratorSpec(kind="random-gnp", size=28, seed=3, p=0.3))
    pattern = hfree.PatternGraph.from_graph(P4_K3)

    def run(level: str, context=nullcontext):
        """(the rule the run breaks or None, its stats, the P4 oracle's leaves)."""
        invoked: list[Graph] = []

        def pk(leaf, weights, real=hfree.make_pk_oracle(4).solve_with_witness):
            invoked.append(leaf)
            return real(leaf, weights)

        pk_oracle = replace(hfree.make_pk_oracle(4), solve_with_witness=pk)
        oracles = pk_oracle, hfree.make_bruteforce_oracle()
        with context():
            scheme = hfree._PatternScheme(pkfree._parse_level(level), pattern, oracles, False)
            try:
                assert pkfree._run(scheme, g, w).weight == solve_pkfree(g, w).weight
                return None, scheme.stats, invoked
            except InvariantViolation as err:
                return err.rule, scheme.stats, invoked

    rule, _, invoked = run("fair", without_memo)
    holding = Counter(leaf.mask for leaf in invoked if find_induced_copy(leaf, pattern.components[0]))
    assert rule is None and max(holding.values()) > 1
    rule, stats, invoked = run("paranoid")
    full_rule, full_stats, _ = run("paranoid", without_memo)
    assert rule == full_rule == "oracle-validity"
    assert stats.to_dict() == full_stats.to_dict()
    # Leaves that repeated before the fault were answered from the memo; the
    # faulty leaf is refused before it is counted.
    assert stats.oracle_calls_by_index == {0: 45, 1: 89}
    assert len(invoked) == 4
