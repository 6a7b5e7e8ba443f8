"""Faults injected into the path solver must end in the audit rule that names them.

Each fault is a monkeypatch on qmwis.pkfree, run on generated cographs of
96 vertices (as `qmwis generate cograph --size 96` draws them) with the
true claim k_hint=4: cographs are P4-free, so every audit passes on the
honest solver and a violation can only come from the fault. An audit that
passes on a faulty solver proves nothing, so these tests pin which rule
catches which fault, and that a legal variant of a rule is not flagged.
"""

import pytest

import qmwis.pkfree as pkfree
from qmwis import GeneratorSpec, InvariantViolation, generate, solve_pkfree
from qmwis.graph import component_masks

SEEDS = range(1, 7)


def cograph(seed: int):
    return generate(GeneratorSpec(kind="cograph", size=96, seed=seed))


@pytest.fixture(scope="module")
def honest():
    """The fair solver's weight per seed, solved before any fault is patched in."""
    return {seed: solve_pkfree(*cograph(seed), k_hint=4).weight for seed in SEEDS}


def rule_of(seed: int, level: str, honest: dict[int, int]) -> str | None:
    """The rule the run breaks, or None when it passes with the honest weight."""
    g, w = cograph(seed)
    try:
        result = solve_pkfree(g, w, k_hint=4, assertion_level=level)
    except InvariantViolation as err:
        return err.rule
    assert result.weight == honest[seed]
    return None


def one_vertex_core(g, i):
    return g.mask & -g.mask


def half_balanced_core(g, i, real=pkfree.balanced_separator_core):
    return real(g, 1)


@pytest.mark.parametrize("core", [one_vertex_core, half_balanced_core], ids=["one-vertex", "i=1"])
@pytest.mark.parametrize("seed", SEEDS)
def test_an_unbalanced_separator_breaks_separator_balance(core, seed, monkeypatch, honest):
    # The path scheme grows F by N[X] for X = balanced_separator_core(G, 2),
    # an N/4-balanced separator; one vertex, or the N/2-balanced core of
    # i = 1, is not, and the paranoid member check sees it.
    monkeypatch.setattr(pkfree, "balanced_separator_core", core)
    assert rule_of(seed, "paranoid", honest) == "separator-balance"


@pytest.mark.parametrize("level", ["fair", "paranoid"])
@pytest.mark.parametrize("seed", SEEDS)
def test_no_split_breaks_add_separator(level, seed, monkeypatch, honest):
    # Without the component split a disconnected graph reaches the separator
    # rule, whose core is then empty.
    monkeypatch.setattr(pkfree._PathScheme, "split", lambda self, g, n_cap: None)
    assert rule_of(seed, level, honest) == "add-separator"


@pytest.mark.parametrize("level, rule", [("fair", "level-emptiness"), ("paranoid", "level-growth")])
@pytest.mark.parametrize("seed", SEEDS)
def test_never_branching_breaks_the_level_bounds(level, rule, seed, monkeypatch, honest):
    # F keeps growing without a branch, so the levels climb past log(N):
    # "fair" sees a non-empty L(F, log(N) + 1), "paranoid" already sees a
    # level grow by more than one separator neighborhood can add.
    monkeypatch.setattr(pkfree, "find_branchable", lambda g, family, n_cap: None)
    assert rule_of(seed, level, honest) == rule


@pytest.mark.parametrize("level", ["fair", "paranoid"])
def test_an_eager_split_passes(level, monkeypatch, honest):
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
        assert rule_of(seed, level, honest) is None
    assert eager_only
