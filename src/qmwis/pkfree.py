"""Exact maximum-weight independent set by separator-guided branching.

Both solvers run one recursion on instances (G, w, N, F): N is the vertex
budget fixed when the current recursion root was entered and F a
multi-family of vertex sets accumulated since. A call applies the first of
these rules that fits:

  1. the scheme's split: components to solve apart;
  2. a branchable vertex v exists: best of solving without v and solving
     without N[v] plus w(v);
  3. the scheme finds a vertex set X: grow F by N[X] and retry (level sets
     grow until rule 2 can fire);
  4. otherwise: the scheme's leaf answer.

The shared core owns the per-call audit, the branch rule and the F-growth
loop with its chain, level-growth and per-edge potential checks; a scheme
supplies only what differs. The path scheme here (solve_pkfree) answers
graphs of at most one vertex in _call, without a generator frame, splits a
graph whose components all have at most N/2 vertices (each with N reset to
its size and F to empty), and grows F by the closed neighborhood of a
balanced separator core, so rule 4 never fires. The pattern scheme lives in
hfree.py.

Every run starts in _run, which builds the root, drives the recursion and
verifies the witness at every assertion level. Input is validated once,
before that, by the public entry: alg1_call or solve_hfree.

Correctness never depends on the input being path-free; the quasi-polynomial
call bound does. The optional k_hint enables the k-dependent audit bounds
and never influences the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Generator

from ._engine import Expand, drive
from .graph import (
    Graph,
    WeightMap,
    closed_neighborhood,
    component_masks,
    induced_subgraph,
    is_independent_set,
    remove_vertices,
    total_weight,
    validate_weights,
)
from .instrumentation import (
    RULE_ADD_SEPARATOR,
    RULE_BRANCH_DELETE,
    RULE_BRANCH_TAKE,
    RULE_COMPONENT,
    InvariantViolation,
    RunStats,
    assert_recurrence_step,
    check_level_growth,
    check_level_sizes,
    max_measure_k,
    measure_k,
)
from .levels import VertexMultiFamily, ceil_log2, find_branchable
from .separators import balanced_separator_core, verify_balanced

_LEVELS = {"off": 0, "fair": 1, "paranoid": 2}


class Instance:
    """One recursion node: graph, weights, vertex budget N, family F.

    The recursion makes one per call and treats it as immutable; a plain
    slotted class keeps that cheap. alg1_call validates one from outside.
    """

    __slots__ = ("graph", "weights", "capacity_n", "family")

    def __init__(
        self, graph: Graph, weights: WeightMap, capacity_n: int, family: VertexMultiFamily
    ):
        self.graph, self.weights, self.capacity_n, self.family = graph, weights, capacity_n, family


@dataclass(frozen=True, eq=False)
class SolveResult:
    weight: int
    witness: frozenset[int]
    stats: RunStats


def _parse_level(assertion_level: str) -> int:
    try:
        return _LEVELS[assertion_level]
    except KeyError:
        raise ValueError(
            f"assertion level must be one of {sorted(_LEVELS)}, got {assertion_level!r}"
        ) from None


class Scheme:
    """What one solver supplies to the shared recursion, and the run's state.

    A scheme holds the assertion level and the run's stats, and names the
    member F grows by (noun), the rules of growth edges and of the chain
    audit, the recurrence parameters (params) and the least N at which the
    emptiness, family and chain bounds are audited (audit_from_n). Hooks:

      split(g, N)          component masks to solve apart, or None; asked
                           once per graph, as growing F cannot change it;
      anchor(g, F)         the mask of X whose N[X] grows F, or None;
      record_growth()      count one growth of F in stats;
      leaf(g, w, F)        the answer when anchor finds nothing;
      family_excess(s, L)  (message, bound) if |F| = s breaks its bound at
                           log(N) = L;
      check_members(g, F, N)  paranoid checks of F's members;
      level_bound(N)       (bound, label, details) of the level-size and
                           level-growth audits, or None when unclaimed;
      potential(n, N, F)   the integer potential, or None when unclaimed;
      ceiling(N)           the potential's proven ceiling.
    """

    level: int
    stats: RunStats
    audit_from_n = 1

    def split(self, g: Graph, n_cap: int) -> list[int] | None:
        return None

    def check_members(self, g: Graph, family: VertexMultiFamily, n_cap: int) -> None:
        return None


def _check_call(
    g: Graph, n: int, n_cap: int, log_n: int, family: VertexMultiFamily, scheme: Scheme
) -> int | None:
    """Per-call checks on g, n = |V(g)|, log_n = ceil(log2 N); the potential when measurable."""
    stats, size = scheme.stats, len(family.masks)
    stats.on_call(n, size)
    if scheme.level < 1:
        return None

    if n > n_cap:
        raise InvariantViolation(
            "fair-shape", f"|V(G)| = {n} exceeds N = {n_cap}", {"n": n, "N": n_cap}
        )
    # Level emptiness rests on a pigeonhole over level log(N). The pattern
    # scheme audits it and the family and chain bounds only from N = 2: at
    # N = 1 a lone-vertex component legitimately adds a member to level 1.
    if n_cap >= scheme.audit_from_n:
        if len(family.level_masks) > log_n:
            raise InvariantViolation(
                "level-emptiness",
                f"L(F, {log_n + 1}) is non-empty with N = {n_cap}",
                {"level": log_n + 1, "occupancy": family.level_sizes()[log_n]},
            )
        excess = scheme.family_excess(size, log_n)
        if excess is not None:
            message, bound = excess
            raise InvariantViolation(
                "family-size", message, {"family_size": size, "bound": bound}
            )
    stats.assertions_checked += 1
    if scheme.level < 2:
        return None

    stats.record_levels(family)
    scheme.check_members(g, family, n_cap)
    bound = scheme.level_bound(n_cap)
    if bound is not None:
        check_level_sizes(family, bound[0], bound[1])
    mu = scheme.potential(n, n_cap, family)
    if mu is None:
        return None
    ceiling = scheme.ceiling(n_cap)
    if not 0 <= mu <= ceiling:
        raise InvariantViolation(
            "measure-bounds",
            f"potential {mu} outside [0, {ceiling}]",
            {"measure": mu, "ceiling": ceiling},
        )
    return mu


def _check_edge(parent_mu: int | None, child: Instance, rule: str, scheme: Scheme) -> None:
    # A parent potential exists only at "paranoid" with a claimed bound.
    if parent_mu is None:
        return
    child_mu = scheme.potential(child.graph.n, child.capacity_n, child.family)
    assert_recurrence_step(parent_mu, child_mu, rule, scheme.params)
    scheme.stats.record_measure(rule, parent_mu, child_mu)


def _expand(
    inst: Instance, scheme: Scheme
) -> Generator[list[Instance], list[tuple[int, frozenset[int]]], tuple[int, frozenset[int]]]:
    """The shared recursion on one instance, as a generator for drive()."""
    g, w, n_cap, family = inst.graph, inst.weights, inst.capacity_n, inst.family
    n = g.n
    log_n = ceil_log2(n_cap)
    stats = scheme.stats

    # Consecutive growths of F keep the same graph, so they run as a loop
    # in this frame rather than growing the stack. Every iteration is one
    # call of the recursion and is counted and checked as such; only the
    # first asks for the split, which depends on G and N alone.
    adds_in_a_row = 0
    while True:
        parent_mu = _check_call(g, n, n_cap, log_n, family, scheme)

        if not adds_in_a_row and (split := scheme.split(g, n_cap)) is not None:
            stats.component_recursions += 1
            empty = VertexMultiFamily(table=g.table)
            children = []
            for comp in split:
                child = Instance(induced_subgraph(g, comp), w, comp.bit_count(), empty)
                _check_edge(parent_mu, child, RULE_COMPONENT, scheme)
                children.append(child)
            results = yield children
            return sum(r[0] for r in results), frozenset().union(*(r[1] for r in results))

        v = find_branchable(g, family, n_cap)
        if v is not None:
            stats.branch_steps += 1
            # The two children drop {v} and N[v].
            r = g.table.rank[v]
            bit = 1 << r
            closed_v = g.table.adj[r] & g.mask | bit
            delete_child = Instance(remove_vertices(g, bit), w, n_cap, family.subtract(bit))
            take_child = Instance(remove_vertices(g, closed_v), w, n_cap, family.subtract(closed_v))
            _check_edge(parent_mu, delete_child, RULE_BRANCH_DELETE, scheme)
            _check_edge(parent_mu, take_child, RULE_BRANCH_TAKE, scheme)
            results = yield [delete_child, take_child]
            (delete_weight, delete_witness), (rest_weight, rest_witness) = results
            # The take side wins only when strictly heavier, so ties keep the
            # first-explored (delete) branch's witness.
            if rest_weight + w[v] > delete_weight:
                return rest_weight + w[v], rest_witness | {v}
            return delete_weight, delete_witness

        anchor = scheme.anchor(g, family)
        if anchor is None:
            return scheme.leaf(g, w, family)
        member = closed_neighborhood(g, anchor)
        if not member:
            raise InvariantViolation(
                scheme.growth_rule,
                f"computed an empty {scheme.noun} neighborhood",
                {"n": n, "N": n_cap},
            )
        adds_in_a_row += 1
        if scheme.level >= 1 and n_cap >= scheme.audit_from_n:
            if adds_in_a_row > n * log_n:
                raise InvariantViolation(
                    scheme.chain_rule,
                    f"{adds_in_a_row} {scheme.noun} additions in a row exceeds |V(G)| log(N)",
                    {"chain": adds_in_a_row, "n": n, "N": n_cap},
                )
        scheme.record_growth()
        grown = family.add(member)
        if scheme.level >= 2:
            bound = scheme.level_bound(n_cap)
            if bound is not None:
                check_level_growth(family, grown, *bound)
        child = Instance(g, w, n_cap, grown)
        _check_edge(parent_mu, child, scheme.growth_rule, scheme)
        family = grown


def _call(inst: Instance, scheme: Scheme) -> Any:
    """One path-scheme call for drive(): a graph of at most one vertex is
    checked and answered here, without a frame; any other runs _expand."""
    g = inst.graph
    n = g.n
    if n > 1:
        return _expand(inst, scheme)
    _check_call(g, n, inst.capacity_n, ceil_log2(inst.capacity_n), inst.family, scheme)
    if not n:
        return 0, frozenset()
    v = g.table.ids[g.mask.bit_length() - 1]
    return inst.weights[v], frozenset((v,))


class _PathScheme(Scheme):
    """Component split and separator growth; k is the claimed path bound."""

    noun = "separator"
    growth_rule = RULE_ADD_SEPARATOR
    chain_rule = "separator-chain"

    def __init__(self, level: int, stats: RunStats, k: int | None):
        self.level, self.stats, self.k, self.params = level, stats, k, {"k": k}

    def split(self, g: Graph, n_cap: int) -> list[int] | None:
        components = component_masks(g.table.adj, g.mask)
        if 2 * max(map(int.bit_count, components)) <= n_cap:
            return components
        return None

    def anchor(self, g: Graph, family: VertexMultiFamily) -> int:
        return balanced_separator_core(g, 2)

    def record_growth(self) -> None:
        self.stats.separators_added += 1

    def family_excess(self, size: int, log_n: int) -> tuple[str, int] | None:
        bound = 10 * (self.k or 0) * log_n
        if self.k is None or size <= bound:
            return None
        return f"|F| = {size} exceeds 10k log(N) = {bound}", bound

    def check_members(self, g: Graph, family: VertexMultiFamily, n_cap: int) -> None:
        quarter = Fraction(n_cap, 4)
        for member in family.masks:
            if not verify_balanced(g, member, quarter):
                raise InvariantViolation(
                    "separator-balance",
                    f"a family member is not an N/4-balanced separator (N = {n_cap})",
                    {"member": sorted(g.table.decode(member)), "N": n_cap},
                )

    def level_bound(self, n_cap: int) -> tuple[int, str, dict] | None:
        # Adding one separator neighborhood grows level i by at most
        # 8k Delta_(i-1) vertices: growth * 2^(i-1) <= 8 k N.
        if self.k is None:
            return None
        return 8 * self.k * n_cap, "8k", {"N": n_cap, "k": self.k}

    def potential(self, graph_size: int, n_cap: int, family: VertexMultiFamily) -> int | None:
        if self.k is None:
            return None
        return measure_k(graph_size, n_cap, family, self.k)

    def ceiling(self, n_cap: int) -> int:
        return max_measure_k(n_cap, self.k)


def _run(
    scheme: Scheme,
    expand: Expand,
    g: Graph,
    w: WeightMap,
    capacity_n: int | None = None,
    family: VertexMultiFamily | None = None,
) -> tuple[int, frozenset[int]]:
    """Build the validated root (g, w, N, F), drive it and verify the witness.

    N defaults to max(1, |V(g)|) and F to the empty family over g's table.
    """
    if family is None:
        family = VertexMultiFamily(table=g.table)
    root = Instance(g, w, max(1, g.n) if capacity_n is None else capacity_n, family)
    weight, witness = drive(root, expand, scheme)
    verify_witness(g, w, weight, witness)
    return weight, witness


def alg1_call(
    inst: Instance,
    k_hint: int | None = None,
    assertion_level: str = "fair",
    stats: RunStats | None = None,
) -> tuple[int, frozenset[int]]:
    """Run the path-scheme recursion on one instance and verify its witness.

    The instance must satisfy 1 <= N and |V(G)| <= N; that shape is
    preserved by every rule and is what guarantees termination. Its weights
    must cover V(G) and its family members must be vertex sets of G. Pass a
    RunStats to keep the run's counters, otherwise a throwaway one is used.

    Returns:
        (weight, witness) for the instance's graph.
    """
    g, n_cap = inst.graph, inst.capacity_n
    if k_hint is not None and k_hint < 1:
        raise ValueError(f"k_hint must be >= 1, got {k_hint}")
    if n_cap < 1:
        raise ValueError(f"N must be >= 1, got {n_cap}")
    if g.n > n_cap:
        raise ValueError(f"instance is not fair-shaped: |V(G)| = {g.n} > N = {n_cap}")
    validate_weights(g, inst.weights)
    # The recursion keeps F over the graph's table.
    if not all(v in g for member in inst.family for v in member):
        raise ValueError("family members must be vertex sets of the instance's graph")
    if stats is None:
        stats = RunStats()
    scheme = _PathScheme(_parse_level(assertion_level), stats, k_hint)
    return _run(scheme, _call, g, inst.weights, n_cap, inst.family.over(g.table))


def solve_pkfree(
    g: Graph,
    w: WeightMap,
    k_hint: int | None = None,
    assertion_level: str = "fair",
) -> SolveResult:
    """Maximum-weight independent set of g under w.

    The result is exact for every input graph. When g has no induced path on
    k_hint vertices, the k-dependent run invariants are additionally checked
    (at assertion_level "fair" the family-size bound, at "paranoid" also the
    per-call separator balance, level bounds, potential bounds, and per-edge
    potential decreases).

    Args:
        g: input graph.
        w: non-negative integer weights, defined on every vertex.
        k_hint: claimed induced-path bound; instrumentation only.
        assertion_level: "off", "fair", or "paranoid".

    Returns:
        SolveResult with weight, a witness independent set, and run stats.
    """
    stats = RunStats()
    root = Instance(g, w, max(1, g.n), VertexMultiFamily(table=g.table))
    weight, witness = alg1_call(root, k_hint=k_hint, assertion_level=assertion_level, stats=stats)
    return SolveResult(weight=weight, witness=witness, stats=stats)


def verify_witness(g: Graph, w: WeightMap, weight: int, witness: frozenset[int]) -> None:
    """Raise unless witness is independent in g and weighs exactly weight.

    Runs at every assertion level; the cost is O(|witness|) mask operations.
    """
    foreign = [v for v in witness if v not in g]
    if foreign:
        raise InvariantViolation(
            "witness", f"witness contains vertices outside the graph: {sorted(foreign)}", {}
        )
    if not is_independent_set(g, witness):
        raise InvariantViolation("witness", "reported witness is not independent", {})
    if total_weight(w, witness) != weight:
        raise InvariantViolation(
            "witness",
            f"witness weight {total_weight(w, witness)} != reported optimum {weight}",
            {},
        )
