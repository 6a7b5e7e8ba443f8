"""Exact maximum-weight independent set by separator-guided branching.

The solver recurses on instances (G, w, N, F) where N is the vertex budget
fixed when the current recursion root was entered and F is a multi-family of
separator neighborhoods accumulated since. Four rules apply in order:

  1. at most one vertex: return its weight;
  2. every component has at most N/2 vertices: solve components
     independently, resetting N to the component size and F to empty;
  3. a branchable vertex v exists: best of solving without v and solving
     without N[v] plus w(v);
  4. otherwise: grow F by the closed neighborhood of a balanced separator
     core and retry (this makes level sets grow until rule 3 can fire).

Correctness never depends on the input being path-free; the quasi-polynomial
call bound does. The optional k_hint enables the k-dependent instrumentation
bounds and never influences the computed result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Generator

from ._engine import BranchPool, drive
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
    MeasureK,
    RunStats,
    assert_recurrence_step,
    check_level_growth,
    check_level_sizes,
    max_measure_k,
    measure_k,
)
from .levels import LevelView, VertexMultiFamily, ceil_log2, find_branchable
from .separators import balanced_separator_core, verify_balanced

ASSERT_OFF = "off"
ASSERT_FAIR = "fair"
ASSERT_PARANOID = "paranoid"
_LEVELS = {ASSERT_OFF: 0, ASSERT_FAIR: 1, ASSERT_PARANOID: 2}


@dataclass(frozen=True, eq=False)
class Alg1Instance:
    """One recursion node: graph, weights, vertex budget N, family F."""

    graph: Graph
    weights: WeightMap
    capacity_n: int
    family: VertexMultiFamily

    def __post_init__(self) -> None:
        if self.capacity_n < 1:
            raise ValueError(f"N must be >= 1, got {self.capacity_n}")


@dataclass(frozen=True, eq=False)
class SolveResult:
    weight: int
    witness: frozenset[int]
    stats: RunStats


def instance_measure(inst: Alg1Instance, k: int) -> MeasureK:
    """The instance's potential for parameter k."""
    return measure_k(inst.graph.n, inst.capacity_n, inst.family, k)


def collect_witness(
    delete_outcome: tuple[int, frozenset[int]],
    take_outcome: tuple[int, frozenset[int]],
    vertex: int,
    vertex_weight: int,
) -> tuple[int, frozenset[int]]:
    """Combine the two outcomes of branching on a vertex.

    delete_outcome solved the graph without the vertex, take_outcome the
    graph without its closed neighborhood. The take side wins only when
    strictly heavier, so ties keep the first-explored branch's witness.
    """
    delete_weight, delete_witness = delete_outcome
    rest_weight, rest_witness = take_outcome
    take_weight = rest_weight + vertex_weight
    if take_weight > delete_weight:
        return take_weight, rest_witness | {vertex}
    return delete_weight, delete_witness


def branch_sets(g: Graph, v: int) -> tuple[int, int]:
    """The masks of {v} and N[v] in g, the sets the two branch children drop."""
    r = g.table.rank[v]
    bit = 1 << r
    return bit, g.table.adj[r] & g.mask | bit


def _rooted_family(g: Graph, family: VertexMultiFamily) -> VertexMultiFamily:
    # The recursion keeps F over the graph's table; members must lie in V(G).
    if not all(v in g for member in family for v in member):
        raise ValueError("family members must be vertex sets of the instance's graph")
    return family.over(g.table)


class _Context:
    __slots__ = ("level", "k", "stats", "trace_limit")

    def __init__(self, level: int, k: int | None, stats: RunStats, trace_limit: int):
        self.level = level
        self.k = k
        self.stats = stats
        self.trace_limit = trace_limit

    def clone_for_worker(self) -> "_Context":
        return _Context(self.level, self.k, RunStats(trace_limit=self.trace_limit), self.trace_limit)


def _parse_level(assertion_level: str) -> int:
    try:
        return _LEVELS[assertion_level]
    except KeyError:
        raise ValueError(
            f"assertion level must be one of {sorted(_LEVELS)}, got {assertion_level!r}"
        ) from None


def _check_call(g: Graph, n_cap: int, family: VertexMultiFamily, ctx: _Context) -> int | None:
    """Per-call invariant checks. Returns the potential when measurable."""
    ctx.stats.on_call(g.n, len(family))
    if ctx.level < 1:
        return None

    if g.n > n_cap:
        raise InvariantViolation(
            "fair-shape", f"|V(G)| = {g.n} exceeds N = {n_cap}", {"n": g.n, "N": n_cap}
        )
    log_n = ceil_log2(n_cap)
    if family.max_multiplicity() > log_n:
        raise InvariantViolation(
            "level-emptiness",
            f"L(F, {log_n + 1}) is non-empty with N = {n_cap}",
            {"level": log_n + 1, "occupancy": family.level_sizes()[log_n]},
        )
    if ctx.k is not None and len(family) > 10 * ctx.k * log_n:
        raise InvariantViolation(
            "family-size",
            f"|F| = {len(family)} exceeds 10k log(N) = {10 * ctx.k * log_n}",
            {"family_size": len(family), "bound": 10 * ctx.k * log_n},
        )
    ctx.stats.assertions_checked += 1
    if ctx.level < 2:
        return None

    ctx.stats.record_levels(family)
    quarter = Fraction(n_cap, 4)
    for member in family.masks:
        if not verify_balanced(g, member, quarter):
            raise InvariantViolation(
                "separator-balance",
                f"a family member is not an N/4-balanced separator (N = {n_cap})",
                {"member": sorted(g.table.decode(member)), "N": n_cap},
            )
    if ctx.k is None:
        return None

    check_level_sizes(family, 8 * ctx.k * n_cap, "8k")
    mu = measure_k(g.n, n_cap, family, ctx.k)
    ceiling = max_measure_k(n_cap, ctx.k)
    if not 0 <= mu.value <= ceiling:
        raise InvariantViolation(
            "measure-bounds",
            f"potential {mu.value} outside [0, {ceiling}]",
            {"measure": mu.value, "ceiling": ceiling},
        )
    return mu.value


def _check_edge(parent_mu: int | None, child: Alg1Instance, rule: str, ctx: _Context) -> None:
    if parent_mu is None or ctx.k is None or ctx.level < 2:
        return
    child_mu = measure_k(child.graph.n, child.capacity_n, child.family, ctx.k).value
    assert_recurrence_step(parent_mu, child_mu, rule, {"k": ctx.k})
    ctx.stats.record_measure(rule, parent_mu, child_mu)


def _alg1_gen(
    inst: Alg1Instance, ctx: _Context
) -> Generator[list[Alg1Instance], list[tuple[int, frozenset[int]]], tuple[int, frozenset[int]]]:
    g = inst.graph
    w = inst.weights
    n_cap = inst.capacity_n
    family = inst.family

    # Consecutive separator additions keep the same graph, so they run as a
    # loop in this frame rather than growing the stack. Every iteration is
    # one call of the four-rule scheme and is counted and checked as such.
    adds_in_a_row = 0
    while True:
        parent_mu = _check_call(g, n_cap, family, ctx)

        if g.n <= 1:
            leaf = g.vertices
            return total_weight(w, leaf), leaf

        components = component_masks(g.table.adj, g.mask)
        if 2 * max(map(int.bit_count, components)) <= n_cap:
            ctx.stats.component_recursions += 1
            empty = VertexMultiFamily(table=g.table)
            children = []
            for comp in components:
                child = Alg1Instance(induced_subgraph(g, comp), w, comp.bit_count(), empty)
                _check_edge(parent_mu, child, RULE_COMPONENT, ctx)
                children.append(child)
            results = yield children
            weight = sum(r[0] for r in results)
            witness = frozenset().union(*(r[1] for r in results))
            return weight, witness

        v = find_branchable(g, LevelView(family, n_cap))
        if v is not None:
            ctx.stats.branch_steps += 1
            bit, closed_v = branch_sets(g, v)
            delete_child = Alg1Instance(remove_vertices(g, bit), w, n_cap, family.subtract(bit))
            take_child = Alg1Instance(
                remove_vertices(g, closed_v), w, n_cap, family.subtract(closed_v)
            )
            _check_edge(parent_mu, delete_child, RULE_BRANCH_DELETE, ctx)
            _check_edge(parent_mu, take_child, RULE_BRANCH_TAKE, ctx)
            results = yield [delete_child, take_child]
            return collect_witness(results[0], results[1], v, w[v])

        core = balanced_separator_core(g, 2)
        separator = closed_neighborhood(g, g.table.mask(core.core))
        if not separator:
            raise InvariantViolation(
                "add-separator", "computed an empty separator neighborhood", {"n": g.n, "N": n_cap}
            )
        adds_in_a_row += 1
        if ctx.level >= 1 and adds_in_a_row > g.n * ceil_log2(n_cap):
            raise InvariantViolation(
                "separator-chain",
                f"{adds_in_a_row} separator additions in a row exceeds |V(G)| log(N)",
                {"chain": adds_in_a_row, "n": g.n, "N": n_cap},
            )
        ctx.stats.separators_added += 1
        grown = family.add(separator)
        if ctx.level >= 2 and ctx.k is not None:
            # Adding one separator neighborhood grows level i by at most
            # 8k Delta_(i-1) vertices: growth * 2^(i-1) <= 8 k N.
            check_level_growth(family, grown, 8 * ctx.k * n_cap, "8k", {"N": n_cap, "k": ctx.k})
        child = Alg1Instance(g, w, n_cap, grown)
        _check_edge(parent_mu, child, RULE_ADD_SEPARATOR, ctx)
        family = grown


def alg1_call(
    inst: Alg1Instance,
    k_hint: int | None = None,
    assertion_level: str = ASSERT_FAIR,
    parallel: int | None = None,
    trace_limit: int = 4096,
    stats: RunStats | None = None,
) -> tuple[int, frozenset[int]]:
    """Run the four-rule recursion on one instance.

    The instance must satisfy |V(G)| <= N; that shape is preserved by every
    rule and is what guarantees termination. Pass a RunStats to keep the
    run's counters, otherwise a throwaway one is used.

    Returns:
        (weight, witness) for the instance's graph.
    """
    if inst.graph.n > inst.capacity_n:
        raise ValueError(
            f"instance is not fair-shaped: |V(G)| = {inst.graph.n} > N = {inst.capacity_n}"
        )
    if parallel is not None and parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    validate_weights(inst.graph, inst.weights)
    family = _rooted_family(inst.graph, inst.family)
    inst = Alg1Instance(inst.graph, inst.weights, inst.capacity_n, family)
    if stats is None:
        stats = RunStats(trace_limit=trace_limit)
    ctx = _Context(_parse_level(assertion_level), k_hint, stats, trace_limit)
    if parallel is not None and parallel > 1:
        with BranchPool(parallel) as pool:
            return drive(inst, _alg1_gen, ctx, pool)
    return drive(inst, _alg1_gen, ctx)


def solve_pkfree(
    g: Graph,
    w: WeightMap,
    k_hint: int | None = None,
    assertion_level: str = ASSERT_FAIR,
    parallel: int | None = None,
    trace_limit: int = 4096,
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
        parallel: worker threads for independent branches (None or 1 runs
            single-threaded; reports are byte-stable only single-threaded).
        trace_limit: ring-buffer size for the potential trace in the stats.

    Returns:
        SolveResult with weight, a witness independent set, and run stats.
    """
    if k_hint is not None and k_hint < 1:
        raise ValueError(f"k_hint must be >= 1, got {k_hint}")
    stats = RunStats(trace_limit=trace_limit)
    root = Alg1Instance(g, w, max(1, g.n), VertexMultiFamily(table=g.table))
    weight, witness = alg1_call(
        root,
        k_hint=k_hint,
        assertion_level=assertion_level,
        parallel=parallel,
        trace_limit=trace_limit,
        stats=stats,
    )
    verify_witness(g, w, weight, witness)
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
