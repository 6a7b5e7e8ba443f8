"""Exact MWIS for graphs excluding a disconnected pattern, via oracles.

The pattern H is a disjoint union of connected graphs H_0 .. H_{c-1}. The
solver owns one oracle per component; an oracle must be exact on graphs with
no induced copy of its component and may do anything elsewhere, because the
solver only consults it on graphs it has verified to be that-component-free.

Each call on (G, w, N, F) picks i = |F| mod c and applies the first rule
that fits:

  1. a branchable vertex v exists: best of solving without v and solving
     without N[v] plus w(v);
  2. G has an induced copy X of H_i: grow F by N[X] and retry;
  3. neither: return the i-th oracle's answer, valid since G is H_i-free.

N never changes and there is no component rule. The result is exact for
every input graph as long as the oracles honor their contract. The
assume_hfree flag enables the pattern-dependent instrumentation bounds,
which are proven only for runs whose root graph has no induced H.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Sequence

from ._engine import BranchPool, drive
from .graph import (
    Graph,
    WeightMap,
    closed_neighborhood,
    connected_components,
    induced_subgraph,
    remove_vertices,
    validate_weights,
)
from .instrumentation import (
    RULE_ADD_NEIGHBORHOOD,
    RULE_BRANCH_DELETE,
    RULE_BRANCH_TAKE,
    InvariantViolation,
    MeasureH,
    RunStats,
    assert_recurrence_step,
    check_level_growth,
    check_level_sizes,
    max_measure_h,
    measure_h,
)
from .levels import LevelView, VertexMultiFamily, ceil_log2, find_branchable
from .oracle import DEFAULT_BRUTE_FORCE_CAP, brute_force_mwis
from .pkfree import (
    ASSERT_FAIR,
    ASSERT_OFF,
    SolveResult,
    _parse_level,
    branch_sets,
    collect_witness,
    solve_pkfree,
    verify_witness,
)


@dataclass(frozen=True)
class PatternGraph:
    """A forbidden pattern split into its connected components.

    components holds H_0 .. H_{c-1} in a fixed order; combined is the whole
    pattern as one graph (used to test H-freeness of inputs as opposed to
    freeness of a single component).
    """

    components: tuple[Graph, ...]
    total_size: int
    combined: Graph

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("a pattern needs at least one component")
        for part in self.components:
            if part.n == 0:
                raise ValueError("pattern components must be non-empty")
            if len(connected_components(part)) != 1:
                raise ValueError("every pattern component must be connected")
        if self.total_size != sum(part.n for part in self.components):
            raise ValueError("total_size does not match the components")
        if self.combined.n != self.total_size:
            raise ValueError("combined graph does not match the components")

    @classmethod
    def from_graph(cls, h: Graph) -> "PatternGraph":
        """Split h into components, ordered by smallest vertex id."""
        if h.n == 0:
            raise ValueError("a pattern needs at least one vertex")
        parts = tuple(induced_subgraph(h, c) for c in connected_components(h))
        return cls(components=parts, total_size=h.n, combined=h)

    @classmethod
    def from_components(cls, parts: Sequence[Graph]) -> "PatternGraph":
        """Assemble a pattern from already-split connected parts.

        The parts keep their own vertex ids; the combined view relabels them
        to consecutive ids so overlapping id ranges are fine.
        """
        parts = tuple(parts)
        vertices: list[int] = []
        edges: list[tuple[int, int]] = []
        offset = 0
        for part in parts:
            relabel = {v: offset + j + 1 for j, v in enumerate(part.vertex_ids())}
            vertices.extend(relabel.values())
            edges.extend((relabel[u], relabel[v]) for u, v in part.edges())
            offset += part.n
        return cls(
            components=parts,
            total_size=sum(part.n for part in parts),
            combined=Graph(vertices, edges),
        )


@dataclass(frozen=True)
class ComponentOracle:
    """An exact MWIS procedure for graphs free of one pattern component.

    solve may assume its input has no induced copy of claimed_pattern; the
    solver never calls it otherwise. claimed_pattern None means the oracle
    is exact on every graph. solve_with_witness, when given, must return a
    matching (weight, vertex-set) pair; without it the solver recovers a
    witness through repeated solve calls on induced subgraphs. Oracles must
    tolerate concurrent calls when the solver runs with a thread pool.
    """

    name: str
    solve: Callable[[Graph, WeightMap], int]
    claimed_pattern: Graph | None = None
    solve_with_witness: Callable[[Graph, WeightMap], tuple[int, frozenset[int]]] | None = None


def make_bruteforce_oracle(max_size: int = DEFAULT_BRUTE_FORCE_CAP) -> ComponentOracle:
    """Exponential-search oracle, exact on every graph up to max_size."""

    def solve(g: Graph, w: WeightMap) -> int:
        return brute_force_mwis(g, w, max_size=max_size)[0]

    def solve_with_witness(g: Graph, w: WeightMap) -> tuple[int, frozenset[int]]:
        return brute_force_mwis(g, w, max_size=max_size)

    return ComponentOracle(
        name=f"bruteforce<={max_size}",
        solve=solve,
        claimed_pattern=None,
        solve_with_witness=solve_with_witness,
    )


def make_pk_oracle(k: int) -> ComponentOracle:
    """Oracle for a path component, backed by the path-free solver.

    The path-free solver is exact on every graph, so the oracle is too; the
    claimed pattern just records the component it is meant for.
    """
    if k < 1:
        raise ValueError(f"path length must be >= 1, got {k}")
    path = Graph(range(1, k + 1), [(i, i + 1) for i in range(1, k)])

    def solve(g: Graph, w: WeightMap) -> int:
        return solve_pkfree(g, w, assertion_level=ASSERT_OFF).weight

    def solve_with_witness(g: Graph, w: WeightMap) -> tuple[int, frozenset[int]]:
        res = solve_pkfree(g, w, assertion_level=ASSERT_OFF)
        return res.weight, res.witness

    return ComponentOracle(
        name=f"p{k}",
        solve=solve,
        claimed_pattern=path,
        solve_with_witness=solve_with_witness,
    )


def find_induced_copy(g: Graph, h: Graph) -> frozenset[int] | None:
    """Vertex set of an induced copy of h in g, or None if there is none.

    Deterministic: mapping h's vertices in increasing id order, the chosen
    embedding is the lexicographically smallest image sequence. Works for
    disconnected h too (component images must be mutually non-adjacent, as
    induced embedding already requires). The backtracking search keeps one
    candidate mask per pattern position on an explicit stack, so its depth
    is not bounded by the interpreter's recursion limit.
    """
    order = h.vertex_ids()
    if not order:
        return frozenset()
    if h.n > g.n:
        return None
    adj, live = g.table.adj, g.mask
    size = len(order)
    # An image of order[t] must have at least its degree and, among the
    # images already placed, be adjacent to exactly those of anchors[t].
    position = {hv: t for t, hv in enumerate(order)}
    anchors = [[position[u] for u in h.adj(hv) if position[u] < t] for t, hv in enumerate(order)]
    degrees = [h.degree(hv) for hv in order]
    images = [0] * size
    pending = [0] * size
    wants = [0] * size
    used = 0
    pos = 0
    pending[0] = live
    while True:
        candidates = pending[pos]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            r = low.bit_length() - 1
            if adj[r] & used == wants[pos] and (adj[r] & live).bit_count() >= degrees[pos]:
                break
        else:
            if pos == 0:
                return None
            pos -= 1
            used ^= 1 << images[pos]
            continue
        pending[pos] = candidates
        images[pos] = r
        used |= low
        pos += 1
        if pos == size:
            return frozenset(g.table.ids[r] for r in images)
        candidates = live & ~used
        want = 0
        for j in anchors[pos]:
            candidates &= adj[images[j]]
            want |= 1 << images[j]
        pending[pos] = candidates
        wants[pos] = want


def is_h_free(g: Graph, h: Graph) -> bool:
    """True iff g has no induced copy of h (h may be disconnected)."""
    return find_induced_copy(g, h) is None


@dataclass(frozen=True, eq=False)
class Alg2Instance:
    """One recursion node: graph, weights, vertex budget N, family F."""

    graph: Graph
    weights: WeightMap
    capacity_n: int
    family: VertexMultiFamily

    def __post_init__(self) -> None:
        if self.capacity_n < 1:
            raise ValueError(f"N must be >= 1, got {self.capacity_n}")


def pattern_measure(inst: Alg2Instance, pattern: PatternGraph) -> MeasureH:
    """The instance's potential for the given pattern."""
    return measure_h(
        inst.graph.n,
        inst.capacity_n,
        inst.family,
        pattern.total_size,
        len(pattern.components),
    )


class _Context:
    __slots__ = ("pattern", "oracles", "level", "assume_hfree", "stats", "trace_limit")

    def __init__(
        self,
        pattern: PatternGraph,
        oracles: tuple[ComponentOracle, ...],
        level: int,
        assume_hfree: bool,
        stats: RunStats,
        trace_limit: int,
    ):
        self.pattern = pattern
        self.oracles = oracles
        self.level = level
        self.assume_hfree = assume_hfree
        self.stats = stats
        self.trace_limit = trace_limit

    def clone_for_worker(self) -> "_Context":
        return _Context(
            self.pattern,
            self.oracles,
            self.level,
            self.assume_hfree,
            RunStats(trace_limit=self.trace_limit),
            self.trace_limit,
        )


def _check_call(g: Graph, n_cap: int, family: VertexMultiFamily, ctx: _Context) -> int | None:
    """Per-call invariant checks. Returns the potential when measurable."""
    ctx.stats.on_call(g.n, len(family))
    if ctx.level < 1:
        return None

    size = ctx.pattern.total_size
    c = len(ctx.pattern.components)
    if g.n > n_cap:
        raise InvariantViolation(
            "fair-shape", f"|V(G)| = {g.n} exceeds N = {n_cap}", {"n": g.n, "N": n_cap}
        )
    log_n = ceil_log2(n_cap)
    # Level emptiness rests on a pigeonhole over level log(N), which only
    # exists for N >= 2; a single-vertex budget with a lone-vertex pattern
    # component legitimately occupies level 1 = log(1) + 1.
    if n_cap >= 2 and family.max_multiplicity() > log_n:
        raise InvariantViolation(
            "level-emptiness",
            f"L(F, {log_n + 1}) is non-empty with N = {n_cap}",
            {"level": log_n + 1, "occupancy": family.level_sizes()[log_n]},
        )
    # The family bound is proven for pattern-free roots with N >= 2; a
    # single-vertex budget legitimately adds one copy when a component is
    # a lone vertex, so it is exempt.
    if ctx.assume_hfree and n_cap >= 2 and len(family) >= c * size * log_n:
        raise InvariantViolation(
            "family-size",
            f"|F| = {len(family)} reached c |H| log(N) = {c * size * log_n}",
            {"family_size": len(family), "bound": c * size * log_n},
        )
    ctx.stats.assertions_checked += 1
    if ctx.level < 2:
        return None

    ctx.stats.record_levels(family)
    check_level_sizes(family, size * n_cap, "|H|")
    if not ctx.assume_hfree or n_cap < 2:
        return None
    mu = measure_h(g.n, n_cap, family, size, c)
    ceiling = max_measure_h(n_cap, size, c)
    if not 0 <= mu.value <= ceiling:
        raise InvariantViolation(
            "measure-bounds",
            f"potential {mu.value} outside [0, {ceiling}]",
            {"measure": mu.value, "ceiling": ceiling},
        )
    return mu.value


def _check_edge(parent_mu: int | None, child: Alg2Instance, rule: str, ctx: _Context) -> None:
    if parent_mu is None or ctx.level < 2 or not ctx.assume_hfree:
        return
    size = ctx.pattern.total_size
    c = len(ctx.pattern.components)
    child_mu = measure_h(child.graph.n, child.capacity_n, child.family, size, c).value
    assert_recurrence_step(
        parent_mu, child_mu, rule, {"pattern_size": size, "pattern_components": c}
    )
    ctx.stats.record_measure(rule, parent_mu, child_mu)


def _invoke_oracle(
    g: Graph,
    w: WeightMap,
    comp_index: int,
    with_witness: bool,
    ctx: _Context,
) -> int | tuple[int, frozenset[int]]:
    oracle = ctx.oracles[comp_index]
    if ctx.level >= 2:
        component = ctx.pattern.components[comp_index]
        if not is_h_free(g, component):
            raise InvariantViolation(
                "oracle-validity",
                f"graph handed to oracle {comp_index} ({oracle.name}) has an induced copy "
                "of its forbidden component",
                {"oracle": comp_index, "n": g.n},
            )
    ctx.stats.record_oracle_call(comp_index)
    if with_witness:
        return oracle.solve_with_witness(g, w)
    return oracle.solve(g, w)


def _witness_by_reduction(
    g: Graph, w: WeightMap, comp_index: int, ctx: _Context
) -> tuple[int, frozenset[int]]:
    """Recover a witness from a weight-only oracle.

    Freeness is hereditary, so the oracle stays valid on the induced
    subgraphs this walks through. One oracle call per vertex decision.
    """
    best = _invoke_oracle(g, w, comp_index, False, ctx)
    need = best
    remaining = g
    chosen: set[int] = set()
    while remaining.n:
        v = remaining.vertex_ids()[0]
        without = remove_vertices(remaining, {v})
        if _invoke_oracle(without, w, comp_index, False, ctx) == need:
            remaining = without
        else:
            chosen.add(v)
            need -= w[v]
            remaining = remove_vertices(remaining, remaining.closed(v))
    if need != 0:
        raise InvariantViolation(
            "oracle-consistency",
            f"weight residue {need} left after witness reduction "
            f"(oracle {comp_index} is not self-consistent)",
            {"oracle": comp_index, "residue": need, "reported": best},
        )
    return best, frozenset(chosen)


def _oracle_leaf(
    g: Graph, w: WeightMap, comp_index: int, ctx: _Context
) -> tuple[int, frozenset[int]]:
    oracle = ctx.oracles[comp_index]
    if oracle.solve_with_witness is not None:
        weight, witness = _invoke_oracle(g, w, comp_index, True, ctx)
        if ctx.level >= 2:
            verify_witness(g, w, weight, witness)
        return weight, witness
    return _witness_by_reduction(g, w, comp_index, ctx)


def _alg2_gen(
    inst: Alg2Instance, ctx: _Context
) -> Generator[list[Alg2Instance], list[tuple[int, frozenset[int]]], tuple[int, frozenset[int]]]:
    g = inst.graph
    w = inst.weights
    n_cap = inst.capacity_n
    family = inst.family
    c = len(ctx.pattern.components)

    # Consecutive neighborhood additions keep the same graph, so they run
    # as a loop in this frame rather than growing the stack. Every
    # iteration is one call of the scheme and is counted and checked.
    adds_in_a_row = 0
    while True:
        parent_mu = _check_call(g, n_cap, family, ctx)
        comp_index = len(family) % c

        v = find_branchable(g, LevelView(family, n_cap))
        if v is not None:
            ctx.stats.branch_steps += 1
            bit, closed_v = branch_sets(g, v)
            delete_child = Alg2Instance(remove_vertices(g, bit), w, n_cap, family.subtract(bit))
            take_child = Alg2Instance(
                remove_vertices(g, closed_v), w, n_cap, family.subtract(closed_v)
            )
            _check_edge(parent_mu, delete_child, RULE_BRANCH_DELETE, ctx)
            _check_edge(parent_mu, take_child, RULE_BRANCH_TAKE, ctx)
            results = yield [delete_child, take_child]
            return collect_witness(results[0], results[1], v, w[v])

        copy = find_induced_copy(g, ctx.pattern.components[comp_index])
        if copy is not None:
            adds_in_a_row += 1
            if ctx.level >= 1 and n_cap >= 2 and adds_in_a_row > g.n * ceil_log2(n_cap):
                raise InvariantViolation(
                    "neighborhood-chain",
                    f"{adds_in_a_row} neighborhood additions in a row exceeds |V(G)| log(N)",
                    {"chain": adds_in_a_row, "n": g.n, "N": n_cap},
                )
            ctx.stats.record_neighborhood(tuple(sorted(copy)))
            grown = family.add(closed_neighborhood(g, g.table.mask(copy)))
            if ctx.level >= 2:
                # Adding one copy's neighborhood grows level i by at most
                # |H| Delta_(i-1) vertices; this needs no freeness claim.
                size = ctx.pattern.total_size
                details = {"N": n_cap, "pattern_size": size}
                check_level_growth(family, grown, size * n_cap, "|H|", details)
            child = Alg2Instance(g, w, n_cap, grown)
            _check_edge(parent_mu, child, RULE_ADD_NEIGHBORHOOD, ctx)
            family = grown
            continue

        return _oracle_leaf(g, w, comp_index, ctx)


def solve_hfree(
    pattern: PatternGraph | Graph,
    g: Graph,
    w: WeightMap,
    oracles: Sequence[ComponentOracle],
    assume_hfree: bool = False,
    assertion_level: str = ASSERT_FAIR,
    parallel: int | None = None,
    trace_limit: int = 4096,
) -> SolveResult:
    """Maximum-weight independent set of g, excluding pattern via oracles.

    The result is exact for every input graph provided each oracle is exact
    on graphs free of its component. assume_hfree=True turns on the
    instrumentation bounds that are proven only when g has no induced copy
    of the whole pattern (family size at "fair", potentials and per-edge
    decreases at "paranoid"); it never changes the computed result.

    Args:
        pattern: the forbidden pattern; a plain Graph is split into
            components ordered by smallest vertex id.
        g: input graph.
        w: non-negative integer weights, defined on every vertex.
        oracles: one per pattern component, order-matched.
        assume_hfree: claim that g has no induced copy of the pattern.
        assertion_level: "off", "fair", or "paranoid".
        parallel: worker threads for independent branches.
        trace_limit: ring-buffer size for the potential trace in the stats.

    Returns:
        SolveResult with weight, a witness independent set, and run stats.
    """
    if isinstance(pattern, Graph):
        pattern = PatternGraph.from_graph(pattern)
    if parallel is not None and parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    validate_weights(g, w)
    oracles = tuple(oracles)
    c = len(pattern.components)
    if len(oracles) != c:
        raise ValueError(f"pattern has {c} components but {len(oracles)} oracles were given")
    for idx, oracle in enumerate(oracles):
        claimed = oracle.claimed_pattern
        if claimed is None:
            continue
        component = pattern.components[idx]
        if claimed.n != component.n or find_induced_copy(claimed, component) is None:
            raise ValueError(
                f"oracle {idx} ({oracle.name}) claims a pattern that is not "
                f"isomorphic to component {idx}"
            )
    level = _parse_level(assertion_level)
    stats = RunStats(trace_limit=trace_limit)
    ctx = _Context(pattern, oracles, level, assume_hfree, stats, trace_limit)
    root = Alg2Instance(g, w, max(1, g.n), VertexMultiFamily(table=g.table))
    if parallel is not None and parallel > 1:
        with BranchPool(parallel) as pool:
            weight, witness = drive(root, _alg2_gen, ctx, pool)
    else:
        weight, witness = drive(root, _alg2_gen, ctx)
    verify_witness(g, w, weight, witness)
    return SolveResult(weight=weight, witness=witness, stats=stats)
