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

drive runs the recursion and a Scheme supplies only what differs. The
path scheme here (solve_pkfree) splits a graph whose components all have
at most N/2 vertices, each with N reset to its size and F to empty, and
grows F by the closed neighborhood of a balanced separator core, so rule 4
never fires. The pattern scheme lives in hfree.py.

The depth grows like n * log(N) * k through alternating branch and growth
steps, far past CPython's recursion limit, so drive runs the recursion as
one loop over a stack of tasks, each a node (depth, G, N, F, potential). A
split or a branch pushes its children in reverse batch order behind a
marker that combines their answers, which collect on a results stack. A
batch's children run one after another, in batch order, so every counter
comes out the same on every run. The path scheme answers a graph of at
most one vertex inline; that answer still counts as one node of depth.

Every run starts in _run, which drives the recursion from its root
(G, w, N, F), passed as plain arguments, and verifies the witness at every
assertion level. Input is validated once, before that, by the public
entry: solve_pkfree or solve_hfree. Inside the recursion a witness is a
mask over the root graph's table, which _run decodes once.

Correctness never depends on the input being path-free; the quasi-polynomial
call bound does. The optional k_hint enables the k-dependent audit bounds
and never influences the result.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .levels import VertexMultiFamily, find_branchable
from .separators import balanced_separator_core, verify_balanced

_LEVELS = {"off": 0, "fair": 1, "paranoid": 2}


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
    member F grows by (noun, also naming the chain audit's rule), the rule
    of growth edges, the recurrence parameters (params), the least N at
    which the emptiness, family and chain bounds are audited (audit_from_n)
    and whether drive answers a graph of at most one vertex inline, without
    split, branch or anchor (small_leaves). Hooks:

      split(g, N)          component masks to solve apart, or None; asked
                           once per graph, as growing F cannot change it;
      anchor(g, F)         the mask of X whose N[X] grows F, or None;
      record_growth()      count one growth of F in stats;
      leaf(g, w, F)        the answer when anchor finds nothing, its witness
                           a mask over g's table;
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
    small_leaves = False

    def split(self, g: Graph, n_cap: int) -> list[int] | None:
        return None

    def check_members(self, g: Graph, family: VertexMultiFamily, n_cap: int) -> None:
        return None


def _check_call(
    g: Graph,
    n: int,
    n_cap: int,
    log_n: int,
    family: VertexMultiFamily,
    scheme: Scheme,
    mu: int | None = None,
    sizes: tuple[int, ...] | None = None,
) -> int | None:
    """Per-call checks on g, n = |V(g)|, log_n = ceil(log2 N); the potential when measurable.

    At "paranoid", mu is the potential the edge into this call computed and
    sizes F's level sizes, each None to compute it here; every check runs
    on the value either way.
    """
    # The member count, read without the Python-level call of len(family).
    stats, size = scheme.stats, len(family._raw)
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

    if sizes is None:
        sizes = family.level_sizes()
    stats.record_levels(sizes)
    scheme.check_members(g, family, n_cap)
    bound = scheme.level_bound(n_cap)
    if bound is not None:
        check_level_sizes(sizes, size, bound[0], bound[1])
    if mu is None:
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


def _check_edge(
    parent_mu: int, n: int, n_cap: int, family: VertexMultiFamily, rule: str, scheme: Scheme
) -> int:
    """Audit the potential's decrease from a call with potential parent_mu to
    a child with n vertices, budget n_cap and family F.

    The child's potential is computed here, where a family-size violation
    inside it is raised, and returned for the child's own _check_call to
    reuse.
    """
    child_mu = scheme.potential(n, n_cap, family)
    assert_recurrence_step(parent_mu, child_mu, rule, scheme.params)
    scheme.stats.record_measure(rule, parent_mu, child_mu)
    return child_mu


def drive(
    scheme: Scheme, g: Graph, w: WeightMap, capacity_n: int, family: VertexMultiFamily
) -> tuple[int, int]:
    """Run the shared recursion from the root (g, w, N, F) to its answer.

    Answers are (weight, witness mask over g's table). A task is a
    node (depth, g, N, F, potential), the root at depth 1, or a marker that
    combines the answers on top of the results stack: (0, count) sums a
    split's count answers, (-1, w(v), bit) picks between a branch's delete
    and take answers. scheme.stats.max_depth gets the deepest node, also
    when the run raises. A parent potential exists only at "paranoid" with
    a claimed bound, so only then are the edges to the children audited.
    """
    stats = scheme.stats
    audit = scheme.level >= 2
    tasks: list[tuple] = [(1, g, capacity_n, family, None)]
    results: list[tuple[int, int]] = []
    deepest = 1
    try:
        while tasks:
            task = tasks.pop()
            depth = task[0]
            if depth < 0:
                # The take side wins only when strictly heavier, so ties keep
                # the first-explored (delete) branch's witness.
                take_weight, take_witness = results.pop()
                take_weight += task[1]
                if take_weight > results[-1][0]:
                    results[-1] = take_weight, take_witness | task[2]
                continue
            if not depth:
                weight = witness = 0
                for _ in range(task[1]):
                    answer = results.pop()
                    weight += answer[0]
                    witness |= answer[1]
                results.append((weight, witness))
                continue
            _, g, n_cap, family, mu = task
            if depth > deepest:
                deepest = depth
            n = g.mask.bit_count()
            log_n = (n_cap - 1).bit_length()
            if n <= 1 and scheme.small_leaves:
                _check_call(g, n, n_cap, log_n, family, scheme, mu)
                results.append((w[g.table.ids[g.mask.bit_length() - 1]], g.mask) if n else (0, 0))
                continue
            # At "paranoid" each iteration's potential and level sizes are
            # carried from where they were first computed: the edge into the
            # node, and the level-growth audit of the growth before it.
            sizes = family.level_sizes() if audit else None

            # Consecutive growths of F keep the same graph, so they run as a
            # loop in this node rather than as new ones. Every iteration is one
            # call of the recursion and is counted and checked as such; only
            # the first asks for the split, which depends on G and N alone.
            adds_in_a_row = 0
            while True:
                parent_mu = _check_call(g, n, n_cap, log_n, family, scheme, mu, sizes)

                if not adds_in_a_row and (split := scheme.split(g, n_cap)) is not None:
                    stats.component_recursions += 1
                    empty = VertexMultiFamily(table=g.table)
                    children = []
                    for comp in split:
                        child, size, child_mu = induced_subgraph(g, comp), comp.bit_count(), None
                        if parent_mu is not None:
                            child_mu = _check_edge(
                                parent_mu, size, size, empty, RULE_COMPONENT, scheme
                            )
                        children.append((depth + 1, child, size, empty, child_mu))
                    tasks.append((0, len(children)))
                    tasks += reversed(children)
                    break

                # A family with no level has no branchable vertex.
                v = find_branchable(g, family, n_cap) if family.level_masks else None
                if v is not None:
                    stats.branch_steps += 1
                    # The two children drop {v} and N[v].
                    r = g.table.rank[v]
                    bit = 1 << r
                    closed_v = g.table.closed_adj[r] & g.mask
                    delete_g, delete_f = remove_vertices(g, bit), family.subtract(bit)
                    take_g, take_f = remove_vertices(g, closed_v), family.subtract(closed_v)
                    delete_mu = take_mu = None
                    if parent_mu is not None:
                        delete_mu = _check_edge(
                            parent_mu, n - 1, n_cap, delete_f, RULE_BRANCH_DELETE, scheme
                        )
                        take_n = n - closed_v.bit_count()
                        take_mu = _check_edge(
                            parent_mu, take_n, n_cap, take_f, RULE_BRANCH_TAKE, scheme
                        )
                    tasks.append((-1, w[v], bit))
                    tasks.append((depth + 1, take_g, n_cap, take_f, take_mu))
                    tasks.append((depth + 1, delete_g, n_cap, delete_f, delete_mu))
                    break

                anchor = scheme.anchor(g, family)
                if anchor is None:
                    results.append(scheme.leaf(g, w, family))
                    break
                member = closed_neighborhood(g, anchor)
                if not member:
                    raise InvariantViolation(
                        scheme.growth_rule,
                        f"computed an empty {scheme.noun} neighborhood",
                        {"n": n, "N": n_cap},
                    )
                adds_in_a_row += 1
                if adds_in_a_row > n * log_n and scheme.level >= 1 and n_cap >= scheme.audit_from_n:
                    raise InvariantViolation(
                        f"{scheme.noun}-chain",
                        f"{adds_in_a_row} {scheme.noun} additions in a row exceeds |V(G)| log(N)",
                        {"chain": adds_in_a_row, "n": n, "N": n_cap},
                    )
                scheme.record_growth()
                grown = family.add(member)
                if audit:
                    grown_sizes = grown.level_sizes()
                    bound = scheme.level_bound(n_cap)
                    if bound is not None:
                        check_level_growth(sizes, grown_sizes, *bound)
                    sizes = grown_sizes
                if parent_mu is not None:
                    mu = _check_edge(parent_mu, n, n_cap, grown, scheme.growth_rule, scheme)
                family = grown
        return results[0]
    finally:
        if deepest > stats.max_depth:
            stats.max_depth = deepest


class _PathScheme(Scheme):
    """Component split and separator growth; k is the claimed path bound."""

    noun = "separator"
    growth_rule = RULE_ADD_SEPARATOR
    small_leaves = True

    def __init__(self, level: int, k: int | None):
        self.level, self.stats, self.k, self.params = level, RunStats(), k, {"k": k}

    def split(self, g: Graph, n_cap: int) -> list[int] | None:
        half = n_cap // 2
        components = component_masks(g.table.adj, g.mask, limit=half)
        return None if components[-1].bit_count() > half else components

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
        # Component sizes are integers: |C| <= N/4 iff |C| <= N // 4.
        quarter = n_cap // 4
        for member in family.iter_masks():
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
    g: Graph,
    w: WeightMap,
    capacity_n: int | None = None,
    family: VertexMultiFamily | None = None,
) -> SolveResult:
    """Drive the validated root (g, w, N, F) and verify the witness.

    N defaults to max(1, |V(g)|) and F to the empty family over g's table.
    The recursion's witness mask is decoded here, once, into the result
    that also carries the scheme's stats.
    """
    if capacity_n is None:
        capacity_n = max(1, g.n)
    if family is None:
        family = VertexMultiFamily(table=g.table)
    weight, mask = drive(scheme, g, w, capacity_n, family)
    witness = g.table.decode(mask)
    verify_witness(g, w, weight, witness)
    return SolveResult(weight, witness, scheme.stats)


def _check_positive(name: str, value: object) -> None:
    # bool is an int subclass, refused as validate_weights refuses it.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def solve_pkfree(
    g: Graph,
    w: WeightMap,
    k_hint: int | None = None,
    assertion_level: str = "fair",
    *,
    capacity_n: int | None = None,
    family: VertexMultiFamily | None = None,
) -> SolveResult:
    """Maximum-weight independent set of g under w.

    The result is exact for every input graph. When g has no induced path on
    k_hint vertices, the k-dependent run invariants are additionally checked
    (at assertion_level "fair" the family-size bound, at "paranoid" also the
    per-call separator balance, level bounds, potential bounds, and per-edge
    potential decreases).

    The run is Algorithm 1's call on the instance (g, w, N, F). Its root is
    N = max(1, |V(g)|) and F empty unless capacity_n and family say
    otherwise; 1 <= N and |V(g)| <= N is the shape every rule preserves and
    what guarantees termination.

    Args:
        g: input graph.
        w: non-negative integer weights, defined on every vertex.
        k_hint: claimed induced-path bound, an integer >= 1; instrumentation only.
        assertion_level: "off", "fair", or "paranoid".
        capacity_n: the vertex budget N, an integer with |V(g)| <= N.
        family: a preloaded family F whose members are vertex sets of g.

    Returns:
        SolveResult with weight, a witness independent set, and run stats.
    """
    if k_hint is not None:
        _check_positive("k_hint", k_hint)
    if capacity_n is not None:
        _check_positive("N", capacity_n)
        if g.n > capacity_n:
            raise ValueError(f"instance is not fair-shaped: |V(G)| = {g.n} > N = {capacity_n}")
    validate_weights(g, w)
    if family is not None:
        # The recursion keeps F over the graph's table.
        if not all(v in g for member in family for v in member):
            raise ValueError("family members must be vertex sets of the instance's graph")
        family = family.over(g.table)
    return _run(_PathScheme(_parse_level(assertion_level), k_hint), g, w, capacity_n, family)


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
