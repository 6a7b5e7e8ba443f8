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

_expand runs the recursion and a Scheme supplies only what differs. The
path scheme here (solve_pkfree) splits a graph whose components all have
at most N/2 vertices, each with N reset to its size and F to empty, and
grows F by the closed neighborhood of a balanced separator core, so rule 4
never fires. The pattern scheme lives in hfree.py.

The depth grows like n * log(N) * k through alternating branch and growth
steps, far past CPython's recursion limit, so _expand is a generator that
drive runs on an explicit stack: it yields a batch of child instances and
is sent their answers. A batch's children run one after another, in batch
order, so every counter comes out the same on every run. The path scheme
enters through _call, which answers a graph of at most one vertex without
a frame; drive counts that answer's depth as if it had made one.

Every run starts in _run, which drives the recursion from the scheme's
entry and verifies the witness at every assertion level. Input is validated
once, before that, by the public entry: alg1_call or solve_hfree. Inside
the recursion a witness is a mask over the root graph's table, which _run
decodes once.

Correctness never depends on the input being path-free; the quasi-polynomial
call bound does. The optional k_hint enables the k-dependent audit bounds
and never influences the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable, Generator

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


class Instance:
    """One recursion node: graph, weights, vertex budget N, family F.

    The recursion makes one per call and treats it as immutable; a plain
    slotted class keeps that cheap. alg1_call validates one from outside.
    potential is None until _check_edge audits the edge into the node: it
    computes the node's potential there, once, and stores it here for the
    node's own call to reuse instead of computing it again.
    """

    __slots__ = ("graph", "weights", "capacity_n", "family", "potential")

    def __init__(
        self, graph: Graph, weights: WeightMap, capacity_n: int, family: VertexMultiFamily
    ):
        self.graph, self.weights, self.capacity_n, self.family = graph, weights, capacity_n, family
        self.potential: int | None = None


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
    and whether its runs enter at _call, not _expand (small_leaves). Hooks:

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


def _check_edge(parent_mu: int, child: Instance, rule: str, scheme: Scheme) -> int:
    """Audit the potential's decrease from a call with potential parent_mu to child.

    The child's potential is computed here, where a family-size violation
    inside it is raised, and is stored in child.potential and returned so
    that the child's own _check_call reuses it.
    """
    child_mu = child.potential = scheme.potential(child.graph.n, child.capacity_n, child.family)
    assert_recurrence_step(parent_mu, child_mu, rule, scheme.params)
    scheme.stats.record_measure(rule, parent_mu, child_mu)
    return child_mu


def _expand(
    inst: Instance, scheme: Scheme
) -> Generator[list[Instance], list[tuple[int, int]], tuple[int, int]]:
    """The shared recursion on one instance, as a generator for drive().

    Answers are (weight, witness mask over g's table). A parent potential
    exists only at "paranoid" with a claimed bound, so only then are the
    edges to the children audited.
    """
    g, w, n_cap, family = inst.graph, inst.weights, inst.capacity_n, inst.family
    n = g.mask.bit_count()
    log_n = (n_cap - 1).bit_length()
    stats = scheme.stats
    # At "paranoid" each iteration's potential and level sizes are carried
    # from where they were first computed: the edge into the call, and the
    # level-growth audit of the growth before it.
    audit = scheme.level >= 2
    mu, sizes = inst.potential, family.level_sizes() if audit else None

    # Consecutive growths of F keep the same graph, so they run as a loop
    # in this frame rather than growing the stack. Every iteration is one
    # call of the recursion and is counted and checked as such; only the
    # first asks for the split, which depends on G and N alone.
    adds_in_a_row = 0
    while True:
        parent_mu = _check_call(g, n, n_cap, log_n, family, scheme, mu, sizes)

        if not adds_in_a_row and (split := scheme.split(g, n_cap)) is not None:
            stats.component_recursions += 1
            empty = VertexMultiFamily(table=g.table)
            children = []
            for comp in split:
                child = Instance(induced_subgraph(g, comp), w, comp.bit_count(), empty)
                if parent_mu is not None:
                    _check_edge(parent_mu, child, RULE_COMPONENT, scheme)
                children.append(child)
            results = yield children
            weight = witness = 0
            for r in results:
                weight += r[0]
                witness |= r[1]
            return weight, witness

        # A family with no level has no branchable vertex.
        v = find_branchable(g, family, n_cap) if family.level_masks else None
        if v is not None:
            stats.branch_steps += 1
            # The two children drop {v} and N[v].
            r = g.table.rank[v]
            bit = 1 << r
            closed_v = g.table.closed_adj[r] & g.mask
            delete_child = Instance(remove_vertices(g, bit), w, n_cap, family.subtract(bit))
            take_child = Instance(remove_vertices(g, closed_v), w, n_cap, family.subtract(closed_v))
            if parent_mu is not None:
                _check_edge(parent_mu, delete_child, RULE_BRANCH_DELETE, scheme)
                _check_edge(parent_mu, take_child, RULE_BRANCH_TAKE, scheme)
            results = yield [delete_child, take_child]
            (delete_weight, delete_witness), (rest_weight, rest_witness) = results
            # The take side wins only when strictly heavier, so ties keep the
            # first-explored (delete) branch's witness.
            if rest_weight + w[v] > delete_weight:
                return rest_weight + w[v], rest_witness | bit
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
            mu = _check_edge(parent_mu, Instance(g, w, n_cap, grown), scheme.growth_rule, scheme)
        family = grown


def _call(inst: Instance, scheme: Scheme) -> Any:
    """One path-scheme call for drive(): a graph of at most one vertex is
    checked and answered here, without a frame; any other runs _expand."""
    g = inst.graph
    n = g.mask.bit_count()
    if n > 1:
        return _expand(inst, scheme)
    n_cap = inst.capacity_n
    _check_call(g, n, n_cap, (n_cap - 1).bit_length(), inst.family, scheme, inst.potential)
    if not n:
        return 0, 0
    return inst.weights[g.table.ids[g.mask.bit_length() - 1]], g.mask


def drive(root: Any, expand: Callable[[Any, Any], Any], ctx: Any) -> Any:
    """Run expand(root, ctx), which returns a generator or a finished
    answer, to completion; ctx.stats.max_depth gets the deepest stack."""
    stats = ctx.stats
    deepest = 1
    # A frame is [generator, children still to run (reversed), their results].
    stack: list[list[Any]] = []
    try:
        answer = expand(root, ctx)
        if type(answer) is GeneratorType:
            stack.append([answer, None, None])
        while stack:
            frame = stack[-1]
            pending = frame[1]
            if pending:
                if len(stack) >= deepest:
                    deepest = len(stack) + 1
                answer = expand(pending.pop(), ctx)
                if type(answer) is GeneratorType:
                    stack.append([answer, None, None])
                else:
                    frame[2].append(answer)
                continue
            try:
                # A fresh generator gets None, a resumed one its batch's results.
                batch = frame[0].send(frame[2])
            except StopIteration as stop:
                stack.pop()
                if stack:
                    stack[-1][2].append(stop.value)
                else:
                    answer = stop.value
                continue
            # Reversed, so pop() hands out the children in batch order.
            frame[1] = batch[::-1]
            frame[2] = []
        return answer
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
    """Build the validated root (g, w, N, F), drive it and verify the witness.

    N defaults to max(1, |V(g)|) and F to the empty family over g's table.
    The recursion's witness mask is decoded here, once, into the result
    that also carries the scheme's stats.
    """
    if family is None:
        family = VertexMultiFamily(table=g.table)
    root = Instance(g, w, max(1, g.n) if capacity_n is None else capacity_n, family)
    weight, mask = drive(root, _call if scheme.small_leaves else _expand, scheme)
    witness = g.table.decode(mask)
    verify_witness(g, w, weight, witness)
    return SolveResult(weight, witness, scheme.stats)


def alg1_call(
    inst: Instance, k_hint: int | None = None, assertion_level: str = "fair"
) -> SolveResult:
    """Run the path-scheme recursion on one instance and verify its witness.

    The instance must satisfy 1 <= N and |V(G)| <= N; that shape is
    preserved by every rule and is what guarantees termination. Its weights
    must cover V(G) and its family members must be vertex sets of G.

    Returns:
        SolveResult with weight, a witness independent set of the
        instance's graph, and run stats.
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
    scheme = _PathScheme(_parse_level(assertion_level), k_hint)
    return _run(scheme, g, inst.weights, n_cap, inst.family.over(g.table))


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
    root = Instance(g, w, max(1, g.n), VertexMultiFamily(table=g.table))
    return alg1_call(root, k_hint=k_hint, assertion_level=assertion_level)


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
