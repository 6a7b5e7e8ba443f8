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
one loop over a stack of tasks. The path scheme answers a graph of at most
one vertex, and a split's one-vertex parts, without a task of its own;
each such answer still counts as one call at its own depth.

Every run starts in _run, after the public entry, solve_pkfree or
solve_hfree, has validated its input once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Graph,
    VertexSet,
    WeightMap,
    closed_neighborhood,
    induced_subgraph,
    remove_vertices,
    validate_weights,
)
from .instrumentation import (
    RULE_ADD_SEPARATOR,
    RULE_BRANCH_DELETE,
    RULE_BRANCH_TAKE,
    RULE_COMPONENT,
    InvariantViolation,
    RunStats,
    _check_positive,
    assert_recurrence_step,
    check_level_growth,
    check_level_sizes,
    max_measure_k,
    measure_k,
)
from .levels import VertexMultiFamily, find_branchable
from .oracle import _induced_path
from .separators import balanced_separator_core, verify_balanced

_LEVELS = {"off": 0, "fair": 1, "paranoid": 2}

# Builds each run's one memo (see drive). A dict whose get never hits,
# swapped in here, runs every node and invokes an oracle at every leaf: the
# memo-free reference the memo is tested against.
_new_memo = dict


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

    A scheme holds the assertion level, the run's stats and its one memo,
    and names the member F grows by (noun, also naming the chain audit's
    rule), the rule of growth edges, the recurrence parameters (params),
    the least N at which the emptiness, family and chain bounds are audited
    (audit_from_n), whether the run claims the family bound (claimed) and
    whether drive answers a graph of at most one vertex inline, without
    split, branch or anchor (small_leaves). Hooks:

      split(g, N)          component masks to solve apart, or None; asked
                           once per graph, as growing F cannot change it;
      anchor(g, F)         the mask of X whose N[X] grows F, or None;
      record_growth()      count one growth of F in stats;
      leaf(g, w, F)        the answer when anchor finds nothing, its witness
                           a mask over g's table;
      family_excess(s, L)  (message, bound) if |F| = s breaks its bound at
                           log(N) = L; asked only when claimed;
      check_members(g, F, N)  paranoid checks of F's members;
      level_bound(N)       (bound, label, details) of the level-size and
                           level-growth audits, or None when unclaimed;
      potential(n, N, F)   the integer potential, or None when unclaimed;
      ceiling(N)           the potential's proven ceiling, or None when
                           unclaimed.
    """

    audit_from_n = 1
    claimed = small_leaves = False

    def __init__(self, level: int):
        self.level, self.stats, self.memo = level, RunStats(), _new_memo()
        # (level_bound(N), ceiling(N)) per N, built by the first paranoid call with N.
        self._bounds: dict[int, tuple[tuple[int, str, dict] | None, int | None]] = {}

    def split(self, g: Graph, n_cap: int) -> list[int] | None:
        return None

    def check_members(self, g: Graph, family: VertexMultiFamily, n_cap: int) -> None:
        return None


def _check_call(
    g: Graph | None,
    n: int,
    n_cap: int,
    log_n: int,
    family: VertexMultiFamily,
    scheme: Scheme,
    mu: int | None = None,
) -> int | None:
    """Per-call checks on g, n = |V(g)|, log_n = ceil(log2 N); the potential when measurable.

    g is None for a one-vertex split part: only check_members reads it, and
    that part's family is empty, so it is not called.

    At "paranoid", mu is the potential the edge into this call computed, or
    None to compute it here; every check runs on the value either way.
    """
    # The member count, read without the Python-level call of len(family).
    stats, size = scheme.stats, len(family._raw)
    stats.calls += 1
    if size > stats.max_family_size:
        stats.max_family_size = size
    if n > stats.max_graph_size:
        stats.max_graph_size = n
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
        if scheme.claimed and (excess := scheme.family_excess(size, log_n)) is not None:
            message, bound = excess
            raise InvariantViolation(
                "family-size", message, {"family_size": size, "bound": bound}
            )
    stats.assertions_checked += 1
    if scheme.level < 2:
        return None

    bounds = scheme._bounds.get(n_cap)
    if bounds is None:
        bounds = scheme._bounds[n_cap] = scheme.level_bound(n_cap), scheme.ceiling(n_cap)
    level_bound, ceiling = bounds
    # An empty F has no level and no member: these checks would read nothing.
    if size:
        sizes = family.level_sizes()
        stats.record_levels(sizes)
        scheme.check_members(g, family, n_cap)
        if level_bound is not None:
            check_level_sizes(sizes, size, level_bound[0], level_bound[1])
    if mu is None:
        mu = scheme.potential(n, n_cap, family)
        if mu is None:
            return None
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
    """Audit the potential's decrease from parent_mu to the child (n, N, F).

    Returns the child's potential, for its own _check_call to reuse; a
    family-size violation inside it is raised here.
    """
    child_mu = scheme.potential(n, n_cap, family)
    assert_recurrence_step(parent_mu, child_mu, rule, scheme.params)
    stats = scheme.stats
    stats.measure_steps += 1
    stats.measure_trace.append((rule, parent_mu, child_mu))
    return child_mu


def drive(
    scheme: Scheme, g: Graph, w: WeightMap, capacity_n: int, family: VertexMultiFamily
) -> tuple[int, int]:
    """Run the shared recursion from the root (g, w, N, F) to its answer.

    Answers are (weight, witness mask over g's table). A task is a
    node (depth, g, N, F, potential), the root at depth 1, or a marker that
    acts on the answers on top of the results stack: (0, count, weight,
    witness) adds a split's count answers to its one-vertex parts' sum,
    (-1, w(v), bit) picks between a branch's delete and take answers, and
    (-2, mask, depth, local, mark) stores a node's answer in the memo. A
    split or a branch pushes its children in reverse behind its marker, so
    they run one after another in batch order and every counter comes out
    the same on every run. scheme.stats.max_depth gets the deepest node,
    also when the run raises. A parent potential exists only at "paranoid"
    with a claimed bound, so only then are the edges to the children
    audited.

    Under small_leaves a split's one-vertex parts never become tasks: each
    is checked, counted and given its depth when its parent splits, before
    its larger siblings run. Sums and maxima do not depend on that order,
    so it shows only in the partial stats of a run that raises.

    The memo rule, at every level. A run keeps one memo, scheme.memo. A key
    names a subproblem that, with the run's table, w and scheme fixed, is a
    function of the key alone, and so is every check it makes: drive keys a
    split child (C, |C|, empty F) by its mask C, and the pattern scheme's
    leaf keys an oracle leaf by (i, its mask). The first occurrence of a key
    runs and is audited in full. A repeat is answered from the memo and
    counted as what it stands for, and none of its own checks run again, as
    they would read the same inputs; only the edge into it is audited, by
    its parent like any other. Here the first child with a mask runs under a
    store marker, which records its answer, its subtree's height and
    stats.since(the marker's mark), the counts and measure steps the
    subtree added (see RunStats.mark). A repeat replays them at its own
    turn, so the stats still describe the whole tree, also when the run
    raises after it; the maxima need no replay.
    """
    stats = scheme.stats
    audit, small_leaves = scheme.level >= 2, scheme.small_leaves
    memo = scheme.memo
    # Every split child starts from this family; a family is immutable.
    empty = VertexMultiFamily(table=g.table)
    tasks: list[tuple] = [(1, g, capacity_n, family, None)]
    results: list[tuple[int, int]] = []
    # The deepest node of the innermost subtree being stored, or of the run
    # when none is; a store marker keeps the value it sets aside.
    local = 1
    try:
        while tasks:
            task = tasks.pop()
            depth = task[0]
            if depth < 0:
                if depth == -1:
                    # The take side wins only when strictly heavier, so ties
                    # keep the first-explored (delete) branch's witness.
                    take_weight, take_witness = results.pop()
                    take_weight += task[1]
                    if take_weight > results[-1][0]:
                        results[-1] = take_weight, take_witness | task[2]
                    continue
                _, key, node_depth, outer, mark = task
                memo[key] = results[-1], local - node_depth + 1, stats.since(mark)
                if outer > local:
                    local = outer
                continue
            if not depth:
                _, count, weight, witness = task
                for _ in range(count):
                    answer = results.pop()
                    weight += answer[0]
                    witness |= answer[1]
                results.append((weight, witness))
                continue
            _, g, n_cap, family, mu = task
            if depth > local:
                local = depth
            n = g.mask.bit_count()
            log_n = (n_cap - 1).bit_length()
            if n <= 1 and small_leaves:
                _check_call(g, n, n_cap, log_n, family, scheme, mu)
                results.append((w[g.table.ids[g.mask.bit_length() - 1]], g.mask) if n else (0, 0))
                continue
            # A split child (C, |C|, empty F) is a function of its mask alone:
            # the first one runs under a store marker, a repeat replays it.
            if n == n_cap and depth > 1 and not family._raw:
                key = g.mask
                hit = memo.get(key)
                if hit is not None:
                    answer, height, record = hit
                    results.append(answer)
                    stats.replay(record)
                    bottom = depth + height - 1
                    if bottom > local:
                        local = bottom
                    continue
                tasks.append((-2, key, depth, local, stats.mark()))
                local = depth
            # Consecutive growths of F keep the same graph, so they run as a
            # loop in this node rather than as new ones. Every iteration is one
            # call of the recursion and is counted and checked as such; only
            # the first asks for the split, which depends on G and N alone. At
            # "paranoid" each iteration's potential comes from the edge into it.
            adds_in_a_row = 0
            while True:
                parent_mu = _check_call(g, n, n_cap, log_n, family, scheme, mu)

                if not adds_in_a_row and (split := scheme.split(g, n_cap)) is not None:
                    stats.component_recursions += 1
                    children, weight, witness = [], 0, 0
                    for comp in split:
                        size, child_mu = comp.bit_count(), None
                        if parent_mu is not None:
                            child_mu = _check_edge(
                                parent_mu, size, size, empty, RULE_COMPONENT, scheme
                            )
                        if size == 1 and small_leaves:
                            # A one-vertex part is answered here, as its own call.
                            _check_call(None, 1, 1, 0, empty, scheme, child_mu)
                            weight += w[g.table.ids[comp.bit_length() - 1]]
                            witness |= comp
                        else:
                            children.append(
                                (depth + 1, induced_subgraph(g, comp), size, empty, child_mu)
                            )
                    if len(children) < len(split) and local == depth:
                        local += 1
                    tasks.append((0, len(children), weight, witness))
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
                    # This node's paranoid _check_call built the bounds of N.
                    level_bound = scheme._bounds[n_cap][0]
                    if level_bound is not None:
                        check_level_growth(family.level_sizes(), grown.level_sizes(), *level_bound)
                if parent_mu is not None:
                    mu = _check_edge(parent_mu, n, n_cap, grown, scheme.growth_rule, scheme)
                family = grown
        return results[0]
    finally:
        # A raise leaves the store markers of its enclosing subtrees open.
        for task in tasks:
            if task[0] == -2 and task[3] > local:
                local = task[3]
        if local > stats.max_depth:
            stats.max_depth = local


class _PathScheme(Scheme):
    """Component split and separator growth; k is the claimed path bound."""

    noun = "separator"
    growth_rule = RULE_ADD_SEPARATOR
    small_leaves = True

    def __init__(self, level: int, k: int | None):
        super().__init__(level)
        self.k, self.params, self.claimed = k, {"k": k}, k is not None
        self._core: tuple[Graph | None, int] = (None, 0)

    def split(self, g: Graph, n_cap: int) -> list[int] | None:
        # component_masks' components, or None as soon as one passes N/2.
        half, adj, rest, parts = n_cap // 2, g.table.adj, g.mask, []
        if rest and not half:
            return None
        while rest:
            comp = todo = rest & -rest
            while todo:
                low = todo & -todo
                todo ^= low
                if new := adj[low.bit_length() - 1] & rest & ~comp:
                    comp |= new
                    if comp.bit_count() > half:
                        return None
                    if comp == rest:
                        break
                    todo |= new
            parts.append(comp)
            rest ^= comp
        return parts

    def anchor(self, g: Graph, family: VertexMultiFamily) -> int:
        # The core depends on G alone, and consecutive growths keep G.
        if self._core[0] is not g:
            self._core = g, balanced_separator_core(g, 2)
        return self._core[1]

    def record_growth(self) -> None:
        self.stats.separators_added += 1

    def family_excess(self, size: int, log_n: int) -> tuple[str, int] | None:
        bound = 10 * self.k * log_n
        return None if size <= bound else (f"|F| = {size} exceeds 10k log(N) = {bound}", bound)

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

    def ceiling(self, n_cap: int) -> int | None:
        return None if self.k is None else max_measure_k(n_cap, self.k)


def _run(
    scheme: Scheme,
    g: Graph,
    w: WeightMap,
    capacity_n: int | None = None,
    family: VertexMultiFamily | None = None,
) -> SolveResult:
    """Drive the validated root (g, w, N, F) and verify the witness at every level.

    N defaults to max(1, |V(g)|) and F to the empty family over g's table.
    The recursion's witness mask is verified as it is, then decoded here,
    once, into the result that also carries the scheme's stats.
    """
    if capacity_n is None:
        capacity_n = max(1, g.n)
    if family is None:
        family = VertexMultiFamily(table=g.table)
    weight, mask = drive(scheme, g, w, capacity_n, family)
    verify_witness(g, w, weight, mask)
    return SolveResult(weight, g.table.decode(mask), scheme.stats)


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

    The result is exact for every input graph; the quasi-polynomial call
    bound needs g to have no induced path on k_hint vertices. Given k_hint,
    the k-dependent run invariants are additionally checked (at
    assertion_level "fair" the family-size bound, at "paranoid" also the
    per-call separator balance, level bounds, potential bounds, and per-edge
    potential decreases, and a k_hint of at most 3 against g itself).

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
    level = _parse_level(assertion_level)
    if level >= 2 and k_hint is not None and k_hint <= 3:
        path = _induced_path(g, k_hint)
        if path:
            v = path[0]
            message = f"k_hint = {k_hint} claims no induced P_{k_hint}, but vertex {v} is on one"
            raise InvariantViolation("path-claim", message, {"k": k_hint, "vertex": v})
    return _run(_PathScheme(level, k_hint), g, w, capacity_n, family)


def verify_witness(g: Graph, w: WeightMap, weight: int, witness: VertexSet) -> None:
    """Raise unless witness is independent in g and weighs exactly weight.

    witness is ids, or a mask over g's table, which is checked as it is,
    without decoding. Runs at every assertion level; the cost is
    O(|witness|) mask operations.
    """
    table = g.table
    if not isinstance(witness, int):
        ids = list(witness)
        foreign = [v for v in ids if v not in g]
        if foreign:
            raise InvariantViolation(
                "witness", f"witness contains vertices outside the graph: {sorted(foreign)}", {}
            )
        witness = table.mask(ids)
        if witness.bit_count() != len(ids):
            raise InvariantViolation("witness", "reported witness is not independent", {})
    elif witness & ~g.mask:
        raise InvariantViolation("witness", "witness mask has bits outside the graph", {})
    ranks = list(table.ranks(witness))
    if any(table.adj[r] & witness for r in ranks):
        raise InvariantViolation("witness", "reported witness is not independent", {})
    got = sum(w[table.ids[r]] for r in ranks)
    if got != weight:
        raise InvariantViolation(
            "witness", f"witness weight {got} != reported optimum {weight}", {}
        )
