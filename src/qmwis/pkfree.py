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
one vertex without running it; the answer still counts as one call at its
own depth.

Every run starts in _run, after the public entry, solve_pkfree or
solve_hfree, has validated its input once.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import separators
from .graph import (
    Graph,
    VertexSet,
    WeightMap,
    _check_positive,
    closed_neighborhood,
    component_masks,
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
    assert_recurrence_step,
    check_level_growth,
    check_level_sizes,
    max_measure_k,
    measure_k,
)
from .levels import VertexMultiFamily, find_branchable
from .separators import _induced_path, balanced_separator_core, verify_balanced

_LEVELS = {"off": 0, "fair": 1, "paranoid": 2}

# Builds each run's one memo (see drive). A dict whose get never hits,
# swapped in here, runs every node and invokes an oracle on every leaf
# component of at least 3 vertices: the memo-free reference the memo is
# tested against.
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
    whether drive answers a graph of at most one vertex without running it,
    with no split, branch or anchor (small_leaves). Hooks:

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
    g: Graph,
    n: int,
    n_cap: int,
    log_n: int,
    family: VertexMultiFamily,
    scheme: Scheme,
    mu: int | None = None,
) -> int | None:
    """Per-call checks on g, n = |V(g)|, log_n = ceil(log2 N); the potential when measurable.

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


# The kind that starts each of drive's tasks; drive lists their fields.
_NODE, _SUM, _PICK, _STORE = range(4)


def drive(
    scheme: Scheme, g: Graph, w: WeightMap, capacity_n: int, family: VertexMultiFamily
) -> tuple[int, int]:
    """Run the shared recursion from the root (g, w, N, F) to its answer.

    Answers are (weight, witness mask over g's table). When every leaf's is
    the heaviest independent set, ties to the larger mask, so is the root's:
    a branch keeps the larger of its two (weight, mask) pairs, and disjoint
    parts' pairs add up to the whole's. A task is one of

      (_NODE, depth, graph, mask, N, F, potential)  the call on G[mask], the
          root at depth 1; graph is None for a split part until it runs;
      (_SUM, count)       the sum of the count answers on top;
      (_PICK, w(v), bit)  the larger of a branch's delete and take answers;
      (_STORE, mask, depth, outer, mark)  the answer on top, kept in the memo.

    A split or a branch pushes its children in reverse above its marker, so
    they run one after another in batch order and every counter comes out
    the same on every run. A parent potential exists only at "paranoid"
    with a claimed bound, so only then are the edges to the children
    audited. scheme.stats.max_depth gets the deepest node, also when the
    run raises.

    One place answers a node without running it: under small_leaves a node
    of at most one vertex, checked as one call, and a repeated split part,
    from the memo.

    The memo rule, at every level. A run keeps one memo, scheme.memo. A key
    names a subproblem that, with the run's table, w and scheme fixed, is a
    function of the key alone, and so is every check it makes: drive keys a
    split part (C, |C|, empty F) by its mask C, and the pattern scheme's
    leaf keys an oracle leaf, and each of its components of at least 3
    vertices, by (i, its mask). The first occurrence of a key runs and is
    audited in full, a component within its leaf. A repeat is answered from
    the memo and counted as what it stands for, and none of its own checks
    run again, as they would read the same inputs; only the edge into it is
    audited, by its parent like any other. Here the first part with a mask
    runs under a store marker, which records its answer, its subtree's
    height and stats.since(the marker's mark), the counts and measure steps
    the subtree added (see RunStats.mark). A repeat replays them at its own
    turn, so the stats still describe the whole tree, also when the run
    raises after it; the maxima need no replay.
    """
    stats, memo = scheme.stats, scheme.memo
    audit, small_leaves = scheme.level >= 2, scheme.small_leaves
    root, table = g, g.table
    # Every split part starts from this family; a family is immutable.
    empty = VertexMultiFamily(table=table)
    tasks: list[tuple] = [(_NODE, 1, g, g.mask, capacity_n, family, None)]
    results: list[tuple[int, int]] = []
    # The deepest node of the innermost subtree being stored, or of the run
    # when none is; a store marker keeps the value it sets aside.
    local = 1
    try:
        while tasks:
            task = tasks.pop()
            kind = task[0]
            if kind != _NODE:
                if kind == _PICK:
                    weight, witness = results.pop()
                    weight += task[1]
                    delete = results[-1]
                    if weight > delete[0] or weight == delete[0] and witness | task[2] > delete[1]:
                        results[-1] = weight, witness | task[2]
                elif kind == _SUM:
                    weight = witness = 0
                    for _ in range(task[1]):
                        answer = results.pop()
                        weight += answer[0]
                        witness |= answer[1]
                    results.append((weight, witness))
                else:
                    _, key, node_depth, outer, mark = task
                    memo[key] = results[-1], local - node_depth + 1, stats.since(mark)
                    if outer > local:
                        local = outer
                continue
            _, depth, g, mask, n_cap, family, mu = task
            if depth > local:
                local = depth
            n = mask.bit_count()
            log_n = (n_cap - 1).bit_length()
            # The one place that answers a node without running it.
            answer = None
            if n <= 1 and small_leaves:
                # One call, checked on its own graph; a split part's is made
                # here only for the check.
                own = Graph._sub(table, mask) if g is None else g
                _check_call(own, n, n_cap, log_n, family, scheme, mu)
                answer = (w[table.ids[mask.bit_length() - 1]], mask) if n else (0, 0)
            elif g is None:
                # A split part (C, |C|, empty F) is a function of its mask
                # alone: the first one runs under a store marker, a repeat
                # replays it.
                hit = memo.get(mask)
                if hit is not None:
                    answer, height, record = hit
                    stats.replay(record)
                    if depth + height - 1 > local:
                        local = depth + height - 1
                else:
                    tasks.append((_STORE, mask, depth, local, stats.mark()))
                    local = depth
                    g = induced_subgraph(root, mask)
            if answer is not None:
                results.append(answer)
                continue
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
                    parts = []
                    for comp in split:
                        size, child_mu = comp.bit_count(), None
                        if parent_mu is not None:
                            child_mu = _check_edge(
                                parent_mu, size, size, empty, RULE_COMPONENT, scheme
                            )
                        parts.append((_NODE, depth + 1, None, comp, size, empty, child_mu))
                    tasks.append((_SUM, len(parts)))
                    tasks += reversed(parts)
                    break

                # A family with no level has no branchable vertex.
                v = find_branchable(g, family, n_cap) if family.level_masks else None
                if v is not None:
                    stats.branch_steps += 1
                    # The two children drop {v} and N[v].
                    r = table.rank[v]
                    bit = 1 << r
                    closed_v = table.closed_adj[r] & mask
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
                    tasks.append((_PICK, w[v], bit))
                    tasks.append((_NODE, depth + 1, take_g, take_g.mask, n_cap, take_f, take_mu))
                    tasks.append(
                        (_NODE, depth + 1, delete_g, delete_g.mask, n_cap, delete_f, delete_mu)
                    )
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
            if task[0] == _STORE and task[3] > local:
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
        return component_masks(g.table.adj, g.mask, limit=n_cap // 2)

    def anchor(self, g: Graph, family: VertexMultiFamily) -> int:
        # The core depends on G alone, and consecutive growths keep G.
        if self._core[0] is not g:
            core, k = balanced_separator_core(g, 2), self.k
            # G[X] is an induced subgraph of G, so an induced P_k inside the
            # core X refutes a claim of k >= 4; the root decides k <= 3.
            if self.level >= 2 and k is not None and k >= 4 and core.bit_count() >= k:
                _check_path_claim(k, separators._induced_path(Graph._sub(g.table, core), k))
            self._core = g, core
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
    potential decreases, and a k_hint of at most 3 against g itself, a
    larger one against each separator core of at least k_hint vertices).

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
        _check_path_claim(k_hint, _induced_path(g, k_hint))
    return _run(_PathScheme(level, k_hint), g, w, capacity_n, family)


def _check_path_claim(k: int, path: list[int] | None) -> None:
    """Raise path-claim, naming path's first vertex, when an induced P_k was found."""
    if path:
        v = path[0]
        message = f"k_hint = {k} claims no induced P_{k}, but vertex {v} is on one"
        raise InvariantViolation("path-claim", message, {"k": k, "vertex": v})


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
