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

drive runs the recursion from _run and a Scheme supplies only what differs:
the path scheme (solve_pkfree) here, the pattern scheme in hfree.py.
"""

from __future__ import annotations

from typing import NamedTuple

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

# Builds each run's memo (see drive); tests swap in one that never hits.
_new_memo = dict


class SolveResult(NamedTuple):
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
    whether the run claims the family bound and the potential (claimed) and
    whether drive answers a graph of at most one vertex without running it,
    with no split, branch or anchor (small_leaves). Hooks:

      split(g, N)          component masks to solve apart, or None; asked
                           once per graph, as growing F cannot change it.
                           A scheme that splits reads neither w nor ids
                           when it splits, branches or grows F, so a
                           part's subtree depends on its shape alone;
      anchor(g, F)         the mask of X whose N[X] grows F, or None;
      record_growth()      count one growth of F in stats;
      leaf(g, w, F)        the answer when anchor finds nothing, its witness
                           a mask over g's table;
      family_excess(s, L)  (message, bound) if |F| = s breaks its bound at
                           log(N) = L;
      check_members(g, F, N)  paranoid checks of F's members;
      level_bound(N)       (bound, label, details) of the level-size and
                           level-growth audits, or None when unclaimed;
      potential(n, N, F)   the integer potential, or None where unproven;
      ceiling(N)           the potential's proven ceiling.

    family_excess, potential and ceiling are asked only when claimed.
    """

    claimed = small_leaves = False

    def __init__(self, level: int):
        self.level, self.stats, self.memo = level, RunStats(), _new_memo()
        # (level_bound(N), ceiling(N) if claimed) per N, built by N's first paranoid call.
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

    Of the stats it counts the call alone (see RunStats). g is read only by
    the member checks of a non-empty F, so a split part, whose F is empty,
    may pass None. At "paranoid", mu is the potential the edge into this
    call computed, or None to compute it here; every check runs on the
    value either way.
    """
    scheme.stats.calls += 1
    if scheme.level < 1:
        return None
    # The member count, read without the Python-level call of len(family).
    size = len(family._raw)

    if n > n_cap:
        raise InvariantViolation(
            "fair-shape", f"|V(G)| = {n} exceeds N = {n_cap}", {"n": n, "N": n_cap}
        )
    # Level emptiness rests on a pigeonhole over level log(N). It and the
    # family and chain bounds are audited only from N = 2: at N = 1 a pattern
    # run's lone-vertex component legitimately adds a member to level 1, and
    # a path run's node has an empty F and at most one vertex.
    if n_cap >= 2:
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
    if scheme.level < 2:
        return None

    bounds = scheme._bounds.get(n_cap)
    if bounds is None:
        ceiling = scheme.ceiling(n_cap) if scheme.claimed else None
        bounds = scheme._bounds[n_cap] = scheme.level_bound(n_cap), ceiling
    level_bound, ceiling = bounds
    # An empty F has no level and no member: these checks would read nothing.
    if size:
        scheme.check_members(g, family, n_cap)
        if level_bound is not None:
            check_level_sizes(family.level_sizes(), size, level_bound[0], level_bound[1])
    if mu is None:
        if not scheme.claimed or (mu := scheme.potential(n, n_cap, family)) is None:
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

_MAXIMAL_SETS: dict[tuple[int, int], list[tuple[int, ...]]] = {}


def _shape(adj: list[int], mask: int) -> tuple[tuple[int, int], list[int]]:
    """The part mask's shape key, (n, upper-triangle adjacency bits in rank order), and ranks."""
    ranks, code = [], 0
    while mask:
        r = (mask & -mask).bit_length() - 1
        for s in ranks:
            code = code << 1 | adj[s] >> r & 1
        ranks.append(r)
        mask ^= 1 << r
    if (key := (len(ranks), code)) not in _MAXIMAL_SETS:
        sets = []
        for chosen in range(1, 1 << len(ranks)):
            picked = sum(1 << r for i, r in enumerate(ranks) if chosen >> i & 1)
            # Independent, and every vertex left out has a neighbor in it.
            if all(not adj[r] & picked if 1 << r & picked else adj[r] & picked for r in ranks):
                sets.append(tuple(i for i in range(len(ranks)) if chosen >> i & 1))
        _MAXIMAL_SETS[key] = sets  # Published whole: concurrent runs see no partial entry.
    return key, ranks


def _heaviest(sets: list, ranks: list[int], w: WeightMap, ids: tuple[int, ...]) -> tuple[int, int]:
    """The heaviest of a part's maximal independent sets, ties to the larger mask."""
    best = -1, 0
    for s in sets:
        weight = mask = 0
        for i in s:
            weight += w[ids[ranks[i]]]
            mask |= 1 << ranks[i]
        if (weight, mask) > best:
            best = weight, mask
    return best


def drive(
    scheme: Scheme, g: Graph, w: WeightMap, capacity_n: int, family: VertexMultiFamily
) -> tuple[int, int]:
    """Run the shared recursion from the root (g, w, N, F), F over g's table, to its answer.

    The tie rule. Answers are (weight, witness mask over g's table). When
    every leaf's is the heaviest independent set, ties to the larger mask,
    so is the root's: a branch keeps the larger of its two (weight, mask)
    pairs, and disjoint parts' pairs add up to the whole's.

    The depth grows like n * log(N) * k through alternating branch and
    growth steps, far past CPython's recursion limit, so the recursion runs
    as one loop over a stack of tasks, each one of

      (_NODE, depth, graph, mask, N, F, potential)  the call on G[mask], the
          root at depth 1; graph is None for a split part until it runs;
      (_SUM, count)       the sum of the count answers on top;
      (_PICK, w(v), bit)  the larger of a branch's delete and take answers;
      (_STORE, mask, depth, outer, mark, shape)  memoizes the answer on top,
          and under a shape key also its maximal sets.

    A split or a branch pushes its children in reverse above its marker, so
    they run one after another in batch order and every counter comes out
    the same on every run. A parent potential exists only at "paranoid"
    with a claimed bound, so only then are the edges to the children
    audited. drive sets scheme.stats' maxima (see RunStats), max_depth
    also when the run raises. Under small_leaves a node of at most one
    vertex is answered without running it, checked as one call at its own depth.

    The memo rule, at every level. A run keeps one memo, scheme.memo. A key
    names a subtree whose calls and checks depend on the key alone, with the
    run's table, w and scheme fixed: a split part (C, |C|, empty F) is keyed
    by its mask C, and a pattern leaf, and each of its components of at
    least 3 vertices, by (i, its mask). The first occurrence of a key runs
    and is audited in full, a component within its leaf. A repeat is
    answered from the memo and counted as what it stands for; only the edge
    into it is audited. A split part's first occurrence runs under a store
    marker that records its answer, its subtree's height and
    stats.since(its mark); a repeat replays them at its own turn, so the
    stats still describe the whole tree, also when the run raises after it.
    A part of 2 to 4 vertices is looked up by mask first, then by its
    _shape, which holds (maximal sets, height, record) in place of the
    answer: by the split hook's premise its subtree depends on its shape
    alone, and by the tie rule and w >= 0 the answer is the heaviest of its
    maximal independent sets, ties to the larger mask. A part's first
    occurrence by mask stores the answer under its mask, and, on a first
    occurrence of its shape too, the sets under the shape. Shape keys
    (n, code) and the pattern leaf's keys (i, mask) are both pairs of ints
    in the one memo; they never meet, as only the path scheme splits and
    only the pattern scheme has leaves.
    """
    stats, memo = scheme.stats, scheme.memo
    audit, small_leaves = scheme.level >= 2, scheme.small_leaves
    root, table = g, g.table
    # Every split part starts from this family; a family is immutable.
    empty = VertexMultiFamily(table=table)
    # Each node's graph lies in the root's, and only a growth adds to F: a
    # subtraction keeps |F| and only shrinks levels; split parts start empty.
    stats.max_graph_size, stats.max_family_size = g.n, len(family._raw)
    if audit:
        stats.record_levels(family.level_sizes())
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
                    _, key, node_depth, outer, mark, shape = task
                    height, record = local - node_depth + 1, stats.since(mark)
                    memo[key] = results[-1], height, record
                    if shape is not None:
                        memo[shape] = _MAXIMAL_SETS[shape], height, record
                    if outer > local:
                        local = outer
                continue
            _, depth, g, mask, n_cap, family, mu = task
            if depth > local:
                local = depth
            n = mask.bit_count()
            log_n = (n_cap - 1).bit_length()
            answer = None
            if n <= 1 and small_leaves:
                _check_call(g, n, n_cap, log_n, family, scheme, mu)
                answer = (w[table.ids[mask.bit_length() - 1]], mask) if n else (0, 0)
            elif g is None:
                hit, shape = memo.get(mask), None
                if hit is None and n <= 4:
                    shape, ranks = _shape(table.adj, mask)
                    hit = memo.get(shape)
                    if hit is not None:
                        sets, height, record = hit
                        hit = memo[mask] = _heaviest(sets, ranks, w, table.ids), height, record
                if hit is not None:
                    answer, height, record = hit
                    stats.replay(record)
                    if depth + height - 1 > local:
                        local = depth + height - 1
                else:
                    tasks.append((_STORE, mask, depth, local, stats.mark(), shape))
                    local = depth
                    g = induced_subgraph(root, mask)
            if answer is not None:
                results.append(answer)
                continue
            # Consecutive growths of F keep the same graph, so they run as a
            # loop in this node rather than as new ones. Every iteration is one
            # call of the recursion and is counted and checked as such; only
            # the first asks for the split. At "paranoid" each iteration's
            # potential comes from the edge into it.
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
                    if audit:
                        # Rule 2 fires only on a vertex that meets some level's threshold.
                        i = 0
                        for level in family.level_masks:
                            i += 1
                            if (closed_v & level).bit_count() << i >= n_cap:
                                break
                        else:
                            raise InvariantViolation(
                                "branch-threshold",
                                f"vertex {v} meets no threshold N / 2^i (N = {n_cap})",
                                {"vertex": v, "N": n_cap},
                            )
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
                # Audited from N = 2, as _check_call's bounds are.
                if adds_in_a_row > n * log_n and scheme.level >= 1 and n_cap >= 2:
                    raise InvariantViolation(
                        f"{scheme.noun}-chain",
                        f"{adds_in_a_row} {scheme.noun} additions in a row exceeds |V(G)| log(N)",
                        {"chain": adds_in_a_row, "n": n, "N": n_cap},
                    )
                scheme.record_growth()
                grown = family.add(member)
                if audit:
                    # This node's paranoid _check_call built the bounds of N.
                    level_bound, sizes = scheme._bounds[n_cap][0], grown.level_sizes()
                    if level_bound is not None:
                        check_level_growth(family.level_sizes(), sizes, *level_bound)
                    stats.record_levels(sizes)
                if parent_mu is not None:
                    mu = _check_edge(parent_mu, n, n_cap, grown, scheme.growth_rule, scheme)
                family = grown
                if (size := len(family._raw)) > stats.max_family_size:
                    stats.max_family_size = size
        return results[0]
    finally:
        # A raise leaves the store markers of its enclosing subtrees open.
        for task in tasks:
            if task[0] == _STORE and task[3] > local:
                local = task[3]
        if local > stats.max_depth:
            stats.max_depth = local


class _PathScheme(Scheme):
    """The path scheme; k is the claimed path bound.

    It splits a graph whose components all have at most N/2 vertices, and
    grows F by the closed neighborhood of a balanced separator core, which
    a non-empty graph always has, so it needs no leaf.
    """

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

    def potential(self, graph_size: int, n_cap: int, family: VertexMultiFamily) -> int:
        return measure_k(graph_size, n_cap, family, self.k)

    def ceiling(self, n_cap: int) -> int:
        return max_measure_k(n_cap, self.k)


def _root(scheme: Scheme, g: Graph, w: WeightMap) -> tuple[int, int]:
    """Drive the validated root (g, w, max(1, |V(g)|), empty F); verify its witness mask."""
    weight, mask = drive(scheme, g, w, max(1, g.n), VertexMultiFamily(table=g.table))
    # A run that returns checked each of its calls at "fair" and "paranoid".
    scheme.stats.assertions_checked = scheme.stats.calls if scheme.level else 0
    verify_witness(g, w, weight, mask)
    return weight, mask


def _run(scheme: Scheme, g: Graph, w: WeightMap) -> SolveResult:
    """_root's answer with its witness decoded, and the run's stats."""
    weight, mask = _root(scheme, g, w)
    return SolveResult(weight, g.table.decode(mask), scheme.stats)


def solve_pkfree(
    g: Graph, w: WeightMap, k_hint: int | None = None, assertion_level: str = "fair"
) -> SolveResult:
    """Maximum-weight independent set of g under w.

    The result is exact for every input graph; the quasi-polynomial call
    bound needs g to have no induced path on k_hint vertices. Given k_hint,
    the k-dependent run invariants are additionally checked (at
    assertion_level "fair" the family-size bound, at "paranoid" also the
    per-call separator balance, level bounds, potential bounds, and per-edge
    potential decreases, and a k_hint of at most 3 against g itself, a
    larger one against each separator core of at least k_hint vertices).

    Args:
        g: input graph.
        w: non-negative integer weights, defined on every vertex.
        k_hint: claimed induced-path bound, an integer >= 1; instrumentation only.
        assertion_level: "off", "fair", or "paranoid".

    Returns:
        SolveResult with weight, a witness independent set, and run stats.
    """
    if k_hint is not None:
        _check_positive("k_hint", k_hint)
    validate_weights(g, w)
    level = _parse_level(assertion_level)
    if level >= 2 and k_hint is not None and k_hint <= 3:
        _check_path_claim(k_hint, _induced_path(g, k_hint))
    return _run(_PathScheme(level, k_hint), g, w)


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
