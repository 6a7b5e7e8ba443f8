"""Exact MWIS for graphs excluding a disconnected pattern, via oracles.

The pattern H is a disjoint union of connected graphs H_0 .. H_{c-1}. The
solver owns one oracle per component; an oracle returns a maximum-weight
independent set with its weight and must be exact on graphs with no induced
copy of its component. It may do anything elsewhere, because the solver only
consults it on graphs it has verified to be that-component-free.

The pattern scheme below drives the shared recursion of pkfree.py. Each
call on (G, w, N, F) picks i = |F| mod c and applies the first rule that
fits:

  1. a branchable vertex v exists: best of solving without v and solving
     without N[v] plus w(v);
  2. G has an induced copy X of H_i: grow F by N[X] and retry;
  3. neither: return the i-th oracle's answer, valid since G is H_i-free,
     one connected component of G at a time.

N never changes and there is no component split. The result is exact for
every input graph as long as the oracles honor their contract. The
assume_hfree flag enables the pattern-dependent audit bounds, which are
proven only for runs whose root graph has no induced H.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .graph import (
    Graph,
    WeightMap,
    _check_positive,
    component_masks,
    connected_components,
    induced_subgraph,
    validate_weights,
)
from .instrumentation import (
    RULE_ADD_NEIGHBORHOOD,
    InvariantViolation,
    max_measure_h,
    measure_h,
)
from .levels import VertexMultiFamily
from .oracle import (
    DEFAULT_BRUTE_FORCE_CAP,
    GraphTooLarge,
    _brute_force_mask,
    _small_component,
)
from .pkfree import (
    Scheme,
    SolveResult,
    _parse_level,
    _PathScheme,
    _run,
    verify_witness,
)


@dataclass(frozen=True)
class PatternGraph:
    """A forbidden pattern, as its connected components H_0 .. H_{c-1} in a fixed order.

    Each component keeps its own vertex ids, so their id ranges may overlap.
    """

    components: tuple[Graph, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("a pattern needs at least one component")
        for part in self.components:
            if part.n == 0:
                raise ValueError("pattern components must be non-empty")
            if len(connected_components(part)) != 1:
                raise ValueError("every pattern component must be connected")

    @property
    def total_size(self) -> int:
        """|H|, the vertex count over all components."""
        return sum(part.n for part in self.components)

    @classmethod
    def from_graph(cls, h: Graph) -> "PatternGraph":
        """Split h into components, ordered by smallest vertex id."""
        if h.n == 0:
            raise ValueError("a pattern needs at least one vertex")
        parts = tuple(induced_subgraph(h, c) for c in connected_components(h))
        return cls(components=parts)


@dataclass(frozen=True)
class ComponentOracle:
    """An exact MWIS procedure for graphs free of one pattern component.

    solve_with_witness returns (weight, witness), the witness a set of ids
    of g; solve returns the same weight alone. Both are required. The
    solver calls only solve_with_witness, and only on connected graphs of
    at least 3 vertices with no induced copy of claimed_pattern; a leaf's
    smaller components it answers itself. claimed_pattern None means the
    oracle is exact on every graph. Within one solve_hfree run each
    distinct (pattern component, vertex set) reaches an oracle at most
    once. The witness may be any optimum, so solve_hfree's is the heaviest
    independent set, ties to the larger mask, only when every oracle's is,
    as qmwis's are.
    """

    name: str
    solve: Callable[[Graph, WeightMap], int]
    solve_with_witness: Callable[[Graph, WeightMap], tuple[int, frozenset[int]]]
    claimed_pattern: Graph | None = None


def make_bruteforce_oracle(max_size: int = DEFAULT_BRUTE_FORCE_CAP) -> ComponentOracle:
    """Exponential-search oracle, exact on every graph up to max_size.

    It answers as brute_force_mwis does, through its trusted mask entry:
    it trusts w, which solve_hfree has validated. max_size must be an int
    >= 1; a bool is refused too.
    """
    _check_positive("brute-force cap", max_size)

    def solve(g: Graph, w: WeightMap) -> int:
        return _brute_force_mask(g, w, max_size)[0]

    def solve_with_witness(g: Graph, w: WeightMap) -> tuple[int, frozenset[int]]:
        weight, witness = _brute_force_mask(g, w, max_size)
        return weight, g.table.decode(witness)

    return ComponentOracle(
        name=f"bruteforce<={max_size}",
        solve=solve,
        solve_with_witness=solve_with_witness,
    )


def make_pk_oracle(k: int) -> ComponentOracle:
    """Oracle for a path component: brute force up to the cap, else the path-free solver.

    A graph of at most DEFAULT_BRUTE_FORCE_CAP vertices is answered by
    brute_force_mwis's mask entry, which is faster there than the
    recursion; a larger one by the path-free solver's recursion at level
    "off". solve_hfree hands it only connected graphs, so that size is one
    leaf component's. Both are exact on every graph, so the oracle is too;
    the claimed pattern just records the component it is meant for. It
    trusts w, which solve_hfree has validated, and verifies the witness on
    both branches, the brute-force one as a mask before decoding it. k must
    be an int >= 1; a bool is refused too.
    """
    _check_positive("path length", k)
    path = Graph(range(1, k + 1), [(i, i + 1) for i in range(1, k)])

    def solve_with_witness(g: Graph, w: WeightMap) -> tuple[int, frozenset[int]]:
        if g.mask.bit_count() > DEFAULT_BRUTE_FORCE_CAP:
            result = _run(_PathScheme(0, None), g, w)
            return result.weight, result.witness
        weight, witness = _brute_force_mask(g, w)
        verify_witness(g, w, weight, witness)
        return weight, g.table.decode(witness)

    def solve(g: Graph, w: WeightMap) -> int:
        return solve_with_witness(g, w)[0]

    return ComponentOracle(
        name=f"p{k}",
        solve=solve,
        solve_with_witness=solve_with_witness,
        claimed_pattern=path,
    )


def find_induced_copy(g: Graph, h: Graph) -> frozenset[int] | None:
    """Vertex set of an induced copy of h in g, or None if there is none.

    Deterministic: mapping h's vertices in increasing id order, the chosen
    embedding is the lexicographically smallest image sequence. Works for
    disconnected h too (component images must be mutually non-adjacent, as
    induced embedding already requires). The backtracking search keeps one
    candidate mask per pattern position on an explicit stack, so its depth
    is not bounded by the interpreter's recursion limit. The mask of
    position t holds exactly the live vertices that extend the images
    placed so far: adjacent to the image of every earlier neighbour of t in
    h, and neither equal nor adjacent to any other earlier image. Only the
    degree filter is left to test per candidate.

    The plan, h's anchors and degrees, depends on h alone. It is built on
    the first search for h and kept in h's _plan slot, so a pattern searched
    on every recursion call pays its O(|V(h)|^2) set-up once.
    """
    size = h.mask.bit_count()
    if not size:
        return frozenset()
    if size > g.mask.bit_count():
        return None
    if h._plan is None:
        # An image of pattern vertex t (t-th smallest id) must have at least
        # its degree and, among the images already placed, be adjacent to
        # exactly those of anchors[t].
        h_adj, h_live = h.table.adj, h.mask
        order = list(h.table.ranks(h_live))
        h._plan = (
            [[j for j in range(t) if h_adj[order[t]] >> order[j] & 1] for t in range(size)],
            [(h_adj[r] & h_live).bit_count() for r in order],
        )
    anchors, degrees = h._plan
    adj, closed, live = g.table.adj, g.table.closed_adj, g.mask
    images = [0] * size
    pending = [0] * size
    pos = 0
    pending[0] = live
    while True:
        candidates = pending[pos]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            r = low.bit_length() - 1
            if (adj[r] & live).bit_count() >= degrees[pos]:
                break
        else:
            if pos == 0:
                return None
            pos -= 1
            continue
        pending[pos] = candidates
        images[pos] = r
        pos += 1
        if pos == size:
            return frozenset(g.table.ids[r] for r in images)
        candidates = live
        for j in range(pos):
            candidates &= adj[images[j]] if j in anchors[pos] else ~closed[images[j]]
        pending[pos] = candidates


class _PatternScheme(Scheme):
    """Induced-copy growth and oracle leaves for a pattern with c components.

    F grows by N[X] for an induced copy X of component i = |F| mod c, and a
    graph with no such copy goes to oracle i, one connected component at a
    time. assume_hfree claims the root graph has no induced copy of the
    whole pattern; only then are the family bound and the potential
    audited. _searched keeps, per component, the last anchor search's
    (graph mask, copy mask or None).
    """

    noun = "neighborhood"
    growth_rule = RULE_ADD_NEIGHBORHOOD
    audit_from_n = 2

    def __init__(self, level: int, pattern: PatternGraph, oracles: tuple, assume_hfree: bool):
        super().__init__(level)
        self.pattern, self.oracles, self.claimed = pattern, oracles, assume_hfree
        self.size, self.c = pattern.total_size, len(pattern.components)
        self.params = {"pattern_size": self.size, "pattern_components": self.c}
        self._searched: list[tuple[int, int | None] | None] = [None] * self.c

    def anchor(self, g: Graph, family: VertexMultiFamily) -> int | None:
        """The mask of find_induced_copy's copy of H_i in g, or None; i = |F| mod c.

        A stored (i, mask) is an H_i-free graph whose answer waits in the
        memo: a leaf, or a component of one that reached the oracle, which
        is H_i-free as an induced subgraph of that leaf. Otherwise the last
        search for H_i answers when g lies inside the graph it searched and
        its copy, if any, inside g: an induced subgraph of an H_i-free graph
        is H_i-free, and the lexicographically first copy stays first in
        any induced subgraph holding it. Only a fresh search is recorded.
        """
        index, mask = len(family._raw) % self.c, g.mask
        if self.memo.get((index, mask)) is not None:
            return None
        last = self._searched[index]
        if last is not None and not mask & ~last[0]:
            copy = last[1]
            if copy is None or not copy & ~mask:
                return copy
        found = find_induced_copy(g, self.pattern.components[index])
        copy = None if found is None else g.table.mask(found)
        self._searched[index] = mask, copy
        return copy

    def record_growth(self) -> None:
        self.stats.neighborhoods_added_count += 1

    def family_excess(self, size: int, log_n: int) -> tuple[str, int] | None:
        bound = self.c * self.size * log_n
        if size < bound:
            return None
        return f"|F| = {size} reached c |H| log(N) = {bound}", bound

    def level_bound(self, n_cap: int) -> tuple[int, str, dict]:
        # Adding one copy's neighborhood grows level i by at most
        # |H| Delta_(i-1) vertices; this needs no freeness claim.
        return self.size * n_cap, "|H|", {"N": n_cap, "pattern_size": self.size}

    def potential(self, graph_size: int, n_cap: int, family: VertexMultiFamily) -> int | None:
        if not self.claimed or n_cap < 2:
            return None
        return measure_h(graph_size, n_cap, family, self.size, self.c)

    def ceiling(self, n_cap: int) -> int:
        return max_measure_h(n_cap, self.size, self.c)

    def leaf(self, g: Graph, w: WeightMap, family: VertexMultiFamily) -> tuple[int, int]:
        """Oracle i's answer, its witness encoded as a mask over g's table.

        g is H_i-free, and so is each of its components; the heaviest set,
        ties to the larger mask, of g is the union of theirs. A component of
        one or two vertices is answered here, as brute force answers it. A
        larger one goes to oracle i, the whole g when g is connected, and
        the run's memo keeps its answer under (i, its mask); g's own answer
        is kept under (i, g's mask). These keys are complete, since every
        leaf graph of a run shares the root table and w; drive states the
        memo rule. Each leaf counts as one oracle call, however many
        components reach the oracle. At "paranoid" a leaf's first occurrence
        must be free of the oracle's component, and each oracle witness is
        verified. A GraphTooLarge from the oracle is raised again, naming
        the oracle and the size of the graph it was given.
        """
        index = len(family._raw) % self.c
        key = index, g.mask
        memo = self.memo
        answer = memo.get(key)
        if answer is not None:
            self.stats.record_oracle_call(index)
            return answer
        oracle = self.oracles[index]
        if self.level >= 2 and find_induced_copy(g, self.pattern.components[index]) is not None:
            raise InvariantViolation(
                "oracle-validity",
                f"graph handed to oracle {index} ({oracle.name}) has an induced copy "
                "of its forbidden component",
                {"oracle": index, "n": g.n},
            )
        self.stats.record_oracle_call(index)
        table = g.table
        weight = witness = 0
        for comp in component_masks(table.adj, g.mask):
            part = _small_component(table.ids, w, comp)
            if part is None:
                part = memo.get((index, comp))
                if part is None:
                    part = memo[index, comp] = self._oracle_answer(
                        index, g if comp == g.mask else Graph._sub(table, comp), w
                    )
            weight += part[0]
            witness |= part[1]
        answer = memo[key] = weight, witness
        return answer

    def _oracle_answer(self, index: int, g: Graph, w: WeightMap) -> tuple[int, int]:
        """Oracle index's answer on the connected graph g, its witness a mask."""
        oracle = self.oracles[index]
        try:
            weight, witness = oracle.solve_with_witness(g, w)
        except GraphTooLarge as err:
            raise GraphTooLarge(
                f"oracle {index} ({oracle.name}) on a {g.n}-vertex leaf: {err}"
            ) from err
        if self.level >= 2:
            verify_witness(g, w, weight, witness)
        try:
            return weight, g.table.mask(witness)
        except KeyError:
            # An id outside the table, which a mask cannot hold:
            # verify_witness rejects it as the root's check would have.
            verify_witness(g, w, weight, witness)
            raise


def solve_hfree(
    pattern: PatternGraph | Graph,
    g: Graph,
    w: WeightMap,
    oracles: Sequence[ComponentOracle],
    assume_hfree: bool = False,
    assertion_level: str = "fair",
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

    Returns:
        SolveResult with weight, a witness independent set, and run stats.
    """
    if isinstance(pattern, Graph):
        pattern = PatternGraph.from_graph(pattern)
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
    scheme = _PatternScheme(_parse_level(assertion_level), pattern, oracles, assume_hfree)
    return _run(scheme, g, w)
