"""Direct tests of the recursion loop, drive(scheme, g, w, N, F), with toy schemes."""

import sys

import pytest

import qmwis.pkfree as pkfree
from qmwis import (
    GeneratorSpec,
    Graph,
    InvariantViolation,
    VertexMultiFamily,
    generate,
    solve_pkfree,
)
from qmwis.hfree import ComponentOracle, make_bruteforce_oracle, make_pk_oracle, solve_hfree
from qmwis.pkfree import Scheme, _PathScheme, drive


def edgeless(n: int) -> Graph:
    return Graph(range(1, n + 1), [])


def root(g: Graph, capacity_n: int | None = None, weights: dict | None = None) -> tuple:
    """The root (g, w, N, F) that drive takes after the scheme."""
    w = weights if weights is not None else {v: 1 for v in g.vertex_ids()}
    n_cap = max(1, g.n) if capacity_n is None else capacity_n
    return g, w, n_cap, VertexMultiFamily(table=g.table)


class Toy(Scheme):
    """A scheme at level "off" whose hooks the tests override.

    By default it splits a graph of two or more vertices into its lower and
    upper half by rank, grows F by nothing and answers every other graph at
    its leaf with the weight of its vertices; leaves records each leaf's ids.
    """

    noun = "toy"
    growth_rule = "add-toy"

    def __init__(self, small_leaves: bool = False):
        super().__init__(0)
        self.small_leaves = small_leaves
        self.leaves: list[list[int]] = []
        self.growths = 0

    def split(self, g, n_cap):
        ranks = list(g.table.ranks(g.mask))
        if len(ranks) < 2:
            return None
        low = sum(1 << r for r in ranks[: len(ranks) // 2])
        return [low, g.mask & ~low]

    def anchor(self, g, family):
        return None

    def record_growth(self):
        self.growths += 1

    def leaf(self, g, w, family):
        ids = sorted(g.vertex_ids())
        self.leaves.append(ids)
        return sum(w[v] for v in ids), g.mask


def test_drive_sequential_tree():
    # 16 vertices halve into 2^4 one-vertex leaves, each worth 1.
    g, scheme = edgeless(16), Toy()
    assert drive(scheme, *root(g)) == (16, g.mask)
    assert scheme.stats.calls == 2**5 - 1
    assert scheme.stats.max_depth == 5
    assert scheme.stats.component_recursions == 2**4 - 1


def test_drive_linear_chain_depth():
    # A split with one child: each node drops its lowest vertex.
    class Chain(Toy):
        def split(self, g, n_cap):
            return [g.mask & (g.mask - 1)] if g.n > 1 else None

    g, scheme = edgeless(7), Chain()
    weights = {v: 10 * v for v in g.vertex_ids()}
    assert drive(scheme, *root(g, weights=weights)) == (70, g.table.mask({7}))
    assert scheme.stats.calls == 7
    assert scheme.stats.max_depth == 7
    assert scheme.leaves == [[7]]


def test_a_root_leaf_is_one_call_of_depth_one():
    # A root answered at once is one call at depth 1, framed or inline.
    class Leaf(Toy):
        def split(self, g, n_cap):
            return None

    g, scheme = edgeless(3), Leaf()
    assert drive(scheme, *root(g)) == (3, g.mask)
    assert (scheme.stats.calls, scheme.stats.max_depth) == (1, 1)
    for g in (edgeless(0), edgeless(1)):
        scheme = _PathScheme(0, None)
        assert drive(scheme, *root(g)) == (g.n, g.mask)
        assert (scheme.stats.calls, scheme.stats.max_depth) == (1, 1)


def test_drive_empty_batch():
    class Empty(Toy):
        def split(self, g, n_cap):
            return []

    scheme = Empty()
    assert drive(scheme, *root(edgeless(4))) == (0, 0)
    assert (scheme.stats.calls, scheme.stats.max_depth) == (1, 1)
    assert scheme.stats.component_recursions == 1


def test_growth_retries_stay_in_one_frame():
    # Each growth of F is one more call of the same node: the depth stays 1.
    # N is large enough that no level makes a vertex branchable.
    class Grow(Toy):
        def split(self, g, n_cap):
            return None

        def anchor(self, g, family):
            return None if len(family) == 3 else g.mask & -g.mask

        def leaf(self, g, w, family):
            return len(family), 0

    g, scheme = Graph([1, 2, 3], [(1, 2)]), Grow()
    assert drive(scheme, *root(g, capacity_n=10**6)) == (3, 0)
    assert (scheme.stats.calls, scheme.stats.max_depth, scheme.growths) == (4, 1, 3)


def test_a_graph_past_its_budget_breaks_the_fair_shape():
    # solve_pkfree refuses |V(G)| > N before a run starts; at "fair" drive
    # audits the shape of every call itself.
    scheme = _PathScheme(1, None)
    with pytest.raises(InvariantViolation) as info:
        drive(scheme, *root(edgeless(3), capacity_n=2))
    assert info.value.rule == "fair-shape"
    assert str(info.value) == "fair-shape: |V(G)| = 3 exceeds N = 2"
    assert info.value.details == {"n": 3, "N": 2}
    assert scheme.stats.calls == 1


def test_a_growth_chain_past_n_log_n_breaks_the_chain_rule(monkeypatch):
    # An anchor that hands out the next vertex on every growth, in a run
    # where no vertex becomes branchable, grows F without end. At "fair" the
    # chain audit stops it at growth |V(G)| log(N) + 1 = 9; by then each
    # vertex lies in 2 members, so no level past log(N) = 2 is non-empty.
    class Endless(Toy):
        def __init__(self):
            super().__init__()
            self.level = 1

        def split(self, g, n_cap):
            return None

        def anchor(self, g, family):
            ranks = list(g.table.ranks(g.mask))
            return 1 << ranks[self.growths % len(ranks)]

    monkeypatch.setattr(pkfree, "find_branchable", lambda g, family, n_cap: None)
    scheme = Endless()
    with pytest.raises(InvariantViolation) as info:
        drive(scheme, *root(edgeless(4)))
    assert info.value.rule == "toy-chain"
    assert str(info.value) == "toy-chain: 9 toy additions in a row exceeds |V(G)| log(N)"
    assert info.value.details == {"chain": 9, "n": 4, "N": 4}
    assert (scheme.growths, scheme.stats.calls) == (8, 9)


def test_a_branch_with_equal_children_keeps_the_larger_mask_on_ties():
    # One isolated vertex: growing F by N[v] makes v branchable, and both
    # children are the empty graph. At weight 0 the answers tie, and take's
    # mask, holding v, is the larger.
    class Branch(Toy):
        def split(self, g, n_cap):
            return None

        def anchor(self, g, family):
            return g.mask if g.n and not len(family) else None

    g = edgeless(1)
    for weight in (0, 5):
        scheme = Branch()
        assert drive(scheme, *root(g, weights={1: weight})) == (weight, g.mask)
        stats = scheme.stats
        assert (stats.calls, stats.branch_steps, stats.max_depth) == (4, 1, 2)
        assert scheme.leaves == [[], []]


def test_drive_propagates_exceptions(without_memo):
    class Unlucky(Toy):
        def leaf(self, g, w, family):
            if 13 in g:
                raise RuntimeError("unlucky")
            return super().leaf(g, w, family)

    # Every one-vertex part has one shape; without the memo each reaches its leaf.
    with without_memo():
        scheme = Unlucky()
    with pytest.raises(RuntimeError, match="unlucky"):
        drive(scheme, *root(edgeless(16)))
    # The leaves before 13 ran, and the depth reached is still recorded.
    assert scheme.leaves == [[v] for v in range(1, 13)]
    assert scheme.stats.max_depth == 5


def test_a_memo_hit_counts_its_subtree_when_the_run_raises():
    # The root splits into A = {1, 2, 3} and B = {1, ..., 5}; B splits into A
    # again and C = {4, 5}, whose leaf raises. A is a chain of height 3:
    # first run from depth 2, it reaches depth 4, and its replay from depth 3
    # reaches depth 5, which the raised run must still report. The edge
    # (4, 5) gives C a shape of its own, apart from A's chain child {2, 3}.
    a, b, c = 0b111, 0b11111, 0b11000

    class Repeat(Toy):
        def split(self, g, n_cap):
            if g.mask == (1 << 6) - 1:
                return [a, b]
            if g.mask == b:
                return [a, c]
            if g.mask & ~a or g.n < 2:
                return None
            return [g.mask & (g.mask - 1)]

        def leaf(self, g, w, family):
            if g.mask == c:
                raise RuntimeError("C")
            return super().leaf(g, w, family)

    scheme = Repeat()
    with pytest.raises(RuntimeError, match="C"):
        drive(scheme, *root(Graph(range(1, 7), [(4, 5)])))
    stats = scheme.stats
    assert scheme.leaves == [[3]]
    assert (stats.memo_hits, stats.memo_calls) == (1, 3)
    # The root, A's three calls, B, A's replayed three and C's call.
    assert (stats.calls, stats.component_recursions, stats.max_depth) == (9, 6, 5)


def test_a_run_builds_one_memo_for_split_children_and_leaves(monkeypatch):
    # drive keys the path scheme's split children by mask, and those of 2
    # to 4 vertices also by shape, (n, adjacency bits); the pattern scheme's
    # leaf and each of its components of at least 3 vertices by (component
    # index, mask). All go into the memo the scheme was built with.
    built: list[dict] = []
    monkeypatch.setattr(pkfree, "_new_memo", lambda: built.append({}) or built[-1])
    g, w = generate(GeneratorSpec(kind="cograph", size=64, seed=1))
    solve_pkfree(g, w)
    memo = built[0]
    shapes = [key for key in memo if not isinstance(key, int)]
    small = [key for key in memo if isinstance(key, int) and key.bit_count() <= 4]
    assert len(built) == 1 and shapes and small and len(shapes) < len(memo)
    # A small part's mask holds the heaviest answer of its shape's maximal
    # sets, with the height and record stored under the shape.
    for key in small:
        shape, ranks = pkfree._shape(g.table.adj, key)
        sets, height, record = memo[shape]
        answer = pkfree._heaviest(sets, ranks, w, g.table.ids)
        assert key.bit_count() >= 2 and memo[key] == (answer, height, record)
    # The 2-vertex shape has one pair bit, a 3-vertex one three, a 4-vertex one six.
    assert all(2 <= n <= 4 and 0 <= code < 1 << n * (n - 1) // 2 for n, code in shapes)
    h = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])
    g, w = generate(GeneratorSpec(kind="random-gnp", size=28, seed=1, p=0.3))
    r = solve_hfree(h, g, w, [make_pk_oracle(4), make_bruteforce_oracle()])
    assert len(built) == 2 and len(built[1]) == 260 < r.stats.oracle_calls
    assert {index for index, _ in built[1]} == {0, 1}

def test_split_parts_of_one_shape_share_one_entry(without_memo):
    # Toy's edgeless parts of 1, 2 and 4 vertices have one shape per size:
    # the parts of one size share an entry and only the first runs, down to
    # a single leaf, counted as the full tree a run without the memo executes.
    scheme = Toy()
    assert drive(scheme, *root(edgeless(16))) == (16, (1 << 16) - 1)
    assert {key for key in scheme.memo if not isinstance(key, int)} == {(1, 0), (2, 0), (4, 0)}
    assert (scheme.leaves, scheme.stats.memo_hits) == ([[1]], 5)
    with without_memo():
        full = Toy()
    assert drive(full, *root(edgeless(16))) == (16, (1 << 16) - 1)
    assert len(full.leaves) == 16 and full.stats.calls == scheme.stats.calls


def test_results_arrive_in_batch_order(without_memo):
    # The root's children have different depths; each runs to its answer
    # before the next starts, and the answers combine in batch order.
    class Uneven(Toy):
        def split(self, g, n_cap):
            if g.n == 7:
                return [g.table.mask(part) for part in ({1, 2, 3}, {4}, {5, 6, 7})]
            return super().split(g, n_cap)

    with without_memo():
        g, scheme = edgeless(7), Uneven()
    weights = {v: 10**v for v in g.vertex_ids()}
    assert drive(scheme, *root(g, weights=weights)) == (sum(weights.values()), g.mask)
    assert scheme.leaves == [[v] for v in range(1, 8)]
    assert scheme.stats.max_depth == 4


def test_a_frameless_answer_counts_as_one_frame(without_memo):
    # Answering a one-vertex graph inline gives the same answer, call count
    # and max_depth as a node that reaches its leaf.
    for n in (1, 2, 5, 16):
        outcomes = []
        for small_leaves in (False, True):
            with without_memo():
                scheme = Toy(small_leaves)
            answer = drive(scheme, *root(edgeless(n)))
            outcomes.append((answer, scheme.stats.calls, scheme.stats.max_depth))
            assert len(scheme.leaves) == (0 if small_leaves else n)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == (n - 1).bit_length() + 1


def test_a_nested_run_leaves_the_outer_stats_alone():
    # The pk oracle runs its own recursion inside a pattern leaf. The outer
    # run's stats, max_depth included, equal those of a run whose P4 oracle
    # starts no recursion.
    h = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])
    g, w = generate(GeneratorSpec(kind="random-gnp", size=20, seed=1, p=0.3))
    brute = make_bruteforce_oracle()
    flat = ComponentOracle("flat", brute.solve, brute.solve_with_witness)
    nested = solve_hfree(h, g, w, [make_pk_oracle(4), brute], assertion_level="paranoid")
    plain = solve_hfree(h, g, w, [flat, brute], assertion_level="paranoid")
    assert nested.stats.oracle_calls_by_index[0] > 0
    assert nested.weight == plain.weight
    assert nested.stats.to_dict() == plain.stats.to_dict()


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_depth_never_becomes_python_frames():
    # max_depth 61 runs within 40 Python frames of the caller's.
    g, w = generate(GeneratorSpec(kind="cograph", size=128, seed=1))
    h = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])
    oracles = [make_pk_oracle(4), make_bruteforce_oracle()]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        fair = solve_pkfree(g, w, k_hint=4)
        paranoid = solve_pkfree(g, w, k_hint=4, assertion_level="paranoid")
        pattern = solve_hfree(h, g, w, oracles)
    finally:
        sys.setrecursionlimit(limit)
    assert fair.stats.max_depth == paranoid.stats.max_depth == 61
    assert fair.weight == paranoid.weight == pattern.weight
