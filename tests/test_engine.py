"""Direct tests of the recursion loop, drive(scheme, g, w, N, F), with toy schemes."""

import sys

import pytest

from qmwis import GeneratorSpec, Graph, VertexMultiFamily, generate, solve_pkfree
from qmwis.hfree import ComponentOracle, make_bruteforce_oracle, make_pk_oracle, solve_hfree
from qmwis.instrumentation import RunStats
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
        self.level, self.stats, self.small_leaves = 0, RunStats(), small_leaves
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


def test_a_branch_with_equal_children_keeps_the_delete_answer_on_ties():
    # One isolated vertex: growing F by N[v] makes v branchable, and both
    # children are the empty graph. Take wins only when strictly heavier.
    class Branch(Toy):
        def split(self, g, n_cap):
            return None

        def anchor(self, g, family):
            return g.mask if g.n and not len(family) else None

    g = edgeless(1)
    for weight, answer in ((0, (0, 0)), (5, (5, g.mask))):
        scheme = Branch()
        assert drive(scheme, *root(g, weights={1: weight})) == answer
        stats = scheme.stats
        assert (stats.calls, stats.branch_steps, stats.max_depth) == (4, 1, 2)
        assert scheme.leaves == [[], []]


def test_drive_propagates_exceptions():
    class Unlucky(Toy):
        def leaf(self, g, w, family):
            if 13 in g:
                raise RuntimeError("unlucky")
            return super().leaf(g, w, family)

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
    # reaches depth 5, which the raised run must still report.
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
        drive(scheme, *root(edgeless(6)))
    stats = scheme.stats
    assert scheme.leaves == [[3]]
    assert (stats.memo_hits, stats.memo_calls) == (1, 3)
    # The root, A's three calls, B, A's replayed three and C's call.
    assert (stats.calls, stats.component_recursions, stats.max_depth) == (9, 6, 5)


def test_results_arrive_in_batch_order():
    # The root's children have different depths; each runs to its answer
    # before the next starts, and the answers combine in batch order.
    class Uneven(Toy):
        def split(self, g, n_cap):
            if g.n == 7:
                return [g.table.mask(part) for part in ({1, 2, 3}, {4}, {5, 6, 7})]
            return super().split(g, n_cap)

    g, scheme = edgeless(7), Uneven()
    weights = {v: 10**v for v in g.vertex_ids()}
    assert drive(scheme, *root(g, weights=weights)) == (sum(weights.values()), g.mask)
    assert scheme.leaves == [[v] for v in range(1, 8)]
    assert scheme.stats.max_depth == 4


def test_a_frameless_answer_counts_as_one_frame():
    # Answering a one-vertex graph inline gives the same answer, call count
    # and max_depth as a node that reaches its leaf.
    for n in (1, 2, 5, 16):
        outcomes = []
        for small_leaves in (False, True):
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
