from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmwis import (
    Graph,
    VertexMultiFamily,
    branch_threshold,
    ceil_log2,
    find_branchable,
    remove_vertices,
)


def test_ceil_log2_values():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1
    assert ceil_log2(3) == 2
    assert ceil_log2(4) == 2
    assert ceil_log2(5) == 3
    assert ceil_log2(8) == 3
    assert ceil_log2(9) == 4
    assert ceil_log2(1024) == 10
    assert ceil_log2(1025) == 11


def test_ceil_log2_rejects_nonpositive():
    with pytest.raises(ValueError):
        ceil_log2(0)
    with pytest.raises(ValueError):
        ceil_log2(-3)


def test_family_levels_count_multiplicity():
    fam = VertexMultiFamily([{1, 2}, {2, 3}])
    assert [fam.table.decode(level) for level in fam.level_masks] == [{1, 2, 3}, {2}]
    assert fam.level_sizes() == (3, 1)


def test_empty_family():
    fam = VertexMultiFamily()
    assert len(fam) == 0
    assert fam.level_masks == ()


def test_subtract_keeps_order_and_empty_members():
    """Removing vertices never drops members, so the family size is stable."""
    fam = VertexMultiFamily([{1, 2}, {2, 3}, {2}])
    out = fam.subtract({2})
    assert out.members == (frozenset({1}), frozenset({3}), frozenset())
    assert len(out) == 3
    drained = fam.subtract({1, 2, 3})
    assert len(drained) == 3
    assert drained.level_masks == ()


def test_add_appends():
    fam = VertexMultiFamily([{1}])
    grown = fam.add({2, 3})
    assert grown.members == (frozenset({1}), frozenset({2, 3}))
    assert len(fam) == 1


def test_family_equality_is_ordered():
    assert VertexMultiFamily([{1}, {2}]) != VertexMultiFamily([{2}, {1}])
    assert VertexMultiFamily([{1}, {2}]) == VertexMultiFamily([{1}, {2}])


def test_branch_threshold():
    assert branch_threshold(8, 2) == 2
    assert branch_threshold(5, 1) == Fraction(5, 2)
    assert branch_threshold(1, 1) == Fraction(1, 2)
    with pytest.raises(ValueError):
        branch_threshold(0, 1)
    with pytest.raises(ValueError):
        branch_threshold(4, 0)


def test_find_branchable_empty_family_is_none():
    g = Graph([1, 2], [(1, 2)])
    assert find_branchable(g, VertexMultiFamily(), 2) is None


def test_find_branchable_rejects_n_below_one():
    g = Graph([1, 2], [(1, 2)])
    with pytest.raises(ValueError, match="N must be >= 1, got 0"):
        find_branchable(g, VertexMultiFamily([{1, 2}]), 0)


def test_find_branchable_smallest_id_wins_ties():
    g = Graph([1, 2], [(1, 2)])
    assert find_branchable(g, VertexMultiFamily([{1, 2}]), 2) == 1


def test_find_branchable_prefers_larger_coverage():
    # star center 3: leaf 1 qualifies but the center covers more of the level
    g = Graph([1, 2, 3, 4], [(3, 1), (3, 2), (3, 4)])
    assert find_branchable(g, VertexMultiFamily([{1, 2, 3, 4}]), 4) == 3


def test_find_branchable_uses_deeper_levels():
    g = Graph([1, 2, 3, 4], [(1, 2), (2, 3)])
    assert find_branchable(g, VertexMultiFamily([{1, 2}, {2, 3}]), 4) == 2


def test_find_branchable_below_threshold_is_none():
    g = Graph([1, 2], [(1, 2)])
    assert find_branchable(g, VertexMultiFamily([{1}]), 8) is None


def test_find_branchable_qualifies_at_cap():
    g = Graph([1], [])
    assert find_branchable(g, VertexMultiFamily([{1}, {1}, {1}]), 2) == 1


def test_find_branchable_ignores_refutations_from_another_n_or_a_smaller_graph():
    # Path 1-2-3 and vertex 4, all on level 1. At N = 6 vertex 2 scores
    # |N[2] cap L(F, 1)| * 2 = 6 and wins; without vertex 3 nothing reaches 6.
    g = Graph([1, 2, 3, 4], [(1, 2), (2, 3)])
    fam = VertexMultiFamily([{1, 2, 3, 4}], table=g.table)
    small = remove_vertices(g, {3})
    assert find_branchable(small, fam, 6) is None
    assert fam._refuted == (6, small.mask, small.mask)
    # The whole graph is not inside the one the cache was recorded on.
    assert find_branchable(g, fam, 6) == 2
    # At N = 7 every vertex is refuted; at N = 5 vertex 2 wins again.
    assert find_branchable(g, fam, 7) is None
    assert fam._refuted == (7, g.mask, g.mask)
    assert find_branchable(g, fam, 5) == 2
    # subtract hands the cache on; add drops it, also when the new member
    # holds a vertex the others lost.
    assert find_branchable(g, fam, 7) is None
    cut = fam.subtract({4})
    assert cut._refuted == fam._refuted
    assert fam.add({1})._refuted is None
    assert cut.add({4})._refuted is None


def _qualifies(g: Graph, family: VertexMultiFamily, n_cap: int, v: int) -> bool:
    closed = g.closed(v)
    for i in range(1, ceil_log2(n_cap) + 2):
        level = {u for u in g.vertices if sum(u in m for m in family.members) >= i}
        if len(closed & level) >= branch_threshold(n_cap, i):
            return True
    return False


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_find_branchable_agrees_with_definition(data):
    n = data.draw(st.integers(min_value=1, max_value=8), label="n")
    ids = list(range(1, n + 1))
    edges = [
        (u, v)
        for u in ids
        for v in ids
        if u < v and data.draw(st.booleans(), label=f"e{u},{v}")
    ]
    g = Graph(ids, edges)
    n_cap = data.draw(st.integers(min_value=n, max_value=2 * n), label="N")
    members = data.draw(
        st.lists(st.sets(st.sampled_from(ids), max_size=n), max_size=4), label="family"
    )
    family = VertexMultiFamily(members)
    got = find_branchable(g, family, n_cap)
    qualifiers = [v for v in ids if _qualifies(g, family, n_cap, v)]
    if got is None:
        assert qualifiers == []
    else:
        assert got in qualifiers


@st.composite
def _branch_cases(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    ids = range(1, n + 1)
    pairs = [(u, v) for u in ids for v in ids if u < v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    n_cap = draw(st.integers(min_value=1, max_value=2 * n + 2))
    members = draw(st.lists(st.sets(st.sampled_from(ids), max_size=n), max_size=5))
    dropped = draw(st.sets(st.sampled_from(ids), max_size=n - 1))
    return n, edges, n_cap, members, dropped


def _reference_winner(g: Graph, members: list[set[int]], n_cap: int) -> int | None:
    # Score v by max_i |N[v] cap L(F, i)| * 2^i over 1 <= i <= ceil(log2 N) + 1;
    # the top score wins, ties to the smallest id, None when it is below N.
    best, winner = -1, None
    for v in g.vertex_ids():
        closed = g.closed(v)
        score = max(
            len({u for u in closed if sum(u in m for m in members) >= i}) << i
            for i in range(1, ceil_log2(n_cap) + 2)
        )
        if score > best:
            best, winner = score, v
    return winner if best >= n_cap else None


@settings(max_examples=300, deadline=None)
@given(case=_branch_cases())
# One level: vertex 1 covers the whole level and vertex 4 ties it; 1 wins.
@example(case=(4, [(1, 2), (1, 3), (2, 4), (3, 4)], 4, [{2, 3}], set()))
# Three levels; vertex 2 reaches N, but the top score 16 is on level 3,
# where vertex 3 reaches it first and vertex 4 ties.
@example(case=(4, [(1, 2), (2, 3), (3, 4)], 8, [{1, 2, 3, 4}, {3, 4}, {3, 4}], set()))
# Level 1 is kept (|L| * 2 = N), yet no vertex covers two of its vertices.
@example(case=(3, [], 4, [{1, 3}], set()))
# Level 1 is skipped and level 2 is the one kept: vertex 2 reaches N = 8,
# and vertex 3 then beats it with the top score 12.
@example(case=(5, [(1, 2), (2, 3), (3, 4), (4, 5)], 8, [{2, 3, 4}, {2, 3, 4}], set()))
def test_find_branchable_picks_the_top_score_with_the_smallest_id(case):
    """The exact winner, on a subgraph whose family may hold dropped vertices."""
    n, edges, n_cap, members, dropped = case
    g = remove_vertices(Graph(range(1, n + 1), edges), dropped)
    live = [m & g.vertices for m in members]
    got = find_branchable(g, VertexMultiFamily(members), n_cap)
    assert got == _reference_winner(g, live, n_cap)
    # A family over the graph's own table gives the same answer.
    assert find_branchable(g, VertexMultiFamily(members, table=g.table), n_cap) == got


@settings(max_examples=100, deadline=None)
@given(
    members=st.lists(st.sets(st.integers(min_value=1, max_value=10), max_size=6), max_size=5),
    cut=st.sets(st.integers(min_value=1, max_value=10), max_size=6),
)
def test_subtract_multiplicity_property(members, cut):
    fam = VertexMultiFamily(members)
    out = fam.subtract(cut)
    assert len(out) == len(fam)
    for v in range(1, 11):
        count = sum(v in m for m in out.members)
        assert count == (0 if v in cut else sum(v in m for m in fam.members))


@settings(max_examples=100, deadline=None)
@given(members=st.lists(st.sets(st.integers(min_value=1, max_value=12), max_size=8), max_size=6))
def test_levels_are_nested(members):
    fam = VertexMultiFamily(members)
    levels = [fam.table.decode(level) for level in fam.level_masks]
    assert all(levels)
    for upper, lower in zip(levels[1:], levels):
        assert upper <= lower


_vertex_sets = st.frozensets(st.integers(min_value=1, max_value=10), max_size=6)
_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add", "subtract"]), _vertex_sets, st.booleans()),
        st.tuples(st.just("read"), st.just(frozenset()), st.just(False)),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(ops=_ops)
# A member added after an overlapping subtraction keeps the vertices the others lost.
@example(ops=[("add", frozenset({1, 2}), True), ("subtract", frozenset({2}), True),
              ("add", frozenset({2, 3}), True)])
@example(ops=[("add", frozenset({1, 2}), False), ("subtract", frozenset({1}), False),
              ("read", frozenset(), False), ("add", frozenset({1}), True),
              ("subtract", frozenset({2}), True)])
# A member that misses every subtracted vertex is appended lazily after a read.
@example(ops=[("add", frozenset({1, 2}), True), ("subtract", frozenset({2}), False),
              ("read", frozenset(), False), ("add", frozenset({3}), False),
              ("subtract", frozenset({1}), True), ("read", frozenset(), False)])
def test_family_matches_a_list_of_sets_model(ops):
    """add/subtract sequences against a plain list of frozensets.

    Each op passes its set as ids or as a mask, and "read" reads the members
    in between. Other reads wait until the sequence is done, so the ops run
    on families whose members were not read, as in the solvers.
    """
    g = Graph(range(1, 11), [])
    fam, model = VertexMultiFamily(table=g.table), []
    history = []
    for op, xs, as_mask in ops:
        arg = g.table.mask(xs) if as_mask else xs
        if op == "add":
            fam, model = fam.add(arg), model + [xs]
        elif op == "subtract":
            fam, model = fam.subtract(arg), [m - xs for m in model]
        else:
            assert fam.members == tuple(model)
        history.append((fam, model))
    for fam, model in history:
        assert list(fam.iter_masks()) == [g.table.mask(m) for m in model]
        counts = [sum(v in m for m in model) for v in range(1, 11)]
        levels = tuple(sum(c >= i for c in counts) for i in range(1, max(counts, default=0) + 1))
        assert fam.level_sizes() == levels
        assert [fam.table.decode(level) for level in fam.level_masks] == [
            {v for v, c in enumerate(counts, 1) if c >= i} for i in range(1, len(levels) + 1)
        ]
        assert fam.members == tuple(model)
        assert fam.masks == tuple(g.table.mask(m) for m in model)
        assert list(fam.iter_masks()) == list(fam.masks)
        rebuilt = VertexMultiFamily(model, table=g.table)
        assert fam == rebuilt and hash(fam) == hash(rebuilt)
        assert fam == VertexMultiFamily(model) and hash(fam) == hash(VertexMultiFamily(model))
