"""Vertex multi-families, level sets, and branchable-vertex detection.

A multi-family is an ordered multiset of vertex sets. Duplicates and empty
members are kept and counted: subtraction replaces each member S by S - X
without dropping anything, so the family size is invariant under subtraction.
The i-th level L(F, i) collects the vertices lying in at least i members.

Members and levels are int masks over a VertexTable (see graph.py), where
bit r stands for the vertex of rank r. Inside the solvers a family shares
its graph's table, so adding a member updates the levels with one AND/OR
per level and subtracting X is one AND per member and per level; nothing is
recounted. Frozensets of ids appear only at the public boundary: members,
level(i) and multiplicity(v).

A vertex v is branchable relative to (F, N) when its closed neighborhood
covers at least Delta_i = N / 2^i vertices of level i for some i >= 1.
Levels are monotone decreasing in i and Delta_i <= 1 once i >= ceil(log2 N),
so the search never needs to look past i = ceil(log2 N) + 1: a vertex on a
later non-empty level already qualifies at the cap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .graph import Graph, VertexSet, VertexTable


def ceil_log2(x: int) -> int:
    """ceil(log2 x) for x >= 1, with ceil_log2(1) = 0."""
    if x < 1:
        raise ValueError(f"ceil_log2 requires x >= 1, got {x}")
    return (x - 1).bit_length()


class VertexMultiFamily:
    """Ordered multiset of vertex sets with level-set queries.

    Immutable. masks holds the members and level_masks the non-empty
    levels L(F, 1), L(F, 2), ... as masks over table. A family built from
    ids without a table gets its own table over the ids it holds. add and
    subtract take ids or a mask over the family's table: appending member m
    sets L(F, i + 1) |= L(F, i) & m, and subtracting X clears X from every
    member and every level.
    """

    __slots__ = ("table", "masks", "level_masks")

    def __init__(self, members: Iterable[Iterable[int]] = (), table: VertexTable | None = None):
        sets = [frozenset(m) for m in members]
        if table is None:
            table = VertexTable(frozenset().union(*sets))
        self.table = table
        self.masks = tuple(table.mask(m) for m in sets)
        self.level_masks: tuple[int, ...] = ()
        for m in self.masks:
            self.level_masks = _with_member(self.level_masks, m)

    @classmethod
    def _make(cls, table: VertexTable, masks: tuple[int, ...], level_masks: tuple[int, ...]):
        fam = object.__new__(cls)
        fam.table, fam.masks, fam.level_masks = table, masks, level_masks
        return fam

    @property
    def members(self) -> tuple[frozenset[int], ...]:
        return tuple(map(self.table.decode, self.masks))

    def level_sizes(self) -> tuple[int, ...]:
        """|L(F, i)| for every non-empty level, i = 1, 2, ..."""
        return tuple(map(int.bit_count, self.level_masks))

    def over(self, table: VertexTable) -> "VertexMultiFamily":
        """The same family over table; ids the table lacks are dropped."""
        if table is self.table:
            return self
        return VertexMultiFamily(([v for v in m if v in table.rank] for m in self.members), table)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self.members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexMultiFamily):
            return NotImplemented
        if self.table is other.table:
            return self.masks == other.masks
        return self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"VertexMultiFamily({list(map(sorted, self.members))!r})"

    def multiplicity(self, v: int) -> int:
        """Number of members containing v."""
        r = self.table.rank.get(v)
        if r is None:
            return 0
        return sum(m >> r & 1 for m in self.masks)

    def max_multiplicity(self) -> int:
        return len(self.level_masks)

    def level(self, i: int) -> frozenset[int]:
        """L(F, i): vertices contained in at least i members."""
        if i < 1:
            raise ValueError(f"level index must be >= 1, got {i}")
        if i > len(self.level_masks):
            return frozenset()
        return self.table.decode(self.level_masks[i - 1])

    def add(self, member: VertexSet) -> "VertexMultiFamily":
        """New family with one more member (ids or a mask) appended."""
        if not isinstance(member, int):
            ids = frozenset(member)
            if not all(v in self.table.rank for v in ids):
                return VertexMultiFamily(self.members + (ids,))
            member = self.table.mask(ids)
        return self._make(self.table, self.masks + (member,), _with_member(self.level_masks, member))

    def subtract(self, xs: VertexSet) -> "VertexMultiFamily":
        """F - X for ids or a mask: every member minus X, order and count preserved."""
        if not isinstance(xs, int):
            rank = self.table.rank
            xs = self.table.mask(v for v in xs if v in rank)
        if not self.level_masks or not self.level_masks[0] & xs:
            return self
        keep = ~xs
        levels = [level & keep for level in self.level_masks]
        while levels and not levels[-1]:
            levels.pop()
        return self._make(self.table, tuple(m & keep for m in self.masks), tuple(levels))


def _with_member(levels: tuple[int, ...], member: int) -> tuple[int, ...]:
    # Levels are nested, so the vertices moving up from level i are
    # L(F, i) & member and the carry can only shrink.
    out = list(levels)
    carry = member
    for i, level in enumerate(levels):
        out[i] = level | carry
        carry &= level
        if not carry:
            return tuple(out)
    if carry:
        out.append(carry)
    return tuple(out)


def branch_threshold(capacity_n: int, i: int) -> Fraction:
    """Delta_i = N / 2^i as an exact rational."""
    if capacity_n < 1:
        raise ValueError(f"N must be >= 1, got {capacity_n}")
    if i < 1:
        raise ValueError(f"threshold index must be >= 1, got {i}")
    return Fraction(capacity_n, 2**i)


def find_branchable(g: Graph, family: VertexMultiFamily, capacity_n: int) -> int | None:
    """A branchable vertex of g relative to (family, capacity_n), or None.

    A vertex qualifies when |N[v] cap L(F, i)| >= N / 2^i for some
    1 <= i <= ceil(log2 N) + 1, checked as the integer comparison
    |N[v] cap L(F, i)| * 2^i >= N. Among qualifying vertices the one with
    the largest violation max_i |N[v] cap L(F, i)| * 2^i wins; ties go to
    the smallest vertex id. Each count is one popcount,
    ((adj | bit) & level_i).bit_count().

    Level i is skipped when |L(F, i) cap V(G)| * 2^i < N: no vertex reaches
    N on it, and a qualifying vertex reaches its score on a level that is
    kept, so the winner is unchanged. No level left means no branchable
    vertex; with one left, raw counts are compared and only the best shifted.
    """
    if capacity_n < 1:
        raise ValueError(f"N must be >= 1, got {capacity_n}")
    live = g.mask
    cap = ceil_log2(capacity_n) + 1
    levels = [
        (i, m)
        for i, level in enumerate(family.over(g.table).level_masks[:cap], 1)
        if (m := level & live).bit_count() << i >= capacity_n
    ]
    if not levels:
        return None
    adj = g.table.adj
    ranks = list(g.table.ranks(live))
    closed = [adj[r] | 1 << r for r in ranks]
    if len(levels) == 1:
        ((i, level),) = levels
        scores = [(c & level).bit_count() for c in closed]
    else:
        scores = list(map(max, *([(c & m).bit_count() << j for c in closed] for j, m in levels)))
        i = 0
    best = max(scores)
    if best << i < capacity_n:
        return None
    return g.table.ids[ranks[scores.index(best)]]
