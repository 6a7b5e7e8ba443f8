"""Vertex multi-families, level sets, and branchable-vertex detection.

A multi-family is an ordered multiset of vertex sets. Duplicates and empty
members are kept and counted: subtraction replaces each member S by S - X
without dropping anything, so the family size is invariant under subtraction.
The i-th level L(F, i) collects the vertices lying in at least i members.

Members and levels are int masks over a VertexTable (see graph.py), where
bit r stands for the vertex of rank r. Inside the solvers a family shares
its graph's table, so adding a member updates the levels with one AND/OR
per level and subtracting X is one AND per level; nothing is recounted.
The members themselves are masked on read: a family keeps the members it
was built from and the union of everything subtracted since, and clears
that union from them when they are asked for. The recursion reads only the
levels and the member count, so below "paranoid" members are masked only
when a new member holds vertices subtracted from the others. Frozensets of
ids appear only at the public boundary, members; a caller that wants a
level as ids decodes its mask with table.decode.

A vertex v is branchable relative to (F, N) when its closed neighborhood
covers at least Delta_i = N / 2^i vertices of level i for some i >= 1.
Levels are monotone decreasing in i and Delta_i <= 1 once i >= ceil(log2 N),
so the search never needs to look past i = ceil(log2 N) + 1: a vertex on a
later non-empty level already qualifies at the cap. It scans the vertices
in id order and stops at the first whose score no other vertex can exceed.
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
    level and ORs it into _removed. The members kept in _raw still hold the
    vertices in _removed; masks and iter_masks clear them on every read and
    hand out _raw itself while _removed is empty. Only level_sizes() is
    kept, in _sizes, once asked for: the paranoid audit reads it on the edge
    into a call and again in the call.
    """

    __slots__ = ("table", "_raw", "_removed", "level_masks", "_sizes")

    def __init__(self, members: Iterable[Iterable[int]] = (), table: VertexTable | None = None):
        sets = [frozenset(m) for m in members]
        if table is None:
            table = VertexTable(frozenset().union(*sets))
        self.table = table
        self._raw = tuple(table.mask(m) for m in sets)
        self._removed = 0
        self._sizes: tuple[int, ...] | None = None
        self.level_masks: tuple[int, ...] = ()
        for m in self._raw:
            self.level_masks = _with_member(self.level_masks, m)

    @classmethod
    def _make(
        cls, table: VertexTable, raw: tuple[int, ...], removed: int, level_masks: tuple[int, ...]
    ) -> "VertexMultiFamily":
        fam = object.__new__(cls)
        fam.table, fam._raw, fam._removed, fam.level_masks = table, raw, removed, level_masks
        fam._sizes = None
        return fam

    @property
    def masks(self) -> tuple[int, ...]:
        """The members as masks over table, each minus everything subtracted."""
        return tuple(self.iter_masks()) if self._removed else self._raw

    def iter_masks(self) -> Iterator[int]:
        """The members' masks in order, as masks has them, without building the tuple."""
        if self._removed:
            return map((~self._removed).__and__, self._raw)
        return iter(self._raw)

    @property
    def members(self) -> tuple[frozenset[int], ...]:
        return tuple(map(self.table.decode, self.masks))

    def level_sizes(self) -> tuple[int, ...]:
        """|L(F, i)| for every non-empty level, i = 1, 2, ..."""
        sizes = self._sizes
        if sizes is None:
            sizes = self._sizes = tuple(map(int.bit_count, self.level_masks))
        return sizes

    def over(self, table: VertexTable) -> "VertexMultiFamily":
        """The same family over table; ids the table lacks are dropped."""
        if table is self.table:
            return self
        return VertexMultiFamily(([v for v in m if v in table.rank] for m in self.members), table)

    def __len__(self) -> int:
        return len(self._raw)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self.members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexMultiFamily):
            return NotImplemented
        return self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"VertexMultiFamily({list(map(sorted, self.members))!r})"

    def add(self, member: VertexSet) -> "VertexMultiFamily":
        """New family with one more member (ids or a mask) appended."""
        if not isinstance(member, int):
            ids = frozenset(member)
            if not all(v in self.table.rank for v in ids):
                return VertexMultiFamily(self.members + (ids,))
            member = self.table.mask(ids)
        levels = _with_member(self.level_masks, member)
        if member & self._removed:
            # The new member holds vertices the others lost: mask those first.
            return self._make(self.table, self.masks + (member,), 0, levels)
        return self._make(self.table, self._raw + (member,), self._removed, levels)

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
        return self._make(self.table, self._raw, self._removed | xs, tuple(levels))


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
    (closed_adj[r] & level_i).bit_count().

    Level i is skipped when |L(F, i) cap V(G)| * 2^i < N: no vertex reaches
    N on it, and a qualifying vertex reaches its score on a level that is
    kept, so the winner is unchanged. No level left means no branchable
    vertex. The largest |L(F, i) cap V(G)| * 2^i kept is a ceiling on every
    score, so the scan, lowest id first, stops at the first vertex that
    reaches it: only a strictly higher score replaces the best.
    """
    if capacity_n < 1:
        raise ValueError(f"N must be >= 1, got {capacity_n}")
    live = g.mask
    cap = (capacity_n - 1).bit_length() + 1
    if family.table is not g.table:
        family = family.over(g.table)
    levels, ceiling = [], 0
    for i, level in enumerate(family.level_masks[:cap], 1):
        if (top := (m := level & live).bit_count() << i) >= capacity_n:
            levels.append((i, m))
            ceiling = max(ceiling, top)
    if not levels:
        return None
    closed_adj = g.table.closed_adj
    # Only a qualifying score, at least N, can become the best.
    best, winner, rest = capacity_n - 1, 0, live
    while rest:
        low = rest & -rest
        closed = closed_adj[low.bit_length() - 1]
        score = 0
        for i, m in levels:
            if (count := (closed & m).bit_count() << i) > score:
                score = count
        if score > best:
            best, winner = score, low
            if score == ceiling:
                break
        rest ^= low
    return g.table.ids[winner.bit_length() - 1] if winner else None
