"""Immutable undirected graphs stored as vertex masks over a shared table.

Every structure in this package operates on induced subgraphs of one root
graph, which share its VertexTable. Vertex ids never change, so vertex sets
computed against the root (separator families, witnesses, weight maps) stay
meaningful at every recursion depth. Bit order equals id order, so scanning
bits upwards keeps every "smallest id wins" tie-break. Frozensets of ids
appear only at the public boundary; inside, the solvers pass masks.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Sequence

WeightMap = dict[int, int]

VertexSet = Iterable[int] | int

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bit_flags(mask: int) -> bytes:
    # One byte per bit, lowest bit first, for itertools.compress.
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def _set_items(mask: int, items: Sequence) -> Iterable:
    """items[r] for each set bit r of mask, in increasing order.

    A mask of L positions with k set bits walks those bits when
    k (L + 512) < 128 L; any other mask picks items under its bit flags.
    Picking costs one step per position; a walking step costs a constant
    plus a part that grows with L, since each step makes ints of the mask's
    size. The bound 128 L / (L + 512) follows the measured crossover of the
    two: 14 bits at 64 positions, 64 at 512 and 124 at the 16,384 cap.
    """
    length = mask.bit_length()
    if mask.bit_count() * (length + 512) >= length << 7:
        return compress(items, _bit_flags(mask))
    picked = []
    while mask:
        low = mask & -mask
        picked.append(items[low.bit_length() - 1])
        mask ^= low
    return picked


class VertexTable:
    """Sorted vertex ids, their ranks and adjacency masks, shared by subgraphs.

    Built once per root graph and never changed afterwards. adj[r] is the
    neighbour mask of the vertex of rank r in the root graph and closed_adj[r]
    = adj[r] | 1 << r its closed neighbourhood; a subgraph's adjacency is
    adj[r] & its live mask. edges are id pairs; both ends must be ids of
    the table and differ, and the first pair that breaks this raises.

    With n vertices and m edge pairs, a dense graph (n^2 <= 16 m) is built
    as one row of ASCII digits per vertex, a "1" at each neighbour's rank,
    and each row becomes its mask in one base-2 int(); that takes at most
    16 bytes per pair. A sparser graph ORs two bits into the masks per pair
    and never holds the rows' n^2 bytes. Both give the same masks.
    """

    __slots__ = ("ids", "rank", "adj", "closed_adj")

    def __init__(self, ids: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        self.ids: tuple[int, ...] = tuple(sorted(ids))
        rank = self.rank = {v: r for r, v in enumerate(self.ids)}
        n = len(self.ids)
        edges = tuple(edges)
        dense = n * n <= 16 * len(edges)
        rows = [bytearray(b"0" * n) for _ in range(n)] if dense else [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            try:
                ru, rv = rank[u], rank[v]
            except KeyError:
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside the vertex set") from None
            if dense:
                rows[ru][rv] = rows[rv][ru] = 49  # ord("1")
            else:
                rows[ru] |= 1 << rv
                rows[rv] |= 1 << ru
        # Freed before the closed masks, so the edge copy adds nothing to the
        # peak. Rank 0 is the lowest bit, so a row's digits are read reversed.
        del edges
        adj = self.adj = [int(row[::-1], 2) for row in rows] if dense else rows
        self.closed_adj: list[int] = [a | 1 << r for r, a in enumerate(adj)]

    @classmethod
    def from_masks(cls, ids: tuple[int, ...], adj: list[int]) -> "VertexTable":
        """Trusted fast path: a table over the sorted ids with adj as its masks.

        adj[r] must be a symmetric, loop-free neighbour mask over the ranks
        of ids; nothing is checked. The table keeps adj.
        """
        table = object.__new__(cls)
        table.ids = ids
        table.rank = {v: r for r, v in enumerate(ids)}
        table.adj = adj
        table.closed_adj = [a | 1 << r for r, a in enumerate(adj)]
        return table

    def mask(self, xs: Iterable[int]) -> int:
        """The mask of the ids in xs; raises KeyError for an unknown id."""
        rank = self.rank
        m = 0
        for v in xs:
            m |= 1 << rank[v]
        return m

    def ranks(self, mask: int) -> Iterator[int]:
        """Ranks of the set bits of mask, in increasing order."""
        return compress(range(len(self.ids)), _bit_flags(mask))

    def decode(self, mask: int) -> frozenset[int]:
        """The ids of the set bits of mask."""
        return frozenset(_set_items(mask, self.ids))

    def closed(self, mask: int) -> int:
        """The mask together with every root neighbour of its vertices."""
        adj = self.adj
        out = mask
        for r in self.ranks(mask):
            out |= adj[r]
        return out


class Graph:
    """Simple undirected graph over non-negative integer vertex ids.

    Instances are immutable after construction and safe for unrestricted
    concurrent reads. table is the VertexTable shared with the root graph
    and mask the live vertices; both are read by the package's algorithms
    and must not be changed. Adjacency is exposed as frozensets; all
    iteration helpers yield vertices in sorted order so downstream
    algorithms are deterministic. _plan holds the search plan that
    find_induced_copy builds the first time the graph is used as a pattern.
    """

    __slots__ = ("table", "mask", "_plan")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]]):
        vset = set()
        for v in vertices:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"vertex ids must be integers >= 0, got {v!r}")
            vset.add(v)
        self.table = VertexTable(vset, edges)
        self.mask = (1 << len(vset)) - 1
        self._plan: tuple[list[list[int]], list[int]] | None = None

    @classmethod
    def _sub(cls, table: VertexTable, mask: int) -> "Graph":
        # Trusted fast path: mask must be a subset of the table's vertices.
        g = object.__new__(cls)
        g.table = table
        g.mask = mask
        g._plan = None
        return g

    def _rank(self, v: int) -> int:
        if v not in self:
            raise KeyError(v)
        return self.table.rank[v]

    @property
    def vertices(self) -> frozenset[int]:
        return self.table.decode(self.mask)

    def vertex_ids(self) -> tuple[int, ...]:
        """All vertex ids in increasing order."""
        return tuple(compress(self.table.ids, _bit_flags(self.mask)))

    @property
    def n(self) -> int:
        return self.mask.bit_count()

    @property
    def edge_count(self) -> int:
        adj, mask = self.table.adj, self.mask
        return sum((adj[r] & mask).bit_count() for r in self.table.ranks(mask)) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, in lexicographic order."""
        ids, adj, mask = self.table.ids, self.table.adj, self.mask
        for r in self.table.ranks(mask):
            u = ids[r]
            for v in _set_items(adj[r] & mask >> (r + 1) << (r + 1), ids):
                yield (u, v)

    def adj(self, v: int) -> frozenset[int]:
        """Open neighborhood N(v)."""
        return self.table.decode(self.table.adj[self._rank(v)] & self.mask)

    def closed(self, v: int) -> frozenset[int]:
        """Closed neighborhood N[v]."""
        return self.table.decode(self.table.closed_adj[self._rank(v)] & self.mask)

    def degree(self, v: int) -> int:
        return (self.table.adj[self._rank(v)] & self.mask).bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        rank = self.table.rank
        return u in self and v in self and bool(self.table.adj[rank[u]] >> rank[v] & 1)

    def has_vertex(self, v: int) -> bool:
        r = self.table.rank.get(v)
        return r is not None and bool(self.mask >> r & 1)

    __contains__ = has_vertex

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_ids() == other.vertex_ids() and list(self.edges()) == list(other.edges())

    def __hash__(self) -> int:
        return hash((self.vertices, frozenset(self.edges())))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _mask_in(g: Graph, xs: VertexSet) -> int:
    """xs (ids or a mask) as a mask; its vertices must lie inside V(g)."""
    if isinstance(xs, int):
        if xs & ~g.mask:
            raise ValueError("the mask has vertices outside the graph")
        return xs
    m = 0
    for x in xs:
        if x not in g:
            raise ValueError(f"vertex {x} is not in the graph")
        m |= 1 << g.table.rank[x]
    return m


def closed_neighborhood(g: Graph, xs: VertexSet) -> frozenset[int] | int:
    """N[X]: the union of closed neighborhoods of the vertices in xs.

    Args:
        g: host graph.
        xs: vertex set, must be contained in V(g); either ids or a mask
            over g's table.

    Returns:
        xs and every neighbor of a vertex of xs, as a frozenset of ids, or
        as a mask when xs was given as one.
    """
    closed = g.table.closed(_mask_in(g, xs)) & g.mask
    return closed if isinstance(xs, int) else g.table.decode(closed)


def induced_subgraph(g: Graph, xs: VertexSet) -> Graph:
    """The subgraph induced by xs (ids or a mask), with vertex ids preserved."""
    return Graph._sub(g.table, _mask_in(g, xs))


def remove_vertices(g: Graph, xs: VertexSet) -> Graph:
    """G - X for ids or a mask. Vertices of xs outside the graph are ignored."""
    if not isinstance(xs, int):
        rank = g.table.rank
        xs = g.table.mask(x for x in xs if x in rank)
    # Graph._sub inlined: the solvers call this twice per branch.
    sub = object.__new__(Graph)
    sub.table, sub.mask, sub._plan = g.table, g.mask & ~xs, None
    return sub


def component_masks(
    adj: list[int], live: int, *, limit: int | None = None, until: int | None = None
) -> list[int] | None:
    """Connected components of the vertices in live, as masks.

    adj is a table's adjacency list. Components come ordered by their lowest
    bit, which is their smallest id. Given a limit, the result is None as
    soon as a component grows past limit vertices, and at once when limit
    is below 1 and live is non-empty. Given until, labelling stops after
    the first component of more than until vertices, which ends the list,
    or once the vertices left unlabelled are too few to hold one.
    """
    if limit is not None and limit < 1 and live:
        return None
    components = []
    rest = live
    while rest:
        comp = todo = rest & -rest
        while todo:
            low = todo & -todo
            todo ^= low
            if new := adj[low.bit_length() - 1] & rest & ~comp:
                comp |= new
                if limit is not None and comp.bit_count() > limit:
                    return None
                if comp == rest:
                    break
                todo |= new
        components.append(comp)
        rest ^= comp
        if until is not None and (comp.bit_count() > until or rest.bit_count() <= until):
            break
    return components


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Maximal connected vertex sets, ordered by smallest contained id."""
    return [g.table.decode(c) for c in component_masks(g.table.adj, g.mask)]


def total_weight(w: WeightMap, xs: Iterable[int]) -> int:
    """w(S): sum of the weights of the vertices in xs."""
    return sum(w[v] for v in xs)


def validate_weights(g: Graph, w: WeightMap) -> None:
    """Check that w defines a non-negative integer weight for every vertex."""
    for v in g.vertex_ids():
        if v not in w:
            raise ValueError(f"no weight for vertex {v}")
        wv = w[v]
        if not isinstance(wv, int) or isinstance(wv, bool) or wv < 0:
            raise ValueError(f"weight of vertex {v} must be an integer >= 0, got {wv!r}")


def _check_positive(name: str, value: object) -> None:
    # bool is an int subclass, refused as validate_weights refuses it.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def is_independent_set(g: Graph, xs: Iterable[int]) -> bool:
    """True iff xs has no repeated vertex and no two of its vertices are adjacent."""
    xlist = list(xs)
    m = _mask_in(g, xlist)
    if m.bit_count() != len(xlist):
        return False
    adj = g.table.adj
    return not any(adj[r] & m for r in g.table.ranks(m))
