"""Immutable undirected graphs stored as vertex masks over a shared table.

Every structure in this package operates on induced subgraphs of one root
graph. The root builds a VertexTable once: its vertex ids in increasing
order, each id's rank, and per vertex an adjacency mask, an int whose bit r
is set when the vertex of rank r is a neighbour. A Graph is that table plus
a mask of its live vertices, so subgraphs share the root's table and taking
one is a single AND. Vertex ids never change, so vertex sets computed
against the root (separator families, witnesses, weight maps) stay
meaningful at every recursion depth.

Bit order equals id order, so scanning bits upwards keeps every "smallest
id wins" tie-break. Frozensets of ids appear only at the public boundary
(Graph.vertices, Graph.adj, connected_components, witnesses); the functions
that take a vertex set also accept a mask over the graph's table, which is
how the solvers pass sets to each other without decoding them. The solvers'
anchors and balanced_separator_core's core are such masks.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator

WeightMap = dict[int, int]

VertexSet = Iterable[int] | int

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bit_flags(mask: int) -> bytes:
    # One byte per bit, lowest bit first, for itertools.compress.
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


class VertexTable:
    """Sorted vertex ids, their ranks and adjacency masks, shared by subgraphs.

    Built once per root graph and never changed afterwards. adj[r] is the
    neighbour mask of the vertex of rank r in the root graph; a subgraph's
    adjacency is adj[r] & its live mask.
    """

    __slots__ = ("ids", "rank", "adj")

    def __init__(self, ids: Iterable[int]):
        self.ids: tuple[int, ...] = tuple(sorted(ids))
        self.rank: dict[int, int] = {v: r for r, v in enumerate(self.ids)}
        self.adj: list[int] = [0] * len(self.ids)

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
        return frozenset(compress(self.ids, _bit_flags(mask)))

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
    find_induced_copy builds the first time the graph is used as a pattern,
    the way __hash__ fills _hash.
    """

    __slots__ = ("table", "mask", "_hash", "_plan")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]]):
        vset = set()
        for v in vertices:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"vertex ids must be integers >= 0, got {v!r}")
            vset.add(v)
        table = VertexTable(vset)
        rank, adj = table.rank, table.adj
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            ru = rank.get(u)
            rv = rank.get(v)
            if ru is None or rv is None:
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside the vertex set")
            adj[ru] |= 1 << rv
            adj[rv] |= 1 << ru
        self.table = table
        self.mask = (1 << len(table.ids)) - 1
        self._hash: int | None = None
        self._plan: tuple[list[list[int]], list[int]] | None = None

    @classmethod
    def _sub(cls, table: VertexTable, mask: int) -> "Graph":
        # Trusted fast path: mask must be a subset of the table's vertices.
        g = object.__new__(cls)
        g.table = table
        g.mask = mask
        g._hash = g._plan = None
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
            for v in compress(ids, _bit_flags(adj[r] & mask >> (r + 1) << (r + 1))):
                yield (u, v)

    def adj(self, v: int) -> frozenset[int]:
        """Open neighborhood N(v)."""
        return self.table.decode(self.table.adj[self._rank(v)] & self.mask)

    def closed(self, v: int) -> frozenset[int]:
        """Closed neighborhood N[v]."""
        r = self._rank(v)
        return self.table.decode((self.table.adj[r] & self.mask) | 1 << r)

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
        if self.table is other.table:
            return self.mask == other.mask
        return self.vertex_ids() == other.vertex_ids() and list(self.edges()) == list(other.edges())

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.vertices, frozenset(self.edges())))
        return self._hash

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
    return Graph._sub(g.table, g.mask & ~xs)


def component_masks(adj: list[int], live: int) -> list[int]:
    """Connected components of the vertices in live, as masks.

    adj is a table's adjacency list. Components come ordered by their lowest
    bit, which is their smallest id.
    """
    components = []
    rest = live
    while rest:
        comp = todo = rest & -rest
        while todo:
            low = todo & -todo
            todo ^= low
            new = adj[low.bit_length() - 1] & rest & ~comp
            if new:
                comp |= new
                if comp == rest:
                    break
                todo |= new
        components.append(comp)
        rest &= ~comp
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


def is_independent_set(g: Graph, xs: Iterable[int]) -> bool:
    """True iff xs has no repeated vertex and no two of its vertices are adjacent."""
    xlist = list(xs)
    m = _mask_in(g, xlist)
    if m.bit_count() != len(xlist):
        return False
    adj = g.table.adj
    return not any(adj[r] & m for r in g.table.ranks(m))
