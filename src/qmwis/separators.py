"""Constructive balanced separators built from induced dominating paths.

The core routine grows an induced path by repeatedly descending into the
largest component left after deleting the path's closed neighborhood. Once
no remaining component holds more than half the current graph, the path's
closed neighborhood is a |V(G)|/2-balanced separator. The refined form
drives the residual component bound down to |V(G)|/2^i by recursing on the
parameter i and re-running the path construction inside each component that
is still too large.

All balance comparisons are exact: a component C violates the bound
|V(G)|/2^i iff |C| * 2^i > |V(G)|, checked in integers.
"""

from __future__ import annotations

from numbers import Rational

from .graph import Graph, VertexSet, VertexTable, component_masks, remove_vertices


def _path_ranks(adj: list[int], current: int, tail: int) -> list[int]:
    """The Gyarfas path from rank tail inside the connected mask current.

    Each step moves into the component C of current - N[tail] with more
    than |current|/2 vertices, at its smallest neighbour, and the path ends
    when there is none. At most one component is that large, so the search
    stops at it, and it is skipped when current - N[tail] is no larger than
    half. N(C) within current lies inside N(tail), so that neighbour is the
    first vertex of N(tail) adjacent to C.
    """
    path = [tail]
    while True:
        half = current.bit_count() // 2
        rest = current & ~(adj[tail] | 1 << tail)
        if rest.bit_count() <= half:
            return path
        big = component_masks(adj, rest, limit=half)[-1]
        if big.bit_count() <= half:
            return path
        candidates = adj[tail] & current
        while True:
            low = candidates & -candidates
            tail = low.bit_length() - 1
            if adj[tail] & big:
                break
            candidates ^= low
        current = big | low
        path.append(tail)


def gyarfas_path(g: Graph, start: int) -> list[int]:
    """An induced path from start whose neighborhood splits g in half.

    Every component of g - N[V(P)] has at most |V(g)|/2 vertices for the
    returned path P. On a graph with no induced path on k vertices the
    result has at most k - 1 vertices.

    Args:
        g: connected host graph.
        start: vertex the path begins at.

    Raises:
        ValueError: if start is outside g or g is disconnected.
    """
    if start not in g:
        raise ValueError(f"start vertex {start} is not in the graph")
    if len(component_masks(g.table.adj, g.mask)) != 1:
        raise ValueError("gyarfas_path requires a connected graph")
    ids = g.table.ids
    return [ids[r] for r in _path_ranks(g.table.adj, g.mask, g.table.rank[start])]


def _core_mask(table: VertexTable, live: int, n: int, i: int) -> int:
    # Paths are grown inside every component of live - N[X'] that breaks the
    # bound, X' being the level i - 1 core (empty at i = 1), starting at the
    # component's smallest id.
    core = 0 if i == 1 else _core_mask(table, live, n, i - 1)
    adj = table.adj
    for comp in component_masks(adj, live & ~table.closed(core)):
        if comp.bit_count() << i > n:
            for r in _path_ranks(adj, comp, (comp & -comp).bit_length() - 1):
                core |= 1 << r
    return core


def balanced_separator_core(g: Graph, i: int) -> int:
    """The mask over g.table of a core X with N[X] a |V(g)|/2^i-balanced separator of g.

    No component of g - N[X] has more than |V(g)|/2^i vertices.

    For i = 1 this is the path construction applied to the one component
    that can exceed half the graph (if any). For larger i the level i - 1
    core is refined: every component of g - N[X'] still larger than
    |V(g)|/2^i contributes the path construction run inside it. When
    2^i >= |V(g)| the bound is at most 1 vertex per component and g.mask,
    the whole vertex set, is returned; the size bound |X| <= 2^(i+1) * k
    for graphs with no induced k-vertex path still holds since |X| <= 2^i.

    The total number of path constructions is O(|V(g)|) across the whole
    recursion: at most 2^j of them at parameter j, each on disjoint
    components of at least |V(g)|/2^j vertices.
    """
    if i < 1:
        raise ValueError(f"separator parameter must be >= 1, got {i}")
    n = g.n
    if 2**i >= n:
        return g.mask
    return _core_mask(g.table, g.mask, n, i)


def verify_balanced(g: Graph, separator: VertexSet, bound: Rational) -> bool:
    """True iff every component of g - separator (ids or a mask) has at most bound vertices."""
    rest = remove_vertices(g, separator)
    return all(c.bit_count() <= bound for c in component_masks(g.table.adj, rest.mask))
