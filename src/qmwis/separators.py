"""Constructive balanced separators built from induced dominating paths.

All balance comparisons are exact: a component C violates the bound
|V(G)|/2^i iff |C| * 2^i > |V(G)|, checked in integers. The induced-path
search beside them decides P_k-freeness.
"""

from __future__ import annotations

from math import floor
from typing import TYPE_CHECKING

from .graph import Graph, VertexSet, VertexTable, component_masks

if TYPE_CHECKING:
    from numbers import Rational


def _path_ranks(adj: list[int], current: int, tail: int) -> list[int]:
    """The Gyarfas path from rank tail inside the connected mask current.

    Each step moves into the component C of current - N[tail] with more
    than |current|/2 vertices, at its smallest neighbour, and the path ends
    when there is none. At most one component is that large, so labelling
    stops early (component_masks' until), and none is labelled when
    current - N[tail] is no larger than half. N(C) within current lies
    inside N(tail), so that neighbour is the first vertex of N(tail)
    adjacent to C.
    """
    path = [tail]
    while True:
        half = current.bit_count() // 2
        rest = current & ~(adj[tail] | 1 << tail)
        if rest.bit_count() <= half:
            return path
        big = component_masks(adj, rest, until=half)[-1]
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
    # X' is the level i - 1 core, empty at i = 1. Each path starts at its
    # component's smallest id. A remainder within the bound holds no
    # component that breaks it, so it is not labelled.
    adj = table.adj
    if i == 1:
        core, rest = 0, live
    else:
        core = _core_mask(table, live, n, i - 1)
        rest = live & ~table.closed(core)
    if rest.bit_count() << i <= n:
        return core
    for comp in component_masks(adj, rest):
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
    """True iff every component of g - separator (ids or a mask) has at most bound vertices.

    Every component lies inside V(g) - separator, so a remainder of at most
    bound vertices decides it without labelling a component. Otherwise the
    labelling stops at the first component past floor(bound) vertices, as
    component sizes are integers. Ids outside g are ignored.
    """
    if not isinstance(separator, int):
        rank = g.table.rank
        separator = g.table.mask(v for v in separator if v in rank)
    rest = g.mask & ~separator
    if rest.bit_count() <= bound:
        return True
    return component_masks(g.table.adj, rest, limit=floor(bound)) is not None


def longest_induced_path_at_most(g: Graph, k: int) -> bool:
    """True iff g has no induced path on k vertices.

    Depth-first extension of induced paths: the next vertex must be adjacent
    to the current endpoint and non-adjacent to every earlier path vertex.
    Returns as soon as one k-vertex induced path is found. The search keeps
    one candidate mask per path vertex on an explicit stack, so k is not
    bounded by the interpreter's recursion limit. A path lies inside one
    component, so only components with at least k vertices are searched;
    within them the search still restarts from every start vertex.
    """
    return _induced_path(g, k) is None


def _induced_path(g: Graph, k: int) -> list[int] | None:
    # The ids, in path order, of the first induced k-vertex path the search
    # finds, or None when g has none.
    if k < 1:
        raise ValueError(f"path length must be >= 1, got {k}")
    ids, live = g.table.ids, g.mask
    if k == 1:
        return [ids[(live & -live).bit_length() - 1]] if live else None

    adj = g.table.adj
    # Components are disjoint masks, so their sum is their union.
    large = sum(comp for comp in component_masks(adj, live) if comp.bit_count() >= k)
    for start in g.table.ranks(large):
        # Frames (tail, banned, untried), one per path vertex: banned is
        # N[path before tail] plus tail (tail lies in N(previous tail)),
        # untried the extensions past tail not yet explored.
        stack = [(start, 1 << start, adj[start] & live)]
        while stack:
            tail, banned, untried = stack.pop()
            if not untried:
                continue
            low = untried & -untried
            stack.append((tail, banned, untried ^ low))
            nxt = low.bit_length() - 1
            if len(stack) + 1 == k:
                return [ids[frame[0]] for frame in stack] + [ids[nxt]]
            reach = banned | adj[tail]
            stack.append((nxt, reach, adj[nxt] & live & ~reach))
    return None
