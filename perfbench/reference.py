"""Independent correctness references for the benchmark's answers.

Cographs get an exact dynamic programme over the cotree, recovered from the
graph itself: a disconnected cograph is the union of its components (the
optimum is their sum) and a connected one with two or more vertices is the
join of its complement's components (the optimum is their maximum). It runs
in polynomial time where brute force does not finish at a few hundred
vertices. General graphs go to qmwis.brute_force_mwis, a bitmask branch and
bound that shares no code with the separator solvers.

Witness checks use the benchmark's own edge lists, never the solver's
verify_witness.
"""

from __future__ import annotations

from typing import Iterable

from workloads import Instance


class NotACograph(ValueError):
    """A connected graph whose complement is connected too."""


def _components(vertices: set[int], adjacent) -> list[set[int]]:
    # adjacent(u, rest) returns the members of rest joined to u.
    rest = set(vertices)
    out = []
    while rest:
        root = rest.pop()
        comp = {root}
        stack = [root]
        while stack:
            found = adjacent(stack.pop(), rest)
            rest -= found
            comp |= found
            stack.extend(found)
        out.append(comp)
    return out


def cograph_mwis(adj: dict[int, set[int]], weights: dict[int, int]) -> tuple[int, frozenset[int]]:
    """Exact (weight, witness) of a cograph given as an adjacency map."""

    def solve(vertices: set[int]) -> tuple[int, frozenset[int]]:
        if len(vertices) == 1:
            (v,) = vertices
            return weights[v], frozenset(vertices)
        parts = _components(vertices, lambda u, rest: adj[u] & rest)
        if len(parts) > 1:
            results = [solve(p) for p in parts]
            return sum(r[0] for r in results), frozenset().union(*(r[1] for r in results))
        parts = _components(vertices, lambda u, rest: rest - adj[u])
        if len(parts) == 1:
            raise NotACograph(f"{len(vertices)} vertices induce a prime subgraph")
        # Ties go to the part with the smallest vertex, so the result is deterministic.
        return max((solve(p) for p in sorted(parts, key=min)), key=lambda r: r[0])

    if not adj:
        return 0, frozenset()
    return solve(set(adj))


def reference_weight(kind: str, inst: Instance) -> int:
    """The optimum weight of inst by the reference suited to its kind."""
    if kind in ("cograph", "layered-cograph"):
        return cograph_mwis(inst.adjacency(), inst.weights)[0]
    from qmwis import Graph, brute_force_mwis

    g = Graph(range(1, inst.n + 1), inst.edges)
    return brute_force_mwis(g, inst.weights, max_size=inst.n)[0]


def witness_error(inst: Instance, weight: int, witness: Iterable[int]) -> str | None:
    """Why witness is not an independent set of inst weighing weight, or None."""
    chosen = list(witness)
    members = set(chosen)
    if len(members) != len(chosen):
        return "witness repeats a vertex"
    if any(not 1 <= v <= inst.n for v in members):
        return "witness has a vertex outside the graph"
    if any(u in members and v in members for u, v in inst.edges):
        return "witness is not independent"
    total = sum(inst.weights[v] for v in members)
    if total != weight:
        return f"witness weighs {total}, reported {weight}"
    return None
