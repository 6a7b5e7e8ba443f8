"""Watch the separator machinery split graphs into small pieces.

gyarfas_path grows an induced path whose closed neighborhood halves the
graph; balanced_separator_core iterates that to push every leftover
component below n / 2^i and returns the core as a mask over the graph's
vertex table (g.table.decode turns it into ids). Run: python3 demos/02_separator_walk.py
"""

import itertools
import random
from fractions import Fraction

from qmwis import (
    Graph,
    balanced_separator_core,
    closed_neighborhood,
    connected_components,
    gyarfas_path,
    remove_vertices,
    verify_balanced,
)


def connected_random(rng: random.Random, n: int, p: float) -> Graph:
    ids = list(range(1, n + 1))
    edges = {(u, v) for u, v in itertools.combinations(ids, 2) if rng.random() < p}
    order = ids[:]
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        edges.add((min(a, b), max(a, b)))
    return Graph(ids, edges)


def main() -> None:
    path7 = Graph(range(1, 8), [(i, i + 1) for i in range(1, 7)])
    walk = gyarfas_path(path7, start=1)
    print(f"7-path, walking from vertex 1: induced path {walk}")
    leftover = remove_vertices(path7, closed_neighborhood(path7, walk))
    sizes = [len(c) for c in connected_components(leftover)]
    print(f"  closed neighborhood removed, leftover component sizes: {sizes}")

    rng = random.Random(21)
    for i in (1, 2, 3):
        g = connected_random(rng, 40, 0.12)
        core = balanced_separator_core(g, i)
        separator = closed_neighborhood(g, core)
        ok = verify_balanced(g, separator, Fraction(g.n, 2**i))
        pieces = connected_components(remove_vertices(g, separator))
        worst = max((len(c) for c in pieces), default=0)
        print(
            f"n=40, i={i}: core size {core.bit_count()}, "
            f"target <= {40 // 2**i} per piece, worst piece {worst}, balanced={ok}"
        )


if __name__ == "__main__":
    main()
