"""Seeded workload definitions and instance generators.

The generators live here rather than in qmwis so that the benchmark inputs
stay fixed when the library's own generators change. With join_p = 0.5 and
the same per-instance seed they draw exactly what qmwis.generate draws for
the random-gnp and cograph kinds: edges first, then weights in vertex order.

Nothing in this module imports qmwis, so a worker can start its set-up timer
before the library is loaded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WEIGHT_RANGE = (0, 100)

# The pattern of the hfree workload: an induced 4-vertex path plus a triangle.
P4_K3_EDGES = ((1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind is "gnp" (edge probability p), "cograph" (join probability p at
    each cotree node) or "layered-cograph" (p unused). call is "pkfree", "hfree" or "cli". rate is the number
    of instances per measured second; it was calibrated on a 2-core Xeon so
    that an untraced run lasts about --seconds there. Why each workload was
    chosen is recorded in BENCHMARK.json.
    """

    name: str
    kind: str
    size: int
    p: float
    call: str
    rate: float

    def instance_count(self, seconds: int) -> int:
        return max(MIN_INSTANCES, round(seconds * self.rate))


# At least twenty solves, so the tail percentile has ten solves beyond it.
MIN_INSTANCES = 20

WORKLOADS = {
    w.name: w
    for w in (
        Workload("pk-gnp-sparse", "gnp", 30, 0.3, "pkfree", 15.0),
        Workload("pk-cograph-dense", "layered-cograph", 128, 0.0, "pkfree", 6.5),
        Workload("hfree-p4k3", "gnp", 28, 0.3, "hfree", 15.0),
        Workload("cli-audit", "layered-cograph", 72, 0.0, "cli", 15.0),
    )
}


@dataclass(frozen=True)
class Instance:
    """A generated input as plain data: vertices 1..n, edges, weights."""

    seed: int
    n: int
    edges: tuple[tuple[int, int], ...]
    weights: dict[int, int]

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]


def cograph_edges(n: int, join_p: float, rng: random.Random) -> list[tuple[int, int]]:
    """A random cograph: split the id range anywhere, recurse, then join or not."""
    edges: list[tuple[int, int]] = []

    def build(lo: int, hi: int) -> None:
        size = hi - lo + 1
        if size <= 1:
            return
        mid = lo + rng.randint(1, size - 1) - 1
        build(lo, mid)
        build(mid + 1, hi)
        if rng.random() < join_p:
            edges.extend((u, v) for u in range(lo, mid + 1) for v in range(mid + 1, hi + 1))

    build(1, n)
    return edges


def layered_cograph_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A dense cograph whose cotree is balanced and layered.

    Each node splits its id range at 40-60 % and is a union at every third
    depth, a join elsewhere, so about 85 % of all pairs are edges. Solve
    cost varies about 15 % between instances, against 50-100 % for the
    random cotrees of cograph_edges, so a run needs far fewer instances to
    settle.
    """
    edges: list[tuple[int, int]] = []

    def build(lo: int, hi: int, depth: int) -> None:
        size = hi - lo + 1
        if size <= 1:
            return
        low = max(1, round(size * 0.4))
        mid = lo + rng.randint(low, max(low, min(size - 1, round(size * 0.6)))) - 1
        build(lo, mid, depth + 1)
        build(mid + 1, hi, depth + 1)
        if depth % 3 != 2:
            edges.extend((u, v) for u in range(lo, mid + 1) for v in range(mid + 1, hi + 1))

    build(1, n, 0)
    return edges


def make_instance(kind: str, n: int, p: float, seed: int) -> Instance:
    rng = random.Random(seed)
    if kind == "gnp":
        edges = gnp_edges(n, p, rng)
    elif kind == "cograph":
        edges = cograph_edges(n, p, rng)
    elif kind == "layered-cograph":
        edges = layered_cograph_edges(n, rng)
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    weights = {v: rng.randint(*WEIGHT_RANGE) for v in range(1, n + 1)}
    return Instance(seed, n, tuple(edges), weights)


def instances(workload: Workload, seed: int, count: int) -> list[Instance]:
    """count distinct instances, a pure function of (workload, seed, count)."""
    master = random.Random(f"{workload.name}:{seed}")
    seen: set[tuple] = set()
    out: list[Instance] = []
    while len(out) < count:
        inst = make_instance(workload.kind, workload.size, workload.p, master.getrandbits(64))
        key = (inst.edges, tuple(inst.weights.values()))
        if key not in seen:
            seen.add(key)
            out.append(inst)
    return out
