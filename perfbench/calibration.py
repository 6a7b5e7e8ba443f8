"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by 20-40 %
over tens of seconds, far more than the changes it must detect. A worker
therefore runs a fixed pure-Python kernel (dict, set and frozenset work
like the graph layer's, over a private 60-vertex graph) between solves, and
scales each solve time by REFERENCE_S / (the kernel's local median time).
The reported times are seconds at reference speed: wall seconds on a host
where one kernel run takes REFERENCE_S. Raw wall times go to the detail
line. The kernel runs with the garbage collector off, so a large heap left
by the solver cannot slow it and hide a regression.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# Median kernel time on the 2-core Xeon VM the benchmark was calibrated on.
REFERENCE_S = 0.0025

# A solve is scaled by the median of this many kernel runs on each side.
WINDOW = 4


def _kernel_graph() -> dict[int, frozenset[int]]:
    rng = random.Random(0)
    n = 60
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3}
    return {v: frozenset(u for u in range(n) if (u, v) in edges or (v, u) in edges) for v in range(n)}


class Calibrator:
    def __init__(self) -> None:
        self._adj = _kernel_graph()
        self.samples: list[float] = []

    def _kernel(self) -> int:
        # Delete a window of five vertices, then count components by DFS.
        adj = self._adj
        components = 0
        for drop in range(0, len(adj), 3):
            gone = frozenset(range(drop, drop + 5))
            sub = {v: nb - gone for v, nb in adj.items() if v not in gone}
            seen: set[int] = set()
            for root in sub:
                if root in seen:
                    continue
                components += 1
                seen.add(root)
                stack = [root]
                while stack:
                    for x in sub[stack.pop()]:
                        if x not in seen:
                            seen.add(x)
                            stack.append(x)
        return components

    def sample(self, count: int = 1) -> None:
        """Time count kernel runs with the garbage collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter_ns()
                self._kernel()
                self.samples.append((time.perf_counter_ns() - start) / 1e9)
        finally:
            if enabled:
                gc.enable()

    def scale(self, lo: int = 0, hi: int | None = None) -> float:
        """REFERENCE_S over the median kernel time of samples[lo:hi]."""
        return REFERENCE_S / statistics.median(self.samples[max(0, lo):hi])
