"""Run the solver at the paranoid assertion level and inspect what it did.

Paranoid mode re-derives every proven inequality at every step of the run:
family sizes, level occupancy, the potential measure of each instance, and
the per-step recurrence that forces the measure downhill. The stats object
records the same quantities for offline inspection, and a report document
with the stats in its payload, as `qmwis solve --stats` writes, serializes
them byte-deterministically. Run: python3 demos/04_instrumented_run.py
"""

import json
import random

from qmwis import (
    GeneratorSpec,
    ReportDocument,
    generate,
    longest_induced_path_at_most,
    solve_pkfree,
)


def main() -> None:
    # cographs contain no induced 4-path, so k_hint=5 is honest here
    g, w = generate(GeneratorSpec(kind="cograph", size=48, seed=11))
    assert longest_induced_path_at_most(g, 5)

    result = solve_pkfree(g, w, k_hint=5, assertion_level="paranoid")
    s = result.stats
    print(f"weight {result.weight}, witness size {len(result.witness)}")
    print(f"calls {s.calls}, branch steps {s.branch_steps}, separators {s.separators_added}")
    print(f"deepest stack {s.max_depth}, assertions checked {s.assertions_checked}")

    tail = list(s.measure_trace)
    downhill = all(child < parent for _, parent, child in tail)
    print(f"measure trace: {len(tail)} recorded steps, every step strictly downhill: {downhill}")

    doc = ReportDocument(
        command="solve-stats",
        payload={"assertion_level": "paranoid", "weight": result.weight, "stats": s.to_dict()},
    )
    blob = doc.to_json()
    print(f"report: {len(blob)} bytes, round-trips: {json.loads(blob)['weight'] == result.weight}")

    rng = random.Random(5)
    seeds = [rng.randrange(10**6) for _ in range(3)]
    for seed in seeds:
        g, w = generate(GeneratorSpec(kind="pk-free-rejection", size=12, seed=seed, p=0.8, path_bound=5))
        r = solve_pkfree(g, w, k_hint=5, assertion_level="paranoid")
        print(f"rejection-sampled 5-path-free graph, seed {seed}: weight {r.weight}, clean run")


if __name__ == "__main__":
    main()
