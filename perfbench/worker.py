"""One workload run in a fresh single-threaded process.

Usage (run.py starts it; it can also be run by hand from the repo root):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is "setup" (set up, report the set-up time and exit), "solve" (also
solve every instance once, untraced) or "trace" (solve with the span tracer
installed). Set-up is timed from the first statement of this file, before
qmwis is imported. Every time is reported both as measured and scaled to
reference speed (see calibration.py). References are computed after the
timed loop and stay out of every timing. The result is one JSON object on
stdout.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from calibration import WINDOW, Calibrator
from layers import ENGINE_COUNTS
from reference import reference_weight, witness_error
from tracer import Tracer
from workloads import P4_K3_EDGES, WORKLOADS, Instance, Workload, instances

CLI_FLAGS = ("--assert", "paranoid", "--k-hint", "4", "--witness")


class SolveHook:
    """Stands in for the solver a call reaches; keeps its result and timing.

    inner is (result, ns, first span, end span) of the last solve, so the
    solver's share of a CLI call and its spans can be told apart.
    """

    def __init__(self, solve, tracer: Tracer | None):
        self.solve = solve
        self.tracer = tracer
        self.inner: tuple | None = None

    def __call__(self, *args, **kwargs):
        lo = self.tracer.mark() if self.tracer else 0
        start = time.perf_counter_ns()
        result = self.solve(*args, **kwargs)
        ns = time.perf_counter_ns() - start
        self.inner = (result, ns, lo, self.tracer.mark() if self.tracer else 0)
        return result


def build_calls(workload: Workload, insts: list[Instance], workdir: Path, tracer: Tracer | None):
    """Set up every instance; returns (hook, calls), one call per instance.

    A call returns (weight, witness, report bytes or None).
    """
    import qmwis
    from qmwis import cli

    graphs = [(qmwis.Graph(range(1, i.n + 1), i.edges), i.weights) for i in insts]
    if workload.call == "cli":
        hook = SolveHook(cli.solve_pkfree, tracer)
        cli.solve_pkfree = hook
        workdir.mkdir(parents=True, exist_ok=True)
        paths = []
        for index, (g, w) in enumerate(graphs):
            path = workdir / f"{index}.graph"
            path.write_text(qmwis.emit_graph(g, w))
            paths.append(str(path))

        def run_cli(path: str):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.cli_main(["solve", path, *CLI_FLAGS])
            if code != 0:
                raise RuntimeError(f"cli exit {code}: {err.getvalue().strip()[:200]}")
            report = out.getvalue()
            doc = json.loads(report)
            return doc["weight"], doc["witness"], report.encode()

        return hook, [lambda p=p: run_cli(p) for p in paths]

    if workload.call == "pkfree":
        hook = SolveHook(qmwis.solve_pkfree, tracer)
        solve = hook
    else:
        hook = SolveHook(qmwis.solve_hfree, tracer)
        pattern = qmwis.PatternGraph.from_graph(qmwis.Graph(range(1, 8), P4_K3_EDGES))
        pk, brute = qmwis.make_pk_oracle(4), qmwis.make_bruteforce_oracle()
        if tracer is not None:
            pk = _traced_oracle(tracer, "oracle.pk", pk)
            brute = _traced_oracle(tracer, "oracle.bruteforce", brute)
        oracles = [pk, brute]

        def solve(g, w):
            return hook(pattern, g, w, oracles)

    def run_api(g, w):
        result = solve(g, w)
        return result.weight, result.witness, None

    return hook, [lambda g=g, w=w: run_api(g, w) for g, w in graphs]


def _traced_oracle(tracer: Tracer, name: str, oracle):
    return dataclasses.replace(
        oracle,
        solve=tracer.wrap(name, oracle.solve),
        solve_with_witness=tracer.wrap(name, oracle.solve_with_witness),
    )


def solve_all(calls, hook: SolveHook, tracer: Tracer | None, cal: Calibrator) -> list[tuple]:
    """Solve each instance once, in order, with a calibration sample after each."""
    records = []
    for call in calls:
        hook.inner = None
        lo = tracer.mark() if tracer else 0
        start = time.perf_counter_ns()
        try:
            outcome, error = call(), None
        except Exception as exc:  # a failed solve is counted, not fatal
            outcome, error = None, f"{type(exc).__name__}: {exc}"[:300]
        ns = time.perf_counter_ns() - start
        records.append((outcome, error, ns, lo, tracer.mark() if tracer else 0, hook.inner))
        cal.sample()
    return records


def summarize(
    workload: Workload, insts: list[Instance], records: list[tuple], tracer: Tracer | None, cal: Calibrator
) -> dict:
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall, times, weights, errors, digests, counts = [], [], [], [], [], []
    engine_residual_ns = cli_residual_ns = 0
    first = len(cal.samples) - len(records)
    for i, (inst, (outcome, error, ns, lo, hi, inner)) in enumerate(zip(insts, records)):
        wall.append(ns / 1e9)
        times.append(ns / 1e9 * cal.scale(first + i - WINDOW, first + i + WINDOW))
        weight = report = None
        if error is None:
            weight, witness, report = outcome
            expected = reference_weight(workload.kind, inst)
            if weight != expected:
                error = f"weight {weight} != reference {expected}"
            else:
                error = witness_error(inst, weight, witness)
        weights.append(weight)
        errors.append(error)
        digests.append(hashlib.sha256(report).hexdigest() if report else None)
        if inner is None:
            counts.append(None)
            continue
        result, inner_ns, inner_lo, inner_hi = inner
        counts.append([getattr(result.stats, field) for field in ENGINE_COUNTS.values()])
        if tracer is not None:
            inner_top = tracer.top_level_ns(inner_lo, inner_hi)
            engine_residual_ns += inner_ns - inner_top
            cli_residual_ns += ns - inner_ns - (tracer.top_level_ns(lo, hi) - inner_top)
    out = {
        "times": times,
        "wall_times": wall,
        "batch_s": sum(times),
        "wall_batch_s": sum(wall),
        "scale": cal.scale(first),
        "peak_rss_mib": peak_rss_mib,
        "weights": weights,
        "errors": errors,
        "digests": digests,
        "counts": counts,
    }
    if tracer is not None:
        scale = out["scale"]
        out["spans"] = tracer.totals(scale)
        out["span_count"] = tracer.mark()
        out["absent"] = tracer.absent
        out["engine_residual_s"] = engine_residual_ns / 1e9 * scale
        out["cli_residual_s"] = cli_residual_ns / 1e9 * scale
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "solve", "trace"))
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = HERE / ".work" / str(os.getpid())
    try:
        insts = instances(workload, args.seed, workload.instance_count(args.seconds))
        tracer = Tracer() if args.mode == "trace" else None
        hook, calls = build_calls(workload, insts, workdir, tracer)
        setup_s = time.perf_counter() - _T0
        cal = Calibrator()
        cal.sample(2 * WINDOW)
        result: dict = {
            "setup_s": setup_s * cal.scale(),
            "setup_wall_s": setup_s,
            "instances": len(insts),
        }
        if args.mode != "setup":
            if tracer is not None:
                tracer.install()
            try:
                records = solve_all(calls, hook, tracer, cal)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            result.update(summarize(workload, insts, records, tracer, cal))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
