"""The qmwis benchmark: one seeded workload, end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload pk-gnp-sparse --seed 1 --seconds 15 --trace 0

Each measurement runs in a fresh worker process (perfbench/worker.py) that
generates the workload's instances from --seed, solves each one exactly once
and checks every answer against an independent reference. With --trace 0
the last stdout line carries the end-to-end metrics; set-up time is the
median over several fresh processes. Times are seconds at reference speed
(calibration.py); the detail line also gives them as measured. With --trace 1 an untraced and a traced
worker solve the same instances; the traced one must reproduce the weights,
reports and engine counts exactly, and the last line carries the per-layer
metrics. The line before it records the environment and the details.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import ENGINE_COUNTS, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Extra set-up-only processes; with the solving worker they give five samples.
SETUP_PROBES = 4
# Every run must finish within this many seconds.
DEADLINE_S = 170


class BenchmarkError(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} worker exceeded the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten solves above it, and its value."""
    n = len(times)
    q = max(q for q in range(1, 100) if n - math.ceil(q * n / 100) >= 10)
    return q, sorted(times)[math.ceil(q * n / 100) - 1]


def environment(args: argparse.Namespace, instances: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "instances": instances,
    }


def git_commit() -> str:
    """HEAD's commit id read from .git without running git, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def engine_totals(counts: list) -> dict[str, int]:
    """ENGINE_COUNTS summed over instances; max_depth is their maximum."""
    totals = dict.fromkeys(ENGINE_COUNTS, 0)
    for row in filter(None, counts):
        for (metric, field), value in zip(ENGINE_COUNTS.items(), row):
            totals[metric] = max(totals[metric], value) if field == "max_depth" else totals[metric] + value
    return totals


def end_to_end(args: argparse.Namespace, deadline: float) -> tuple[dict, dict, list]:
    runs = [run_worker(args, "setup", deadline) for _ in range(SETUP_PROBES)]
    run = run_worker(args, "solve", deadline)
    runs.append(run)
    setups = [r["setup_s"] for r in runs]
    q, tail_s = tail(run["times"])
    metrics = {
        "solve_s.p50": (statistics.median(run["times"]), "s"),
        "solve_s.tail": (tail_s, "s"),
        "batch_s": (run["batch_s"], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
    }
    detail = {
        "tail_percentile": q,
        "samples": len(run["times"]),
        "setup_samples": setups,
        "speed_scale": run["scale"],
        "wall": {
            "solve_s.p50": statistics.median(run["wall_times"]),
            "solve_s.tail": tail(run["wall_times"])[1],
            "batch_s": run["wall_batch_s"],
            "setup_s": statistics.median(r["setup_wall_s"] for r in runs),
        },
    }
    return metrics, detail, run["errors"]


def per_layer(args: argparse.Namespace, deadline: float) -> tuple[dict, dict, list]:
    plain = run_worker(args, "solve", deadline)
    traced = run_worker(args, "trace", deadline)
    errors = []
    for i, error in enumerate(plain["errors"]):
        if error is None and traced["errors"][i] is not None:
            error = f"traced run: {traced['errors'][i]}"
        elif error is None and plain["weights"][i] != traced["weights"][i]:
            error = f"traced weight {traced['weights'][i]} != untraced {plain['weights'][i]}"
        elif error is None and plain["counts"][i] != traced["counts"][i]:
            error = f"traced engine counts {traced['counts'][i]} != untraced {plain['counts'][i]}"
        elif error is None and plain["digests"][i] != traced["digests"][i]:
            error = "traced report bytes differ from the untraced report"
        errors.append(error)

    values: dict[str, float] = {}
    for span, row in traced["spans"].items():
        for part, value in row.items():
            values[f"{span}.{part}"] = value
    engine = engine_totals(traced["counts"])
    values.update(engine)
    calls = engine["engine.calls"]
    values["engine.residual_s"] = traced["engine_residual_s"]
    values["engine.us_per_call"] = plain["batch_s"] / calls * 1e6 if calls else 0.0
    values["cli.residual_s"] = traced["cli_residual_s"]
    values["trace.overhead_ratio"] = traced["batch_s"] / plain["batch_s"]
    metrics = {name: (values.get(name, 0.0), unit) for name, unit, _, _ in PER_LAYER}
    detail = {
        "absent": traced["absent"],
        "spans": traced["span_count"],
        "untraced_batch_s": plain["batch_s"],
        "traced_batch_s": traced["batch_s"],
        "speed_scale": {"untraced": plain["scale"], "traced": traced["scale"]},
    }
    return metrics, detail, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qmwis benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qmwis" / "__init__.py").is_file():
        sys.stderr.write(f"qmwis sources not found under {ROOT / 'src'}; run from a repository checkout\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, detail, errors = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchmarkError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    attempted = len(errors)
    failed = sum(e is not None for e in errors)
    detail.update(
        env=environment(args, attempted),
        failed_ratio=failed / attempted,
        failures=[e for e in errors if e is not None][:5],
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
