import json
from pathlib import Path

import pytest

import run
from layers import PER_LAYER
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_catalogue():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER
    ]
    for _, _, _, moves in PER_LAYER:
        for metric, workload in moves:
            assert workload in WORKLOADS
            assert metric in {m["name"] for m in SPEC["end_to_end"]}


def test_tail_is_the_highest_percentile_with_ten_solves_beyond():
    assert run.tail([float(i) for i in range(1, 21)]) == (50, 10.0)
    q, value = run.tail([float(i) for i in range(1, 101)])
    assert (q, value) == (90, 90.0)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_of_its_kind(capsys, trace, key):
    argv = ["--workload", "cli-audit", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == 0
    detail, result = (json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20
    assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
    assert {m["unit"] for m in SPEC[key]} >= {v["unit"] for v in result["metrics"].values()}
    assert detail["detail"]["env"]["workload"] == "cli-audit"
