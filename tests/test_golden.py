"""Pinned results of the generator corpus.

Call counts, weights, witnesses and the exact CLI report bytes must not move
when the graph representation changes: every tie-break ("smallest id wins")
is part of the pinned behaviour.
"""

import hashlib

import pytest

from qmwis import GeneratorSpec, emit_graph, generate, solve_pkfree
from qmwis.cli import cli_main

GOLDEN = [
    (
        GeneratorSpec(kind="random-gnp", size=30, seed=1, p=0.3),
        1809,
        577,
        [3, 6, 9, 11, 13, 17, 20, 25],
        "809efbb68f4f0266f2addde91dc458e6bff3e066dad31305bc3eb2d0952884e5",
    ),
    (
        GeneratorSpec(kind="random-gnp", size=30, seed=2, p=0.3),
        2192,
        600,
        [1, 2, 11, 12, 15, 16, 24, 27, 28],
        "f967bb23182cd4ffa8944015f4c9fb75f8f5234e40de9d5e731c345065379071",
    ),
    (
        GeneratorSpec(kind="random-gnp", size=30, seed=3, p=0.3),
        2300,
        659,
        [2, 3, 4, 5, 7, 10, 16, 20, 21, 28],
        "7cf90bca14b474c2061c5d842a4d1a857ef7174a14225b66d018c7492b25a648",
    ),
    (
        GeneratorSpec(kind="cograph", size=128, seed=1),
        866,
        2089,
        [20, 21, 22, 23, 24, 25, 27, 28, 29, 30, 31, 34, 36, 37, 40, 41, 42, 43, 44, 45, 46,
         49, 50, 51, 71, 72, 78, 81, 82, 83, 84, 85, 86, 93, 94, 95, 97, 99, 100, 102, 105,
         106, 107],
        "b5dfdf130f1e44afacebb3f063e8ad7b0daabad8bbba6ff9f36945523f36d694",
    ),
    (
        GeneratorSpec(kind="cograph", size=128, seed=2),
        2174,
        1642,
        [1, 2, 3, 6, 7, 8, 9, 15, 17, 18, 19, 23, 26, 27, 29, 31, 32, 33, 35, 36, 37, 38, 40,
         41, 43],
        "2ea9649a843ff9d9cd50e802eae5aed7ac9dd40860494cc74bdb17bdcc4b85d3",
    ),
]


@pytest.mark.parametrize(
    "spec, calls, weight, witness, report_sha256",
    GOLDEN,
    ids=[f"{spec.kind}-{spec.size}-seed{spec.seed}" for spec, *_ in GOLDEN],
)
def test_golden_corpus(spec, calls, weight, witness, report_sha256, tmp_path, capsys):
    g, w = generate(spec)
    result = solve_pkfree(g, w)
    assert result.stats.calls == calls
    assert result.weight == weight
    assert sorted(result.witness) == witness

    path = tmp_path / "g.graph"
    path.write_text(emit_graph(g, w))
    code = cli_main(["solve", str(path), "--assert", "paranoid", "--k-hint", "4", "--witness"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == report_sha256
