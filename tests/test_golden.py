"""Pinned results of the generator corpus.

Call counts, weights, witnesses, the exact CLI report bytes and the full run
stats must not move when the graph representation or the recursion's code
changes: every tie-break ("smallest id wins") is part of the pinned
behaviour. So are the rule, message and details of the audit failures the
shared recursion raises.
"""

import hashlib
import json

import pytest

from qmwis import (
    GeneratorSpec,
    Graph,
    Instance,
    InvariantViolation,
    VertexMultiFamily,
    alg1_call,
    emit_graph,
    generate,
    make_bruteforce_oracle,
    make_pk_oracle,
    solve_hfree,
    solve_pkfree,
)
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


def _stats_sha256(result):
    return hashlib.sha256(json.dumps(result.stats.to_dict(), sort_keys=True).encode()).hexdigest()


# sha256 of the sorted-key JSON of stats.to_dict() per GOLDEN row and level;
# the reports above lack max_depth, max_graph_size, level occupancy and the
# measure trace, which the driver's bookkeeping and the audit produce.
GOLDEN_STATS = {
    "random-gnp-30-seed1": {
        "off": "cbddecab229c5f8eeaa05785305e66a8eb5d6d3d95a5fb43ee0027297accc822",
        "fair": "f1ec9ff5366a6abbb793ba4416d1c8df5f073fcb4045fa8bfa26828f1631e4a0",
        "paranoid": "a7c32e34edc02d49dfd8471c135dbee1aae81d48390630f3cf88862c7713625d",
    },
    "random-gnp-30-seed2": {
        "off": "44bba9e380cdae76b15555aa6857aadf6e1181425cfb2c1857f1540e7cfabfc1",
        "fair": "5af795c9068313eb16dc39319aa42b7d0e0ce8c3dc1207df82d24e1714606d4c",
        "paranoid": "80c07a454790c34404cbe89b6ec67b281e6aab3ad4a324a0375eaa6c9c341be4",
    },
    "random-gnp-30-seed3": {
        "off": "c96abca4efe3762b98ad64c914c50946e1fa5c686737492332b379dc70db8db3",
        "fair": "83be144effba825e5648beac560b480f875dde9fc829c28cb3ed6e479426e533",
        "paranoid": "a4633c3c4bfa13ca8ad0dfb83b4e6b275dfbe0d5c539a60abc675f52ebe6b1e0",
    },
    "cograph-128-seed1": {
        "off": "98c11b3c84ff458287c1672b12543cd1f4aeb878a5a85257279e822e2a0d6ecd",
        "fair": "01d2857647f6ce3338030a08c1d3aa22dcb3d2bda4a7734296c74113a0946146",
        "paranoid": "80bdabbc7d1bc7d0b14880a74ff3610a11651a2f9c628234fb7420a34cc83505",
    },
    "cograph-128-seed2": {
        "off": "7b8ad291a11ad5da44bb10f8347f2499d690dbaf76933558d701c71cef29689c",
        "fair": "bb897979ff8d788a7992faad45b5e66d1acb892ab69e331f409ebf249c76c208",
        "paranoid": "c294a0f3800cc602480fca7c496ffc039413f2ee16ad2584967825b5be8708f8",
    },
}


@pytest.mark.parametrize("level", ["off", "fair", "paranoid"])
@pytest.mark.parametrize(
    "spec", [row[0] for row in GOLDEN], ids=[f"{s.kind}-{s.size}-seed{s.seed}" for s, *_ in GOLDEN]
)
def test_golden_stats(spec, level):
    g, w = generate(spec)
    k_hint = 4 if level == "paranoid" else None
    result = solve_pkfree(g, w, k_hint=k_hint, assertion_level=level)
    assert _stats_sha256(result) == GOLDEN_STATS[f"{spec.kind}-{spec.size}-seed{spec.seed}"][level]


P4_K3 = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])

GOLDEN_HFREE = [
    (
        GeneratorSpec(kind="random-gnp", size=28, seed=1, p=0.3),
        765,
        337,
        92,
        560,
        [2, 4, 12, 16, 21, 22, 24, 26],
        "ecf096456045569b9f8171cc2cf826a00a18bf1461de493b36e0d37ee49b6d28",
    ),
    (
        GeneratorSpec(kind="random-gnp", size=28, seed=2, p=0.3),
        689,
        296,
        98,
        567,
        [1, 2, 3, 12, 17, 20, 25, 26, 27],
        "c7163401e29133ee0ce9ffa15dabee6808436687ee9aecdab3ee50cab35b777c",
    ),
]


@pytest.mark.parametrize(
    "spec, calls, oracle_calls, neighborhoods, weight, witness, report_sha256",
    GOLDEN_HFREE,
    ids=[f"p4k3-{spec.kind}-{spec.size}-seed{spec.seed}" for spec, *_ in GOLDEN_HFREE],
)
def test_golden_hfree(
    spec, calls, oracle_calls, neighborhoods, weight, witness, report_sha256, tmp_path, capsys
):
    g, w = generate(spec)
    result = solve_hfree(P4_K3, g, w, [make_pk_oracle(4), make_bruteforce_oracle()])
    assert result.stats.calls == calls
    assert result.stats.oracle_calls == oracle_calls
    assert result.stats.neighborhoods_added_count == neighborhoods
    assert result.weight == weight
    assert sorted(result.witness) == witness

    path = tmp_path / "g.graph"
    path.write_text(emit_graph(g, w))
    pattern = tmp_path / "p.graph"
    pattern.write_text(emit_graph(P4_K3, {v: 1 for v in P4_K3.vertex_ids()}))
    argv = ["solve-hfree", str(path), "--pattern", str(pattern), "--oracle", "pk:4"]
    argv += ["--oracle", "bruteforce", "--assert", "paranoid", "--witness"]
    code = cli_main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == report_sha256


# sha256 of the stats of each GOLDEN_HFREE row's solve at "fair".
GOLDEN_HFREE_STATS = {
    1: "825fc1db6e623bba9763a264da356bdfa976d4a8ae4575a32659472996ad270d",
    2: "974d69ad78c4b4cfceb00b05204c05492166067f2ba187b64c826c6e54fbcc0a",
}


@pytest.mark.parametrize(
    "spec",
    [row[0] for row in GOLDEN_HFREE],
    ids=[f"p4k3-{spec.kind}-{spec.size}-seed{spec.seed}" for spec, *_ in GOLDEN_HFREE],
)
def test_golden_hfree_stats(spec):
    g, w = generate(spec)
    result = solve_hfree(P4_K3, g, w, [make_pk_oracle(4), make_bruteforce_oracle()])
    assert _stats_sha256(result) == GOLDEN_HFREE_STATS[spec.seed]


def _path(n):
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


GOLDEN_AUDIT = [
    (
        3,
        [{1}] * 3,
        {},
        "level-emptiness",
        "level-emptiness: L(F, 3) is non-empty with N = 3",
        {"level": 3, "occupancy": 1},
    ),
    (
        3,
        [set()] * 21,
        {"k_hint": 1},
        "family-size",
        "family-size: |F| = 21 exceeds 10k log(N) = 20",
        {"family_size": 21, "bound": 20},
    ),
    (
        8,
        [{1}],
        {"assertion_level": "paranoid"},
        "separator-balance",
        "separator-balance: a family member is not an N/4-balanced separator (N = 8)",
        {"member": [1], "N": 8},
    ),
]


@pytest.mark.parametrize(
    "n, members, options, rule, message, details",
    GOLDEN_AUDIT,
    ids=[row[3] for row in GOLDEN_AUDIT],
)
def test_golden_audit_failures(n, members, options, rule, message, details):
    g = _path(n)
    inst = Instance(g, {v: 1 for v in g.vertex_ids()}, n, VertexMultiFamily(members))
    with pytest.raises(InvariantViolation) as info:
        alg1_call(inst, **options)
    assert info.value.rule == rule
    assert str(info.value) == message
    assert info.value.details == details
