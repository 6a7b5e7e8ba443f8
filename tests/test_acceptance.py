"""Acceptance suite: one test per top-level requirement, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines; any
failure shows up as a normal pytest failure for that criterion. Every
criterion seeds its own generator, so runs are reproducible.
"""

import itertools
import random
import time

from qmwis import (
    GeneratorSpec,
    Graph,
    PatternGraph,
    ReportDocument,
    balanced_separator_core,
    brute_force_mwis,
    closed_neighborhood,
    connected_components,
    emit_graph,
    find_induced_copy,
    generate,
    is_independent_set,
    longest_induced_path_at_most,
    make_bruteforce_oracle,
    make_pk_oracle,
    parse_graph,
    remove_vertices,
    solve_hfree,
    solve_pkfree,
    total_weight,
    verify_witness,
)

# Witnesses verified by the earlier criteria, reported by criterion 8.
WITNESSES_VERIFIED = {"count": 0}


def _gnp(rng: random.Random, n: int, p: float) -> Graph:
    ids = list(range(1, n + 1))
    edges = [(u, v) for u, v in itertools.combinations(ids, 2) if rng.random() < p]
    return Graph(ids, edges)


def _weights(rng: random.Random, g: Graph, hi: int = 100) -> dict[int, int]:
    return {v: rng.randint(0, hi) for v in g.vertex_ids()}


def _connected_gnp(rng: random.Random, n: int, p: float) -> Graph:
    ids = list(range(1, n + 1))
    edges = {(u, v) for u, v in itertools.combinations(ids, 2) if rng.random() < p}
    order = ids[:]
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        edges.add((min(a, b), max(a, b)))
    return Graph(ids, edges)


def _check_witness(g: Graph, w: dict[int, int], weight: int, witness: frozenset) -> None:
    verify_witness(g, w, weight, witness)
    assert is_independent_set(g, witness)
    assert total_weight(w, witness) == weight
    WITNESSES_VERIFIED["count"] += 1


def _sample_pk_free(rng: random.Random, k: int, lo: int, hi: int) -> Graph:
    """Dense rejection sampling: high p suppresses long induced paths."""
    while True:
        n = rng.randint(lo, hi)
        g = _gnp(rng, n, rng.uniform(0.90, 0.985))
        if longest_induced_path_at_most(g, k):
            return g


def test_criterion_1_pkfree_oracle_equivalence():
    """solve_pkfree equals brute force on 1000 random graphs, n in [1,18]."""
    rng = random.Random(0xC1)
    t0 = time.time()
    for trial in range(1000):
        n = rng.randint(1, 18)
        p = (0.1, 0.3, 0.5, 0.8)[trial % 4]
        g = _gnp(rng, n, p)
        w = _weights(rng, g)
        want, _ = brute_force_mwis(g, w)
        got = solve_pkfree(g, w)
        assert got.weight == want, f"graph {trial}: {got.weight} != {want}"
        _check_witness(g, w, got.weight, got.witness)
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 1 exceeded its 5 minute budget: {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS - 1000/1000 exact matches in {elapsed:.1f}s")


def test_criterion_2_hfree_oracle_equivalence():
    """solve_hfree equals brute force for three disconnected patterns, 500 graphs."""
    rng = random.Random(0xC2)
    patterns = [
        ("2K2", Graph([1, 2, 3, 4], [(1, 2), (3, 4)])),
        ("P3+P3", Graph(range(1, 7), [(1, 2), (2, 3), (4, 5), (5, 6)])),
        ("K3+P2", Graph(range(1, 6), [(1, 2), (2, 3), (1, 3), (4, 5)])),
    ]
    prepared = [
        (name, PatternGraph.from_graph(h), [make_bruteforce_oracle() for _ in range(2)])
        for name, h in patterns
    ]
    for trial in range(500):
        name, pattern, oracles = prepared[trial % 3]
        n = rng.randint(1, 14)
        g = _gnp(rng, n, rng.choice([0.15, 0.35, 0.6]))
        w = _weights(rng, g)
        want, _ = brute_force_mwis(g, w)
        got = solve_hfree(pattern, g, w, oracles)
        assert got.weight == want, f"{name}, graph {trial}: {got.weight} != {want}"
        _check_witness(g, w, got.weight, got.witness)
    print("[criterion 2] PASS - 500/500 exact matches over 2K2, P3+P3, K3+P2")


def test_criterion_3_separator_contracts():
    """Cores balance every graph exactly; short-path graphs give small cores."""
    rng = random.Random(0xC3)
    balance_checks = 0
    for _ in range(500):
        n = rng.randint(2, 40)
        g = _connected_gnp(rng, n, rng.choice([0.08, 0.15, 0.3, 0.6]))
        for i in (1, 2, 3):
            if 2**i >= n:
                continue
            separator = closed_neighborhood(g, g.table.decode(balanced_separator_core(g, i)))
            rest_components = connected_components(remove_vertices(g, separator))
            bound = n // (2**i)
            for comp in rest_components:
                assert len(comp) <= bound, (n, i, len(comp), bound)
            balance_checks += 1

    core_size_checks = 0
    produced = 0
    while produced < 100:
        n = rng.randint(30, 60)
        g = _connected_gnp(rng, n, rng.uniform(0.90, 0.985))
        if not longest_induced_path_at_most(g, 5):
            continue
        produced += 1
        for i in (1, 2, 3):
            if 2**i >= g.n:
                continue
            core = g.table.decode(balanced_separator_core(g, i))
            assert len(core) <= 2 ** (i + 1) * 5, (g.n, i, len(core))
            core_size_checks += 1
    print(
        f"[criterion 3] PASS - {balance_checks} exact balance checks, "
        f"{core_size_checks} core-size checks on 5-path-free graphs"
    )


def test_criterion_4_pkfree_paranoid_invariants():
    """Paranoid runs on 100 + 100 path-free graphs finish with zero violations."""
    rng = random.Random(0xC4)
    t0 = time.time()
    solved = {5: 0, 6: 0}
    for k, size_hi, count in ((5, 60, 100), (6, 50, 100)):
        for trial in range(count):
            style = trial % 3
            if style == 0:
                g, _ = generate(
                    GeneratorSpec(kind="cograph", size=rng.randint(20, size_hi), seed=rng.randrange(10**9))
                )
            elif style == 1:
                g = _sample_pk_free(rng, k, 30, size_hi)
            else:
                while True:
                    g = _gnp(rng, rng.randint(4, 16), 0.35)
                    if longest_induced_path_at_most(g, k):
                        break
            assert longest_induced_path_at_most(g, k)
            w = _weights(rng, g)
            result = solve_pkfree(g, w, k_hint=k, assertion_level="paranoid")
            _check_witness(g, w, result.weight, result.witness)
            if g.n <= 18:
                assert result.weight == brute_force_mwis(g, w)[0]
            solved[k] += 1
    elapsed = time.time() - t0
    assert elapsed < 900, f"criterion 4 exceeded its 15 minute budget: {elapsed:.1f}s"
    print(
        f"[criterion 4] PASS - {solved[5]} 5-path-free and {solved[6]} 6-path-free "
        f"paranoid runs, zero violations, {elapsed:.1f}s"
    )


def test_criterion_5_hfree_paranoid_invariants():
    """Paranoid pattern runs on 100 rejection-sampled 2K2-free graphs, n <= 40."""
    rng = random.Random(0xC5)
    two_k2 = Graph([1, 2, 3, 4], [(1, 2), (3, 4)])
    pattern = PatternGraph.from_graph(two_k2)
    oracles = [make_bruteforce_oracle(max_size=40) for _ in range(2)]
    solved = 0
    attempts = 0
    while solved < 100:
        attempts += 1
        assert attempts < 20000, "rejection sampling budget exhausted"
        n = rng.randint(10, 40)
        g = _gnp(rng, n, rng.uniform(0.93, 0.99))
        if find_induced_copy(g, two_k2) is not None:
            continue
        w = _weights(rng, g)
        result = solve_hfree(
            pattern, g, w, oracles, assume_hfree=True, assertion_level="paranoid"
        )
        _check_witness(g, w, result.weight, result.witness)
        if g.n <= 18:
            assert result.weight == brute_force_mwis(g, w)[0]
        solved += 1
    print(
        f"[criterion 5] PASS - {solved} pattern-free paranoid runs "
        f"({attempts} samples drawn), zero violations"
    )


def test_criterion_6_mixed_oracles_at_desk_scale():
    """Pattern = 4-path plus fork, path oracle + brute force, 200 graphs."""
    rng = random.Random(0xC6)
    # fork: center 6 joins leaves 5 and 9 and the 2-path 7-8
    h = Graph(range(1, 10), [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (6, 9)])
    pattern = PatternGraph.from_graph(h)
    assert [part.n for part in pattern.components] == [4, 5]
    oracles = [make_pk_oracle(4), make_bruteforce_oracle()]
    for trial in range(200):
        n = rng.randint(1, 14)
        g = _gnp(rng, n, rng.choice([0.2, 0.4, 0.7]))
        w = _weights(rng, g)
        want, _ = brute_force_mwis(g, w)
        got = solve_hfree(pattern, g, w, oracles)
        assert got.weight == want, f"graph {trial}: {got.weight} != {want}"
        _check_witness(g, w, got.weight, got.witness)
    print("[criterion 6] PASS - 200/200 exact matches with path + brute-force oracles")


def test_criterion_7_determinism_and_round_trip():
    """Equal seeds give byte-identical reports; parse after emit is identity."""
    rng = random.Random(0xC7)
    corpus: list[tuple[Graph, dict[int, int]]] = []
    for kind in ("random-gnp", "cograph", "path", "cycle", "star", "complete"):
        for seed in range(12):
            spec = GeneratorSpec(
                kind=kind,
                size=rng.randint(1, 30),
                seed=seed,
                p=0.4 if kind == "random-gnp" else None,
            )
            corpus.append(generate(spec))
    for seed in range(8):
        corpus.append(
            generate(
                GeneratorSpec(
                    kind="pk-free-rejection", size=12, seed=seed, p=0.85, path_bound=5
                )
            )
        )
    for g, w in corpus:
        text = emit_graph(g, w)
        g2, w2 = parse_graph(text)
        assert (g2, w2) == (g, w)
        assert emit_graph(g2, w2) == text

    reports = []
    for _ in range(2):
        g, w = corpus[0]
        result = solve_pkfree(g, w)
        payload = {"weight": result.weight, "witness": sorted(result.witness)}
        doc = ReportDocument(command="solve", payload=payload)
        reports.append(doc.to_json())
    assert reports[0] == reports[1]

    # same generator spec twice gives identical bytes end to end
    a = emit_graph(*generate(GeneratorSpec(kind="random-gnp", size=18, seed=9, p=0.5)))
    b = emit_graph(*generate(GeneratorSpec(kind="random-gnp", size=18, seed=9, p=0.5)))
    assert a == b
    print(
        f"[criterion 7] PASS - {len(corpus)} graphs round-tripped bit-exactly, "
        f"reports byte-identical"
    )


def test_criterion_8_witness_soundness():
    """Every witness across the suites is independent and weighs the optimum."""
    rng = random.Random(0xC8)
    verified_here = 0
    pattern = PatternGraph.from_graph(Graph([1, 2, 3, 4], [(1, 2), (3, 4)]))
    oracles = [make_bruteforce_oracle() for _ in range(2)]
    for trial in range(150):
        n = rng.randint(1, 15)
        g = _gnp(rng, n, rng.choice([0.2, 0.5, 0.8]))
        w = _weights(rng, g)
        r1 = solve_pkfree(g, w, assertion_level="paranoid")
        _check_witness(g, w, r1.weight, r1.witness)
        r2 = solve_hfree(pattern, g, w, oracles)
        _check_witness(g, w, r2.weight, r2.witness)
        assert r1.weight == r2.weight
        verified_here += 2
    total = WITNESSES_VERIFIED["count"]
    print(
        f"[criterion 8] PASS - {verified_here} fresh witness verifications here, "
        f"{total} cumulative across the suite, zero failures"
    )
