import pytest

from qmwis import Graph, brute_force_mwis
from reference import NotACograph, cograph_mwis, witness_error
from workloads import WORKLOADS, instances, make_instance


@pytest.mark.parametrize("join_p", [0.2, 0.5, 0.8])
def test_cograph_dp_matches_brute_force(join_p):
    for seed in range(60):
        n = 1 + seed % 20
        inst = make_instance("cograph", n, join_p, seed)
        weight, witness = cograph_mwis(inst.adjacency(), inst.weights)
        g = Graph(range(1, n + 1), inst.edges)
        assert weight == brute_force_mwis(g, inst.weights)[0]
        assert witness_error(inst, weight, witness) is None


def test_cograph_dp_empty_graph():
    assert cograph_mwis({}, {}) == (0, frozenset())


def test_cograph_dp_rejects_an_induced_p4():
    adj = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
    with pytest.raises(NotACograph):
        cograph_mwis(adj, dict.fromkeys(adj, 1))


def test_witness_error_catches_each_defect():
    inst = make_instance("gnp", 12, 0.4, 3)
    u, v = inst.edges[0]
    assert witness_error(inst, inst.weights[u], [u]) is None
    assert witness_error(inst, inst.weights[u] + inst.weights[v], [u, v]) == "witness is not independent"
    assert witness_error(inst, 2 * inst.weights[u], [u, u]) == "witness repeats a vertex"
    assert witness_error(inst, 0, [13]) == "witness has a vertex outside the graph"
    assert witness_error(inst, inst.weights[u] + 1, [u]).startswith("witness weighs")


def test_instances_are_distinct_and_a_function_of_the_seed():
    w = WORKLOADS["pk-gnp-sparse"]
    first, again, other = instances(w, 7, 5), instances(w, 7, 5), instances(w, 8, 5)
    assert first == again
    assert first != other
    assert len({(i.edges, tuple(i.weights.values())) for i in first}) == 5
