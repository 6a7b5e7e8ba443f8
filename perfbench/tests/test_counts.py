"""Exact call counts of the ROADMAP baseline instances.

The counts repeat exactly, so a change to one of them is an algorithmic
change, never noise. Path n=40 (344,926 calls, about 12 s) is left out for
time.
"""

import pytest

from qmwis import Graph, PatternGraph, make_bruteforce_oracle, make_pk_oracle, solve_hfree, solve_pkfree
from workloads import P4_K3_EDGES, make_instance


def _graph(kind, n, p, seed):
    inst = make_instance(kind, n, p, seed)
    return Graph(range(1, n + 1), inst.edges), inst.weights


@pytest.mark.parametrize(
    "kind, n, p, calls",
    [("gnp", 60, 0.3, 89_888), ("cograph", 240, 0.5, 21_062), ("cograph", 480, 0.5, 14_937)],
)
def test_solve_pkfree_calls(kind, n, p, calls):
    g, w = _graph(kind, n, p, 1)
    assert solve_pkfree(g, w).stats.calls == calls


def test_solve_hfree_p4_k3_calls():
    g, w = _graph("gnp", 40, 0.3, 2)
    pattern = PatternGraph.from_graph(Graph(range(1, 8), P4_K3_EDGES))
    result = solve_hfree(pattern, g, w, [make_pk_oracle(4), make_bruteforce_oracle()])
    assert result.stats.calls == 2_950
