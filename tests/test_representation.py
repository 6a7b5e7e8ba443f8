"""The mask representation against a plain set-based reference.

Graphs and families store vertex sets as int masks over a table shared by a
root graph and its subgraphs. Every public operation must answer exactly as
the straightforward dict-of-sets formulation does, including the
smallest-id tie-breaks and for sparse, huge vertex ids.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from qmwis import (
    Graph,
    VertexMultiFamily,
    brute_force_mwis,
    closed_neighborhood,
    connected_components,
    find_branchable,
    find_induced_copy,
    longest_induced_path_at_most,
    induced_subgraph,
    make_bruteforce_oracle,
    remove_vertices,
    solve_hfree,
    solve_pkfree,
)

SPARSE_IDS = [0, 7, 10**12, 10**12 + 3]


@st.composite
def graphs(draw, max_n=9):
    ids = draw(
        st.sets(st.one_of(st.integers(0, 30), st.sampled_from(SPARSE_IDS)), max_size=max_n),
        label="ids",
    )
    ordered = sorted(ids)
    pairs = [(u, v) for i, u in enumerate(ordered) for v in ordered[i + 1 :]]
    edges = [e for e in pairs if draw(st.booleans(), label=f"e{e}")]
    return Graph(ids, edges), ids, edges


def reference(ids, edges):
    adj = {v: set() for v in ids}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def ref_induced(adj, keep):
    return {v: adj[v] & keep for v in keep}


def ref_components(adj):
    seen, out = set(), []
    for root in sorted(adj):
        if root in seen:
            continue
        comp, stack = {root}, [root]
        while stack:
            for u in adj[stack.pop()] - comp:
                comp.add(u)
                stack.append(u)
        seen |= comp
        out.append(frozenset(comp))
    return out


def ref_edges(adj):
    return sorted((u, v) for u in adj for v in adj[u] if u < v)


def assert_matches(g, adj):
    assert g.vertices == frozenset(adj)
    assert g.vertex_ids() == tuple(sorted(adj))
    assert g.n == len(adj)
    assert list(g.edges()) == ref_edges(adj)
    assert g.edge_count == len(ref_edges(adj))
    for v in adj:
        assert g.adj(v) == adj[v]
        assert g.closed(v) == adj[v] | {v}
        assert g.degree(v) == len(adj[v])
    assert connected_components(g) == ref_components(adj)


def ref_find_branchable(adj, members, n_cap):
    counts = {}
    for m in members:
        for v in m:
            counts[v] = counts.get(v, 0) + 1
    levels = []
    for i in range(1, (n_cap - 1).bit_length() + 2):
        li = {v for v, c in counts.items() if c >= i}
        if not li:
            break
        levels.append(li)
    best, best_score = None, 0
    for v in sorted(adj):
        closed = adj[v] | {v}
        score = max([len(closed & li) << (i + 1) for i, li in enumerate(levels)], default=0)
        if score >= n_cap and score > best_score:
            best, best_score = v, score
    return best


@settings(max_examples=150, deadline=None)
@given(gd=graphs(), data=st.data())
def test_graph_operations_match_the_set_reference(gd, data):
    g, ids, edges = gd
    adj = reference(ids, edges)
    assert_matches(g, adj)
    ids = sorted(ids)
    keep = data.draw(st.sets(st.sampled_from(ids)) if ids else st.just(set()), label="keep")
    # drop may name an id the graph lacks; remove_vertices ignores it.
    drop = data.draw(st.sets(st.sampled_from(ids + [10**15])), label="drop")

    sub = induced_subgraph(g, keep)
    assert_matches(sub, ref_induced(adj, keep))
    assert induced_subgraph(g, g.table.mask(keep)) == sub
    rest = remove_vertices(g, drop)
    assert_matches(rest, ref_induced(adj, set(adj) - drop))
    # A subgraph of a subgraph shares the root table and still matches.
    inner = remove_vertices(sub, drop)
    assert_matches(inner, ref_induced(adj, keep - drop))

    expected = set(keep).union(*(adj[v] for v in keep))
    assert closed_neighborhood(g, keep) == expected
    assert g.table.decode(closed_neighborhood(g, g.table.mask(keep))) == expected
    inner_keep = keep - drop
    assert closed_neighborhood(inner, inner_keep) == set(inner_keep).union(
        *(adj[v] & inner_keep for v in inner_keep)
    )

    fresh = Graph(keep, [(u, v) for u, v in edges if u in keep and v in keep])
    assert sub == fresh and fresh == sub
    assert hash(sub) == hash(fresh)
    assert (sub == g) == (keep == set(ids))


@settings(max_examples=150, deadline=None)
@given(gd=graphs(), data=st.data())
def test_family_levels_and_branching_match_the_set_reference(gd, data):
    g, ids, edges = gd
    adj = reference(ids, edges)
    ids = sorted(ids)
    subsets = st.sets(st.sampled_from(ids)) if ids else st.just(set())
    members = data.draw(st.lists(subsets, max_size=5), label="members")
    cut = data.draw(subsets, label="cut")
    n_cap = data.draw(st.integers(max(1, len(ids)), 2 * max(1, len(ids))), label="N")

    standalone = VertexMultiFamily(members)
    rooted = VertexMultiFamily(table=g.table)
    for m in members:
        rooted = rooted.add(g.table.mask(m))
    for fam in (standalone, rooted):
        assert fam.members == tuple(frozenset(m) for m in members)
        levels = [fam.table.decode(level) for level in fam.level_masks]
        expected_levels = [{v for v in ids if sum(v in m for m in members) >= i} for i in range(1, 7)]
        assert levels == [level for level in expected_levels if level]
        assert fam.level_sizes() == tuple(map(len, levels))
    assert standalone == rooted

    after = [set(m) - cut for m in members]
    assert rooted.subtract(g.table.mask(cut)) == standalone.subtract(cut)
    assert rooted.subtract(cut).members == tuple(frozenset(m) for m in after)

    expected = ref_find_branchable(adj, members, n_cap)
    assert find_branchable(g, standalone, n_cap) == expected
    assert find_branchable(g, rooted, n_cap) == expected
    sub_ids = set(ids) - cut
    sub = remove_vertices(g, cut)
    assert find_branchable(sub, rooted.subtract(cut), n_cap) == ref_find_branchable(
        ref_induced(adj, sub_ids), after, n_cap
    )


@settings(max_examples=150, deadline=None)
@given(gd=graphs(), data=st.data())
def test_find_branchable_reuses_refutations_along_subtract_and_add(gd, data):
    """find_branchable along a random run of branches, growths and other graphs.

    "branch" drops a set from the graph and the family, as a branch child
    does; "shrink" drops it from the graph alone, as when subtract hands
    back the family itself; "add" grows the family; "restore" goes back to
    the whole graph with the current family, a graph the cache's own does
    not contain. After each step the answer matches the set reference and
    a fresh family's, whatever the cache holds.
    """
    g, ids, edges = gd
    adj = reference(ids, edges)
    ids = sorted(ids)
    subsets = st.sets(st.sampled_from(ids)) if ids else st.just(set())
    model = [set(m) for m in data.draw(st.lists(subsets, max_size=4), label="members")]
    n_cap = data.draw(st.integers(max(1, len(ids)), 2 * max(1, len(ids))), label="N")
    fam = VertexMultiFamily(table=g.table)
    for m in model:
        fam = fam.add(g.table.mask(m))
    graph, keep = g, set(ids)
    kinds = st.sampled_from(["branch", "shrink", "add", "restore"])
    ops = data.draw(st.lists(kinds, max_size=8), label="ops")
    for op in [None] + ops:
        if op == "restore":
            graph, keep = g, set(ids)
        elif op is not None:
            xs = data.draw(subsets, label=op)
            if op == "add":
                fam, model = fam.add(g.table.mask(xs)), model + [xs]
            else:
                graph, keep = remove_vertices(graph, xs), keep - xs
                if op == "branch":
                    fam, model = fam.subtract(xs), [m - xs for m in model]
        got = find_branchable(graph, fam, n_cap)
        assert got == ref_find_branchable(ref_induced(adj, keep), model, n_cap)
        assert got == find_branchable(graph, VertexMultiFamily(model, table=g.table), n_cap)


@settings(max_examples=150, deadline=None)
@given(gd=graphs(max_n=8), hd=graphs(max_n=4), data=st.data())
def test_an_induced_subgraph_keeps_the_first_copy_it_holds(gd, hd, data):
    """The heredity the pattern scheme's last-search record rests on."""
    g, ids, _ = gd
    h = hd[0]
    keep = data.draw(st.sets(st.sampled_from(sorted(ids))) if ids else st.just(set()), label="keep")
    sub = induced_subgraph(g, keep)
    copy, inner = find_induced_copy(g, h), find_induced_copy(sub, h)
    if copy is None:
        assert inner is None
    elif copy <= keep:
        assert inner == copy


def ref_first_copy(adj, h):
    # The first embedding of h's vertices (in id order) into g's vertex
    # sequences in lexicographic order.
    order = h.vertex_ids()
    for images in itertools.permutations(sorted(adj), len(order)):
        if all(
            (images[j] in adj[images[i]]) == h.has_edge(order[i], order[j])
            for i in range(len(order))
            for j in range(i)
        ):
            return frozenset(images)
    return None


def ref_has_induced_path(adj, k):
    for images in itertools.permutations(sorted(adj), k):
        if all((images[j] in adj[images[i]]) == (i - j == 1) for i in range(k) for j in range(i)):
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(gd=graphs(max_n=7), hd=graphs(max_n=5), data=st.data())
def test_induced_searches_match_the_set_reference(gd, hd, data):
    g, ids, edges = gd
    h = hd[0]
    adj = reference(ids, edges)
    drop = data.draw(st.sets(st.sampled_from(sorted(ids))) if ids else st.just(set()), label="drop")
    sub = remove_vertices(g, drop)
    keep = set(ids) - drop
    sub_adj = ref_induced(adj, keep)
    # The same h object is searched in several graphs, so the search plan it
    # keeps from its first use must fit every later host and table.
    fresh = Graph(keep, [(u, v) for u, v in edges if u in keep and v in keep])
    assert find_induced_copy(g, h) == ref_first_copy(adj, h)
    assert find_induced_copy(sub, h) == ref_first_copy(sub_adj, h)
    assert find_induced_copy(fresh, h) == ref_first_copy(sub_adj, h)
    assert find_induced_copy(h, h) == h.vertices
    k = data.draw(st.integers(1, 5), label="k")
    assert longest_induced_path_at_most(sub, k) == (not ref_has_induced_path(sub_adj, k))


@settings(max_examples=150, deadline=None)
@given(gd=graphs(max_n=12), data=st.data())
def test_brute_force_on_a_subgraph_matches_a_fresh_graph(gd, data):
    # brute_force_mwis searches the shared table and the live mask, where
    # ranks skip the dropped vertices and adj still holds them; a subgraph
    # must answer as a graph built from scratch.
    g, ids, edges = gd
    w = {v: data.draw(st.integers(0, 3), label=f"w{v}") for v in sorted(ids)}
    drop = data.draw(st.sets(st.sampled_from(sorted(ids))) if ids else st.just(set()), label="drop")
    keep = set(ids) - drop
    fresh = Graph(keep, [(u, v) for u, v in edges if u in keep and v in keep])
    want = brute_force_mwis(fresh, w)
    assert brute_force_mwis(remove_vertices(g, drop), w) == want
    assert brute_force_mwis(induced_subgraph(g, keep), w) == want


def test_sparse_huge_ids_solve_and_compare():
    ids = SPARSE_IDS
    edges = [(0, 7), (7, 10**12), (10**12, 10**12 + 3)]
    g = Graph(ids, edges)
    w = {0: 5, 7: 1, 10**12: 2, 10**12 + 3: 6}
    result = solve_pkfree(g, w, k_hint=5, assertion_level="paranoid")
    assert (result.weight, result.witness) == (11, frozenset({0, 10**12 + 3}))
    assert result.weight == brute_force_mwis(g, w)[0]
    hres = solve_hfree(Graph([1, 2, 3], [(1, 2)]), g, w, [make_bruteforce_oracle()] * 2)
    assert hres.weight == 11

    sub = remove_vertices(g, {7})
    fresh = Graph([0, 10**12, 10**12 + 3], [(10**12, 10**12 + 3)])
    assert sub == fresh and hash(sub) == hash(fresh)
    assert connected_components(sub) == [frozenset({0}), frozenset({10**12, 10**12 + 3})]
    # The table keeps one bit per vertex, not one per id value.
    assert g.mask.bit_length() == len(ids)
