"""Multigraph statistics, matchings, enumeration, the counting bound."""

import random
import subprocess
import sys
import textwrap
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial

import pytest

from gogends.graphs import (
    CountingReport,
    Graph,
    GraphError,
    _canon_search,
    _connected_simple_graphs,
    counting_report,
    enumerate_connected_multigraphs,
    index_walk,
    matched_graphs,
    maximum_matching,
    random_multigraph,
    suppressed_graph,
    valence_two_segment_bound,
    verify_counting_lemma,
)

from gogends import graphs
from graph_reference import (
    canonical_form,
    enumerate_reference,
    matching_bruteforce,
    segment_bound_reference,
    suppressed_graph_reference,
    verify_counting_reference,
)


def _cycle(n):
    return Graph(tuple(range(n)), tuple((i, i, (i + 1) % n) for i in range(n)))


def _path(n):
    return Graph(tuple(range(n)), tuple((i, i, i + 1) for i in range(n - 1)))


def _report(g):
    return counting_report(g, len(maximum_matching(g)))


def _valences(g):
    return dict(zip(g.vertices, index_walk(g).valences))


def _segment_bound(g):
    walk = index_walk(g)
    return valence_two_segment_bound(walk.ends, walk.valences)


def _suppressed(g):
    """``suppressed_graph`` of g as a Graph on the ids of its kept vertices."""
    walk = index_walk(g)
    pairs = suppressed_graph(walk.ends, walk.valences)
    kept = tuple(v for v, k in zip(g.vertices, walk.valences) if k != 2)
    return Graph(kept, tuple((f"y{i}", g.vertices[a], g.vertices[b]) for i, (a, b) in enumerate(pairs)))


# leaves (valences.count(1)) and the Euler characteristic |V| - |E| are
# read off the graph's walk by counting_report


def test_stats_single_vertex():
    g = Graph((0,), ())
    s = _report(g)
    assert _valences(g) == {0: 0} and s.leaves == 0 and s.euler_char == 1 and index_walk(g).connected


def test_stats_single_loop_counts_twice():
    g = Graph((0,), ((0, 0, 0),))
    s = _report(g)
    assert _valences(g) == {0: 2} and s.leaves == 0 and s.euler_char == 0


def test_stats_path():
    s = _report(_path(3))
    assert s.leaves == 2 and s.euler_char == 1 and index_walk(_path(3)).connected


def test_stats_disconnected():
    assert not index_walk(Graph((0, 1), ())).connected


def test_graph_validation():
    with pytest.raises(GraphError, match="at least one vertex"):
        Graph((), ())
    with pytest.raises(GraphError, match="edge 0 references a missing vertex"):
        Graph((0,), ((0, 0, 1),))
    with pytest.raises(GraphError, match=r"^vertices\[1\]\.id: 0 and the earlier id 0 are equal as strings$"):
        Graph((0, 0), ())
    with pytest.raises(GraphError, match=r"^vertices\[2\]\.id: '0' and the earlier id 0 are equal as strings$"):
        Graph((0, 1, "0"), ())
    with pytest.raises(GraphError, match=r"^edges\[2\]\.id: 'e' and the earlier id 'e' are equal as strings$"):
        Graph((0, 1), (("e", 0, 1), ("f", 1, 1), ("e", 1, 0)))
    with pytest.raises(GraphError, match=r"^edges\[1\]\.id: 7 and the earlier id '7' are equal as strings$"):
        Graph((0,), (("7", 0, 0), (7, 0, 0)))
    # an id is a str or an int, never a bool, which would equal 0 or 1
    with pytest.raises(GraphError, match=r"^vertices\[1\]\.id: True is not a str or an int$"):
        Graph((1, True), ())
    with pytest.raises(GraphError, match=r"^edges\[0\]\.id: \(0, 1\) is not a str or an int$"):
        Graph((0, 1), (((0, 1), 0, 1),))
    with pytest.raises(GraphError, match=r"^edges\[1\]\.d1: True is not a str or an int$"):
        Graph((0, 1), ((0, 0, 1), (1, 1, True)))
    with pytest.raises(GraphError, match=r"^edges\[0\]\.d0: \[0\] is not a str or an int$"):
        Graph((0,), ((0, [0], 0),))
    # an edge is an (id, d0, d1) triple
    with pytest.raises(GraphError, match=r"^edges\[0\]: \(0, 0\) is not a 3-item tuple or list$"):
        Graph((0,), ((0, 0),))
    with pytest.raises(GraphError, match=r"^edges\[1\]: \[1, 0, 0, 0\] is not a 3-item tuple or list$"):
        Graph((0,), ((0, 0, 0), [1, 0, 0, 0]))
    # vertex and edge ids are compared apart: an edge may share a vertex's id
    assert Graph((0, 1), ((0, 0, 1), (1, 1, 1))).edges == ((0, 0, 1), (1, 1, 1))


def test_matching_path4():
    g = _path(5)  # 4 edges
    assert len(maximum_matching(g)) == 2
    assert len(matching_bruteforce(g)) == 2


def test_matching_triangle():
    assert len(maximum_matching(_cycle(3))) == 1
    assert len(matching_bruteforce(_cycle(3))) == 1


def test_matching_single_loop():
    g = Graph((0,), ((0, 0, 0),))
    assert maximum_matching(g) == (0,)
    assert matching_bruteforce(g) == (0,)


def test_loops_conflict_at_their_vertex():
    # loop and incident edge cannot both be chosen; two far loops can
    g = Graph((0, 1), (("loop", 0, 0), ("edge", 0, 1)))
    assert len(maximum_matching(g)) == 1
    g2 = Graph((0, 1), (("l0", 0, 0), ("l1", 1, 1)))
    assert set(maximum_matching(g2)) == {"l0", "l1"}


def test_matching_oracle_on_every_enumerated_graph():
    graphs = list(enumerate_connected_multigraphs(7, 8))
    assert len(graphs) == 1682
    for g in graphs:
        chosen = maximum_matching(g)
        assert len(chosen) == len(matching_bruteforce(g))
        ends = {e: {u, v} for e, u, v in g.edges}
        touched = [x for e in chosen for x in ends[e]]
        assert len(touched) == len(set(touched)), g


def test_matching_oracle_fixed_seed():
    rng = random.Random(12345)
    for _ in range(300):
        g = random_multigraph(rng, 10, 7)
        assert len(maximum_matching(g)) == len(matching_bruteforce(g))


def test_bruteforce_size_guard():
    g = Graph(tuple(range(2)), tuple((i, 0, 1) for i in range(21)))
    with pytest.raises(GraphError):
        matching_bruteforce(g)


def test_counting_report_path3():
    r = _report(_path(3))
    assert (r.edge_count, r.matching_size, r.t_value, r.bound) == (2, 1, 1, 11)
    assert r.holds and not r.exceptional


def test_counting_report_triangle_exceptional():
    r = _report(_cycle(3))
    assert (r.edge_count, r.matching_size, r.t_value, r.bound) == (3, 1, 0, 2)
    assert not r.holds and r.exceptional


def test_counting_report_star():
    star = Graph((0, 1, 2, 3), ((0, 0, 1), (1, 0, 2), (2, 0, 3)))
    r = _report(star)
    assert (r.edge_count, r.matching_size, r.leaves, r.t_value, r.bound) == (3, 1, 3, 2, 20)
    assert r.holds


def test_even_cycles_hold_with_equality():
    for n in (4, 6):
        r = _report(_cycle(n))
        assert r.exceptional
        assert r.edge_count == r.bound == n
        assert r.holds


def test_odd_cycles_violate():
    for n in (3, 5, 7):
        r = _report(_cycle(n))
        assert r.exceptional and not r.holds


def test_segment_bound_on_subdivided_star():
    # star with each arm subdivided: arms of length 2, centre valence 3
    g = Graph(
        tuple(range(7)),
        (
            (0, 0, 1), (1, 1, 2),
            (2, 0, 3), (3, 3, 4),
            (4, 0, 5), (5, 5, 6),
        ),
    )
    assert _segment_bound(g) == 0  # arms contribute floor(1/2) each
    r = _report(g)
    assert r.matching_size >= _segment_bound(g)


def test_segment_bound_matches_reference():
    # every graph with at most 8 edges, the cycles, and a path whose
    # valence-2 vertices a loop splits into runs of 3 and 4
    candidates = list(enumerate_connected_multigraphs(8, 9)) + [_cycle(n) for n in range(1, 9)]
    candidates.append(Graph(tuple(range(10)), tuple((i, i, i + 1) for i in range(9)) + ((9, 4, 4), (10, 9, 9))))
    nonzero = 0
    for g in candidates:
        bound = _segment_bound(g)
        assert bound == segment_bound_reference(g, _valences(g)), g
        nonzero += bound > 0
    assert nonzero > 100


def test_suppressed_graph_of_subdivided_triangle():
    # triangle with one subdivided side: one valence-2 vertex smoothed away
    g = Graph((0, 1, 2, 3), ((0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0)))
    with pytest.raises(GraphError):
        _suppressed(g)  # all vertices have valence 2
    g2 = Graph((0, 1, 2, 3), ((0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 3)))
    y = _suppressed(g2)
    ys = _report(y)
    gs = _report(g2)
    assert ys.leaves == gs.leaves
    assert ys.euler_char == gs.euler_char  # smoothing removes none here (no val-2 chain)


def test_suppressed_graph_preserves_t():
    # path of 5 vertices: ends are leaves, middle 3 smoothed to one edge
    g = _path(5)
    y = _suppressed(g)
    assert len(y.vertices) == 2 and len(y.edges) == 1
    ys, gs = _report(y), _report(g)
    assert ys.leaves - ys.euler_char == gs.leaves - gs.euler_char


def test_suppressed_graph_matches_slot_walk_reference():
    # every non-exceptional graph with at most 8 edges: the kept vertices in
    # order and the smoothed edges as a multiset of (d0, d1) pairs
    checked = 0
    for g in enumerate_connected_multigraphs(8, 9):
        rep = _report(g)
        if rep.exceptional or not g.edges:
            continue
        y, ref = _suppressed(g), suppressed_graph_reference(g, _valences(g))
        assert y.vertices == ref.vertices, g
        assert Counter((u, v) for _, u, v in y.edges) == Counter((u, v) for _, u, v in ref.edges), g
        checked += 1
    assert checked == 6452


def test_suppressed_graph_rejects_detached_valence_two_cycle():
    g = Graph((0, 1, 2, 3, 4), ((0, 0, 1), (1, 2, 3), (2, 3, 4), (3, 4, 2)))
    with pytest.raises(GraphError, match="detached"):
        _suppressed(g)
    with pytest.raises(GraphError, match="detached"):
        suppressed_graph_reference(g, _valences(g))


def test_program_built_graphs_revalidate():
    # graphs built without the checks of Graph.__post_init__ pass them
    for g in enumerate_connected_multigraphs(8, 9):
        assert Graph(g.vertices, g.edges) == g
    rng = random.Random(5)
    for _ in range(200):
        g = random_multigraph(rng, 12, 9)
        assert Graph(g.vertices, g.edges) == g


def test_random_multigraphs_are_connected_within_the_caps():
    rng = random.Random(17)
    for max_edges, max_vertices in ((0, 4), (1, 1), (3, 9), (9, 10), (40, 6)):
        for _ in range(100):
            g = random_multigraph(rng, max_edges, max_vertices)
            assert index_walk(g).connected
            assert len(g.edges) <= max_edges and len(g.vertices) <= max_vertices


def test_enumerate_1_1():
    got = list(enumerate_connected_multigraphs(1, 1))
    assert len(got) == 2
    assert sorted(len(g.edges) for g in got) == [0, 1]


def test_enumerate_2_2_exact_classes():
    got = list(enumerate_connected_multigraphs(2, 2))
    keys = {canonical_form(g) for g in got}
    assert len(got) == len(keys) == 6


def test_enumerate_classes_are_pairwise_nonisomorphic():
    got = list(enumerate_connected_multigraphs(4, 5))
    keys = {canonical_form(g) for g in got}
    assert len(keys) == len(got)


def _labeled_count(n, m):
    slots = [(u, v) for u in range(n) for v in range(u, n)]
    count = 0
    for combo in combinations_with_replacement(range(len(slots)), m):
        edges = [slots[i] for i in combo]
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            if u != v:
                parent[find(u)] = find(v)
        if len({find(x) for x in range(n)}) == 1:
            count += 1
    return count


def _matrices(g):
    """(n, adjacency multiplicities, loop counts) on vertex indices."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    adj = [[0] * n for _ in range(n)]
    loops = [0] * n
    for _, u, v in g.edges:
        if u == v:
            loops[idx[u]] += 1
        else:
            adj[idx[u]][idx[v]] += 1
            adj[idx[v]][idx[u]] += 1
    return n, adj, tuple(loops)


def _automorphism_count(n, adj, loops):
    """|Aut| by testing every one of the n! vertex permutations."""
    return sum(
        all(loops[p[v]] == loops[v] for v in range(n))
        and all(adj[p[u]][p[v]] == adj[u][v] for u in range(n) for v in range(n))
        for p in permutations(range(n))
    )


def test_enumeration_double_count_oracle():
    for n in range(1, 5):
        for m in range(0, 5):
            class_sum = 0
            for g in enumerate_connected_multigraphs(m, n):
                if len(g.vertices) != n or len(g.edges) != m:
                    continue
                class_sum += factorial(n) // _automorphism_count(*_matrices(g))
            assert class_sum == _labeled_count(n, m), (n, m)


def _is_automorphism(p, n, adj, loops):
    return sorted(p) == list(range(n)) and all(
        loops[p[u]] == loops[u] and all(adj[p[u]][p[v]] == adj[u][v] for v in range(n)) for u in range(n)
    )


def _group_order(n, gens):
    """Order of the permutation group generated by ``gens``: close the
    identity under composition with each generator."""
    group = {tuple(range(n))}
    queue = list(group)
    for g in queue:
        for p in gens:
            h = tuple(p[x] for x in g)
            if h not in group:
                group.add(h)
                queue.append(h)
    return len(group)


def _canonical_matrices(key):
    n, loops, edges = key
    adj = [[0] * n for _ in range(n)]
    for a, b, m in edges:
        adj[a][b] = adj[b][a] = m
    return n, adj, loops


def _check_search_automorphisms(n, adj, loops, order):
    key, auts, canon_auts = _canon_search(n, adj, loops)
    canon = _canonical_matrices(key)
    assert all(_is_automorphism(p, n, adj, loops) for p in auts)
    assert all(_is_automorphism(q, *canon) for q in canon_auts)
    assert _group_order(n, auts) == _group_order(n, canon_auts) == order
    return key


def test_search_automorphisms_generate_the_automorphism_group():
    rng = random.Random(10)
    levels = _connected_simple_graphs(15, 6)
    # connected graphs on at most 6 vertices: 1 + 1 + 2 + 6 + 21 + 112 = 143
    assert [len(level) for level in levels] == [1, 1, 1, 3, 5, 12, 19, 23, 24, 21, 15, 9, 5, 2, 1, 1]
    for level in levels:
        for (n, edges), stored in level.items():
            adj = [[0] * n for _ in range(n)]
            for u, v in edges:
                adj[u][v] = adj[v][u] = 1
            order = _automorphism_count(n, adj, (0,) * n)
            assert all(_is_automorphism(q, n, adj, (0,) * n) for q in stored)
            assert _group_order(n, stored) == order
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = [[adj[perm[u]][perm[v]] for v in range(n)] for u in range(n)]
            key = _check_search_automorphisms(n, shuffled, (0,) * n, order)
            assert tuple((u, v) for u, v, _ in key[2]) == edges
    spokes = tuple((i - 1, 0, i) for i in range(1, 6))
    looped_star = Graph(tuple(range(6)), spokes + tuple((5 + i, i, i) for i in range(6)))
    k4 = Graph(tuple(range(4)), tuple((i, u, v) for i, (u, v) in enumerate(combinations(range(4), 2))))
    for g, order in ((looped_star, 120), (k4, 24)):
        _check_search_automorphisms(*_matrices(g), order)
        assert _automorphism_count(*_matrices(g)) == order


def test_simple_graph_levels_match_oeis_a002905():
    # connected simple graphs by edge count; the pre-test drops children
    # before their search, so a missed class would show here
    levels = _connected_simple_graphs(9, 10)
    assert [len(level) for level in levels] == [1, 1, 1, 3, 5, 12, 30, 79, 227, 710]


@pytest.mark.parametrize("max_edges", range(9))
def test_enumeration_matches_generate_and_dedupe_reference(max_edges):
    got = list(enumerate_connected_multigraphs(max_edges, max_edges + 1))
    assert got == list(enumerate_reference(max_edges, max_edges + 1))


def test_canonical_form_is_relabel_invariant():
    rng = random.Random(9)
    for _ in range(60):
        g = random_multigraph(rng, 6, 5)
        perm = list(g.vertices)
        rng.shuffle(perm)
        relabel = dict(zip(g.vertices, perm))
        h = Graph(tuple(perm), tuple((e, relabel[u], relabel[v]) for e, u, v in g.edges))
        assert canonical_form(g) == canonical_form(h)
        rg, rh = _report(g), _report(h)
        assert (rg.t_value, rg.euler_char) == (rh.t_value, rh.euler_char)


@pytest.mark.parametrize("edges", [
    "()",
    "tuple((i, 0, i) for i in range(1, 10))",
    "tuple((i, i, i) for i in range(10))",
], ids=["ten_isolated", "star_k19", "ten_looped"])
def test_canonical_form_on_ten_equivalent_vertices_is_prompt(package_env, edges):
    # 10! leaves without automorphism pruning; a subprocess bounds the wait
    script = textwrap.dedent(f"""
        import random
        from gogends.graphs import _canon_search

        def key(edges):
            adj, loops = [[0] * 10 for _ in range(10)], [0] * 10
            for _, u, v in edges:
                if u == v:
                    loops[u] += 1
                else:
                    adj[u][v] += 1
                    adj[v][u] += 1
            return _canon_search(10, adj, tuple(loops))[0]

        edges = {edges}
        perm = list(range(10))
        random.Random(4).shuffle(perm)
        print(key(edges) == key(tuple((e, perm[u], perm[v]) for e, u, v in edges)))
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=10, env=package_env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"


def test_enumeration_bound_guard():
    with pytest.raises(GraphError):
        list(enumerate_connected_multigraphs(9, 4))


def test_verify_counting_lemma_4_edges():
    result = verify_counting_lemma(enumerate_connected_multigraphs(4, 5))
    assert result.ok
    assert not result.violations
    # the triangle shows up as an exceptional finding
    bad = [r for r in result.exceptional_findings if r.edge_count == 3]
    assert bad and all(r.exceptional for r in bad)


def test_counting_pass_matches_reference_on_every_graph_up_to_8_edges():
    candidates = list(enumerate_connected_multigraphs(8, 9))
    assert verify_counting_lemma(candidates).to_json() == verify_counting_reference(candidates).to_json()


def test_enumerated_walks_match_a_fresh_pass(monkeypatch):
    # the enumeration fills in each graph's walk from its decoration; a
    # plain copy of the graph walks its edges on first use, as sampled
    # draws and documents do
    enumerated = list(enumerate_connected_multigraphs(8, 9))
    copies = [Graph(g.vertices, g.edges) for g in enumerated]
    for g, copy in zip(enumerated, copies):
        assert g.walk == index_walk(copy), g
    expected = verify_counting_lemma(copies).to_json()

    def unreachable(g):
        raise AssertionError("an enumerated graph was walked again")

    monkeypatch.setattr(graphs, "index_walk", unreachable)
    assert verify_counting_lemma(enumerated).to_json() == expected


@pytest.mark.parametrize("max_edges, seed", [(9, 0), (12, 1), (40, 2)])
def test_counting_pass_matches_reference_on_sampled_draws(max_edges, seed):
    # the draws of ``counting --max-edges N --seed S``
    rng = random.Random(seed)
    candidates = [random_multigraph(rng, max_edges, max_edges + 1) for _ in range(2000)]
    assert verify_counting_lemma(candidates).to_json() == verify_counting_reference(candidates).to_json()


HAND_BUILT = [
    Graph(("a", "b", "c"), (("ab", "a", "b"), ("bc", "b", "c"), ("ca", "c", "a"), ("cc", "c", "c"))),
    Graph((10, 3, 7), ((0, 10, 3), (1, 3, 7), (2, 7, 10), (3, 3, 3))),
    Graph((10, 3, 7), ((0, 10, 3), (1, 3, 7), (2, 7, 10), (3, 10, 10))),
    Graph((0, 1, 2, 3), ((0, 0, 1), (1, 2, 3))),  # disconnected
    Graph(("solo",), ()),
    Graph((0,), ((0, 0, 0), (1, 0, 0), (2, 0, 0))),  # loops only
    _cycle(5),  # every valence 2
    Graph((0, 1, 2), ((0, 0, 1), (1, 1, 2), (2, 1, 1), (3, 1, 1))),  # two loops at one vertex
    Graph(("x", "y", "z"), (("e", "x", "y"), ("f", "y", "z"), ("l", "z", "z"))),
    Graph(("x", "y", "z"), (("e", "x", "y"), ("f", "y", "z"), ("l", "y", "y"))),
]


def test_counting_pass_matches_reference_on_hand_built_graphs():
    for g in HAND_BUILT:
        assert verify_counting_lemma([g]).to_json() == verify_counting_reference([g]).to_json(), g
    # in one run, so that graphs with one support follow each other
    assert verify_counting_lemma(HAND_BUILT).to_json() == verify_counting_reference(HAND_BUILT).to_json()


def test_matching_sizes_are_kept_per_looped_vertex_set():
    # one loop-free support, a path x - y - z, with the loop at an end and
    # at the middle: M is 2 and 1
    path_end, path_middle = HAND_BUILT[-2:]
    sizes = [m for _, m in matched_graphs([path_end, path_middle, path_end])]
    assert sizes == [2, 1, 2]
    assert sizes == [len(matching_bruteforce(g)) for g in (path_end, path_middle, path_end)]


def test_counting_checks_fire_on_a_short_matching(monkeypatch):
    # A non-exceptional graph has T >= 1, so up to 8 edges a matching one
    # short cannot break its bound; it shows on the cycles, the graphs
    # with T = 0, where every length then fails the bound, not only the odd
    def cycles_failing(result):
        return sorted(r.edge_count for r in result.exceptional_findings if r.t_value == 0)

    assert cycles_failing(verify_counting_lemma(enumerate_connected_multigraphs(6, 7))) == [3, 5]
    matched_pairs = graphs._matched_pairs
    monkeypatch.setattr(graphs, "_matched_pairs", lambda n, pairs: matched_pairs(n, pairs)[1:])
    assert cycles_failing(verify_counting_lemma(enumerate_connected_multigraphs(6, 7))) == [1, 2, 3, 4, 5, 6]


def test_counting_checks_fire_on_a_dropped_chain(monkeypatch):
    suppress = graphs.suppressed_graph
    monkeypatch.setattr(graphs, "suppressed_graph", lambda ends, valences: suppress(ends, valences)[1:])
    result = verify_counting_lemma(enumerate_connected_multigraphs(6, 7))
    assert not result.ok and result.intermediate_failures and not result.violations
