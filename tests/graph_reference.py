"""Generate-and-dedupe enumeration and exhaustive matching: the
references for ``graphs``.

``canonical_form`` is the canonical key of a ``Graph``, equal exactly for
isomorphic multigraphs.  ``matching_bruteforce`` tries every edge subset
for a maximum conflict-free set, the oracle for the blossom route of
``graphs.maximum_matching``.

``connected_simple_graphs_reference`` grows every connected simple graph
by every non-edge and every pendant vertex and keeps the canonical state
of each child.  ``enumerate_reference`` decorates each of them with every
choice of edge multiplicities and loop counts, in the order that
``graphs.enumerate_connected_multigraphs`` walks them, and keeps a
decoration when the canonical key of its multigraph is new for the simple
graph.  The enumeration itself grows by orbit representatives and marks
whole decoration orbits seen; tests compare it against this.  It has no
edge cap, so it can also count the 9-edge graphs.

``suppressed_graph_reference`` smooths valence-2 chains into the graph Y
by walking (edge id, end) slots held in dicts and sets, and sums
floor(inner / 2) along the chains it walks, inner counting a chain's
edges between two valence-2 vertices: the reference for the segment sum
that ``graphs.suppressed_graph`` counts over the components of those
edges, and the only code that builds Y.

``refine_reference`` refines colours by signatures of (multiplicity,
colour) pairs, the reference for ``graphs._refine``, which sorts a flat
neighbour multiset.

``verify_counting_reference`` checks the counting bound and its proof
intermediates graph by graph, with the statistics and the suppressed
graph with its segment sum each computed from the ``Graph`` by a walk of
its own and a matching found for every graph: the reference for
``graphs.verify_counting_lemma``, which reads each graph's walk.
"""

from gogends.graphs import (
    CountingReport,
    CountingVerification,
    Graph,
    GraphError,
    _canon_search,
    _component_roots,
    _compositions,
    maximum_matching,
)


def canonical_form(g):
    """Hashable canonical key; equal exactly for isomorphic multigraphs."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    adj = [[0] * n for _ in range(n)]
    loops = [0] * n
    for _, u, v in g.edges:
        if u == v:
            loops[idx[u]] += 1
        else:
            a, b = idx[u], idx[v]
            adj[a][b] += 1
            adj[b][a] += 1
    return _key(n, adj, tuple(loops))


def matching_bruteforce(g):
    """Exhaustive maximum conflict-free edge set.  Limited to 20 edges."""
    if len(g.edges) > 20:
        raise GraphError("too large for brute force")
    edges = list(g.edges)
    best: list = []

    def rec(i: int, used: set, chosen: list):
        nonlocal best
        if len(chosen) + (len(edges) - i) <= len(best):
            return
        if i == len(edges):
            if len(chosen) > len(best):
                best = list(chosen)
            return
        e, u, v = edges[i]
        if u not in used and v not in used:
            rec(i + 1, used | {u, v}, chosen + [e])
        rec(i + 1, used, chosen)

    rec(0, set(), [])
    return tuple(sorted(best, key=str))


def refine_reference(nbrs, loops, colors):
    """``graphs._refine`` with ``nbrs[v]`` listing (w, multiplicity) over
    the neighbours w of v, and each signature built of (multiplicity,
    colour) pairs."""
    while True:
        sigs = [
            (colors[v], loops[v], tuple(sorted([(k, colors[w]) for w, k in near])))
            for v, near in enumerate(nbrs)
        ]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = tuple([rank[sig] for sig in sigs])
        if new == colors:
            return colors
        colors = new


def suppressed_graph_reference(g, valences):
    """Smooth every maximal valence-2 chain into a single edge: the graph
    Y and the segment sum, floor(inner / 2) summed over the chains, where
    inner counts a chain's edges between two valence-2 vertices;
    ``valences`` maps each vertex id to its valence, loops counting twice.

    Requires at least one vertex of valence != 2; loops arising from
    chains that return to their start are retained.
    """
    keep = [v for v in g.vertices if valences[v] != 2]
    if not keep:
        raise GraphError("all valences are 2; suppression undefined")
    slots = {v: [] for v in g.vertices}
    for e, u, v in g.edges:
        slots[u].append((e, 0))
        slots[v].append((e, 1))
    endpoint = {}
    for e, u, v in g.edges:
        endpoint[(e, 0)] = u
        endpoint[(e, 1)] = v
    keep_set = set(keep)
    used = set()
    new_edges = []
    segments = 0
    for v in keep:
        for slot in slots[v]:
            if slot in used:
                continue
            used.add(slot)
            e, k = slot
            other = (e, 1 - k)
            w = endpoint[other]
            run = 0  # the valence-2 vertices of the chain
            while w not in keep_set:
                run += 1
                used.add(other)
                nxt = [s for s in slots[w] if s != other]
                assert len(nxt) == 1, "valence-2 vertex must have exactly one other slot"
                used.add(nxt[0])
                e2, k2 = nxt[0]
                other = (e2, 1 - k2)
                w = endpoint[other]
            used.add(other)
            segments += max(run - 1, 0) // 2
            new_edges.append((f"y{len(new_edges)}", v, w))
    for vid in g.vertices:
        if vid not in keep_set and any(s not in used for s in slots[vid]):
            raise GraphError("valence-2 cycle component detached from the rest")
    return Graph(tuple(keep), tuple(new_edges)), segments


def stats_reference(g):
    """(valences dict, leaves, Euler characteristic, connected), with
    loops counting twice and components found by union-find."""
    valences = dict.fromkeys(g.vertices, 0)
    for _, u, v in g.edges:
        valences[u] += 1
        valences[v] += 1
    roots = _component_roots(g.vertices, ((u, v) for _, u, v in g.edges))
    leaves = list(valences.values()).count(1)
    return valences, leaves, len(g.vertices) - len(g.edges), len(set(roots.values())) == 1


def verify_counting_reference(candidates):
    """``graphs.verify_counting_lemma`` one graph at a time."""
    out = CountingVerification()
    for g in candidates:
        valences, leaves, euler_char, connected = stats_reference(g)
        if not connected:
            continue
        m = len(maximum_matching(g))
        t = leaves - euler_char
        bound = 2 * m + 9 * t
        exceptional = not g.edges or all(val == 2 for val in valences.values())
        rep = CountingReport(len(g.edges), m, leaves, euler_char, t, bound, len(g.edges) <= bound, exceptional, g)
        out.total += 1
        if not rep.holds:
            if rep.exceptional:
                out.exceptional_findings.append(rep)
            else:
                out.violations.append(rep)
        if not rep.exceptional and g.edges:
            y, segments = suppressed_graph_reference(g, valences)
            if rep.matching_size < segments:
                out.intermediate_failures.append(rep)
            _, y_leaves, y_euler_char, _ = stats_reference(y)
            if len(y.edges) > 3 * (y_leaves - y_euler_char):
                out.intermediate_failures.append(rep)
    return out


def _key(n, adj, loops):
    return _canon_search(n, adj, loops)[0]


def connected_simple_graphs_reference(max_edges, max_vertices):
    """Canonical (n, edge tuple) states, one set per edge count."""
    levels = [{(1, ())}]
    for m in range(1, max_edges + 1):
        nxt = set()
        for n, edges in levels[m - 1]:
            grown = [(n, (u, v)) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
            if n < max_vertices:
                grown += [(n + 1, (u, n)) for u in range(n)]
            for size, new in grown:
                adj = [[0] * size for _ in range(size)]
                for u, v in edges + (new,):
                    adj[u][v] = adj[v][u] = 1
                key = _key(size, adj, (0,) * size)
                nxt.add((size, key[2]))
        levels.append(nxt)
    return levels


def enumerate_reference(max_edges, max_vertices):
    """The Graphs of ``enumerate_connected_multigraphs``, in its order."""
    levels = connected_simple_graphs_reference(max_edges, max_vertices)
    for k in range(0, max_edges + 1):
        for n, edges in sorted(levels[k]):
            seen = set()
            for total in range(k, max_edges + 1):
                for mults in _compositions(total, k, 1):
                    adj = [[0] * n for _ in range(n)]
                    for (u, v), m in zip(edges, mults):
                        adj[u][v] = adj[v][u] = m
                    for loop_total in range(0, max_edges - total + 1):
                        for loops in _compositions(loop_total, n, 0):
                            key = _key(n, adj, loops)
                            if key not in seen:
                                seen.add(key)
                                yield _multigraph(n, edges, mults, loops)


def _multigraph(n, edges, mults, loops):
    """The multigraph on n vertices with each of ``edges`` repeated by its
    multiplicity, then the loops at each vertex, numbered in that order."""
    pairs = [e for e, m in zip(edges, mults) for _ in range(m)]
    pairs += [(v, v) for v, c in enumerate(loops) for _ in range(c)]
    return Graph(tuple(range(n)), tuple((i, u, v) for i, (u, v) in enumerate(pairs)))
