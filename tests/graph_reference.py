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
"""

from gogends.graphs import GraphError, _build_decorated, _canon_search, _compositions


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
                nxt.add((size, tuple((u, v) for u, v, _ in key[2])))
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
                                yield _build_decorated(n, edges, mults, loops)
