"""Finite oriented multigraphs with loops: statistics, matchings, and the
edge-count bound |EX| <= 2 M(X) + 9 T(X).

Conventions that the bound's source never states but the computations
need: a loop counts twice toward the valence of its vertex, and a loop
is admissible in a matching (the pairwise no-shared-endpoint condition
is vacuous for a single loop) while conflicting with every other edge at
its vertex.  Maximum matchings run Edmonds' blossom algorithm (Edmonds,
"Paths, trees, and flowers", 1965) on integer vertex indices after
rewriting each loop as a pendant edge to a fresh vertex, a
transformation that preserves the conflict structure exactly.

The counting checks see each graph through its walk, ``Graph.walk``: the
slot array, the valences, the loop-free support and the looped vertices,
from which connectivity, the leaves, the Euler characteristic and
exceptionality are read.  An enumerated graph carries the walk its
decoration gives, and any other graph gets it from one pass over its
edges, ``index_walk``.  The segment bound and the chain suppression run
on the same arrays, and a report is built only for a graph the check
keeps.  M(X) depends on the vertex count, the loop-free support and the
set of looped vertices alone: parallel edges collapse, since a matching
uses at most one of them, and the loops at a vertex are pendant edges
there, of which a matching uses at most one.  So a run of graphs with
one support, as the enumeration yields the decorations of each simple
graph, finds each matching size once per set of looped vertices.

Isomorph-free enumeration rests on one canonical labelling: an
individualisation-refinement search whose key is the least leaf.  Leaves
with equal keys reveal automorphisms, and a child whose subtree is the
image of an already-searched sibling under them is skipped (McKay and
Piperno, "Practical graph isomorphism, II", 2014).  The automorphisms it
keeps generate the whole automorphism group, and the enumeration
deduplicates by their orbits rather than by a search per candidate
(McKay, "Isomorph-free exhaustive generation", 1998): a simple graph
grows by one new edge per orbit of its non-edges and one pendant vertex
per orbit of its vertices, each child's search gives its canonical state
and its automorphisms, and of the edge-multiplicity and loop
decorations of a simple graph only the least of each orbit is kept.

Before its search, a child passes McKay's pre-test or is dropped.  The
deletable edges, those that undo a growth step, are the edges on a
cycle and the pendant edges; each has the invariant (pendant, min
degree, max degree, common neighbours), and the child passes when no
deletable edge has a greater invariant than its new edge.  The test is
complete: in any connected graph G, delete a deletable edge e of greatest
invariant (with its leaf, if pendant).  What remains is connected and
isomorphic to a parent P on the level below, and the isomorphism turns
e into a non-edge of P or a pendant vertex at a vertex of P.  P grows by
the representative of that orbit to a child isomorphic to G by an
isomorphism that takes e to the new edge, which therefore has the
greatest invariant and passes.  A new edge that ties with another
deletable edge passes too, so several children can reach one class; the
first to reach a canonical state keeps it.  Up to 8 edges this leaves
395 searches of the 1,350 children, for 359 classes.  The enumeration is
capped at ``EXHAUSTIVE_MAX_EDGES`` edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

# the most edges enumerate_connected_multigraphs walks; the command line
# samples beyond it
EXHAUSTIVE_MAX_EDGES = 8


class GraphError(ValueError):
    """Malformed graph data or violated precondition."""


def _is_id(x) -> bool:
    """Whether x may be a vertex or edge id: a str or an int, not a bool."""
    return isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool))


@dataclass(frozen=True)
class Graph:
    """Oriented multigraph: vertex ids plus (edge id, d0, d1) triples, every
    id a str or an int, with no two vertex ids, nor two edge ids, equal as
    strings, however it is built."""

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        edges = tuple(self.edges)
        for i, edge in enumerate(edges):
            if not isinstance(edge, (tuple, list)) or len(edge) != 3:
                raise GraphError(f"edges[{i}]: {edge!r} is not a 3-item tuple or list")
        object.__setattr__(self, "edges", tuple(map(tuple, edges)))
        if not self.vertices:
            raise GraphError("graph needs at least one vertex")
        for kind, ids in (("vertices", self.vertices), ("edges", [e for e, _, _ in self.edges])):
            seen: dict = {}
            for i, x in enumerate(ids):
                if not _is_id(x):
                    raise GraphError(f"{kind}[{i}].id: {x!r} is not a str or an int")
                if str(x) in seen:
                    raise GraphError(f"{kind}[{i}].id: {x!r} and the earlier id {seen[str(x)]!r} are equal as strings")
                seen[str(x)] = x
        vset = set(self.vertices)
        for i, (e, u, v) in enumerate(self.edges):
            for end, x in (("d0", u), ("d1", v)):
                if not _is_id(x):
                    raise GraphError(f"edges[{i}].{end}: {x!r} is not a str or an int")
            if u not in vset or v not in vset:
                raise GraphError(f"edge {e!r} references a missing vertex")

    @classmethod
    def _trusted(cls, vertices: tuple, edges: tuple) -> "Graph":
        """Wrap a tuple of distinct vertex ids and a tuple of (edge id, d0,
        d1) triples with distinct ids on those vertices, built by this
        module, without the checks of ``__post_init__``."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertices", vertices)
        object.__setattr__(g, "edges", edges)
        return g

    @cached_property
    def walk(self) -> IndexWalk:
        """``index_walk(self)``, found on first use."""
        return index_walk(self)

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [[e, u, v] for e, u, v in self.edges],
        }


class IndexWalk(NamedTuple):
    """One pass over the edges of a graph whose vertices are numbered by
    their position.  Edge i has the slots 2 i (its d0 end) and 2 i + 1
    (its d1 end), and ``ends`` holds the vertex index at each slot.
    ``support`` is the set of loop-free pairs a < b joined by an edge, and
    bit a of ``looped`` is set when vertex a carries a loop."""

    ends: list
    valences: list
    connected: bool
    support: frozenset
    looped: int


def _component_roots(vertices, pairs) -> dict:
    """Map each vertex to the root of its component in the graph on
    ``vertices`` with the edges ``pairs`` (union-find, path halving)."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[find(u)] = find(v)
    return {v: find(v) for v in parent}


def index_walk(g: Graph) -> IndexWalk:
    """Slots, valences (loops count twice), support and looped vertices
    of ``g`` in one walk over its edges, then connectivity ignoring
    orientation by union-find with path halving over the support."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    n = len(idx)
    ends: list = []
    valences = [0] * n
    support = set()
    looped = 0
    for _, u, v in g.edges:
        a, b = idx[u], idx[v]
        ends += (a, b)
        valences[a] += 1
        valences[b] += 1
        if a == b:
            looped |= 1 << a
        else:
            support.add((a, b) if a < b else (b, a))
    connected = len(set(_component_roots(range(n), support).values())) == 1
    return IndexWalk(ends, valences, connected, frozenset(support), looped)


def maximum_matching(g: Graph) -> tuple:
    """Maximum-cardinality conflict-free edge set (edge ids).

    Parallel edges collapse to the first of them and the loops at a
    vertex to its first loop (a matching cannot use two of either), and
    ``_matched_pairs`` matches what is left.
    """
    idx = {v: i for i, v in enumerate(g.vertices)}
    rep: dict = {}
    for e, u, v in g.edges:
        a, b = idx[u], idx[v]
        rep.setdefault((a, b) if a <= b else (b, a), e)
    return tuple(sorted((rep[pair] for pair in _matched_pairs(len(idx), rep)), key=str))


def _matched_pairs(n: int, pairs) -> list:
    """A maximum matching of the distinct pairs a <= b of vertices
    0..n-1, as the pairs it uses; a loop (a, a) becomes a pendant edge
    from a to a fresh vertex.  A greedy matching comes first, and the
    blossom steps start from it at the vertices it leaves free."""
    nbrs: list = [[] for _ in range(n)]
    for a, b in pairs:
        if a == b:
            b = len(nbrs)
            nbrs.append([])
        nbrs[a].append(b)
        nbrs[b].append(a)
    mate = [-1] * len(nbrs)
    for a, near in enumerate(nbrs):
        if mate[a] == -1:
            for b in near:
                if mate[b] == -1:
                    mate[a], mate[b] = b, a
                    break
    free = [a for a, b in enumerate(mate) if b == -1]
    left = len(free)  # free vertices not yet searched from
    for root in free:
        if mate[root] != -1:
            continue
        left -= 1
        if not left:  # an augmenting path ends at a free vertex not yet searched from
            break
        _augment(root, nbrs, mate)
        if mate[root] != -1:
            left -= 1
    return [(a, a if b >= n else b) for a, b in enumerate(mate[:n]) if a < b]


def _augment(root: int, nbrs: list, mate: list) -> None:
    """One step of Edmonds' blossom algorithm on vertices 0..n-1 given by
    adjacency lists, with ``mate`` -1 at unmatched vertices: grow an
    alternating tree from the free vertex ``root``, contracting odd
    cycles (blossoms) into their base, and flip the first augmenting path
    found.  One step per vertex left free by any starting matching gives a
    maximum matching, since a vertex without an augmenting path never
    gains one later.
    """
    n = len(nbrs)
    parent = [-1] * n
    base = list(range(n))
    outer = {root}
    queue = [root]

    def common_base(a, b):
        on_path = {base[a]}
        while mate[base[a]] != -1:  # up to the root
            a = parent[mate[base[a]]]
            on_path.add(base[a])
        while base[b] not in on_path:
            b = parent[mate[base[b]]]
        return base[b]

    for v in queue:  # the queue grows while it is read
        for w in nbrs[v]:
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] != -1 and parent[mate[w]] != -1):
                b = common_base(v, w)
                blossom: set = set()
                for x, y in ((v, w), (w, v)):  # relink both halves of the odd cycle
                    while base[x] != b:
                        blossom.update((base[x], base[mate[x]]))
                        parent[x], y = y, mate[x]
                        x = parent[y]
                for u in range(n):
                    if base[u] in blossom:
                        base[u] = b
                        if u not in outer:
                            outer.add(u)
                            queue.append(u)
            elif parent[w] == -1:
                parent[w] = v
                if mate[w] != -1:
                    outer.add(mate[w])
                    queue.append(mate[w])
                    continue
                while w != -1:  # flip the path root ... v, w
                    p, nxt = parent[w], mate[parent[w]]
                    mate[w], mate[p] = p, w
                    w = nxt
                return


@dataclass(frozen=True)
class CountingReport:
    edge_count: int
    matching_size: int
    leaves: int
    euler_char: int
    t_value: int
    bound: int
    holds: bool
    exceptional: bool
    graph: Graph

    def to_json(self) -> dict:
        return {
            "edges": self.edge_count,
            "matching": self.matching_size,
            "leaves": self.leaves,
            "euler_char": self.euler_char,
            "t_value": self.t_value,
            "bound": self.bound,
            "holds": self.holds,
            "exceptional": self.exceptional,
            "graph": self.graph.to_json(),
        }


def _bound_terms(walk: IndexWalk, matching_size: int) -> tuple:
    """(leaves, euler_char, t_value, bound, holds, exceptional) given the
    walk and M(X); ``exceptional`` marks the families where the segment
    decomposition degenerates: disconnected, edgeless, or all valences 2."""
    edge_count, valences = len(walk.ends) >> 1, walk.valences
    leaves = valences.count(1)
    euler_char = len(valences) - edge_count
    t = leaves - euler_char
    bound = 2 * matching_size + 9 * t
    exceptional = not walk.connected or not edge_count or valences.count(2) == len(valences)
    return leaves, euler_char, t, bound, edge_count <= bound, exceptional


def counting_report(g: Graph, matching_size: int) -> CountingReport:
    """Edge-count bound evaluation of ``g``, given M(g)."""
    return CountingReport(len(g.edges), matching_size, *_bound_terms(g.walk, matching_size), g)


def valence_two_segment_bound(ends: list, valences: list) -> int:
    """Sum of floor(|ES_i| / 2) over components S_i of the subgraph
    spanned by valence-2 vertices (a lower bound for M(X) on the
    non-exceptional family); ``ends`` and ``valences`` as in
    ``index_walk``."""
    if valences.count(2) < 2:  # an inner edge at a lone valence-2 vertex is a loop: floor(1/2) = 0
        return 0
    inner = [(a, b) for a, b in zip(ends[::2], ends[1::2]) if valences[a] == 2 == valences[b]]
    roots = _component_roots({x for pair in inner for x in pair}, inner)
    comp_edges = Counter(roots[a] for a, _ in inner)
    return sum(k // 2 for k in comp_edges.values())


def suppressed_graph(ends: list, valences: list) -> list:
    """Smooth every maximal valence-2 chain into a single edge: the edges
    of the result, on the vertices of valence != 2, as pairs a <= b of
    vertex indices; ``ends`` and ``valences`` as in ``index_walk``.

    Requires at least one vertex of valence != 2; loops arising from
    chains that return to their start are retained.  Each chain is walked
    from an unused slot at a kept vertex through the other slot of every
    valence-2 vertex it meets.
    """
    kept = [k != 2 for k in valences]
    if not any(kept):
        raise GraphError("all valences are 2; suppression undefined")
    other = [-1] * len(ends)  # the other slot at the same valence-2 vertex
    first = [-1] * len(kept)
    for s, x in enumerate(ends):
        if not kept[x]:
            if first[x] < 0:
                first[x] = s
            else:
                other[s], other[first[x]] = first[x], s
    used = bytearray(len(ends))
    new_edges = []
    for start, a in enumerate(ends):
        if used[start] or not kept[a]:
            continue
        used[start] = 1
        s = start ^ 1
        while not kept[ends[s]]:
            used[s] = 1
            s = other[s]
            used[s] = 1
            s ^= 1
        used[s] = 1
        b = ends[s]
        new_edges.append((a, b) if a <= b else (b, a))
    if not all(used):
        raise GraphError("valence-2 cycle component detached from the rest")
    return new_edges


# -- canonical labeling and isomorph-free enumeration ---------------------


def _refine(nbrs, loops, colors):
    """Iterated neighborhood refinement; permutation-invariant colors.
    ``nbrs[v]`` lists (w, multiplicity) over the neighbours w of v."""
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


def _leaf_key(nbrs, loops, colors):
    """The graph relabelled by the discrete colors of a leaf, which
    ``_refine`` ranks 0..n-1."""
    order = sorted(range(len(colors)), key=colors.__getitem__)
    edges = sorted(
        [(colors[u], colors[w], k) for u, near in enumerate(nbrs) for w, k in near if colors[u] < colors[w]]
    )
    return (len(colors), tuple([loops[v] for v in order]), tuple(edges))


def _canon_search(n: int, adj, loops):
    """Canonical form and automorphism group by individualisation-refinement.

    Returns ``(key, auts, canon_auts)``.  ``key`` is the least leaf key.
    Two leaves with equal keys differ by an automorphism, which is kept in
    ``auts`` as the list of each vertex's image; ``canon_auts`` holds the
    same automorphisms conjugated to canonical labels, so they act on the
    graph that ``key`` spells out.  A child is skipped when kept
    automorphisms fixing the node's individualised vertices pointwise map a
    searched sibling onto it: its subtree is that sibling's image and holds
    the same keys.

    The kept automorphisms generate all of Aut(G).  An automorphism g sends
    the least leaf to a leaf with the same key.  If that leaf was searched,
    it is the least leaf (g = 1) or a later one, which recorded g: a
    discrete leaf fixes the permutation, and no leaf searched before the
    least one has its key.  Otherwise the leaf lies in a skipped subtree,
    which some h in the group the kept automorphisms generate maps from a
    searched sibling's subtree, and h^-1 g sends the least leaf there.
    Descending the tree, g is a product of kept automorphisms.
    """
    best = None  # (key, discrete colors) of the least leaf so far
    auts: list = []
    nbrs = [[(w, k) for w, k in enumerate(row) if k] for row in adj]

    def search(colors, fixed):
        nonlocal best
        colors = _refine(nbrs, loops, colors)
        counts = Counter(colors)
        target = min((c for c, k in counts.items() if k > 1), default=None)
        if target is None:
            key = _leaf_key(nbrs, loops, colors)
            if best is None or key < best[0]:
                best = (key, colors)
            elif key == best[0]:  # send each vertex to the one at its place here
                order = sorted(range(n), key=colors.__getitem__)
                auts.append([order[c] for c in best[1]])
            return
        fresh = max(colors) + 1
        searched: list = []
        stabiliser: list = []
        scanned = 0  # auts[:scanned] are sorted into the stabiliser
        roots = None
        for v in range(n):
            if colors[v] != target:
                continue
            if scanned < len(auts):  # orbits change only with a new automorphism
                new = [p for p in auts[scanned:] if all(p[x] == x for x in fixed)]
                scanned = len(auts)
                if new:
                    stabiliser += new
                    roots = _component_roots(range(n), ((u, p[u]) for p in stabiliser for u in range(n)))
            if roots is not None and any(roots[s] == roots[v] for s in searched):
                continue
            search(tuple(fresh if u == v else c for u, c in enumerate(colors)), fixed + (v,))
            searched.append(v)

    search(tuple([0] * n), ())
    key, label = best
    order = sorted(range(n), key=label.__getitem__)
    return key, auts, [[label[p[v]] for v in order] for p in auts]


def _orbit_representatives(points, moves) -> Iterator:
    """The first of each orbit among ``points``, in their order, under the
    group generated by ``moves``, each a function from a point to its
    image, where every orbit lies in ``points``: each unseen point is
    yielded and its orbit, a BFS over the moves, marked seen."""
    seen: set = set()
    for x in points:
        if x in seen:
            continue
        yield x
        seen.add(x)
        queue = [x]
        for y in queue:  # the queue grows while it is read
            for move in moves:
                z = move(y)
                if z not in seen:
                    seen.add(z)
                    queue.append(z)


def _deletion_invariant(nbrs, u: int, v: int) -> tuple:
    """(pendant, min degree, max degree, common neighbours) of the edge
    uv of the simple graph with neighbour sets ``nbrs``; an isomorphism
    carries an edge to one with the same invariant."""
    low, high = sorted((len(nbrs[u]), len(nbrs[v])))
    return (low == 1, low, high, len(nbrs[u] & nbrs[v]))


def _is_deletable(nbrs, u: int, v: int) -> bool:
    """Whether the edge uv of a connected simple graph is pendant or lies
    on a cycle, so deleting it (with its leaf, if pendant) leaves a
    connected graph: a search from u for v that avoids the edge."""
    if len(nbrs[u]) == 1 or len(nbrs[v]) == 1 or nbrs[u] & nbrs[v]:
        return True
    seen = {u}
    stack = [w for w in nbrs[u] if w != v]
    seen.update(stack)
    while stack:
        for w in nbrs[stack.pop()]:
            if w == v:
                return True
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def _new_edge_is_maximal(n: int, edges: tuple) -> bool:
    """McKay's pre-test: whether no deletable edge of the connected simple
    graph on ``n`` vertices with ``edges`` has a greater deletion invariant
    than its last edge, the one the growth step added."""
    nbrs: list = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    mine = _deletion_invariant(nbrs, *edges[-1])
    return not any(
        _deletion_invariant(nbrs, u, v) > mine and _is_deletable(nbrs, u, v) for u, v in edges[:-1]
    )


def _connected_simple_graphs(max_edges: int, max_vertices: int) -> list:
    """Connected loopless simple graphs up to isomorphism, grouped by edge
    count: each level maps canonical (n, edge tuple) states to generators
    of their automorphism groups.

    Every graph with m edges grows from one with m - 1 by a new edge or a
    new pendant vertex.  Automorphisms of the parent carry a child to an
    isomorphic child, so a parent grows only by one non-edge per orbit of
    its non-edges and one pendant per orbit of its vertices.  A child
    whose new edge fails ``_new_edge_is_maximal`` is dropped before any
    search; the canonical search of each other child names its state and
    hands out its automorphisms, and the first child to reach a state
    keeps it.
    """
    levels: list[dict] = [{(1, ()): []}]
    for m in range(1, max_edges + 1):
        nxt: dict = {}
        for (n, edges), auts in levels[m - 1].items():
            present = set(edges)
            absent = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
            on_pairs = [lambda e, p=p: tuple(sorted((p[e[0]], p[e[1]]))) for p in auts]
            grown = [(n, e) for e in _orbit_representatives(absent, on_pairs)]
            if n < max_vertices:
                grown += [(n + 1, (u, n)) for u in _orbit_representatives(range(n), [p.__getitem__ for p in auts])]
            for size, new in grown:
                child = edges + (new,)
                if not _new_edge_is_maximal(size, child):
                    continue
                adj = [[0] * size for _ in range(size)]
                for u, v in child:
                    adj[u][v] = adj[v][u] = 1
                key, _, canon_auts = _canon_search(size, adj, (0,) * size)
                nxt.setdefault((size, tuple((u, v) for u, v, _ in key[2])), canon_auts)
        levels.append(nxt)
    return levels


def _compositions(total: int, parts: int, minimum: int) -> Iterator[tuple]:
    """All tuples of length ``parts`` with entries >= minimum summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def enumerate_connected_multigraphs(max_edges: int, max_vertices: int) -> Iterator[Graph]:
    """All connected multigraphs with loops, up to isomorphism.

    Realised as isomorph-free connected simple graphs decorated with edge
    multiplicities and per-vertex loop counts, one tuple of the k + n
    counts per decoration.  Two decorations of one simple graph give
    isomorphic multigraphs exactly when an automorphism of the simple
    graph carries one to the other, since an isomorphism of the
    multigraphs is one of their supports; an automorphism moves a
    decoration by one preimage tuple over its slots.  Decorations are
    walked in lexicographic order within each pair of edge and loop
    totals, which automorphisms keep; each unseen one is yielded and its
    whole orbit under the simple graph's automorphism generators marked
    seen, so each isomorphism class is represented by its least decoration.
    """
    if max_edges > EXHAUSTIVE_MAX_EDGES:
        raise GraphError(f"exhaustive enumeration capped at {EXHAUSTIVE_MAX_EDGES} edges")
    if max_vertices < 1:
        raise GraphError("need at least one vertex")
    levels = _connected_simple_graphs(max_edges, max_vertices)
    for k in range(0, max_edges + 1):
        # the decorations of a simple graph depend only on its edge and vertex counts
        mult_counts = [tuple(_compositions(total, k, 1)) for total in range(k, max_edges + 1)]
        loop_counts_of = {}
        for n, edges in sorted(levels[k]):
            if n not in loop_counts_of:
                loop_counts_of[n] = [tuple(_compositions(total, n, 0)) for total in range(max_edges - k + 1)]
            loop_counts = loop_counts_of[n]
            index = {e: i for i, e in enumerate(edges)}
            # each automorphism picks, for each decoration slot, the slot it comes from; that
            # gives a tuple, as only the one-vertex graph, which has no generators, has one slot
            moves = []
            for p in levels[k][(n, edges)]:
                image = [index[tuple(sorted((p[u], p[v])))] for u, v in edges]
                pre = sorted(range(k), key=image.__getitem__) + [k + u for u in sorted(range(n), key=p.__getitem__)]
                moves.append(itemgetter(*pre))
            decorations = (
                mults + loops
                for total, mult_total in enumerate(mult_counts, k)
                for mults in mult_total
                for loop_total in range(0, max_edges - total + 1)
                for loops in loop_counts[loop_total]
            )
            vertices, support = tuple(range(n)), frozenset(edges)
            for dec in _orbit_representatives(decorations, moves):
                yield _build_decorated(vertices, edges, support, dec)


def _build_decorated(vertices: tuple, edge_list: tuple, support: frozenset, dec: tuple) -> Graph:
    """The multigraph of the decoration ``dec`` of the connected simple
    graph on ``vertices`` with the pairs u < v of ``edge_list`` (whose
    frozenset is ``support``), with the walk ``index_walk`` would find."""
    k = len(edge_list)
    ends = []
    valences = [2 * c for c in dec[k:]]
    for (u, v), m in zip(edge_list, dec):
        ends += (u, v) * m
        valences[u] += m
        valences[v] += m
    looped = 0
    for v, c in enumerate(dec[k:]):
        if c:
            ends += (v, v) * c
            looped |= 1 << v
    g = Graph._trusted(vertices, tuple(zip(range(len(ends) >> 1), ends[::2], ends[1::2])))
    object.__setattr__(g, "walk", IndexWalk(ends, valences, True, support, looped))
    return g


def random_multigraph(rng, max_edges: int, max_vertices: int = 8) -> Graph:
    """A random connected multigraph with at most ``max_edges`` edges and
    ``max_vertices`` vertices: a random spanning tree, each vertex in a
    shuffled order joined to one before it, then edges between uniform
    endpoints (loops included) up to a uniform edge count."""
    n = rng.randint(1, min(max_vertices, max_edges + 1))
    m = rng.randint(n - 1, max_edges)
    order = list(range(n))
    rng.shuffle(order)
    edges = [(i - 1, order[rng.randrange(i)], order[i]) for i in range(1, n)]
    edges += [(i, rng.randrange(n), rng.randrange(n)) for i in range(n - 1, m)]
    return Graph._trusted(tuple(range(n)), tuple(edges))


@dataclass
class CountingVerification:
    total: int = 0
    violations: list = field(default_factory=list)
    exceptional_findings: list = field(default_factory=list)
    intermediate_failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.intermediate_failures

    def to_json(self) -> dict:
        return {
            "graphs_checked": self.total,
            "violations": [r.to_json() for r in self.violations],
            "exceptional_findings": [r.to_json() for r in self.exceptional_findings],
            "intermediate_failures": [r.to_json() for r in self.intermediate_failures],
            "ok": self.ok,
        }


def matched_graphs(candidates: Iterable[Graph]) -> Iterator[tuple]:
    """Each connected graph among ``candidates``, in their order, with
    its M(X).

    M(X) depends only on the vertex count, the loop-free support and the
    looped vertices, and the support of a connected graph fixes its
    vertex count (one vertex when the support is empty).  So the sizes,
    matched on the walk's support and loops, are kept by looped vertices
    and dropped when the support changes; the enumeration yields all
    decorations of one simple graph in a row.
    """
    support = None
    sizes: dict = {}
    for g in candidates:
        walk = g.walk
        if not walk.connected:
            continue
        if walk.support != support:
            support = walk.support
            sizes = {}
        m = sizes.get(walk.looped)
        if m is None:
            loops = [(a, a) for a in range(len(walk.valences)) if walk.looped >> a & 1]
            m = sizes[walk.looped] = len(_matched_pairs(len(walk.valences), [*walk.support, *loops]))
        yield g, m


def verify_counting_lemma(candidates: Iterable[Graph]) -> CountingVerification:
    """Evaluate the bound on the connected graphs among ``candidates``.

    Violations inside the exceptional family (odd cycles and friends) are
    findings, not failures; the proof intermediates M(X) >= sum
    floor(|ES_i|/2) and |EY| <= 3 T(Y) are asserted on the
    non-exceptional graphs, which have at least one edge.  T(Y) is read
    off the edges of the suppressed graph Y, whose vertices are those of
    valence != 2.  Only the graphs the lists keep get a report.
    """
    out = CountingVerification()
    for g, m in matched_graphs(candidates):
        out.total += 1
        walk = g.walk
        holds, exceptional = _bound_terms(walk, m)[4:]
        kept = [] if holds else [out.exceptional_findings if exceptional else out.violations]
        if not exceptional:
            if m < valence_two_segment_bound(walk.ends, walk.valences):
                kept.append(out.intermediate_failures)
            y = suppressed_graph(walk.ends, walk.valences)
            y_valences = [0] * len(walk.valences)
            for a, b in y:
                y_valences[a] += 1
                y_valences[b] += 1
            t_y = y_valences.count(1) - (len(walk.valences) - walk.valences.count(2) - len(y))
            if len(y) > 3 * t_y:
                kept.append(out.intermediate_failures)
        if kept:
            rep = counting_report(g, m)
            for found in kept:
                found.append(rep)
    return out
