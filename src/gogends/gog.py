"""Graphs of finite p-groups.

Covers structural validation (connected, embeddings as edge maps), the
reducedness test and the collapse of isomorphism edges, the
fundamental-group presentation, the mod-p first Betti number
b1 = dim Hom(G, F_p), and the search for a finite p-group quotient in
which every vertex group injects (the finite-level properness
certificate).

A graph of groups finds one BFS maximal tree when it is built, and the
presentation, the witness check and the witness search all read it.
The presentation is Serre's (*Trees*, I.5.1): a stable letter only for
each edge off the tree, and on a tree edge the relators
inj0(g) * inj1(g)^-1, as if its letter were the identity.  It keeps only
the symbols and the edge relators: each vertex group enters through its
cocycle equations over F_p[G_v], cohomology's C for its left
translations, which cut out the same Z^1 as the Fox rows of any
presentation of G_v (Brown, *Cohomology of Groups*, IV.2).  Neither the
presentation nor the RREF bases of those equations depends on a level:
a graph of groups builds them on first use and keeps them.

A presentation symbol is its own kind: ("v", vid, gi) for generator gi
of the group at vertex vid, and ("t", eid) for the stable letter of edge
eid, so ids that are equal as strings stay apart.

b1 is computed from the abelianised relator matrix mod p: the edge
relators' exponent sums, and each vertex basis with each generator's
|G_v| columns summed.  Summing a Fox row's columns gives its relator's
exponent sums, so those rows span G_v's abelianised relations mod p.

The numbers of the finite-level statement that no level changes are
the graph of groups' too, built on first use and kept: b1, the size
M(X) of a maximum matching of its graph, and gen_count = |E| - rank_p(W)
for the |E| x |V| matrix W[e, d0(e)] += [G_d0 : G_e],
W[e, d1(e)] -= [G_d1 : G_e].  gen_count is Nakayama's count
dim M / M.I_P = dim T / (T.I_P + im F) of the module of ends
M = T / im F at a level P (``ends``).  Augmentation identifies
T / T.I_P with one F_p per edge of the graph of groups and sends the
column of F at a vertex coset K_v x to column v of W, since the vertex
maps are injective and so each side of e at v meets K_v x in
[G_v : G_e] edge cosets; im F goes onto the column space of W.  So
gen_count is the same at every level, and as every index is a power of
p, gen_count = |E| when the graph of groups is reduced.

This module loads no numpy, so that parsing, the witness search and
the witness documents run without it: ``fox_bases``, ``gen_count`` and
``b1`` import the linear-algebra layers when they are called.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .fpcore import (
    FiniteGroup,
    GroupHom,
    ImagesInconsistent,
    Subgroup,
    catalog_groups,
    hom_from_images,
    is_embedding,
    is_injective,
    subgroup_as_group,
    subgroup_generated,
)
from .graphs import Graph, maximum_matching


class GogError(ValueError):
    """Structural violation in a graph of groups."""


class NotFoundWithinBound(GogError):
    """No catalog group within the order bound is a witness; one missing from the catalog may be."""


class OracleMismatch(RuntimeError):
    """Mayer-Vietoris h1 dimension disagrees with the Fox oracle."""


class NonIntegral(GogError):
    """Euler-characteristic rank formula failed to produce an integer."""


def _require_cover(name: str, given: dict, kind: str, ids) -> None:
    """Raise a GogError naming the first of the vertex or edge ``ids`` that
    ``given`` has no key for, or a key of ``given`` that is no id."""
    for x in ids:
        if x not in given:
            raise GogError(f"{kind} {x!r}: no {name}")
    if len(given) != len(ids):
        extra = next(x for x in given if x not in ids)
        raise GogError(f"{name} for {extra!r}, which is no {kind}")


@dataclass
class GraphOfGroups:
    graph: Graph
    prime: int
    vertex_groups: dict
    edge_groups: dict
    inj0: dict
    inj1: dict
    # the vertices in BFS order from the first one, and the ids of the
    # edges of that BFS maximal tree
    bfs_order: tuple = field(init=False, repr=False, compare=False)
    tree: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_cover("vertex group", self.vertex_groups, "vertex", self.graph.vertices)
        self.bfs_order, self.tree = _bfs_tree(self.graph)
        if len(self.bfs_order) != len(self.graph.vertices):
            raise GogError("graph is not connected")
        eids = [e for e, _, _ in self.graph.edges]
        for name, mapping in (("edge group", self.edge_groups), ("inj0", self.inj0), ("inj1", self.inj1)):
            _require_cover(name, mapping, "edge", eids)
        for grp in list(self.vertex_groups.values()) + list(self.edge_groups.values()):
            if grp.prime != self.prime:
                raise GogError("all groups must share the prime")
        for eid, u, v in self.graph.edges:
            for name, inj, target in (("inj0", self.inj0[eid], u), ("inj1", self.inj1[eid], v)):
                if not is_embedding(inj, self.edge_groups[eid], self.vertex_groups[target]):
                    raise GogError(f"edge {eid!r}: {name} is not an embedding of the edge group in vertex {target!r}")

    @functools.cached_property
    def serre(self) -> "Presentation":
        """Serre's presentation on the stored tree, built on first use."""
        return presentation(self)

    @functools.cached_property
    def fox_bases(self) -> dict:
        """An RREF basis of the cocycle equations over F_p[G_v] of each
        vertex group that has generators, by vertex id in vertex order,
        built on first use: column gi * |G_v| + z is (generator gi, z)."""
        from .cohomology import _cocycle_constraints, _left_translations
        from .fplinalg import rref

        out = {}
        for vid in self.graph.vertices:
            grp = self.vertex_groups[vid]
            if grp.generators:
                equations = _cocycle_constraints(grp, _left_translations(grp, grp.generators), self.prime)
                reduced, pivots = rref(equations)
                out[vid] = reduced.data[: len(pivots)]
        return out

    @functools.cached_property
    def gen_count(self) -> int:
        """|E| - rank_p(W), the Nakayama count at every level (module
        docstring), found on first use."""
        from .fplinalg import FpMatrix, rank

        column = {vid: i for i, vid in enumerate(self.graph.vertices)}
        weights = [[0] * len(column) for _ in self.graph.edges]
        for row, (eid, u, v) in zip(weights, self.graph.edges):
            row[column[u]] += self.vertex_groups[u].order // self.edge_groups[eid].order
            row[column[v]] -= self.vertex_groups[v].order // self.edge_groups[eid].order
        return len(weights) - rank(FpMatrix.from_rows(weights, self.prime, cols=len(column)))

    @functools.cached_property
    def betti(self) -> int:
        """``b1(self)``, found on first use."""
        return b1(self)

    @functools.cached_property
    def matching_size(self) -> int:
        """M(X), the size of a maximum matching of the graph, found on first use."""
        return len(maximum_matching(self.graph))

    def endpoints(self, eid):
        for e, u, v in self.graph.edges:
            if e == eid:
                return u, v
        raise GogError(f"no edge {eid!r}")


def _iso_edge(gog: GraphOfGroups):
    """The first non-loop edge whose map to an endpoint is bijective, or
    None: a graph of groups is reduced when it has none."""
    for eid, u, v in gog.graph.edges:
        if u != v and gog.edge_groups[eid].order in (gog.vertex_groups[u].order, gog.vertex_groups[v].order):
            return eid
    return None


def _inverse_hom(hom: GroupHom) -> GroupHom:
    """The inverse of an edge map, an embedding, onto a group of its order."""
    inverse = [0] * hom.target.order
    for x, y in enumerate(hom.image):
        inverse[y] = x
    return GroupHom(hom.target, hom.source, tuple(inverse))


def collapse_iso_edge(gog: GraphOfGroups, eid) -> GraphOfGroups:
    """Contract a non-loop edge whose map to one endpoint is bijective,
    rerouting the neighbouring edge maps through the isomorphism."""
    u, v = gog.endpoints(eid)
    if u == v:
        raise GogError("cannot collapse a loop")
    ge = gog.edge_groups[eid]
    if ge.order == gog.vertex_groups[v].order:
        gone, keep = v, u
        into_keep = gog.inj0[eid].compose(_inverse_hom(gog.inj1[eid]))
    elif ge.order == gog.vertex_groups[u].order:
        gone, keep = u, v
        into_keep = gog.inj1[eid].compose(_inverse_hom(gog.inj0[eid]))
    else:
        raise GogError("neither edge map is an isomorphism")

    new_vertices = tuple(x for x in gog.graph.vertices if x != gone)
    new_edges = []
    inj0, inj1 = {}, {}
    for e, a, b in gog.graph.edges:
        if e == eid:
            continue
        h0, h1 = gog.inj0[e], gog.inj1[e]
        if a == gone:
            a, h0 = keep, into_keep.compose(h0)
        if b == gone:
            b, h1 = keep, into_keep.compose(h1)
        new_edges.append((e, a, b))
        inj0[e], inj1[e] = h0, h1
    return GraphOfGroups(
        graph=Graph(new_vertices, tuple(new_edges)),
        prime=gog.prime,
        vertex_groups={x: g for x, g in gog.vertex_groups.items() if x != gone},
        edge_groups={e: g for e, g in gog.edge_groups.items() if e != eid},
        inj0=inj0,
        inj1=inj1,
    )


def reduce_gog(gog: GraphOfGroups) -> GraphOfGroups:
    """Collapse isomorphism edges until the graph of groups is reduced."""
    while (eid := _iso_edge(gog)) is not None:
        gog = collapse_iso_edge(gog, eid)
    return gog


def _bfs_tree(graph: Graph):
    """The vertices that a BFS from the first vertex reaches, in BFS
    order, and the ids of the edges along which it first reaches them."""
    adjacency: dict = {v: [] for v in graph.vertices}
    for e, u, v in graph.edges:
        adjacency[u].append((e, v))
        if u != v:
            adjacency[v].append((e, u))
    root = graph.vertices[0]
    seen = {root}
    tree = []
    queue = [root]
    for x in queue:
        for e, w in adjacency[x]:
            if w not in seen:
                seen.add(w)
                tree.append(e)
                queue.append(w)
    return tuple(queue), tuple(tree)


def _free_reduce(word):
    out = []
    for sym, exp in word:
        if out and out[-1][0] == sym and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((sym, exp))
    return tuple(out)


def _invert_word(word):
    return tuple((sym, -exp) for sym, exp in reversed(word))


@dataclass(frozen=True)
class Presentation:
    symbols: tuple
    edge_relators: tuple


def presentation(gog: GraphOfGroups) -> Presentation:
    """Serre's presentation on the stored maximal tree, without the vertex
    relators.  Generators: the vertex-group generators ("v", vid, gi) and
    a stable letter ("t", eid) for each edge off the tree; edge relators:
    for each generator g of each edge group, inj0(g) * t * inj1(g)^-1 * t^-1
    off the tree and inj0(g) * inj1(g)^-1 on it."""
    symbols = [("v", vid, gi) for vid in gog.graph.vertices for gi in range(len(gog.vertex_groups[vid].generators))]
    symbols += [("t", eid) for eid, _, _ in gog.graph.edges if eid not in gog.tree]

    def group_word(vid, element):
        return tuple((("v", vid, gi), 1) for gi in gog.vertex_groups[vid].words[element])

    edge_relators = []
    for eid, u, v in gog.graph.edges:
        t = () if eid in gog.tree else ((("t", eid), 1),)
        for g in gog.edge_groups[eid].generators:
            a = group_word(u, gog.inj0[eid].image[g])
            b = group_word(v, gog.inj1[eid].image[g])
            edge_relators.append(_free_reduce(a + t + _invert_word(b) + _invert_word(t)))
    return Presentation(tuple(symbols), tuple(filter(None, edge_relators)))


def b1(gog: GraphOfGroups) -> int:
    """dim_{F_p} Hom(fundamental group, F_p): generator count minus the
    mod-p rank of the abelianised relator matrix, as the module docstring
    describes."""
    from .fplinalg import FpMatrix, rank

    pres = gog.serre
    index = {sym: i for i, sym in enumerate(pres.symbols)}
    rows = [[0] * len(index) for _ in pres.edge_relators]
    for row, word in zip(rows, pres.edge_relators):
        for sym, exp in word:
            row[index[sym]] += exp
    for vid, basis in gog.fox_bases.items():
        # the generator symbols of a vertex are consecutive, from gi = 0
        first, order = index[("v", vid, 0)], gog.vertex_groups[vid].order
        for sums in basis.reshape(len(basis), -1, order).sum(axis=2).tolist():
            rows.append([0] * first + sums + [0] * (len(index) - first - len(sums)))
    return len(index) - rank(FpMatrix.from_rows(rows, gog.prime, cols=len(index)))


def _edge_pairs(gog: GraphOfGroups, maps: dict, eid, u, v) -> list:
    """(psi_u(inj0 g), psi_v(inj1 g)) over the generators g of G_e, e = eid from u to v."""
    i0, i1, pu, pv = gog.inj0[eid].image, gog.inj1[eid].image, maps[u].image, maps[v].image
    return [(pu[i0[g]], pv[i1[g]]) for g in gog.edge_groups[eid].generators]


def _relator_holds(rows, pairs, t) -> bool:
    """Whether the letter t satisfies the edge's relator: a * t == t * b for each of its pairs."""
    return all(rows[a][t] == rows[t][b] for a, b in pairs)


@dataclass
class ProperWitness:
    """Finite quotient level: vertex maps that are embeddings + stable letter images."""

    quotient: FiniteGroup
    vertex_maps: dict
    stable_images: dict

    def verify(self, gog: GraphOfGroups):
        """Raise a GogError naming the vertex or edge at fault unless each vertex, and no
        other key, has a map embedding its group in a quotient of the graph of groups' prime,
        and each edge, and no other key, a letter in it, the identity on a tree edge, that
        passes ``_relator_holds``: both sides of the relator are homomorphisms of G_e, so
        checking the generators checks G_e."""
        P = self.quotient
        _require_cover("witness map", self.vertex_maps, "vertex", gog.graph.vertices)
        _require_cover("witness letter", self.stable_images, "edge", [e for e, _, _ in gog.graph.edges])
        if P.prime != gog.prime:
            raise GogError(f"witness quotient is a {P.prime}-group, not a {gog.prime}-group")
        for vid in gog.graph.vertices:
            if not is_embedding(self.vertex_maps[vid], gog.vertex_groups[vid], P):
                raise GogError(f"vertex {vid!r}: witness map is not an embedding of the vertex group in the quotient")
        rows = P.rows()
        for eid, u, v in gog.graph.edges:
            t = self.stable_images[eid]
            if isinstance(t, bool) or not isinstance(t, int) or not 0 <= t < P.order:
                raise GogError(f"edge {eid!r}: letter {t!r} is not an element of the quotient")
            if eid in gog.tree and t != 0:
                raise GogError(f"tree edge {eid!r} must carry the identity")
            if not _relator_holds(rows, _edge_pairs(gog, self.vertex_maps, eid, u, v), t):
                raise GogError(f"edge {eid!r}: conjugation relator fails on a generator of the edge group")

    def symbol_images(self, gog: GraphOfGroups) -> list:
        """The element of the quotient for each of ``gog.serre.symbols``, in order."""
        maps, groups = self.vertex_maps, gog.vertex_groups
        return [
            maps[s[1]].image[groups[s[1]].generators[s[2]]] if s[0] == "v" else self.stable_images[s[1]]
            for s in gog.serre.symbols
        ]

    def image(self, gog: GraphOfGroups) -> Subgroup:
        """The subgroup of the quotient that the symbols' images generate."""
        return subgroup_generated(self.quotient, self.symbol_images(gog))

    def is_surjective(self, gog: GraphOfGroups) -> bool:
        return self.image(gog).order == self.quotient.order

    def to_json(self, gog: GraphOfGroups) -> dict:
        return {
            "quotient": {
                "name": self.quotient.name,
                "order": self.quotient.order,
                "table": [list(row) for row in self.quotient.rows()],
                "generators": list(self.quotient.generators),
            },
            "vertex_maps": {str(v): list(self.vertex_maps[v].image) for v in gog.graph.vertices},
            "stable_images": {str(e): self.stable_images[e] for e, _, _ in gog.graph.edges},
        }


def injective_homs(src: FiniteGroup, dst: FiniteGroup, constraints=()):
    """All injective homomorphisms src -> dst, optionally constrained to
    send given source elements to given targets.

    Generator images are tried in ascending element order, generator by
    generator; only the image tuples that already fail are skipped, so
    the homs come in the same order as from every tuple in turn.  A
    generator's image must have exactly its order, as an injective hom
    keeps orders.  A constraint (x, y) is checked as soon as every
    generator in ``src.words[x]`` has an image: x maps to that word
    evaluated on the images.  Only complete tuples reach
    ``hom_from_images``.
    """
    if dst.order % src.order != 0:
        return
    cand = []
    for g in src.generators:
        og = src.element_order(g)
        cand.append([y for y in dst.elements() if dst.element_order(y) == og])
    # due[i]: the constraints whose words are first fully imaged by images[:i]
    due: list[list] = [[] for _ in range(len(cand) + 1)]
    for x, y in constraints:
        word = src.words[x]
        due[max(word) + 1 if word else 0].append((word, y))
    rows = dst.rows()

    def rec(i, images):
        for word, y in due[i]:
            z = 0
            for gi in word:
                z = rows[z][images[gi]]
            if z != y:
                return
        if i == len(cand):
            try:
                hom = hom_from_images(src, dst, images)
            except ImagesInconsistent:
                return
            if is_injective(hom):
                yield hom
            return
        for y in cand[i]:
            yield from rec(i + 1, images + [y])

    yield from rec(0, [])


def proper_quotient_search(gog: GraphOfGroups, order_bound: int, exact_order: int | None = None) -> ProperWitness:
    """The first witness over the catalog quotients, ascending by order.

    On each quotient P one backtracking search picks the vertex maps in
    BFS order, each from ``injective_homs`` in its order; a tree edge
    makes its child's map agree with its parent's on the edge group.
    Each edge is settled when the later of its endpoints in BFS order has
    a map: it takes the least t in P with psi_u(inj0 g) * t ==
    t * psi_v(inj1 g) for every edge generator g (the identity, on a tree
    edge), and a map that leaves an edge without one is backtracked.
    Given the maps, each letter depends on its own edge alone, so the
    search is complete over the catalog, and the witness on P is the
    least tuple of maps that has all its letters, each letter least.

    The returned witness is normalised to a surjective one by shrinking
    the quotient to the subgroup its images generate, then re-verified
    from scratch.
    """
    position = {vid: i for i, vid in enumerate(gog.bfs_order)}
    settled_at: dict = {vid: [] for vid in gog.bfs_order}
    for eid, u, v in gog.graph.edges:
        settled_at[max(u, v, key=position.__getitem__)].append((eid, u, v))

    def extend(w: ProperWitness) -> bool:
        """Complete w, whose maps are a BFS prefix, or report that no
        completion exists."""
        maps, rows = w.vertex_maps, w.quotient.rows()
        if len(maps) == len(gog.bfs_order):
            return True
        vid = gog.bfs_order[len(maps)]
        constraints = []
        for eid, u, v in settled_at[vid]:
            if eid in gog.tree:
                mine, theirs, par = (gog.inj1, gog.inj0, u) if vid == v else (gog.inj0, gog.inj1, v)
                gens = gog.edge_groups[eid].generators
                constraints = [(mine[eid].image[g], maps[par].image[theirs[eid].image[g]]) for g in gens]
        for hom in injective_homs(gog.vertex_groups[vid], w.quotient, constraints):
            maps[vid] = hom
            for eid, u, v in settled_at[vid]:
                pairs = _edge_pairs(gog, maps, eid, u, v)
                t = next((t for t in w.quotient.elements() if _relator_holds(rows, pairs, t)), None)
                if t is None:
                    break
                w.stable_images[eid] = t
            else:
                if extend(w):
                    return True
        maps.pop(vid, None)
        return False

    for P in catalog_groups(gog.prime, order_bound):
        if exact_order not in (None, P.order) or any(P.order % grp.order for grp in gog.vertex_groups.values()):
            continue
        witness = ProperWitness(P, {}, {})
        if extend(witness):
            witness = _shrink_to_image(gog, witness)
            witness.verify(gog)
            return witness
    raise NotFoundWithinBound(f"no witness in the catalog with order <= {order_bound}")


def _shrink_to_image(gog: GraphOfGroups, witness: ProperWitness) -> ProperWitness:
    P = witness.quotient
    sub = witness.image(gog)
    if sub.order == P.order:
        return witness
    H, incl = subgroup_as_group(sub)
    local = {parent: i for i, parent in enumerate(incl.image)}
    vertex_maps = {
        vid: GroupHom(hom.source, H, tuple(local[x] for x in hom.image))
        for vid, hom in witness.vertex_maps.items()
    }
    stable = {e: local[t] for e, t in witness.stable_images.items()}
    return ProperWitness(H, vertex_maps, stable)


def free_kernel_rank(gog: GraphOfGroups, witness: ProperWitness) -> int:
    """Rank of the free kernel of the witness quotient map, via the Euler
    characteristic of the graph of groups."""
    witness.verify(gog)
    if not witness.is_surjective(gog):
        raise GogError("witness image must generate the whole quotient")
    chi = Fraction(0)
    for grp in gog.vertex_groups.values():
        chi += Fraction(1, grp.order)
    for grp in gog.edge_groups.values():
        chi -= Fraction(1, grp.order)
    value = 1 - witness.quotient.order * chi
    if value.denominator != 1 or value < 0:
        raise NonIntegral(f"rank formula produced {value}")
    return int(value)
