"""Whole-table homomorphism checks: the reference for the witness search.

``hom_from_images_reference`` evaluates every source element's normal
form word on the generator images, compares the full |src| x |src|
multiplication table, and checks that every generator, a repeated or
identity one too, maps to its given image.  ``injective_homs_reference``
tries every tuple of generator images whose orders divide the
generators' orders, and checks injectivity and the constraints on the
finished hom.  ``witness_search_reference`` tries every tuple of vertex
maps and stable letters on every catalog quotient.
``_relator_holds`` checks an edge's relator on every element of its
edge group.  ``fpcore.hom_from_images`` checks generator columns only,
``gog._relator_holds`` checks a relator on the edge group's generators,
and ``gog.injective_homs`` and ``gog.proper_quotient_search`` prune as
they go; tests compare them against these.  ``associative`` is the one-array
check of every triple that Light's test in the ``FiniteGroup``
constructor is compared against, and ``identity_hom`` builds the
identity map of a group.
``all_subgroups_reference`` closes the subgroup lattice under joins with
every element outside a subgroup; ``fpcore.all_subgroups`` joins with
one element per right coset.  ``cyclic_hom_count`` counts the homs from
the fundamental group to C_p from the graph of groups alone, the
reference for ``gog.b1``, which reads the edge relators and the vertex
groups' cocycle equations.
"""

import itertools

import numpy as np

from gogends.fpcore import (
    GroupError,
    GroupHom,
    ImagesInconsistent,
    Subgroup,
    catalog_groups,
    is_injective,
    subgroup_generated,
)
from gogends.gog import ProperWitness


def hom_from_images_reference(src, dst, gen_images):
    gen_images = [int(g) for g in gen_images]
    if len(gen_images) != len(src.generators):
        raise GroupError("need one image per source generator")
    for g in gen_images:
        if not 0 <= g < dst.order:
            raise GroupError(f"image {g} out of range")
    image = np.zeros(src.order, dtype=np.int64)
    for x in range(src.order):
        y = 0
        for gi in src.words[x]:
            y = int(dst.mult[y, gen_images[gi]])
        image[x] = y
    lhs = dst.mult[image[:, None], image[None, :]]
    rhs = image[src.mult]
    if not np.array_equal(lhs, rhs) or any(image[g] != y for g, y in zip(src.generators, gen_images)):
        raise ImagesInconsistent("generator images do not define a homomorphism")
    return GroupHom(src, dst, tuple(int(v) for v in image))


def injective_homs_reference(src, dst, constraints=()):
    if dst.order % src.order != 0:
        return
    cand = []
    for g in src.generators:
        og = src.element_order(g)
        cand.append([y for y in dst.elements() if og % dst.element_order(y) == 0])

    def rec(i, images):
        if i == len(cand):
            try:
                hom = hom_from_images_reference(src, dst, images)
            except ImagesInconsistent:
                return
            if not is_injective(hom):
                return
            for x, y in constraints:
                if hom.image[x] != y:
                    return
            yield hom
            return
        for y in cand[i]:
            yield from rec(i + 1, images + [y])

    yield from rec(0, [])


def witness_search_reference(g, bound):
    """The first witness in the catalog of order <= bound: quotients in
    order, then every tuple of vertex maps (vertices in the search's BFS
    order), then every tuple of letters, tree edges at the identity and
    the others over all of P, each relator checked on every element of
    its edge group; None if there is none.  The witness is not shrunk to
    its image."""
    tree = [e for e in g.graph.edges if e[0] in g.tree]  # (eid, u, v), as the relator reads it
    loose = [e for e in g.graph.edges if e[0] not in g.tree]
    for P in catalog_groups(g.prime, bound):
        homs = [list(injective_homs_reference(g.vertex_groups[vid], P)) for vid in g.bfs_order]
        for maps in itertools.product(*homs):
            maps = dict(zip(g.bfs_order, maps))
            if not all(_relator_holds(g, P, maps, 0, *e) for e in tree):
                continue
            # each relator names one letter: the tuples whose relators all
            # hold are the product of the letters each edge allows
            allowed = [[t for t in P.elements() if _relator_holds(g, P, maps, t, *e)] for e in loose]
            for letters in itertools.product(*allowed):
                stable = dict.fromkeys(g.tree, 0)
                stable.update((eid, t) for t, (eid, _, _) in zip(letters, loose))
                return ProperWitness(P, maps, stable)
    return None


def _relator_holds(g, P, maps, t, eid, u, v):
    """psi_u(inj0 x) == t psi_v(inj1 x) t^-1 for every element x of the edge group."""
    rows, t_inv = P.rows(), P.inv(t)
    for x in g.edge_groups[eid].elements():
        if maps[u].image[g.inj0[eid].image[x]] != rows[rows[t][maps[v].image[g.inj1[eid].image[x]]]][t_inv]:
            return False
    return True


def cyclic_hom_count(g) -> int:
    """|Hom(fundamental group, C_p)|: the tuples of vertex homs to C_p
    that agree on every element of every edge group through inj0 and
    inj1, times p for each of the |E| - |V| + 1 stable letters off a
    maximal tree, as the edge relators do not constrain a letter's image
    in the abelian C_p."""
    p = g.prime
    vertex_homs = [_cyclic_homs(g.vertex_groups[vid]) for vid in g.graph.vertices]
    count = 0
    for homs in itertools.product(*vertex_homs):
        phi = dict(zip(g.graph.vertices, homs))
        count += all(
            phi[u][g.inj0[eid].image[x]] == phi[v][g.inj1[eid].image[x]]
            for eid, u, v in g.graph.edges
            for x in g.edge_groups[eid].elements()
        )
    return count * p ** (len(g.graph.edges) - len(g.graph.vertices) + 1)


def _cyclic_homs(group) -> set:
    """Every hom group -> C_p as its tuple of values: each tuple of
    generator images extended along ``group.words``, kept when it is a
    hom on the whole table."""
    p, rows = group.prime, group.rows()
    homs = set()
    for images in itertools.product(range(p), repeat=len(group.generators)):
        phi = tuple(sum(images[i] for i in group.words[x]) % p for x in group.elements())
        if all(phi[rows[x][y]] == (phi[x] + phi[y]) % p for x in group.elements() for y in group.elements()):
            homs.add(phi)
    return homs


def associative(group) -> bool:
    """(a*b)*c == a*(b*c) over every triple, as one n^3 comparison."""
    table = group.mult
    return bool(np.array_equal(table[table], table[:, table]))


def identity_hom(group):
    return GroupHom(group, group, tuple(range(group.order)))


def all_subgroups_reference(group):
    """Every subgroup, by joining each one found with every element outside it."""
    seen = {(0,)}
    frontier = [(0,)]
    while frontier:
        elems = frontier.pop()
        for g in range(1, group.order):
            if g in elems:
                continue
            bigger = subgroup_generated(group, set(elems) | {g}).elements
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    return [Subgroup(group, e) for e in sorted(seen, key=lambda e: (len(e), e))]
