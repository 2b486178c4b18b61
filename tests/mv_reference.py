"""The level-P Mayer-Vietoris map as a matrix: the reference for ``ends``.

``boundary_map`` assembles the tree boundary map F, a |T| x |source|
matrix over F_p, and the right action of P's generators on the target
cosets, from the coset label arrays.  ``cokernel_reference`` builds
T / im F as a right module and takes its dimension and Nakayama count
with ``gmodules``.  ``gen_count_closed_form`` reads |E| - rank_p(W) off a
graph, with no elimination.  ``ends.mv_h0_map`` computes none of these
matrices; tests compare it against them.  ``table_relators`` are the
words s * w(x) * w(sx)^-1 of a vertex group's multiplication table, a
presentation of it, and ``vertex_basis_reference`` is the RREF basis of
their Fox rows over F_p[G_v], which ``GraphOfGroups.fox_bases`` takes
from cohomology's C instead.  ``fox_matrix_reference`` is the whole
(relators * |P|) x (symbols * |P|) Fox matrix of the table and edge
relators, built from words alone, and ``h1_via_fox_reference`` reads
dim H^1 off it and the coboundary matrix; ``ends.h1_via_fox`` never
builds it, and tests compare the two.
``lifted_witness`` gives the second level the tests check next to the
minimal witness.
"""

import itertools

import numpy as np

from gogends import fpcore, gmodules, gog as gogmod, graphs
from gogends.fplinalg import FpMatrix, Subspace, rank, rref


def boundary_map(gog, witness):
    """(F, right_perms): right_perms[i, c] is the target coset c * P.generators[i]."""
    P = witness.quotient
    p = gog.prime
    mult = P.mult.astype(np.intp)

    vertex_labels, col_off, src = {}, {}, 0
    for vid in gog.graph.vertices:
        reps, vertex_labels[vid] = fpcore.right_cosets(P, witness.vertex_maps[vid].image)
        col_off[vid], src = src, src + len(reps)

    blocks, tgt = [], 0
    for eid, u, v in gog.graph.edges:
        image = np.asarray(witness.vertex_maps[u].image)[list(gog.inj0[eid].image)]
        reps, labels = fpcore.right_cosets(P, image)
        lab0 = vertex_labels[u]
        lab1 = vertex_labels[v][mult[P.inv(witness.stable_images[eid])]]
        coset_times_gen = tgt + labels[mult[np.ix_(reps, P.generators)]].T
        blocks.append((tgt + np.arange(len(reps)), col_off[u] + lab0[reps], col_off[v] + lab1[reps], coset_times_gen))
        tgt += len(reps)

    fmap = np.zeros((tgt, src), dtype=np.uint8)
    right_perms = np.zeros((len(P.generators), tgt), dtype=np.intp)
    for rows, d0_cols, d1_cols, perms in blocks:
        fmap[rows, d0_cols] = 1
        fmap[rows, d1_cols] = (fmap[rows, d1_cols] + p - 1) % p
        right_perms[:, rows] = perms
    return FpMatrix(fmap, p), right_perms


def cokernel_reference(P, fmap, right_perms):
    """(dim, Nakayama count) of T / im F built as a module: the right
    action from ``right_perms`` as permutation matrices, then
    ``quotient_module`` and ``min_generators``."""
    tgt, p = fmap.rows, fmap.prime
    acts = []
    for perm in right_perms:
        m = np.zeros((tgt, tgt), dtype=np.uint8)
        m[perm, np.arange(tgt)] = 1
        acts.append(FpMatrix(m, p))
    image = Subspace.from_vectors(fmap.transpose().data, tgt, p)
    coker, _ = gmodules.quotient_module(gmodules.GModule(P, tgt, right=acts), "right", image)
    return coker.dim, gmodules.min_generators(coker, "right")


def gen_count_closed_form(gog):
    """|E| - rank_p(W) from group orders and a component count.

    An index [G_v : G_e] is a power of p, so W's entries are units exactly
    where an edge map is onto; a loop's two entries cancel.  W is then the
    incidence matrix, ground column dropped, of the graph on V + {ground}
    with an edge (u, v) for each non-loop edge onto both ends and an edge
    (u, ground) for one onto its end u alone, so
    rank_p(W) = |V| + 1 - (number of its components).
    """
    ground = object()
    joins = []
    for eid, u, v in gog.graph.edges:
        if u == v:
            continue
        order = gog.edge_groups[eid].order
        onto = [x for x in (u, v) if gog.vertex_groups[x].order == order]
        if onto:
            joins.append((onto[0], onto[1] if len(onto) == 2 else ground))
    roots = graphs._component_roots([*gog.graph.vertices, ground], joins)
    rank_w = len(gog.graph.vertices) + 1 - len(set(roots.values()))
    return len(gog.graph.edges) - rank_w


def _symbol_element(gog, witness, sym):
    if sym[0] == "v":
        _, vid, gi = sym
        return witness.vertex_maps[vid].image[gog.vertex_groups[vid].generators[gi]]
    return witness.stable_images[sym[1]]


def table_relators(gog, vid):
    """The words s * w(x) * w(sx)^-1 of vertex ``vid``'s group for each
    generator s and element x, w(x) the normal-form word of x over the
    vertex symbols; free reduced, the empty ones dropped."""
    grp = gog.vertex_groups[vid]

    def word(x):
        return tuple((("v", vid, gi), 1) for gi in grp.words[x])

    words = (
        gogmod._free_reduce(((("v", vid, gi), 1),) + word(x) + gogmod._invert_word(word(sx)))
        for gi, s in enumerate(grp.generators)
        for x, sx in enumerate(grp.rows()[s])
    )
    return tuple(filter(None, words))


def _fox_rows(words, element, G, symbols):
    """Row (word r, z) and column (symbols[i], z') hold the coefficient
    of z' in the left action of dr/ds on z over F_p[G], the symbol s
    standing for ``element[s]``."""
    p, n = G.prime, G.order
    mult = G.mult.astype(np.intp)
    z = np.arange(n)
    col = {sym: i * n for i, sym in enumerate(symbols)}
    fox = np.zeros((len(words) * n, len(col) * n), dtype=np.uint8)
    for ri, word in enumerate(words):
        prefix = 0
        for sym, exp in word:
            x = element[sym]
            if exp == 1:
                rows, step = ri * n + mult[prefix], 1
                prefix = int(mult[prefix, x])
            else:
                prefix = int(mult[prefix, G.inv(x)])
                rows, step = ri * n + mult[prefix], p - 1
            cols = col[sym] + z
            fox[rows, cols] = (fox[rows, cols] + step) % p
    return FpMatrix(fox, p)


def vertex_basis_reference(gog, vid):
    """The RREF basis of the Fox rows of ``table_relators(gog, vid)``
    over F_p[G_v], column gi * |G_v| + z for (generator gi, z)."""
    grp = gog.vertex_groups[vid]
    symbols = [("v", vid, gi) for gi in range(len(grp.generators))]
    reduced, pivots = rref(_fox_rows(table_relators(gog, vid), dict(zip(symbols, grp.generators)), grp, symbols))
    return reduced.data[: len(pivots)]


def fox_matrix_reference(pres, gog, witness):
    """The Fox matrix over all of P of every vertex's table relators and
    the edge relators of ``pres``."""
    relators = sum((table_relators(gog, vid) for vid in gog.graph.vertices), ()) + pres.edge_relators
    element = {sym: _symbol_element(gog, witness, sym) for sym in pres.symbols}
    return _fox_rows(relators, element, witness.quotient, pres.symbols)


def h1_via_fox_reference(pres, gog, witness):
    """dim H^1(G, F_p[P]): the kernel of the whole Fox matrix minus the
    rank of m -> ((g - 1) m)_g over the presentation generators."""
    P = witness.quotient
    p = gog.prime
    n = P.order
    z = np.arange(n)
    z1_dim = len(pres.symbols) * n - rank(fox_matrix_reference(pres, gog, witness))
    coboundary = np.zeros((len(pres.symbols) * n, n), dtype=np.uint8)
    for i, sym in enumerate(pres.symbols):
        off = i * n
        coboundary[off + P.mult[_symbol_element(gog, witness, sym)], z] = 1
        coboundary[off + z, z] = (coboundary[off + z, z] + p - 1) % p
    return z1_dim - rank(FpMatrix(coboundary, p))


def _all_homs_to_cp(src, cp):
    cands = []
    for g in src.generators:
        og = src.element_order(g)
        cands.append([y for y in cp.elements() if og % cp.element_order(y) == 0])
    out = []
    for images in itertools.product(*cands) if cands else [()]:
        try:
            out.append(fpcore.hom_from_images(src, cp, list(images)))
        except fpcore.ImagesInconsistent:
            pass
    return out


def lifted_witness(g, w):
    """Cross the witness with an extra C_p factor, twisting the vertex
    maps by characters so the product stays surjective (the construction
    behind the (C4 x C4)/<(g^2, h^2)> style levels)."""
    p = g.prime
    cp = fpcore.cyclic(p, 1)
    big = fpcore.direct_product(w.quotient, cp)
    vids = list(g.graph.vertices)
    edge_ids = [e for e, _, _ in g.graph.edges]
    choices = [_all_homs_to_cp(g.vertex_groups[v], cp) for v in vids]
    for chi_combo in itertools.product(*choices):
        vm = {}
        for vid, chi in zip(vids, chi_combo):
            old = w.vertex_maps[vid]
            images = tuple(old.image[x] * p + chi.image[x] for x in range(old.source.order))
            vm[vid] = fpcore.GroupHom(old.source, big, images)
        for tau2 in itertools.product(range(p), repeat=len(edge_ids)):
            stable = {e: w.stable_images[e] * p + c for e, c in zip(edge_ids, tau2)}
            cand = gogmod.ProperWitness(big, vm, stable)
            try:
                cand.verify(g)
            except gogmod.GogError:
                continue
            if cand.is_surjective(g):
                return cand
    return None
