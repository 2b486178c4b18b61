"""Finite-quotient-level module of ends for graphs of finite p-groups.

At a witness level P the group algebra F_p[P] is handled through index
arrays: left multiplication by w sends the basis element z to
``P.mult[w, z]`` and right multiplication by g sends it to
``P.mult[z, g]``.  H^0(K, F_p[P]) of a vertex or edge image K is
spanned by the indicator vectors of the right cosets Kx, and a coset
space is a label array over P, its cosets numbered by their least element.

The level graph X_P, the Bass-Serre tree modulo the kernel of G -> P
(Serre, *Trees* I.5), has the cosets K_v x as vertices and the cosets
K_e x as edges, K_e x joining K_d0 x to K_d1 t_e^-1 x.  The tree boundary
map F into T = sum_e F_p[K_e\\P] is its signed incidence matrix, a loop a
zero row.  The finite vertex groups have vanishing H^1 on F_p[P], so the
module of ends at level P is M = T / im F, and if X_P has s vertices,
n edges and c components, then kernel_dim = c, rank F = s - c and
h1_dim = n - s + c.  Nakayama's count gen_count = dim M / M.I_P is the
same at every level, as are b1 and M(X): the graph of groups keeps all
three (``gog``), and a level report only reads them.

Both sides of each edge are edge-invariant on a witness ``verify`` accepts:
the d0 side as the edge image lies in H_u, the d1 side as verify's
a t = t b on the edge group's generators gives t^-1 a t in H_v.
Fox calculus on Serre's presentation is an independent elimination
oracle for h1_dim and kernel_dim; a disagreement raises rather than
reports.  dim H^0 is cohomology's ``h0`` of the left translations by
the symbols' images, |P| - rank D, and dim B^1 = |P| - dim H^0; H^0
counts the right cosets of the image of G, the components of X_P.
The oracle reads no level-graph data and never builds the whole
relators x symbols matrix over F_p[P].  The graph of groups keeps its
presentation, which has only the edge relators, and a basis of each
vertex group's cocycle equations over F_p[G_v].  Over F_p[P] the
equations of G_v, image H_v, are block diagonal over the right cosets
H_v c, as F_p[P] is a free F_p[H_v]-module on them (Brown, *Cohomology
of Groups*, III.5-6), so at each level the basis is only translated to
every coset, and only the edge relators get rows over P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohomology import _left_translations, h0
from .fpcore import FiniteGroup, right_cosets
from .fplinalg import FpMatrix, rank
from .gog import GraphOfGroups, OracleMismatch, ProperWitness
from .gog import b1 as gog_b1  # noqa: F401  (the benchmark's self-test wraps it here)
from .graphs import _component_roots


@dataclass
class MvLevelData:
    source_dim: int
    target_dim: int
    rank: int
    kernel_dim: int
    h1_dim: int


def mv_h0_map(gog: GraphOfGroups, witness: ProperWitness) -> MvLevelData:
    """Read the level-P Mayer-Vietoris invariants off the level graph X_P."""
    witness.verify(gog)
    P = witness.quotient

    vertex_labels, col_off, src = {}, {}, 0
    for vid in gog.graph.vertices:
        reps, vertex_labels[vid] = right_cosets(P, witness.vertex_maps[vid].image)
        col_off[vid], src = src, src + len(reps)

    joins, tgt = [], 0
    for eid, u, v in gog.graph.edges:
        image = np.asarray(witness.vertex_maps[u].image)[list(gog.inj0[eid].image)]
        reps, _ = right_cosets(P, image)
        # the source coset of every x in F_p[P]: of x at d0, of t^-1 x at d1
        lab0 = vertex_labels[u]
        lab1 = vertex_labels[v][P.mult[P.inv(witness.stable_images[eid])]]
        joins += zip((col_off[u] + lab0[reps]).tolist(), (col_off[v] + lab1[reps]).tolist())
        tgt += len(reps)
    components = len(set(_component_roots(range(src), joins).values()))
    return MvLevelData(
        source_dim=src,
        target_dim=tgt,
        rank=src - components,
        kernel_dim=components,
        h1_dim=tgt - src + components,
    )


def _vertex_rows(gog: GraphOfGroups, vid, witness: ProperWitness, col: dict, width: int) -> np.ndarray:
    """The stored basis of the cocycle equations of vertex ``vid`` over
    F_p[G_v], translated to every right coset of its image H_v in P.

    psi_v is an injective homomorphism, so the rows over H_v are those
    over G_v with z renamed psi_v(z); the equations multiply on the left
    by elements of H_v only, so the rows at H_v c are those at H_v with
    every h moved to h c."""
    P = witness.quotient
    basis = gog.fox_bases[vid]
    image = np.asarray(witness.vertex_maps[vid].image, dtype=np.intp)
    reps, _ = right_cosets(P, image)
    offsets = np.array([col[("v", vid, gi)] for gi in range(len(gog.vertex_groups[vid].generators))])
    # cols[c, (gi, z)] is the column (generator gi, psi_v(z) * reps[c])
    cols = (offsets[None, :, None] + P.mult[np.ix_(image, reps)].T[:, None, :]).reshape(len(reps), -1)
    out = np.zeros((len(reps), len(basis), width), dtype=np.uint8)
    out[np.arange(len(reps))[:, None, None], np.arange(len(basis))[None, :, None], cols[:, None, :]] = basis
    return out.reshape(-1, width)


def _fox_rows(words, col: dict, elements: dict, group: FiniteGroup, width: int) -> np.ndarray:
    """Fox-derivative rows of the words over F_p[group], each symbol s
    standing for the element ``elements[s]`` and every prefix acting by
    left multiplication: row r * |group| + z is (word r, z), column
    col[s] + z is (s, z)."""
    p, n = group.prime, group.order
    z = np.arange(n)
    mult = group.mult.astype(np.intp)
    out = np.zeros((len(words) * n, width), dtype=np.uint8)
    table = group.rows()
    for ri, word in enumerate(words):
        prefix = 0
        for sym, exp in word:  # every exponent is +-1
            if exp == 1:
                rows, step = ri * n + mult[prefix], 1
                prefix = table[prefix][elements[sym]]
            else:
                prefix = table[prefix][group.inv(elements[sym])]
                rows, step = ri * n + mult[prefix], p - 1
            cols = col[sym] + z
            out[rows, cols] = (out[rows, cols] + step) % p
    return out


def h1_via_fox(gog: GraphOfGroups, witness: ProperWitness) -> tuple[int, int]:
    """(dim H^0, dim H^1) of G with coefficients in F_p[P], from Serre's
    presentation by Fox calculus.

    Cocycles are the joint kernel of the cocycle equations on the
    symbols' values, elements acting by left multiplication on F_p[P]:
    the stored vertex bases translated to the cosets of each H_v
    (``_vertex_rows``) and the edge relators' Fox rows, |P| each, under
    one rank.  The coboundary map m -> ((g - 1) m)_g over the generators
    has kernel H^0, whose dimension ``h0`` takes from the left
    translations A_g, and rank |P| - dim H^0.
    """
    P = witness.quotient
    n = P.order
    pres = gog.serre
    images = witness.symbol_images(gog)
    col = {sym: i * n for i, sym in enumerate(pres.symbols)}
    width = len(col) * n
    blocks = [_vertex_rows(gog, vid, witness, col, width) for vid in gog.fox_bases]
    blocks.append(_fox_rows(pres.edge_relators, col, dict(zip(pres.symbols, images)), P, width))
    z1_dim = width - rank(FpMatrix(np.concatenate(blocks), P.prime))
    h0_dim = h0(_left_translations(P, images), P.prime)
    return h0_dim, z1_dim - (n - h0_dim)


@dataclass(frozen=True)
class EndsLevelReport:
    level: int
    h1_dim: int
    gen_count: int
    fox_h1_dim: int
    b1: int
    edge_count: int
    bound_rhs: int
    bound_holds: bool
    matching_size: int
    matching_le_gen: bool
    kernel_dim: int
    source_dim: int
    target_dim: int
    ends_signature: tuple

    def to_json(self) -> dict:
        return dict(vars(self), ends_signature=list(self.ends_signature))


def ends_level(gog: GraphOfGroups, witness: ProperWitness) -> EndsLevelReport:
    """Full level report: MV h1, Fox cross-check of h1 and kernel_dim,
    and the graph of groups' gen_count, b1 and M(X) in the edge-count
    bound 2*gen_count + 9*(b1 - 1) and M(X) <= gen_count."""
    mv = mv_h0_map(gog, witness)
    fox_h0, fox = h1_via_fox(gog, witness)
    level = witness.quotient.order
    if fox != mv.h1_dim:
        raise OracleMismatch(f"MV h1 dim {mv.h1_dim} != Fox H^1 dim {fox} at level {level}")
    if fox_h0 != mv.kernel_dim:
        raise OracleMismatch(f"MV kernel dim {mv.kernel_dim} != Fox H^0 dim {fox_h0} at level {level}")
    edge_count = len(gog.graph.edges)
    bound_rhs = 2 * gog.gen_count + 9 * (gog.betti - 1)
    return EndsLevelReport(
        level=level,
        h1_dim=mv.h1_dim,
        gen_count=gog.gen_count,
        fox_h1_dim=fox,
        b1=gog.betti,
        edge_count=edge_count,
        bound_rhs=bound_rhs,
        bound_holds=edge_count <= bound_rhs,
        matching_size=gog.matching_size,
        matching_le_gen=gog.matching_size <= gog.gen_count,
        kernel_dim=mv.kernel_dim,
        source_dim=mv.source_dim,
        target_dim=mv.target_dim,
        ends_signature=(mv.kernel_dim, mv.h1_dim),
    )
