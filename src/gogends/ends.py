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
n edges and c components, then kernel_dim = c, rank F = s - c,
h1_dim = n - s + c and gen_count = |E| - rank_p(W), for the |E| x |V|
matrix W[e, d0(e)] += [G_d0 : G_e], W[e, d1(e)] -= [G_d1 : G_e].

gen_count is Nakayama's count dim M / M.I_P = dim T / (T.I_P + im F).
Augmentation identifies T / T.I_P with one F_p per edge of the graph of
groups and sends the column of F at a vertex coset K_v x to column v of
W, since the vertex maps are injective and so each side of e at v meets
K_v x in [G_v : G_e] edge cosets; im F goes onto the column space of W.
So gen_count is the same at every level, and as every index is a power
of p, gen_count = |E| when the graph of groups is reduced.

Each side of each edge must be edge-invariant and each coset labelling
stable under the right action, or ``WellDefinednessViolation`` is raised.
Fox calculus on the fundamental-group presentation is an independent
elimination oracle for h1_dim; a disagreement raises rather than reports.
It reads no level-graph data and never builds the whole relators x
symbols matrix over F_p[P].  The killer of a spanning-tree letter is the
identity on that letter's block and adds |P| to the rank.  A vertex
group's relators, image H_v, are block diagonal over the right cosets
H_v c, as F_p[P] is a free F_p[H_v]-module on them (Brown, *Cohomology
of Groups*, III.5-6): they are eliminated once over F_p[H_v] and the
basis is translated to every coset.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .fpcore import right_cosets
from .fplinalg import FpMatrix, rank, rref
from .gog import GogError, GraphOfGroups, Presentation, ProperWitness, b1 as gog_b1
from .gog import presentation
from .graphs import _component_roots, maximum_matching


class WellDefinednessViolation(RuntimeError):
    """An image vector escaped the edge-invariant subspace, or the image of
    the boundary map is not a right submodule (wrong witness or wrong twist)."""


class OracleMismatch(RuntimeError):
    """Mayer-Vietoris h1 dimension disagrees with the Fox oracle."""


def _right_stable(labels: np.ndarray, right: np.ndarray) -> bool:
    """labels[x] = labels[y] implies labels[xg] = labels[yg]; ``right[:, i]`` is P.mult[:, g_i]."""
    _, first, classes = np.unique(labels, return_index=True, return_inverse=True)
    moved = labels[right]
    return bool((moved == moved[first[classes]]).all())


@dataclass
class MvLevelData:
    witness: ProperWitness
    source_dim: int
    target_dim: int
    rank: int
    kernel_dim: int
    h1_dim: int
    gen_count: int


def mv_h0_map(gog: GraphOfGroups, witness: ProperWitness) -> MvLevelData:
    """Read the level-P Mayer-Vietoris invariants off the level graph X_P
    and the graph-of-groups index matrix W."""
    witness.verify(gog)
    P = witness.quotient
    mult = P.mult.astype(np.intp)
    right = mult[:, P.generators]

    vertex_labels, col_off, src = {}, {}, 0
    for vid in gog.graph.vertices:
        reps, vertex_labels[vid] = right_cosets(P, witness.vertex_maps[vid].image)
        col_off[vid], src = src, src + len(reps)

    joins, tgt = [], 0
    for eid, u, v in gog.graph.edges:
        image = np.asarray(witness.vertex_maps[u].image)[list(gog.inj0[eid].image)]
        reps, labels = right_cosets(P, image)
        # the source coset of every x in F_p[P]: of x at d0, of t^-1 x at d1
        lab0 = vertex_labels[u]
        lab1 = vertex_labels[v][mult[P.inv(witness.stable_images[eid])]]
        for side, lab in (("d0", lab0), ("d1", lab1)):
            if not (lab[mult[image]] == lab).all():
                raise WellDefinednessViolation(f"edge {eid!r}, {side} block: image vectors are not edge-invariant")
        if not all(_right_stable(lab, right) for lab in (labels, lab0, lab1)):
            raise WellDefinednessViolation(f"edge {eid!r}: the image of the boundary map is not a right submodule")
        joins += zip((col_off[u] + lab0[reps]).tolist(), (col_off[v] + lab1[reps]).tolist())
        tgt += len(reps)
    components = len(set(_component_roots(range(src), joins).values()))

    column = {vid: i for i, vid in enumerate(gog.graph.vertices)}
    weights = np.zeros((len(gog.graph.edges), len(column)), dtype=np.int64)
    for row, (eid, u, v) in enumerate(gog.graph.edges):
        weights[row, column[u]] += gog.vertex_groups[u].order // gog.edge_groups[eid].order
        weights[row, column[v]] -= gog.vertex_groups[v].order // gog.edge_groups[eid].order

    return MvLevelData(
        witness=witness,
        source_dim=src,
        target_dim=tgt,
        rank=src - components,
        kernel_dim=components,
        h1_dim=tgt - src + components,
        gen_count=len(weights) - rank(FpMatrix(weights % gog.prime, gog.prime)),
    )


def _symbol_elements(pres: Presentation, gog: GraphOfGroups, witness: ProperWitness) -> dict:
    """The element of P that each presentation symbol maps to."""
    out = {}
    for sym in pres.symbols:
        kind = pres.kinds[sym]
        if kind[0] == "v":
            _, vid, gi = kind
            out[sym] = witness.vertex_maps[vid].image[gog.vertex_groups[vid].generators[gi]]
        else:
            out[sym] = witness.stable_images[kind[1]]
    return out


def _fox_rows(words, col: dict, elements: dict, P, zs: np.ndarray, width: int) -> np.ndarray:
    """Fox-derivative rows of the words over the elements ``zs`` of P,
    which left multiplication by every prefix of every word must map onto
    themselves.  Row r * len(zs) + i is (word r, zs[i]), column
    col[s] + j is (s, zs[j]); a letter whose symbol is not in ``col``
    adds nothing but still moves the prefix."""
    p, m = P.prime, len(zs)
    pos = np.empty(P.order, dtype=np.intp)
    pos[zs] = np.arange(m)
    out = np.zeros((len(words) * m, width), dtype=np.uint8)
    for ri, word in enumerate(words):
        prefix = 0
        for sym, exp in word:
            x = elements[sym]
            if exp == 1:
                rows, step = ri * m + pos[P.mult[prefix, zs]], 1
                prefix = int(P.mult[prefix, x])
            elif exp == -1:
                prefix = int(P.mult[prefix, P.inv(x)])
                rows, step = ri * m + pos[P.mult[prefix, zs]], p - 1
            else:
                raise GogError("relator letters must have exponent +-1")
            if sym in col:
                cols = col[sym] + np.arange(m)
                out[rows, cols] = (out[rows, cols] + step) % p
    return out


def _vertex_rows(words, col: dict, elements: dict, P, image, width: int) -> np.ndarray:
    """A basis of the row space of the words' Fox rows over all of P,
    when every letter of every word lies in the subgroup H = ``image``.

    The prefixes lie in H, so the rows at a right coset Hc touch only
    the columns (s, z) with z in Hc, and they are the rows at H with
    every h moved to hc.  The RREF basis of the block at H, translated
    to each coset representative c, spans them all."""
    image = np.asarray(image, dtype=np.intp)
    m = len(image)
    used = {sym for word in words for sym, _ in word}
    syms = [s for s in col if s in used]
    block = _fox_rows(words, {s: i * m for i, s in enumerate(syms)}, elements, P, image, len(syms) * m)
    reduced, pivots = rref(FpMatrix(block, P.prime))
    basis = reduced.data[: len(pivots)]
    reps, _ = right_cosets(P, image)
    # cols[c, (s, i)] is the column (s, image[i] * reps[c])
    offsets = np.array([col[s] for s in syms], dtype=np.intp)
    cols = (offsets[None, :, None] + P.mult[np.ix_(image, reps)].T[:, None, :]).reshape(len(reps), -1)
    out = np.zeros((len(reps), len(basis), width), dtype=np.uint8)
    out[np.arange(len(reps))[:, None, None], np.arange(len(basis))[None, :, None], cols[:, None, :]] = basis
    return out.reshape(-1, width)


def h1_via_fox(pres: Presentation, gog: GraphOfGroups, witness: ProperWitness) -> int:
    """dim H^1(G, F_p[P]) from the presentation by Fox calculus.

    Cocycles are the joint kernel of the Fox-derivative blocks of the
    relators (prefix elements acting by left multiplication on F_p[P]);
    coboundaries are the image of m -> ((g - 1) m)_g over the
    presentation generators.

    The relator matrix is never built whole.  A one-letter relator (the
    killer of a spanning-tree letter) is invertible on its symbol's
    block, so it adds |P| to the rank and that symbol's columns leave
    every other row.  The relators of a vertex group, image H_v in P,
    split over the right cosets H_v c, on which F_p[P] is a free
    F_p[H_v]-module (Shapiro's lemma; Brown, *Cohomology of Groups*,
    III.5-6): they are eliminated once over F_p[H_v] and the basis is
    translated to each coset (``_vertex_rows``).  Edge relators keep
    their |P| rows, and one rank runs over all the stacked rows.
    """
    P = witness.quotient
    n = P.order
    elements = _symbol_elements(pres, gog, witness)
    killed = {word[0][0] for word in pres.relators if len(word) == 1}
    col = {sym: i * n for i, sym in enumerate(s for s in pres.symbols if s not in killed)}
    width = len(col) * n
    by_vertex: dict = {}
    rest = []
    for word in pres.relators:
        if len(word) == 1:
            continue
        (kind, owner), *others = {pres.kinds[sym][:2] for sym, _ in word}
        if kind == "v" and not others:
            by_vertex.setdefault(owner, []).append(word)
        else:
            rest.append(word)
    blocks = [
        _vertex_rows(words, col, elements, P, witness.vertex_maps[vid].image, width)
        for vid, words in by_vertex.items()
    ]
    blocks.append(_fox_rows(rest, col, elements, P, np.arange(n), width))
    z1_dim = width - rank(FpMatrix(np.concatenate(blocks), P.prime))

    z = np.arange(n)
    coboundary = np.zeros((len(pres.symbols) * n, n), dtype=np.uint8)
    for i, sym in enumerate(pres.symbols):
        off = i * n
        coboundary[off + P.mult[elements[sym]], z] = 1
        coboundary[off + z, z] = (coboundary[off + z, z] + P.prime - 1) % P.prime
    return z1_dim - rank(FpMatrix(coboundary, P.prime))


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
        return dict(asdict(self), ends_signature=list(self.ends_signature))


def ends_level(gog: GraphOfGroups, witness: ProperWitness) -> EndsLevelReport:
    """Full level report: MV h1 and Nakayama generator count, Fox
    cross-check, and the edge-count bound 2*gen_count + 9*(b1 - 1)."""
    mv = mv_h0_map(gog, witness)
    fox = h1_via_fox(presentation(gog), gog, witness)
    if fox != mv.h1_dim:
        raise OracleMismatch(
            f"MV h1 dim {mv.h1_dim} != Fox H^1 dim {fox} at level {witness.quotient.order}"
        )
    betti = gog_b1(gog)
    edge_count = len(gog.graph.edges)
    bound_rhs = 2 * mv.gen_count + 9 * (betti - 1)
    matching = len(maximum_matching(gog.graph))
    return EndsLevelReport(
        level=witness.quotient.order,
        h1_dim=mv.h1_dim,
        gen_count=mv.gen_count,
        fox_h1_dim=fox,
        b1=betti,
        edge_count=edge_count,
        bound_rhs=bound_rhs,
        bound_holds=edge_count <= bound_rhs,
        matching_size=matching,
        matching_le_gen=matching <= mv.gen_count,
        kernel_dim=mv.kernel_dim,
        source_dim=mv.source_dim,
        target_dim=mv.target_dim,
        ends_signature=(mv.kernel_dim, mv.h1_dim),
    )
