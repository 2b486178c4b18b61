"""Finite-quotient-level module of ends for graphs of finite p-groups.

At a witness level P, the degree-0 piece H^0(G_x, F_p[P]) of each vertex
or edge group is the span of coset indicator vectors of the image
subgroup, and the tree boundary map sends a family (x_v) to
(x_{d0(e)} - t_e * x_{d1(e)})_e, the stable-letter image acting by left
multiplication.  Its cokernel carries the right F_p[P]-module structure
and computes H^1(G, F_p[P]) because the finite vertex groups have
vanishing H^1 on F_p[P].  A Fox-derivative computation straight from the
fundamental-group presentation provides a fully independent oracle for
the same dimension; the two routes must agree, and a disagreement raises
rather than reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fplinalg import FpMatrix, Subspace, rank, rank_profile
from .gmodules import GModule, QuotientMap, min_generators, quotient_module
from .gog import GogError, GraphOfGroups, Presentation, ProperWitness, b1 as gog_b1
from .gog import presentation, validate
from .graphs import maximum_matching


class WellDefinednessViolation(RuntimeError):
    """An image vector escaped the edge-invariant subspace (wrong witness
    or wrong twist)."""


class OracleMismatch(RuntimeError):
    """Mayer-Vietoris cokernel dimension disagrees with the Fox oracle."""


def _coset_structure(P, subgroup_elements):
    """Right cosets K\\P of the subgroup: transversal reps (first element
    of each coset) and the coset index of every element."""
    coset_of = [-1] * P.order
    reps = []
    for x in P.elements():
        if coset_of[x] == -1:
            idx = len(reps)
            reps.append(x)
            for k in subgroup_elements:
                coset_of[int(P.mult[k, x])] = idx
    return reps, coset_of


@dataclass
class MvLevelData:
    witness: ProperWitness
    source_dim: int
    target_dim: int
    map: FpMatrix
    rank: int
    kernel_dim: int
    coker: GModule
    coker_map: QuotientMap
    vertex_offsets: dict
    edge_offsets: dict


def mv_h0_map(gog: GraphOfGroups, witness: ProperWitness) -> MvLevelData:
    """Assemble the level-P Mayer-Vietoris H^0 map and its cokernel."""
    witness.verify(gog)
    P = witness.quotient
    p = gog.prime
    n = P.order

    vertex_cosets = {}
    vertex_offsets = {}
    src = 0
    for vid in gog.graph.vertices:
        image = sorted(set(witness.vertex_maps[vid].image))
        reps, coset_of = _coset_structure(P, image)
        vertex_cosets[vid] = (image, reps, coset_of)
        vertex_offsets[vid] = src
        src += len(reps)

    edge_cosets = {}
    edge_offsets = {}
    tgt = 0
    for eid, u, _ in gog.graph.edges:
        ge = gog.edge_groups[eid]
        pu = witness.vertex_maps[u]
        image = sorted({pu.image[gog.inj0[eid].image[g]] for g in ge.elements()})
        reps, coset_of = _coset_structure(P, image)
        edge_cosets[eid] = (image, reps, coset_of)
        edge_offsets[eid] = tgt
        tgt += len(reps)

    mat = np.zeros((tgt, src), dtype=np.int64)
    for eid, u, v in gog.graph.edges:
        _, e_reps, e_cos = edge_cosets[eid]
        off = edge_offsets[eid]
        t = witness.stable_images[eid]
        t_inv = P.inv(t)
        _, _, u_cos = vertex_cosets[u]
        for r, x in enumerate(e_reps):
            mat[off + r, vertex_offsets[u] + u_cos[x]] += 1
        _, _, v_cos = vertex_cosets[v]
        for r, x in enumerate(e_reps):
            j = v_cos[int(P.mult[t_inv, x])]
            mat[off + r, vertex_offsets[v] + j] -= 1

    fmat = FpMatrix(mat % p, p)
    _assert_edge_invariance(gog, witness, vertex_cosets, edge_cosets, vertex_offsets, src)

    profile = rank_profile(fmat)
    kernel_dim = src - profile.rank

    right_actions = []
    for g in P.generators:
        act = np.zeros((tgt, tgt), dtype=np.uint8)
        for eid, _, _ in gog.graph.edges:
            _, reps, coset_of = edge_cosets[eid]
            off = edge_offsets[eid]
            for r, x in enumerate(reps):
                act[off + coset_of[int(P.mult[x, g])], off + r] = 1
        right_actions.append(FpMatrix(act, p))
    target_module = GModule(P, tgt, right=right_actions)
    image_space = Subspace.from_vectors(fmat.transpose().data, tgt, p)
    coker, qmap = quotient_module(target_module, "right", image_space)

    return MvLevelData(
        witness=witness,
        source_dim=src,
        target_dim=tgt,
        map=fmat,
        rank=profile.rank,
        kernel_dim=kernel_dim,
        coker=coker,
        coker_map=qmap,
        vertex_offsets=vertex_offsets,
        edge_offsets=edge_offsets,
    )


def _assert_edge_invariance(gog, witness, vertex_cosets, edge_cosets, vertex_offsets, src):
    """Every mapped source basis vector, viewed inside F_p[P], must be
    constant on the right cosets of the edge-group image."""
    P = witness.quotient
    for eid, u, v in gog.graph.edges:
        image, _, e_cos = edge_cosets[eid]
        t = witness.stable_images[eid]
        for side, vid in (("d0", u), ("d1", v)):
            _, v_reps, v_cos = vertex_cosets[vid]
            for j in range(len(v_reps)):
                vec = np.zeros(P.order, dtype=np.int64)
                for x in P.elements():
                    if side == "d0":
                        if v_cos[x] == j:
                            vec[x] = 1
                    else:
                        if v_cos[int(P.mult[P.inv(t), x])] == j:
                            vec[x] = 1
                for x in P.elements():
                    for k in image:
                        if vec[int(P.mult[k, x])] != vec[x]:
                            raise WellDefinednessViolation(
                                f"edge {eid!r}, {side} block, column {j}: image vector "
                                "is not edge-invariant"
                            )


def h1_via_fox(pres: Presentation, gog: GraphOfGroups, witness: ProperWitness) -> int:
    """dim H^1(G, F_p[P]) from the presentation by Fox calculus.

    Cocycles are the joint kernel of the Fox-derivative blocks of the
    relators (prefix elements acting by left multiplication on F_p[P]);
    coboundaries are the image of m -> ((g - 1) m)_g over the
    presentation generators.
    """
    P = witness.quotient
    p = gog.prime
    n = P.order

    def symbol_element(sym) -> int:
        kind = pres.kinds[sym]
        if kind[0] == "v":
            _, vid, gi = kind
            grp = gog.vertex_groups[vid]
            return witness.vertex_maps[vid].image[grp.generators[gi]]
        return witness.stable_images[kind[1]]

    def left_perm_matrix(w: int) -> np.ndarray:
        m = np.zeros((n, n), dtype=np.int64)
        for z in P.elements():
            m[int(P.mult[w, z]), z] = 1
        return m

    symbols = list(pres.symbols)
    col = {sym: i * n for i, sym in enumerate(symbols)}
    total_cols = len(symbols) * n

    row_blocks = []
    for word in pres.relators:
        block = np.zeros((n, total_cols), dtype=np.int64)
        prefix = 0
        for sym, exp in word:
            x = symbol_element(sym)
            if exp == 1:
                block[:, col[sym] : col[sym] + n] += left_perm_matrix(prefix)
                prefix = int(P.mult[prefix, x])
            elif exp == -1:
                prefix = int(P.mult[prefix, P.inv(x)])
                block[:, col[sym] : col[sym] + n] -= left_perm_matrix(prefix)
            else:
                raise GogError("relator letters must have exponent +-1")
        row_blocks.append(block)

    if row_blocks:
        fox = FpMatrix(np.concatenate(row_blocks, axis=0) % p, p)
        z1_dim = total_cols - rank(fox)
    else:
        z1_dim = total_cols

    eye = np.eye(n, dtype=np.int64)
    bblocks = [(left_perm_matrix(symbol_element(sym)) - eye) % p for sym in symbols]
    if bblocks:
        b1_rank = rank(FpMatrix(np.concatenate(bblocks, axis=0), p))
    else:
        b1_rank = 0
    return z1_dim - b1_rank


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
        return {
            "level": self.level,
            "h1_dim": self.h1_dim,
            "gen_count": self.gen_count,
            "fox_h1_dim": self.fox_h1_dim,
            "b1": self.b1,
            "edge_count": self.edge_count,
            "bound_rhs": self.bound_rhs,
            "bound_holds": self.bound_holds,
            "matching_size": self.matching_size,
            "matching_le_gen": self.matching_le_gen,
            "kernel_dim": self.kernel_dim,
            "source_dim": self.source_dim,
            "target_dim": self.target_dim,
            "ends_signature": list(self.ends_signature),
        }


def ends_level(gog: GraphOfGroups, witness: ProperWitness) -> EndsLevelReport:
    """Full level report: MV cokernel, Nakayama generator count, Fox
    cross-check, and the edge-count bound 2*gen_count + 9*(b1 - 1)."""
    mv = mv_h0_map(gog, witness)
    h1_dim = mv.coker.dim
    gen_count = min_generators(mv.coker, "right")
    pres = presentation(gog)
    fox = h1_via_fox(pres, gog, witness)
    if fox != h1_dim:
        raise OracleMismatch(
            f"MV cokernel dim {h1_dim} != Fox H^1 dim {fox} at level {witness.quotient.order}"
        )
    betti = gog_b1(gog)
    edge_count = len(gog.graph.edges)
    bound_rhs = 2 * gen_count + 9 * (betti - 1)
    matching = len(maximum_matching(gog.graph))
    return EndsLevelReport(
        level=witness.quotient.order,
        h1_dim=h1_dim,
        gen_count=gen_count,
        fox_h1_dim=fox,
        b1=betti,
        edge_count=edge_count,
        bound_rhs=bound_rhs,
        bound_holds=edge_count <= bound_rhs,
        matching_size=matching,
        matching_le_gen=matching <= gen_count,
        kernel_dim=mv.kernel_dim,
        source_dim=mv.source_dim,
        target_dim=mv.target_dim,
        ends_signature=(mv.kernel_dim, h1_dim),
    )


@dataclass(frozen=True)
class PropMoreReport:
    ok: bool
    h1_dim: int
    level: int

    def to_json(self) -> dict:
        return {"check": "h1_nonvanishing", "ok": self.ok, "h1_dim": self.h1_dim, "level": self.level}


def prop_more_check(gog: GraphOfGroups, witness: ProperWitness) -> PropMoreReport:
    """Nonvanishing of the level-P module of ends for a reduced splitting
    with at least one edge."""
    report = validate(gog)
    if not report.reduced:
        raise GogError("graph of groups must be reduced")
    if not gog.graph.edges:
        raise GogError("need at least one edge")
    mv = mv_h0_map(gog, witness)
    return PropMoreReport(ok=mv.coker.dim > 0, h1_dim=mv.coker.dim, level=witness.quotient.order)
