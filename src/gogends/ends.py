"""Finite-quotient-level module of ends for graphs of finite p-groups.

At a witness level P the group algebra F_p[P] is handled through index
arrays: left multiplication by w sends the basis element z to
``P.mult[w, z]`` and right multiplication by g sends it to
``P.mult[z, g]``.  The degree-0 piece H^0(K, F_p[P]) of a vertex or edge
image K is spanned by the indicator vectors of the right cosets Kx, and a
coset space is a label array over the elements of P, its cosets numbered
by their least element.

The tree boundary map F sends a family (x_v) to (x_{d0(e)} - t_e x_{d1(e)})_e
in T = sum_e F_p[K_e\\P], the stable-letter image t_e acting by left
multiplication.  The finite vertex groups have vanishing H^1 on F_p[P],
so the module of ends at level P is the right F_p[P]-module M = T / im F.
With s the source dimension and n = dim T:

    kernel_dim = s - rank F
    h1_dim     = n - rank F
    gen_count  = n - rank [F^T ; e_{cg} - e_c for every coset c of T and generator g of P]

gen_count is Nakayama's count dim M - dim M.I_P, and M.I_P = (T.I_P + im F)/im F.
The vectors e_{cg} - e_c span T.I_P: for x = g y with g a generator,
x - 1 = g(y - 1) + (g - 1), so by induction on word length every
e_c(x - 1) = e_{cg}(y - 1) + (e_{cg} - e_c) lies in their span.

Each side of each edge must be edge-invariant and im F must be stable
under the right action, or ``WellDefinednessViolation`` is raised.  A
Fox-derivative computation straight from the fundamental-group
presentation is an independent oracle for h1_dim; a disagreement raises
rather than reports.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .fplinalg import FpMatrix, rank
from .gog import GogError, GraphOfGroups, Presentation, ProperWitness, b1 as gog_b1
from .gog import presentation, validate
from .graphs import maximum_matching


class WellDefinednessViolation(RuntimeError):
    """An image vector escaped the edge-invariant subspace, or the image of
    the boundary map is not a right submodule (wrong witness or wrong twist)."""


class OracleMismatch(RuntimeError):
    """Mayer-Vietoris h1 dimension disagrees with the Fox oracle."""


def _coset_structure(P, subgroup_elements) -> tuple[np.ndarray, np.ndarray]:
    """Right cosets K\\P of the subgroup: the least element of each coset,
    ascending, and the coset label of every element of P."""
    least = P.mult[np.asarray(subgroup_elements, dtype=np.intp)].min(axis=0)
    reps, labels = np.unique(least, return_inverse=True)
    return reps.astype(np.intp), labels


@dataclass
class MvLevelData:
    witness: ProperWitness
    source_dim: int
    target_dim: int
    map: FpMatrix
    rank: int
    kernel_dim: int
    h1_dim: int
    gen_count: int
    right_perms: np.ndarray  # right_perms[i, c]: the target coset c * P.generators[i]


def mv_h0_map(gog: GraphOfGroups, witness: ProperWitness) -> MvLevelData:
    """Assemble the level-P Mayer-Vietoris H^0 map and read the level
    invariants off its ranks."""
    witness.verify(gog)
    P = witness.quotient
    p = gog.prime
    mult = P.mult.astype(np.intp)

    vertex_labels, col_off, src = {}, {}, 0
    for vid in gog.graph.vertices:
        reps, vertex_labels[vid] = _coset_structure(P, witness.vertex_maps[vid].image)
        col_off[vid], src = src, src + len(reps)

    blocks, tgt = [], 0
    for eid, u, v in gog.graph.edges:
        image = np.asarray(witness.vertex_maps[u].image)[list(gog.inj0[eid].image)]
        reps, labels = _coset_structure(P, image)
        # the source coset of every x in F_p[P]: of x at d0, of t^-1 x at d1
        lab0 = vertex_labels[u]
        lab1 = vertex_labels[v][mult[P.inv(witness.stable_images[eid])]]
        for side, lab in (("d0", lab0), ("d1", lab1)):
            if not (lab[mult[image]] == lab).all():
                raise WellDefinednessViolation(f"edge {eid!r}, {side} block: image vectors are not edge-invariant")
        coset_times_gen = tgt + labels[mult[np.ix_(reps, P.generators)]].T
        blocks.append((tgt + np.arange(len(reps)), col_off[u] + lab0[reps], col_off[v] + lab1[reps], coset_times_gen))
        tgt += len(reps)

    fmap = np.zeros((tgt, src), dtype=np.uint8)
    right_perms = np.zeros((len(P.generators), tgt), dtype=np.intp)
    for rows, d0_cols, d1_cols, perms in blocks:
        fmap[rows, d0_cols] = 1
        fmap[rows, d1_cols] = (fmap[rows, d1_cols] + p - 1) % p
        right_perms[:, rows] = perms

    fmat = FpMatrix(fmap, p)
    r = rank(fmat)
    k = len(right_perms)
    moved = np.zeros((k, tgt, src), dtype=np.uint8)
    moved[np.arange(k)[:, None], right_perms] = fmap  # column f of F becomes f * g
    if rank(FpMatrix(np.hstack([fmap, *moved]), p)) != r:
        raise WellDefinednessViolation("the image of the boundary map is not a right submodule")

    aug = np.zeros((k * tgt, tgt), dtype=np.uint8)  # rows e_{cg} - e_c
    aug[np.arange(k * tgt), right_perms.ravel()] = 1
    aug[np.arange(k * tgt), np.tile(np.arange(tgt), k)] += p - 1
    spanned = rank(FpMatrix(np.vstack([fmap.T, aug % p]), p))

    return MvLevelData(
        witness=witness,
        source_dim=src,
        target_dim=tgt,
        map=fmat,
        rank=r,
        kernel_dim=src - r,
        h1_dim=tgt - r,
        gen_count=tgt - spanned,
        right_perms=right_perms,
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
    mult = P.mult.astype(np.intp)
    z = np.arange(n)

    def symbol_element(sym) -> int:
        kind = pres.kinds[sym]
        if kind[0] == "v":
            _, vid, gi = kind
            grp = gog.vertex_groups[vid]
            return witness.vertex_maps[vid].image[grp.generators[gi]]
        return witness.stable_images[kind[1]]

    col = {sym: i * n for i, sym in enumerate(pres.symbols)}
    total_cols = len(col) * n

    fox = np.zeros((len(pres.relators) * n, total_cols), dtype=np.uint8)
    for ri, word in enumerate(pres.relators):
        prefix = 0
        for sym, exp in word:
            x = symbol_element(sym)
            if exp == 1:
                rows, step = ri * n + mult[prefix], 1
                prefix = int(mult[prefix, x])
            elif exp == -1:
                prefix = int(mult[prefix, P.inv(x)])
                rows, step = ri * n + mult[prefix], p - 1
            else:
                raise GogError("relator letters must have exponent +-1")
            cols = col[sym] + z
            fox[rows, cols] = (fox[rows, cols] + step) % p
    z1_dim = total_cols - rank(FpMatrix(fox, p))

    coboundary = np.zeros((total_cols, n), dtype=np.uint8)
    for sym, off in col.items():
        coboundary[off + mult[symbol_element(sym)], z] = 1
        coboundary[off + z, z] = (coboundary[off + z, z] + p - 1) % p
    return z1_dim - rank(FpMatrix(coboundary, p))


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
    return PropMoreReport(ok=mv.h1_dim > 0, h1_dim=mv.h1_dim, level=witness.quotient.order)
