"""Degree-0 and degree-1 cohomology of finite groups, plus lemma checks.

A module M of dimension d is a permutation module: the left action A_s
of each of K's r generators permutes the basis.  It is given as one
(r, d) index array ``src``, with (A_s v)[z] = v[src_s[z]], so applying
A_s to a vector, or to the rows of a matrix, is a gather.  The lemma
checks read the arrays off the multiplication table: F_p[G] and F_p[K]
are permutation modules, A_s sending the basis element z to s z, so
src_s[y] = s^-1 y (Brown, Cohomology of Groups, III.5).

Cochains are indexed by all group elements: coordinate h*d + i of a
1-cochain f is the i-th entry of f(h).  The cocycle space Z^1 is not cut
out of all n*d cochain coordinates; it is solved over the generator
values x = (f(s_1), ..., f(s_r)) in M^r (Brown, IV.2).  A BFS tree of
the left Cayley graph from the identity sets f(e) = 0 and
f(s h) = A_s f(h) + f(s) along its edges, so f(h) = F_h x
for every h.  Each non-tree edge (s, h) adds the d rows
F_{sh} - A_s F_h - E_s of a constraint matrix C, and Z^1 = {F x : x in
ker C}.  Every cocycle satisfies these equations, so it lies in the
image.  Conversely, for x in ker C the function f = F x satisfies
f(s h) = A_s f(h) + f(s) for every generator s and every h, tree edge or
not.  The elements g with f(g h) = A_g f(h) + f(g) for all h form a
submonoid that contains the generators, and in a finite group that is
all of K.  So f is a cocycle, and x -> F x is injective on ker C because
f(s_i) = x_i.  Hence dim Z^1 = dim ker C = r*d - rank C.  C is, up to
sign, the Fox matrix acting on M of the relators s w(h) w(sh)^-1 of the
non-tree edges, w(x) the word of the tree path to x: the presentation of
K that its left Cayley graph gives.  That is why ``gog`` takes its
vertex groups' Fox rows from C on F_p[G_v].

The coboundary d0 sends m to (g -> A_g m - m).  Its kernel is M^K, the
joint kernel of the stacked blocks D = (A_s - I) over the generators,
so dim B^1 = rank d0 = d - dim M^K = rank D.  ``h0`` returns dim M^K
from that one rank, and ``h1`` takes it and returns (r*d - rank C) -
(d - dim M^K): one elimination with r*d columns beyond the one in
``h0``.  The lemma checks compare dimensions only; the norm formula is
checked by the invariance of the coset labels and a coset count.  The
full d0 and d1 over all elements and pairs, the reference for both
ranks and for d1 . d0 = 0, live in ``tests/module_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import gmodules  # noqa: F401  (goes with the gmodules probes, see the package docstring)
from .fpcore import FiniteGroup, all_subgroups, right_cosets, subgroup_as_group
from .fplinalg import FpMatrix, rank, rank_profile  # noqa: F401  (rank_profile: the benchmark's self-test wraps it here)


def _invariant_constraints(src: np.ndarray, p: int) -> FpMatrix:
    """D: the blocks A_s - I stacked over the generators; ker D = M^K.
    Row z of A_s is the unit vector at src_s[z], so row z of its block
    is 0 where src_s[z] = z, and otherwise 1 at src_s[z] and p - 1 at z."""
    r, d = src.shape
    z = np.arange(d)
    moved = src != z
    out = np.zeros((r, d, d), dtype=np.uint8)
    out[:, z, z] = (p - 1) * moved
    out[np.arange(r)[:, None], z, src] = moved
    return FpMatrix(out.reshape(r * d, d), p)


# int16 cells of one block of non-tree edge equations in
# ``_cocycle_constraints``: each of its three temporaries is at most 1 MB
_BLOCK_CELLS = 1 << 19


def _cocycle_constraints(K: FiniteGroup, src: np.ndarray, p: int) -> FpMatrix:
    """C: the non-tree edge equations on the generator values, as the
    module docstring describes; ``values[h]`` is F_h, and A_s F_h is the
    row gather F_h[src_s].  An entry of F_h counts tree edges, so it is
    below the order of K and int16 holds it.  The equations are formed a
    block of edges at a time and reduced mod p into the uint8 result, so
    the int16 temporaries stay a block in size whatever the size of C."""
    n, (r, d) = K.order, src.shape
    unit = np.eye(r * d, dtype=np.int16).reshape(r, d, r * d)  # unit[i] = E_i
    values = np.zeros((n, d, r * d), dtype=np.int16)
    tree = np.zeros((r, n), dtype=bool)  # tree[i, h]: edge (s_i, h) is in the tree
    rows = K.rows()
    seen = [False] * n
    seen[0] = True
    queue = [0]
    for h in queue:
        for i, s in enumerate(K.generators):
            sh = rows[s][h]
            if not seen[sh]:
                seen[sh] = tree[i, h] = True
                np.add(values[h][src[i]], unit[i], out=values[sh])
                queue.append(sh)
    gen, off = np.nonzero(~tree)  # the non-tree edges (s_gen, off)
    target = K.mult[np.asarray(K.generators)[gen], off]
    out = np.empty((len(gen), d, r * d), dtype=np.uint8)
    step = max(1, _BLOCK_CELLS // (d * r * d))
    for lo in range(0, len(gen), step):
        edges = slice(lo, lo + step)
        block = values[target[edges]]
        block -= values[off[edges, None], src[gen[edges]]]
        block -= unit[gen[edges]]
        np.remainder(block, p, out=out[edges], casting="unsafe")
    return FpMatrix(out.reshape(-1, r * d), p)


def h0(src: np.ndarray, p: int) -> int:
    """dim M^K = d - rank D for the generator actions given as an (r, d)
    index array ``src``: generator i sends v to the vector with entries
    (A v)[z] = v[src[i, z]].  With no generators D is empty, of rank 0."""
    return src.shape[1] - rank(_invariant_constraints(src, p))


def h1(K: FiniteGroup, src: np.ndarray, fixed: int) -> int:
    """dim H^1 = dim Z^1 - dim B^1 = (r*d - rank C) - rank D, for the
    generator actions ``src`` as in ``h0``; ``fixed`` is
    ``h0(src, K.prime)`` = dim M^K, and rank D = d - dim M^K."""
    r, d = src.shape
    if not r:  # K is trivial: f(e) = 0, so Z^1 = 0
        return 0
    return r * d - rank(_cocycle_constraints(K, src, K.prime)) - (d - fixed)


def _left_translations(G: FiniteGroup, xs) -> np.ndarray:
    """Left multiplication by each x in ``xs`` on F_p[G] as index arrays:
    it sends the basis element z to x z, so (A v)[y] = v[x^-1 y]."""
    return G.mult[np.array([G.inv(x) for x in xs], dtype=np.intp)]


@dataclass(frozen=True)
class LemmaReport:
    name: str
    ok: bool
    details: dict

    def to_json(self) -> dict:
        return {"check": self.name, "ok": self.ok, "details": self.details}


def lemma_reports(G: FiniteGroup) -> Iterator[LemmaReport]:
    """The lemma checks on G, in report order.

    First H^1(G, F_p[G]) = 0.  Then for each subgroup K: the left
    K-invariants of F_p[G] equal N_K * F_p[G], of dimension |K\\G|; and
    Shapiro, dim H^k(K, F_p[G]) = dim H^k(K, F_p[K]) * |K\\G| for k = 0, 1.
    The actions of K on F_p[G] and on F_p[K] are read off the tables once
    per K.  N_K * g is the indicator vector of the right coset Kg, so
    N_K * F_p[G] is spanned by those vectors (Brown, *Cohomology of
    Groups*, III.5).  They have disjoint supports, so they span M^K when
    K's generators fix the coset labels and dim M^K is their number.
    """
    on_g = _left_translations(G, G.generators)
    dim = h1(G, on_g, h0(on_g, G.prime))
    yield LemmaReport("h1_regular_vanishes", dim == 0, {"group": G.name, "order": G.order, "h1_dim": dim})
    for K in all_subgroups(G):
        k_group, incl = subgroup_as_group(K)
        on_g = _left_translations(G, [incl.image[s] for s in k_group.generators])
        on_k = _left_translations(k_group, k_group.generators)
        index = G.order // K.order
        fixed, fixed_k = h0(on_g, G.prime), h0(on_k, G.prime)
        reps, labels = right_cosets(G, K.elements)
        yield LemmaReport(
            "h0_norm_formula",
            bool((labels[on_g] == labels).all()) and fixed == len(reps) == index,
            {
                "group": G.name,
                "subgroup_order": K.order,
                "fixed_dim": fixed,
                "norm_submodule_dim": len(reps),
                "coset_count": index,
            },
        )
        for degree, big, small in (
            (0, fixed, fixed_k),
            (1, h1(k_group, on_g, fixed), h1(k_group, on_k, fixed_k)),
        ):
            yield LemmaReport(
                "shapiro_dims",
                big == small * index,
                {
                    "group": G.name,
                    "subgroup_order": K.order,
                    "degree": degree,
                    "big_dim": big,
                    "small_dim": small,
                    "coset_count": index,
                },
            )
