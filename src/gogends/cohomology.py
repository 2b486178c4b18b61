"""Degree-0 and degree-1 cohomology of finite groups, plus lemma checks.

A module M of dimension d is given by the left actions A_s of K's
generators, one int64 array of shape (r, d, d).  The lemma checks read
them off the multiplication table: F_p[G] and F_p[K] are permutation
modules, A_s sending the basis element z to s z.

Cochains are indexed by all group elements: coordinate h*d + i of a
1-cochain f is the i-th entry of f(h).  The cocycle space Z^1 is not cut
out of all n*d cochain coordinates; it is solved over the generator
values x = (f(s_1), ..., f(s_r)) in M^r (Brown, Cohomology of Groups,
IV.2).  A BFS tree of the left Cayley graph from the identity sets
f(e) = 0 and f(s h) = A_s f(h) + f(s) along its edges, so f(h) = F_h x
for every h.  Each non-tree edge (s, h) adds the d rows
F_{sh} - A_s F_h - E_s of a constraint matrix C, and Z^1 = {F x : x in
ker C}.  Every cocycle satisfies these equations, so it lies in the
image.  Conversely, for x in ker C the function f = F x satisfies
f(s h) = A_s f(h) + f(s) for every generator s and every h, tree edge or
not.  The elements g with f(g h) = A_g f(h) + f(g) for all h form a
submonoid that contains the generators, and in a finite group that is
all of K.  So f is a cocycle, and x -> F x is injective on ker C because
f(s_i) = x_i.  Hence dim Z^1 = dim ker C = r*d - rank C.

The coboundary d0 sends m to (g -> A_g m - m).  Its kernel is M^K, the
joint kernel of the stacked blocks D = (A_s - I) over the generators,
so dim B^1 = rank d0 = d - dim M^K = rank D.  ``h0`` returns ker D as a
subspace, and ``h1`` returns (r*d - rank C) - rank D: two eliminations
with r*d and d columns.  The full d0 and d1 over all elements and pairs,
the reference for both ranks and for d1 . d0 = 0, live in
``tests/module_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .fpcore import FiniteGroup, all_subgroups, right_cosets, subgroup_as_group
from .fplinalg import FpMatrix, Subspace, rank, rank_profile


def _invariant_constraints(acts: np.ndarray, p: int) -> FpMatrix:
    """D: the blocks A_s - I stacked over the generators; ker D = M^K."""
    d = acts.shape[1]
    return FpMatrix(((acts - np.eye(d, dtype=np.int64)) % p).reshape(-1, d), p)


def _cocycle_constraints(K: FiniteGroup, acts: np.ndarray, p: int) -> FpMatrix:
    """C: the non-tree edge equations on the generator values, as the
    module docstring describes; ``values[h]`` is F_h."""
    n, (r, d, _) = K.order, acts.shape
    unit = np.eye(r * d, dtype=np.int64).reshape(r, d, r * d)  # unit[i] = E_i
    values = np.zeros((n, d, r * d), dtype=np.int64)
    tree = np.zeros((r, n), dtype=bool)  # tree[i, h]: edge (s_i, h) is in the tree
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    queue = [0]
    for h in queue:
        for i, s in enumerate(K.generators):
            sh = int(K.mult[s, h])
            if not seen[sh]:
                seen[sh] = tree[i, h] = True
                values[sh] = (acts[i] @ values[h] + unit[i]) % p
                queue.append(sh)
    rows = []
    for i, s in enumerate(K.generators):
        off = ~tree[i]
        lhs = values[K.mult[s][off]]
        rows.append((lhs - acts[i] @ values[off] - unit[i]).reshape(-1, r * d))
    return FpMatrix(np.concatenate(rows) % p, p)


def h0(K: FiniteGroup, acts: np.ndarray) -> Subspace:
    """Invariants: joint fixed space of the generator actions ``acts``,
    an int64 array of shape (r, d, d) with ``acts[i]`` the left action of
    ``K.generators[i]``."""
    r, d, _ = acts.shape
    if not r:  # the identity matrix is already a canonical basis
        return Subspace(K.prime, d, FpMatrix.identity(d, K.prime), tuple(range(d)))
    return rank_profile(_invariant_constraints(acts, K.prime)).nullspace


def h1(K: FiniteGroup, acts: np.ndarray) -> int:
    """dim H^1 = dim Z^1 - dim B^1 = (r*d - rank C) - rank D, for the
    generator actions ``acts`` as in ``h0``."""
    r, d, _ = acts.shape
    if not r:  # K is trivial: f(e) = 0, so Z^1 = 0
        return 0
    free = r * d - rank(_cocycle_constraints(K, acts, K.prime))
    return free - rank(_invariant_constraints(acts, K.prime))


def _left_translations(G: FiniteGroup, xs) -> np.ndarray:
    """Left multiplication by each x in ``xs`` on F_p[G], read off the
    table: ``a[i]`` sends the basis element z to xs[i] * z."""
    xs = np.asarray(xs, dtype=np.intp)
    a = np.zeros((len(xs), G.order, G.order), dtype=np.int64)
    a[np.arange(len(xs))[:, None], G.mult[xs], np.arange(G.order)] = 1
    return a


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
    Groups*, III.5).
    """
    dim = h1(G, _left_translations(G, G.generators))
    yield LemmaReport("h1_regular_vanishes", dim == 0, {"group": G.name, "order": G.order, "h1_dim": dim})
    for K in all_subgroups(G):
        k_group, incl = subgroup_as_group(K)
        on_g = _left_translations(G, [incl.image[s] for s in k_group.generators])
        on_k = _left_translations(k_group, k_group.generators)
        index = G.order // K.order
        fixed = h0(k_group, on_g)
        reps, labels = right_cosets(G, K.elements)
        cosets = (labels == np.arange(len(reps))[:, None]).astype(np.uint8)
        norm_span = Subspace.from_vectors(cosets, G.order, G.prime)
        yield LemmaReport(
            "h0_norm_formula",
            fixed == norm_span and fixed.dim == index,
            {
                "group": G.name,
                "subgroup_order": K.order,
                "fixed_dim": fixed.dim,
                "norm_submodule_dim": norm_span.dim,
                "coset_count": index,
            },
        )
        for degree, big, small in (
            (0, fixed.dim, h0(k_group, on_k).dim),
            (1, h1(k_group, on_g), h1(k_group, on_k)),
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
