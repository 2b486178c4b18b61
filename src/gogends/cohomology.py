"""Degree-0 and degree-1 cohomology of finite groups, plus lemma checks.

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
f(s_i) = x_i.  The eliminated system has r*d columns instead of n*d.
The full d1 over all pairs (g, h), the reference for Z^1 and for the
d1 . d0 = 0 invariant, lives in ``tests/module_reference.py``.

The lemma checks read dimensions only: ``h0`` returns the fixed
subspace, and ``h1`` returns dim Z^1 - dim B^1 with no representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fpcore import FiniteGroup, GroupHom, Subgroup, subgroup_as_group
from .fplinalg import FpMatrix, Subspace, rank, rank_profile
from .gmodules import GModule, norm_element, regular_bimodule, submodule_generated


class ActionError(ValueError):
    """The acting group does not match the module (directly or via a hom)."""


def _left_matrices(K: FiniteGroup, module: GModule, hom: Optional[GroupHom]):
    """Per-element left action of K on the module, possibly through a hom."""
    if hom is None:
        if K != module.group:
            raise ActionError("module group differs; supply a homomorphism")
        return lambda x: module.left_action_of(x)
    if hom.source != K or hom.target != module.group:
        raise ActionError("homomorphism endpoints do not match")
    return lambda x: module.left_action_of(hom.image[x])


@dataclass
class CochainComplexSlice:
    """d0: M -> Map(K, M) and the cocycle space Z^1."""

    group: FiniteGroup
    module: GModule
    hom: Optional[GroupHom]
    d0: FpMatrix = field(init=False)

    def __post_init__(self):
        K, M = self.group, self.module
        act = _left_matrices(K, M, self.hom)
        n, d, p = K.order, M.dim, M.prime
        eye = np.eye(d, dtype=np.int64)

        d0 = np.zeros((n * d, d), dtype=np.int64)
        for g in K.elements():
            d0[g * d : (g + 1) * d] = act(g).data.astype(np.int64) - eye
        self.d0 = FpMatrix(d0 % p, p)

    def cocycles(self) -> Subspace:
        """Z^1 in canonical form, solved over the generator values x as
        the module docstring describes; ``values[h]`` is F_h."""
        K, M = self.group, self.module
        act = _left_matrices(K, M, self.hom)
        n, d, p = K.order, M.dim, M.prime
        r = len(K.generators)
        if r == 0:  # K is trivial and f(e) = 0
            return Subspace.zero(n * d, p)
        acts = [act(s).data.astype(np.int64) for s in K.generators]
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
        constraints = FpMatrix(np.concatenate(rows) % p, p)
        kernel = rank_profile(constraints).nullspace.basis.data.astype(np.int64)
        cocycles = values.reshape(n * d, r * d) @ kernel.T
        return Subspace.from_vectors(cocycles.T % p, n * d, p)


def h0(K: FiniteGroup, module: GModule, hom: Optional[GroupHom] = None) -> Subspace:
    """Invariants: joint fixed space of the generator actions."""
    act = _left_matrices(K, module, hom)
    d, p = module.dim, module.prime
    if not K.generators:  # the identity matrix is already a canonical basis
        return Subspace(p, d, FpMatrix.identity(d, p), tuple(range(d)))
    eye = np.eye(d, dtype=np.int64)
    blocks = [(act(g).data.astype(np.int64) - eye) % p for g in K.generators]
    return rank_profile(FpMatrix(np.concatenate(blocks, axis=0), p)).nullspace


def h1(K: FiniteGroup, module: GModule, hom: Optional[GroupHom] = None) -> int:
    """dim H^1: crossed homomorphisms modulo principal ones."""
    slice_ = CochainComplexSlice(K, module, hom)
    return slice_.cocycles().dim - rank(slice_.d0)


@dataclass(frozen=True)
class LemmaReport:
    name: str
    ok: bool
    details: dict

    def to_json(self) -> dict:
        return {"check": self.name, "ok": self.ok, "details": self.details}


def check_h1_regular_vanishes(G: FiniteGroup) -> LemmaReport:
    """H^1 of a finite p-group on its own group algebra is zero."""
    dim = h1(G, regular_bimodule(G))
    return LemmaReport(
        "h1_regular_vanishes", dim == 0, {"group": G.name, "order": G.order, "h1_dim": dim}
    )


def check_h0_norm_formula(K: Subgroup, G: FiniteGroup) -> LemmaReport:
    """Left K-invariants of F_p[G] equal N_K * F_p[G], of dimension |K\\G|."""
    reg = regular_bimodule(G)
    k_group, incl = subgroup_as_group(K)
    fixed = h0(k_group, reg, incl)
    norm_span = submodule_generated(reg, "right", [norm_element(K, G).vector])
    index = G.order // K.order
    ok = fixed == norm_span and fixed.dim == index
    return LemmaReport(
        "h0_norm_formula",
        ok,
        {
            "group": G.name,
            "subgroup_order": K.order,
            "fixed_dim": fixed.dim,
            "norm_submodule_dim": norm_span.dim,
            "coset_count": index,
        },
    )


def check_shapiro_dims(K: Subgroup, G: FiniteGroup, degree: int) -> LemmaReport:
    """dim H^k(K, F_p[G]) = dim H^k(K, F_p[K]) * |K\\G| for k in {0, 1}."""
    if degree not in (0, 1):
        raise ValueError("only degrees 0 and 1 are built")
    fn = h1 if degree == 1 else lambda *args: h0(*args).dim
    k_group, incl = subgroup_as_group(K)
    lhs = fn(k_group, regular_bimodule(G), incl)
    inner = fn(k_group, regular_bimodule(k_group))
    index = G.order // K.order
    ok = lhs == inner * index
    return LemmaReport(
        "shapiro_dims",
        ok,
        {
            "group": G.name,
            "subgroup_order": K.order,
            "degree": degree,
            "big_dim": lhs,
            "small_dim": inner,
            "coset_count": index,
        },
    )
