"""Modules over F_p[P] for a finite p-group P.

Carries the regular bimodule, action-closed submodules, quotients, and
the local-ring generator count: F_p[P] is local with the augmentation
ideal as maximal ideal, so the minimal number of module generators
equals the dimension of the module modulo the augmentation ideal
(Nakayama).  No subcommand calls this module: ``cohomology`` and
``ends`` read F_p[P] off the multiplication table.  Only ``cohomology``
loads it, for the benchmark's probes (``perfbench/spans.PROBES``); they
and the tests are all that reach it.
The tests' brute-force generating-set search, word-composed actions and
test modules live in ``tests/module_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fpcore import FiniteGroup
from .fplinalg import FpMatrix, Subspace, rank

SIDES = ("left", "right")


class ModuleError(ValueError):
    """Malformed module data."""


def _is_permutation(a: np.ndarray) -> bool:
    """0/1 entries with exactly one 1 in every row and column: an exact
    certificate that the matrix is invertible."""
    return bool((a <= 1).all() and (a.sum(axis=0) == 1).all() and (a.sum(axis=1) == 1).all())


class GModule:
    """Module given by invertible generator action matrices.

    Left actions are multiplicative, ``L(xy) = L(x) L(y)``; right actions
    compose contravariantly, ``R(xy) = R(y) R(x)``.  Either side may be
    absent.  Matrices act on column vectors.
    """

    __slots__ = ("group", "prime", "dim", "left", "right")

    def __init__(self, group: FiniteGroup, dim: int,
                 left: list[FpMatrix] | None = None,
                 right: list[FpMatrix] | None = None):
        self.group = group
        self.prime = group.prime
        self.dim = dim
        for side, acts in (("left", left), ("right", right)):
            if acts is None:
                continue
            if len(acts) != len(group.generators):
                raise ModuleError(f"{side} actions must match generator count")
            for a in acts:
                if a.rows != dim or a.cols != dim or a.prime != self.prime:
                    raise ModuleError(f"{side} action has wrong shape or prime")
                if not _is_permutation(a.data) and rank(a) != dim:
                    raise ModuleError(f"{side} action matrix is singular")
        self.left = left
        self.right = right

    def actions(self, side: str) -> list[FpMatrix]:
        acts = self.left if side == "left" else self.right
        if acts is None:
            raise ModuleError(f"module has no {side} action")
        return acts


def regular_bimodule(P: FiniteGroup) -> GModule:
    """F_p[P] with both translation actions (permutation matrices)."""
    n, p = P.order, P.prime
    z = np.arange(n)
    left, right = [], []
    for g in P.generators:
        lm = np.zeros((n, n), dtype=np.uint8)
        rm = np.zeros((n, n), dtype=np.uint8)
        lm[P.mult[g, :], z] = 1
        rm[P.mult[:, g], z] = 1
        left.append(FpMatrix(lm, p))
        right.append(FpMatrix(rm, p))
    return GModule(P, n, left=left, right=right)


def submodule_generated(module: GModule, side: str, seeds) -> Subspace:
    """Smallest ``side``-action-stable subspace containing the seeds."""
    if side not in SIDES:
        raise ModuleError(f"side must be one of {SIDES}")
    seeds = [np.asarray(s) for s in seeds]
    for s in seeds:
        if s.shape != (module.dim,):
            raise ModuleError("seed has wrong dimension")
    space = Subspace.from_vectors(seeds, module.dim, module.prime)
    acts = module.actions(side)
    while space.dim < module.dim:
        basis = space.basis
        grown = False
        for a in acts:
            image = a.matmul(basis.transpose()).transpose()
            candidates = [row for row in image.data if not space.contains(row)]
            if candidates:
                space = Subspace.from_vectors(
                    list(basis.data) + candidates, module.dim, module.prime
                )
                grown = True
        if not grown:
            break
    return space


def augmentation_submodule(module: GModule, side: str = "right") -> Subspace:
    """M * I_P (or I_P * M): the span of (g-1)-images, action-closed.

    The elements g-1 over a generating set of a p-group generate the
    augmentation ideal as a one-sided ideal, so closing their images
    under the action yields the full product with the ideal.
    """
    seeds = []
    eye = np.eye(module.dim, dtype=np.int64)
    for a in module.actions(side):
        diff = (a.data.astype(np.int64) - eye) % module.prime
        seeds.extend(diff.T.astype(np.uint8))
    return submodule_generated(module, side, seeds)


def min_generators(module: GModule, side: str = "right") -> int:
    """Nakayama count: dim of the module modulo the augmentation ideal."""
    return module.dim - augmentation_submodule(module, side).dim


def quotient_module(module: GModule, side: str, image: Subspace) -> tuple[GModule, "QuotientMap"]:
    """Quotient of the module by an action-stable subspace.

    Coordinates on the quotient are the non-pivot positions of vectors
    reduced against the subspace basis.  Raises if the subspace is not
    stable under the action.
    """
    if image.ambient_dim != module.dim:
        raise ModuleError("subspace ambient mismatch")
    pivot_set = set(image.pivots)
    free = [c for c in range(module.dim) if c not in pivot_set]
    qmap = QuotientMap(image, tuple(free))
    acts_q = []
    for a in module.actions(side):
        for row in image.basis.data:
            if qmap.project(a.mul_vec(row)).any():
                raise ModuleError("subspace is not action-stable")
        cols = [qmap.project(a.data[:, j]) for j in free]
        m = np.stack(cols, axis=1) if cols else np.zeros((0, 0), dtype=np.uint8)
        acts_q.append(FpMatrix(m, module.prime))
    quot = GModule(module.group, len(free), **{side: acts_q})
    return quot, qmap


@dataclass(frozen=True)
class QuotientMap:
    """Projection onto quotient coordinates (non-pivot columns)."""

    image: Subspace
    free_cols: tuple[int, ...]

    def project(self, vec) -> np.ndarray:
        reduced = self.image.reduce(vec)
        return reduced[list(self.free_cols)] if self.free_cols else np.zeros(0, dtype=np.uint8)
