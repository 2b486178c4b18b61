"""Test modules and brute-force module checks: the references for
``gmodules`` and ``cohomology``.

``trivial_module`` and ``direct_sum`` build test inputs beyond the
regular bimodule.  ``min_generators_bruteforce`` tries every generating
set of each size, the oracle for the Nakayama count
``gmodules.min_generators`` on the small modules of
``nakayama_modules``.  ``left_action_of`` and ``right_action_of``
multiply out the action of an element along its normal form word, and
``check_action_consistency`` checks the generator matrices of both
sides against the whole multiplication table.  ``permutation_sources``
turns a permutation matrix A into the index array src with
(A v)[z] = v[src[z]], and ``generator_actions`` stacks those of the
word-composed left actions of K's generators, through a hom when given,
into the (r, d) array that ``cohomology.h0`` and ``h1`` take;
``cohomology._left_translations`` reads the same arrays off the table.
``d0_full`` and ``d1_full`` are the coboundary maps d0 over all elements
and d1 over all pairs (g, h): dim ker d1 - rank d0 is the dim H^1 that
``cohomology.h1`` computes from the generator values.
"""

import itertools

import numpy as np

from gogends.fpcore import cyclic, dihedral8, elementary_abelian
from gogends.fplinalg import FpMatrix
from gogends.gmodules import (
    SIDES,
    GModule,
    ModuleError,
    quotient_module,
    regular_bimodule,
    submodule_generated,
)


def trivial_module(P, dim=1):
    eye = [FpMatrix.identity(dim, P.prime) for _ in P.generators]
    return GModule(P, dim, left=list(eye), right=list(eye))


def direct_sum(a, b):
    if a.group != b.group:
        raise ModuleError("summands must share the group")

    def block(xs, ys):
        if xs is None or ys is None:
            return None
        out = []
        for x, y in zip(xs, ys):
            m = np.zeros((a.dim + b.dim, a.dim + b.dim), dtype=np.uint8)
            m[: a.dim, : a.dim] = x.data
            m[a.dim :, a.dim :] = y.data
            out.append(FpMatrix(m, a.prime))
        return out

    return GModule(a.group, a.dim + b.dim, left=block(a.left, b.left), right=block(a.right, b.right))


def min_generators_bruteforce(module, side="right", max_size=4):
    """Smallest generating-set size found by exhaustive search."""
    total = module.prime**module.dim
    if total > 4096:
        raise ModuleError("module too large for brute force")
    if module.dim == 0:
        return 0
    vectors = []
    for code in range(1, total):
        v = np.zeros(module.dim, dtype=np.uint8)
        c = code
        for i in range(module.dim):
            v[i] = c % module.prime
            c //= module.prime
        vectors.append(v)
    for k in range(1, max_size + 1):
        for combo in itertools.combinations(range(len(vectors)), k):
            seeds = [vectors[i] for i in combo]
            if submodule_generated(module, side, seeds).dim == module.dim:
                return k
    raise ModuleError(f"no generating set of size <= {max_size} found")


def nakayama_modules():
    """Right modules of dimension <= 6 over groups of order <= 8."""
    c2, c4, c3 = cyclic(2, 1), cyclic(2, 2), cyclic(3, 1)
    r2, r3, reg4 = regular_bimodule(c2), regular_bimodule(c3), regular_bimodule(c4)
    # F_2[C4] modulo its norm ideal: cyclic of dimension 3
    norm_span = submodule_generated(reg4, "right", [np.ones(4, dtype=np.uint8)])
    return [
        r2,
        direct_sum(r2, r2),
        direct_sum(direct_sum(r2, r2), r2),
        reg4,
        regular_bimodule(elementary_abelian(2, 2)),
        r3,
        direct_sum(r3, r3),
        trivial_module(c2, 1),
        trivial_module(dihedral8(), 2),
        direct_sum(r2, trivial_module(c2, 1)),
        quotient_module(reg4, "right", norm_span)[0],
    ]


def left_action_of(module, x):
    """L(x) = L(s_1) ... L(s_k) for the normal form word s_1 ... s_k of x."""
    acts = module.actions("left")
    m = FpMatrix.identity(module.dim, module.prime)
    for gi in module.group.words[x]:
        m = m.matmul(acts[gi])
    return m


def permutation_sources(matrix):
    """The index array src with (A v)[z] = v[src[z]] for the permutation
    matrix A; raises if A is not one."""
    a = np.asarray(matrix.data)
    src = a.argmax(axis=1)
    if not np.array_equal(a, np.eye(len(a), dtype=a.dtype)[src]) or len(set(src.tolist())) != len(src):
        raise ModuleError("action is not a permutation matrix")
    return src


def generator_actions(K, module, hom=None):
    """The left actions of K's generators on the module, through ``hom``
    into the module's group when given, as one (r, d) index array of
    ``permutation_sources``."""
    images = K.generators if hom is None else [hom.image[s] for s in K.generators]
    srcs = [permutation_sources(left_action_of(module, x)) for x in images]
    return np.array(srcs, dtype=np.intp).reshape(len(images), module.dim)


def right_action_of(module, x):
    """R(x) = R(s_k) ... R(s_1) for the normal form word s_1 ... s_k of x."""
    acts = module.actions("right")
    m = FpMatrix.identity(module.dim, module.prime)
    for gi in module.group.words[x]:
        m = acts[gi].matmul(m)
    return m


def check_action_consistency(module):
    """Verify the generator matrices respect the whole multiplication
    table, and that two-sided actions commute."""
    G = module.group
    for side in SIDES:
        if (module.left if side == "left" else module.right) is None:
            continue
        for gi, g in enumerate(G.generators):
            for x in G.elements():
                gx = int(G.mult[g, x])
                if side == "left":
                    got, want = module.left[gi].matmul(left_action_of(module, x)), left_action_of(module, gx)
                else:
                    got, want = right_action_of(module, x).matmul(module.right[gi]), right_action_of(module, gx)
                if got != want:
                    raise ModuleError(f"{side} action violates the table at ({g},{x})")
    if module.left is not None and module.right is not None:
        for a in module.left:
            for b in module.right:
                if a.matmul(b) != b.matmul(a):
                    raise ModuleError("left and right actions do not commute")


def _element_actions(K, M, hom):
    """A_g for every element g of K, through ``hom`` when given."""
    return [left_action_of(M, g if hom is None else hom.image[g]).data.astype(np.int64) for g in K.elements()]


def d0_full(K, M, hom=None):
    """d0: m -> (g -> A_g m - m) over all elements g of K."""
    eye = np.eye(M.dim, dtype=np.int64)
    return FpMatrix(np.concatenate([a - eye for a in _element_actions(K, M, hom)]) % M.prime, M.prime)


def d1_full(K, M, hom=None):
    """d1 over all pairs (g, h): f -> ((g, h) -> A_g f(h) - f(gh) + f(g))."""
    n, d, p = K.order, M.dim, M.prime
    eye = np.eye(d, dtype=np.int64)
    out = np.zeros((n * n * d, n * d), dtype=np.int64)
    for g, a_g in zip(K.elements(), _element_actions(K, M, hom)):
        for h in K.elements():
            r = (g * n + h) * d
            gh = int(K.mult[g, h])
            out[r : r + d, h * d : (h + 1) * d] += a_g
            out[r : r + d, gh * d : (gh + 1) * d] -= eye
            out[r : r + d, g * d : (g + 1) * d] += eye
    return FpMatrix(out % p, p)
