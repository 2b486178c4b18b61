"""Group-algebra modules: norms, submodule closure, Nakayama counts."""

import numpy as np
import pytest

from gogends.fpcore import cyclic, dihedral8, subgroup_generated, trivial
from gogends.fplinalg import FpMatrix, Subspace
from gogends.gmodules import (
    GModule,
    ModuleError,
    min_generators,
    quotient_module,
    regular_bimodule,
    submodule_generated,
)

from module_reference import (
    check_action_consistency,
    direct_sum,
    left_action_of,
    min_generators_bruteforce,
    nakayama_modules,
    right_action_of,
    trivial_module,
)


def test_regular_trivial_group():
    m = regular_bimodule(trivial(2))
    assert m.dim == 1


def test_regular_c2_swap():
    m = regular_bimodule(cyclic(2, 1))
    assert m.dim == 2
    swap = [[0, 1], [1, 0]]
    assert np.array_equal(m.left[0].data, swap)
    assert np.array_equal(m.right[0].data, swap)


def test_regular_d8_is_permutation_representation():
    d8 = dihedral8()
    m = regular_bimodule(d8)
    assert m.dim == 8
    for x in d8.elements():
        act = left_action_of(m, x).data
        assert np.array_equal(act.sum(axis=0), np.ones(8, dtype=np.uint8))
        assert np.array_equal(act.sum(axis=1), np.ones(8, dtype=np.uint8))
    check_action_consistency(m)


def test_singular_zero_one_action_is_rejected():
    c2 = cyclic(2, 1)
    # two equal columns; one 1 per row but not per column; one 1 per column but not per row
    for rows in ([[1, 1], [1, 1]], [[1, 0], [1, 0]], [[1, 1], [0, 0]]):
        with pytest.raises(ModuleError, match="singular"):
            GModule(c2, 2, left=[FpMatrix(rows, 2)])
    # an invertible action that is not a permutation still passes the rank check
    assert GModule(c2, 2, left=[FpMatrix([[1, 1], [0, 1]], 2)]).dim == 2


def test_norm_is_left_invariant():
    for grp in (cyclic(2, 2), dihedral8(), cyclic(3, 2)):
        reg = regular_bimodule(grp)
        for seed in range(grp.order):
            sub = subgroup_generated(grp, [seed])
            v = np.zeros(grp.order, dtype=np.uint8)
            v[list(sub.elements)] = 1  # the norm N_K, the sum of K's elements
            for k in sub.elements:
                assert np.array_equal(left_action_of(reg, k).mul_vec(v), v)


def test_submodule_zero_seed():
    m = regular_bimodule(cyclic(2, 2))
    assert submodule_generated(m, "right", [np.zeros(4, dtype=np.uint8)]).dim == 0


def test_submodule_norm_full_group_is_one_dimensional():
    c4 = cyclic(2, 2)
    m = regular_bimodule(c4)
    n = np.ones(4, dtype=np.uint8)  # the norm of C4
    assert submodule_generated(m, "right", [n]).dim == 1


def test_submodule_norm_c2_in_c4_two_dimensional():
    c4 = cyclic(2, 2)
    m = regular_bimodule(c4)
    n = np.array([1, 0, 1, 0], dtype=np.uint8)  # the norm of <g^2>
    span = submodule_generated(m, "right", [n])
    assert span.dim == 2
    shifted = right_action_of(m, 1).mul_vec(n)
    assert span.contains(n) and span.contains(shifted)


def test_submodule_idempotent_and_monotone():
    m = regular_bimodule(dihedral8())
    rng = np.random.default_rng(5)
    seeds = [rng.integers(0, 2, size=8).astype(np.uint8) for _ in range(2)]
    span = submodule_generated(m, "right", seeds)
    again = submodule_generated(m, "right", list(span.basis.data))
    assert span == again
    bigger = submodule_generated(m, "right", seeds + [rng.integers(0, 2, size=8).astype(np.uint8)])
    assert all(bigger.contains(row) for row in span.basis.data)


def test_min_generators_regular_is_one():
    for grp in (cyclic(2, 2), dihedral8(), cyclic(3, 1)):
        assert min_generators(regular_bimodule(grp)) == 1


def test_min_generators_trivial_module():
    assert min_generators(trivial_module(cyclic(2, 1))) == 1


def test_min_generators_direct_sum_additive():
    r = regular_bimodule(cyclic(2, 1))
    assert min_generators(direct_sum(r, r)) == 2
    assert min_generators(direct_sum(direct_sum(r, r), r)) == 3
    r3 = regular_bimodule(cyclic(3, 1))
    assert min_generators(direct_sum(r3, r3)) == 2


def test_min_generators_matches_bruteforce():
    for module in nakayama_modules():
        assert module.dim <= 6 and module.group.order <= 8
        fast = min_generators(module, "right")
        slow = min_generators_bruteforce(module, "right")
        assert fast == slow, (module.group.name, module.dim, fast, slow)


def test_bruteforce_guard():
    with pytest.raises(ModuleError):
        min_generators_bruteforce(regular_bimodule(cyclic(2, 4)))


def test_quotient_module_rejects_unstable_subspace():
    m = regular_bimodule(cyclic(2, 2))
    unstable = Subspace.from_vectors([[1, 0, 0, 0]], 4, 2)
    with pytest.raises(ModuleError):
        quotient_module(m, "right", unstable)


def test_right_action_composition_is_contravariant():
    d8 = dihedral8()
    m = regular_bimodule(d8)
    for a in (1, 2, 5):
        for b in (3, 6, 7):
            ab = int(d8.mult[a, b])
            lhs = right_action_of(m, ab)
            rhs = right_action_of(m, b).matmul(right_action_of(m, a))
            assert lhs == rhs


def test_left_right_actions_commute():
    m = regular_bimodule(dihedral8())
    for left in m.left:
        for right in m.right:
            assert left.matmul(right) == right.matmul(left)
