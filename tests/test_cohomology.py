"""Cochain cohomology against brute force, plus the lemma checks."""

import itertools

import numpy as np
import pytest

from gogends.cohomology import (
    ActionError,
    CochainComplexSlice,
    check_h0_norm_formula,
    check_h1_regular_vanishes,
    check_shapiro_dims,
    h0,
    h1,
)
from gogends.fpcore import (
    FiniteGroup,
    all_subgroups,
    catalog_groups,
    cyclic,
    dihedral8,
    hom_from_images,
    quaternion8,
    subgroup_as_group,
    subgroup_generated,
    trivial,
)
from gogends.fplinalg import rank_profile
from gogends.gmodules import regular_bimodule

from module_reference import d1_full, trivial_module


def test_h0_trivial_group_full_module():
    m = regular_bimodule(cyclic(2, 2))
    t = trivial(2)
    hom = hom_from_images(t, cyclic(2, 2), [])
    # need K's action through a hom into the module's group
    assert h0(t, m, hom).dim == 4


def test_h0_c2_regular():
    c2 = cyclic(2, 1)
    fixed = h0(c2, regular_bimodule(c2))
    assert fixed.dim == 1
    assert np.array_equal(fixed.basis.data, [[1, 1]])


def test_h0_subgroup_of_c4():
    c4 = cyclic(2, 2)
    sub = subgroup_generated(c4, [2])
    grp, incl = subgroup_as_group(sub)
    fixed = h0(grp, regular_bimodule(c4), incl)
    assert fixed.dim == 2
    # fixed space is spanned by 1+g^2 and g+g^3
    expected = {(1, 0, 1, 0), (0, 1, 0, 1)}
    assert {tuple(row) for row in fixed.basis.data} == expected


def test_h1_trivial_group():
    t = trivial(2)
    assert h1(t, regular_bimodule(t)) == 0
    c4 = cyclic(2, 2)
    hom = hom_from_images(t, c4, [])
    assert h1(t, regular_bimodule(c4), hom) == 0


def test_h1_c2_regular_vanishes():
    c2 = cyclic(2, 1)
    assert h1(c2, regular_bimodule(c2)) == 0


def test_h1_c2_trivial_coefficients():
    c2 = cyclic(2, 1)
    assert h1(c2, trivial_module(c2)) == 1


def test_action_mismatch_raises():
    with pytest.raises(ActionError):
        h0(cyclic(2, 1), regular_bimodule(cyclic(2, 2)))


def test_d1_after_d0_is_zero():
    for grp, module in (
        (cyclic(2, 1), regular_bimodule(cyclic(2, 1))),
        (cyclic(2, 2), regular_bimodule(cyclic(2, 2))),
        (cyclic(3, 1), regular_bimodule(cyclic(3, 1))),
        (cyclic(2, 1), trivial_module(cyclic(2, 1), 2)),
    ):
        slc = CochainComplexSlice(grp, module, None)
        assert not d1_full(slc).matmul(slc.d0).data.any()
        cocycles = slc.cocycles()
        assert all(cocycles.contains(column) for column in slc.d0.transpose().data)


def test_restricted_d1_kernel_equals_full_kernel():
    for grp, module in (
        (cyclic(2, 2), regular_bimodule(cyclic(2, 2))),
        (dihedral8(), trivial_module(dihedral8(), 1)),
        (cyclic(3, 1), regular_bimodule(cyclic(3, 1))),
    ):
        slc = CochainComplexSlice(grp, module, None)
        assert slc.cocycles() == rank_profile(d1_full(slc)).nullspace


def test_generator_value_cocycles_match_full_d1_over_catalog():
    for p, bound in ((2, 8), (3, 9)):
        for G in catalog_groups(p, bound):
            for module in (regular_bimodule(G), trivial_module(G, 2)):
                for K in all_subgroups(G):
                    grp, incl = subgroup_as_group(K)
                    slc = CochainComplexSlice(grp, module, incl)
                    assert slc.cocycles() == rank_profile(d1_full(slc)).nullspace, (G.name, K.elements)


def test_generator_value_cocycles_with_identity_or_repeated_generator():
    # BFS edge cases: the identity as a generator puts a loop at every
    # vertex and a repeated generator a parallel edge, all of them non-tree
    c4, d8 = cyclic(2, 2), dihedral8()
    for base, gens in ((c4, [0, 1]), (c4, [1, 1]), (d8, d8.generators + d8.generators[:1])):
        grp = FiniteGroup(f"{base.name}{gens}", base.mult, gens, 2)
        for module, plain in (
            (regular_bimodule(grp), regular_bimodule(base)),
            (trivial_module(grp, 2), trivial_module(base, 2)),
        ):
            slc = CochainComplexSlice(grp, module, None)
            assert slc.cocycles() == rank_profile(d1_full(slc)).nullspace
            assert slc.cocycles() == CochainComplexSlice(base, plain, None).cocycles()


def _h1_dim_bruteforce(K, module, hom=None):
    """Enumerate every function K -> M; count cocycles and coboundaries."""
    p = module.prime
    n, d = K.order, module.dim
    act = {}
    for g in K.elements():
        x = hom.image[g] if hom is not None else g
        act[g] = module.left_action_of(x).data.astype(np.int64)

    def is_cocycle(f):
        for g in K.elements():
            for h_ in K.elements():
                gh = K.mult[g, h_]
                val = (act[g] @ f[h_] - f[gh] + f[g]) % p
                if val.any():
                    return False
        return True

    z_count = 0
    for flat in itertools.product(range(p), repeat=n * d):
        f = np.array(flat, dtype=np.int64).reshape(n, d)
        if is_cocycle(f):
            z_count += 1
    b_set = set()
    for flat in itertools.product(range(p), repeat=d):
        m = np.array(flat, dtype=np.int64)
        cob = tuple(tuple((act[g] @ m - m) % p) for g in K.elements())
        b_set.add(cob)
    z_dim = round(np.log(z_count) / np.log(p)) if z_count > 1 else 0
    b_dim = round(np.log(len(b_set)) / np.log(p)) if len(b_set) > 1 else 0
    assert p**z_dim == z_count and p**b_dim == len(b_set)
    return z_dim - b_dim


def test_h1_matches_bruteforce_enumeration():
    c2 = cyclic(2, 1)
    c4 = cyclic(2, 2)
    cases = [
        (c2, regular_bimodule(c2), None),          # 2*2 = 4 coordinates
        (c2, trivial_module(c2, 2), None),         # 4 coordinates
        (c4, trivial_module(c4, 1), None),         # 4 coordinates
        (c4, regular_bimodule(c4), None),          # 16 coordinates, still 2^16
        (c2, trivial_module(c2, 1), None),
    ]
    sub = subgroup_generated(c4, [2])
    grp, incl = subgroup_as_group(sub)
    cases.append((grp, regular_bimodule(c4), incl))  # 8 coordinates
    for K, module, hom in cases:
        assert K.order * module.dim <= 16
        assert h1(K, module, hom) == _h1_dim_bruteforce(K, module, hom)


def test_h0_monotone_under_subgroup_growth():
    for G in (cyclic(2, 3), dihedral8(), quaternion8(), cyclic(3, 2)):
        reg = regular_bimodule(G)
        subs = all_subgroups(G)
        dims = {}
        for K in subs:
            grp, incl = subgroup_as_group(K)
            dims[K.elements] = h0(grp, reg, incl).dim
        for K in subs:
            for L in subs:
                if set(K.elements) <= set(L.elements):
                    assert dims[L.elements] <= dims[K.elements]


def test_h1_regular_vanishes_spec_examples():
    assert check_h1_regular_vanishes(cyclic(2, 1)).ok
    assert check_h1_regular_vanishes(quaternion8()).ok
    assert check_h1_regular_vanishes(trivial(2)).ok


def test_norm_formula_spec_examples():
    c4 = cyclic(2, 2)
    assert check_h0_norm_formula(subgroup_generated(c4, [0]), c4).ok
    assert check_h0_norm_formula(subgroup_generated(c4, [2]), c4).ok
    c2 = cyclic(2, 1)
    rep = check_h0_norm_formula(subgroup_generated(c2, [1]), c2)
    assert rep.ok and rep.details["fixed_dim"] == 1


def test_shapiro_spec_examples():
    c4 = cyclic(2, 2)
    assert check_shapiro_dims(subgroup_generated(c4, [0]), c4, 0).ok
    assert check_shapiro_dims(subgroup_generated(c4, [2]), c4, 0).ok
    d8 = dihedral8()
    rep = check_shapiro_dims(subgroup_generated(d8, [4]), d8, 1)
    assert rep.ok and rep.details["big_dim"] == 0


def test_lemma_suite_small_catalog():
    # order <= 8 here; the full acceptance run covers 16 and 27
    for G in catalog_groups(2, 8):
        assert check_h1_regular_vanishes(G).ok
        for K in all_subgroups(G):
            assert check_h0_norm_formula(K, G).ok
            assert check_shapiro_dims(K, G, 0).ok
            assert check_shapiro_dims(K, G, 1).ok
