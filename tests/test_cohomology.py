"""Cochain cohomology against brute force, plus the lemma checks."""

import itertools

import numpy as np

from gogends import cohomology
from gogends.cohomology import (
    _cocycle_constraints,
    _invariant_constraints,
    _left_translations,
    h0,
    h1,
    lemma_reports,
)
from gogends.fpcore import (
    FiniteGroup,
    all_subgroups,
    catalog_groups,
    cyclic,
    dihedral8,
    hom_from_images,
    quaternion8,
    right_cosets,
    subgroup_as_group,
    subgroup_generated,
    trivial,
)
from gogends.fplinalg import rank
from gogends.gmodules import regular_bimodule

from module_reference import d0_full, d1_full, generator_actions, left_action_of, trivial_module


def test_h0_trivial_group_full_module():
    m = regular_bimodule(cyclic(2, 2))
    t = trivial(2)
    hom = hom_from_images(t, cyclic(2, 2), [])
    # need K's action through a hom into the module's group
    assert h0(t, generator_actions(t, m, hom)).dim == 4


def test_h0_c2_regular():
    c2 = cyclic(2, 1)
    fixed = h0(c2, generator_actions(c2, regular_bimodule(c2)))
    assert fixed.dim == 1
    assert np.array_equal(fixed.basis.data, [[1, 1]])


def test_h0_subgroup_of_c4():
    c4 = cyclic(2, 2)
    sub = subgroup_generated(c4, [2])
    grp, incl = subgroup_as_group(sub)
    fixed = h0(grp, generator_actions(grp, regular_bimodule(c4), incl))
    assert fixed.dim == 2
    # fixed space is spanned by 1+g^2 and g+g^3
    expected = {(1, 0, 1, 0), (0, 1, 0, 1)}
    assert {tuple(row) for row in fixed.basis.data} == expected


def test_h1_trivial_group():
    t = trivial(2)
    assert h1(t, generator_actions(t, regular_bimodule(t))) == 0
    c4 = cyclic(2, 2)
    hom = hom_from_images(t, c4, [])
    assert h1(t, generator_actions(t, regular_bimodule(c4), hom)) == 0


def test_h1_c2_regular_vanishes():
    c2 = cyclic(2, 1)
    assert h1(c2, generator_actions(c2, regular_bimodule(c2))) == 0


def test_h1_c2_trivial_coefficients():
    c2 = cyclic(2, 1)
    assert h1(c2, generator_actions(c2, trivial_module(c2))) == 1


def _h1_full(K, module, hom=None):
    """dim ker d1 - rank d0 over all elements and pairs of K."""
    d1 = d1_full(K, module, hom)
    return d1.cols - rank(d1) - rank(d0_full(K, module, hom))


def test_d1_after_d0_is_zero():
    for grp, module in (
        (cyclic(2, 1), regular_bimodule(cyclic(2, 1))),
        (cyclic(2, 2), regular_bimodule(cyclic(2, 2))),
        (cyclic(3, 1), regular_bimodule(cyclic(3, 1))),
        (cyclic(2, 1), trivial_module(cyclic(2, 1), 2)),
    ):
        assert not d1_full(grp, module).matmul(d0_full(grp, module)).data.any()
        assert h1(grp, generator_actions(grp, module)) == _h1_full(grp, module)


def test_restricted_d1_kernel_equals_full_kernel():
    # dim Z^1 = dim ker C over the generator values, and rank d0 = rank D
    for grp, module in (
        (cyclic(2, 2), regular_bimodule(cyclic(2, 2))),
        (dihedral8(), trivial_module(dihedral8(), 1)),
        (cyclic(3, 1), regular_bimodule(cyclic(3, 1))),
    ):
        acts = generator_actions(grp, module)
        p, d1 = module.prime, d1_full(grp, module)
        assert len(acts) * module.dim - rank(_cocycle_constraints(grp, acts, p)) == d1.cols - rank(d1)
        assert rank(_invariant_constraints(acts, p)) == rank(d0_full(grp, module))


def test_generator_value_cocycles_match_full_d1_over_catalog():
    for p, bound in ((2, 8), (3, 9)):
        for G in catalog_groups(p, bound):
            for module in (regular_bimodule(G), trivial_module(G, 2)):
                for K in all_subgroups(G):
                    grp, incl = subgroup_as_group(K)
                    assert h1(grp, generator_actions(grp, module, incl)) == _h1_full(grp, module, incl), (G.name, K.elements)


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
            full = _h1_full(grp, module)
            assert h1(grp, generator_actions(grp, module)) == full == h1(base, generator_actions(base, plain))


def _h1_dim_bruteforce(K, module, hom=None):
    """Enumerate every function K -> M; count cocycles and coboundaries."""
    p = module.prime
    n, d = K.order, module.dim
    act = {}
    for g in K.elements():
        x = hom.image[g] if hom is not None else g
        act[g] = left_action_of(module, x).data.astype(np.int64)

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
        assert h1(K, generator_actions(K, module, hom)) == _h1_dim_bruteforce(K, module, hom)


def test_h0_monotone_under_subgroup_growth():
    for G in (cyclic(2, 3), dihedral8(), quaternion8(), cyclic(3, 2)):
        reg = regular_bimodule(G)
        subs = all_subgroups(G)
        dims = {}
        for K in subs:
            grp, incl = subgroup_as_group(K)
            dims[K.elements] = h0(grp, generator_actions(grp, reg, incl)).dim
        for K in subs:
            for L in subs:
                if set(K.elements) <= set(L.elements):
                    assert dims[L.elements] <= dims[K.elements]


def _report(G, name, subgroup_order=None, degree=None):
    """The one report of ``lemma_reports(G)`` with these keys."""
    (rep,) = [
        r for r in lemma_reports(G)
        if r.name == name and r.details.get("subgroup_order") == subgroup_order and r.details.get("degree") == degree
    ]
    return rep


def test_h1_regular_vanishes_spec_examples():
    for G in (cyclic(2, 1), quaternion8(), trivial(2)):
        assert _report(G, "h1_regular_vanishes").ok


def test_norm_formula_spec_examples():
    c4 = cyclic(2, 2)
    assert _report(c4, "h0_norm_formula", 1).ok
    assert _report(c4, "h0_norm_formula", 2).ok
    rep = _report(cyclic(2, 1), "h0_norm_formula", 2)
    assert rep.ok and rep.details["fixed_dim"] == 1


def test_shapiro_spec_examples():
    c4 = cyclic(2, 2)
    assert _report(c4, "shapiro_dims", 1, 0).ok
    assert _report(c4, "shapiro_dims", 2, 0).ok
    # D8 has five subgroups of order 2, among them <r^2> = {0, 4}
    reps = [r for r in lemma_reports(dihedral8()) if (r.details.get("subgroup_order"), r.details.get("degree")) == (2, 1)]
    assert len(reps) == 5 and all(r.ok and r.details["big_dim"] == 0 for r in reps)


def test_lemma_suite_small_catalog():
    # order <= 8 here; the full acceptance run covers 16 and 27
    for G in catalog_groups(2, 8):
        reports = list(lemma_reports(G))
        expected = [("h1_regular_vanishes", None, None)]
        for K in all_subgroups(G):
            expected += [("h0_norm_formula", K.order, None), ("shapiro_dims", K.order, 0), ("shapiro_dims", K.order, 1)]
        assert [(r.name, r.details.get("subgroup_order"), r.details.get("degree")) for r in reports] == expected
        assert all(r.ok for r in reports), G.name


def test_lemma_reports_compare_independently_computed_values(monkeypatch):
    # a norm span of the right dimension but the wrong subspace fails the
    # norm check, and an H^1 that does not scale with the index fails Shapiro
    c4 = cyclic(2, 2)

    def singleton_cosets(G, elements):
        # the right number of rows, each the indicator of one element
        reps, _ = right_cosets(G, elements)
        return reps, np.arange(G.order)

    monkeypatch.setattr(cohomology, "right_cosets", singleton_cosets)
    norm = [r for r in lemma_reports(c4) if r.name == "h0_norm_formula"]
    assert all(r.details["norm_submodule_dim"] == r.details["coset_count"] for r in norm)
    assert sorted(r.details["subgroup_order"] for r in norm if not r.ok) == [2, 4]
    monkeypatch.undo()
    monkeypatch.setattr(cohomology, "h1", lambda *args: 1)
    shapiro = [r for r in lemma_reports(c4) if r.details.get("degree") == 1]
    assert sorted(r.details["coset_count"] for r in shapiro if not r.ok) == [2, 4]


def test_left_translations_match_word_composed_actions():
    for p, bound in ((2, 16), (3, 27)):
        for G in catalog_groups(p, bound):
            reg = regular_bimodule(G)
            table = _left_translations(G, G.elements())
            for x in G.elements():
                assert np.array_equal(table[x], left_action_of(reg, x).data), (G.name, x)
