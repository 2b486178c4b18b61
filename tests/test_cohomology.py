"""Cochain cohomology against brute force, plus the lemma checks."""

import itertools
import tracemalloc

import numpy as np
import pytest

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
    elementary_abelian,
    heisenberg,
    hom_from_images,
    quaternion8,
    right_cosets,
    subgroup_as_group,
    subgroup_generated,
    trivial,
)
from gogends.fplinalg import FpMatrix, rank, rank_profile
from gogends.gmodules import ModuleError, regular_bimodule

from module_reference import (
    d0_full,
    d1_full,
    generator_actions,
    left_action_of,
    permutation_sources,
    trivial_module,
)


def test_h0_trivial_group_full_module():
    m = regular_bimodule(cyclic(2, 2))
    t = trivial(2)
    hom = hom_from_images(t, cyclic(2, 2), [])
    # need K's action through a hom into the module's group
    assert h0(generator_actions(t, m, hom), t.prime) == 4


def test_h0_c2_regular():
    c2 = cyclic(2, 1)
    acts = generator_actions(c2, regular_bimodule(c2))
    fixed = rank_profile(_invariant_constraints(acts, c2.prime)).nullspace
    assert fixed.dim == h0(acts, c2.prime) == 1
    assert np.array_equal(fixed.basis.data, [[1, 1]])


def test_h0_subgroup_of_c4():
    c4 = cyclic(2, 2)
    sub = subgroup_generated(c4, [2])
    grp, incl = subgroup_as_group(sub)
    acts = generator_actions(grp, regular_bimodule(c4), incl)
    fixed = rank_profile(_invariant_constraints(acts, grp.prime)).nullspace
    assert fixed.dim == h0(acts, grp.prime) == 2
    # fixed space is spanned by 1+g^2 and g+g^3
    expected = {(1, 0, 1, 0), (0, 1, 0, 1)}
    assert {tuple(row) for row in fixed.basis.data} == expected


def test_h1_trivial_group():
    t = trivial(2)
    acts = generator_actions(t, regular_bimodule(t))
    assert h1(t, acts, h0(acts, t.prime)) == 0
    c4 = cyclic(2, 2)
    hom = hom_from_images(t, c4, [])
    acts = generator_actions(t, regular_bimodule(c4), hom)
    assert h1(t, acts, h0(acts, t.prime)) == 0


def test_h1_c2_regular_vanishes():
    c2 = cyclic(2, 1)
    acts = generator_actions(c2, regular_bimodule(c2))
    assert h1(c2, acts, h0(acts, c2.prime)) == 0


def test_h1_c2_trivial_coefficients():
    c2 = cyclic(2, 1)
    acts = generator_actions(c2, trivial_module(c2))
    assert h1(c2, acts, h0(acts, c2.prime)) == 1


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
        acts = generator_actions(grp, module)
        assert h1(grp, acts, h0(acts, grp.prime)) == _h1_full(grp, module)


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
                    acts = generator_actions(grp, module, incl)
                    assert h1(grp, acts, h0(acts, grp.prime)) == _h1_full(grp, module, incl), (G.name, K.elements)


def test_cocycle_constraints_do_not_depend_on_the_block_size(monkeypatch):
    # one edge per block, and every edge in one block, give the default's C
    groups = catalog_groups(2, 16) + catalog_groups(3, 27) + [elementary_abelian(2, 5), heisenberg(3)]
    cases = [(G, _left_translations(G, G.generators)) for G in groups if G.generators]
    default = [_cocycle_constraints(G, src, G.prime) for G, src in cases]
    for cells in (1, 1 << 40):
        monkeypatch.setattr(cohomology, "_BLOCK_CELLS", cells)
        for (G, src), expected in zip(cases, default):
            assert _cocycle_constraints(G, src, G.prime) == expected, (G.name, cells)


def test_cocycle_constraints_peak_is_near_the_result():
    # E2^6 on F_2[G]: 6 * 64 - 63 = 321 non-tree edges of 64 rows each and
    # 6 * 64 columns; the int16 temporaries stay a block in size
    G = elementary_abelian(2, 6)
    src = _left_translations(G, G.generators)  # builds the group's kept table array
    tracemalloc.start()
    try:
        C = _cocycle_constraints(G, src, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert C.data.shape == (321 * 64, 6 * 64) and C.data.dtype == np.uint8
    assert peak < 3 * C.data.nbytes, (peak, C.data.nbytes)


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
            acts = generator_actions(grp, module)
            assert h1(grp, acts, h0(acts, grp.prime)) == full
            acts = generator_actions(base, plain)
            assert full == h1(base, acts, h0(acts, base.prime))


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
        acts = generator_actions(K, module, hom)
        assert h1(K, acts, h0(acts, K.prime)) == _h1_dim_bruteforce(K, module, hom)


def test_h0_monotone_under_subgroup_growth():
    for G in (cyclic(2, 3), dihedral8(), quaternion8(), cyclic(3, 2)):
        reg = regular_bimodule(G)
        subs = all_subgroups(G)
        dims = {}
        for K in subs:
            grp, incl = subgroup_as_group(K)
            dims[K.elements] = h0(generator_actions(grp, reg, incl), grp.prime)
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


def test_norm_check_fails_on_a_wrong_invariant_dimension(monkeypatch):
    # D of the first generator alone: the cosets stay right, but dim M^K
    # grows wherever K needs two generators, and only there
    real = cohomology._invariant_constraints
    monkeypatch.setattr(cohomology, "_invariant_constraints", lambda src, p: real(src[:1], p))
    assert not _report(elementary_abelian(2, 2), "h0_norm_formula", 4).ok
    # D8: the two Klein four-groups and D8 itself; the cyclic subgroups pass
    norm = [r for r in lemma_reports(dihedral8()) if r.name == "h0_norm_formula"]
    assert [r.details["subgroup_order"] for r in norm if not r.ok] == [4, 4, 8]
    assert all(r.details["norm_submodule_dim"] == r.details["coset_count"] for r in norm)


def test_left_translations_match_word_composed_actions():
    for p, bound in ((2, 16), (3, 27)):
        for G in catalog_groups(p, bound):
            reg = regular_bimodule(G)
            table = _left_translations(G, G.elements())
            for x in G.elements():
                assert np.array_equal(table[x], permutation_sources(left_action_of(reg, x))), (G.name, x)


def test_permutation_sources_rejects_other_matrices():
    assert permutation_sources(FpMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 2)).tolist() == [1, 2, 0]
    for data in ([[1, 1], [0, 1]], [[1, 0], [1, 0]], [[0, 0], [0, 1]], [[2, 0], [0, 1]]):
        with pytest.raises(ModuleError):
            permutation_sources(FpMatrix(data, 3))
