"""Acceptance suite.

One test per criterion, every comparison exact (tolerance zero), one
pass/fail line printed per criterion.  Run with ``pytest
tests/test_acceptance.py -v -s`` for the live lines.
"""

import random

import pytest

from gogends import cohomology, ends, fpcore, gmodules, gog as gogmod, graphs
from gogends.corpus import fixture_names, load_fixture, witness_bound
from gogends.fplinalg import rank

from graph_reference import matching_bruteforce
from hom_reference import identity_hom
from module_reference import min_generators_bruteforce, nakayama_modules
from mv_reference import boundary_map, cokernel_reference, gen_count_closed_form, lifted_witness


def _report(num, ok, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1: cohomology lemmas, exhaustive over the catalog ---------------------


def test_criterion_1_cohomology_lemmas():
    checks = 0
    failures = []
    for prime, max_order in ((2, 16), (3, 27)):
        for G in fpcore.catalog_groups(prime, max_order):
            for rep in cohomology.lemma_reports(G):
                checks += 1
                if not rep.ok:
                    failures.append(rep)
    _report(1, not failures, f"{checks} lemma checks over both catalogs, {len(failures)} failures")


# -- 2: counting lemma, exhaustive to 7 edges ------------------------------


def test_criterion_2_counting_lemma_exhaustive():
    result = graphs.verify_counting_lemma(graphs.enumerate_connected_multigraphs(7, 8))
    odd_cycle_edges = {3, 5, 7}
    flagged = {
        r.edge_count
        for r in result.exceptional_findings
        if r.edge_count in odd_cycle_edges and r.t_value == 0 and not r.holds
    }
    ok = (
        not result.violations
        and not result.intermediate_failures
        and flagged == odd_cycle_edges
    )
    _report(
        2,
        ok,
        f"{result.total} connected multigraphs <= 7 edges; 0 violations expected, got "
        f"{len(result.violations)}; odd cycles flagged: {sorted(flagged)}",
    )


# -- 3: matching oracle ----------------------------------------------------


def test_criterion_3_matching_oracle():
    rng = random.Random(271828)
    mismatches = 0
    for _ in range(1000):
        g = graphs.random_multigraph(rng, 12, 8)
        if len(graphs.maximum_matching(g)) != len(matching_bruteforce(g)):
            mismatches += 1
    _report(3, mismatches == 0, f"1000 random multigraphs <= 12 edges, {mismatches} mismatches")


# -- 4: Nakayama oracle ------------------------------------------------------


def test_criterion_4_nakayama_oracle():
    bad = []
    total = 0
    for module in nakayama_modules():
        assert module.dim <= 6 and module.group.order <= 8
        total += 1
        fast = gmodules.min_generators(module, "right")
        slow = min_generators_bruteforce(module, "right")
        if fast != slow:
            bad.append((module.group.name, module.dim, fast, slow))
    _report(4, not bad, f"{total} right modules (dim <= 6, |P| <= 8), {len(bad)} disagreements")


# -- 5/6/8/9: corpus pipeline ------------------------------------------------


def _corpus_reports():
    if not hasattr(_corpus_reports, "cache"):
        out = {}
        for name in fixture_names():
            g = load_fixture(name)
            w = gogmod.proper_quotient_search(g, witness_bound(name))
            lifted = lifted_witness(g, w)
            out[name] = (g, w, ends.ends_level(g, w), lifted)
        _corpus_reports.cache = out
    return _corpus_reports.cache


def test_criterion_5_ends_vs_fox_oracle():
    assert len(fixture_names()) >= 10
    disagreements = []
    levels = 0
    for name, (g, w, rep, lifted) in _corpus_reports().items():
        levels += 1
        if rep.h1_dim != rep.fox_h1_dim:
            disagreements.append(name)
        assert lifted is not None, f"{name}: no lifted witness found"
        rep2 = ends.ends_level(g, lifted)  # raises OracleMismatch on disagreement
        levels += 1
        if rep2.h1_dim != rep2.fox_h1_dim:
            disagreements.append(f"{name}@{rep2.level}")
    _report(
        5,
        not disagreements,
        f"{len(fixture_names())} fixtures, {levels} levels, MV h1 == Fox h1 throughout",
    )


def test_criterion_6_structural_mv_facts():
    bad = []
    for name, (g, w, rep, lifted) in _corpus_reports().items():
        for tag, witness in (("minimal", w), ("lifted", lifted)):
            if not witness.is_surjective(g):
                bad.append(f"{name}/{tag}: witness not surjective")
            try:
                mv = ends.mv_h0_map(g, witness)  # edge-invariance asserted inside
            except ends.WellDefinednessViolation as exc:
                bad.append(f"{name}/{tag}: {exc}")
                continue
            if mv.kernel_dim != 1:
                bad.append(f"{name}/{tag}: kernel dim {mv.kernel_dim}")
    _report(6, not bad, f"kernel dim 1 + edge invariance at two levels per fixture; issues: {bad or 'none'}")


def test_mv_rank_formulas_match_the_cokernel_module():
    for name, (g, w, _, lifted) in _corpus_reports().items():
        for witness in (w, lifted):
            mv = ends.mv_h0_map(g, witness)
            fmap, right_perms = boundary_map(g, witness)
            where = f"{name}@{witness.quotient.order}"
            assert rank(fmap) == mv.rank, where
            assert (mv.source_dim, mv.target_dim) == (fmap.cols, fmap.rows), where
            assert (mv.h1_dim, g.gen_count) == cokernel_reference(witness.quotient, fmap, right_perms), where


def test_gen_count_is_the_level_free_closed_form():
    reduced = 0
    for name, (g, w, _, lifted) in _corpus_reports().items():
        expected = gen_count_closed_form(g)
        if gogmod._iso_edge(g) is None:
            assert expected == len(g.graph.edges), name
            reduced += 1
        for witness in (w, lifted):
            assert ends.ends_level(g, witness).gen_count == expected, f"{name}@{witness.quotient.order}"
    assert reduced > 0


def test_criterion_7_known_families():
    t2, t3 = fpcore.trivial(2), fpcore.trivial(3)
    failures = []
    for p, t in ((2, t2), (3, t3)):
        g = gogmod.GraphOfGroups(
            graphs.Graph(("v",), (("e0", "v", "v"),)),
            p,
            {"v": t},
            {"e0": t},
            {"e0": fpcore.hom_from_images(t, t, [])},
            {"e0": fpcore.hom_from_images(t, t, [])},
        )
        for k in (1, 2, 3, 4):
            P = fpcore.cyclic(p, k)
            w = gogmod.ProperWitness(
                P, {"v": fpcore.hom_from_images(t, P, [])}, {"e0": P.generators[0]}
            )
            rep = ends.ends_level(g, w)
            if not (rep.h1_dim == 1 and rep.gen_count == 1):
                failures.append(f"Z_{p} level {P.order}")
    for r in (1, 2, 3):
        edges = tuple((f"e{i}", "v", "v") for i in range(r))
        g = gogmod.GraphOfGroups(
            graphs.Graph(("v",), edges),
            2,
            {"v": t2},
            {e: t2 for e, _, _ in edges},
            {e: fpcore.hom_from_images(t2, t2, []) for e, _, _ in edges},
            {e: fpcore.hom_from_images(t2, t2, []) for e, _, _ in edges},
        )
        for k in (1, 2, 3):
            P = fpcore.cyclic(2, k)
            w = gogmod.ProperWitness(
                P,
                {"v": fpcore.hom_from_images(t2, P, [])},
                {e: P.generators[0] for e, _, _ in edges},
            )
            rep = ends.ends_level(g, w)
            expected = (r - 1) * P.order + 1  # rank-nullity: kernel 1, coker r|P| - (|P|-1)
            if rep.h1_dim != expected:
                failures.append(f"free rank {r} level {P.order}: {rep.h1_dim} != {expected}")
    _report(
        7,
        not failures,
        "Z_p levels p..p^4 give h1 = gen = 1; free ranks 1..3 at |P| in {2,4,8} give "
        f"h1 = (r-1)|P|+1; failures: {failures or 'none'}",
    )


def test_criterion_8_nonvanishing():
    checked, bad = 0, []
    for name, (g, w, rep, _) in _corpus_reports().items():
        if gogmod._iso_edge(g) is None and g.graph.edges:
            checked += 1
            if not rep.h1_dim > 0:
                bad.append(name)
    assert checked == len(_corpus_reports())
    _report(8, not bad, f"h1 > 0 at minimal witness level for all {checked} reduced fixtures with an edge")


def test_criterion_9_theorem_bound():
    bad = []
    for name, (g, w, rep, _) in _corpus_reports().items():
        if not rep.bound_holds:
            bad.append(f"{name}: |EX|={rep.edge_count} > {rep.bound_rhs}")
        if not rep.matching_le_gen:
            bad.append(f"{name}: M={rep.matching_size} > gen_count={rep.gen_count}")
    _report(9, not bad, f"|EX| <= 2*gen + 9*(b1-1) and M <= gen on all fixtures; issues: {bad or 'none'}")


def test_criterion_10_b1_machinery():
    failures = []
    for name, (g, w, rep, _) in _corpus_reports().items():
        leaves = graphs.index_walk(g.graph).valences.count(1)
        euler_char = len(g.graph.vertices) - len(g.graph.edges)
        if gogmod.b1(g) < leaves + 1 - euler_char:
            failures.append(f"{name}: b1 < leaf bound")
    # b1 invariant under collapse on constructed non-reduced instances
    c2 = fpcore.cyclic(2, 1)
    c4 = fpcore.cyclic(2, 2)
    iso = identity_hom(c2)
    inc = fpcore.hom_from_images(c2, c4, [2])
    t = fpcore.trivial(2)
    chain = gogmod.GraphOfGroups(
        graphs.Graph(("a", "b", "c"), (("e0", "a", "b"), ("e1", "b", "c"), ("l", "c", "c"))),
        2,
        {"a": c2, "b": c2, "c": c4},
        {"e0": c2, "e1": c2, "l": t},
        {"e0": iso, "e1": iso, "l": fpcore.hom_from_images(t, c4, [])},
        {"e0": iso, "e1": inc, "l": fpcore.hom_from_images(t, c4, [])},
    )
    before = gogmod.b1(chain)
    collapsed = gogmod.collapse_iso_edge(chain, "e0")
    if gogmod.b1(collapsed) != before:
        failures.append("collapse changed b1")
    reduced = gogmod.reduce_gog(chain)
    if gogmod.b1(reduced) != before or gogmod._iso_edge(reduced) is not None:
        failures.append("reduction changed b1 or failed to reduce")
    # bouquets
    for r in (1, 2, 3):
        edges = tuple((f"e{i}", "v", "v") for i in range(r))
        bq = gogmod.GraphOfGroups(
            graphs.Graph(("v",), edges),
            2,
            {"v": t},
            {e: t for e, _, _ in edges},
            {e: fpcore.hom_from_images(t, t, []) for e, _, _ in edges},
            {e: fpcore.hom_from_images(t, t, []) for e, _, _ in edges},
        )
        if gogmod.b1(bq) != r:
            failures.append(f"b1(bouquet {r}) != {r}")
    _report(10, not failures, f"b1 >= leaf bound, collapse-invariant, bouquet ranks; issues: {failures or 'none'}")
