"""Graph-of-groups structure: reducedness, collapse, presentation, b1,
witness search, free kernel rank."""

from fractions import Fraction
from math import prod

import pytest
from gog_builders import bouquet, mk, triv_hom
from hom_reference import identity_hom, injective_homs_reference

from gogends import corpus
from gogends import gog as gogmod
from gogends.fpcore import (
    FiniteGroup,
    GroupHom,
    catalog_groups,
    cyclic,
    dihedral8,
    hom_from_images,
    is_injective,
    quaternion8,
    trivial,
)
from gogends.graphs import GraphError
from gogends.gog import (
    GogError,
    _iso_edge,
    NonIntegral,
    NotFoundWithinBound,
    ProperWitness,
    b1,
    collapse_iso_edge,
    free_kernel_rank,
    injective_homs,
    presentation,
    proper_quotient_search,
    reduce_gog,
)


def c2_star_c2():
    c2 = cyclic(2, 1)
    t = trivial(2)
    return mk(
        ("u", "w"),
        (("e", "u", "w"),),
        {"u": c2, "w": c2},
        {"e": t},
        {"e": triv_hom(c2)},
        {"e": triv_hom(c2)},
    )


def c4_amalgam():
    c2, c4 = cyclic(2, 1), cyclic(2, 2)
    inc = hom_from_images(c2, c4, [2])
    return mk(
        ("u", "w"), (("e", "u", "w"),), {"u": c4, "w": c4}, {"e": c2}, {"e": inc}, {"e": inc}
    )


def test_validate_loop_is_exempt():
    t = trivial(2)
    g = mk(("v",), (("e", "v", "v"),), {"v": t}, {"e": t}, {"e": triv_hom(t)}, {"e": triv_hom(t)})
    assert _iso_edge(g) is None


def test_validate_identity_edge_not_reduced():
    c2 = cyclic(2, 1)
    h = identity_hom(c2)
    g = mk(("u", "w"), (("e", "u", "w"),), {"u": c2, "w": c2}, {"e": c2}, {"e": h}, {"e": h})
    assert _iso_edge(g) == "e"


def test_validate_proper_inclusion_reduced():
    assert _iso_edge(c4_amalgam()) is None


def test_structural_rejects_noninjective_edge_map():
    c2, c4 = cyclic(2, 1), cyclic(2, 2)
    collapse = hom_from_images(c4, c2, [1])
    with pytest.raises(GogError):
        mk(("u", "w"), (("e", "u", "w"),), {"u": c2, "w": c2}, {"e": c4},
           {"e": collapse}, {"e": collapse})


def test_structural_rejects_edge_map_that_is_not_a_homomorphism():
    # injective, but the involution of C2 goes to a generator of C4, of
    # order 4; unchecked, the search finds C4 and the level graph fails
    c2, c4 = cyclic(2, 1), cyclic(2, 2)
    bad = GroupHom(c2, c4, (0, 1))
    assert is_injective(bad)
    with pytest.raises(GogError, match="edge 'e': inj0 is not an embedding of the edge group in vertex 'v'"):
        mk(("v",), (("e", "v", "v"),), {"v": c4}, {"e": c2}, {"e": bad}, {"e": bad})


def test_ids_equal_as_strings_are_rejected_when_built():
    # a witness document keys its maps by str(id), where 1 and "1" would
    # share a key: the graph refuses them, however it is built
    t, c2, c4 = trivial(2), cyclic(2, 1), cyclic(2, 2)

    def loops(a, b):
        return mk(("v",), ((a, "v", "v"), (b, "v", "v")), {"v": t}, {a: t, b: t},
                  {a: triv_hom(t), b: triv_hom(t)}, {a: triv_hom(t), b: triv_hom(t)})

    def pair(a, b):
        return mk((a, b), (("e", a, b),), {a: c2, b: c4}, {"e": t}, {"e": triv_hom(c2)}, {"e": triv_hom(c4)})

    with pytest.raises(GraphError, match=r"^edges\[1\]\.id: '1' and the earlier id 1 are equal as strings$"):
        loops(1, "1")
    with pytest.raises(GraphError, match=r"^vertices\[1\]\.id: '1' and the earlier id 1 are equal as strings$"):
        pair(1, "1")
    for g in (loops(1, "2"), pair(1, "2")):
        assert len(set(g.serre.symbols)) == 2 and b1(g) == 2
        w = proper_quotient_search(g, 4)
        assert set(w.to_json(g)["vertex_maps"]) == set(map(str, g.graph.vertices))
        assert set(w.to_json(g)["stable_images"]) == {str(e) for e, _, _ in g.graph.edges}


def test_corpus_witness_documents_have_an_entry_per_vertex_and_edge():
    for name in corpus.fixture_names():
        g = corpus.load_fixture(name)
        doc = proper_quotient_search(g, corpus.witness_bound(name)).to_json(g)
        assert len(doc["vertex_maps"]) == len(g.graph.vertices), name
        assert len(doc["stable_images"]) == len(g.graph.edges), name


def test_collapse_identity_edge():
    c2 = cyclic(2, 1)
    h = identity_hom(c2)
    g = mk(("u", "w"), (("e", "u", "w"), ("f", "w", "w")),
           {"u": c2, "w": c2}, {"e": c2, "f": c2},
           {"e": h, "f": h}, {"e": h, "f": h})
    out = collapse_iso_edge(g, "e")
    assert out.graph.vertices == ("u",)
    assert [e for e, _, _ in out.graph.edges] == ["f"]
    (eid, a, b) = out.graph.edges[0]
    assert a == b == "u"  # loop rerouted to the kept vertex


def test_collapse_preserves_b1():
    c2, c4 = cyclic(2, 1), cyclic(2, 2)
    inc = hom_from_images(c2, c4, [2])
    iso = identity_hom(c2)
    # chain u -(iso)- w -(proper)- x plus a loop at x
    t = trivial(2)
    chain = mk(
        ("u", "w", "x"),
        (("e", "u", "w"), ("f", "w", "x"), ("l", "x", "x")),
        {"u": c2, "w": c2, "x": c4},
        {"e": c2, "f": c2, "l": t},
        {"e": iso, "f": iso, "l": triv_hom(c4)},
        {"e": iso, "f": inc, "l": triv_hom(c4)},
    )
    collapsed = collapse_iso_edge(chain, "e")
    assert b1(chain) == b1(collapsed)
    assert len(collapsed.graph.vertices) == 2


def test_reduce_gog_reaches_fixpoint():
    c2 = cyclic(2, 1)
    iso = identity_hom(c2)
    g = mk(("a", "b", "c"), (("e0", "a", "b"), ("e1", "b", "c")),
           {"a": c2, "b": c2, "c": c2}, {"e0": c2, "e1": c2},
           {"e0": iso, "e1": iso}, {"e0": iso, "e1": iso})
    out = reduce_gog(g)
    assert _iso_edge(out) is None
    assert b1(out) == b1(g)


def test_collapse_rejects_loop_and_non_iso():
    g = c4_amalgam()
    with pytest.raises(GogError):
        collapse_iso_edge(g, "e")  # C2 -> C4 is not bijective
    t = trivial(2)
    loop = mk(("v",), (("e", "v", "v"),), {"v": t}, {"e": t},
              {"e": triv_hom(t)}, {"e": triv_hom(t)})
    with pytest.raises(GogError):
        collapse_iso_edge(loop, "e")


def _assert_serre_counts(g, pres):
    # Serre's presentation: a letter for each edge off the maximal tree
    assert len(g.tree) == len(g.graph.vertices) - 1
    assert not {("t", e) for e in g.tree} & set(pres.symbols)
    vertex_gens = sum(len(grp.generators) for grp in g.vertex_groups.values())
    assert len(pres.symbols) == vertex_gens + len(g.graph.edges) - len(g.graph.vertices) + 1


def test_presentation_bouquet_is_free():
    g = bouquet(3)
    pres = presentation(g)
    assert pres.symbols == (("t", "e0"), ("t", "e1"), ("t", "e2"))
    assert pres.edge_relators == () and g.fox_bases == {}
    _assert_serre_counts(g, pres)


def _assert_c2_basis(g, vid):
    # the cocycle equation of C2 = <a | a^2> is d(a^2)/da = 1 + a
    assert g.fox_bases[vid].tolist() == [[1, 1]]


def test_presentation_c2_star_c2():
    g = c2_star_c2()
    pres = presentation(g)
    assert len(pres.symbols) == 2  # a, b; the tree edge has no letter
    assert pres.edge_relators == ()  # the edge group is trivial
    assert list(g.fox_bases) == ["u", "w"]
    _assert_c2_basis(g, "u")
    _assert_c2_basis(g, "w")
    _assert_serre_counts(g, pres)


def test_presentation_loop_at_c2():
    c2 = cyclic(2, 1)
    t = trivial(2)
    g = mk(("v",), (("e", "v", "v"),), {"v": c2}, {"e": t},
           {"e": triv_hom(c2)}, {"e": triv_hom(c2)})
    pres = presentation(g)
    assert set(pres.symbols) == {("v", "v", 0), ("t", "e")}
    assert pres.edge_relators == ()
    _assert_c2_basis(g, "v")
    _assert_serre_counts(g, pres)


def test_presentation_generator_and_tree_counts():
    for g in (c2_star_c2(), c4_amalgam(), bouquet(2)):
        _assert_serre_counts(g, presentation(g))
    # the tree edge of C4 *_C2 C4 relates a^2 to b^2 with no letter between
    a, b = ("v", "u", 0), ("v", "w", 0)
    assert presentation(c4_amalgam()).edge_relators == (((a, 1), (a, 1), (b, -1), (b, -1)),)


def test_b1_examples():
    assert b1(bouquet(1)) == 1
    assert b1(bouquet(2)) == 2
    assert b1(bouquet(3)) == 3
    assert b1(c2_star_c2()) == 2
    single_c4 = mk(("v",), (), {"v": cyclic(2, 2)}, {}, {}, {})
    assert b1(single_c4) == 1  # dim Hom(C4, F_2)


def test_witness_search_c2_star_c2():
    g = c2_star_c2()
    w = proper_quotient_search(g, 16)
    w.verify(g)
    assert w.is_surjective(g)
    assert all(is_injective(h) for h in w.vertex_maps.values())


def test_witness_search_amalgam_minimal():
    g = c4_amalgam()
    w = proper_quotient_search(g, 16)
    assert w.quotient.order == 4  # both C4s inject into C4 itself
    w.verify(g)


def test_witness_search_exact_order():
    g = c4_amalgam()
    w = proper_quotient_search(g, 16, exact_order=8)
    assert w.quotient.order in (4, 8)  # may shrink to the generated image
    w.verify(g)


def test_witness_search_loop_trivial():
    g = bouquet(1)
    w = proper_quotient_search(g, 4)
    w.verify(g)
    assert w.quotient.order == 1  # trivial quotient is a valid minimal witness


def test_witness_not_found_within_bound():
    q8 = quaternion8()
    c4 = cyclic(2, 2)
    inc = hom_from_images(c4, q8, [2])
    g = mk(("u", "w"), (("e", "u", "w"),), {"u": q8, "w": q8}, {"e": c4},
           {"e": inc}, {"e": inc})
    with pytest.raises(NotFoundWithinBound):
        proper_quotient_search(g, 4)


def test_witness_verify_rejects_broken_relator():
    g = c4_amalgam()
    c4 = g.vertex_groups["u"]
    P = cyclic(2, 2)
    bad = ProperWitness(
        P,
        {"u": hom_from_images(c4, P, [1]), "w": hom_from_images(c4, P, [1])},
        {"e": 1},  # tree edge must carry the identity
    )
    with pytest.raises(GogError):
        bad.verify(g)


def test_free_kernel_rank_examples():
    g = bouquet(3)
    w = ProperWitness(trivial(2), {"v": identity_hom(trivial(2))}, {f"e{i}": 0 for i in range(3)})
    assert free_kernel_rank(g, w) == 3

    cc = c2_star_c2()
    w = proper_quotient_search(cc, 16)
    assert free_kernel_rank(cc, w) == 1
    # the coordinate-inclusion witness at order 4 gives the same rank
    from gogends.fpcore import elementary_abelian

    P = elementary_abelian(2, 2)
    c2 = cc.vertex_groups["u"]
    w4 = ProperWitness(
        P, {"u": hom_from_images(c2, P, [1]), "w": hom_from_images(c2, P, [2])}, {"e": 0}
    )
    w4.verify(cc)
    assert free_kernel_rank(cc, w4) == 1

    amal = c4_amalgam()
    w = proper_quotient_search(amal, 16)
    assert free_kernel_rank(amal, w) == 1


def test_free_kernel_rank_requires_surjective_witness():
    cc = c2_star_c2()
    P = dihedral8()
    c2 = cc.vertex_groups["u"]
    # both maps land in the centre: image is a proper subgroup of D8
    w = ProperWitness(
        P, {"u": hom_from_images(c2, P, [4]), "w": hom_from_images(c2, P, [4])}, {"e": 0}
    )
    w.verify(cc)
    with pytest.raises(GogError):
        free_kernel_rank(cc, w)


def _constraint_sets(src, homs):
    """No constraint, one a middle hom meets on two elements, the identity,
    and one no injective hom meets (a nonidentity element sent to 0)."""
    sets = [(), ((0, 0),)]
    if src.order > 1:
        last = src.order - 1
        if homs:
            h = homs[len(homs) // 2]
            sets.append(((last, h.image[last]), (1, h.image[1])))
        sets.append(((last, 0),))
    return sets


# reference image tuples per pair: larger pairs take seconds on the reference
REFERENCE_TUPLES = 1024


def test_injective_homs_same_sequence_as_reference():
    compared = 0
    for groups in (catalog_groups(2, 16), catalog_groups(3, 27)):
        for src in groups:
            for dst in groups:
                sizes = [sum(1 for y in dst.elements() if src.element_order(g) % dst.element_order(y) == 0)
                         for g in src.generators]
                if dst.order % src.order or prod(sizes) > REFERENCE_TUPLES:
                    continue
                homs = list(injective_homs_reference(src, dst))
                for constraints in _constraint_sets(src, homs):
                    # the reference checks constraints on finished homs
                    expected = [h for h in homs if all(h.image[x] == y for x, y in constraints)]
                    assert list(injective_homs(src, dst, constraints)) == expected, (src.name, dst.name, constraints)
                compared += bool(homs)
    assert compared > 40


def test_injective_homs_degenerate_generators_same_homs():
    # a repeated or identity generator must map to the image its element
    # already has, so neither the reference nor the pruned search repeats
    # a hom
    c4, d8 = cyclic(2, 2), dihedral8()
    sources = [FiniteGroup("C4r", c4.mult, [1, 1], 2), FiniteGroup("D8e", d8.mult, [2, 0, 1], 2)]
    for src in sources:
        for dst in (c4, d8, quaternion8(), cyclic(2, 3)):
            for constraints in ((), ((1, 0),), ((src.generators[-1], dst.order - 1),)):
                expected = list(injective_homs_reference(src, dst, constraints))
                assert list(injective_homs(src, dst, constraints)) == expected
                assert len(set(expected)) == len(expected)


def test_search_hom_checks_pinned(monkeypatch):
    # the generator-order and constraint pruning leave this many complete
    # image tuples for hom_from_images
    calls = []

    def counted(*args):
        calls.append(args)
        return hom_from_images(*args)

    monkeypatch.setattr(gogmod, "hom_from_images", counted)
    g = corpus.load_fixture("heis3_heis3_over_center")
    w = proper_quotient_search(g, 81, exact_order=81)
    w.verify(g)
    assert (w.quotient.name, w.quotient.order) == ("Heis3xC3|27", 27)
    assert len(calls) == 7876
