"""Level ends pipeline: MV map dimensions, Fox oracle, known families."""

import functools
import hashlib
import importlib
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from gogends import cohomology, ends, fplinalg, gog as gogmod
from gogends.cli import canonical_json
from gogends.corpus import fixture_names, load_fixture, witness_bound
from gogends.ends import (
    OracleMismatch,
    ends_level,
    h1_via_fox,
    mv_h0_map,
)
from gogends.fpcore import (
    FiniteGroup,
    GroupHom,
    catalog_groups,
    cyclic,
    dihedral8,
    direct_product,
    elementary_abelian,
    heisenberg,
    hom_from_images,
    quaternion8,
    right_cosets,
    trivial,
)
from gogends.fplinalg import Subspace, rank
from gogends.gog import (
    GogError,
    NotFoundWithinBound,
    _iso_edge,
    ProperWitness,
    collapse_iso_edge,
    free_kernel_rank,
    injective_homs,
    presentation,
    proper_quotient_search,
)

from gog_builders import bouquet, mk, triv_hom
from hom_reference import _relator_holds as relator_on_every_element
from hom_reference import cyclic_hom_count, identity_hom, witness_search_reference
from mv_reference import (
    boundary_map,
    cokernel_reference,
    edge_invariant_letters,
    fox_matrix_reference,
    gen_count_closed_form,
    h1_via_fox_reference,
    lifted_witness,
    vertex_basis_reference,
)


def bouquet_witness(g, prime, k):
    P = cyclic(prime, k)
    tau = P.generators[0] if P.order > 1 else 0
    t = trivial(prime)
    return ProperWitness(
        P,
        {"v": hom_from_images(t, P, [])},
        {e: tau for e, _, _ in g.graph.edges},
    )


def test_loop_mv_dimensions():
    # x -> x - t x on F_p[C_p]: rank |P| - 1, kernel 1
    for p, k in ((2, 1), (2, 2), (3, 1)):
        g = bouquet(1, p)
        w = bouquet_witness(g, p, k)
        mv = mv_h0_map(g, w)
        n = p**k
        assert mv.source_dim == n and mv.target_dim == n
        assert mv.rank == n - 1 and mv.kernel_dim == 1
        assert mv.h1_dim == 1


def test_two_c2_vertices_at_klein_witness():
    c2 = cyclic(2, 1)
    t = trivial(2)
    g = mk(("u", "w"), (("e", "u", "w"),), {"u": c2, "w": c2}, {"e": t},
           {"e": triv_hom(c2)}, {"e": triv_hom(c2)})
    P = elementary_abelian(2, 2)
    w = ProperWitness(
        P, {"u": hom_from_images(c2, P, [1]), "w": hom_from_images(c2, P, [2])}, {"e": 0}
    )
    mv = mv_h0_map(g, w)
    assert mv.source_dim == 4 and mv.target_dim == 4
    assert mv.kernel_dim == 1 and mv.h1_dim == 1


def test_c4_amalgam_at_order_eight_witness():
    # the (C4 x C4)/<(g^2, h^2)> level: C4 x C2 with images <a> and <ab>
    c2, c4 = cyclic(2, 1), cyclic(2, 2)
    inc = hom_from_images(c2, c4, [2])
    g = mk(("u", "w"), (("e", "u", "w"),), {"u": c4, "w": c4}, {"e": c2},
           {"e": inc}, {"e": inc})
    P = direct_product(cyclic(2, 2), cyclic(2, 1))
    a, b = 2, 1
    ab = int(P.mult[a, b])
    w = ProperWitness(
        P, {"u": hom_from_images(c4, P, [a]), "w": hom_from_images(c4, P, [ab])}, {"e": 0}
    )
    rep = ends_level(g, w)
    assert rep.source_dim == 4 and rep.target_dim == 4
    assert rep.kernel_dim == 1
    assert rep.h1_dim == 1 and rep.gen_count == 1
    assert rep.bound_rhs == 11 and rep.bound_holds


def test_fox_free_presentation_trivial_level():
    for r in (1, 2, 3):
        g = bouquet(r)
        w = bouquet_witness(g, 2, 0)
        assert h1_via_fox(g, w) == (1, r)


def test_fox_recovers_h1_vanishing_for_c2():
    # single vertex C2, no edges: presentation <a | a^2>; level C2
    c2 = cyclic(2, 1)
    g = mk(("v",), (), {"v": c2}, {}, {}, {})
    w = ProperWitness(c2, {"v": identity_hom(c2)}, {})
    assert h1_via_fox(g, w) == (1, 0)


def test_fox_loop_at_c2_level():
    g = bouquet(1)
    w = bouquet_witness(g, 2, 1)
    assert h1_via_fox(g, w) == (1, 1)


def test_known_family_z_p():
    for p in (2, 3):
        g = bouquet(1, p)
        for k in (1, 2, 3, 4):
            if p**k > 256:
                continue
            rep = ends_level(g, bouquet_witness(g, p, k))
            assert rep.h1_dim == 1 and rep.gen_count == 1
            assert rep.ends_signature == (1, 1)


def test_known_family_free_ranks():
    for r in (1, 2, 3):
        g = bouquet(r)
        for k in (1, 2, 3):
            n = 2**k
            rep = ends_level(g, bouquet_witness(g, 2, k))
            assert rep.h1_dim == (r - 1) * n + 1
            assert rep.kernel_dim == 1
            assert rep.gen_count == r


def test_corpus_oracle_equivalence_and_kernel():
    for name in fixture_names():
        g = load_fixture(name)
        w = proper_quotient_search(g, witness_bound(name))
        assert w.is_surjective(g), name
        rep = ends_level(g, w)  # raises OracleMismatch on disagreement
        assert rep.h1_dim == rep.fox_h1_dim
        # every fixture is reduced and has an edge, so the module of ends is nonzero
        assert _iso_edge(g) is None and g.graph.edges and rep.h1_dim > 0, name
        assert rep.kernel_dim == 1, name
        assert rep.gen_count <= rep.h1_dim
        assert rep.gen_count <= rep.edge_count


def test_fox_h0_counts_the_cosets_of_a_non_surjective_image():
    # the untwisted maps into P x C_2 have image P x 1, of index 2: X_P has
    # two components, and the Fox coboundary two invariant vectors
    g = load_fixture("hnn_c4_c2")
    w = proper_quotient_search(g, witness_bound("hnn_c4_c2"))
    big = direct_product(w.quotient, cyclic(2, 1))
    maps = {vid: GroupHom(hom.source, big, tuple(2 * x for x in hom.image)) for vid, hom in w.vertex_maps.items()}
    doubled = ProperWitness(big, maps, {e: 2 * t for e, t in w.stable_images.items()})
    rep = ends_level(g, doubled)  # raises OracleMismatch on disagreement
    assert rep.kernel_dim == h1_via_fox(g, doubled)[0] == 2


def test_fox_blocks_match_the_full_matrix_on_the_corpus():
    primes = set()
    for name in fixture_names():
        g = load_fixture(name)
        pres = presentation(g)
        w = proper_quotient_search(g, witness_bound(name))
        lifted = lifted_witness(g, w)
        assert lifted is not None and lifted.quotient.order == w.quotient.order * g.prime, name
        for witness in (w, lifted):
            assert h1_via_fox(g, witness) == (1, h1_via_fox_reference(pres, g, witness)), name
        primes.add(g.prime)
    assert primes == {2, 3}


def test_ends_reports_are_pinned():
    # every fixture at its minimal witness and at one lift by C_p; a
    # change to any number of an ends report fails here
    reports = []
    for name in fixture_names():
        g = load_fixture(name)
        w = proper_quotient_search(g, witness_bound(name))
        reports += [ends_level(g, w).to_json(), ends_level(g, lifted_witness(g, w)).to_json()]
    assert hashlib.sha256(canonical_json(reports)).hexdigest()[:16] == "c2943ef0f86339b4"


def _metacyclic(name, n, a):
    """<x, y | x^n, y^2 = x^a, y x y^-1 = x^-1> of order 2n, with x^i y^j
    numbered i + n*j: dihedral for a = 0, generalised quaternion for a = n/2."""
    table = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for i, j, k, m in itertools.product(range(n), range(2), range(n), range(2)):
        # x^i y^j x^k y^m = x^(i + (-1)^j k) y^(j + m), and y^2 = x^a
        power = i + (-1) ** j * k + (a if j + m == 2 else 0)
        table[i + n * j, k + n * m] = power % n + n * ((j + m) % 2)
    return FiniteGroup(name, table, [1, n], 2)


def _one_vertex(group, P, hom):
    g = mk(("v",), (), {"v": group}, {}, {}, {}, group.prime)
    return g, ProperWitness(P, {"v": hom}, {})


def test_translated_vertex_bases_span_the_full_vertex_block():
    # the translates of the block at H must give the row space of the
    # vertex relators over all of P, not just one of the same dimension;
    # in the direct products every right coset of H has a central least
    # element, so D32 and Q32, where <x^4, y> is not normal, are the
    # inputs where h -> hc and h -> ch differ
    d8, q8, heis3 = dihedral8(), quaternion8(), heisenberg(3)
    d32, q32 = _metacyclic("D32", 16, 0), _metacyclic("Q32", 16, 8)
    cases = [(heis3, direct_product(heis3, cyclic(3, 2)), 2)]
    for P in (direct_product(d8, cyclic(2, 2)), direct_product(d8, elementary_abelian(2, 2)), d32):
        cases.append((d8, P, 4))
    for P in (direct_product(q8, cyclic(2, 2)), direct_product(q8, elementary_abelian(2, 2)), q32):
        cases.append((q8, P, 4))
    noncentral = 0
    for group, P, count in cases:
        # every seventh embedding, so the images are not all one subgroup
        for hom in itertools.islice(injective_homs(group, P), 0, 7 * count, 7):
            g, w = _one_vertex(group, P, hom)
            pres = presentation(g)
            n, width = P.order, len(pres.symbols) * P.order
            col = {sym: i * n for i, sym in enumerate(pres.symbols)}
            translated = ends._vertex_rows(g, "v", w, col, width)
            full = fox_matrix_reference(pres, g, w)
            assert Subspace.from_vectors(translated, width, P.prime) == Subspace.from_vectors(full.data, width, P.prime)
            reps, _ = right_cosets(P, hom.image)
            noncentral += any((P.mult[c] != P.mult[:, c]).any() for c in reps)
    assert noncentral


def test_corpus_second_level_where_available():
    for name in fixture_names():
        g = load_fixture(name)
        base = proper_quotient_search(g, witness_bound(name)).quotient.order
        target = base * g.prime
        if target > 64:
            continue
        try:
            w = proper_quotient_search(g, target, exact_order=target)
        except NotFoundWithinBound:
            continue
        if w.quotient.order == base:
            continue  # witness shrank back to the minimal level
        ends_level(g, w)  # oracle equality asserted inside


def test_collapse_invariance_at_common_witness():
    # non-reduced chain: iso edge u -(C2=C2)- w plus an HNN loop at w
    c2 = cyclic(2, 1)
    iso = identity_hom(c2)
    t = trivial(2)
    g = mk(
        ("u", "w"),
        (("e", "u", "w"), ("l", "w", "w")),
        {"u": c2, "w": c2},
        {"e": c2, "l": t},
        {"e": iso, "l": triv_hom(c2)},
        {"e": iso, "l": triv_hom(c2)},
    )
    collapsed = collapse_iso_edge(g, "e")
    P = cyclic(2, 1)
    w_full = ProperWitness(P, {"u": identity_hom(c2), "w": identity_hom(c2)}, {"e": 0, "l": 0})
    w_small = ProperWitness(P, {"u": identity_hom(c2)}, {"l": 0})
    mv_full = mv_h0_map(g, w_full)
    mv_small = mv_h0_map(collapsed, w_small)
    assert mv_full.h1_dim == mv_small.h1_dim
    assert g.gen_count == collapsed.gen_count
    # the iso edge gives W a unit row, so gen_count is |E| - 1, not |E|
    assert _iso_edge(g) == "e"
    assert g.gen_count == gen_count_closed_form(g) == len(g.graph.edges) - 1


def test_wrong_witness_is_rejected_before_mv():
    g = bouquet(1)
    c2 = cyclic(2, 1)
    bad = ProperWitness(c2, {"v": hom_from_images(cyclic(2, 1), c2, [1])}, {"e0": 0})
    with pytest.raises(GogError):
        mv_h0_map(g, bad)  # witness source group mismatches the vertex group
    # a C2 loop mapped identically at both ends: t must centralise the
    # vertex image, and a rotation of D8 does not centralise a reflection
    iso = identity_hom(c2)
    loop = mk(("v",), (("e", "v", "v"),), {"v": c2}, {"e": c2}, {"e": iso}, {"e": iso})
    P = dihedral8()
    r, s = P.generators
    with pytest.raises(GogError, match="conjugation"):
        mv_h0_map(loop, ProperWitness(P, {"v": hom_from_images(c2, P, [s])}, {"e": r}))


def test_witness_map_that_is_not_a_homomorphism_is_rejected_before_mv():
    # (0, 2, 1, 3) is a bijection of C4 that sends its generator to its
    # involution, so it is no automorphism: the witness is refused before
    # the level graph is built, where it would read as the identity's
    c4, t = cyclic(2, 2), trivial(2)
    g = mk(("v",), (("e", "v", "v"),), {"v": c4}, {"e": t}, {"e": triv_hom(c4)}, {"e": triv_hom(c4)})
    bad = ProperWitness(c4, {"v": GroupHom(c4, c4, (0, 2, 1, 3))}, {"e": 1})
    with pytest.raises(GogError, match="vertex 'v': witness map is not an embedding"):
        ends_level(g, bad)
    good = ProperWitness(c4, {"v": identity_hom(c4)}, {"e": 1})
    assert ends_level(g, good).ends_signature == (1, 4)


def _c4_letter(t):
    """A C4 witness of ``bouquet(1)`` whose letter is t."""
    c4 = cyclic(2, 2)
    return ProperWitness(c4, {"v": triv_hom(c4)}, {"e0": t})


@pytest.mark.parametrize("witness, message", [
    pytest.param(ProperWitness(cyclic(2, 1), {}, {}), "vertex 'v': no witness map", id="no_maps"),
    pytest.param(ProperWitness(cyclic(2, 2), {"v": triv_hom(cyclic(2, 2))}, {}),
                 "edge 'e0': no witness letter", id="no_letter"),
    pytest.param(ProperWitness(cyclic(2, 2), {"v": triv_hom(cyclic(2, 2)), "u": triv_hom(cyclic(2, 2))}, {"e0": 1}),
                 "witness map for 'u', which is no vertex", id="extra_map"),
    pytest.param(ProperWitness(cyclic(2, 2), {"v": triv_hom(cyclic(2, 2))}, {"e0": 1, 0: 1}),
                 "witness letter for 0, which is no edge", id="extra_letter"),
    # letters are indices into P's table: -1 would read as element 3, and 4 is past the table
    pytest.param(_c4_letter(-1), "edge 'e0': letter -1 is not an element of the quotient", id="negative_letter"),
    pytest.param(_c4_letter(4), "edge 'e0': letter 4 is not an element of the quotient", id="letter_past_the_order"),
    pytest.param(_c4_letter(True), "edge 'e0': letter True is not an element of the quotient", id="bool_letter"),
    # a quotient of another prime is no level of a graph of groups at p = 2
    pytest.param(ProperWitness(cyclic(3, 1), {"v": triv_hom(cyclic(3, 1))}, {"e0": 1}),
                 "witness quotient is a 3-group, not a 2-group", id="c3_at_p2"),
])
def test_witness_of_the_wrong_shape_is_refused(witness, message):
    g = bouquet(1)
    for call in (lambda g, w: w.verify(g), ends_level, free_kernel_rank):
        with pytest.raises(GogError) as raised:
            call(g, witness)
        assert str(raised.value) == message


def test_a_c4_letter_in_range_is_accepted():
    assert ends_level(bouquet(1), _c4_letter(3)).level == 4


def test_the_relator_check_on_generators_agrees_with_the_whole_edge_group():
    # the search and verify test each edge's relator on the generators of
    # its edge group, the reference on every element: on every fixture,
    # every catalog quotient up to its witness bound, the first tuples of
    # the first injective vertex maps, and every letter of the quotient.
    # Every fixture's edge group is cyclic, so a loop on C2^3 whose C2^2
    # edge group shifts the coordinates adds letters that satisfy the
    # relator on the first generator and not on the second.  Where the
    # relator holds, both sides of the edge are edge-invariant at the coset
    # level, which mv_h0_map relies on.  No letter of those cases moves a
    # side, so a C2 loop mapped identically at both ends adds letters of D8
    # that fail the relator and move a reflection's d1 side
    e4, e8 = elementary_abelian(2, 2), elementary_abelian(2, 3)
    shift = mk(("v",), (("e", "v", "v"),), {"v": e8}, {"e": e4},
               {"e": hom_from_images(e4, e8, [1, 2])}, {"e": hom_from_images(e4, e8, [2, 4])})
    c2 = cyclic(2, 1)
    iso = identity_hom(c2)
    c2_loop = mk(("v",), (("e", "v", "v"),), {"v": c2}, {"e": c2}, {"e": iso}, {"e": iso})
    held = failed = first_only = d1_moved = 0
    # (name, graph of groups, order bound, maps per vertex, map tuples); None takes all
    cases = [(name, load_fixture(name), witness_bound(name), 8, 16) for name in fixture_names()]
    extra = [("shift", shift, 16, None, None), ("c2_loop", c2_loop, 8, None, None)]
    for name, g, bound, per_vertex, tuples in cases + extra:
        for P in catalog_groups(g.prime, bound):
            homs = [list(itertools.islice(injective_homs(g.vertex_groups[vid], P), per_vertex)) for vid in g.graph.vertices]
            for maps in itertools.islice(itertools.product(*homs), tuples):
                maps = dict(zip(g.graph.vertices, maps))
                for eid, u, v in g.graph.edges:
                    pairs = gogmod._edge_pairs(g, maps, eid, u, v)
                    d0_fixed, d1_fixed = edge_invariant_letters(g, P, maps, eid, u, v)
                    for t in P.elements():
                        holds = gogmod._relator_holds(P.rows(), pairs, t)
                        assert holds == relator_on_every_element(g, P, maps, t, eid, u, v), (name, P.name, eid, t)
                        held += holds
                        failed += not holds
                        first_only += not holds and gogmod._relator_holds(P.rows(), pairs[:1], t)
                        assert not holds or d0_fixed[t] and d1_fixed[t], (name, P.name, eid, t)
                        d1_moved += not holds and not d1_fixed[t]
    assert held > 1000 and failed > 500 and first_only > 0 and d1_moved > 0, (held, failed, first_only, d1_moved)


def test_ends_level_makes_four_eliminations_then_two(monkeypatch):
    # per level the Fox cocycle rank in ends and cohomology's h0 for Fox's
    # H^0; on first use the graph of groups adds W and b1, which import
    # rank from fplinalg when they are called: no |P|-sized rank in MV
    # (Fox's per-vertex rref calls are pinned in
    # test_fox_never_eliminates_the_whole_relator_matrix)
    g = load_fixture("hnn_c4_c2")
    w = proper_quotient_search(g, witness_bound("hnn_c4_c2"))
    w_shape = ("gogends.fplinalg", len(g.graph.edges), len(g.graph.vertices))
    for witness, expected in ((w, 4), (lifted_witness(g, w), 2)):
        shapes = []

        def counted(module, real):
            def rank(m):
                shapes.append((module.__name__, m.rows, m.cols))
                return real(m)
            return rank

        with monkeypatch.context() as patch:
            for module in (ends, cohomology, fplinalg):
                patch.setattr(module, "rank", counted(module, module.rank))
            ends_level(g, witness)
        assert len(shapes) == expected, shapes
        names = [name for name, _, _ in shapes]
        assert (names.count("gogends.ends"), names.count("gogends.cohomology")) == (1, 1), shapes
        assert (w_shape in shapes) == (expected == 4), shapes


def test_fox_never_eliminates_the_whole_relator_matrix(monkeypatch):
    # heis3_heis3_over_center at 81 and then 243: one edge relator, and
    # with the 28 table relators of each Heis3 vertex the whole Fox matrix
    # at 243 has 57 * 243 = 13,851 rows and 4 * 243 = 972 columns
    g = load_fixture("heis3_heis3_over_center")
    w = lifted_witness(g, proper_quotient_search(g, witness_bound("heis3_heis3_over_center")))
    levels = [w, lifted_witness(g, w)]
    assert [v.quotient.order for v in levels] == [81, 243] and len(g.serre.edge_relators) == 1
    expected = [mv_h0_map(g, v).h1_dim for v in levels]
    shapes = []

    def recorded(real):
        def eliminate(m):
            shapes.append((real.__name__, m.rows, m.cols))
            return real(m)
        return eliminate

    monkeypatch.setattr(ends, "rank", recorded(ends.rank))
    monkeypatch.setattr(cohomology, "rank", recorded(cohomology.rank))
    monkeypatch.setattr(fplinalg, "rref", recorded(fplinalg.rref))
    assert [h1_via_fox(g, v) for v in levels] == [(1, h1) for h1 in expected]
    # one Heis3 block of cocycle equations per vertex (28 non-tree edges
    # of its Cayley graph x 27, 2 generators x 27),
    # at the first level only; at each level, the stacked rows (28 basis
    # rows per coset of each vertex image and one edge relator x |P|, over
    # the 4 vertex symbols) and the coboundary
    assert shapes == [
        ("rref", 756, 54), ("rref", 756, 54), ("rank", 249, 324), ("rank", 324, 81),
        ("rank", 747, 972), ("rank", 972, 243),
    ]


SMALL_GROUPS = catalog_groups(2, 4)


def _embeds(src, dst):
    return next(injective_homs(src, dst), None) is not None


@st.composite
def small_graphs_of_groups(draw):
    """Connected, at most 3 vertices and 4 edges, groups of order <= 4, p = 2."""
    n = draw(st.integers(1, 3))
    vertex_groups = {f"v{i}": draw(st.sampled_from(SMALL_GROUPS)) for i in range(n)}
    pairs = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    vertex = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(vertex, vertex), min_size=1 if n == 1 else 0, max_size=5 - n))
    edges, edge_groups, inj0, inj1 = [], {}, {}, {}
    for k, (i, j) in enumerate(pairs):
        eid, u, v = f"e{k}", f"v{i}", f"v{j}"
        gu, gv = vertex_groups[u], vertex_groups[v]
        edge_groups[eid] = ge = draw(st.sampled_from([h for h in SMALL_GROUPS if _embeds(h, gu) and _embeds(h, gv)]))
        inj0[eid] = draw(st.sampled_from(list(injective_homs(ge, gu))))
        inj1[eid] = draw(st.sampled_from(list(injective_homs(ge, gv))))
        edges.append((eid, u, v))
    return mk(tuple(vertex_groups), tuple(edges), vertex_groups, edge_groups, inj0, inj1)


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(small_graphs_of_groups())
def test_level_graph_route_on_random_graphs_of_groups(g):
    try:
        w = proper_quotient_search(g, 16)
    except NotFoundWithinBound:
        assume(False)
    mv = mv_h0_map(g, w)
    pres = presentation(g)
    assert mv.h1_dim == h1_via_fox_reference(pres, g, w) == free_kernel_rank(g, w)
    assert h1_via_fox(g, w) == (mv.kernel_dim, mv.h1_dim) == (1, mv.h1_dim)
    fmap, right_perms = boundary_map(g, w)
    assert rank(fmap) == mv.rank
    assert (mv.h1_dim, g.gen_count) == cokernel_reference(w.quotient, fmap, right_perms)
    assert g.gen_count == gen_count_closed_form(g)


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(small_graphs_of_groups())
def test_witness_search_is_complete_over_the_catalog(g):
    expected = witness_search_reference(g, 8)
    if expected is None:
        with pytest.raises(NotFoundWithinBound):
            proper_quotient_search(g, 8)
    else:
        # the same first witness, shrunk to its image the same way
        assert proper_quotient_search(g, 8) == gogmod._shrink_to_image(g, expected)


def test_b1_counts_the_homs_to_cyclic_p_on_the_corpus():
    # p^b1 = |Hom(G, C_p)|, the reference never reading the presentation
    for name in fixture_names():
        g = load_fixture(name)
        assert g.prime ** gogmod.b1(g) == cyclic_hom_count(g), name


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(small_graphs_of_groups())
def test_b1_counts_the_homs_to_cyclic_p_on_random_graphs_of_groups(g):
    assert 2 ** gogmod.b1(g) == cyclic_hom_count(g)


def _redundant_tables():
    """Catalog tables on generating sets with a redundant generator, the
    identity included."""
    c4, e4 = cyclic(2, 2), elementary_abelian(2, 2)
    sets = ((c4, [1, 3]), (c4, [0, 1]), (e4, [1, 2, 3]), (dihedral8(), [2, 1, 3, 5]),
            (quaternion8(), [2, 4, 6]), (heisenberg(3), [9, 3, 1]))  # fmt: skip
    return [FiniteGroup(f"{grp.name} on {gens}", grp.mult, gens, grp.prime) for grp, gens in sets]


def _assert_bases_match_the_table_relators(g):
    assert list(g.fox_bases) == [vid for vid in g.graph.vertices if g.vertex_groups[vid].generators]
    for vid, basis in g.fox_bases.items():
        assert np.array_equal(basis, vertex_basis_reference(g, vid)), (vid, g.vertex_groups[vid].name)


def test_vertex_bases_are_the_table_relators_fox_bases():
    # cohomology's C and the Fox rows of the table relators over F_p[G_v]
    # have the same RREF basis, as both cut out Z^1
    for name in fixture_names():
        _assert_bases_match_the_table_relators(load_fixture(name))
    groups = catalog_groups(2, 64) + catalog_groups(3, 81) + _redundant_tables()
    for grp in groups:
        _assert_bases_match_the_table_relators(mk(("v",), (), {"v": grp}, {}, {}, {}, grp.prime))


def test_b1_counts_the_homs_to_cyclic_p_on_redundant_generating_sets():
    # an amalgam and an HNN loop over C_p on each table
    for grp in _redundant_tables():
        p, cp = grp.prime, cyclic(grp.prime, 1)
        order_p = [hom_from_images(cp, grp, [x]) for x in grp.elements() if grp.element_order(x) == p]
        amalgam = mk(("u", "w"), (("e", "u", "w"),), {"u": grp, "w": grp}, {"e": cp},
                     {"e": order_p[0]}, {"e": order_p[0]}, p)  # fmt: skip
        loop = mk(("v",), (("e", "v", "v"),), {"v": grp}, {"e": cp}, {"e": order_p[0]}, {"e": order_p[-1]}, p)
        for g in (amalgam, loop):
            assert p ** gogmod.b1(g) == cyclic_hom_count(g), grp.name


def _spans(monkeypatch):
    """perfbench/spans.py, imported as the harness imports it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("spans")


def _probed(probe):
    *path, attr = probe.attr.split(".")
    owner = functools.reduce(getattr, path, importlib.import_module(f"gogends.{probe.module}"))
    return owner.__dict__[attr]


def test_benchmark_tracer_wraps_every_probe_and_restores_it(monkeypatch):
    # a probed function that is renamed or deleted fails here, not only in the benchmark
    spans = _spans(monkeypatch)
    originals = [_probed(probe) for probe in spans.PROBES]
    with spans.Tracer():
        for probe, original in zip(spans.PROBES, originals):
            assert _probed(probe).__perfbench_original__ is original, probe.attr
    assert all(_probed(probe) is original for probe, original in zip(spans.PROBES, originals))


def test_benchmark_tracer_reads_the_mv_layer(monkeypatch):
    # perfbench/spans.py wraps ends.mv_h0_map and counts its target_dim
    spans = _spans(monkeypatch)
    g = load_fixture("hnn_c4_c2")
    w = proper_quotient_search(g, witness_bound("hnn_c4_c2"))
    with spans.Tracer() as tracer:
        rep = ends.ends_level(g, w)
    assert tracer.counts["ends.mv_h0_map", "target_dim"] == rep.target_dim > 0
