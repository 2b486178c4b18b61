"""Group catalog, subgroup closure, homomorphism extension."""

import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hom_reference import all_subgroups_reference, associative, hom_from_images_reference, injective_homs_reference

from gogends import fpcore
from gogends.fpcore import (
    FiniteGroup,
    GroupError,
    GroupHom,
    ImagesInconsistent,
    Subgroup,
    all_subgroups,
    catalog_groups,
    cyclic,
    dihedral8,
    direct_product,
    elementary_abelian,
    heisenberg,
    hom_from_images,
    is_embedding,
    is_injective,
    quaternion8,
    right_cosets,
    subgroup_as_group,
    subgroup_generated,
    trivial,
)


def test_cyclic_2_1_is_c2():
    g = cyclic(2, 1)
    assert g.order == 2
    assert g.generators == [1]
    assert g.element_order(1) == 2


def test_cyclic_2_2_is_c4():
    g = cyclic(2, 2)
    assert g.order == 4
    assert g.element_order(g.generators[0]) == 4


def test_heisenberg3_exponent_and_noncommutativity():
    g = heisenberg(3)
    assert g.order == 27
    # every element cubes to the identity
    for x in g.elements():
        assert g.element_order(x) in (1, 3)
    a, b = g.generators
    assert g.mult[a, b] != g.mult[b, a]


def test_catalog_order_cap_checked_before_the_power():
    with pytest.raises(GroupError):
        cyclic(2, 9)  # exceeds the order cap
    # an exponent this large must fail without computing prime**k
    for build in (lambda: cyclic(2, 2**70), lambda: elementary_abelian(3, 10**12), lambda: heisenberg(2**70)):
        with pytest.raises(GroupError, match="cap"):
            build()
    with pytest.raises(GroupError, match="prime"):
        cyclic(-2, 10**12)


def test_non_p_group_rejected():
    table = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    with pytest.raises(GroupError):
        fpcore.FiniteGroup("C6", table, [1], 2)


def test_identity_must_be_index_zero():
    # shift the cyclic table so index 0 is no longer the identity
    table = [[(a + b + 1) % 2 for b in range(2)] for a in range(2)]
    with pytest.raises(GroupError):
        fpcore.FiniteGroup("bad", table, [0], 2)


def test_subgroup_generated_examples():
    c4 = cyclic(2, 2)
    assert subgroup_generated(c4, [0]).elements == (0,)
    assert subgroup_generated(c4, [2]).elements == (0, 2)
    q8 = quaternion8()
    sub = subgroup_generated(q8, [2])  # <i>
    assert sub.order == 4
    with pytest.raises(GroupError):
        subgroup_generated(c4, [7])


def test_hom_identity_images():
    c4 = cyclic(2, 2)
    h = hom_from_images(c4, c4, [1])
    assert h.image == (0, 1, 2, 3)


def test_hom_c2_into_c4():
    h = hom_from_images(cyclic(2, 1), cyclic(2, 2), [2])
    assert is_injective(h)
    assert h.image == (0, 2)


def test_hom_c4_onto_c2_kernel():
    h = hom_from_images(cyclic(2, 2), cyclic(2, 1), [1])
    assert not is_injective(h)
    assert [x for x, y in enumerate(h.image) if y == 0] == [0, 2]


def test_hom_inconsistent_q8_to_c4():
    # commuting images force phi(k)^2 = 1, clashing with phi(-1) = g^2
    with pytest.raises(ImagesInconsistent):
        hom_from_images(quaternion8(), cyclic(2, 2), [1, 3])


def test_hom_pairwise_identity_holds():
    d8 = dihedral8()
    c2 = cyclic(2, 1)
    h = hom_from_images(d8, c2, [0, 1])  # kill the rotation, keep the flip
    img = np.array(h.image)
    lhs = np.array([[c2.mult[img[a], img[b]] for b in d8.elements()] for a in d8.elements()])
    assert np.array_equal(lhs, img[d8.mult])


def test_center_inclusion_injective():
    d8 = dihedral8()
    central = [x for x in d8.elements() if (d8.mult[x] == d8.mult[:, x]).all()]
    centre = subgroup_generated(d8, central)
    assert centre.elements == (0, 4)
    grp, incl = subgroup_as_group(centre)
    assert is_injective(incl)
    assert grp.order == 2


def test_injectivity_agrees_with_kernel():
    d8 = dihedral8()
    c2 = cyclic(2, 1)
    for images in ([0, 0], [0, 1], [1, 0], [1, 1]):
        try:
            h = hom_from_images(d8, c2, images)
        except ImagesInconsistent:
            continue
        assert is_injective(h) == (h.image.count(0) == 1)


@pytest.mark.parametrize("src, dst", [
    (trivial(2), cyclic(2, 1)),
    (cyclic(2, 1), cyclic(2, 2)),
    (cyclic(2, 2), cyclic(2, 2)),
    (elementary_abelian(2, 2), dihedral8()),
    (cyclic(3, 1), heisenberg(3)),
], ids=lambda g: g.name)
def test_is_embedding_is_the_whole_table_check(src, dst):
    # every map of the elements, against the homomorphism law on all pairs
    rows, dst_rows = src.rows(), dst.rows()
    found = 0
    for image in itertools.product(dst.elements(), repeat=src.order):
        law = all(image[rows[x][y]] == dst_rows[image[x]][image[y]] for x in src.elements() for y in src.elements())
        expected = law and len(set(image)) == src.order
        assert is_embedding(GroupHom(src, dst, image), src, dst) == expected, image
        found += expected
    assert found == len(list(injective_homs_reference(src, dst)))


def test_is_embedding_rejects_wrong_endpoints_and_images():
    c2, c4 = cyclic(2, 1), cyclic(2, 2)
    inc = hom_from_images(c2, c4, [2])
    assert is_embedding(inc, c2, c4)
    assert not is_embedding(inc, c4, c4)  # wrong source
    assert not is_embedding(inc, c2, dihedral8())  # wrong target
    for image in ((0,), (0, 2, 0), (0, 4), (0, -1)):
        assert not is_embedding(GroupHom(c2, c4, image), c2, c4), image
    # injective, but the involution goes to an element of order 4
    assert not is_embedding(GroupHom(c2, c4, (0, 1)), c2, c4)


def test_all_subgroups_counts():
    assert len(all_subgroups(dihedral8())) == 10
    assert len(all_subgroups(quaternion8())) == 6
    assert len(all_subgroups(cyclic(2, 2))) == 3
    assert len(all_subgroups(elementary_abelian(2, 2))) == 5


def test_all_subgroups_matches_element_join_closure():
    for p, bound in ((2, 32), (3, 27)):
        for G in catalog_groups(p, bound):
            assert all_subgroups(G) == all_subgroups_reference(G), G.name


def test_right_cosets_are_the_right_cosets_of_every_subgroup():
    # the level graph reads these labels as the vertices of X_P and never
    # checks them: x and y share a label exactly when y x^-1 is in K, each
    # coset is named by its least element, and the labelling is stable
    # under the right action of every element of P
    for p, bound in ((2, 16), (3, 27)):
        for G in catalog_groups(p, bound):
            n = G.order
            mult = G.mult.astype(np.intp)
            y_x_inv = mult[:, G.inverses].T  # [x, y] is y x^-1
            for K in all_subgroups(G):
                reps, labels = right_cosets(G, K.elements)
                in_k = np.zeros(n, dtype=bool)
                in_k[list(K.elements)] = True
                assert (in_k[y_x_inv] == (labels[:, None] == labels[None, :])).all(), (G.name, K.elements)
                assert (np.diff(reps) > 0).all() and len(reps) == n // K.order
                assert all(reps[c] == np.flatnonzero(labels == c).min() for c in range(len(reps)))
                moved = labels[mult]  # [x, g] is the label of x g
                assert (moved == moved[reps[labels]]).all(), (G.name, K.elements)


def test_subgroup_as_group_rejects_unclosed_set():
    q8 = quaternion8()
    with pytest.raises(GroupError, match="not closed"):
        subgroup_as_group(Subgroup(q8, (0, 2)))  # i * i = -1 is missing


def test_subgroup_as_group_roundtrip():
    q8 = quaternion8()
    sub = subgroup_generated(q8, [2])
    grp, incl = subgroup_as_group(sub)
    assert grp.order == 4
    for a in grp.elements():
        for b in grp.elements():
            assert incl.image[grp.mult[a, b]] == q8.mult[incl.image[a], incl.image[b]]


def test_catalog_structure():
    names2 = [g.name for g in catalog_groups(2, 16)]
    assert "D8" in names2 and "Q8" in names2 and "C16" in names2
    assert names2[0] == "C1"
    orders = [g.order for g in catalog_groups(2, 16)]
    assert orders == sorted(orders)
    names3 = [g.name for g in catalog_groups(3, 27)]
    assert "Heis3" in names3 and "C27" in names3


def test_catalog_is_built_once_per_bound(monkeypatch):
    first = catalog_groups(2, 16)
    built = []
    real_init = fpcore.FiniteGroup.__init__

    def counted(self, name, *args, **kwargs):
        built.append(name)
        real_init(self, name, *args, **kwargs)

    monkeypatch.setattr(fpcore.FiniteGroup, "__init__", counted)
    again = catalog_groups(2, 16)
    assert built == []
    assert again is not first and all(a is b for a, b in zip(again, first, strict=True))
    again.clear()  # each call hands out its own list
    assert catalog_groups(2, 16) == first
    assert built == []
    cyclic(2, 1)  # a construction outside the catalog is still counted
    assert built == ["C2"]


def test_catalog_invariants_exhaustive():
    for g in catalog_groups(2, 64) + catalog_groups(3, 81):
        # every triple, independently of Light's test at construction
        assert associative(g), g.name
        assert all(g.mult[x, g.inv(x)] == 0 for x in g.elements())
        closure = subgroup_generated(g, g.generators)
        assert closure.order == g.order


def test_non_associative_table_rejected():
    # C256 with two entries of the last row swapped: identity, inverses
    # and generation survive, associativity fails only in the last row
    table = (np.arange(256)[:, None] + np.arange(256)[None, :]) % 256
    table[255, [2, 3]] = table[255, [3, 2]]
    with pytest.raises(GroupError, match="not associative"):
        fpcore.FiniteGroup("bad", table, [1], 2)
    # an order-4 table with identity and self-inverse elements
    small = [[0, 1, 2, 3], [1, 0, 1, 1], [2, 1, 0, 1], [3, 1, 1, 0]]
    with pytest.raises(GroupError, match="not associative"):
        fpcore.FiniteGroup("bad", small, [1, 2, 3], 2)
    # Light's test needs generation, which is checked first: 1 and 2
    # never reach 3
    with pytest.raises(GroupError, match="do not generate"):
        fpcore.FiniteGroup("bad", small, [1, 2], 2)
    # C2 x small with C2's generator listed first: it passes Light's
    # test, so only a later kept generator can reject the table
    c2_small = [[(a1 ^ a2) * 4 + small[b1][b2] for a2 in (0, 1) for b2 in range(4)] for a1 in (0, 1) for b1 in range(4)]
    with pytest.raises(GroupError, match="not associative"):
        fpcore.FiniteGroup("bad", c2_small, [4, 1, 2, 3], 2)


def _swapped_rows(group, rng, count):
    """Tables of the group with two entries of one row swapped, neither
    in the identity row nor in the identity column."""
    n = group.order
    for _ in range(count):
        table = group.mult.copy()
        x = rng.randrange(1, n)
        b, c = rng.sample(range(1, n), 2)
        table[x, [b, c]] = table[x, [c, b]]
        yield table


@pytest.mark.parametrize("prime, max_order", [(2, 32), (3, 27)])
def test_light_test_matches_exhaustive_associativity(prime, max_order):
    rng = random.Random(prime)
    verdicts = set()
    for group in catalog_groups(prime, max_order):
        if group.order < 3:
            continue
        # the unswapped table is the one associative control
        for table in [group.mult, *_swapped_rows(group, rng, 8)]:
            for gens in (group.generators, range(group.order)):
                try:
                    built = fpcore.FiniteGroup("swapped", table, gens, prime)
                except GroupError as exc:
                    if "not associative" not in str(exc):
                        continue  # rejected before Light's test ran
                    built = None
                # the reference checks every triple of the table as given
                expected = associative(SimpleNamespace(mult=table))
                assert (built is not None) == expected, (group.name, gens)
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_table_forms_give_equal_groups():
    # one table as lists, as tuples and as arrays: the group keeps its own
    # rows of Python ints, and equality and the hash read them
    d8 = dihedral8()
    lists = [list(row) for row in d8.rows()]
    forms = [lists, tuple(map(tuple, lists)), np.array(lists, dtype=np.uint16), np.array(lists)]
    groups = [FiniteGroup("D8", form, d8.generators, 2) for form in forms]
    for g in groups:
        assert g == d8 and hash(g) == hash(d8)
        assert g.rows() == d8.rows() and {type(x) for row in g.rows() for x in row} == {int}
        assert g.inverses == d8.inverses and g.words == d8.words
    lists[1][1] = 7  # the caller's table is copied
    assert groups[0] == d8 and groups[0].rows()[1][1] == d8.rows()[1][1] != 7


def test_mult_is_one_uint16_array_of_the_rows():
    for g in (trivial(2), cyclic(2, 8), heisenberg(3), direct_product(quaternion8(), cyclic(2, 5))):
        m = g.mult
        assert m.dtype == np.uint16 and m.shape == (g.order, g.order)
        assert m.tolist() == g.rows()
        assert g.mult is m and not m.flags.writeable


def test_malformed_tables_rejected():
    for table, message in (
        ([[0, 1], [1, 0.0]], "rows of ints"),
        ([[0, 1], 1], "rows of ints"),
        ([[0, 1], [1]], "must be square"),
        ([[0, 1], [1, -1]], "out of range"),
        ([[0, 1], [1, 2]], "out of range"),
        ([[0, 1], [1, 256]], "out of range"),
        ([], "order must be in 1..256"),
    ):
        with pytest.raises(GroupError, match=message):
            FiniteGroup("bad", table, [1], 2)


def test_element_without_inverse_rejected():
    # C2 x {1, z} with z*z = z: associative with an identity, z has no inverse
    table = [[(a1 ^ a2) * 2 + (b1 | b2) for a2 in (0, 1) for b2 in (0, 1)] for a1 in (0, 1) for b1 in (0, 1)]
    with pytest.raises(GroupError, match="element 1 lacks a two-sided inverse"):
        fpcore.FiniteGroup("monoid", table, [1, 2], 2)


# image tuples per catalog pair checked exhaustively; larger pairs are sampled
EXHAUSTIVE_TUPLES = 1024
SAMPLED_TUPLES = 256


def _image_tuples(src, dst, rng):
    k = len(src.generators)
    if dst.order**k <= EXHAUSTIVE_TUPLES:
        return itertools.product(range(dst.order), repeat=k)
    return (tuple(int(v) for v in rng.integers(0, dst.order, size=k)) for _ in range(SAMPLED_TUPLES))


def _assert_same_hom(src, dst, images):
    try:
        expected = hom_from_images_reference(src, dst, images)
    except ImagesInconsistent:
        with pytest.raises(ImagesInconsistent):
            hom_from_images(src, dst, images)
        return False
    assert hom_from_images(src, dst, images) == expected, (src.name, dst.name, images)
    return True


def test_hom_from_images_matches_full_table_reference():
    rng = np.random.default_rng(8)
    for groups in (catalog_groups(2, 16), catalog_groups(3, 27)):
        accepted = rejected = 0
        for src in groups:
            for dst in groups:
                for images in _image_tuples(src, dst, rng):
                    if _assert_same_hom(src, dst, images):
                        accepted += 1
                    else:
                        rejected += 1
        assert accepted and rejected


def test_hom_from_images_degenerate_generators_match_reference():
    # repeated generators and the identity as a generator: the words never
    # use them, but their given images must still agree with the others
    c4, d8 = cyclic(2, 2), dihedral8()
    sources = [
        FiniteGroup("C4r", c4.mult, [1, 1], 2),
        FiniteGroup("C4e", c4.mult, [0, 1], 2),
        FiniteGroup("C4x", c4.mult, [1, 3, 0], 2),
        FiniteGroup("D8r", d8.mult, [2, 0, 1, 2], 2),
    ]
    targets = [c4, elementary_abelian(2, 2), d8, quaternion8(), cyclic(2, 3)]
    for src in sources:
        accepted = 0
        for dst in targets:
            for images in itertools.product(range(dst.order), repeat=len(src.generators)):
                accepted += _assert_same_hom(src, dst, images)
        assert accepted
    # a given image that disagrees is rejected, one that agrees is kept
    for src, images in ((sources[0], [1, 3]), (sources[1], [2, 1]), (sources[2], [1, 1, 0])):
        with pytest.raises(ImagesInconsistent):
            hom_from_images(src, c4, images)
    assert hom_from_images(sources[0], c4, [1, 1]).image == (0, 1, 2, 3)
    assert hom_from_images(sources[1], c4, [0, 1]).image == (0, 1, 2, 3)
    assert hom_from_images(sources[2], c4, [1, 3, 0]).image == (0, 1, 2, 3)


def test_words_are_normal_forms():
    for g in (dihedral8(), quaternion8(), heisenberg(3), direct_product(cyclic(2, 2), cyclic(2, 1))):
        for x in g.elements():
            y = 0
            for gi in g.words[x]:
                y = g.mult[y, g.generators[gi]]
            assert y == x


def test_trivial_group_spec():
    t = trivial(2)
    assert t.order == 1 and t.generators == []
