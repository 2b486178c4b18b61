"""Whole-table homomorphism checks: the reference for the witness search.

``hom_from_images_reference`` evaluates every source element's normal
form word on the generator images and compares the full |src| x |src|
multiplication table.  ``injective_homs_reference`` tries every tuple of
generator images whose orders divide the generators' orders, and checks
injectivity and the constraints on the finished hom.
``fpcore.hom_from_images`` checks generator columns only, and
``gog.injective_homs`` prunes images and constraints as it goes; tests
compare them against these.  ``associative`` is the one-array check of
every triple that ``fpcore.direct_product`` skips at construction.
"""

import numpy as np

from gogends.fpcore import GroupError, GroupHom, ImagesInconsistent, is_injective


def hom_from_images_reference(src, dst, gen_images):
    gen_images = [int(g) for g in gen_images]
    if len(gen_images) != len(src.generators):
        raise GroupError("need one image per source generator")
    for g in gen_images:
        if not 0 <= g < dst.order:
            raise GroupError(f"image {g} out of range")
    image = np.zeros(src.order, dtype=np.int64)
    for x in range(src.order):
        y = 0
        for gi in src.words[x]:
            y = int(dst.mult[y, gen_images[gi]])
        image[x] = y
    lhs = dst.mult[image[:, None], image[None, :]]
    rhs = image[src.mult]
    if not np.array_equal(lhs, rhs):
        raise ImagesInconsistent("generator images do not define a homomorphism")
    return GroupHom(src, dst, tuple(int(v) for v in image))


def injective_homs_reference(src, dst, constraints=()):
    if dst.order % src.order != 0:
        return
    cand = []
    for g in src.generators:
        og = src.element_order(g)
        cand.append([y for y in dst.elements() if og % dst.element_order(y) == 0])

    def rec(i, images):
        if i == len(cand):
            try:
                hom = hom_from_images_reference(src, dst, images)
            except ImagesInconsistent:
                return
            if not is_injective(hom):
                return
            for x, y in constraints:
                if hom.image[x] != y:
                    return
            yield hom
            return
        for y in cand[i]:
            yield from rec(i + 1, images + [y])

    yield from rec(0, [])


def associative(group) -> bool:
    """(a*b)*c == a*(b*c) over every triple, as one n^3 comparison."""
    table = group.mult
    return bool(np.array_equal(table[table], table[:, table]))
