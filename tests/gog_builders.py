"""Small graphs of groups for the tests: ``mk`` builds one from its
parts, ``triv_hom`` is the map from the trivial group, and ``bouquet(r)``
is r loops at a trivial vertex, whose fundamental group is free of rank r."""

from gogends.fpcore import hom_from_images, trivial
from gogends.gog import GraphOfGroups
from gogends.graphs import Graph


def triv_hom(dst, prime=2):
    return hom_from_images(trivial(prime), dst, [])


def mk(vertices, edges, vg, eg, i0, i1, prime=2):
    return GraphOfGroups(Graph(vertices, edges), prime, vg, eg, i0, i1)


def bouquet(r, prime=2):
    t = trivial(prime)
    return mk(
        ("v",),
        tuple((f"e{i}", "v", "v") for i in range(r)),
        {"v": t},
        {f"e{i}": t for i in range(r)},
        {f"e{i}": triv_hom(t, prime) for i in range(r)},
        {f"e{i}": triv_hom(t, prime) for i in range(r)},
        prime,
    )
