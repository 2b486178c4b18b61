"""The graph-of-groups document writer: the inverse of ``schema.gog_from_json``.

``gog_to_json`` writes each group as its explicit table and generators,
and each edge map as the images of the edge group's generators.  Round-trip tests read its output back
with the one reader and compare.
"""


def gog_to_json(g) -> dict:
    def spec_of(grp):
        return {
            "name": grp.name,
            "table": [list(map(int, row)) for row in grp.mult],
            "generators": list(grp.generators),
        }

    return {
        "prime": g.prime,
        "vertices": [{"id": v, "group": spec_of(g.vertex_groups[v])} for v in g.graph.vertices],
        "edges": [
            {
                "id": e,
                "from": u,
                "to": v,
                "group": spec_of(g.edge_groups[e]),
                "inj0": [g.inj0[e].image[x] for x in g.edge_groups[e].generators],
                "inj1": [g.inj1[e].image[x] for x in g.edge_groups[e].generators],
            }
            for e, u, v in g.graph.edges
        ],
    }
