"""The graph-of-groups JSON document and its one reader.

A document has ``prime`` (an int in ``fpcore.PRIMES``), ``vertices``
(``id``, ``group``) and ``edges`` (``id``, ``from``, ``to``, ``group``,
``inj0``, ``inj1``).  Ids are strings or ints, and no two vertex ids,
nor two edge ids, are equal as strings (``1`` and ``"1"`` would share a
key in a witness document); ``inj0``/``inj1`` list the images of the
edge group's generators in the endpoint groups.  A group is a catalog
spec ``{"type", "params"}`` or an explicit ``{"table",
"generators"}``, at any depth of a ``direct_product`` and always over the
file's prime.

Every raw value is type-checked here, in the pass that builds the groups,
before it reaches ``fpcore``, ``graphs`` or ``gog``; every failure is an
``InputError`` naming its location (``edges[2].inj0``).
"""

from __future__ import annotations

from . import fpcore, graphs
from .gog import GogError, GraphOfGroups


class InputError(ValueError):
    """Parse or validation failure, with a location message."""


# catalog type -> (constructor, number of int params)
_CATALOG = {
    "trivial": (fpcore.trivial, 1),
    "cyclic": (fpcore.cyclic, 2),
    "elementary_abelian": (fpcore.elementary_abelian, 2),
    "dihedral8": (fpcore.dihedral8, 0),
    "quaternion8": (fpcore.quaternion8, 0),
    "heisenberg": (fpcore.heisenberg, 1),
}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _ints(value, where: str) -> list[int]:
    if not isinstance(value, list) or not all(map(_is_int, value)):
        raise InputError(f"{where}: must be a list of ints")
    return value


def _id(value, where: str):
    if not (isinstance(value, str) or _is_int(value)):
        raise InputError(f"{where}: must be a string or an int")
    return value


def _new_id(value, where: str, seen: dict):
    """An id, distinct as a string from the ids in ``seen``, which gains it."""
    value = _id(value, where)
    if str(value) in seen:
        raise InputError(f"{where}: {value!r} and the earlier id {seen[str(value)]!r} are equal as strings")
    seen[str(value)] = value
    return value


def _require(entry: dict, keys, where: str):
    for key in keys:
        if key not in entry:
            raise InputError(f"{where}: missing key {key!r}")


def _table(value, where: str) -> list[list[int]]:
    if not isinstance(value, list) or len(value) > fpcore.MAX_ORDER:
        raise InputError(f"{where}: must be a list of at most {fpcore.MAX_ORDER} rows")
    n = len(value)
    for r, row in enumerate(value):
        if not (isinstance(row, list) and len(row) == n and all(_is_int(x) and 0 <= x < n for x in row)):
            raise InputError(f"{where}[{r}]: must be a list of {n} ints in 0..{n - 1}")
    return value


def group_from_json(spec, prime: int, where: str = "group") -> fpcore.FiniteGroup:
    """The group a spec describes, over ``prime``."""
    if not isinstance(spec, dict):
        raise InputError(f"{where}: group spec must be an object")
    kind = spec.get("type")
    try:
        if "table" in spec:
            name = spec.get("name", "table-group")
            if not isinstance(name, str):
                raise InputError(f"{where}.name: must be a string")
            if "prime" in spec and not (_is_int(spec["prime"]) and spec["prime"] == prime):
                raise InputError(f"{where}.prime: {spec['prime']!r} differs from file prime {prime}")
            table = _table(spec["table"], f"{where}.table")
            gens = _ints(spec.get("generators", []), f"{where}.generators")
            grp = fpcore.FiniteGroup(name, table, gens, prime)
        elif kind == "direct_product":
            factors = spec.get("params")
            if not isinstance(factors, list) or len(factors) != 2:
                raise InputError(f"{where}.params: direct_product takes two group specs")
            a = group_from_json(factors[0], prime, f"{where}.params[0]")
            grp = fpcore.direct_product(a, group_from_json(factors[1], prime, f"{where}.params[1]"))
        elif isinstance(kind, str) and kind in _CATALOG:
            build, arity = _CATALOG[kind]
            params = _ints(spec.get("params", []), f"{where}.params")
            if len(params) != arity:
                raise InputError(f"{where}.params: {kind} takes {arity} params, got {len(params)}")
            grp = build(*params)
        else:
            raise InputError(f"{where}: unknown group type {kind!r}")
    except fpcore.GroupError as exc:
        raise InputError(f"{where}: {exc}") from exc
    if grp.prime != prime:
        raise InputError(f"{where}: group prime {grp.prime} differs from file prime {prime}")
    return grp


def gog_from_json(data) -> GraphOfGroups:
    if not isinstance(data, dict):
        raise InputError("top level must be an object")
    _require(data, ("prime", "vertices", "edges"), "top level")
    prime = data["prime"]
    if not _is_int(prime) or prime not in fpcore.PRIMES:
        raise InputError(f"prime must be the int {' or '.join(map(str, fpcore.PRIMES))}")
    for key in ("vertices", "edges"):
        if not isinstance(data[key], list) or not all(isinstance(x, dict) for x in data[key]):
            raise InputError(f"{key!r} must be a list of objects")
    vertex_ids, vertex_groups, seen_vertices, seen_edges = [], {}, {}, {}
    for i, entry in enumerate(data["vertices"]):
        where = f"vertices[{i}]"
        _require(entry, ("id", "group"), where)
        vid = _new_id(entry["id"], f"{where}.id", seen_vertices)
        vertex_ids.append(vid)
        vertex_groups[vid] = group_from_json(entry["group"], prime, f"{where}.group")
    edges, edge_groups, inj0, inj1 = [], {}, {}, {}
    for i, entry in enumerate(data["edges"]):
        where = f"edges[{i}]"
        _require(entry, ("id", "from", "to", "group", "inj0", "inj1"), where)
        eid = _new_id(entry["id"], f"{where}.id", seen_edges)
        u, v = _id(entry["from"], f"{where}.from"), _id(entry["to"], f"{where}.to")
        if u not in vertex_groups or v not in vertex_groups:
            raise InputError(f"{where}: endpoint references unknown vertex (edge {eid!r})")
        ge = edge_groups[eid] = group_from_json(entry["group"], prime, f"{where}.group")
        for key, target, maps in (("inj0", u, inj0), ("inj1", v, inj1)):
            images = _ints(entry[key], f"{where}.{key}")
            try:
                maps[eid] = fpcore.hom_from_images(ge, vertex_groups[target], images)
            except fpcore.GroupError as exc:
                raise InputError(f"{where}.{key}: {exc} (edge {eid!r})") from exc
        edges.append((eid, u, v))
    try:
        graph = graphs.Graph(tuple(vertex_ids), tuple(edges))
        return GraphOfGroups(graph, prime, vertex_groups, edge_groups, inj0, inj1)
    except (graphs.GraphError, GogError) as exc:
        raise InputError(str(exc)) from exc

