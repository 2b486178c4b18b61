"""The graph-of-groups document reader: group specs and fuzzed documents."""

import copy
import functools
import operator

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gogends.corpus import fixture_json
from gogends.gog import GraphOfGroups
from gogends.schema import InputError, gog_from_json, group_from_json

from schema_reference import gog_to_json

C2 = {"type": "cyclic", "params": [2, 1]}
C2_TABLE = {"name": "C2-table", "table": [[0, 1], [1, 0]], "generators": [1]}


def test_group_spec_dispatch_and_errors():
    assert group_from_json({"type": "cyclic", "params": [2, 3]}, 2).order == 8
    assert group_from_json({"type": "quaternion8"}, 2).name == "Q8"
    assert group_from_json({"type": "direct_product", "params": [C2, C2]}, 2).order == 4
    for bad in (
        {"type": "unknown"},
        {"type": ["cyclic"]},
        {"params": [2, 1]},
        {"type": "cyclic", "params": [2]},  # wrong arity
        {"type": "dihedral8", "params": [2]},
        {"type": "cyclic", "params": [2, 9]},  # exceeds the order cap
        {"type": "direct_product", "params": [C2]},
        {"type": "cyclic", "params": [3, 1]},  # a C3 in a p=2 file
    ):
        with pytest.raises(InputError):
            group_from_json(bad, 2)


def test_table_spec_prime_key_must_match_the_file():
    nested = {"type": "direct_product", "params": [C2, dict(C2_TABLE, prime=2)]}
    assert group_from_json(nested, 2).order == 4
    for prime in (3, 2.0, True, "2"):
        with pytest.raises(InputError, match=r"params\[1\]\.prime"):
            group_from_json({"type": "direct_product", "params": [C2, dict(C2_TABLE, prime=prime)]}, 2)


# -- fuzzing: one node of a valid document replaced by any JSON value ---------

FUZZ_DOCS = [
    fixture_json("hnn_q8_twisted"),
    fixture_json("d8_c4_over_c2"),
    fixture_json("tree_c9_c9_c9"),
    {
        "prime": 2,
        "vertices": [{"id": 0, "group": {"type": "direct_product", "params": [copy.deepcopy(C2_TABLE), C2]}}],
        "edges": [{"id": 1, "from": 0, "to": 0, "group": copy.deepcopy(C2_TABLE), "inj0": [1], "inj1": [2]}],
    },
]

# small ints and the fixtures' own ids keep some mutants valid
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(0, 3)
    | st.sampled_from(["v0", "v1", "e0", "e1"])
    | st.integers(-3, 300)
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
KEYS = st.sampled_from(["id", "type", "params", "table", "generators", "prime", "name"]) | st.text(max_size=6)
JSON_VALUES = SCALARS | st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=8,
)


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
    return doc


def test_fuzz_documents_are_valid():
    for doc in FUZZ_DOCS:
        gog_from_json(doc)


@settings(max_examples=600, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_document_parses_or_raises_input_error(data):
    doc = data.draw(st.sampled_from(FUZZ_DOCS))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    mutated = _replaced(doc, path, data.draw(JSON_VALUES))
    try:
        g = gog_from_json(mutated)
    except InputError:
        return
    assert isinstance(g, GraphOfGroups)
    written = gog_to_json(g)
    assert gog_to_json(gog_from_json(written)) == written
