"""Built-in graph-of-groups fixtures.

The corpus spans HNN loops, amalgams, and trees over C2/C4/D8/Q8 at
p = 2 and C3/C9/Heisenberg at p = 3, all reduced.  Each entry carries a
search bound under which its minimal proper witness exists.
"""

from __future__ import annotations

import json
from importlib import resources

from .gog import GraphOfGroups
from .schema import gog_from_json

# name -> order bound for the minimal witness search
FIXTURES = {
    "loop_trivial": 4,
    "bouquet2": 4,
    "bouquet3": 4,
    "c2_c2_free_product": 4,
    "c2_c2_double_edge": 4,
    "hnn_c2_trivial": 4,
    "c4_c4_over_c2": 8,
    "hnn_c4_c2": 8,
    "tree_c4_c4_c4": 8,
    "d8_d8_over_c4": 16,
    "d8_c4_over_c2": 16,
    "q8_q8_over_c4": 16,
    "hnn_q8_c4": 16,
    "hnn_q8_twisted": 16,
    "hnn_d8_reflection": 16,
    "loop_trivial_p3": 9,
    "c3_c3_free_product": 9,
    "c9_c9_over_c3": 9,
    "hnn_c9_c3": 9,
    "tree_c9_c9_c9": 9,
    "heis3_heis3_over_center": 27,
}


def fixture_names() -> list[str]:
    return list(FIXTURES)


def fixture_json(name: str) -> dict:
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}")
    path = resources.files("gogends").joinpath(f"fixtures/{name}.json")
    return json.loads(path.read_text(encoding="utf-8"))


def load_fixture(name: str) -> GraphOfGroups:
    return gog_from_json(fixture_json(name))


def witness_bound(name: str) -> int:
    return FIXTURES[name]

