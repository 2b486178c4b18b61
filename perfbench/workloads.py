"""The benchmark's four workloads: inputs from a seed, items, output checks.

Every workload is a list of items.  An item calls the program only
through its public functions and returns (ok, canonical output); an item
that raises counts as failed and the pass goes on.  Inputs that need
work to construct (witnesses, permuted fixture documents) are built here,
outside the timed region.  The number of lemma checks, levels and
searches is checked against fixed counts, and a wrong count is a failed
item.

    lemmas    cli verify-lemmas at p=2 (order <= 16) and p=3 (order <= 27).
              GF(p) elimination dominates; no seed, the catalog is exhaustive.
    counting  cli counting --max-edges 8 over all 6,461 connected multigraphs.
              Graphs layer only, no GF(p) call: linear-algebra changes must
              read "no change" here.
    levels    ends.ends_level on genuine surjective witnesses up to |P| = 256
              (p=2) and 243 (p=3): MV assembly, Nakayama and Fox dominate.
              The seed picks the character twist or generating tuple.
    search    cli.gog_from_json, then gog.proper_quotient_search at every exact
              level from the fixture's witness bound to 64 (p=2) or 243 (p=3).
              Catalog build and hom backtracking, no elimination.  The seed
              permutes vertex and edge order before parsing.

Left out because they are too long for the number of runs a check makes:
the p=2 order <= 32 lemma suite (about a minute on the numpy kernel) and
searches at 128/256.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gogends import cli, corpus, ends, fpcore
from gogends import gog as gogmod

NAMES = ("lemmas", "counting", "levels", "search")

# exact count of connected multigraphs with at most this many edges
CONNECTED_MULTIGRAPHS = {4: 48, 8: 6461}

# (full, smoke) sizes; smoke sizes keep the self-tests to seconds
LEMMA_ORDERS = ({2: 16, 3: 27}, {2: 8, 3: 9})
# The sizes the inputs above must give.  Part of each size comes from
# program code (the catalog, subgroup lists, searches and lifts), so a
# change that drops work must read as a failed item, not as a speed-up.
LEMMA_CHECKS = ({2: 718, 3: 227}, {2: 174, 3: 40})
LEVEL_COUNT = (61, 50)
SEARCH_COUNT = (83, 26)
COUNTING_EDGES = (8, 4)
TOWER_CAP = ({2: 256, 3: 243}, {2: 16, 3: 27})
SEARCH_CAP = ({2: 64, 3: 243}, {2: 8, 3: 27})
ABELIAN_EXPONENTS = ({2: (6, 7, 8), 3: (3, 4, 5)}, {2: (3,), 3: (2,)})
ABELIAN_FIXTURES = ("loop_trivial", "bouquet2", "bouquet3", "loop_trivial_p3")


@dataclass
class Item:
    label: str
    run: Callable[[], tuple[bool, object]]


@dataclass
class Outcome:
    label: str
    ok: bool
    output: object
    error: str | None = None


def run_item(item: Item) -> Outcome:
    try:
        ok, output = item.run()
    except Exception as exc:  # noqa: BLE001 - a failing item must not end the run
        return Outcome(item.label, False, None, f"{type(exc).__name__}: {exc}")
    return Outcome(item.label, bool(ok), output)


def output_digest(outcomes: list[Outcome]) -> str:
    """sha256 of the canonical JSON list of item outputs, in item order."""
    payload = json.dumps([o.output for o in outcomes], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def build(name: str, seed: int, out_dir: Path, smoke: bool = False) -> list[Item]:
    """The workload's items for this seed; ``smoke`` selects reduced inputs."""
    size = 1 if smoke else 0
    rng = random.Random(seed)
    if name == "lemmas":
        return _lemma_items(out_dir, LEMMA_ORDERS[size], LEMMA_CHECKS[size])
    if name == "counting":
        return [_counting_item(out_dir, COUNTING_EDGES[size])]
    if name == "levels":
        items = [_level_item(label, g, w) for label, g, w in level_witnesses(rng, size)]
        return _checked_count(items, LEVEL_COUNT[size], "levels")
    if name == "search":
        return _checked_count(_search_items(rng, SEARCH_CAP[size]), SEARCH_COUNT[size], "searches")
    raise ValueError(f"unknown workload {name!r}")


def _checked_count(items: list[Item], expected: int, what: str) -> list[Item]:
    """The items, plus one failing item if there are not ``expected`` of them."""
    if len(items) == expected:
        return items
    found = {"expected": expected, "found": len(items)}
    return items + [Item(f"{len(items)} {what}, expected {expected}", lambda: (False, found))]


# -- lemmas and counting: the CLI end to end ---------------------------------


def _cli_item(label: str, argv: list[str], out_path: Path, check) -> Item:
    def run():
        code = cli.main(argv + ["--out", str(out_path)])
        report = json.loads(out_path.read_bytes())
        return code == 0 and check(report), report

    return Item(label, run)


def _lemma_items(out_dir: Path, orders: dict, checks: dict) -> list[Item]:
    def passed(p):
        return lambda report: report["status"] == "pass" and report["checks"] == checks[p] and not report["findings"]

    return [
        _cli_item(
            f"verify-lemmas p={p}",
            ["verify-lemmas", "--prime", str(p), "--max-order", str(orders[p])],
            out_dir / f"lemmas-p{p}.json",
            passed(p),
        )
        for p in (2, 3)
    ]


def _counting_item(out_dir: Path, max_edges: int) -> Item:
    expected = CONNECTED_MULTIGRAPHS[max_edges]

    def passed(report):
        return report["ok"] is True and report["graphs_checked"] == expected

    return _cli_item(
        f"counting {max_edges} edges",
        ["counting", "--max-edges", str(max_edges)],
        out_dir / "counting.json",
        passed,
    )


# -- levels: ends_level on surjective witnesses --------------------------------


def level_witnesses(rng: random.Random, size: int = 0) -> list[tuple[str, gogmod.GraphOfGroups, gogmod.ProperWitness]]:
    """(label, graph of groups, witness) for every level of the workload."""
    out = []
    for name in corpus.fixture_names():
        g = corpus.load_fixture(name)
        w = gogmod.proper_quotient_search(g, corpus.witness_bound(name))
        cap = TOWER_CAP[size][g.prime]
        while w is not None:
            out.append((f"{name}@{w.quotient.order}", g, w))
            w = twisted_lift(g, w, rng) if w.quotient.order * g.prime <= cap else None
    for name in ABELIAN_FIXTURES:
        g = corpus.load_fixture(name)
        for k in ABELIAN_EXPONENTS[size][g.prime]:
            w = abelian_witness(g, k, rng)
            out.append((f"{name}@{w.quotient.order}", g, w))
    return out


def _homs_to(src: fpcore.FiniteGroup, dst: fpcore.FiniteGroup) -> list[fpcore.GroupHom]:
    homs = []
    for images in itertools.product(dst.elements(), repeat=len(src.generators)):
        try:
            homs.append(fpcore.hom_from_images(src, dst, images))
        except fpcore.ImagesInconsistent:
            pass
    return homs


def twisted_lift(g, w, rng: random.Random):
    """A surjective witness onto P x C_p whose vertex maps are the old
    ones twisted by characters to C_p, or None if there is none.  The
    seed orders the candidates, so it picks which twist is returned."""
    p = g.prime
    cp = fpcore.cyclic(p, 1)
    big = fpcore.direct_product(w.quotient, cp)
    vids = list(g.graph.vertices)
    eids = [e for e, _, _ in g.graph.edges]
    characters = [_homs_to(g.vertex_groups[v], cp) for v in vids]
    candidates = list(itertools.product(itertools.product(*characters), itertools.product(range(p), repeat=len(eids))))
    rng.shuffle(candidates)
    for chis, shifts in candidates:
        vertex_maps = {}
        for vid, chi in zip(vids, chis):
            old = w.vertex_maps[vid]
            images = tuple(old.image[x] * p + chi.image[x] for x in old.source.elements())
            vertex_maps[vid] = fpcore.GroupHom(old.source, big, images)
        stable = {e: w.stable_images[e] * p + c for e, c in zip(eids, shifts)}
        cand = gogmod.ProperWitness(big, vertex_maps, stable)
        try:
            cand.verify(g)
        except gogmod.GogError:
            continue
        if cand.is_surjective(g):
            return cand
    return None


def abelian_witness(g, k: int, rng: random.Random) -> gogmod.ProperWitness:
    """Witness of a one-vertex bouquet of loops with trivial groups onto
    C_{p^(k-r+1)} x C_p^(r-1), r the loop count, at a seeded generating tuple."""
    p = g.prime
    (vid,) = g.graph.vertices
    loops = [e for e, _, _ in g.graph.edges]
    P = fpcore.cyclic(p, k - len(loops) + 1)
    for _ in loops[1:]:
        P = fpcore.direct_product(P, fpcore.cyclic(p, 1))
    vertex_maps = {vid: fpcore.GroupHom(g.vertex_groups[vid], P, (0,))}
    while True:
        images = [rng.randrange(P.order) for _ in loops]
        if fpcore.subgroup_generated(P, images).order == P.order:
            return gogmod.ProperWitness(P, vertex_maps, dict(zip(loops, images)))


def _level_item(label: str, g, w) -> Item:
    def run():
        expected = gogmod.free_kernel_rank(g, w)
        report = ends.ends_level(g, w)
        return report.h1_dim == expected, report.to_json()

    return Item(label, run)


# -- search: parse permuted fixtures, search every exact level ------------------


def permuted_fixture(name: str, rng: random.Random) -> dict:
    """The fixture document with its vertices after the first and all its
    edges in a seeded order.  The first vertex, the root of the search's
    spanning tree, is the first one in the file with the smallest group:
    the root alone can change a search's time tenfold (d8_c4_over_c2 at
    64: 0.3 s from D8, 3.2 s from C4, the root this rule picks), and a
    seeded root would make each run's time a coin toss."""
    doc = corpus.fixture_json(name)
    g = cli.gog_from_json(doc)
    vertices = doc["vertices"]
    root = min(vertices, key=lambda v: g.vertex_groups[v["id"]].order)
    rest = [v for v in vertices if v is not root]
    rng.shuffle(rest)
    rng.shuffle(doc["edges"])
    doc["vertices"] = [root] + rest
    return doc


def search_levels(bound: int, prime: int, cap: int) -> list[int]:
    levels = []
    while bound <= cap:
        levels.append(bound)
        bound *= prime
    return levels


def _search_items(rng: random.Random, caps: dict) -> list[Item]:
    items = []
    for name in corpus.fixture_names():
        doc = permuted_fixture(name, rng)
        parsed: dict = {}
        levels = search_levels(corpus.witness_bound(name), doc["prime"], caps[doc["prime"]])
        for i, level in enumerate(levels):
            items.append(Item(f"{name}@{level}", _search_run(doc, parsed, level, parse=i == 0)))
    return items


def _search_run(doc: dict, parsed: dict, level: int, parse: bool):
    """The fixture's first level parses it, inside the timed pass; its
    later levels reuse that parse."""

    def run():
        if parse:
            parsed.clear()
            parsed["g"] = cli.gog_from_json(doc)
        g = parsed["g"]
        w = gogmod.proper_quotient_search(g, level, exact_order=level)
        w.verify(g)
        return w.quotient.order <= level, w.to_json(g)

    return run
