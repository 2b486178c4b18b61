"""Self-tests of the benchmark harness, on reduced (smoke) inputs.

Run:  PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import random
from pathlib import Path

import pytest

import child
import run
import spans
import workloads
from gogends import cli, cohomology, corpus, ends, fplinalg, gog

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def out_dir(tmp_path):
    return tmp_path


def _attributes():
    """Every attribute of every program module, and the wrapped methods."""
    snapshot = {}
    for module in spans.program_modules():
        for name, value in vars(module).items():
            snapshot[module.__name__, name] = value
    snapshot["FpMatrix.__init__"] = fplinalg.FpMatrix.__dict__["__init__"]
    snapshot["Subspace.reduce"] = fplinalg.Subspace.__dict__["reduce"]
    return snapshot


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_pass_restores_every_wrapped_function(name, out_dir):
    items = workloads.build(name, 1, out_dir, smoke=True)
    before = _attributes()
    tracer = spans.Tracer()
    with tracer:
        # names imported into another module are wrapped there too
        for module, attr in ((ends, "rank"), (cohomology, "rank_profile"), (gog, "catalog_groups"),
                             (ends, "gog_b1"), (corpus, "gog_from_json")):  # fmt: skip
            assert hasattr(getattr(module, attr), "__perfbench_original__"), f"{module.__name__}.{attr}"
        _, outcomes = child.timed_pass(items)
    assert all(o.ok for o in outcomes)
    after = _attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed
    assert not any(hasattr(value, "__perfbench_original__") for value in after.values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_self_times_sum_with_remainder_to_traced_wall(name, out_dir):
    items = workloads.build(name, 1, out_dir, smoke=True)
    wall, _, tracer = child.traced_pass(items)
    own, covered = tracer.self_times()
    assert all(value >= 0 for value in own.values()), own
    remainder = wall - covered
    assert remainder >= 0
    assert sum(own.values()) + remainder == pytest.approx(wall, rel=1e-9, abs=1e-9)


def test_layer_counts_on_graph_and_search_workloads(out_dir):
    for name, elim_free in (("counting", True), ("search", True), ("lemmas", False)):
        items = workloads.build(name, 1, out_dir, smoke=True)
        wall, _, tracer = child.traced_pass(items)
        values = child.layer_metrics(tracer, wall, wall)
        assert (values["fplinalg.elim.calls"] == 0) == elim_free, name
    counting = workloads.build("counting", 1, out_dir, smoke=True)
    wall, _, tracer = child.traced_pass(counting)
    values = child.layer_metrics(tracer, wall, wall)
    assert values["graphs.enumerate_connected_multigraphs.graphs"] == workloads.CONNECTED_MULTIGRAPHS[4]


def _witness_json(levels):
    return [(label, w.to_json(g)) for label, g, w in levels]


def test_same_seed_gives_identical_inputs():
    assert _witness_json(workloads.level_witnesses(random.Random(5), 1)) == _witness_json(
        workloads.level_witnesses(random.Random(5), 1)
    )
    for name in corpus.fixture_names():
        assert workloads.permuted_fixture(name, random.Random(5)) == workloads.permuted_fixture(name, random.Random(5))


def test_different_seed_changes_witnesses_not_dimensions(out_dir):
    a = workloads.level_witnesses(random.Random(1), 1)
    b = workloads.level_witnesses(random.Random(2), 1)
    assert [label for label, _, _ in a] == [label for label, _, _ in b]
    assert _witness_json(a) != _witness_json(b)

    def dims(levels):
        reports = [ends.ends_level(g, w) for _, g, w in levels]
        return [(r.level, r.h1_dim, r.source_dim, r.target_dim, r.kernel_dim) for r in reports]

    assert dims(a) == dims(b)

    docs = {}
    for seed in (1, 2):
        rng = random.Random(seed)
        docs[seed] = [workloads.permuted_fixture(name, rng) for name in corpus.fixture_names()]
    assert docs[1] != docs[2]
    found = {}
    for seed in (1, 2):
        found[seed] = [
            gog.proper_quotient_search(cli.gog_from_json(doc), corpus.witness_bound(name)).quotient.order
            for name, doc in zip(corpus.fixture_names(), docs[seed])
        ]
    assert found[1] == found[2]


def test_wrong_witness_counts_as_failure_and_run_goes_on(out_dir):
    items = workloads.build("levels", 1, out_dir, smoke=True)
    g = corpus.load_fixture("loop_trivial")
    w = workloads.abelian_witness(g, 3, random.Random(1))
    (edge,) = w.stable_images
    # the image of 2 is C4 inside C8: not surjective
    not_surjective = gog.ProperWitness(w.quotient, w.vertex_maps, {edge: 2})
    h = corpus.load_fixture("c2_c2_free_product")
    v = gog.proper_quotient_search(h, corpus.witness_bound("c2_c2_free_product"))
    # a tree edge must carry the identity
    broken = gog.ProperWitness(v.quotient, v.vertex_maps, {e: 1 for e in v.stable_images})
    wrong = [workloads._level_item("not surjective", g, not_surjective), workloads._level_item("broken", h, broken)]
    _, outcomes = child.timed_pass(items[:3] + wrong + items[3:])
    assert [o.label for o in outcomes if not o.ok] == ["not surjective", "broken"]
    assert all(o.error for o in outcomes if not o.ok)
    assert len(outcomes) == len(items) + 2


def test_benchmark_file_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES) == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _, _ in spans.PER_LAYER]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == [(u, b) for _, u, b, _ in spans.PER_LAYER]
    reported = run.end_to_end({"walls": [1.0], "peak_rss_mb": 1.0}, [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in reported.items()}


def test_rref_micro_check_rejects_a_wrong_reduction():
    import numpy as np

    rng = np.random.default_rng(0)
    m = fplinalg.FpMatrix(rng.integers(0, 3, size=(6, 12), dtype=np.uint8), 3)
    reduced, pivots = fplinalg.rref(m)
    assert child._is_rref_of(m, reduced, pivots, rng)
    free = next(c for c in range(m.cols) if c not in pivots)
    data = reduced.data.copy()
    data[0, free] = (int(data[0, free]) + 1) % 3
    assert not child._is_rref_of(m, fplinalg.FpMatrix(data, 3), pivots, rng)


def test_every_run_compares_two_passes():
    calls = []

    def drifting():
        calls.append(None)
        return True, len(calls)

    walls, passes = child.measure([workloads.Item("drifting", drifting)], seconds=0)
    assert len(walls) == len(passes) == child.MIN_PASSES
    checked = child.check_passes(passes)
    assert not checked["deterministic"]
    assert (checked["attempted"], checked["failed"]) == (2, 0)


def test_wrong_workload_size_is_a_failed_item(out_dir):
    items = workloads.build("search", 1, out_dir, smoke=True)
    assert len(items) == workloads.SEARCH_COUNT[1]
    short = workloads._checked_count(items[:-1], len(items), "searches")
    _, outcomes = child.timed_pass(short)
    assert [o.label for o in outcomes if not o.ok] == [f"{len(items) - 1} searches, expected {len(items)}"]

    checks = dict(workloads.LEMMA_CHECKS[1])
    checks[2] -= 1
    _, outcomes = child.timed_pass(workloads._lemma_items(out_dir, workloads.LEMMA_ORDERS[1], checks))
    assert [o.label for o in outcomes if not o.ok] == ["verify-lemmas p=2"]
