"""CLI parsing, serialisation round-trips, subcommands, determinism."""

import argparse
import contextlib
import copy
import functools
import hashlib
import io
import json
import operator
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gogends import cli, ends, fplinalg, graphs
from gogends.cli import canonical_json, parse_input
from gogends.corpus import fixture_json, fixture_names, load_fixture, witness_bound
from gogends.fpcore import FiniteGroup, cyclic, direct_product
from gogends.schema import InputError, gog_from_json

from schema_reference import gog_to_json


MINIMAL = {
    "prime": 2,
    "vertices": [{"id": "v0", "group": {"type": "trivial", "params": [2]}}],
    "edges": [],
}


def test_parse_minimal():
    g = gog_from_json(MINIMAL)
    assert len(g.graph.vertices) == 1 and not g.graph.edges


def test_parse_missing_key():
    with pytest.raises(InputError, match="prime"):
        gog_from_json({"vertices": [], "edges": []})


def test_parse_noninjective_edge_map_names_edge():
    data = {
        "prime": 2,
        "vertices": [
            {"id": "v0", "group": {"type": "cyclic", "params": [2, 1]}},
            {"id": "v1", "group": {"type": "cyclic", "params": [2, 1]}},
        ],
        "edges": [
            {
                "id": "eX",
                "from": "v0",
                "to": "v1",
                "group": {"type": "cyclic", "params": [2, 1]},
                "inj0": [0],
                "inj1": [1],
            }
        ],
    }
    with pytest.raises(InputError, match="eX"):
        gog_from_json(data)


def test_parse_unknown_vertex_reference():
    data = dict(MINIMAL)
    data = json.loads(json.dumps(MINIMAL))
    data["edges"] = [
        {"id": "e0", "from": "v0", "to": "nope", "group": {"type": "trivial", "params": [2]},
         "inj0": [], "inj1": []}
    ]
    with pytest.raises(InputError, match="nope|unknown"):
        gog_from_json(data)


def test_roundtrip_all_fixtures():
    for name in fixture_names():
        g = gog_from_json(fixture_json(name))
        again = gog_to_json(g)
        # parse(serialize(g)) is structurally identical
        g2 = gog_from_json(again)
        assert g2.vertex_groups == g.vertex_groups and g2.edge_groups == g.edge_groups, name
        assert canonical_json(gog_to_json(g2)) == canonical_json(again), name


def test_table_form_group_roundtrip(tmp_path):
    data = {
        "prime": 2,
        "vertices": [
            {
                "id": "v0",
                "group": {
                    "name": "C2-table",
                    "table": [[0, 1], [1, 0]],
                    "generators": [1],
                },
            }
        ],
        "edges": [],
    }
    g = gog_from_json(data)
    assert g.vertex_groups["v0"].order == 2
    again = gog_to_json(g)
    assert again["vertices"][0]["group"]["table"] == [[0, 1], [1, 0]]


def test_nested_table_group_roundtrip():
    # a table factor inside direct_product needs no "prime" key
    table_c2 = {"name": "C2-table", "table": [[0, 1], [1, 0]], "generators": [1]}
    group = {"type": "direct_product", "params": [table_c2, {"type": "cyclic", "params": [2, 1]}]}
    data = {"prime": 2, "vertices": [{"id": "v0", "group": group}], "edges": []}
    grp = direct_product(FiniteGroup("C2-table", table_c2["table"], [1], 2), cyclic(2, 1))
    g = gog_from_json(data)
    assert g.vertex_groups["v0"] == grp
    written = gog_to_json(g)
    again = gog_from_json(written)
    assert again.vertex_groups["v0"] == grp
    assert canonical_json(gog_to_json(again)) == canonical_json(written)


def test_parse_input_file_errors(tmp_path):
    with pytest.raises(InputError):
        parse_input(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError):
        parse_input(str(bad))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "\xe9"}')
    with pytest.raises(InputError, match="invalid JSON"):
        parse_input(str(latin1))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    with pytest.raises(InputError, match="nested too deeply"):
        parse_input(str(deep))


def _stub_graph_sources(monkeypatch) -> list:
    """Replace the enumeration and the sampler by one single-vertex graph
    each; returns the list of (source, max_edges, max_vertices) calls."""
    calls = []
    single = graphs.Graph((0,), ())

    def enumerate_stub(max_edges, max_vertices):
        calls.append(("enumerate", max_edges, max_vertices))
        return iter([single])

    def sample_stub(rng, max_edges, max_vertices):
        calls.append(("sample", max_edges, max_vertices))
        return single

    monkeypatch.setattr(cli.graphs, "enumerate_connected_multigraphs", enumerate_stub)
    monkeypatch.setattr(cli.graphs, "random_multigraph", sample_stub)
    return calls


def _main_report(tmp_path, argv):
    out = tmp_path / "report.json"
    code = cli.main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_config_validation(tmp_path, monkeypatch):
    # a prime outside fplinalg.PRIMES: test_every_layer_accepts_exactly_the_kernel_primes
    calls = _stub_graph_sources(monkeypatch)
    # the largest sampled counting run: 256 edges, 257 vertices
    code, report = _main_report(tmp_path, ["counting", "--max-edges", "256", "--max-vertices", "257"])
    assert code == 0 and report["mode"] == "sampled"
    assert set(calls) == {("sample", 256, 257)}
    calls.clear()
    # exhaustive: --max-vertices is a cap only
    code, report = _main_report(tmp_path, ["counting", "--max-edges", "8", "--max-vertices", str(10**9)])
    assert code == 0 and report["mode"] == "exhaustive"
    assert calls == [("enumerate", 8, 10**9)]


def test_run_counting_suite_exit_codes(tmp_path):
    code, report = _main_report(tmp_path, ["counting", "--max-edges", "4"])
    assert code == 0
    assert report["ok"] and report["mode"] == "exhaustive"
    # beyond the exhaustive cap, counting samples instead of rejecting
    code, report = _main_report(tmp_path, ["counting", "--max-edges", str(graphs.EXHAUSTIVE_MAX_EDGES + 1)])
    assert code == 0
    assert report["ok"] and report["mode"] == "sampled"


def test_exhaustive_cap_is_read_from_graphs(tmp_path, capsys, monkeypatch):
    cap = graphs.EXHAUSTIVE_MAX_EDGES
    calls = _stub_graph_sources(monkeypatch)
    code, report = _main_report(tmp_path, ["counting", "--max-edges", str(cap)])
    assert code == 0 and report["mode"] == "exhaustive" and calls == [("enumerate", cap, cap + 1)]
    calls.clear()
    code, report = _main_report(tmp_path, ["counting", "--max-edges", str(cap + 1)])
    assert code == 0 and report["mode"] == "sampled" and report["graphs_checked"] == cli.SAMPLES
    assert set(calls) == {("sample", cap + 1, cap + 2)}
    calls.clear()
    assert cli.main(["enumerate", "--max-edges", str(cap + 1)]) == 2
    err = capsys.readouterr().err
    assert f"input error: enumerate is exhaustive and capped at {cap} edges" in err and not calls


def test_emit_report_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert cli.main(["enumerate", "--max-edges", "3", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_emit_report_no_floats(tmp_path):
    _, report = _main_report(tmp_path, ["counting", "--max-edges", "3"])

    def walk(x):
        assert not isinstance(x, float), "reports must stay exact"
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(report)


def test_main_analyze_fixture(tmp_path, capsys):
    path = tmp_path / "fix.json"
    path.write_text(json.dumps(fixture_json("c4_c4_over_c2")), encoding="utf-8")
    out = tmp_path / "report.json"
    code = cli.main(["analyze", str(path), "--levels", "4,8", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert isinstance(reports, list) and len(reports) == 2
    for rep in reports:
        assert rep["bound_holds"] and rep["h1_dim"] == rep["fox_h1_dim"]


def test_main_ends_fixture(tmp_path):
    path = tmp_path / "fix.json"
    path.write_text(json.dumps(fixture_json("hnn_c4_c2")), encoding="utf-8")
    out = tmp_path / "report.json"
    code = cli.main(["ends", str(path), "--order-bound", "8", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 1 and reports[0]["kernel_dim"] == 1


def test_main_input_error_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert cli.main(["analyze", str(missing), "--levels", "4"]) == 2


def test_main_verify_lemmas_small(tmp_path):
    out = tmp_path / "lemmas.json"
    code = cli.main(["verify-lemmas", "--prime", "2", "--max-order", "4", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["status"] == "pass" and rep["findings"] == []


@pytest.mark.parametrize(
    "prime, max_order, digest",
    [(2, 16, "5b8bcd3191cae0b3"), (3, 27, "84d6a39489feb6a7"), (2, 32, "49d89e49463774af")],
)
def test_verify_lemmas_reports_are_pinned(tmp_path, prime, max_order, digest):
    # the lemma inputs of the benchmark (718 and 227 checks, all passing)
    # and the order-32 run; a kernel change that alters a report fails here
    out = tmp_path / "lemmas.json"
    assert cli.main(["verify-lemmas", "--prime", str(prime), "--max-order", str(max_order), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


def test_enumerate_report_is_pinned(tmp_path):
    # the 48 connected multigraphs with at most 4 edges, each with its
    # counting report; a change to the per-graph numbers fails here
    out = tmp_path / "enumerate.json"
    assert cli.main(["enumerate", "--max-edges", "4", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == "c408a11392423b30"


def test_enumerate_report_is_pinned_at_8_edges(tmp_path):
    # every one of the 6,461 graphs with its matching, leaves, Euler
    # characteristic, T and bound: a wrong valence or support that flips
    # no verdict still changes this report
    out = tmp_path / "enumerate.json"
    assert cli.main(["enumerate", "--max-edges", "8", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == "d4ced196e8a33366"


def test_counting_at_the_exhaustive_cap(tmp_path):
    # every one of the 113,045 connected multigraphs with at most 10 edges
    code, report = _main_report(tmp_path, ["counting", "--max-edges", str(graphs.EXHAUSTIVE_MAX_EDGES)])
    assert code == 0 and report["ok"] and report["mode"] == "exhaustive"
    assert (graphs.EXHAUSTIVE_MAX_EDGES, report["graphs_checked"]) == (10, 113045)


def test_exhaustive_counting_report_is_pinned(tmp_path):
    # the counting input of the benchmark: all 6,461 connected multigraphs
    # with at most 8 edges; an enumeration or check that alters it fails here
    out = tmp_path / "counting.json"
    assert cli.main(["counting", "--max-edges", "8", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == "bdea7fff4420a5c3"


@pytest.mark.parametrize("max_edges, seed, digest", [(11, 0, "2fd7f0a2e9340d2a"), (12, 1, "3279bd5417794c73")])
def test_sampled_counting_reports_are_pinned(tmp_path, max_edges, seed, digest):
    # the sampled mode runs the loop of the exhaustive one, intermediates
    # included; every draw is connected, so all 2000 are checked
    out = tmp_path / "counting.json"
    assert cli.main(["counting", "--max-edges", str(max_edges), "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest
    assert json.loads(out.read_text())["graphs_checked"] == 2000


def test_every_layer_accepts_exactly_the_kernel_primes(tmp_path, capsys):
    parser = cli._build_parser()
    for p in range(20):
        doc = dict(MINIMAL, prime=p, vertices=[{"id": "v0", "group": {"type": "trivial", "params": [p]}}])
        if p in fplinalg.PRIMES:
            assert parser.parse_args(["verify-lemmas", "--prime", str(p)]).prime == p
            assert gog_from_json(doc).prime == p
            continue
        with pytest.raises(SystemExit):
            parser.parse_args(["verify-lemmas", "--prime", str(p)])
        with pytest.raises(InputError, match="prime must be the int 2 or 3"):
            gog_from_json(doc)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-lemmas", "--prime", "5"])
    assert exc.value.code == 2
    assert "invalid choice: 5 (choose from 2, 3)" in capsys.readouterr().err
    assert cli.main(["ends", _write(tmp_path, dict(MINIMAL, prime=5))]) == 2
    err = capsys.readouterr().err
    assert "input error: prime must be the int 2 or 3" in err and "Traceback" not in err


def test_main_byte_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert cli.main(["counting", "--max-edges", "4", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("params", [
    pytest.param([1, 2], id="prime_one"),
    pytest.param([2, 1_000_000_000], id="huge_exponent"),
])
def test_main_bad_cyclic_params_exit_2_promptly(tmp_path, package_env, params):
    # a subprocess with a timeout, so that a hang fails the test instead of stalling the suite
    doc = tmp_path / "cyclic.json"
    doc.write_text(json.dumps({
        "prime": 2,
        "vertices": [{"id": "v0", "group": {"type": "cyclic", "params": params}}],
        "edges": [],
    }))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from gogends.cli import main; sys.exit(main())", "ends", str(doc)],
        capture_output=True, text=True, timeout=5, env=package_env,
    )
    assert proc.returncode == 2
    assert "input error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("doc", [
    {"prime": 2, "vertices": [{"id": "a", "group": {"type": "trivial", "params": [2]}}], "edges": 5},
    {"prime": 2, "vertices": "a", "edges": []},
    {"prime": 2, "vertices": [5], "edges": []},
    {"prime": 2, "vertices": [{"id": "a", "group": {"type": "trivial", "params": [2]}}], "edges": ["e"]},
])
def test_main_malformed_vertices_or_edges_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["ends", str(path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "must be a list of objects" in err
    assert "Traceback" not in err


def test_main_disconnected_graph_exits_2(tmp_path, capsys):
    trivial = {"type": "trivial", "params": [2]}
    path = tmp_path / "disconnected.json"
    path.write_text(json.dumps({
        "prime": 2,
        "vertices": [{"id": "a", "group": trivial}, {"id": "b", "group": trivial}],
        "edges": [],
    }), encoding="utf-8")
    assert cli.main(["ends", str(path)]) == 2
    err = capsys.readouterr().err
    assert "input error: graph is not connected" in err
    assert "Traceback" not in err


C2 = {"type": "cyclic", "params": [2, 1]}


def _c2_loop(**edge):
    """A C2 vertex with a C2 loop mapped identically at both ends; keyword
    arguments replace keys of the edge."""
    loop = {"id": "e", "from": "a", "to": "a", "group": C2, "inj0": [1], "inj1": [1]}
    return {"prime": 2, "vertices": [{"id": "a", "group": C2}], "edges": [dict(loop, **edge)]}


def _c2_loops(*ids):
    """``_c2_loop`` with one loop for each id."""
    return dict(_c2_loop(), edges=[_c2_loop(id=eid)["edges"][0] for eid in ids])


def _one_vertex(group, prime=2, vid="a"):
    return {"prime": prime, "vertices": [{"id": vid, "group": group}], "edges": []}


def _c4_loop_over_generator_listed_twice(inj0):
    """A C4 vertex with a loop whose edge group is C4 with its generator
    listed twice; the images of both entries must agree."""
    c4_twice = {"table": [[(i + j) % 4 for j in range(4)] for i in range(4)], "generators": [1, 1]}
    loop = {"id": "e", "from": "a", "to": "a", "group": c4_twice, "inj0": inj0, "inj1": [1, 1]}
    return dict(_one_vertex({"type": "cyclic", "params": [2, 2]}), edges=[loop])


@pytest.mark.parametrize("doc, where", [
    pytest.param(_one_vertex(C2, vid=[1]), "vertices[0].id", id="vertex_id_list"),
    pytest.param(_c2_loop(id=["e"]), "edges[0].id", id="edge_id_list"),
    pytest.param(_c2_loop(inj0="x"), "edges[0].inj0", id="inj0_string"),
    pytest.param(_c2_loop(inj0=[1.9]), "edges[0].inj0", id="inj0_float"),
    pytest.param(_c2_loop(inj0=[True]), "edges[0].inj0", id="inj0_bool"),
    pytest.param(_one_vertex(C2, prime=2.0), "prime", id="prime_float"),
    pytest.param(_one_vertex({"table": [[0, 1], [1, -1]], "generators": [1]}),
                 "vertices[0].group.table[1]", id="table_entry_negative"),
    pytest.param(_one_vertex({"table": [[0, 1], [1, 0]], "generators": "1"}),
                 "vertices[0].group.generators", id="generators_string"),
    pytest.param(_c4_loop_over_generator_listed_twice([1, 3]), "edges[0].inj0", id="repeated_generator_two_images"),
    # a witness document keys its maps by str(id), so 1 and "1" would share a key
    pytest.param(_c2_loops(1, "1"), "edges[1].id: '1' and the earlier id 1 are equal as strings",
                 id="edge_ids_equal_as_strings"),
    pytest.param(dict(_c2_loop(**{"from": 1, "to": "1"}), vertices=[{"id": 1, "group": C2}, {"id": "1", "group": C2}]),
                 "vertices[1].id: '1' and the earlier id 1 are equal as strings", id="vertex_ids_equal_as_strings"),
])
def test_main_mistyped_values_exit_2(tmp_path, capsys, doc, where):
    assert gog_from_json(_c2_loop()).graph.edges  # the unmutated loop document is valid
    assert gog_from_json(_c4_loop_over_generator_listed_twice([1, 1])).graph.edges
    assert len(gog_from_json(_c2_loops(1, "2")).graph.edges) == 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["ends", str(path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and where in err
    assert "Traceback" not in err


def test_main_ends_finds_the_d8_witness_of_a_klein_loop(tmp_path):
    # a C2 loop conjugating one coordinate generator of C2 x C2 into the
    # other: an abelian quotient has no stable letter for it (conjugate
    # images are equal), D8 has one, but not at its first pair of maps
    klein = {"type": "elementary_abelian", "params": [2, 2]}
    doc = _one_vertex(klein)
    doc["edges"] = [{"id": "e", "from": "a", "to": "a", "group": C2, "inj0": [1], "inj1": [2]}]
    out = tmp_path / "report.json"
    assert cli.main(["ends", _write(tmp_path, doc), "--order-bound", "32", "--out", str(out)]) == 0
    (report,) = json.loads(out.read_text())
    assert report["level"] == 8 and report["h1_dim"] == report["fox_h1_dim"] == 3


def test_main_ends_without_a_witness_in_the_catalog_exits_1(tmp_path, capsys):
    # a C4 loop that inverts its vertex group: no group of order 4 has a
    # letter for it, and D8 has one
    c4 = {"type": "cyclic", "params": [2, 2]}
    doc = _one_vertex(c4)
    doc["edges"] = [{"id": "e", "from": "a", "to": "a", "group": c4, "inj0": [1], "inj1": [3]}]
    path = _write(tmp_path, doc)
    assert cli.main(["ends", path, "--order-bound", "4"]) == 1
    assert capsys.readouterr().err == "error: no witness in the catalog with order <= 4\n"
    out = tmp_path / "report.json"
    assert cli.main(["ends", path, "--order-bound", "8", "--out", str(out)]) == 0
    (report,) = json.loads(out.read_text())
    assert report["level"] == 8


def test_ends_bound_holds_on_corpus(tmp_path):
    # the ends subcommand at each fixture's witness bound
    for name in fixture_names():
        path = _write(tmp_path, fixture_json(name), f"{name}.json")
        code, reports = _main_report(tmp_path, ["ends", path, "--order-bound", str(witness_bound(name))])
        assert code == 0, name
        for rep in reports:
            assert rep["bound_holds"], name
            assert rep["matching_le_gen"], name


def _write(tmp_path, doc, name="doc.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_main_levels_are_checked_against_the_file_prime(tmp_path, capsys):
    p2 = _write(tmp_path, fixture_json("c4_c4_over_c2"), "p2.json")
    assert cli.main(["analyze", p2, "--levels", "6"]) == 2
    assert "input error: level 6 is not a power of 2" in capsys.readouterr().err
    assert cli.main(["analyze", p2, "--levels", "4,x"]) == 2
    err = capsys.readouterr().err
    assert "input error: --levels entry 'x' is not an integer" in err and "Traceback" not in err
    p3 = _write(tmp_path, fixture_json("tree_c9_c9_c9"), "p3.json")
    out = tmp_path / "report.json"
    assert cli.main(["analyze", p3, "--levels", "9,27", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 2 and all(r["h1_dim"] == r["fox_h1_dim"] for r in reports)
    # the prime comes from the file: analyze and ends take no --prime
    for argv in (["analyze", p3, "--prime", "3"], ["ends", p3, "--prime", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_main_level_below_a_vertex_group_order_exits_2(tmp_path, capsys):
    # every vertex group injects into a witness, so a smaller level is an input error
    path = _write(tmp_path, fixture_json("hnn_c4_c2"))
    for levels in ("1", "2", "8,2"):
        assert cli.main(["analyze", path, "--levels", levels]) == 2
        err = capsys.readouterr().err
        assert f"input error: level {levels[-1]} is below the largest vertex-group order 4" in err
        assert "Traceback" not in err
    assert cli.main(["analyze", path, "--levels", "4"]) == 0


def test_main_level_1_on_trivial_vertex_groups(tmp_path):
    path = _write(tmp_path, fixture_json("loop_trivial"))
    out = tmp_path / "report.json"
    assert cli.main(["analyze", path, "--levels", "1", "--out", str(out)]) == 0
    (report,) = json.loads(out.read_text())
    assert report["level"] == 1 and report["h1_dim"] == report["fox_h1_dim"] == 1


@pytest.mark.parametrize("group", [{"type": "trivial", "params": [2]}, C2], ids=["trivial", "c2"])
def test_main_edgeless_graph_exits_2(tmp_path, capsys, group):
    # the edge-count bound needs an edge: b1 - 1 = -1 on a finite group
    assert cli.main(["ends", _write(tmp_path, _one_vertex(group))]) == 2
    err = capsys.readouterr().err
    assert "input error: the graph of groups needs at least one edge" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--max-edges", "11"], "capped at 10 edges"),
    (["enumerate", "--max-vertices", "0"], "--max-vertices must be at least 1"),
    (["counting", "--max-edges", "-1"], "--max-edges must be at least 0"),
    (["counting", "--max-edges", "3", "--max-vertices", "0"], "--max-vertices must be at least 1"),
    (["counting", "--max-edges", "257"], "capped at 256 edges and 257 vertices"),
    (["counting", "--max-edges", "11", "--max-vertices", "258"], "capped at 256 edges and 257 vertices"),
    (["verify-lemmas", "--max-order", "0"], "--max-order must be at least 1"),
    (["verify-lemmas", "--max-order", "512"], "--max-order must be at most 256"),
    (["ends", "FIXTURE", "--order-bound", "-3"], "--order-bound must be at least 1"),
    (["analyze", "FIXTURE", "--order-bound", "0"], "--order-bound must be at least 1"),
    # the fixture's largest vertex group has order 4, as with --levels 2
    (["ends", "FIXTURE", "--order-bound", "2"], "level 2 is below the largest vertex-group order 4"),
    (["analyze", "FIXTURE", "--order-bound", "2"], "level 2 is below the largest vertex-group order 4"),
    # given but empty: no --order-bound run stands in for the levels asked
    (["analyze", "FIXTURE", "--levels", ""], "--levels needs at least one level"),
    (["analyze", "FIXTURE", "--levels", ","], "--levels needs at least one level"),
], ids=["enumerate_11_edges", "enumerate_0_vertices", "counting_negative_edges", "counting_0_vertices",
        "sampled_counting_257_edges", "sampled_counting_258_vertices",
        "lemmas_order_0", "lemmas_order_512", "ends_negative_bound", "analyze_zero_bound",
        "ends_bound_below_vertex_group", "analyze_bound_below_vertex_group",
        "analyze_empty_levels", "analyze_comma_levels"])
def test_main_graph_and_order_arguments_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    # checked before any graph is built or any enumeration or search starts,
    # with no default swapped in
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for name in ("random_multigraph", "enumerate_connected_multigraphs", "verify_counting_lemma"):
        monkeypatch.setattr(cli.graphs, name, unreachable)
    for module, name in ((cli.fpcore, "catalog_groups"), (cli.gogmod, "proper_quotient_search")):
        monkeypatch.setattr(module, name, unreachable)
    fixture = _write(tmp_path, fixture_json("hnn_c4_c2"))
    assert cli.main([fixture if a == "FIXTURE" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert "input error: " in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["counting", "--max-edges", "2", "--out", "MISSING"],
    ["ends", "FIXTURE", "--order-bound", "8", "--witness-out", "MISSING"],
], ids=["out", "witness_out"])
def test_main_unwritable_output_exits_2(tmp_path, capsys, argv):
    missing = str(tmp_path / "no-such-dir" / "x.json")
    fixture = _write(tmp_path, fixture_json("hnn_c4_c2"))
    argv = [{"MISSING": missing, "FIXTURE": fixture}.get(a, a) for a in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"input error: cannot write {missing}" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name", ["hnn_c4_c2", "tree_c9_c9_c9"])
def test_analyze_and_ends_write_identical_files(tmp_path, name):
    # one registration and one runner: without --levels, analyze is ends
    path = _write(tmp_path, fixture_json(name))
    written = []
    for sub in ("ends", "analyze"):
        out, witness = tmp_path / f"{sub}.json", tmp_path / f"{sub}-witness.json"
        argv = [sub, path, "--order-bound", str(witness_bound(name)), "--out", str(out), "--witness-out", str(witness)]
        assert cli.main(argv) == 0
        written.append((out.read_bytes(), witness.read_bytes()))
    assert written[0] == written[1]


def test_analyze_builds_the_graph_level_data_once(tmp_path, monkeypatch):
    # the presentation, each vertex group's Fox basis, gen_count, b1 and
    # M(X) belong to the graph of groups: four levels, one presentation,
    # one rref per vertex, one b1, one rank of the |E| x |V| matrix W and
    # one matching (gog imports rref and rank from fplinalg when it calls
    # them)
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    def rank(m, real=fplinalg.rank):
        if (m.rows, m.cols) == (1, 2):  # W: one edge, two vertices
            calls.append("rank W")
        return real(m)

    for module, name in ((cli.gogmod, "presentation"), (fplinalg, "rref"), (cli.gogmod, "b1"),
                         (cli.gogmod, "maximum_matching")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(fplinalg, "rank", rank)
    path = _write(tmp_path, fixture_json("c4_c4_over_c2"))
    assert cli.main(["analyze", path, "--levels", "8,16,32,64", "--out", str(tmp_path / "out.json")]) == 0
    assert len(json.loads((tmp_path / "out.json").read_text())) == 4
    assert sorted(calls) == ["b1", "maximum_matching", "presentation", "rank W", "rref", "rref"]


def test_analyze_exits_1_on_a_kernel_dim_the_fox_oracle_rejects(tmp_path, monkeypatch, capsys):
    # dim H^0(G, F_p[P]) from the Fox coboundary is an oracle for kernel_dim
    real = ends.mv_h0_map

    def off_by_one(g, w):
        mv = real(g, w)
        mv.kernel_dim += 1
        return mv

    monkeypatch.setattr(ends, "mv_h0_map", off_by_one)
    assert cli.main(["analyze", _write(tmp_path, fixture_json("hnn_c4_c2")), "--levels", "8"]) == 1
    err = capsys.readouterr().err
    assert "oracle mismatch: MV kernel dim 2 != Fox H^0 dim 1 at level " in err and "Traceback" not in err


# every option of the command line and the subcommands that declare it
OPTIONS = {
    "--out": {"verify-lemmas", "counting", "enumerate", "analyze", "ends"},
    "--prime": {"verify-lemmas"},
    "--max-order": {"verify-lemmas"},
    "--max-edges": {"counting", "enumerate"},
    "--max-vertices": {"counting", "enumerate"},
    "--seed": {"counting"},
    "--levels": {"analyze"},
    "--order-bound": {"analyze", "ends"},
    "--witness-out": {"analyze", "ends"},
}


@pytest.mark.parametrize("sub", ["verify-lemmas", "counting", "verify-counting", "enumerate", "analyze", "ends"])
def test_each_subcommand_takes_exactly_its_options(capsys, sub):
    declared = "counting" if sub == "verify-counting" else sub
    parser = cli._build_parser()
    head = [sub, "F"] if declared in ("analyze", "ends") else [sub]
    for option, owners in OPTIONS.items():
        if declared in owners:
            assert str(vars(parser.parse_args(head + [option, "2"]))[option[2:].replace("-", "_")]) == "2"
            continue
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(head + [option, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 2" in capsys.readouterr().err


# the largest --levels entry, --order-bound and --max-order drawn at each
# prime, so that every run is short
LEVEL_CAP = {2: 16, 3: 27}
GROUP_SPECS = [
    {"type": "cyclic", "params": [2, 3]},
    {"type": "cyclic", "params": [3, 2]},
    {"type": "heisenberg", "params": [3]},
    {"type": "quaternion8", "params": []},
    {"type": "direct_product", "params": [{"type": "dihedral8", "params": []}, {"type": "cyclic", "params": [2, 1]}]},
    {"table": [[0, 1], [1, 0]], "generators": [1]},
]
REPLACEMENTS = st.one_of(
    st.integers(max_value=-1),
    st.sampled_from([2**63, 10**30]),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.lists(st.integers(-1, 8), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-1, 8), max_size=2),
    st.sampled_from(GROUP_SPECS),
)


def _paths(doc, path=()):
    """Every path into a JSON document below its root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _ids_equal_as_strings(doc, key, i, j, n):
    """Give entries i and j of ``doc[key]`` the ids n and str(n), an edge's
    ``from`` and ``to`` following its renamed vertices."""
    entries = doc[key]
    renamed = {entries[i]["id"]: n, entries[j]["id"]: str(n)}
    entries[i]["id"], entries[j]["id"] = n, str(n)
    if key == "vertices":
        for edge in doc["edges"]:
            for end in ("from", "to"):
                edge[end] = renamed.get(edge[end], edge[end])


@st.composite
def mutated_fixture(draw):
    """A fixture document whose ids may be made equal as strings in pairs,
    and then with up to three paths replaced or removed.  Almost every
    mutation makes it an input error, so the unmutated documents are the
    ones that reach the search and the reports."""
    doc = fixture_json(draw(st.sampled_from(fixture_names())))
    prime = doc["prime"]
    pairs = [key for key in ("vertices", "edges") if len(doc[key]) >= 2]
    if pairs and draw(st.booleans()):
        key = draw(st.sampled_from(pairs))
        i, j = draw(st.permutations(range(len(doc[key]))))[:2]
        _ids_equal_as_strings(doc, key, i, j, draw(st.integers(0, 9)))
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        container = functools.reduce(operator.getitem, parents, doc)
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = copy.deepcopy(draw(REPLACEMENTS))  # a later mutation may edit it
    return prime, doc


def _declared_arguments():
    """subcommand -> (its positional dests, its optional actions), as
    ``cli._build_parser`` declares them."""
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: ([a.dest for a in p._actions if not a.option_strings],
               [a for a in p._actions if a.option_strings and a.dest != "help"])
        for name, p in subparsers.choices.items()
    }


DECLARED = _declared_arguments()


@st.composite
def command_lines(draw):
    """A subcommand, a drawn subset of its declared options with small
    values, and for ``analyze`` and ``ends`` a mutated fixture document."""
    sub = draw(st.sampled_from(sorted(DECLARED)))
    positionals, options = DECLARED[sub]
    argv, doc = [sub], None
    if positionals:
        assert positionals == ["input"]
        prime, doc = draw(mutated_fixture())
        argv.append("INPUT")
    else:
        prime = draw(st.sampled_from(next((a.choices for a in options if a.dest == "prime"), [2])))
    bound = st.integers(-1, LEVEL_CAP[prime])
    values = {
        "out": st.sampled_from(["OUT", "MISSING"]),
        "witness_out": st.sampled_from(["WITNESS", "MISSING"]),
        "prime": st.just(prime),
        "max_order": bound,
        "max_edges": st.one_of(st.integers(-1, 6), st.integers(graphs.EXHAUSTIVE_MAX_EDGES + 1, 12)),
        "max_vertices": st.integers(-1, 13),
        "seed": st.integers(0, 2**32),
        "levels": st.lists(st.one_of(bound, st.just("x")), max_size=3).map(lambda xs: ",".join(map(str, xs))),
        "order_bound": bound,
    }
    for action in options:
        if draw(st.booleans()):
            argv += [action.option_strings[0], str(draw(values[action.dest]))]
    return argv, doc


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_main_fuzzed_argv_and_documents_exit_0_1_or_2(case):
    # every subcommand and option that the parser declares, with mutated
    # fixture documents: a verdict or an input error, never a traceback
    argv, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {"OUT": "out.json", "WITNESS": "witness.json", "MISSING": "no-such-dir/x.json", "INPUT": "doc.json"}
        paths = {key: str(Path(tmp) / name) for key, name in files.items()}
        if doc is not None:
            Path(paths["INPUT"]).write_text(json.dumps(doc), encoding="utf-8")
        argv = [paths.get(a, a) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "oracle mismatch" not in err.getvalue(), (argv, doc)
