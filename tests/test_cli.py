"""CLI parsing, serialisation round-trips, subcommands, determinism."""

import json
import subprocess
import sys

import pytest

from gogends import cli
from gogends.cli import WorkbenchConfig, canonical_json, parse_input, run_suite
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


def test_config_validation():
    with pytest.raises(InputError):
        WorkbenchConfig(prime=5)
    # the largest sampled counting run: 256 edges, 257 vertices
    WorkbenchConfig(subcommand="counting", max_edges=256, max_vertices=257)
    WorkbenchConfig(subcommand="counting", max_edges=8, max_vertices=10**9)  # exhaustive: a cap only


def test_run_counting_suite_exit_codes():
    cfg = WorkbenchConfig(prime=2, subcommand="counting", max_edges=4)
    code, report = run_suite(cfg)
    assert code == 0
    assert report["ok"] and report["mode"] == "exhaustive"
    # beyond the exhaustive cap, counting samples instead of rejecting
    code, report = run_suite(WorkbenchConfig(prime=2, subcommand="counting", max_edges=9))
    assert code == 0
    assert report["ok"] and report["mode"] == "sampled"


def test_emit_report_deterministic(tmp_path):
    cfg = WorkbenchConfig(prime=2, subcommand="enumerate", max_edges=3)
    _, rep1 = run_suite(cfg)
    _, rep2 = run_suite(cfg)
    assert canonical_json(rep1) == canonical_json(rep2)


def test_emit_report_no_floats():
    cfg = WorkbenchConfig(prime=2, subcommand="counting", max_edges=3)
    _, report = run_suite(cfg)

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
])
def test_main_mistyped_values_exit_2(tmp_path, capsys, doc, where):
    assert gog_from_json(_c2_loop()).graph.edges  # the unmutated loop document is valid
    assert gog_from_json(_c4_loop_over_generator_listed_twice([1, 1])).graph.edges
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


def test_ends_bound_holds_on_corpus(tmp_path):
    # the ends subcommand at each fixture's witness bound
    for name in fixture_names():
        data = fixture_json(name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        cfg = WorkbenchConfig(prime=data["prime"], subcommand="ends", input_path=str(path),
                              order_bound=witness_bound(name))
        _, reports = run_suite(cfg)
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
    (["enumerate", "--max-edges", "9"], "capped at 8 edges"),
    (["enumerate", "--max-vertices", "0"], "--max-vertices must be at least 1"),
    (["counting", "--max-edges", "-1"], "--max-edges must be at least 0"),
    (["counting", "--max-edges", "3", "--max-vertices", "0"], "--max-vertices must be at least 1"),
    (["counting", "--max-edges", "257"], "capped at 256 edges and 257 vertices"),
    (["counting", "--max-edges", "9", "--max-vertices", "258"], "capped at 256 edges and 257 vertices"),
    (["verify-lemmas", "--max-order", "0"], "--max-order must be at least 1"),
    (["verify-lemmas", "--max-order", "512"], "--max-order must be at most 256"),
    (["ends", "FIXTURE", "--order-bound", "-3"], "--order-bound must be at least 1"),
    (["analyze", "FIXTURE", "--order-bound", "0"], "--order-bound must be at least 1"),
], ids=["enumerate_9_edges", "enumerate_0_vertices", "counting_negative_edges", "counting_0_vertices",
        "sampled_counting_257_edges", "sampled_counting_258_vertices",
        "lemmas_order_0", "lemmas_order_512", "ends_negative_bound", "analyze_zero_bound"])
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
