"""Package-internal imports run one way, from the arithmetic core to the CLI,
numpy is loaded only by the linear-algebra layers, the package loads
nothing else outside the standard library, and every definition in it is
reached from the program."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import gogends

ORDER = ["fpcore", "fplinalg", "graphs", "gmodules", "cohomology", "gog", "ends", "schema", "corpus", "cli"]
PACKAGE = Path(gogends.__file__).resolve().parent

# the modules that import numpy when they load
LINEAR_ALGEBRA = {"fplinalg", "gmodules", "cohomology", "ends"}
# (module, function, what it imports when called): the only places where
# code that loads without numpy reaches numpy or the linear-algebra layers
CROSSINGS = {
    ("fpcore", "FiniteGroup.mult", "numpy"),
    ("fpcore", "right_cosets", "numpy"),
    ("gog", "GraphOfGroups.fox_bases", "cohomology"),
    ("gog", "GraphOfGroups.fox_bases", "fplinalg"),
    ("gog", "GraphOfGroups.gen_count", "fplinalg"),
    ("gog", "b1", "fplinalg"),
    ("cli", "run_verify_lemmas", "cohomology"),
    ("cli", "run_analyze", "ends"),
}


def imported(node: ast.AST) -> set[str]:
    """The modules of the package that one statement imports, and "numpy"
    if it imports numpy; empty for any other statement."""
    if isinstance(node, ast.ImportFrom):
        parts = (node.module or "").split(".")
        if node.level == 0:
            if parts[0] != "gogends":
                return {"numpy"} if parts[0] == "numpy" else set()
            parts = parts[1:]
        if parts and parts[0]:
            return {parts[0]}
        return {alias.name for alias in node.names}  # from . import a, b
    found = set()
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "numpy":
                found.add("numpy")
            elif parts[0] == "gogends" and len(parts) > 1:
                found.add(parts[1])
    return found


def internal_imports(path: Path) -> set[str]:
    """Modules of the package that ``path`` imports, at any nesting."""
    return set().union(*map(imported, ast.walk(ast.parse(path.read_text(encoding="utf-8"))))) - {"numpy"}


def imports_by_scope(path: Path) -> tuple[set[str], set[tuple[str, str]]]:
    """What ``path`` imports when it loads (at module level or in a class
    body), and the (qualified function name, module) pairs of what its
    functions import when they are called."""
    at_load, in_calls = set(), set()

    def visit(node, qualname, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qualname}.{child.name}" if qualname else child.name
                visit(child, name, in_function or not isinstance(child, ast.ClassDef))
                continue
            for module in imported(child):
                if in_function:
                    in_calls.add((qualname, module))
                else:
                    at_load.add(module)
            visit(child, qualname, in_function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "", False)
    return at_load, in_calls


def test_every_module_is_placed_in_the_order():
    # __init__ is the package facade; it re-exports and is imported by all
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


def test_modules_import_only_earlier_modules():
    for i, name in enumerate(ORDER):
        later = internal_imports(PACKAGE / f"{name}.py") - set(ORDER[:i])
        assert not later, f"{name} imports {sorted(later)}, which are not earlier than it in {ORDER}"


def test_numpy_is_imported_at_load_only_by_the_linear_algebra_layers():
    crossings = set()
    for path in sorted(PACKAGE.glob("*.py")):
        at_load, in_calls = imports_by_scope(path)
        if path.stem in LINEAR_ALGEBRA:
            assert "numpy" in at_load, path.stem
        else:
            assert not at_load & (LINEAR_ALGEBRA | {"numpy"}), f"{path.stem} loads {sorted(at_load)}"
        crossings.update((path.stem, f, m) for f, m in in_calls if m in LINEAR_ALGEBRA | {"numpy"})
    assert crossings == CROSSINGS


def test_runtime_imports_are_stdlib_and_the_package(package_env):
    # a fresh interpreter, counting only what the import adds to what site startup loaded
    script = (
        "import sys; before = set(sys.modules); import gogends.cli, gogends.corpus; "
        "print(' '.join({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=package_env)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "gogends" in loaded
    assert loaded - sys.stdlib_module_names - {"gogends"} == set()


# run in a fresh interpreter: each step and whether numpy was loaded after it
RUNS_WITHOUT_NUMPY = """
import json, os, sys
from gogends import cli, corpus, gog, schema

steps = []
for argv in (["counting", "--max-edges", "4"], ["enumerate", "--max-edges", "3"], ["ends", "missing.json"]):
    code = cli.main(argv + ["--out", os.devnull])
    steps.append([argv[0], code, "numpy" in sys.modules])
for name in corpus.fixture_names():
    g = schema.gog_from_json(corpus.fixture_json(name))
    json.dumps(gog.proper_quotient_search(g, corpus.witness_bound(name)).to_json(g))
steps.append(["search", 0, "numpy" in sys.modules])
code = cli.main(["verify-lemmas", "--max-order", "4", "--out", os.devnull])
steps.append(["verify-lemmas", code, "numpy" in sys.modules])
print(json.dumps(steps))
"""


def test_graph_subcommands_and_the_witness_search_run_without_numpy(package_env, tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", RUNS_WITHOUT_NUMPY], capture_output=True, text=True, timeout=120, env=package_env, cwd=tmp_path
    )
    assert done.returncode == 0, done.stderr
    assert "input error: cannot read missing.json" in done.stderr
    assert json.loads(done.stdout) == [
        ["counting", 0, False],
        ["enumerate", 0, False],
        ["ends", 2, False],
        ["search", 0, False],
        ["verify-lemmas", 0, True],
    ]


# (module, name) of the imports that no code of their module uses: the
# benchmark reaches them there (its tracer imports every probed module,
# and its self-test finds ``cohomology.rank_profile`` and ``ends.gog_b1``
# to wrap); ROADMAP item 3 empties this set
KEPT_FOR_BENCHMARK = {
    ("cohomology", "gmodules"),
    ("cohomology", "rank_profile"),
    ("ends", "gog_b1"),
}


def test_every_import_is_used():
    # no linter runs on the package, so a name left imported after its
    # last use would go unnoticed
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = {alias.asname or alias.name.partition(".")[0] for alias in node.names}
                unused.update((path.stem, name) for name in bound - used)
    assert unused == KEPT_FOR_BENCHMARK


# Kept although no subcommand calls them yet: ROADMAP item 10 wires
# reduce_gog, and with it collapse_iso_edge, into ``analyze``.
UNCALLED = {"reduce_gog", "collapse_iso_edge"}
BENCHMARK = PACKAGE.parent.parent / "perfbench"


def _names(path: Path) -> dict[str, list[int]]:
    """Every name, attribute name and imported name in the file, with the
    lines it appears on; the package's module names are left out, as they
    name modules."""
    lines: dict[str, list[int]] = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        else:
            continue
        if name not in ORDER:
            lines.setdefault(name, []).append(node.lineno)
    return lines


def _definitions(path: Path):
    """Top-level functions and classes, and the methods of the classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def test_every_definition_is_reached_from_the_program(monkeypatch):
    # Every function, class and method of the package is named by other
    # package code (outside its own body; the re-exports of __init__ do not
    # count) or by the benchmark, whose probes count as naming what they
    # wrap.  Code that only tests call belongs in a tests/*_reference.py
    # module.  Names are matched, not resolved, so a name shared by two
    # definitions keeps both.
    monkeypatch.syspath_prepend(str(BENCHMARK))
    named = {probe.attr.rpartition(".")[2] for probe in importlib.import_module("spans").PROBES}
    for path in BENCHMARK.glob("*.py"):
        if path.name != "test_perfbench.py":
            named.update(_names(path))
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    names = {path: _names(path) for path in modules}
    unreached, defined = [], set()
    for path in modules:
        elsewhere = named.union(*(names[other] for other in modules if other != path))
        for node in _definitions(path):
            defined.add(node.name)
            own = names[path].get(node.name, [])
            if (
                (node.name.startswith("__") and node.name.endswith("__"))
                or node.name in UNCALLED
                or node.name in elsewhere
                or any(not node.lineno <= line <= node.end_lineno for line in own)
            ):
                continue
            unreached.append(f"{path.stem}.{node.name}")
    assert not unreached, f"named only by tests: {unreached}"
    assert UNCALLED <= defined


def test_every_benchmark_probe_names_a_function_of_the_package(monkeypatch):
    # the benchmark wraps these by name, and only its own suite runs it
    monkeypatch.syspath_prepend(str(BENCHMARK))
    for probe in importlib.import_module("spans").PROBES:
        found = importlib.import_module(f"gogends.{probe.module}")
        for part in probe.attr.split("."):
            found = getattr(found, part, None)
        assert callable(found), f"{probe.module}.{probe.attr}"
    # the benchmark's self-test finds these imports by name and expects the
    # functions of the modules they come from
    from gogends import cohomology, corpus, ends, fpcore, fplinalg, gog, schema

    assert ends.rank is fplinalg.rank
    assert ends.gog_b1 is gog.b1
    assert cohomology.rank_profile is fplinalg.rank_profile
    assert gog.catalog_groups is fpcore.catalog_groups
    assert corpus.gog_from_json is schema.gog_from_json
