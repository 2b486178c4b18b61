"""Package-internal imports run one way, from the arithmetic core to the CLI,
the package loads nothing outside the standard library but numpy, and
every definition in it is reached from the program."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import gogends

ORDER = ["fpcore", "fplinalg", "graphs", "gmodules", "cohomology", "gog", "ends", "schema", "corpus", "cli"]
PACKAGE = Path(gogends.__file__).resolve().parent


def internal_imports(path: Path) -> set[str]:
    """Modules of the package that ``path`` imports, at any nesting."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "gogends":
                continue
            parts = (node.module or "").split(".")[1 if node.level == 0 else 0:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "gogends" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_every_module_is_placed_in_the_order():
    # __init__ is the package facade; it re-exports and is imported by all
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


def test_modules_import_only_earlier_modules():
    for i, name in enumerate(ORDER):
        later = internal_imports(PACKAGE / f"{name}.py") - set(ORDER[:i])
        assert not later, f"{name} imports {sorted(later)}, which are not earlier than it in {ORDER}"


def test_runtime_imports_are_stdlib_numpy_and_the_package(package_env):
    # a fresh interpreter, counting only what the import adds to what site startup loaded
    script = (
        "import sys; before = set(sys.modules); import gogends.cli, gogends.corpus; "
        "print(' '.join({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=package_env)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "gogends" in loaded and "numpy" in loaded
    assert loaded - sys.stdlib_module_names - {"numpy", "gogends"} == set()


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
