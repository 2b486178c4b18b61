"""Package-internal imports run one way, from the arithmetic core to the CLI,
and the package loads nothing outside the standard library but numpy."""

import ast
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
