"""Package-internal imports run one way, from the arithmetic core to the CLI."""

import ast
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
