"""The package's top-level API is what its callers use: every name that
``ellisub/__init__.py`` imports is used somewhere outside the module that
defines it, in another module of the package, a demo or the benchmark.  A
name that only tests use is imported from its own module instead."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ellisub"


def exported() -> dict[str, str]:
    """Each name that ``__init__.py`` imports, with the package module it
    comes from."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name: node.module
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def names_used(path: Path) -> set[str]:
    """The names a file uses: as a name, as an attribute, or as an import
    (the last component of a dotted one)."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return used


def test_every_export_is_used_outside_its_module_and_the_tests():
    by_module = {path.stem: names_used(path) for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py"}
    callers = set().union(*(names_used(path) for folder in ("demos", "bench")
                            for path in (ROOT / folder).glob("*.py")))
    names = exported()
    assert len(names) > 30
    unused = [name for name, module in names.items()
              if name not in callers
              and not any(name in used for stem, used in by_module.items() if stem != module)]
    assert unused == []
