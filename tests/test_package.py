"""The package defines only what its own code or the benchmark runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Criterion 04's reference, which no sweep reads yet.
ALLOWED = {"analytic.pe_cmd_composition"}


def _statements(path):
    """Each top-level statement of a module with the names it reads, as a
    name or as an attribute (docstrings are constants, so they never count)."""
    return [(stmt, {node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))})
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body]


def test_every_public_definition_has_a_caller():
    """Every public module-level function and class of the package is read
    somewhere in the package other than its own definition and
    __init__.py, or by the benchmark; test-only helpers live in
    tests/oracles.py."""
    package = {path.stem: _statements(path)
               for path in sorted((ROOT / "src" / "qam_mppm").glob("*.py"))
               if path.name != "__init__.py"}
    read = [names for statements in package.values() for _, names in statements]
    bench = {name for path in (ROOT / "perfbench").glob("*.py")
             for _, names in _statements(path) for name in names}
    unused = []
    for module, statements in package.items():
        for stmt, own in statements:
            if (not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    or stmt.name.startswith("_") or f"{module}.{stmt.name}" in ALLOWED):
                continue
            if stmt.name not in bench and not any(stmt.name in names for names in read
                                                  if names is not own):
                unused.append(f"{module}.{stmt.name}")
    assert not unused
