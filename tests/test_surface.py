"""The program's public surface is what the program runs.

Every public module-level function and class in ``src/qrng_audit`` must be
loaded by name somewhere outside the tests: in ``src/``, ``scripts/`` or
``perfbench/``. A definition only tests reach belongs in a test helper
module, such as ``tests/reference.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qrng_audit"


def _program_files():
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                yield path


def _loaded_names(tree):
    """Every name a module reads: bare names, attribute names and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_definition_has_a_program_caller():
    loaded = set()
    for path in _program_files():
        loaded.update(_loaded_names(ast.parse(path.read_text(), str(path))))
    unused = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in loaded
    ]
    assert unused == [], f"public definitions with no caller outside the tests: {unused}"
