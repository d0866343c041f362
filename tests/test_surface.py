"""The program's public surface is what the program runs.

Every public module-level function and class in ``src/qrng_audit`` must be
loaded by name somewhere outside the tests: in ``src/``, ``scripts/`` or
``perfbench/``. A definition only tests reach belongs in a test helper
module, such as ``tests/reference.py``.

Every exception class there must be named by an ``except`` clause in those
same program files, or carry state of its own (define ``__init__``). A
class only ever caught as its base is that base under another name.
"""

import ast
import importlib
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


def _caught_names(tree):
    """Every name an ``except`` clause of a module catches, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for kind in node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]:
                yield kind.attr if isinstance(kind, ast.Attribute) else kind.id


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


def test_every_error_class_is_caught_or_carries_state():
    caught = set()
    for path in _program_files():
        caught.update(_caught_names(ast.parse(path.read_text(), str(path))))
    uncaught = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.ClassDef)
        and issubclass(getattr(importlib.import_module(f"qrng_audit.{path.stem}"), node.name),
                       BaseException)
        and node.name not in caught
        and not any(isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in node.body)
    ]
    assert uncaught == [], f"error classes no program file catches: {uncaught}"
