"""The package holds only what the pipeline calls.

Every name that ``spintomo`` exports, every public function and class
defined at module level in ``src/spintomo``, and every public method and
property of those classes must be used, as a ``Name`` or an ``Attribute``,
somewhere in the package modules or in the benchmark harness; a name only
the tests call belongs in the tests.
"""

import ast
from pathlib import Path
from types import ModuleType

import spintomo

ROOT = Path(__file__).resolve().parents[1]

MODULES = [p for p in (ROOT / "src" / "spintomo").glob("*.py") if p.name != "__init__.py"]


def _used_names() -> set[str]:
    sources = MODULES + list((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _public_definitions(body) -> list:
    return [
        node
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _module_definitions() -> list:
    return [
        node
        for path in MODULES
        for node in _public_definitions(ast.parse(path.read_text(encoding="utf-8")).body)
    ]


def test_every_export_has_a_caller_outside_the_tests():
    exported = {
        name
        for name, value in vars(spintomo).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    unused = exported - _used_names()
    assert not unused, f"exported with no caller outside the tests: {sorted(unused)}"


def test_every_module_level_definition_has_a_caller_outside_the_tests():
    defined = {node.name for node in _module_definitions()}
    unused = defined - _used_names()
    assert not unused, f"defined with no caller outside the tests: {sorted(unused)}"


def test_every_public_member_has_a_caller_outside_the_tests():
    used = _used_names()
    unused = {
        f"{cls.name}.{member.name}"
        for cls in _module_definitions()
        if isinstance(cls, ast.ClassDef)
        for member in _public_definitions(cls.body)
        if member.name not in used
    }
    assert not unused, f"members with no caller outside the tests: {sorted(unused)}"
