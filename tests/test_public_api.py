"""The package holds only what the pipeline calls.

Every name that ``spintomo`` exports, every public function and class
defined at module level in ``src/spintomo``, and every public method and
property of those classes must be used, as a ``Name`` or an ``Attribute``,
somewhere in the package modules or in the benchmark harness; a name only
the tests call belongs in the tests.  Likewise every defaulted parameter of
those functions and methods must be passed, by keyword or by position, by
some call there: an option that only the tests set is not an option.
Dataclass fields are out of scope, since a config is built from its file
generically.
"""

import ast
from pathlib import Path
from types import ModuleType

import spintomo

ROOT = Path(__file__).resolve().parents[1]

MODULES = [p for p in (ROOT / "src" / "spintomo").glob("*.py") if p.name != "__init__.py"]


def _caller_trees() -> list:
    sources = MODULES + list((ROOT / "perfbench").glob("*.py"))
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sources]


def _used_names() -> set[str]:
    used = set()
    for tree in _caller_trees():
        for node in ast.walk(tree):
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


def _passed_parameters() -> dict:
    """Callee name -> (keywords passed, most positional arguments passed, splatted).

    A call through a ``*`` or ``**`` argument may pass any parameter.
    """
    passed = {}
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords, positional, splat = passed.get(name, (set(), 0, False))
            keywords |= {kw.arg for kw in node.keywords if kw.arg is not None}
            splat |= any(isinstance(arg, ast.Starred) for arg in node.args)
            splat |= any(kw.arg is None for kw in node.keywords)
            passed[name] = (keywords, max(positional, len(node.args)), splat)
    return passed


def _defaulted_parameters(function, is_method: bool) -> list[tuple[str, int | None]]:
    """(name, position) of each defaulted parameter; position is None for keyword-only ones.

    The position counts the arguments a caller writes, so a method's ``self``
    or ``cls`` is not counted.
    """
    args = function.args
    positional = args.posonlyargs + args.args
    skip = 1 if is_method else 0
    defaulted = [
        (arg.arg, index - skip)
        for index, arg in enumerate(positional)
        if index >= len(positional) - len(args.defaults)
    ]
    defaulted += [
        (arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default
    ]
    return defaulted


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    passed = _passed_parameters()
    functions = []
    for node in _module_definitions():
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node, False))
        else:
            functions += [
                (f"{node.name}.{member.name}", member, True)
                for member in _public_definitions(node.body)
                if isinstance(member, ast.FunctionDef)
            ]
    unpassed = set()
    for label, function, is_method in functions:
        keywords, most_positional, splat = passed.get(function.name, (set(), 0, False))
        for name, position in _defaulted_parameters(function, is_method):
            by_position = position is not None and position < most_positional
            if not (splat or name in keywords or by_position):
                unpassed.add(f"{label}({name})")
    assert not unpassed, f"defaulted parameters only the tests pass: {sorted(unpassed)}"
