"""The package holds only what the pipeline calls.

Every name that ``spintomo`` exports, and every public function and class
defined at module level in ``src/spintomo``, must be used, as a ``Name`` or
an ``Attribute``, somewhere in the package modules or in the benchmark
harness; a name only the tests call belongs in the tests.
"""

import ast
from pathlib import Path
from types import ModuleType

import spintomo

ROOT = Path(__file__).resolve().parents[1]

# exported names kept without a pipeline caller, each for an open roadmap item
AWAITING_CALLERS = {
    "variances_from_rho",  # item 1: the K-angle MLE compares its moments
    "thermal_calibration",  # item 6: the sweep calibrates kappa2 from a thermal record
    "simulate_thermal_records",  # item 6: the thermal record of that calibration
}


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


def test_every_export_has_a_caller_outside_the_tests():
    exported = {
        name
        for name, value in vars(spintomo).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    unused = exported - _used_names()
    assert unused == AWAITING_CALLERS, (
        f"exported with no caller outside the tests: {sorted(unused - AWAITING_CALLERS)}; "
        f"exempt but now called: {sorted(AWAITING_CALLERS - unused)}"
    )


def test_every_module_level_definition_has_a_caller_outside_the_tests():
    defined = {
        node.name
        for path in MODULES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    unused = defined - _used_names()
    assert unused == AWAITING_CALLERS, (
        f"defined with no caller outside the tests: {sorted(unused - AWAITING_CALLERS)}; "
        f"exempt but now called: {sorted(AWAITING_CALLERS - unused)}"
    )
