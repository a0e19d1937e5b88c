"""Every top-level function and class of the package has a caller outside the
tests: in the package itself, the benchmark or the tools."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

# names kept without a caller, each for its reason
EXEMPT = {
    # the paper compares with ERA5 on pressure levels; wiring it into
    # compare-baseline changes that command's output, a change of its own
    "interpolate_to_pressure_levels",
    # acceptance criterion 1 defines it; the reports take the mean over
    # valid cells of pearson_cells themselves, and give NaN where none is valid
    "pearson_r",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][\w.]*\Z")


def _names_used(path):
    """(name, line) of each name a file reads: variables, attributes, and each
    part of a string that is a dotted identifier (the benchmark patches
    attributes by name)."""
    used = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            used.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _IDENTIFIER.match(node.value):
            used.extend((part, node.lineno) for part in node.value.split("."))
    return used


def test_every_package_function_and_class_has_a_caller_outside_the_tests():
    # __init__.py only re-exports, so its imports and __all__ are no caller
    used = {p: _names_used(p) for d in ("src", "bench", "tools")
            for p in sorted((ROOT / d).rglob("*.py")) if p.name != "__init__.py"}
    uncalled = []
    for module in sorted((ROOT / "src" / "gwindcast").glob("*.py")):
        for node in ast.parse(module.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in EXEMPT:
                continue
            # a use inside the definition itself is no caller
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (path == module and line in own)
                       for path, names in used.items() for name, line in names):
                uncalled.append(f"{module.name}: {node.name}")
    assert not uncalled, "only the tests call " + ", ".join(uncalled)
