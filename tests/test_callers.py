"""Every top-level function and class of the package has a caller outside the
tests, in the package itself, the benchmark or the tools, and every method
and property of a package class is read there."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

# names kept without a caller, each for its reason
EXEMPT = {
    # acceptance criterion 5 defines it; no command regrids onto pressure
    # levels, so a pressure-level baseline against a height-level cube is
    # refused as misaligned
    "height_to_pressure",
    # acceptance criterion 1 defines it; the reports take the mean over
    # valid cells of pearson_cells themselves, and give NaN where none is valid
    "pearson_r",
    # acceptance criterion 9 round-trips history.csv through it
    "read_history",
    # acceptance criterion 1 defines it; the reports compute it per lead from
    # rmspe_cells, and MetricRow.rmspe is a field of the same name
    "rmspe",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+\Z")
_MODULES = {p.stem for p in (ROOT / "src" / "gwindcast").glob("*.py")}


def _names_module(node):
    """Whether node is a package module, bare (metrics) or dotted
    (gwindcast.metrics)."""
    return (isinstance(node, ast.Name) and node.id in _MODULES
            or isinstance(node, ast.Attribute) and node.attr in _MODULES)


def _names_used(path):
    """(name, line) of each package name a file reads: a bare name a package
    file defines or any file imports from the package (not a local variable
    of the same name), an attribute of a package module (metrics.rmse, not
    row.rmse), and each part of a dotted string (the benchmark patches and
    labels attributes by name, as in "trainer.adam_step")."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    # a benchmark helper named like a package function does not call it
    own = set()
    if path.is_relative_to(ROOT / "src" / "gwindcast"):
        own = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    own |= {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("gwindcast"))
            for alias in node.names}
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in own:
            used.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and _names_module(node.value):
            used.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _DOTTED.match(node.value):
            used.extend((part, node.lineno) for part in node.value.split("."))
    return used


def _uncalled():
    """Top-level functions and classes of the package that no file in src/,
    bench/ or tools/ names outside their own definition."""
    # __init__.py only re-exports, so its imports and __all__ are no caller
    used = {p: _names_used(p) for d in ("src", "bench", "tools")
            for p in sorted((ROOT / d).rglob("*.py")) if p.name != "__init__.py"}
    uncalled = {}
    for module in sorted((ROOT / "src" / "gwindcast").glob("*.py")):
        for node in ast.parse(module.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            # a use inside the definition itself is no caller
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (path == module and line in own)
                       for path, names in used.items() for name, line in names):
                uncalled[node.name] = module.name
    return uncalled


def test_every_package_function_and_class_has_a_caller_outside_the_tests():
    uncalled = _uncalled()
    missing = [f"{uncalled[name]}: {name}" for name in sorted(set(uncalled) - EXEMPT)]
    assert not missing, "only the tests call " + ", ".join(missing)
    stale = sorted(EXEMPT - set(uncalled))
    assert not stale, "exempt, but called outside the tests: " + ", ".join(stale)


def _unread_members():
    """Methods and properties of package classes, dunder methods aside, that
    no file in src/, bench/ or tools/ reads as an attribute outside their
    own definition. A read is matched by name, whatever object it is on."""
    reads = {}
    for d in ("src", "bench", "tools"):
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.attr, []).append((path, node.lineno))
    unread = []
    for module in sorted((ROOT / "src" / "gwindcast").glob("*.py")):
        for cls in ast.parse(module.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or re.fullmatch(r"__\w+__", node.name):
                    continue
                own = range(node.lineno, node.end_lineno + 1)
                if all(path == module and line in own for path, line in reads.get(node.name, ())):
                    unread.append(f"{module.name}: {cls.name}.{node.name}")
    return unread


def test_every_method_and_property_of_a_package_class_is_read_outside_the_tests():
    unread = _unread_members()
    assert not unread, "only the tests read " + ", ".join(unread)
