"""The imports between the package's own modules.

At module level they form an acyclic graph: each module loads after the
modules it reads, and none finds another half loaded.  Inside functions
there are exactly the four imports of `FUNCTION_LEVEL`, each for the
reason written beside it; a new one would hide a cycle or a load cost
that the module-level graph should show."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bakerfr"

#: (module, function, imported module) of each function-level import
FUNCTION_LEVEL = {
    # the sampler loads numpy, which the package import (set-up) leaves out
    ("fluctuation", "monte_carlo_distribution", "ensembles"),
    # the same reason
    ("multibaker", "simulate_current", "ensembles"),
    # families imports maps, and perfbench/tracer.py wraps the function as
    # maps.verify_reversibility
    ("maps", "verify_reversibility", "families"),
    # multibaker imports families; moving bias_of and analytic_current out of
    # multibaker would unbind the names perfbench/tracer.py wraps there
    ("families", "_verify", "multibaker"),
}


def package_modules(node: ast.AST) -> set[str]:
    """The package modules an import statement reads."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("bakerfr.")}
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        if node.module == "bakerfr":
            return {a.name for a in node.names}
        if node.module.startswith("bakerfr."):
            return {node.module.split(".")[1]}
    return set()


def package_imports() -> list[tuple[str, str | None, str]]:
    """(module, enclosing function or None, imported module) per import of
    a package module, at any depth of each module's tree."""
    found = []

    def visit(module: str, node: ast.AST, function) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(module, child, child.name)
                continue
            found.extend((module, function, target) for target in package_modules(child))
            visit(module, child, function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_module_level_imports_are_acyclic():
    graph: dict[str, set[str]] = {}
    for module, function, target in package_imports():
        if function is None:
            graph.setdefault(module, set()).add(target)
    assert graph["transfer"] == {"maps"}
    # raises graphlib.CycleError, naming the cycle, if there is one
    order = list(TopologicalSorter(graph).static_order())
    assert order.index("families") > order.index("transfer")


def test_function_level_imports_are_the_stated_four():
    found = {(module, function, target) for module, function, target in package_imports()
             if function is not None}
    assert found == FUNCTION_LEVEL
