"""Every function, class and method defined in the package, private or
not, has a caller in the program.

The program is the package modules other than `__init__`, the experiment
scripts and the benchmark.  A name counts as referenced where it is read
as a name or an attribute, or written as a string that is an identifier:
`families` reaches its map builders by such a string, and the benchmark
tracer reaches the functions it wraps the same way.  A method or a
property counts by its bare name, and a special method such as
`__new__`, which the interpreter calls, counts as referenced.  A
definition that only the tests or the README reach is deleted; a
reference that the tests check the program against lives in
`tests/reference.py`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bakerfr"


def program_files():
    package = sorted(PACKAGE.glob("*.py"))
    return ([p for p in package if p.name != "__init__.py"]
            + sorted((ROOT / "scripts").glob("*.py"))
            + sorted((ROOT / "perfbench").glob("*.py")))


def referenced_names() -> set[str]:
    names = set()
    for path in program_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                names.add(node.value)
    return names


def defined_names() -> set[str]:
    """"module.name" for each function, class and method defined in the
    package, at any depth, special methods left out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, kinds)
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def unreached(names: set[str]) -> set[str]:
    referenced = referenced_names()
    return {name for name in names if name.rpartition(".")[2] not in referenced}


def test_the_program_reaches_every_definition():
    missing = unreached(defined_names())
    assert not missing, f"defined, but only tests or the README reach: {sorted(missing)}"
