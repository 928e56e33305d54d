"""Every name the package exports has a caller in the program.

The program is the package modules other than `__init__`, the experiment
scripts and the benchmark.  A name counts as referenced where it is read
as a name or an attribute, or written as a string that is an identifier:
`families` reaches its map builders by such a string, and the benchmark
tracer reaches the functions it wraps the same way.  A name that only the
tests or the README reach is deleted, or listed below with its reason."""

import ast
from pathlib import Path

import bakerfr

ROOT = Path(__file__).resolve().parents[1]

# exported names without a caller in the program, each with its reason
UNREFERENCED = {
    "lift_step": "the exact reference model of the lift, whose displacement "
                 "the tests check equals g",
    "sequence_measure": "the per-sequence cylinder measure that the tests "
                        "check the exact oracles' walks against",
}


def program_files():
    package = sorted((ROOT / "src" / "bakerfr").glob("*.py"))
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


def exported_names() -> set[str]:
    """The names of `bakerfr.__all__` defined in the package (not its
    submodules)."""
    return {name for name in bakerfr.__all__
            if getattr(getattr(bakerfr, name), "__module__", "").startswith("bakerfr.")}


def test_the_program_reaches_every_exported_name():
    unreached = exported_names() - referenced_names() - set(UNREFERENCED)
    assert not unreached, f"exported, but only tests or the README reach: {sorted(unreached)}"


def test_every_listed_name_is_exported_and_unreferenced():
    listed = set(UNREFERENCED)
    assert listed <= exported_names()
    assert not listed & referenced_names()
