"""Every name the package exports, and every public method and property
defined on an exported class, has a caller in the program.

The program is the package modules other than `__init__`, the experiment
scripts and the benchmark.  A name counts as referenced where it is read
as a name or an attribute, or written as a string that is an identifier:
`families` reaches its map builders by such a string, and the benchmark
tracer reaches the functions it wraps the same way.  A method or a
property counts by its bare name.  A name that only the tests or the
README reach is deleted, or listed below with its reason."""

import ast
from functools import cached_property
from pathlib import Path
from types import FunctionType

import bakerfr

ROOT = Path(__file__).resolve().parents[1]

# exported names without a caller in the program, each with its reason
UNREFERENCED = {
    "lift_step": "the exact reference model of the lift, whose displacement "
                 "the tests check equals g",
    "sequence_measure": "the per-sequence cylinder measure that the tests "
                        "check the exact oracles' walks against",
    "PiecewiseAffineMap.iterate": "the exact orbit reference the tests read "
                                  "symbol sequences, reversed segments and the "
                                  "lift from",
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


def exported_members() -> set[str]:
    """"Class.name" for each public method and property defined in the
    body of an exported class."""
    kinds = (FunctionType, property, cached_property)
    return {f"{name}.{attr}" for name in exported_names()
            if isinstance(cls := getattr(bakerfr, name), type)
            for attr, value in vars(cls).items()
            if not attr.startswith("_") and isinstance(value, kinds)}


def unreached(names: set[str]) -> set[str]:
    referenced = referenced_names()
    return {name for name in names if name.rpartition(".")[2] not in referenced}


def test_the_program_reaches_every_exported_name():
    missing = unreached(exported_names() | exported_members()) - set(UNREFERENCED)
    assert not missing, f"exported, but only tests or the README reach: {sorted(missing)}"


def test_every_listed_name_is_exported_and_unreferenced():
    listed = set(UNREFERENCED)
    assert listed <= exported_names() | exported_members()
    assert unreached(listed) == listed
