"""The records are NamedTuples: importing the package generates no class
code, and a record that checks its fields checks them on `_replace` too."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from bakerfr.fluctuation import SymbolDistribution, exact_distribution
from bakerfr.maps import AffineBranch, MapConstructionError, PhasePoint
from bakerfr.transfer import StepDensity

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_neither_dataclasses_nor_inspect():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = ("import sys, bakerfr, bakerfr.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    # -S: no site hook may import either module first
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


BRANCH = AffineBranch(0, F(1, 2), 0, 1, (2, F(1, 2)), (0, 0))
DENSITY = StepDensity((0, F(1, 2), 1), (F(1, 2), F(3, 2)))
LAW = exact_distribution("map2", F(1, 8), 3)


@pytest.mark.parametrize("record,changes,error,match", [
    (BRANCH, {"scale": (0, 1)}, MapConstructionError, "zero scale"),
    (BRANCH, {"x_hi": F(3, 2)}, MapConstructionError, "out-of-square"),
    (PhasePoint(F(1, 3), F(1, 5)), {"x": 0.5}, TypeError, "Fraction coordinates"),
    (DENSITY, {"breakpoints": (0, F(3, 4), F(1, 2))}, ValueError, "increase strictly"),
    (DENSITY, {"values": (F(1, 2), F(1, 2))}, ValueError, "integrates to 1/2"),
    (LAW, {"counts": {**LAW.counts, -3: 0, -1: LAW.counts[-1] + LAW.counts[-3]}},
     ValueError, "not symmetric"),
    (LAW, {"total": LAW.total + 1}, ValueError, "not the total"),
], ids=["branch-zero-scale", "branch-out-of-square", "point-float", "density-breakpoints",
        "density-mass", "law-asymmetric", "law-total"])
def test_replace_checks_as_the_constructor_does(record, changes, error, match):
    with pytest.raises(error, match=match):
        type(record)(**{**record._asdict(), **changes})
    with pytest.raises(error, match=match):
        record._replace(**changes)


def test_replace_keeps_a_valid_record_of_the_same_type():
    law = LAW._replace(counts={g: 2 * c for g, c in LAW.counts.items()}, total=2 * LAW.total)
    assert type(law) is SymbolDistribution and law.probs == LAW.probs and law != LAW
    assert type(BRANCH._replace(swap=True)) is AffineBranch


def test_branch_replace_carries_the_new_jacobian():
    assert BRANCH.jacobian == 1
    wider = BRANCH._replace(scale=(3, F(1, 2)))
    assert wider.jacobian == F(3, 2) and BRANCH.jacobian == 1
    assert wider == (0, F(1, 2), 0, 1, (3, F(1, 2)), (0, 0), False, None)
