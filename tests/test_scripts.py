"""Smoke runs of the experiment scripts at tiny sizes, so an API change
that breaks one of them fails the suite, and checks that the CSV files
they write are the bytes the CLI writes for the same run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bakerfr.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script,args", [
    ("fr_scan.py", ["--n-max", "4"]),
    ("linear_response.py", ["--particles", "2000", "--steps", "50"]),
    ("upo_vs_markov.py", ["--n-max", "4"]),
])
def test_script_runs(tmp_path, script, args):
    assert run_script(tmp_path, script, args).strip()


def test_fr_scan_writes_the_cli_table(tmp_path):
    run_script(tmp_path, "fr_scan.py", ["--n-max", "3", "--out-dir", str(tmp_path / "scan")])
    assert main(["fr", "--family", "map2", "--mode", "exact", "--l", "1/6", "--n", "3",
                 "--out", str(tmp_path / "cli")]) == 0
    assert ((tmp_path / "scan" / "fr_l1_6_n3.csv").read_bytes()
            == (tmp_path / "cli.csv").read_bytes())


def test_linear_response_writes_the_cli_table(tmp_path):
    run_script(tmp_path, "linear_response.py",
               ["--particles", "2000", "--steps", "50", "--out", str(tmp_path / "sweep")])
    assert main(["multibaker", "--b-values", "1/100,1/50,1/20,1/10", "--ensemble", "2000",
                 "--n", "50", "--out", str(tmp_path / "cli")]) == 0
    assert (tmp_path / "sweep").read_bytes() == (tmp_path / "cli.csv").read_bytes()
