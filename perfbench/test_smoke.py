"""Smoke test of the benchmark: each workload once at a tiny size, untraced
and traced.  Checks that every metric BENCHMARK.json names is printed with
its unit and that no check failed, and that the benchmark refuses to run
without the program's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# Metrics the benchmark was defined to report, besides the self times.
REQUIRED = {
    "end_to_end": {"wall_s", "setup_s", "peak_rss_mb", "job_p50_ms", "job_p90_ms"},
    "per_layer": {
        "fluctuation.exact_distribution.s", "fluctuation.exact_distribution.cells",
        "fluctuation.binned_fr_report.s", "fluctuation.fr_report.s",
        "fluctuation.chain_spec.s", "fluctuation.chain_spec.calls",
        "transfer.region_measures.s", "transfer.region_measures.calls",
        "transfer.transition_matrix.s", "transfer.transition_matrix.calls",
        "transfer.invariant_density.s", "transfer.invariant_density.calls",
        "observables.mean_g_per_step.s", "observables.mean_g_per_step.calls",
        "fluctuation.brute_force_distribution.s",
        "fluctuation.alpha_bounds_check.s", "fluctuation.alpha_bounds_check.sequences",
        "periodic_orbits.enumerate_orbits.s", "periodic_orbits.enumerate_orbits.orbits",
        "maps.verify_reversibility.s", "maps.verify_reversibility.points",
        "ensembles.sample_g.ns_per_particle_step", "ensembles.step.ns_per_particle_step",
        "ensembles.region_index.ns_per_particle_step",
        "ensembles.sample_g.self_ns_per_particle_step",
        "ensembles.particle_steps", "ensembles.shards", "ensembles.compile_map.s",
        "multibaker.simulate_current.s", "multibaker.analytic_current.s",
        "maps.build.s", "maps.build.calls", "cli.main.s", "cli.self_s",
        "cli.bytes_written", "trace.unattributed_s", "trace.overhead_s",
    },
}


def test_benchmark_lists_the_required_metrics():
    for kind, names in REQUIRED.items():
        assert names <= {m["name"] for m in SPEC[kind]}


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric(workload, trace):
    proc = _run(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] > 0
    assert result["failed"] / result["attempted"] == 0
    assert result["correct"] is True
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
        if not trace:
            assert m["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "exact_long", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
