"""bakerfr benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload exact_long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  All inputs come from `--seed` (see workloads.py).  Every
repetition runs in a fresh interpreter (child.py), one after another, so
each pays the set-up a user of the batch CLI pays.  Before the timed
repetitions the run starts a few set-up probes, children that only import
the package.

With `--trace 0` the last line holds the end-to-end metrics (medians over
the repetitions).  With `--trace 1` untraced and traced repetitions
alternate; the last line holds the per-layer metrics (medians over the
traced repetitions) and the tracing overhead.  The line before it holds
the run's record: environment, seed, repetition times, digests and the
checks that failed.  The same record is written to
`.bench_build/perfbench/<workload>-trace<k>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import COUNTER_NAMES, SPAN_NAMES
from workloads import WORKLOADS, make_jobs, particle_steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
}

SAMPLER_SPLIT = {  # metric -> span whose time is divided by particle-steps
    "ensembles.sample_g.ns_per_particle_step": "ensembles.sample_g.s",
    "ensembles.step.ns_per_particle_step": "ensembles.step.s",
    "ensembles.region_index.ns_per_particle_step": "ensembles.region_index.s",
    "ensembles.sample_g.self_ns_per_particle_step": "ensembles.sample_g.self_s",
}


def _self_name(span: str) -> str:
    return "cli.self_s" if span == "cli.main" else f"{span}.self_s"


PER_LAYER = {}
for _span in SPAN_NAMES:
    PER_LAYER[f"{_span}.s"] = "s"
    PER_LAYER[f"{_span}.calls"] = "count"
    PER_LAYER[_self_name(_span)] = "s"
PER_LAYER.update({name: "count" for name in COUNTER_NAMES})
PER_LAYER.update({name: "ns" for name in SAMPLER_SPLIT})
PER_LAYER.update({"cli.bytes_written": "bytes", "trace.unattributed_s": "s",
                  "trace.overhead_s": "s"})

# Per-call costs measured when the roadmap was last re-anchored, for the
# cross-check in the traced record.
ROADMAP_BASELINE = {
    "fluctuation.chain_spec ms/call": 7.1,
    "transfer.region_measures ms/call": 5.2,
    "ensembles.step ns/particle-step": 34.0,
    "ensembles.region_index ns/lookup": 18.0,
    "ensembles.sample_g self ns/particle-step": 4.5,
}

# (setup probes, minimum repetitions untraced, minimum repetitions traced)
EFFORT = {"full": (5, 3, 2), "smoke": (1, 1, 2)}


class ChildError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(work: Path, jobs: list, trace: bool) -> dict:
    """Run one child to completion; return its result with `setup_s` (from
    just before the process starts to the end of its import) added."""
    spec = work / "spec.json"
    result_path = work / "result.json"
    spec.write_text(json.dumps({"jobs": jobs, "trace": trace, "src": str(ROOT / "src"),
                                "out_dir": str(work / "out")}), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec), str(result_path)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0 or not result_path.exists():
        raise ChildError(f"child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["setup_done"] - t0
    result["child_s"] = elapsed
    shutil.rmtree(work / "out", ignore_errors=True)
    return result


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(layers: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    out = {}
    for span in SPAN_NAMES:
        out[f"{span}.s"] = layers[f"{span}.s"]
        out[f"{span}.calls"] = layers[f"{span}.calls"]
        out[_self_name(span)] = layers[f"{span}.self_s"]
    for name in COUNTER_NAMES:
        out[name] = layers[name]
    steps = layers["ensembles.particle_steps"]
    for name, span in SAMPLER_SPLIT.items():
        out[name] = layers[span] / steps * 1e9 if steps else 0.0
    out["cli.bytes_written"] = layers["cli.bytes_written"]
    out["trace.unattributed_s"] = layers["trace.unattributed_s"]
    return out


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else ref
        commit = ref
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "git_commit": commit, "seed": seed}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str, work: Path) -> tuple[dict, dict]:
    jobs = make_jobs(workload, seed, size)
    probes, min_untraced, min_traced = EFFORT[size]
    run_child(work, [], False)  # warm-up: byte-compiles a fresh checkout
    setups = [run_child(work, [], False)["setup_s"] for _ in range(probes)]

    reps: list[tuple[bool, dict]] = []
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append((traced, run_child(work, jobs, traced)))
        if trace and len(reps) % 2:
            continue
        if len(reps) < (min_traced if trace else min_untraced):
            continue
        step = statistics.median(r["child_s"] for _t, r in reps) * (2 if trace else 1)
        if time.monotonic() - start + step > seconds:
            break

    results = [r for _t, r in reps]
    setups += [r["setup_s"] for r in results]
    checks = [c for r in results for c in r["checks"]]
    failed = [name for name, ok in checks if not ok]
    untraced_walls = [r["wall_s"] for t, r in reps if not t]
    record = {
        "workload": workload, "size": size, "seconds": seconds, "trace": trace,
        "environment": environment(seed),
        "jobs_per_rep": len(jobs),
        "reps": len(reps),
        "rep_wall_s": [r["wall_s"] for r in results],
        "setup_samples_s": setups,
        "failed_frac": len(failed) / len(checks),
        "failed_checks": sorted(set(failed))[:20],
        "facts": {key: [f[key] for f in results[0]["facts"] if key in f]
                  for key in ("law_digest", "histogram_digest", "psi_hat")},
    }
    steps = sum(particle_steps(job) for job in jobs)
    if steps:
        record["particle_steps_per_rep"] = steps
        record["particle_steps_per_s"] = steps / statistics.median(untraced_walls)

    if not trace:
        latencies = [s for r in results for s in r["job_s"]]
        metrics = {
            "wall_s": statistics.median(untraced_walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
            "job_p50_ms": 1e3 * statistics.median(latencies),
            "job_p90_ms": 1e3 * _percentile(latencies, 90),
        }
        units = END_TO_END
    else:
        per_rep = [layer_metrics(r["layers"]) for t, r in reps if t]
        metrics = {name: statistics.median(m[name] for m in per_rep)
                   for name in per_rep[0]}
        traced_walls = [r["wall_s"] for t, r in reps if t]
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(untraced_walls))
        record["baseline_cross_check"] = cross_check(metrics)
        units = PER_LAYER
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return record, result


def cross_check(m: dict) -> dict:
    """Traced per-call costs beside the roadmap's re-anchor baseline."""
    def per_call(span):
        calls = m[f"{span}.calls"]
        return 1e3 * m[f"{span}.s"] / calls if calls else None

    measured = {
        "fluctuation.chain_spec ms/call": per_call("fluctuation.chain_spec"),
        "transfer.region_measures ms/call": per_call("transfer.region_measures"),
    }
    if m["ensembles.particle_steps"]:
        measured.update({
            "ensembles.step ns/particle-step": m["ensembles.step.ns_per_particle_step"],
            "ensembles.region_index ns/lookup":
                1e9 * m["ensembles.region_index.s"] / m["ensembles.region_lookups"],
            "ensembles.sample_g self ns/particle-step":
                m["ensembles.sample_g.self_ns_per_particle_step"],
        })
    return {key: {"measured": value, "roadmap": ROADMAP_BASELINE[key]}
            for key, value in measured.items() if value is not None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for the timed repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="'smoke' runs every job at a tiny size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bakerfr" / "__init__.py").is_file():
        print(f"no bakerfr sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_build" / "perfbench"
    work = out_dir / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        record, result = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.size, work)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["result"] = result
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
