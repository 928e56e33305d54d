"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py SPEC.json RESULT.json

The package and its CLI module are imported first, and the clock reading
right after that import is the end of set-up.  A spec with no jobs stops
there (a set-up probe).  Otherwise the jobs run in order, each timed on
its own, optionally under the span tracer, and the result file gets the
timings, the checks, the peak RSS of this process and, when traced, the
per-layer summary.
"""

import time

import bakerfr  # noqa: F401  (set-up ends when the package is imported)
import bakerfr.cli  # noqa: F401

SETUP_DONE = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import run_job  # noqa: E402


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if not Path(bakerfr.__file__).resolve().is_relative_to(spec["src"]):
        sys.exit(f"imported bakerfr from {bakerfr.__file__}, not from {spec['src']}")
    result = {"setup_done": SETUP_DONE}
    if spec["jobs"]:
        tracer = Tracer() if spec["trace"] else None
        if tracer is not None:
            tracer.install()
        out_dir = Path(spec["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        checks, latencies, facts = [], [], []
        start = time.perf_counter()
        for index, job in enumerate(spec["jobs"]):
            t0 = time.perf_counter()
            job_checks, job_facts = run_job(job, out_dir / f"job-{index:03d}")
            latencies.append(time.perf_counter() - t0)
            checks += job_checks
            facts.append(job_facts)
        wall = time.perf_counter() - start
        result.update({
            "wall_s": wall,
            "job_s": latencies,
            "checks": checks,
            "facts": facts,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        if tracer is not None:
            layers = tracer.summary(wall)
            layers["cli.bytes_written"] = sum(f["bytes"] for f in facts)
            result["layers"] = layers
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:3])
