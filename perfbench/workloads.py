"""Workload inputs and job execution for the bakerfr benchmark.

`make_jobs` runs in the benchmark's parent process and only uses the
standard library: every input of a run is generated there from the seed.
`run_job` runs inside a fresh child interpreter that has already imported
bakerfr; it drives the program through `bakerfr.cli.main` or the public
library functions and returns the checks it made on the outputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("exact_long", "exact_sweep", "mc_ensemble")

# Sizes per workload; "smoke" runs every job kind at a tiny size.
SIZES = {
    "full": {
        "long_n": 120, "long_l": ("1/8", "1/5"),
        "sweep_ls": 6, "sweep_n": 12, "brute_n": 10, "alpha_n": 7,
        "upo_n": 11, "rev_points": 300,
        "mc_ensemble": 1_000_000, "mc_n": 10, "mc_transient": 20,
        "mb_ensemble": 100_000, "mb_n": 400,
    },
    "smoke": {
        "long_n": 12, "long_l": ("1/8", "1/5"),
        "sweep_ls": 2, "sweep_n": 5, "brute_n": 5, "alpha_n": 4,
        "upo_n": 5, "rev_points": 20,
        "mc_ensemble": 300_000, "mc_n": 6, "mc_transient": 5,
        "mb_ensemble": 20_000, "mb_n": 50,
    },
}

# sha256 of the exact law of g ("g:num/den" lines, sorted by g) that
# `bakerfr fr --family map2 --mode exact` reports, keyed by "l@n".
LAW_DIGESTS = {
    "1/8@120": "43aed68d31d3700fcbdb533a54bad9237025650731d72e6b7528876faea27908",
    "1/5@120": "6b1e0fda7ad4c995d8ead9c44fcc9237a9e33df89df51dd7f3df5283472955e2",
    "1/8@12": "de76afb847f9a7e554dfe3bf67a801c7621fc62d0ca64f26d68a80e3c009f4f9",
    "1/5@12": "0ac0778dfce79459b39140061a98a8acf8f9ea0b6385e13cf1f9b5f37f8170c5",
}


def _random_l(rng: random.Random) -> Fraction:
    """Rational strip width in (0, 1/4) with a denominator of 20..60."""
    q = rng.randint(20, 60)
    return Fraction(rng.randint(1, (q - 1) // 4), q)


def make_jobs(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The job list of one repetition; the same seed gives the same list."""
    s = SIZES[size]
    rng = random.Random(seed)
    if workload == "exact_long":
        jobs = [{"kind": "fr_exact", "l": l, "n": s["long_n"], "delta": "1/2"}
                for l in s["long_l"]]
        rng.shuffle(jobs)
        return jobs
    if workload == "exact_sweep":
        ls: list[Fraction] = []
        while len(ls) < s["sweep_ls"]:
            l = _random_l(rng)
            if l not in ls:
                ls.append(l)
        jobs = []
        for l in ls:
            text = f"{l.numerator}/{l.denominator}"
            jobs += [{"kind": "law", "l": text, "n": n,
                      "brute": n <= s["brute_n"], "alpha": n <= s["alpha_n"]}
                     for n in range(1, s["sweep_n"] + 1)]
            jobs.append({"kind": "reversibility", "l": text,
                         "points": s["rev_points"], "seed": rng.randrange(2**31)})
        jobs += [{"kind": "upo", "l": "2/3", "n": n}
                 for n in range(1, s["upo_n"] + 1)]
        return jobs
    if workload == "mc_ensemble":
        return [
            {"kind": "fr_mc", "ensemble": s["mc_ensemble"], "n": s["mc_n"],
             "transient": s["mc_transient"], "seed": rng.randrange(2**31)},
            {"kind": "multibaker", "l": "1/8", "ensemble": s["mb_ensemble"],
             "n": s["mb_n"], "transient": 100, "seed": rng.randrange(2**31)},
        ]
    raise ValueError(f"unknown workload {workload!r}")


def law_digest(probs: dict[int, Fraction]) -> str:
    text = "".join(f"{g}:{p.numerator}/{p.denominator}\n"
                   for g, p in sorted(probs.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def _law_from_report(report: dict) -> dict[int, Fraction]:
    """Rebuild the full law of g from an exact `fr` report, whose rows hold
    P(g) and P(-g) for every positive g of the support."""
    probs = {}
    for row in report["rows"]:
        probs[row["g"]] = Fraction(row["p_plus"])
        probs[-row["g"]] = Fraction(row["p_minus"])
    rest = 1 - sum(probs.values())
    if rest:
        probs[0] = rest
    return probs


def _cli(argv: list[str], prefix: Path) -> tuple[int, dict, int]:
    """Run one CLI command; return its exit code, its JSON report and the
    number of bytes it wrote."""
    from bakerfr import cli

    rc = cli.main(argv + ["--out", str(prefix)])
    written = sum(p.stat().st_size for p in prefix.parent.glob(prefix.name + ".*"))
    report = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
    return rc, report, written


def run_job(job: dict, prefix: Path) -> tuple[list[tuple[str, bool]], dict]:
    """Execute one job; return its checks as (name, passed) pairs and
    extra facts (bytes written, digests) for the run's record."""
    kind = job["kind"]
    if kind == "fr_exact":
        rc, report, written = _cli(
            ["fr", "--family", "map2", "--mode", "exact", "--l", job["l"],
             "--n", str(job["n"]), "--delta", job["delta"]], prefix)
        digest = law_digest(_law_from_report(report))
        key = f"{job['l']}@{job['n']}"
        return ([(f"fr_exact {key} exit 0", rc == 0),
                 (f"fr_exact {key} law digest", digest == LAW_DIGESTS.get(key))],
                {"bytes": written, "law_digest": digest})
    if kind == "law":
        from bakerfr import alpha_bounds_check, brute_force_distribution, \
            exact_distribution, fr_report

        l, n = Fraction(job["l"]), job["n"]
        name = f"law {job['l']}@{n}"
        dist = exact_distribution("map2", l, n)
        checks = [(f"{name} fr_report all_pass", fr_report(dist).all_pass)]
        if job["brute"]:
            oracle = brute_force_distribution("map2", l, n)
            checks.append((f"{name} dp == brute force", oracle.probs == dist.probs))
        if job["alpha"]:
            checks.append((f"{name} alpha bounds",
                           alpha_bounds_check(l, n).all_within))
        return checks, {"bytes": 0}
    if kind == "reversibility":
        rc, report, written = _cli(
            ["reversibility", "--family", "map2", "--l", job["l"],
             "--ensemble", str(job["points"]), "--seed", str(job["seed"])], prefix)
        name = f"reversibility {job['l']}"
        return ([(f"{name} exit 0", rc == 0), (f"{name} ok", report["ok"] is True)],
                {"bytes": written})
    if kind == "upo":
        rc, report, written = _cli(
            ["upo", "--family", "map1", "--l", job["l"], "--n", str(job["n"])],
            prefix)
        name = f"upo {job['l']}@{job['n']}"
        return ([(f"{name} exit 0", rc == 0),
                 (f"{name} upo == dp", report["agree"] is True)],
                {"bytes": written})
    if kind == "fr_mc":
        rc, report, written = _cli(
            ["fr", "--family", "composite", "--mode", "montecarlo",
             "--ensemble", str(job["ensemble"]), "--n", str(job["n"]),
             "--transient", str(job["transient"]), "--seed", str(job["seed"])],
            prefix)
        checks = [("fr_mc exit 0", rc == 0),
                  ("fr_mc samples", report["samples"] == job["ensemble"]),
                  ("fr_mc rows tested", len(report["rows"]) > 0)]
        checks += [(f"fr_mc g={row['g']} within band", row["pass"] is True)
                   for row in report["rows"]]
        hist = [(row["g"], row["count_plus"], row["count_minus"])
                for row in report["rows"]]
        return checks, {"bytes": written, "histogram_digest": hashlib.sha256(
            json.dumps(hist).encode()).hexdigest()}
    if kind == "multibaker":
        rc, report, written = _cli(
            ["multibaker", "--l", job["l"], "--ensemble", str(job["ensemble"]),
             "--n", str(job["n"]), "--transient", str(job["transient"]),
             "--seed", str(job["seed"])], prefix)
        return ([("multibaker exit 0", rc == 0),
                 ("multibaker within 4 stderr", report["within_4_stderr"] is True),
                 ("multibaker particles", report["particles"] == job["ensemble"]),
                 ("multibaker steps", report["steps"] == job["n"])],
                {"bytes": written, "psi_hat": report["psi_hat"]})
    raise ValueError(f"unknown job kind {kind!r}")


def particle_steps(job: dict) -> int:
    """Particle-steps a Monte-Carlo job asks of the sampler (0 otherwise)."""
    if job["kind"] in ("fr_mc", "multibaker"):
        return job["ensemble"] * (job["n"] + job["transient"])
    return 0
