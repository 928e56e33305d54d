"""Command-line front end: every verification as a reproducible experiment.

Each command reads a config (flags, optionally expanded by a sweep
file of key=value lines with comma-separated value lists), runs the
corresponding check and returns its result: whether the asserted checks
passed, a JSON payload and, where natural, a CSV table.  This module is
the one writer of bakerfr's outputs: `_write_json` puts the payload,
with the schema version and the config, in `<out>.json`, and
`write_csv` puts a header and lines already formatted, one per row, in
`<out>.csv`.  The library returns records and writes no file.  A run
exits 0 exactly when all asserted checks pass.  A flag or sweep key that
the run would not read is refused as bad input.  Outputs are
byte-identical across re-runs of the same config.  Every rational is
written one way, as Python's `str(Fraction)`: an integer as `k`,
anything else as `p/q`.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from bakerfr.fluctuation import (
    MIN_COUNT,
    Z_SCORE,
    FRReport,
    binned_fr_report,
    empirical_fr_report,
    exact_distribution,
    fr_report,
    monte_carlo_distribution,
)
from bakerfr.families import family
from bakerfr.maps import (
    build_composite,
    build_involution,
    random_rational_points,
    verify_reversibility,
)
from bakerfr.multibaker import (
    SweepRow,
    linear_response_sweep,
    simulate_current,
)
from bakerfr.periodic_orbits import (
    PeriodicOrbit,
    enumerate_orbits,
    generalized_upo_diagnostic,
    upo_distribution,
)
from bakerfr.transfer import (
    ConsistencyError,
    invariant_density,
    verify_composite,
)

#: version of the layout of every JSON document bakerfr writes
SCHEMA_VERSION = 1


def _frac(text) -> Fraction:
    try:
        return Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class ExperimentConfig(NamedTuple):
    command: str
    family: str = "map2"
    l: Fraction = Fraction(1, 8)
    n: int = 10
    ensemble: int = 100_000
    transient: int = 100
    seed: int = 0
    mode: str = "exact"
    x_tilde: Optional[Fraction] = None
    eps: Optional[Fraction] = None
    delta: Optional[Fraction] = None
    b_values: Optional[tuple[Fraction, ...]] = None

    def to_text(self) -> str:
        """`command=`, then `key=value` for each key the run reads."""
        reads = {"command", *_reads(self)}
        lines = []
        for name, value in zip(self._fields, self):
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            if value is not None and name in reads:
                lines.append(f"{name}={value}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

# a CSV table: its header and its lines, each already formatted and ending
# in a newline; one f-string per row keeps the orbit table cheap at large n
Table = tuple[str, Iterable[str]]
# what a command returns: whether its checks passed, its JSON payload and
# its CSV table, if it writes one
Result = tuple[bool, dict, Optional[Table]]


def _write_json(out: Path, cfg: ExperimentConfig, payload: dict) -> None:
    """`<out>.json`: the payload with the schema version and the config,
    keys sorted, indented by 2."""
    doc = {**payload, "schema_version": SCHEMA_VERSION, "config": cfg.to_text()}
    Path(f"{out}.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                                   encoding="utf-8")


def write_csv(path, header: str, lines: Iterable[str]) -> None:
    """The one CSV writer: the header line, then the formatted lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


_FR_HEADER = "g,p_plus,p_minus,lhs,target,bound,pass"


def fr_table(report: FRReport) -> Table:
    """The exact ratio rows, probabilities as exact rationals."""
    return (_FR_HEADER, (f"{r.g},{r.p_plus},{r.p_minus},{r.lhs!r},{r.target!r},"
                         f"{r.bound!r},{r.passed}\n" for r in report.rows))


def orbit_table(orbits: list[PeriodicOrbit]) -> Table:
    """One row per map1 orbit; the point printed from its integer pair as
    `str(Fraction)` prints it: "k" when x_den is 1, "x_num/x_den" otherwise."""
    return ("code,alpha,beta,weight_num,weight_den,x_point",
            (f"{label},{alpha},{beta},{w_n},{w_d},{x_n if x_d == 1 else f'{x_n}/{x_d}'}\n"
             for label, alpha, beta, x_n, x_d, w_n, w_d in orbits))


def sweep_table(rows: list[SweepRow]) -> Table:
    """One row per bias of the linear-response sweep."""
    return ("b,l,psi_analytic,psi_hat,stderr,lambda_analytic,lambda_hat",
            (f"{r.b},{r.l},{r.psi_analytic},{r.psi_hat!r},{r.stderr!r},"
             f"{r.lambda_analytic!r},{r.lambda_hat!r}\n" for r in rows))


def _law(probs: dict) -> dict[str, str]:
    return {str(g): str(p) for g, p in probs.items()}


def _base_map(cfg: ExperimentConfig):
    """The config's map: the record's own map, or a composite checked
    first (`verify_composite`)."""
    if cfg.family != "composite":
        return family(cfg.family, cfg.l).map
    k = build_composite(cfg.l, cfg.x_tilde, cfg.eps)
    verify_composite(k)
    return k


# what a composite's fr report says about the check `_base_map` made
_COMPOSITE_NOTES = {
    "exact": "exact symbol law of the composite equals the base map's law: "
             "checked that the composite's x-factor equals map2's, strip for strip",
    "montecarlo": "perturbation preserves x and folds only inside region B; "
                  "region statistics match the reversible map",
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_density(cfg: ExperimentConfig) -> Result:
    m = _base_map(cfg)
    fam = family(m.family, cfg.l)
    # a composite's projection was checked equal to fam.x_factor, strip for strip
    rho = invariant_density(fam.x_factor)
    analytic = fam.density
    agree = rho == analytic
    steps = list(zip(rho.breakpoints, rho.values))
    payload = {
        "family": fam.name,
        "l": str(cfg.l),
        "density": [[str(b), str(v)] for b, v in steps],
        "analytic": [[str(b), str(v)]
                     for b, v in zip(analytic.breakpoints, analytic.values)],
        "agree": agree,
    }
    # the final breakpoint 1 repeats the last value so step plots close
    steps.append((rho.breakpoints[-1], rho.values[-1]))
    return agree, payload, ("breakpoint,value", (f"{b},{v}\n" for b, v in steps))


def cmd_fr(cfg: ExperimentConfig) -> Result:
    m = _base_map(cfg)
    notes = [_COMPOSITE_NOTES[cfg.mode]] if cfg.family == "composite" else []
    binned_pass = True
    if cfg.mode == "montecarlo":
        emp = monte_carlo_distribution(m, cfg.n, cfg.ensemble, cfg.transient, cfg.seed)
        report = empirical_fr_report(emp)
        total = report.total
        payload = {
            "samples": total, "seed": report.seed, "z": Z_SCORE,
            "min_count": MIN_COUNT, "notes": notes,
            "rows": [{"g": r.g, "count_plus": r.count_plus,
                      "count_minus": r.count_minus, "lhs": r.lhs,
                      "target": r.target, "bound": r.bound, "sigma": r.sigma,
                      "pass": r.passed} for r in report.rows],
        }
        table = (_FR_HEADER, (f"{r.g},{r.count_plus / total!r},{r.count_minus / total!r},"
                              f"{r.lhs!r},{r.target!r},{r.bound!r},{r.passed}\n"
                              for r in report.rows))
    else:
        dist = exact_distribution(m.family, cfg.l, cfg.n)
        report = fr_report(dist)
        n_lambda = report.n * report.mean_lambda
        payload = {
            "alpha_min": str(report.alpha_min), "alpha_max": str(report.alpha_max),
            "rows": [{"g": r.g, "p_plus": str(r.p_plus), "p_minus": str(r.p_minus),
                      "alpha": str(r.alpha), "lhs": r.lhs, "target": r.target,
                      "bound": r.bound, "lhs_over_n_mean": r.lhs / n_lambda,
                      "bound_over_n_mean": r.bound / n_lambda,
                      "e_n": str(r.e_n),
                      "pass": r.passed} for r in report.rows],
        }
        if notes:
            payload["notes"] = notes
        table = fr_table(report)
        if cfg.delta is not None:
            binned = binned_fr_report(dist, cfg.delta)
            payload["binned"] = {
                "delta": str(binned.delta), "all_pass": binned.all_pass,
                "rows": [{"p": str(r.p), "prob_plus": str(r.prob_plus),
                          "prob_minus": str(r.prob_minus),
                          "lhs_normalized": r.lhs_normalized, "slack": r.slack,
                          "pass": r.passed} for r in binned.rows],
            }
            binned_pass = binned.all_pass
    payload.update(family=report.family, l=str(report.l), n=report.n,
                   all_pass=report.all_pass)
    return report.all_pass and binned_pass, payload, table


def _upo_orbits(cfg: ExperimentConfig) -> Result:
    orbits = enumerate_orbits(cfg.l, cfg.n)
    dist = upo_distribution(cfg.l, orbits)
    chain = exact_distribution("map1", cfg.l, cfg.n)
    agree = dist.probs == chain.probs
    payload = {
        "orbits": len(orbits),
        "distribution": _law(dist.probs),
        "chain_distribution": _law(chain.probs),
        "agree": agree,
    }
    return agree, payload, orbit_table(orbits)


def _upo_diagnostic(cfg: ExperimentConfig) -> Result:
    diag = generalized_upo_diagnostic(cfg.l, cfg.n)
    payload = {
        "l": str(diag.l),
        "n": diag.n,
        "cycles": diag.cycles,
        "total_variation": str(diag.total_variation),
        "upo": _law(diag.upo_probs),
        "chain": _law(diag.chain_probs),
        "note": "diagnostic only: orbit weights are not a trusted estimator "
                "for this family",
    }
    support = sorted(set(diag.upo_probs) | set(diag.chain_probs))
    return True, payload, ("g,upo_prob,chain_prob", (
        f"{g},{diag.upo_probs.get(g, 0)},{diag.chain_probs.get(g, 0)}\n"
        for g in support))


_UPO = {"map1": _upo_orbits, "map2": _upo_diagnostic}


def cmd_upo(cfg: ExperimentConfig) -> Result:
    if cfg.family not in _UPO:
        raise ValueError("upo supports families map1 and map2")
    return _UPO[cfg.family](cfg)


def cmd_multibaker(cfg: ExperimentConfig) -> Result:
    if cfg.b_values:
        rows = linear_response_sweep(cfg.b_values, cfg.ensemble, cfg.n, cfg.seed,
                                     cfg.transient)
        ok = all(abs(r.psi_hat - float(r.psi_analytic)) <= 4 * r.stderr for r in rows)
        payload = {
            "rows": [{"b": str(r.b), "l": str(r.l),
                      "psi_analytic": str(r.psi_analytic),
                      "psi_hat": r.psi_hat, "stderr": r.stderr,
                      "psi_hat_over_b": r.psi_hat_over_b,
                      "lambda_analytic": r.lambda_analytic,
                      "lambda_hat": r.lambda_hat,
                      "lambda_hat_over_b2": r.lambda_hat_over_b2}
                     for r in rows],
            "all_within_4_stderr": ok,
        }
        return ok, payload, sweep_table(rows)
    est = simulate_current(cfg.l, cfg.ensemble, cfg.n, cfg.seed, cfg.transient)
    fam = family("map2", cfg.l)
    psi = fam.psi
    ok = abs(est.psi_hat - float(psi)) <= 4 * est.stderr
    payload = {
        "psi_analytic": str(psi),
        "psi_hat": est.psi_hat,
        "stderr": est.stderr,
        "particles": est.particles,
        "steps": est.steps,
        "mean_lambda_analytic": float(psi) * math.log(fam.unit_base),
        "within_4_stderr": ok,
    }
    return ok, payload, ("l,psi_analytic,psi_hat,stderr,particles,steps", [
        f"{cfg.l},{psi},{est.psi_hat!r},{est.stderr!r},{est.particles},{est.steps}\n"])


def cmd_reversibility(cfg: ExperimentConfig) -> Result:
    m = _base_map(cfg)
    involution = build_involution(m.family)
    points = random_rational_points(cfg.ensemble, cfg.seed)
    report = verify_reversibility(m, involution, points)
    payload = {
        "map": report.map_name,
        "samples": report.samples,
        "checks": report.checks,
        "ok": report.ok,
        "failures": [{"identity": f.identity, "x": str(f.point.x),
                      "y": str(f.point.y), "detail": f.detail}
                     for f in report.failures],
        "proofs": {name: {**proof._asdict(), "failed_area": str(proof.failed_area)}
                   for name, proof in report.proofs.items()},
    }
    ok = report.ok
    if cfg.family == "composite":
        # a composite with a non-trivial strip must break the pointwise inverse,
        # on a set of positive area, and keep the coarse-grained identities
        if m.eps != 0:
            ok = (report.failed_identities() == {"conjugation_inverts_map"}
                  and report.proofs["conjugation_inverts_map"].failed_area > 0)
        payload["irreversible_as_expected"] = ok
    return ok, payload, None


_COMMANDS = {
    "density": cmd_density,
    "fr": cmd_fr,
    "upo": cmd_upo,
    "multibaker": cmd_multibaker,
    "reversibility": cmd_reversibility,
}

_DEFAULTS = {
    "density": {},
    "fr": {},
    "upo": {"family": "map1"},
    "multibaker": {"n": 1000},
    "reversibility": {"ensemble": 1000},
}

# defaults that also depend on the family, resolved per config once the
# sweep has expanded: upo runs map1 at l = 2/3, while map2, which needs
# l <= 1/4, keeps the config default 1/8
_FAMILY_DEFAULTS = {("upo", "map1"): {"l": Fraction(2, 3)}}

_FAMILIES = ("map1", "map2", "composite")
_MODES = ("exact", "montecarlo")


def _choice(*allowed):
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"{text!r} is not one of {', '.join(allowed)}")
        return text
    return parse


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError(f"need seed >= 0, got seed={seed}")
    return seed


# each config key with its one parser, for flags and sweep lines alike,
# and its flag help; the flags are listed in this order
_KEYS = {
    "family": (_choice(*_FAMILIES), " | ".join(_FAMILIES)),
    "l": (_frac, "strip width as an exact rational, e.g. 1/8"),
    "n": (int, "window length / step count"),
    "ensemble": (int, "sample count (particles / points)"),
    "transient": (int, None),
    "seed": (_seed, None),
    "mode": (_choice(*_MODES), " | ".join(_MODES)),
    "x_tilde": (_frac, "perturbation strip start (composite family)"),
    "eps": (_frac, "perturbation strip width (composite family)"),
    "b_values": (lambda text: tuple(_frac(b) for b in text.split(",")),
                 "comma-separated bias list for the response sweep"),
    "delta": (_frac, "window half-width for interval-binned ratio checks (fr, exact mode)"),
}


def _reads(cfg: ExperimentConfig) -> set[str]:
    """The config keys that the run of `cfg` reads."""
    keys = {"density": {"family", "l"}, "fr": {"family", "l", "n", "mode"},
            "upo": {"family", "l", "n"},
            "multibaker": {"n", "ensemble", "transient", "seed"},
            "reversibility": {"family", "l", "ensemble", "seed"}}[cfg.command]
    if cfg.command == "fr":
        keys |= {"delta"} if cfg.mode == "exact" else {"ensemble", "transient", "seed"}
    if cfg.command == "multibaker":
        keys.add("b_values" if cfg.b_values else "l")
    if "family" in keys and cfg.family == "composite":
        keys |= {"x_tilde", "eps"}
    return keys


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it as it is.
    Every command takes the same flags; `_reads` refuses those its run
    would not read."""
    parser = argparse.ArgumentParser(
        prog="bakerfr",
        description="verification experiments for dissipative baker maps")
    parser.add_argument("command", choices=_COMMANDS)
    for key, (_parse, text) in _KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=text)
    parser.add_argument("--out", help="output file prefix")
    parser.add_argument("--sweep", help="key=value file; comma lists fan out")
    return parser


def _configs_from_args(args) -> tuple[list[ExperimentConfig], Path]:
    """One config per point of the sweep (one without a sweep file).  A
    flag or sweep key that a config's run would not read is refused."""
    given = {key: parse(getattr(args, key)) for key, (parse, _text) in _KEYS.items()
             if getattr(args, key) is not None}
    cfg = ExperimentConfig(command=args.command, **{**_DEFAULTS[args.command], **given})
    out = Path(args.out) if args.out else Path(f"bakerfr_{args.command}")
    if not out.parent.is_dir():
        raise ValueError(f"output directory {out.parent} does not exist")
    lists: dict[str, list] = {}
    sweep = Path(args.sweep).read_text(encoding="utf-8") if args.sweep else ""
    for raw in sweep.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS or key in ("b_values", "delta"):
            raise ValueError(f"sweep file cannot set {key!r}")
        lists[key] = [_KEYS[key][0](v.strip()) for v in value.split(",")]
    keys = sorted(lists)
    configs = []
    for combo in itertools.product(*(lists[k] for k in keys)):
        c = cfg._replace(**dict(zip(keys, combo)))
        defaults = _FAMILY_DEFAULTS.get((c.command, c.family), {})
        configs.append(c._replace(**{k: v for k, v in defaults.items()
                                     if k not in given and k not in lists}))
    for c in configs:
        reads = _reads(c)
        unused = (set(given) | set(lists)) - reads
        if unused:
            setting = [f"--{k} {getattr(c, k)}" for k in ("family", "mode") if k in reads]
            raise ValueError(f"{' '.join([c.command, *setting])} does not use "
                             f"{', '.join(sorted(unused))}")
    return configs, out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        configs, out = _configs_from_args(args)
    except (OSError, ValueError) as exc:
        print(f"{args.command} [ERROR] {exc}")
        return 2
    # the exact laws are written as str(Fraction), whose integers outgrow
    # CPython's default cap of 4300 digits at long windows; 0 lifts the cap
    # (Python 3.10.7 and later; earlier releases have none)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        worst = 0
        for idx, cfg in enumerate(configs):
            prefix = out if len(configs) == 1 else out.with_name(f"{out.name}-{idx:03d}")
            try:
                passed, payload, table = _COMMANDS[cfg.command](cfg)
            except ValueError as exc:
                print(f"{cfg.command} [ERROR] {exc}")
                worst = max(worst, 2)
                continue
            except ConsistencyError as exc:
                print(f"{cfg.command} [INCONSISTENT] {exc}")
                worst = max(worst, 3)
                continue
            # the suffixes are appended, so a prefix may hold a dot
            _write_json(prefix, cfg, payload)
            if table is not None:
                write_csv(f"{prefix}.csv", *table)
            print(f"{cfg.command} [{'pass' if passed else 'FAIL'}] -> {prefix}.json")
            worst = max(worst, 0 if passed else 1)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return worst


if __name__ == "__main__":
    sys.exit(main())
