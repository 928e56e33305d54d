"""Command-line front end: every verification as a reproducible experiment.

Each subcommand reads a config (flags, optionally expanded by a sweep
file of key=value lines with comma-separated value lists), runs the
corresponding check, writes machine-readable outputs (a JSON report and,
where natural, a CSV table) under the --out prefix, and exits 0 exactly
when all asserted checks pass.  Outputs are byte-identical across re-runs
of the same config; rationals cross the boundary as num/den strings.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

from bakerfr.fluctuation import (
    binned_fr_report,
    empirical_fr_report,
    exact_distribution,
    fr_report,
    monte_carlo_distribution,
    verify_fr_irreversible,
    write_fr_csv,
)
from bakerfr.families import family
from bakerfr.maps import (
    SCHEMA_VERSION,
    build_composite,
    build_involution,
    random_rational_points,
    verify_reversibility,
)
from bakerfr.multibaker import (
    linear_response_sweep,
    simulate_current,
    write_sweep_csv,
)
from bakerfr.periodic_orbits import (
    enumerate_orbits,
    generalized_upo_diagnostic,
    upo_distribution,
    write_orbits_csv,
)
from bakerfr.transfer import (
    ConsistencyError,
    invariant_density,
    project_unstable,
    verify_x_factor,
    write_density_csv,
)


def _frac(text) -> Fraction:
    try:
        return Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


@dataclass(frozen=True)
class ExperimentConfig:
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
    b_values: Optional[tuple[Fraction, ...]] = None
    delta: Optional[Fraction] = None

    def to_text(self) -> str:
        lines = [f"command={self.command}", f"family={self.family}",
                 f"l={_fmt(self.l)}", f"n={self.n}", f"ensemble={self.ensemble}",
                 f"transient={self.transient}", f"seed={self.seed}",
                 f"mode={self.mode}"]
        if self.x_tilde is not None:
            lines.append(f"x_tilde={_fmt(self.x_tilde)}")
        if self.eps is not None:
            lines.append(f"eps={_fmt(self.eps)}")
        if self.delta is not None:
            lines.append(f"delta={_fmt(self.delta)}")
        if self.b_values is not None:
            lines.append("b_values=" + ",".join(_fmt(b) for b in self.b_values))
        return "\n".join(lines) + "\n"


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _base_map(cfg: ExperimentConfig):
    if cfg.family == "composite":
        return build_composite(cfg.l, cfg.x_tilde, cfg.eps)
    return family(cfg.family, cfg.l).build_map()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_density(cfg: ExperimentConfig, out: Path) -> int:
    m = _base_map(cfg)
    fam = family(m.family, cfg.l)
    rho = invariant_density(project_unstable(m))
    analytic = fam.density
    agree = rho == analytic
    write_density_csv(rho, out.with_suffix(".csv"))
    _write_json(out.with_suffix(".json"), {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_text(),
        "family": fam.name,
        "l": _fmt(cfg.l),
        "density": [[_fmt(b), _fmt(v)] for b, v in zip(rho.breakpoints, rho.values)],
        "analytic": [[_fmt(b), _fmt(v)]
                     for b, v in zip(analytic.breakpoints, analytic.values)],
        "agree": agree,
    })
    return 0 if agree else 1


def cmd_fr(cfg: ExperimentConfig, out: Path) -> int:
    if cfg.mode == "exact":
        m = _base_map(cfg)
        if cfg.family == "composite":
            verify_x_factor(m)
        dist = exact_distribution(m.family, cfg.l, cfg.n)
        report = fr_report(dist)
        payload = report.to_dict()
        payload["config"] = cfg.to_text()
        ok = report.all_pass
        if cfg.delta is not None:
            binned = binned_fr_report(dist, cfg.delta)
            payload["binned"] = binned.to_dict()
            ok = ok and binned.all_pass
        if cfg.family == "composite":
            payload["notes"] = ["exact symbol law of the composite equals the "
                                "base map's law: checked that the composite's "
                                "x-factor equals map2's, strip for strip"]
        _write_json(out.with_suffix(".json"), payload)
        write_fr_csv(report, out.with_suffix(".csv"))
        return 0 if ok else 1
    if cfg.mode == "montecarlo":
        if cfg.family == "composite":
            report = verify_fr_irreversible(_base_map(cfg), cfg.n, cfg.ensemble,
                                            cfg.transient, cfg.seed)
        else:
            emp = monte_carlo_distribution(_base_map(cfg), cfg.n, cfg.ensemble,
                                           cfg.transient, cfg.seed)
            report = empirical_fr_report(emp)
        payload = report.to_dict()
        payload["config"] = cfg.to_text()
        _write_json(out.with_suffix(".json"), payload)
        write_fr_csv(report, out.with_suffix(".csv"))
        return 0 if report.all_pass else 1
    raise ValueError(f"unknown mode {cfg.mode!r}")


def _upo_orbits(cfg: ExperimentConfig, out: Path) -> int:
    orbits = enumerate_orbits(cfg.l, cfg.n)
    dist = upo_distribution(cfg.l, orbits)
    chain = exact_distribution("map1", cfg.l, cfg.n)
    agree = dist.probs == chain.probs
    write_orbits_csv(orbits, out.with_suffix(".csv"))
    _write_json(out.with_suffix(".json"), {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_text(),
        "orbits": len(orbits),
        "distribution": {str(g): _fmt(p) for g, p in sorted(dist.probs.items())},
        "chain_distribution": {str(g): _fmt(p)
                               for g, p in sorted(chain.probs.items())},
        "agree": agree,
    })
    return 0 if agree else 1


def _upo_diagnostic(cfg: ExperimentConfig, out: Path) -> int:
    diag = generalized_upo_diagnostic(cfg.l, cfg.n)
    payload = diag.to_dict()
    payload["config"] = cfg.to_text()
    payload["note"] = ("diagnostic only: orbit weights are not a trusted "
                       "estimator for this family")
    _write_json(out.with_suffix(".json"), payload)
    with open(out.with_suffix(".csv"), "w", encoding="utf-8") as fh:
        fh.write("g,upo_prob,chain_prob\n")
        support = sorted(set(diag.upo_probs) | set(diag.chain_probs))
        for g in support:
            fh.write(f"{g},{_fmt(diag.upo_probs.get(g, Fraction(0)))},"
                     f"{_fmt(diag.chain_probs.get(g, Fraction(0)))}\n")
    return 0


_UPO = {"map1": _upo_orbits, "map2": _upo_diagnostic}


def cmd_upo(cfg: ExperimentConfig, out: Path) -> int:
    if cfg.family not in _UPO:
        raise ValueError("upo supports families map1 and map2")
    return _UPO[cfg.family](cfg, out)


def cmd_multibaker(cfg: ExperimentConfig, out: Path) -> int:
    if cfg.b_values:
        rows = linear_response_sweep(cfg.b_values, cfg.ensemble, cfg.n, cfg.seed,
                                     cfg.transient)
        ok = all(abs(r.psi_hat - float(r.psi_analytic)) <= 4 * r.stderr for r in rows)
        write_sweep_csv(rows, out.with_suffix(".csv"))
        _write_json(out.with_suffix(".json"), {
            "schema_version": SCHEMA_VERSION,
            "config": cfg.to_text(),
            "rows": [{"b": _fmt(r.b), "l": _fmt(r.l),
                      "psi_analytic": _fmt(r.psi_analytic),
                      "psi_hat": r.psi_hat, "stderr": r.stderr,
                      "psi_hat_over_b": r.psi_hat_over_b,
                      "lambda_analytic": r.lambda_analytic,
                      "lambda_hat": r.lambda_hat,
                      "lambda_hat_over_b2": r.lambda_hat_over_b2}
                     for r in rows],
            "all_within_4_stderr": ok,
        })
        return 0 if ok else 1
    est = simulate_current(cfg.l, cfg.ensemble, cfg.n, cfg.seed, cfg.transient)
    fam = family("map2", cfg.l)
    psi = fam.psi
    ok = abs(est.psi_hat - float(psi)) <= 4 * est.stderr
    _write_json(out.with_suffix(".json"), {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_text(),
        "psi_analytic": _fmt(psi),
        "psi_hat": est.psi_hat,
        "stderr": est.stderr,
        "particles": est.particles,
        "steps": est.steps,
        "mean_lambda_analytic": float(psi) * math.log(fam.unit_base),
        "within_4_stderr": ok,
    })
    with open(out.with_suffix(".csv"), "w", encoding="utf-8") as fh:
        fh.write("l,psi_analytic,psi_hat,stderr,particles,steps\n")
        fh.write(f"{_fmt(cfg.l)},{_fmt(psi)},{est.psi_hat!r},{est.stderr!r},"
                 f"{est.particles},{est.steps}\n")
    return 0 if ok else 1


def cmd_reversibility(cfg: ExperimentConfig, out: Path) -> int:
    m = _base_map(cfg)
    involution = build_involution(m.family)
    points = random_rational_points(cfg.ensemble, cfg.seed)
    report = verify_reversibility(m, involution, points)
    payload = report.to_dict()
    payload["config"] = cfg.to_text()
    if cfg.family == "composite":
        # a composite with a non-trivial strip must break the pointwise
        # inverse while keeping the coarse-grained identities intact
        pointwise_only = report.failed_identities() == {"conjugation_inverts_map"}
        expected = pointwise_only if (cfg.eps is None or cfg.eps != 0) else report.ok
        payload["irreversible_as_expected"] = bool(expected)
        ok = bool(expected)
    else:
        ok = report.ok
    _write_json(out.with_suffix(".json"), payload)
    return 0 if ok else 1


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
    "upo": {"family": "map1", "l": Fraction(2, 3)},
    "multibaker": {"n": 1000},
    "reversibility": {"ensemble": 1000},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bakerfr",
        description="verification experiments for dissipative baker maps")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--family", choices=["map1", "map2", "composite"])
        p.add_argument("--l", help="strip width as an exact rational, e.g. 1/8")
        p.add_argument("--n", type=int, help="window length / step count")
        p.add_argument("--ensemble", type=int,
                       help="sample count (particles / points)")
        p.add_argument("--transient", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--mode", choices=["exact", "montecarlo"])
        p.add_argument("--x-tilde", dest="x_tilde",
                       help="perturbation strip start (composite family)")
        p.add_argument("--eps", help="perturbation strip width (composite family)")
        p.add_argument("--b-values", dest="b_values",
                       help="comma-separated bias list for the response sweep")
        p.add_argument("--delta", help="window half-width for interval-binned "
                                       "ratio checks (fr, exact mode)")
        p.add_argument("--out", help="output file prefix")
        p.add_argument("--sweep", help="key=value file; comma lists fan out")
    return parser


def _configs_from_args(args) -> tuple[list[ExperimentConfig], Path]:
    base = dict(_DEFAULTS[args.command])
    direct = {
        "family": args.family,
        "l": _frac(args.l) if args.l else None,
        "n": args.n,
        "ensemble": args.ensemble,
        "transient": args.transient,
        "seed": args.seed,
        "mode": args.mode,
        "x_tilde": _frac(args.x_tilde) if args.x_tilde else None,
        "eps": _frac(args.eps) if args.eps else None,
        "b_values": tuple(_frac(b) for b in args.b_values.split(","))
        if args.b_values else None,
        "delta": _frac(args.delta) if args.delta else None,
    }
    for key, value in direct.items():
        if value is not None:
            base[key] = value
    cfg = ExperimentConfig(command=args.command, **base)
    out = Path(args.out) if args.out else Path(f"bakerfr_{args.command}")
    if not args.sweep:
        return [cfg], out
    lists: dict[str, list] = {}
    for raw in Path(args.sweep).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        parts = [v.strip() for v in value.split(",")]
        if key == "l":
            lists[key] = [_frac(v) for v in parts]
        elif key in ("n", "ensemble", "transient", "seed"):
            lists[key] = [int(v) for v in parts]
        elif key in ("family", "mode"):
            lists[key] = parts
        elif key in ("x_tilde", "eps"):
            lists[key] = [_frac(v) for v in parts]
        else:
            raise ValueError(f"sweep file cannot set {key!r}")
    keys = sorted(lists)
    configs = []
    for combo in itertools.product(*(lists[k] for k in keys)):
        configs.append(replace(cfg, **dict(zip(keys, combo))))
    return configs, out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        configs, out = _configs_from_args(args)
    except (OSError, ValueError) as exc:
        print(f"{args.command} [ERROR] {exc}")
        return 2
    worst = 0
    for idx, cfg in enumerate(configs):
        prefix = out if len(configs) == 1 else out.with_name(f"{out.name}-{idx:03d}")
        try:
            rc = _COMMANDS[cfg.command](cfg, prefix)
        except ValueError as exc:
            print(f"{cfg.command} [ERROR] {exc}")
            worst = max(worst, 2)
            continue
        except ConsistencyError as exc:
            print(f"{cfg.command} [INCONSISTENT] {exc}")
            worst = max(worst, 3)
            continue
        status = "pass" if rc == 0 else "FAIL"
        print(f"{cfg.command} [{status}] -> {prefix}.json")
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(main())
