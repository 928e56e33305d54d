"""Command-line front end: every verification as a reproducible experiment.

Each subcommand reads a config (flags, optionally expanded by a sweep
file of key=value lines with comma-separated value lists), runs the
corresponding check, writes machine-readable outputs (a JSON report and,
where natural, a CSV table) under the --out prefix, and exits 0 exactly
when all asserted checks pass.  A flag or sweep key that the run would
not read is refused as bad input.  Outputs are byte-identical across
re-runs of the same config; rationals cross the boundary as exact
strings, `num/den` or `str(Fraction)` (an integer without `/1`).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

from bakerfr.fluctuation import (
    binned_fr_report,
    empirical_fr_report,
    exact_distribution,
    fr_report,
    monte_carlo_distribution,
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
    verify_composite,
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
    delta: Optional[Fraction] = None
    b_values: Optional[tuple[Fraction, ...]] = None

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(_fmt(b) for b in value)
            if value is not None:
                lines.append(f"{f.name}={_fmt(value)}")
        return "\n".join(lines) + "\n"


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


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


def cmd_density(cfg: ExperimentConfig, out: Path) -> int:
    m = _base_map(cfg)
    fam = family(m.family, cfg.l)
    # a composite's projection was checked equal to fam.x_factor, strip for strip
    rho = invariant_density(fam.x_factor)
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
    m = _base_map(cfg)
    notes = (_COMPOSITE_NOTES[cfg.mode],) if cfg.family == "composite" else ()
    binned = None
    if cfg.mode == "montecarlo":
        emp = monte_carlo_distribution(m, cfg.n, cfg.ensemble, cfg.transient, cfg.seed)
        report = empirical_fr_report(emp, notes)
    else:
        dist = exact_distribution(m.family, cfg.l, cfg.n)
        report = fr_report(dist)
        if cfg.delta is not None:
            binned = binned_fr_report(dist, cfg.delta)
    payload = report.to_dict()
    if binned is not None:
        payload["binned"] = binned.to_dict()
    if notes:
        payload["notes"] = list(notes)
    payload["config"] = cfg.to_text()
    _write_json(out.with_suffix(".json"), payload)
    write_fr_csv(report, out.with_suffix(".csv"))
    return 0 if report.all_pass and (binned is None or binned.all_pass) else 1


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
    ok = report.ok
    if cfg.family == "composite":
        # a composite with a non-trivial strip must break the pointwise inverse,
        # on a set of positive area, and keep the coarse-grained identities
        if m.eps != 0:
            ok = (report.failed_identities() == {"conjugation_inverts_map"}
                  and report.proofs["conjugation_inverts_map"].failed_area > 0)
        payload["irreversible_as_expected"] = ok
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bakerfr",
        description="verification experiments for dissipative baker maps")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for key, (_parse, text) in _KEYS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=text)
        p.add_argument("--out", help="output file prefix")
        p.add_argument("--sweep", help="key=value file; comma lists fan out")
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
    configs = [replace(cfg, **dict(zip(keys, combo)))
               for combo in itertools.product(*(lists[k] for k in keys))]
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
