"""Command-line front end: every verification as a reproducible experiment.

Each command reads a config (flags, optionally expanded by a sweep
file of key=value lines with comma-separated value lists), runs the
corresponding check and returns its result: whether the asserted checks
passed, a JSON payload and, where natural, a CSV table.  This module is
the one writer of bakerfr's outputs: `_write_json` puts the payload,
with the schema version and the config, in `<out>.json`, and
`write_csv` puts a header and lines already formatted, one per row, in
`<out>.csv`.  The exact fr rows, whose rationals run to thousands of
digits, are converted to text once and rendered by hand into both files;
`json.dumps` writes the rest of each document.  The library returns
records and writes no file.  A run exits 0 exactly when all asserted
checks pass.  A flag or sweep key that the run would not read is refused
as bad input.  Outputs are byte-identical across re-runs of the same
config.  Every rational is written one way, as Python's `str(Fraction)`:
an integer as `k`, anything else as `p/q`.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from bakerfr.fluctuation import (
    MIN_COUNT,
    Z_SCORE,
    BinnedFRReport,
    FRReport,
    binned_fr_report,
    empirical_fr_report,
    exact_distribution,
    fr_report,
    monte_carlo_distribution,
)
from bakerfr.families import family, verify_composite, verify_x_factor
from bakerfr.maps import (
    build_composite,
    build_involution,
    random_rational_points,
    verify_reversibility,
)
from bakerfr.multibaker import (
    SweepRow,
    current_row,
    linear_response_sweep,
)
from bakerfr.periodic_orbits import (
    PeriodicOrbit,
    enumerate_orbits,
    generalized_upo_diagnostic,
    upo_distribution,
)
from bakerfr.transfer import ConsistencyError, invariant_density

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
# a JSON array whose items a command renders itself, a payload value:
# called with the indentation of an item's first line, it yields each item
# as json.dumps(..., sort_keys=True, indent=2) would write it there
Rendered = Callable[[str], Iterator[str]]
# what a command returns: whether its checks passed, its JSON payload and
# its CSV table, if it writes one
Result = tuple[bool, dict, Optional[Table]]

# what json.dumps writes for the "\0" that stands in for a rendered array;
# no other payload string holds a NUL, so the text holds no other \u0000
_MARK = '"\\u0000"'


def _write_json(out: Path, cfg: ExperimentConfig, payload: dict) -> None:
    """`<out>.json`: the payload with the schema version and the config,
    keys sorted, indented by 2.  `json.dumps` writes every value but the
    rendered arrays, which are written item by item at their marks."""
    doc = {**payload, "schema_version": SCHEMA_VERSION, "config": cfg.to_text()}
    arrays: list[Rendered] = []

    def mark(value):
        if not callable(value):
            raise TypeError(f"{type(value).__name__} is not JSON serializable")
        arrays.append(value)
        return "\0"

    # with sort_keys the marks come in the order of the text
    pieces = (json.dumps(doc, sort_keys=True, indent=2, default=mark) + "\n").split(_MARK)
    with open(f"{out}.json", "w", encoding="utf-8") as fh:
        fh.write(pieces[0])
        for render, before, after in zip(arrays, pieces, pieces[1:]):
            line = before[before.rfind("\n") + 1:]
            pad = line[:len(line) - len(line.lstrip(" "))]
            sep = "[\n"
            for item in render(pad + "  "):
                fh.write(sep)
                fh.write(item)
                sep = ",\n"
            fh.write("[]" if sep == "[\n" else f"\n{pad}]")
            fh.write(after)


def write_csv(path, header: str, lines: Iterable[str]) -> None:
    """The one CSV writer: the header line, then the formatted lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


_FR_HEADER = "g,p_plus,p_minus,lhs,target,bound,pass"


def fr_texts(report: FRReport) -> list[tuple[str, str, str, str]]:
    """Each exact row's p_plus, p_minus, alpha and e_n as text, converted
    once for both the JSON row and the CSV line."""
    return [(str(r.p_plus), str(r.p_minus), str(r.alpha), str(r.e_n))
            for r in report.rows]


def fr_table(report: FRReport, texts: list[tuple[str, str, str, str]]) -> Table:
    """The exact ratio rows, probabilities as exact rationals, from the
    rows' texts (`fr_texts`)."""
    return (_FR_HEADER, (f"{r.g},{p_plus},{p_minus},{r.lhs!r},{r.target!r},"
                         f"{r.bound!r},{r.passed}\n"
                         for r, (p_plus, p_minus, _alpha, _e_n) in zip(report.rows, texts)))


# The exact rows as JSON, one f-string per row: keys in sorted order,
# floats as float.__repr__ (finite: both sides of every ratio are
# positive), booleans as true/false, and rationals quoted as they are,
# since str(Fraction) holds only digits, "-" and "/", which JSON does not
# escape.  The canonical-form test of the CLI holds them to json.dumps.
def _fr_rows(report: FRReport, texts: list[tuple[str, str, str, str]]) -> Rendered:
    n_lambda = report.n * report.mean_lambda

    def items(pad: str) -> Iterator[str]:
        k = pad + "  "
        for r, (p_plus, p_minus, alpha, e_n) in zip(report.rows, texts):
            yield (f'{pad}{{\n{k}"alpha": "{alpha}",\n{k}"bound": {r.bound!r},\n'
                   f'{k}"bound_over_n_mean": {r.bound / n_lambda!r},\n{k}"e_n": "{e_n}",\n'
                   f'{k}"g": {r.g},\n{k}"lhs": {r.lhs!r},\n'
                   f'{k}"lhs_over_n_mean": {r.lhs / n_lambda!r},\n'
                   f'{k}"p_minus": "{p_minus}",\n{k}"p_plus": "{p_plus}",\n'
                   f'{k}"pass": {"true" if r.passed else "false"},\n'
                   f'{k}"target": {r.target!r}\n{pad}}}')
    return items


def _binned_rows(binned: BinnedFRReport) -> Rendered:
    def items(pad: str) -> Iterator[str]:
        k = pad + "  "
        for r in binned.rows:
            yield (f'{pad}{{\n{k}"lhs_normalized": {r.lhs_normalized!r},\n'
                   f'{k}"p": "{r.p}",\n{k}"pass": {"true" if r.passed else "false"},\n'
                   f'{k}"prob_minus": "{r.prob_minus}",\n'
                   f'{k}"prob_plus": "{r.prob_plus}",\n{k}"slack": {r.slack!r}\n{pad}}}')
    return items


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
    fam = verify_x_factor(_base_map(cfg))
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
        texts = fr_texts(report)
        payload = {
            "alpha_min": str(report.alpha_min), "alpha_max": str(report.alpha_max),
            "rows": _fr_rows(report, texts),
        }
        if notes:
            payload["notes"] = notes
        table = fr_table(report, texts)
        if cfg.delta is not None:
            binned = binned_fr_report(dist, cfg.delta)
            payload["binned"] = {"delta": str(binned.delta), "all_pass": binned.all_pass,
                                 "rows": _binned_rows(binned)}
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
    # each law value as text once, for the JSON and the CSV
    upo, chain = _law(diag.upo.probs), _law(diag.chain.probs)
    payload = {
        "l": str(diag.l),
        "n": diag.n,
        "cycles": diag.cycles,
        "total_variation": str(diag.total_variation),
        "upo": upo,
        "chain": chain,
        "note": "diagnostic only: orbit weights are not a trusted estimator "
                "for this family",
    }
    support = sorted(set(diag.upo.counts) | set(diag.chain.counts))
    return True, payload, ("g,upo_prob,chain_prob", (
        f"{g},{upo.get(str(g), '0')},{chain.get(str(g), '0')}\n" for g in support))


_UPO = {"map1": _upo_orbits, "map2": _upo_diagnostic}


def cmd_upo(cfg: ExperimentConfig) -> Result:
    if cfg.family not in _UPO:
        raise ValueError("upo supports families map1 and map2")
    return _UPO[cfg.family](cfg)


def cmd_multibaker(cfg: ExperimentConfig) -> Result:
    args = (cfg.ensemble, cfg.n, cfg.seed, cfg.transient)
    rows = (linear_response_sweep(cfg.b_values, *args) if cfg.b_values
            else [current_row(cfg.l, *args)])
    ok = all(abs(r.psi_hat - float(r.psi_analytic)) <= 4 * r.stderr for r in rows)
    if cfg.b_values:
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
    [row] = rows
    payload = {
        "psi_analytic": str(row.psi_analytic),
        "psi_hat": row.psi_hat,
        "stderr": row.stderr,
        "particles": cfg.ensemble,
        "steps": cfg.n,
        "mean_lambda_analytic": row.lambda_analytic,
        "within_4_stderr": ok,
    }
    return ok, payload, ("l,psi_analytic,psi_hat,stderr,particles,steps", [
        f"{row.l},{row.psi_analytic},{row.psi_hat!r},{row.stderr!r},{cfg.ensemble},{cfg.n}\n"])


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


class _Command(NamedTuple):
    """A command's run, the config keys every run reads, its defaults, and
    its defaults per family, resolved once the sweep has expanded."""

    run: Callable[[ExperimentConfig], Result]
    reads: set[str]
    defaults: dict = {}
    family_defaults: dict = {}


# upo runs map1 at l = 2/3, while map2, which needs l <= 1/4, keeps the
# config default 1/8
_COMMANDS = {
    "density": _Command(cmd_density, {"family", "l"}),
    "fr": _Command(cmd_fr, {"family", "l", "n", "mode"}),
    "upo": _Command(cmd_upo, {"family", "l", "n"}, {"family": "map1"},
                    {"map1": {"l": Fraction(2, 3)}}),
    "multibaker": _Command(cmd_multibaker, {"n", "ensemble", "transient", "seed"}, {"n": 1000}),
    "reversibility": _Command(cmd_reversibility, {"family", "l", "ensemble", "seed"},
                              {"ensemble": 1000}),
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
    keys = set(_COMMANDS[cfg.command].reads)
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
    command = _COMMANDS[args.command]
    cfg = ExperimentConfig(command=args.command, **{**command.defaults, **given})
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
        defaults = command.family_defaults.get(c.family, {})
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
                passed, payload, table = _COMMANDS[cfg.command].run(cfg)
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
