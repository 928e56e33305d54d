import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from bakerfr.cli import (
    SCHEMA_VERSION,
    ExperimentConfig,
    _configs_from_args,
    _write_json,
    build_parser,
    main,
)
from bakerfr.fluctuation import binned_fr_report, exact_distribution, fr_report
from bakerfr.maps import RegionLabel


def run(args):
    return main(args)


class TestConfig:
    def test_round_trip(self):
        # only the keys the run reads, in field order: fr in exact mode
        # reads no ensemble, transient or seed, map2 no strip, fr no biases
        cfg = ExperimentConfig(command="fr", family="map2", l=F(1, 8), n=15,
                               ensemble=1000, transient=50, seed=7, mode="exact",
                               x_tilde=F(7, 32), eps=F(3, 64),
                               b_values=(F(1, 100), F(1, 10)), delta=F(1, 3))
        assert cfg.to_text() == (
            "command=fr\nfamily=map2\nl=1/8\nn=15\nmode=exact\ndelta=1/3\n")
        assert cfg._replace(family="composite").to_text() == (
            "command=fr\nfamily=composite\nl=1/8\nn=15\nmode=exact\n"
            "x_tilde=7/32\neps=3/64\ndelta=1/3\n")
        assert cfg._replace(command="multibaker").to_text() == (
            "command=multibaker\nn=15\nensemble=1000\ntransient=50\nseed=7\n"
            "b_values=1/100,1/10\n")

    def test_rational_parsing_is_exact(self, tmp_path):
        sweep = tmp_path / "sweep.txt"
        sweep.write_text("l=1/3\n")
        for argv in (["density", "--l", "1/3"], ["density", "--sweep", str(sweep)]):
            [cfg], _out = _configs_from_args(build_parser().parse_args(argv))
            assert cfg.l == F(1, 3)


class TestDensityCommand:
    def test_exact_values_in_output(self, tmp_path):
        out = tmp_path / "d"
        assert run(["density", "--family", "map2", "--l", "1/8",
                    "--out", str(out)]) == 0
        text = (tmp_path / "d.csv").read_text()
        assert "4/3" in text and "2/3" in text

    def test_equilibrium_uniform(self, tmp_path):
        out = tmp_path / "d"
        assert run(["density", "--family", "map2", "--l", "1/4",
                    "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "d.json").read_text())
        assert payload["density"] == [["0", "1"]]

    def test_simple_family_uniform(self, tmp_path):
        out = tmp_path / "d"
        assert run(["density", "--family", "map1", "--l", "2/3",
                    "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "d.json").read_text())
        assert payload["agree"] is True


class TestFRCommand:
    def test_exact_generalized(self, tmp_path):
        out = tmp_path / "fr"
        assert run(["fr", "--family", "map2", "--l", "1/8", "--n", "15",
                    "--mode", "exact", "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "fr.json").read_text())
        assert payload["all_pass"] is True
        assert payload["alpha_max"] == "2"

    def test_exact_with_interval_binning(self, tmp_path):
        out = tmp_path / "frb"
        assert run(["fr", "--family", "map2", "--l", "1/8", "--n", "12",
                    "--mode", "exact", "--delta", "1/2", "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "frb.json").read_text())
        assert payload["binned"]["all_pass"] is True

    def test_exact_simple_zero_band(self, tmp_path):
        out = tmp_path / "fr"
        assert run(["fr", "--family", "map1", "--l", "2/3", "--n", "12",
                    "--mode", "exact", "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "fr.json").read_text())
        assert all(row["alpha"] == "1" for row in payload["rows"])

    def test_exact_ratio_below_the_float_range(self, tmp_path):
        out = tmp_path / "fr"
        assert run(["fr", "--family", "map1", "--l", "1/1000", "--n", "120",
                    "--mode", "exact", "--out", str(out)]) == 0
        assert json.loads((tmp_path / "fr.json").read_text())["all_pass"] is True

    @pytest.mark.parametrize("delta", [[], ["--delta", "1/2"]])
    def test_exact_law_past_the_int_digit_cap(self, tmp_path, delta):
        # the law's integers pass CPython's 4300-digit cap on str(int);
        # main lifts the cap while it writes and gives the caller its value back
        l = "1/40000000000000000000000000000000000000007"
        cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        assert run(["fr", "--family", "map2", "--l", l, "--n", "120", "--mode", "exact",
                    *delta, "--out", str(tmp_path / "fr")]) == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == cap
        rows = json.loads((tmp_path / "fr.json").read_text())["rows"]
        law = exact_distribution("map2", l, 120)
        if cap:
            sys.set_int_max_str_digits(0)
        try:
            assert [r["p_plus"] for r in rows] == [str(law.prob(r["g"])) for r in rows]
        finally:
            if cap:
                sys.set_int_max_str_digits(cap)

    def test_montecarlo_composite(self, tmp_path):
        out = tmp_path / "frmc"
        assert run(["fr", "--family", "composite", "--l", "1/8", "--n", "6",
                    "--mode", "montecarlo", "--ensemble", "50000",
                    "--transient", "40", "--seed", "5", "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "frmc.json").read_text())
        assert payload["all_pass"] is True


class TestOtherCommands:
    def test_upo(self, tmp_path):
        out = tmp_path / "u"
        assert run(["upo", "--n", "8", "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "u.json").read_text())
        assert payload["agree"] is True and payload["orbits"] == 256

    def test_upo_generalized_diagnostic(self, tmp_path):
        out = tmp_path / "u2"
        assert run(["upo", "--family", "map2", "--l", "1/8", "--n", "6",
                    "--out", str(out)]) == 0

    def test_upo_width_defaults_per_family(self, tmp_path):
        # map1 defaults to l = 2/3, map2 to the config default 1/8
        from test_output_digests import RUNS, _digest
        [(_args, _code, json_sha, csv_sha)] = [
            r for r in RUNS if r[0] == ["upo", "--family", "map1", "--l", "2/3", "--n", "8"]]
        out = tmp_path / "u1"
        assert run(["upo", "--n", "8", "--out", str(out)]) == 0
        assert _digest(out.with_suffix(".json"), out) == json_sha
        assert _digest(out.with_suffix(".csv"), out) == csv_sha
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["upo", "--family", "map2", "--n", "6", "--out", str(a)]) == 0
        assert run(["upo", "--family", "map2", "--n", "6", "--l", "1/8",
                    "--out", str(b)]) == 0
        for suffix in (".json", ".csv"):
            assert _digest(a.with_suffix(suffix), a) == _digest(b.with_suffix(suffix), b)

    def test_upo_sweep_resolves_the_width_per_family(self, tmp_path):
        sweep = tmp_path / "sweep.txt"
        sweep.write_text("family=map1,map2\n")
        out = tmp_path / "u"
        assert run(["upo", "--n", "4", "--sweep", str(sweep), "--out", str(out)]) == 0
        configs = [json.loads((tmp_path / f"u-00{i}.json").read_text())["config"]
                   for i in (0, 1)]
        assert ["family=map1" in c and "l=2/3" in c for c in configs] == [True, False]
        assert "family=map2" in configs[1] and "l=1/8" in configs[1]
        sweep.write_text("family=map1,map2\nl=1/5\n")
        assert run(["upo", "--n", "4", "--sweep", str(sweep), "--out", str(out)]) == 0
        assert all("l=1/5" in json.loads((tmp_path / f"u-00{i}.json").read_text())["config"]
                   for i in (0, 1))

    def test_upo_generalized_diagnostic_past_the_cycle_walk(self, tmp_path):
        out = tmp_path / "u21"
        assert run(["upo", "--family", "map2", "--l", "1/8", "--n", "21",
                    "--out", str(out)]) == 0
        assert json.loads((tmp_path / "u21.json").read_text())["cycles"] == 2 ** 21

    def test_multibaker(self, tmp_path):
        out = tmp_path / "mb"
        assert run(["multibaker", "--l", "1/8", "--ensemble", "20000",
                    "--n", "300", "--seed", "9", "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "mb.json").read_text())
        assert payload["within_4_stderr"] is True

    def test_multibaker_sweep(self, tmp_path):
        out = tmp_path / "lr"
        assert run(["multibaker", "--b-values", "1/20,1/10",
                    "--ensemble", "15000", "--n", "300", "--seed", "10",
                    "--out", str(out)]) == 0
        text = (tmp_path / "lr.csv").read_text()
        assert text.startswith("b,l,psi_analytic")

    def test_reversibility(self, tmp_path):
        out = tmp_path / "rev"
        assert run(["reversibility", "--family", "map2", "--l", "1/8",
                    "--ensemble", "200", "--seed", "4", "--out", str(out)]) == 0

    def test_reversibility_composite_expects_breakage(self, tmp_path):
        out = tmp_path / "revk"
        assert run(["reversibility", "--family", "composite", "--l", "1/8",
                    "--ensemble", "300", "--seed", "4", "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "revk.json").read_text())
        assert payload["irreversible_as_expected"] is True
        assert payload["ok"] is False
        # the exact witness: G o K o G o K differs from the identity on 5/128
        assert payload["proofs"]["conjugation_inverts_map"] == {
            "pieces": 10, "failed_pieces": 2, "failed_area": "5/128"}
        assert {name for name, proof in payload["proofs"].items()
                if proof["failed_pieces"]} == {"conjugation_inverts_map"}


class TestSweepFile:
    def test_fans_out_configs(self, tmp_path):
        sweep = tmp_path / "sweep.txt"
        sweep.write_text("l=1/8,1/6\nn=4,6\n")
        out = tmp_path / "fr"
        assert run(["fr", "--family", "map2", "--mode", "exact",
                    "--sweep", str(sweep), "--out", str(out)]) == 0
        produced = sorted(p.name for p in tmp_path.glob("fr-*.json"))
        assert produced == ["fr-000.json", "fr-001.json",
                            "fr-002.json", "fr-003.json"]


class TestOutputNames:
    """The suffixes are appended to the --out prefix, so a dot in it stays."""

    def printed(self, capsys) -> list[Path]:
        return [Path(line.split(" -> ")[1]) for line in capsys.readouterr().out.splitlines()]

    def test_printed_names_exist(self, tmp_path, capsys):
        assert run(["density", "--out", str(tmp_path / "res.1")]) == 0
        assert self.printed(capsys) == [tmp_path / "res.1.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["res.1.csv", "res.1.json"]

    def test_a_sweep_writes_one_file_per_config(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.txt"
        sweep.write_text("n=3,4\n")
        assert run(["fr", "--sweep", str(sweep), "--out", str(tmp_path / "run.v1")]) == 0
        printed = self.printed(capsys)
        assert printed == [tmp_path / "run.v1-000.json", tmp_path / "run.v1-001.json"]
        assert [json.loads(p.read_text())["n"] for p in printed] == [3, 4]
        assert sorted(tmp_path.glob("*.csv")) == [p.with_suffix(".csv") for p in printed]


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["density", "--family", "map2", "--l", "1/8"],
        ["fr", "--family", "map2", "--l", "1/8", "--n", "10", "--mode", "exact"],
        ["fr", "--family", "map2", "--l", "1/8", "--n", "5",
         "--mode", "montecarlo", "--ensemble", "20000", "--transient", "20",
         "--seed", "3"],
        ["upo", "--n", "6"],
        ["multibaker", "--l", "1/8", "--ensemble", "5000", "--n", "100",
         "--seed", "2"],
        ["reversibility", "--family", "map2", "--l", "1/8",
         "--ensemble", "100", "--seed", "1"],
    ])
    def test_byte_identical_reruns(self, tmp_path, args):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out_a)]) == 0
        assert run(args + ["--out", str(out_b)]) == 0
        for suffix in (".json", ".csv"):
            fa, fb = out_a.with_suffix(suffix), out_b.with_suffix(suffix)
            if fa.exists() or fb.exists():
                content_a = fa.read_bytes().replace(str(out_a).encode(), b"OUT")
                content_b = fb.read_bytes().replace(str(out_b).encode(), b"OUT")
                assert content_a == content_b


def canonical(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestCanonicalJSON:
    """Every JSON document is what json.dumps(..., sort_keys=True, indent=2)
    writes for it, the exact fr rows too, which the CLI renders by hand."""

    @pytest.mark.parametrize("args", [
        ["density", "--family", "map2", "--l", "1/8"],
        ["fr", "--family", "map2", "--mode", "exact", "--l", "3/37", "--n", "30"],
        ["fr", "--family", "map2", "--mode", "exact", "--l", "3/37", "--n", "30",
         "--delta", "1/2"],
        ["fr", "--family", "map1", "--mode", "exact", "--l", "2/3", "--n", "9",
         "--delta", "1/5"],
        ["fr", "--family", "composite", "--mode", "exact", "--l", "1/8", "--n", "8"],
        ["fr", "--family", "map2", "--mode", "montecarlo", "--l", "1/8", "--n", "5",
         "--ensemble", "20000", "--transient", "20", "--seed", "3"],
        ["upo", "--family", "map1", "--l", "2/3", "--n", "6"],
        ["upo", "--family", "map2", "--l", "1/8", "--n", "6"],
        ["multibaker", "--l", "1/8", "--ensemble", "2000", "--n", "50", "--seed", "2"],
        ["multibaker", "--b-values", "1/20,1/10", "--ensemble", "2000", "--n", "50",
         "--seed", "2"],
        ["reversibility", "--family", "map2", "--l", "1/8", "--ensemble", "50",
         "--seed", "1"],
        ["reversibility", "--family", "composite", "--l", "1/8", "--ensemble", "50",
         "--seed", "1"],
    ])
    def test_every_command_writes_canonical_json(self, tmp_path, args):
        out = tmp_path / "run"
        assert run(args + ["--out", str(out)]) == 0
        text = out.with_suffix(".json").read_text(encoding="utf-8")
        assert text == canonical(text)

    @settings(max_examples=25, deadline=None)
    @given(fam_l=st.one_of(
               st.tuples(st.just("map1"), st.fractions(F(1, 10 ** 6), F(1) - F(1, 10 ** 6),
                                                       max_denominator=10 ** 6)),
               st.tuples(st.just("map2"), st.fractions(F(1, 10 ** 6), F(1, 4) - F(1, 10 ** 6),
                                                       max_denominator=10 ** 6))),
           n=st.integers(1, 40),
           delta=st.none() | st.fractions(F(1, 50), F(3), max_denominator=50))
    def test_exact_fr_rows_are_canonical(self, tmp_path_factory, fam_l, n, delta):
        family_name, l = fam_l
        assume(l != F(1, 2))
        out = tmp_path_factory.mktemp("fr") / "fr"
        args = ["fr", "--family", family_name, "--mode", "exact", "--l", str(l),
                "--n", str(n), "--out", str(out)]
        assert run(args + (["--delta", str(delta)] if delta else [])) in (0, 1)
        text = out.with_suffix(".json").read_text(encoding="utf-8")
        assert text == canonical(text)
        # the values too: the rows as dicts, laid out as json.dumps took them
        # before the rows were rendered by hand
        doc = json.loads(text)
        law = exact_distribution(family_name, l, n)
        report = fr_report(law)
        n_lambda = report.n * report.mean_lambda
        assert doc["rows"] == [
            {"g": r.g, "p_plus": str(r.p_plus), "p_minus": str(r.p_minus),
             "alpha": str(r.alpha), "lhs": r.lhs, "target": r.target, "bound": r.bound,
             "lhs_over_n_mean": r.lhs / n_lambda, "bound_over_n_mean": r.bound / n_lambda,
             "e_n": str(r.e_n), "pass": r.passed} for r in report.rows]
        if delta:
            assert doc["binned"]["rows"] == [
                {"p": str(r.p), "prob_plus": str(r.prob_plus),
                 "prob_minus": str(r.prob_minus), "lhs_normalized": r.lhs_normalized,
                 "slack": r.slack, "pass": r.passed}
                for r in binned_fr_report(law, delta).rows]
        csv_lines = out.with_suffix(".csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [line.split(",")[1:3] for line in csv_lines] == [
            [r["p_plus"], r["p_minus"]] for r in doc["rows"]]

    def test_rendered_arrays_sit_at_their_depth(self, tmp_path):
        # an empty array, and arrays nested in objects and in a list
        def rendered(items):
            def render(pad):
                for item in items:
                    yield pad + json.dumps(item, sort_keys=True, indent=2).replace(
                        "\n", "\n" + pad)
            return render

        a, b = [{"x": 1.5, "y": "1/3"}, {"x": -0.0, "y": "2"}], [[1, 2], {}]
        payload = {"empty": rendered([]), "top": rendered(a),
                   "nested": {"deeper": {"rows": rendered(b)}, "z": True},
                   "listed": [rendered(a), "\u0001"]}
        cfg = ExperimentConfig("density")
        _write_json(tmp_path / "doc", cfg, payload)
        expect = {"empty": [], "top": a, "nested": {"deeper": {"rows": b}, "z": True},
                  "listed": [a, "\u0001"], "schema_version": SCHEMA_VERSION,
                  "config": cfg.to_text()}
        assert (tmp_path / "doc.json").read_text(encoding="utf-8") == json.dumps(
            expect, sort_keys=True, indent=2) + "\n"
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            _write_json(tmp_path / "bad", cfg, {"rows": set()})


class TestCachedParser:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_refused_calls_leave_the_parser_as_it_was(self, tmp_path, capsys):
        from test_output_digests import RUNS, _digest
        [(args, code, json_sha, csv_sha)] = [r for r in RUNS
                                             if r[0][:3] == ["upo", "--family", "map1"]]
        assert run(["fr", "--mode", "exact", "--seed", "3",
                    "--out", str(tmp_path / "bad")]) == 2
        with pytest.raises(SystemExit) as exc:
            run(["upo", "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        out = tmp_path / "run"
        assert run(args + ["--out", str(out)]) == code
        assert _digest(out.with_suffix(".json"), out) == json_sha
        assert _digest(out.with_suffix(".csv"), out) == csv_sha


# pieces of the composite's strip B (the full-height piece right of the
# fold, and the lower fold piece, which shares its x-interval with the
# upper), the offset a corruption adds to one of them, and how the
# inconsistency report starts
def full_height(k, b):
    return b.x_lo == k.x_tilde + k.eps and b.label == RegionLabel.B


def lower_fold(k, b):
    return b.x_lo == k.x_tilde and b.y_hi == F(1, 2)


CORRUPTIONS = {
    "full_height": (full_height, (F(1, 1000), 0), "mapK: x-factor "),
    "fold": (lower_fold, (F(1, 1000), 0), "mapK: x-factor "),
    "fold_y": (lower_fold, (0, F(1, 1000)), "mapK: piece on "),
}


def corrupt_composite(monkeypatch, piece):
    """Make the builder the CLI calls return a composite with one piece
    of strip B shifted; return how the inconsistency report starts."""
    from bakerfr import cli

    real = cli.build_composite
    hit, (dx, dy), reason = CORRUPTIONS[piece]

    def corrupted(*args):
        k = real(*args)
        assert sum(hit(k, b) for b in k.branches) == 1
        return k._replace(branches=tuple(
            b._replace(offset=(b.offset[0] + dx, b.offset[1] + dy))
            if hit(k, b) else b
            for b in k.branches))

    monkeypatch.setattr(cli, "build_composite", corrupted)
    return reason


class TestCompositeCheck:
    @pytest.mark.parametrize("piece", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("mode_args", [
        ["--mode", "exact"],
        ["--mode", "montecarlo", "--ensemble", "2000", "--transient", "10"],
    ])
    def test_corrupted_piece_is_inconsistent(self, tmp_path, monkeypatch, capsys,
                                             mode_args, piece):
        reason = corrupt_composite(monkeypatch, piece)
        rc = run(["fr", "--family", "composite", "--l", "1/8", "--n", "6",
                  *mode_args, "--out", str(tmp_path / "fr")])
        out = capsys.readouterr().out
        assert rc == 3
        assert out.startswith("fr [INCONSISTENT] " + reason)
        assert not (tmp_path / "fr.json").exists()

    @pytest.mark.parametrize("piece", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("args", [
        pytest.param(["density"], id="density"),
        *(pytest.param(["fr", "--mode", "montecarlo", "--n", "6", "--ensemble", "2000",
                        "--transient", "10", "--seed", str(seed)], id=f"montecarlo-seed{seed}")
          for seed in range(6)),
        pytest.param(["reversibility", "--ensemble", "50"], id="reversibility"),
    ])
    def test_every_command_checks_the_composite(self, tmp_path, monkeypatch, capsys,
                                                args, piece):
        reason = corrupt_composite(monkeypatch, piece)
        rc = run([args[0], "--family", "composite", "--l", "1/8", *args[1:],
                  "--out", str(tmp_path / "k")])
        out = capsys.readouterr().out
        assert rc == 3
        assert out.startswith(f"{args[0]} [INCONSISTENT] {reason}")
        assert not (tmp_path / "k.json").exists()

    def test_exact_note_states_the_check(self, tmp_path):
        out = tmp_path / "frk"
        assert run(["fr", "--family", "composite", "--l", "1/8", "--n", "8",
                    "--mode", "exact", "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "frk.json").read_text())
        assert payload["all_pass"] is True
        assert "x-factor equals map2's" in payload["notes"][0]

    def test_density_projects_the_composite(self, tmp_path):
        out = tmp_path / "dk"
        assert run(["density", "--family", "composite", "--l", "1/8",
                    "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "dk.json").read_text())
        assert payload["family"] == "map2" and payload["agree"] is True


class TestErrorHandling:
    def test_equilibrium_gives_explanatory_error(self, tmp_path, capsys):
        out = tmp_path / "bad"
        rc = run(["fr", "--family", "map2", "--l", "1/4", "--n", "5",
                  "--mode", "exact", "--out", str(out)])
        assert rc == 2
        assert "mean contraction vanishes" in capsys.readouterr().out

    def test_bad_family_parameter(self, tmp_path):
        rc = run(["density", "--family", "map2", "--l", "1/3",
                  "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("args,reason", [
        (["fr", "--l", "abc"], "Invalid literal"),
        (["fr", "--l", "1/0"], "zero denominator"),
        (["fr", "--sweep", "{sweep}"], "sweep file cannot set 'delta'"),
        (["fr", "--sweep", "{missing}"], "No such file"),
        (["fr", "--family", "map2", "--mode", "montecarlo", "--ensemble", "0",
          "--n", "10"], "ensemble=0"),
        (["multibaker", "--ensemble", "1", "--n", "10"], "at least 2 particles"),
        (["fr", "--family", "map2", "--mode", "montecarlo", "--ensemble", "100",
          "--n", "0"], "need n >= 1, got n=0"),
        (["multibaker", "--ensemble", "100", "--n", "0"], "need n >= 1 steps, got n=0"),
        (["fr", "--family", "map2", "--mode", "montecarlo", "--ensemble", "1000",
          "--n", "5", "--transient", "-3"], "transient=-3"),
        (["multibaker", "--ensemble", "100", "--n", "10", "--transient", "-1"],
         "transient=-1"),
        (["reversibility", "--ensemble", "-2"], "count=-2"),
        # flags and sweep keys that the run would not read
        (["multibaker", "--family", "map1", "--l", "1/8"],
         "multibaker does not use family"),
        (["multibaker", "--l", "1/8", "--b-values", "1/10"], "multibaker does not use l"),
        (["fr", "--mode", "montecarlo", "--delta", "1/2"],
         "fr --family map2 --mode montecarlo does not use delta"),
        (["fr", "--family", "map1", "--l", "2/3", "--x-tilde", "1/5"],
         "fr --family map1 --mode exact does not use x_tilde"),
        (["density", "--family", "map2", "--eps", "1/100"],
         "density --family map2 does not use eps"),
        (["reversibility", "--family", "map2", "--x-tilde", "1/5", "--eps", "1/100"],
         "does not use eps, x_tilde"),
        (["fr", "--mode", "exact", "--seed", "3"], "--mode exact does not use seed"),
        (["fr", "--family", "map2", "--sweep", "{ignored}"],
         "fr --family map2 --mode exact does not use eps"),
        (["fr", "--family", "map2", "--sweep", "{montecarlo}", "--delta", "1/2"],
         "--mode montecarlo does not use delta"),
        (["multibaker", "--sweep", "{family}"], "multibaker does not use family"),
        (["fr", "--sweep", "{bad_mode}"], "'fast' is not one of exact, montecarlo"),
        (["density", "--family", "map3"], "'map3' is not one of map1, map2, composite"),
        # a negative seed, which random.Random would fold onto its absolute value
        (["reversibility", "--seed", "-1"], "need seed >= 0, got seed=-1"),
        (["fr", "--family", "map2", "--mode", "montecarlo", "--seed", "-1"],
         "need seed >= 0, got seed=-1"),
        (["multibaker", "--seed", "-3"], "need seed >= 0, got seed=-3"),
        (["fr", "--mode", "montecarlo", "--sweep", "{negative_seed}"],
         "need seed >= 0, got seed=-2"),
        # b = 1 maps to l = 0: refused as a bias, not as a strip width
        (["multibaker", "--b-values", "1", "--ensemble", "10", "--n", "5"],
         "need a bias b in (0, 1), got b=1"),
    ])
    def test_bad_input_exits_2_without_traceback(self, tmp_path, capsys, args, reason):
        files = {"sweep": "delta=1/2\n", "ignored": "eps=1/100\n",
                 "montecarlo": "mode=exact,montecarlo\n", "family": "family=map2\n",
                 "bad_mode": "mode=fast\n", "negative_seed": "seed=4,-2\n"}
        for name, text in files.items():
            (tmp_path / f"{name}.txt").write_text(text)
        args = [a.format(missing=tmp_path / "absent.txt",
                         **{name: tmp_path / f"{name}.txt" for name in files})
                for a in args]
        rc = run(args + ["--out", str(tmp_path / "x")])
        out = capsys.readouterr().out
        assert rc == 2
        assert out.startswith(f"{args[0]} [ERROR] ") and reason in out

    def test_missing_output_directory_exits_2_before_any_work(self, tmp_path, capsys,
                                                              monkeypatch):
        from bakerfr import cli

        def never(cfg, out):
            raise AssertionError("ran with an output directory that does not exist")

        monkeypatch.setitem(cli._COMMANDS, "fr", cli._COMMANDS["fr"]._replace(run=never))
        rc = run(["fr", "--out", str(tmp_path / "absent" / "fr")])
        assert rc == 2
        assert capsys.readouterr().out.startswith(
            f"fr [ERROR] output directory {tmp_path / 'absent'} does not exist")
        assert not (tmp_path / "absent").exists()

    def test_montecarlo_run_with_no_tested_pair_fails(self, tmp_path):
        out = tmp_path / "frmc"
        rc = run(["fr", "--family", "map2", "--mode", "montecarlo",
                  "--ensemble", "10", "--n", "10", "--out", str(out)])
        payload = json.loads((tmp_path / "frmc.json").read_text())
        assert rc == 1
        assert payload["rows"] == [] and payload["all_pass"] is False

    def test_inconsistency_has_its_own_exit_code(self, tmp_path, monkeypatch, capsys):
        from bakerfr import families, transfer

        real = transfer.region_measures

        def corrupted(map1d):
            good = real(map1d)
            if map1d.branches[0].hi != F(1, 7):  # strip A is [0, l)
                return good
            mu = dict(good)
            mu[RegionLabel.A] /= 2
            return mu

        monkeypatch.setattr(transfer, "region_measures", corrupted)
        families._family.cache_clear()
        sweep = tmp_path / "sweep.txt"
        sweep.write_text("l=1/7,1/8\n")
        rc = run(["fr", "--family", "map2", "--n", "4", "--mode", "exact",
                  "--sweep", str(sweep), "--out", str(tmp_path / "fr")])
        assert rc == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("fr [INCONSISTENT] measures ")
        assert lines[1].startswith("fr [pass]")
        assert (tmp_path / "fr-001.json").exists()


class TestProcessExitStatus:
    """The exit status a shell sees, from a real interpreter process."""

    @pytest.mark.parametrize("args,code", [
        (["density", "--family", "map2", "--l", "1/8"], 0),
        (["fr", "--family", "map2", "--mode", "montecarlo", "--ensemble", "10",
          "--n", "10"], 1),
        (["density", "--l", "1/3"], 2),
        (["nosuchcommand"], 2),
    ])
    def test_module_exit_status(self, tmp_path, args, code):
        import bakerfr

        # outputs go to the default prefix in the working directory
        src = str(Path(bakerfr.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "bakerfr.cli", *args], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True)
        assert proc.returncode == code, proc.stdout + proc.stderr

    def test_console_script_is_main(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        module, _, attr = target["bakerfr"].partition(":")
        assert getattr(importlib.import_module(module), attr) is main
