"""Acceptance suite: one test per criterion, at the stated sizes and
tolerances.  Run with `pytest tests/test_acceptance.py -v -s` to see one
pass/fail line per criterion."""

import math
import random
import time
from fractions import Fraction as F

from bakerfr.cli import main as cli_main
from bakerfr.fluctuation import (
    alpha_bounds_check,
    brute_force_distribution,
    empirical_fr_report,
    exact_distribution,
    fr_report,
    monte_carlo_distribution,
)
from bakerfr.maps import (
    build_composite,
    build_generalized_baker,
    build_involution,
    build_simple_baker,
    random_rational_points,
    verify_reversibility,
)
from bakerfr.multibaker import (
    analytic_current,
    linear_response_sweep,
    simulate_current,
)
from bakerfr.families import family, verify_composite
from bakerfr.periodic_orbits import enumerate_orbits, upo_distribution
from bakerfr.transfer import (
    invariant_density,
    project_unstable,
    region_measures,
)
from reference import g_count, iterate


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_exact_invariant_density():
    t0 = time.perf_counter()
    for l in (F(1, 8), F(1, 6), F(1, 5), F(1, 4)):
        rho = invariant_density(project_unstable(build_generalized_baker(l)))
        assert rho == family("map2", l).density
    elapsed = time.perf_counter() - t0
    special = invariant_density(project_unstable(build_generalized_baker(F(1, 8))))
    assert special.values == (F(4, 3), F(2, 3))
    report(1, elapsed < 1.0,
           f"stationary densities equal the closed form exactly "
           f"(4 parameters, {elapsed:.3f}s)")


def test_criterion_02_measure_consistency():
    rng = random.Random(2026)
    checked = 0
    for _ in range(20):
        den = rng.randint(5, 400)
        num = rng.randint(1, max(1, den // 4))
        l = F(num, den)
        # inside, the pushed-indicator matrix equals the strip chain entry
        # by entry and the measures are stationary under the chain
        mu = region_measures(project_unstable(build_generalized_baker(l)))
        assert sum(mu.values()) == 1
        checked += 1
    report(2, checked == 20,
           "pushed-indicator matrix equals the strip chain entry by entry, and "
           f"density-times-width measures are stationary, for {checked} random parameters")


def test_criterion_03_reversibility_suite():
    t0 = time.perf_counter()
    pts = random_rational_points(1000, seed=101)
    rep1 = verify_reversibility(build_simple_baker(F(2, 3)),
                                build_involution("map1"), pts)
    rep2 = verify_reversibility(build_generalized_baker(F(1, 8)),
                                build_involution("map2"), pts)
    elapsed = time.perf_counter() - t0
    ok = rep1.ok and rep2.ok and rep1.samples >= 1000 and rep2.samples >= 1000
    report(3, ok and elapsed < 1.0,
           f"involution, inverse-conjugation, jacobian and region-conjugacy "
           f"identities exact on {rep1.samples}+{rep2.samples} points "
           f"({elapsed:.3f}s)")


def test_criterion_04_antisymmetry():
    cases = ((build_simple_baker(F(2, 3)), build_involution("map1")),
             (build_generalized_baker(F(1, 8)), build_involution("map2")))
    checked = 0
    for m, g in cases:
        for p in random_rational_points(100, seed=202):
            fwd = iterate(m, p, 30)
            for n in range(1, 31):
                assert g_count(m, g.apply(fwd[n]), n) == -g_count(m, p, n)
                checked += 1
    report(4, checked == 2 * 100 * 30,
           f"reversed-segment contraction negates exactly in {checked} cases")


def test_criterion_05_oracle_equivalence():
    for family, l in (("map1", F(2, 3)), ("map2", F(1, 8))):
        for n in range(1, 13):
            assert (exact_distribution(family, l, n).probs
                    == brute_force_distribution(family, l, n).probs)
    for n in range(1, 13):
        assert (upo_distribution(F(2, 3), enumerate_orbits(F(2, 3), n)).probs
                == exact_distribution("map1", F(2, 3), n).probs)
    report(5, True, "dynamic programming, explicit enumeration and orbit "
                    "weights give bit-identical laws for n <= 12")


def test_criterion_06_simple_map_exact_ratio():
    l = F(2, 3)
    base = family("map1", l).unit_base
    for n in range(1, 21):
        d = exact_distribution("map1", l, n)
        for g in d.support():
            if g > 0:
                assert d.prob(g) == d.prob(-g) * base ** g
        rep = fr_report(d)
        assert rep.all_pass and all(r.alpha == 1 for r in rep.rows)
    report(6, True, "two-branch ratio identity holds with zero error "
                    "for all g, n <= 20")


def test_criterion_07_generalized_band_and_alpha():
    t0 = time.perf_counter()
    for l in (F(1, 8), F(1, 6), F(1, 5)):
        p_star = (1 + 4 * l) / (1 - 4 * l)  # unit quantum over mean contraction
        for n in range(1, 21):
            rep = fr_report(exact_distribution("map2", l, n))
            assert rep.all_pass
            assert all(abs(r.e_n) <= p_star for r in rep.rows)
        for n in range(1, 9):
            bounds = alpha_bounds_check(l, n)
            assert bounds.all_within
    elapsed = time.perf_counter() - t0
    report(7, elapsed < 60.0,
           f"ratio band, attainable-range bound and exhaustive per-sequence "
           f"corrections hold for three parameters ({elapsed:.1f}s)")


def test_criterion_08_analytic_steady_state():
    # exact route agreement (also checked when each family record is built)
    for l in (F(1, 8), F(1, 6), F(1, 5)):
        assert family("map2", l).psi == analytic_current(l)
    fam1 = family("map1", F(2, 3))
    assert (fam1.psi, fam1.unit_base) == (F(1, 3), F(2, 1))
    # Monte-Carlo mean with one million samples
    l = F(1, 8)
    n = 10
    m = build_generalized_baker(l)
    emp = monte_carlo_distribution(m, n, 1_000_000, 100, seed=303)
    phi = math.log(family("map2", l).unit_base)
    mean_g = sum(g * c for g, c in emp.counts.items()) / emp.total
    lam_hat = mean_g * phi / n
    var_g = sum(g * g * c for g, c in emp.counts.items()) / emp.total - mean_g ** 2
    stderr = phi / n * math.sqrt(var_g / emp.total)
    lam = float(family("map2", l).psi) * phi
    ok = abs(lam_hat - lam) <= 4 * stderr and stderr / lam < 0.01
    report(8, ok,
           f"mean contraction {lam_hat:.6f} vs analytic {lam:.6f} "
           f"(4*stderr = {4 * stderr:.2e}, relative stderr "
           f"{stderr / lam:.2e})")


def test_criterion_09_transport():
    t0 = time.perf_counter()
    est = simulate_current(F(1, 8), particles=100_000, steps=1000, seed=404)
    elapsed = time.perf_counter() - t0
    assert abs(est.psi_hat - 1 / 3) <= 4 * est.stderr
    assert elapsed < 30.0
    rows = linear_response_sweep(
        [F(1, 100), F(1, 50), F(1, 20), F(1, 10)],
        particles=100_000, steps=1000, seed=405)
    for r in rows:
        b = float(r.b)
        assert abs(r.psi_hat / b - float(1 / (4 - 3 * r.b))) <= 4 * r.stderr / b
        phi = abs(math.log(float(2 * (1 - 2 * r.l))))
        sigma_lam = phi * r.stderr
        assert abs(r.lambda_hat_over_b2 - 0.125) <= 0.3 * b + 4 * sigma_lam / b ** 2
    report(9, True,
           f"current {est.psi_hat:.5f} vs 1/3 within 4 stderr in {elapsed:.1f}s; "
           "response sweep follows 1/(4-3b) and the b^2/8 contraction limit")


def test_criterion_10_irreversible_composite():
    k = build_composite(F(1, 8))
    verify_composite(k)
    rep = empirical_fr_report(monte_carlo_distribution(
        k, n=10, ensemble=1_000_000, transient=100, seed=505))
    ok = bool(rep.rows) and rep.all_pass
    report(10, ok,
           f"composite-map ratio test passes on {len(rep.rows)} populated "
           "pairs within the band plus 4 standard errors")


def test_criterion_11_cli_determinism(tmp_path):
    jobs = [
        ["density", "--family", "map2", "--l", "1/8"],
        ["fr", "--family", "map2", "--l", "1/8", "--n", "12", "--mode", "exact"],
        ["fr", "--family", "composite", "--l", "1/8", "--n", "5",
         "--mode", "montecarlo", "--ensemble", "30000", "--transient", "30",
         "--seed", "6"],
        ["fr", "--family", "composite", "--l", "1/8", "--n", "12", "--mode", "exact"],
        ["upo", "--n", "7"],
        ["multibaker", "--l", "1/8", "--ensemble", "10000", "--n", "200",
         "--seed", "8"],
        ["reversibility", "--family", "map2", "--l", "1/8",
         "--ensemble", "200", "--seed", "12"],
    ]
    for idx, args in enumerate(jobs):
        out = tmp_path / f"job{idx}"
        assert cli_main(args + ["--out", str(out)]) == 0
        first = {}
        for suffix in (".json", ".csv"):
            path = out.with_suffix(suffix)
            if path.exists():
                first[suffix] = path.read_bytes()
        assert cli_main(args + ["--out", str(out)]) == 0
        for suffix, payload in first.items():
            assert out.with_suffix(suffix).read_bytes() == payload
    report(11, True, f"{len(jobs)} commands re-ran byte-identically")
