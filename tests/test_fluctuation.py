import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bakerfr.fluctuation import (
    alpha_bounds_check,
    brute_force_distribution,
    chain_spec,
    empirical_fr_report,
    exact_distribution,
    fr_report,
    monte_carlo_distribution,
    sequence_measure,
    verify_fr_irreversible,
)
from bakerfr.maps import (
    RegionLabel,
    build_composite,
    build_generalized_baker,
)
from bakerfr.observables import UndefinedValueError, mean_g_per_step

A, B, C, D = RegionLabel.A, RegionLabel.B, RegionLabel.C, RegionLabel.D

l_map2 = st.fractions(min_value=F(1, 40), max_value=F(6, 25), max_denominator=40)


class TestExactDistribution:
    def test_single_symbol_law(self):
        d = exact_distribution("map2", F(1, 8), 1)
        assert d.probs == {1: F(1, 2), -1: F(1, 6), 0: F(1, 3)}

    def test_simple_two_symbol_law(self):
        d = exact_distribution("map1", F(2, 3), 2)
        assert d.probs == {2: F(4, 9), 0: F(4, 9), -2: F(1, 9)}

    def test_equilibrium_is_symmetric(self):
        for family, l in (("map1", F(1, 2)), ("map2", F(1, 4))):
            d = exact_distribution(family, l, 7)
            assert all(d.prob(g) == d.prob(-g) for g in d.support())

    def test_mean_matches_steady_state(self):
        for n in (1, 5, 12):
            d = exact_distribution("map2", F(1, 8), n)
            assert d.mean_g() == n * F(1, 3)

    def test_guard(self):
        with pytest.raises(ValueError):
            exact_distribution("map2", F(1, 8), 10_001)

    @settings(max_examples=20)
    @given(l=l_map2, n=st.integers(min_value=1, max_value=15))
    def test_normalization_and_symmetric_support(self, l, n):
        d = exact_distribution("map2", l, n)
        assert sum(d.probs.values()) == 1
        assert all(-g in d.probs for g in d.probs)

    def test_simple_matches_binomial(self):
        l, n = F(2, 3), 9
        d = exact_distribution("map1", l, n)
        r = 1 - l
        for alpha in range(n + 1):
            g = alpha - (n - alpha)
            assert d.prob(g) == math.comb(n, alpha) * l ** alpha * r ** (n - alpha)


class TestBruteForceOracle:
    @pytest.mark.parametrize("family,l", [("map1", F(2, 3)), ("map2", F(1, 8))])
    def test_matches_dp_small_n(self, family, l):
        for n in range(1, 9):
            assert (brute_force_distribution(family, l, n).probs
                    == exact_distribution(family, l, n).probs)

    def test_uniform_start_matches_too(self):
        for n in range(1, 7):
            assert (brute_force_distribution("map2", F(1, 6), n, start="uniform").probs
                    == exact_distribution("map2", F(1, 6), n, start="uniform").probs)

    def test_forbidden_sequence_has_zero_measure(self):
        spec = chain_spec("map2", F(1, 8))
        assert sequence_measure(spec, (A, A)) == 0
        assert sequence_measure(spec, (B, C)) == 0
        assert sequence_measure(spec, (B, B)) == F(1, 2) * F(3, 4)

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_force_distribution("map2", F(1, 8), 13)


class TestFRReport:
    def test_simple_map_exact_equality(self):
        for n in range(1, 13):
            rep = fr_report(exact_distribution("map1", F(2, 3), n))
            assert rep.all_pass
            assert all(r.alpha == 1 for r in rep.rows)
            assert rep.alpha_min == rep.alpha_max == 1

    def test_generalized_band(self):
        for n in range(1, 13):
            rep = fr_report(exact_distribution("map2", F(1, 8), n))
            assert rep.all_pass
            assert rep.alpha_min == F(1, 2) and rep.alpha_max == 2
            assert all(F(1, 2) <= r.alpha <= 2 for r in rep.rows)

    def test_stay_ratio_equals_unit_base(self):
        # p_BB / p_CC == 2(1-2l) is asserted inside fr_report; a failure
        # would raise, so a clean pass is the check
        fr_report(exact_distribution("map2", F(1, 6), 4))

    def test_undefined_at_equilibrium(self):
        with pytest.raises(UndefinedValueError):
            fr_report(exact_distribution("map2", F(1, 4), 5))

    def test_uniform_start_ratio_is_exact(self):
        # with a Lebesgue ("microcanonical") start the boundary corrections
        # cancel exactly and the ratio equals base^g with no band at all
        for l in (F(1, 8), F(1, 6), F(1, 5)):
            base = 2 * (1 - 2 * l)
            for n in range(1, 11):
                d = exact_distribution("map2", l, n, start="uniform")
                for g in d.support():
                    if g > 0:
                        assert d.prob(g) == d.prob(-g) * base ** g

    def test_e_n_lattice(self):
        rep = fr_report(exact_distribution("map2", F(1, 8), 6))
        psi = mean_g_per_step("map2", F(1, 8))
        for r in rep.rows:
            assert r.e_n == F(r.g, 6) / psi


class TestAlphaBounds:
    def test_exhaustive_small_n(self):
        for n in range(1, 7):
            rep = alpha_bounds_check(F(1, 8), n)
            assert rep.all_within
            assert rep.bound_min == F(1, 2) and rep.bound_max == 2
            assert rep.extrema_attained

    def test_equilibrium_collapses_to_unity(self):
        rep = alpha_bounds_check(F(1, 4), 5)
        assert rep.attained_min == rep.attained_max == 1

    def test_sequence_count(self):
        # out-degree 2 from every region: 4 * 2^(n-1) admissible sequences
        rep = alpha_bounds_check(F(1, 8), 6)
        assert rep.sequences == 4 * 2 ** 5

    @settings(max_examples=15)
    @given(l=l_map2, n=st.integers(min_value=1, max_value=7))
    def test_bounds_property(self, l, n):
        rep = alpha_bounds_check(l, n)
        assert rep.all_within


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        m = build_generalized_baker(F(1, 8))
        a = monte_carlo_distribution(m, 6, 30_000, 40, seed=11)
        b = monte_carlo_distribution(m, 6, 30_000, 40, seed=11)
        assert a.counts == b.counts

    def test_deterministic_given_seed_and_shard(self):
        from bakerfr.ensembles import sample_g

        m = build_generalized_baker(F(1, 8))
        a = sample_g(m, 10, 3000, 20, seed=7, shard=300)
        b = sample_g(m, 10, 3000, 20, seed=7, shard=300)
        assert len(a) == 3000 and (a == b).all()

    def test_simple_family_matches_exact_law(self):
        from bakerfr.maps import build_simple_baker

        m = build_simple_baker(F(2, 3))
        emp = monte_carlo_distribution(m, 6, 60_000, 50, seed=19)
        exact = exact_distribution("map1", F(2, 3), 6)
        for g in emp.support():
            pr = float(exact.prob(g))
            se = math.sqrt(pr * (1 - pr) / emp.total)
            assert abs(emp.prob(g) - pr) <= 4 * se + 1e-12

    def test_matches_exact_law(self):
        m = build_generalized_baker(F(1, 8))
        emp = monte_carlo_distribution(m, 6, 100_000, 60, seed=12)
        exact = exact_distribution("map2", F(1, 8), 6)
        for g in emp.support():
            p = float(exact.prob(g))
            se = math.sqrt(p * (1 - p) / emp.total)
            assert abs(emp.prob(g) - p) <= 4 * se + 1e-12

    def test_equilibrium_mean_near_zero(self):
        m = build_generalized_baker(F(1, 4))
        emp = monte_carlo_distribution(m, 8, 50_000, 40, seed=13)
        sd = math.sqrt(sum((g - emp.mean_g()) ** 2 * c
                           for g, c in emp.counts.items()) / emp.total)
        assert abs(emp.mean_g()) <= 4 * sd / math.sqrt(emp.total)

    def test_wilson_interval_covers_exact(self):
        m = build_generalized_baker(F(1, 8))
        emp = monte_carlo_distribution(m, 5, 50_000, 40, seed=14)
        exact = exact_distribution("map2", F(1, 8), 5)
        for g in emp.support():
            lo, hi = emp.wilson(g, z=4.0)
            assert lo <= float(exact.prob(g)) <= hi

    def test_empirical_report_passes(self):
        m = build_generalized_baker(F(1, 8))
        emp = monte_carlo_distribution(m, 8, 200_000, 60, seed=15)
        rep = empirical_fr_report(emp)
        assert rep.rows and rep.all_pass


class TestIrreversibleComposite:
    def test_report_passes(self):
        k = build_composite(F(1, 8))
        rep = verify_fr_irreversible(k, 8, 150_000, 60, seed=16)
        assert rep.rows and rep.all_pass

    def test_zero_width_strip_reproduces_base_histogram(self):
        m = build_generalized_baker(F(1, 8))
        k0 = build_composite(F(1, 8), eps=0)
        a = monte_carlo_distribution(m, 6, 40_000, 30, seed=17)
        b = monte_carlo_distribution(k0, 6, 40_000, 30, seed=17)
        assert a.counts == b.counts

    def test_composite_g_law_equals_base_law(self):
        # the fold changes y only, so the histograms agree sample by sample
        m = build_generalized_baker(F(1, 8))
        k = build_composite(F(1, 8))
        a = monte_carlo_distribution(m, 6, 40_000, 30, seed=18)
        b = monte_carlo_distribution(k, 6, 40_000, 30, seed=18)
        assert a.counts == b.counts

    def test_requires_strip_parameters(self):
        m = build_generalized_baker(F(1, 8))
        with pytest.raises(ValueError):
            verify_fr_irreversible(m, 5, 1000, 10, seed=1)


class TestBinnedReport:
    def test_narrow_window_reduces_to_lattice_rows(self):
        from bakerfr.fluctuation import binned_fr_report

        d = exact_distribution("map2", F(1, 8), 8)
        exact_rows = fr_report(d).rows
        # lattice spacing on the normalized axis is 1/(n*psi) = 3/8
        binned = binned_fr_report(d, F(1, 100))
        assert len(binned.rows) == len(exact_rows)
        assert binned.all_pass
        for br, er in zip(binned.rows, exact_rows):
            assert br.prob_plus == er.p_plus and br.prob_minus == er.p_minus

    def test_wide_window_aggregates_and_passes(self):
        from bakerfr.fluctuation import binned_fr_report

        d = exact_distribution("map2", F(1, 8), 10)
        binned = binned_fr_report(d, F(1, 2))
        assert binned.all_pass
        assert any(br.prob_plus > fr_report(d).rows[i].p_plus
                   for i, br in enumerate(binned.rows))

    def test_undefined_at_equilibrium(self):
        from bakerfr.fluctuation import binned_fr_report

        with pytest.raises(UndefinedValueError):
            binned_fr_report(exact_distribution("map2", F(1, 4), 5), F(1, 10))
