import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bakerfr.families import family, symbols
from bakerfr.maps import (
    PhasePoint,
    RegionLabel,
    build_composite,
    build_generalized_baker,
    build_involution,
    build_simple_baker,
    random_rational_points,
)
from bakerfr.observables import (
    SymbolSequence,
    UndefinedValueError,
    average_contraction,
    dissipation_function,
    lambda_at,
    mean_g_per_step,
    reversed_initial,
    reversed_symbol_sequence,
    trajectory_segment,
)
from bakerfr.families import family
from bakerfr.transfer import StepDensity

A, B, C, D = RegionLabel.A, RegionLabel.B, RegionLabel.C, RegionLabel.D

coords = st.integers(min_value=1, max_value=1_000_002).map(
    lambda k: F(k, 1_000_003))
points = st.builds(PhasePoint, coords, coords)


class TestLambdaAt:
    def test_generalized_values(self):
        m = build_generalized_baker(F(1, 8))
        phi = math.log(F(3, 2))
        assert lambda_at(m, PhasePoint(F(1, 16), F(1, 2))) == 0.0
        assert lambda_at(m, PhasePoint(F(1, 3), F(1, 2))) == pytest.approx(phi)
        assert lambda_at(m, PhasePoint(F(3, 5), F(1, 2))) == pytest.approx(-phi)
        assert lambda_at(m, PhasePoint(F(9, 10), F(1, 2))) == 0.0

    def test_symmetric_simple_map_vanishes(self):
        m = build_simple_baker(F(1, 2))
        assert lambda_at(m, PhasePoint(F(1, 3), F(1, 3))) == 0.0


class TestTrajectorySegment:
    def test_symbol_count(self):
        m = build_generalized_baker(F(1, 8))
        seg = trajectory_segment(m, PhasePoint(F(3, 7), F(2, 9)), 10)
        assert len(seg.symbols) == 11

    def test_symbols_match_orbit_regions(self):
        m = build_generalized_baker(F(1, 8))
        p = PhasePoint(F(3, 7), F(2, 9))
        seg = trajectory_segment(m, p, 8)
        assert seg.symbols.labels == tuple(m.region_of(q) for q in m.iterate(p, 8))

    def test_exact_step_cap(self):
        m = build_generalized_baker(F(1, 8))
        with pytest.raises(ValueError):
            trajectory_segment(m, PhasePoint(F(1, 3), F(1, 3)), 65)
        trajectory_segment(m, PhasePoint(F(1, 3), F(1, 3)), 64)

    @settings(max_examples=25)
    @given(p=points)
    def test_simulated_symbols_admissible(self, p):
        m = build_generalized_baker(F(1, 8))
        assert trajectory_segment(m, p, 12).symbols.admissible


class TestSymbolSequence:
    def test_forbidden_transition_flagged(self):
        seq = SymbolSequence((A, A), "map2")
        assert not seq.admissible

    def test_g_counts(self):
        seq = SymbolSequence((B, B, A, C, D), "map2")
        assert seq.g() == 1
        assert SymbolSequence(seq.labels[:2], "map2").g() == 2

    def test_map1_counts(self):
        seq = SymbolSequence((A, B, A), "map1")
        assert seq.admissible and seq.g() == 1


class TestAverageContraction:
    def test_single_step_in_quiet_region(self):
        m = build_generalized_baker(F(1, 8))
        stats = average_contraction(m, PhasePoint(F(1, 16), F(1, 2)), 1)
        phi = math.log(family(stats.family, stats.l).unit_base)
        assert stats.g == 0 and stats.g * phi / stats.steps == 0.0

    def test_simple_map_count_relation(self):
        m = build_simple_baker(F(2, 3))
        p = PhasePoint(F(3, 7), F(2, 9))
        n = 12
        stats = average_contraction(m, p, n)
        seg = trajectory_segment(m, p, n - 1)
        alpha = sum(1 for lab in seg.symbols.labels if lab == A)
        beta = n - alpha
        assert stats.g == alpha - beta
        phi = math.log(family(stats.family, stats.l).unit_base)
        assert stats.g * phi == pytest.approx((alpha - beta) * math.log(2))

    def test_e_n_rational_form(self):
        m = build_generalized_baker(F(1, 8))
        stats = average_contraction(m, PhasePoint(F(3, 7), F(2, 9)), 10)
        assert stats.e_n == F(stats.g, 10) / F(1, 3)

    def test_e_n_undefined_at_equilibrium(self):
        m = build_generalized_baker(F(1, 4))
        stats = average_contraction(m, PhasePoint(F(3, 7), F(2, 9)), 5)
        assert family("map2", stats.l).psi == 0 and stats.e_n is None

    def test_e_n_bounded_by_domain_edge(self):
        # |e_n| <= (max contraction per step)/(mean contraction)
        m = build_generalized_baker(F(1, 8))
        p_star = 1 / mean_g_per_step("map2", F(1, 8))
        for p in random_rational_points(25, seed=8):
            stats = average_contraction(m, p, 7)
            assert abs(stats.e_n) <= p_star


class TestMeanLambda:
    # <Lambda> = psi ln(unit_base), read from the family record
    def test_simple_symmetric_vanishes(self):
        fam = family("map1", F(1, 2))
        assert float(fam.psi) * math.log(fam.unit_base) == 0.0

    def test_generalized_value(self):
        fam = family("map2", F(1, 8))
        assert (fam.psi, fam.unit_base) == (F(1, 3), F(3, 2))
        assert float(fam.psi) * math.log(fam.unit_base) == pytest.approx(
            math.log(1.5) / 3)

    def test_equilibrium_vanishes(self):
        fam = family("map2", F(1, 4))
        assert float(fam.psi) * math.log(fam.unit_base) == 0.0

    def test_simple_form(self):
        fam = family("map1", F(2, 3))
        assert fam.psi == F(1, 3) and fam.unit_base == 2

    @settings(max_examples=20)
    @given(l=st.fractions(min_value=F(1, 40), max_value=F(1, 4),
                          max_denominator=40))
    def test_positive_off_equilibrium(self, l):
        fam = family("map2", l)
        if l == F(1, 4):
            assert fam.psi == 0
        else:
            assert fam.psi > 0 and fam.unit_base > 1


class TestReversedInitial:
    def test_both_constructions_agree(self):
        # the backward construction: n forward steps from the reversed
        # start end at G(x0), since G o M o G inverts M
        m = build_simple_baker(F(2, 3))
        g = build_involution("map1")
        p = PhasePoint(F(3, 7), F(2, 9))
        assert m.iterate(reversed_initial(m, g, p, 8), 8)[-1] == g.apply(p)

    def test_zero_steps_gives_involution_image(self):
        m = build_generalized_baker(F(1, 8))
        g = build_involution("map2")
        p = PhasePoint(F(1, 3), F(1, 5))
        assert reversed_initial(m, g, p, 0) == g.apply(p)

    def test_antisymmetry_example(self):
        m = build_generalized_baker(F(1, 8))
        g = build_involution("map2")
        p = PhasePoint(F(1, 3), F(1, 5))
        fwd = average_contraction(m, p, 5)
        rev = average_contraction(m, reversed_initial(m, g, p, 5), 5)
        assert rev.g == -fwd.g

    @settings(max_examples=20)
    @given(p=points, n=st.integers(min_value=1, max_value=20))
    def test_antisymmetry_property(self, p, n):
        m = build_generalized_baker(F(1, 8))
        g = build_involution("map2")
        fwd = average_contraction(m, p, n)
        rev = average_contraction(m, reversed_initial(m, g, p, n), n)
        assert rev.g == -fwd.g
        phi = math.log(family("map2", F(1, 8)).unit_base)
        assert rev.g * phi / rev.steps == -(fwd.g * phi / fwd.steps)


class TestReversedSymbols:
    def test_reverse_and_swap(self):
        seq = SymbolSequence((B, B, A, C), "map2")
        assert reversed_symbol_sequence(seq).labels == (B, A, C, C)

    def test_reversal_preserves_admissibility(self):
        for p in random_rational_points(20, seed=14):
            m = build_generalized_baker(F(1, 8))
            seq = trajectory_segment(m, p, 9).symbols
            assert reversed_symbol_sequence(seq).admissible

    def test_exact_for_reversible_map(self):
        m = build_generalized_baker(F(1, 8))
        g = build_involution("map2")
        n = 12
        for p in random_rational_points(20, seed=13):
            fwd = trajectory_segment(m, p, n - 1).symbols
            rev0 = reversed_initial(m, g, p, n)
            rev = trajectory_segment(m, rev0, n - 1).symbols
            assert rev.labels == reversed_symbol_sequence(fwd).labels

    def test_composite_keeps_only_the_coarse_grained_version(self):
        # pointwise reversal breaks on the composite (the involution reads
        # the folded coordinate), but every one-step region move still
        # follows the conjugacy; deterministic seed exhibits both facts
        k = build_composite(F(1, 8))
        g = build_involution("map2")
        n = 12
        mismatch = 0
        for p in random_rational_points(40, seed=13):
            fwd = trajectory_segment(k, p, n - 1).symbols
            rev0 = reversed_initial(k, g, p, n)
            rev = trajectory_segment(k, rev0, n - 1).symbols
            if rev.labels != reversed_symbol_sequence(fwd).labels:
                mismatch += 1
        assert mismatch > 0
        conj = symbols("map2").conjugacy
        for p in random_rational_points(100, seed=15):
            assert k.region_of(g.apply(k.apply(p))) == conj[k.region_of(p)]


class TestDissipationFunction:
    def test_uniform_density_reduces_to_contraction(self):
        m = build_generalized_baker(F(1, 8))
        p = PhasePoint(F(1, 3), F(2, 7))
        assert dissipation_function(m, None, p) == lambda_at(m, p)

    def test_vanishes_on_area_preserving_region(self):
        m = build_generalized_baker(F(1, 8))
        rho = family("map2", F(1, 8)).density
        p = PhasePoint(F(1, 16), F(2, 7))  # region A maps back into A
        assert dissipation_function(m, rho, p) == 0.0

    def test_equilibrium_vanishes_everywhere(self):
        m = build_generalized_baker(F(1, 4))
        rho = family("map2", F(1, 4)).density
        for p in random_rational_points(10, seed=21):
            assert dissipation_function(m, rho, p) == 0.0

    def test_zero_density_rejected(self):
        m = build_generalized_baker(F(1, 8))
        rho = StepDensity((F(0), F(1, 2), F(1)), (F(2), F(0)))
        with pytest.raises(UndefinedValueError):
            dissipation_function(m, rho, PhasePoint(F(3, 5), F(1, 3)))


def test_contraction_unit_bases():
    assert family("map1", F(2, 3)).unit_base == 2
    assert family("map2", F(1, 8)).unit_base == F(3, 2)
