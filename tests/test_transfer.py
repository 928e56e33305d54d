from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bakerfr.maps import (
    MapConstructionError,
    RegionLabel,
    build_composite,
    build_generalized_baker,
    build_perturbation,
    build_simple_baker,
)
from bakerfr.families import family
from bakerfr.transfer import (
    StepDensity,
    frobenius_perron_step,
    invariant_density,
    invariant_density_power,
    project_unstable,
    region_measures,
    transition_matrix,
    uniform_density,
)

A, B, C, D = RegionLabel.A, RegionLabel.B, RegionLabel.C, RegionLabel.D

l_map2 = st.fractions(min_value=F(1, 40), max_value=F(1, 4), max_denominator=40)


class TestProjection:
    def test_simple_map_slopes(self):
        map1d = project_unstable(build_simple_baker(F(2, 3)))
        assert [b.slope for b in map1d.branches] == [F(3, 2), 3]

    def test_generalized_map_slopes(self):
        map1d = project_unstable(build_generalized_baker(F(1, 8)))
        assert [b.slope for b in map1d.branches] == [4, F(4, 3), 2, 2]

    def test_perturbation_not_projectable(self):
        with pytest.raises(MapConstructionError):
            project_unstable(build_perturbation(F(1, 8)))


class TestFrobeniusPerronStep:
    def test_simple_map_keeps_uniform(self):
        map1d = project_unstable(build_simple_baker(F(2, 3)))
        assert frobenius_perron_step(map1d, uniform_density()).simplify() == uniform_density()

    def test_one_step_equals_matrix_multiplication(self):
        l = F(1, 8)
        map1d = project_unstable(build_generalized_baker(l))
        stepped = frobenius_perron_step(map1d, uniform_density())
        expected = (F(5, 4), F(3, 4))
        assert stepped.simplify() == StepDensity((F(0), F(1, 2), F(1)), expected)

    def test_conserves_mass_exactly(self):
        map1d = project_unstable(build_generalized_baker(F(1, 6)))
        rho = StepDensity((F(0), F(1, 3), F(2, 3), F(1)),
                          (F(3, 2), F(1, 2), F(1)))
        assert frobenius_perron_step(map1d, rho).integral() == 1

    @settings(max_examples=25)
    @given(l=l_map2,
           cuts=st.lists(st.fractions(min_value=F(1, 20), max_value=F(19, 20),
                                      max_denominator=30),
                         min_size=1, max_size=4, unique=True),
           weights=st.lists(st.integers(min_value=1, max_value=9),
                            min_size=5, max_size=5))
    def test_conservation_property(self, l, cuts, weights):
        bps = [F(0)] + sorted(cuts) + [F(1)]
        vals = weights[:len(bps) - 1]
        mass = sum(v * (b - a) for a, b, v in zip(bps, bps[1:], vals))
        rho = StepDensity(tuple(bps), tuple(F(v) / mass for v in vals))
        out = frobenius_perron_step(project_unstable(build_generalized_baker(l)), rho)
        assert out.integral() == 1


class TestInvariantDensity:
    def test_generalized_closed_form(self):
        rho = invariant_density(project_unstable(build_generalized_baker(F(1, 8))))
        assert rho == family("map2", F(1, 8)).density
        assert rho.values == (F(4, 3), F(2, 3))

    def test_equilibrium_is_uniform(self):
        rho = invariant_density(project_unstable(build_generalized_baker(F(1, 4))))
        assert rho == uniform_density()

    def test_simple_map_is_uniform(self):
        rho = invariant_density(project_unstable(build_simple_baker(F(2, 3))))
        assert rho == uniform_density()

    def test_exact_fixed_point(self):
        map1d = project_unstable(build_generalized_baker(F(1, 6)))
        rho = invariant_density(map1d)
        assert frobenius_perron_step(map1d, rho).simplify() == rho

    def test_power_iteration_agrees(self):
        map1d = project_unstable(build_generalized_baker(F(1, 8)))
        exact = invariant_density(map1d)
        power = invariant_density_power(map1d, tol=1e-13)
        for probe in (F(1, 16), F(1, 3), F(3, 5), F(9, 10)):
            assert abs(float(exact.value_at(probe))
                       - power.value_at(float(probe))) < 1e-11

    @settings(max_examples=20)
    @given(l=l_map2)
    def test_closed_form_any_l(self, l):
        rho = invariant_density(project_unstable(build_generalized_baker(l)))
        assert rho == family("map2", l).density


class TestTransitionMatrix:
    def test_values(self):
        p = transition_matrix(build_generalized_baker(F(1, 8)))
        assert p[B, B] == F(3, 4)
        assert p[C, C] == F(1, 2)
        assert p[B, A] == F(1, 4)

    def test_row_sums_and_zero_pattern(self):
        p = transition_matrix(build_generalized_baker(F(1, 6)))
        for i in (A, B, C, D):
            assert sum(p[i, j] for j in (A, B, C, D)) == 1
        for i in (A, C):
            assert p[i, A] == 0 and p[i, B] == 0
        for i in (B, D):
            assert p[i, C] == 0 and p[i, D] == 0

    def test_rejects_a_map_not_made_of_strips(self):
        # the composite's fold splits a branch of region B in y
        with pytest.raises(MapConstructionError):
            transition_matrix(build_composite(F(1, 8)))


class TestRegionMeasures:
    def test_values(self):
        mu = region_measures(build_generalized_baker(F(1, 8)))
        assert mu[A] == mu[C] == mu[D] == F(1, 6)
        assert mu[B] == F(1, 2)

    def test_equilibrium_uniform(self):
        mu = region_measures(build_generalized_baker(F(1, 4)))
        assert all(mu[i] == F(1, 4) for i in (A, B, C, D))

    def test_stationarity(self):
        l = F(1, 8)
        m = build_generalized_baker(l)
        mu = region_measures(m)
        p = transition_matrix(m)
        labels = (A, B, C, D)
        for lj in labels:
            assert sum(mu[li] * p[li, lj] for li in labels) == mu[lj]

    @settings(max_examples=20)
    @given(l=l_map2)
    def test_routes_agree_any_l(self, l):
        # the eigenvector and density-times-width routes are asserted to
        # agree inside region_measures; here just confirm normalization
        mu = region_measures(build_generalized_baker(l))
        assert sum(mu.values()) == 1


class TestStepDensity:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StepDensity((F(0), F(1)), (F(2),))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            StepDensity((F(0), F(1, 2), F(1)), (F(3), F(-1)))

    def test_value_lookup_and_simplify(self):
        rho = StepDensity((F(0), F(1, 2), F(1)), (F(1), F(1)))
        assert rho.value_at(F(1, 4)) == 1
        assert rho.value_at(F(1)) == 1
        assert rho.simplify() == uniform_density()
