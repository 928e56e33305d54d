import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bakerfr.maps import PhasePoint, build_generalized_baker, random_rational_points
from bakerfr.multibaker import (
    analytic_current,
    bias_of,
    l_of_bias,
    linear_response_sweep,
    simulate_current,
)
from bakerfr.families import family
from bakerfr.transfer import ConsistencyError, project_unstable, region_measures
from bakerfr.maps import RegionLabel
from reference import ChainState, g_count, lift_step

B, C = RegionLabel.B, RegionLabel.C

l_map2 = st.fractions(min_value=F(1, 40), max_value=F(1, 4), max_denominator=40)


class TestLiftStep:
    def test_cell_moves_with_region(self):
        m = build_generalized_baker(F(1, 8))
        s = ChainState(0, PhasePoint(F(1, 4), F(1, 3)))  # region B
        assert lift_step(m, s).cell == 1
        s = ChainState(2, PhasePoint(F(3, 5), F(1, 3)))  # region C
        assert lift_step(m, s).cell == 1
        s = ChainState(-1, PhasePoint(F(1, 16), F(1, 3)))  # region A
        assert lift_step(m, s).cell == -1

    def test_local_coordinates_follow_the_map(self):
        m = build_generalized_baker(F(1, 8))
        p = PhasePoint(F(2, 7), F(3, 11))
        assert lift_step(m, ChainState(5, p)).local == m.apply(p)

    def test_displacement_equals_net_count(self):
        m = build_generalized_baker(F(1, 8))
        for p in random_rational_points(20, seed=31):
            s = ChainState(0, p)
            n = 15
            for _ in range(n):
                s = lift_step(m, s)
            assert s.cell == g_count(m, p, n)


class TestAnalyticCurrent:
    def test_value(self):
        assert analytic_current(F(1, 8)) == F(1, 3)

    def test_equilibrium_vanishes(self):
        assert analytic_current(F(1, 4)) == 0

    def test_bias_roundtrip(self):
        for l in (F(1, 8), F(1, 6), F(1, 5)):
            assert l_of_bias(bias_of(l)) == l

    @settings(max_examples=25)
    @given(l=l_map2)
    def test_current_equals_measure_difference(self, l):
        mu = region_measures(project_unstable(build_generalized_baker(l)))
        assert analytic_current(l) == mu[B] - mu[C]

    @settings(max_examples=15)
    @given(l=l_map2)
    def test_mean_contraction_is_current_times_unit(self, l):
        assert family("map2", l).psi == analytic_current(l)


class TestSimulateCurrent:
    def test_matches_analytic(self):
        est = simulate_current(F(1, 8), particles=20_000, steps=400, seed=41)
        assert est.stderr > 0
        assert abs(est.psi_hat - 1 / 3) <= 4 * est.stderr

    def test_equilibrium_mean_near_zero(self):
        est = simulate_current(F(1, 4), particles=20_000, steps=300, seed=42)
        assert abs(est.psi_hat) <= 4 * est.stderr

    def test_deterministic(self):
        a = simulate_current(F(1, 8), 5_000, 200, seed=43)
        b = simulate_current(F(1, 8), 5_000, 200, seed=43)
        assert a == b

    @pytest.mark.parametrize("l,seed", [(F(1, 8), 45), (F(1, 4), 46), (F(3, 17), 47)])
    def test_moments_of_the_histogram(self, l, seed):
        # psi_hat is the exact mean rounded once; stderr stays within a few
        # ulp of numpy's float route on the per-particle g
        from bakerfr.ensembles import DEFAULT_SHARD
        from bakerfr.multibaker import DEFAULT_TRANSIENT
        from test_ensembles import kernel_g

        particles, steps = 5_000, 200
        est = simulate_current(l, particles, steps, seed)
        g = kernel_g(family("map2", l).map, steps, particles, DEFAULT_TRANSIENT, seed,
                     DEFAULT_SHARD)
        assert est.psi_hat == float(F(int(g.sum()), particles * steps))
        numpy_route = float((g / steps).std(ddof=1) / math.sqrt(particles))
        assert abs(est.stderr - numpy_route) <= 4 * math.ulp(numpy_route)


class TestLinearResponse:
    def test_small_sweep(self):
        rows = linear_response_sweep([F(1, 20), F(1, 10)], particles=20_000,
                                     steps=400, seed=44)
        for r in rows:
            assert r.psi_analytic / r.b == 1 / (4 - 3 * r.b)
            assert abs(r.psi_hat - float(r.psi_analytic)) <= 4 * r.stderr
            # zero-bias limits: slope 1/4 for the current, 1/8 for the
            # contraction over b^2
            assert abs(r.psi_hat_over_b - 0.25) <= 0.25 * float(r.b) + 4 * r.stderr / float(r.b)
            assert abs(r.lambda_hat_over_b2 - 0.125) <= 0.3 * float(r.b) + 0.05

    @pytest.mark.parametrize("b", [F(4, 5), F(9, 10), F(99, 100)])
    def test_large_bias_is_consistent(self, b):
        # lambda/b^2 strays far from 1/8 here; the exact bias forms still hold
        [row] = linear_response_sweep([b], particles=200, steps=10, seed=0)
        assert family("map2", row.l).unit_base == 2 / (2 - b)

    def test_corrupted_unit_base_raises(self, monkeypatch):
        from bakerfr import multibaker

        def corrupted(name, l):
            fam = family(name, l)
            return fam._replace(unit_base=fam.unit_base + F(1, 1000))

        monkeypatch.setattr(multibaker, "family", corrupted)
        with pytest.raises(ConsistencyError, match=r"unit base .* != 2/\(2-b\)"):
            linear_response_sweep([F(1, 10)], particles=200, steps=10, seed=0)

    def test_rejects_bias_out_of_range(self):
        with pytest.raises(ValueError):
            l_of_bias(F(3, 2))
        with pytest.raises(ValueError):
            l_of_bias(0)
        # b = 1 would be l = 0, which is not a map: refused as a bias
        with pytest.raises(ValueError, match=r"need a bias b in \(0, 1\), got b=1"):
            l_of_bias(1)


def test_current_is_read_from_the_record(monkeypatch, tmp_path):
    # the record build is the only caller of analytic_current: one call per
    # new parameter, none from the sweep or the CLI on top of it
    from bakerfr import cli, families, multibaker

    calls = []
    original = multibaker.analytic_current

    def counting(l):
        calls.append(l)
        return original(l)

    monkeypatch.setattr(multibaker, "analytic_current", counting)
    families._family.cache_clear()
    b_values = [F(1, 20), F(1, 10)]
    linear_response_sweep(b_values, particles=200, steps=20, seed=45)
    assert calls == [l_of_bias(b) for b in b_values]
    calls.clear()
    argv = ["multibaker", "--l", "1/8", "--ensemble", "200", "--n", "20",
            "--out", str(tmp_path / "mb")]
    assert cli.main(argv) in (0, 1)
    assert calls == [F(1, 8)]
    calls.clear()
    cli.main(argv)
    assert calls == []
