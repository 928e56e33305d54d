import dataclasses
from fractions import Fraction as F

import pytest

from bakerfr import families, multibaker, transfer
from bakerfr.families import family, symbols
from bakerfr.fluctuation import exact_distribution, fr_report
from bakerfr.maps import RegionLabel
from bakerfr.transfer import ConsistencyError, RegionMeasures, StochasticMatrix

A, B, C, D = RegionLabel.A, RegionLabel.B, RegionLabel.C, RegionLabel.D


def test_cross_check_runs_once_per_parameter(monkeypatch):
    calls = []
    original = transfer.transition_matrix

    def counting(l):
        calls.append(l)
        return original(l)

    monkeypatch.setattr(transfer, "transition_matrix", counting)
    families._family.cache_clear()
    fr_report(exact_distribution("map2", "1/8", 6))
    first = len(calls)
    fr_report(exact_distribution("map2", F(1, 8), 6))
    assert first > 0
    assert len(calls) == first
    assert family("map2", "1/8") is family("map2", F(1, 8))


def test_region_measures_run_once_per_parameter(monkeypatch):
    calls = []
    original = transfer.region_measures

    def counting(l):
        calls.append(l)
        return original(l)

    # every binding a record build could reach the measures through
    monkeypatch.setattr(transfer, "region_measures", counting)
    monkeypatch.setattr(multibaker, "region_measures", counting, raising=False)
    families._family.cache_clear()
    for l in (F(1, 8), F(3, 37), F(1, 8)):
        family("map2", l)
    assert calls == [F(1, 8), F(3, 37)]


def test_record_mappings_reject_assignment():
    fam = family("map2", F(1, 8))
    for mapping, key in ((fam.trans, (A, A)), (fam.stationary, A),
                         (fam.initial, "uniform"), (fam.g, A),
                         (fam.conjugacy, A), (fam.successors, A)):
        with pytest.raises(TypeError):
            mapping[key] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.psi = F(0)


def test_closed_forms():
    fam = family("map2", F(1, 8))
    assert fam.partition == ((0, F(1, 8), A), (F(1, 8), F(1, 2), B),
                             (F(1, 2), F(3, 4), C), (F(3, 4), 1, D))
    assert fam.stationary == {A: F(1, 6), B: F(1, 2), C: F(1, 6), D: F(1, 6)}
    assert fam.initial["uniform"] == {A: F(1, 8), B: F(3, 8), C: F(1, 4), D: F(1, 4)}
    assert (fam.psi, fam.unit_base, fam.alpha_bounds) == (F(1, 3), F(3, 2), (F(1, 2), 2))
    simple = family("map1", F(2, 3))
    assert simple.trans == {(i, j): simple.stationary[j] for i in (A, B) for j in (A, B)}
    assert (simple.psi, simple.unit_base, simple.alpha_bounds) == (F(1, 3), 2, (1, 1))


@pytest.mark.parametrize("route,message", [
    ("transition_matrix", "geometric transition rows"),
    ("region_measures", "measures .* != closed form"),
    ("analytic_current", "current route"),
])
def test_geometric_disagreement_raises(monkeypatch, route, message):
    l = F(3, 37)
    real = {"transition_matrix": transfer.transition_matrix,
            "region_measures": transfer.region_measures,
            "analytic_current": multibaker.analytic_current}[route]

    def corrupted(arg):
        good = real(arg)
        if route == "transition_matrix":
            rows = (good.rows[1],) + good.rows[1:]
            return StochasticMatrix(good.l, rows)
        if route == "region_measures":
            return RegionMeasures(good.l, {**good.mu, A: good.mu[A] / 2})
        return good + 1

    monkeypatch.setattr(multibaker if route == "analytic_current" else transfer,
                        route, corrupted)
    families._family.cache_clear()
    with pytest.raises(ConsistencyError, match=message):
        family("map2", l)
    monkeypatch.undo()
    assert family("map2", l).l == l  # the failure was not cached


def test_bad_input_is_a_value_error():
    with pytest.raises(ValueError):
        symbols("map3")
    with pytest.raises(ValueError):
        family("map2", F(1, 3))
    with pytest.raises(ValueError):
        family("map1", 1)
