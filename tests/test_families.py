import dataclasses
from fractions import Fraction as F
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from bakerfr import cli, families, maps, multibaker, transfer
from bakerfr.families import family, symbols
from bakerfr.fluctuation import exact_distribution, fr_report
from bakerfr.maps import RegionLabel
from bakerfr.transfer import ConsistencyError

A, B, C, D = RegionLabel.A, RegionLabel.B, RegionLabel.C, RegionLabel.D


def test_cross_check_runs_once_per_parameter(monkeypatch):
    calls = []
    original = transfer.transition_matrix

    def counting(map1d):
        calls.append(map1d.branches[0].hi)  # strip A is [0, l) in both families
        return original(map1d)

    monkeypatch.setattr(transfer, "transition_matrix", counting)
    families._family.cache_clear()
    fr_report(exact_distribution("map2", "1/8", 6))
    first = len(calls)
    fr_report(exact_distribution("map2", F(1, 8), 6))
    assert first > 0
    assert len(calls) == first
    assert family("map2", "1/8") is family("map2", F(1, 8))
    fr_report(exact_distribution("map1", "2/3", 6))
    fr_report(exact_distribution("map1", F(2, 3), 6))
    assert calls[first:] == [F(2, 3)] * first  # same work per build, once per l


def test_region_measures_run_once_per_parameter(monkeypatch):
    calls = []
    original = transfer.region_measures

    def counting(map1d):
        calls.append((map1d.name, map1d.branches[0].hi))
        return original(map1d)

    # every binding a record build could reach the measures through
    monkeypatch.setattr(transfer, "region_measures", counting)
    monkeypatch.setattr(multibaker, "region_measures", counting, raising=False)
    families._family.cache_clear()
    for l in (F(1, 8), F(3, 37), F(1, 8)):
        family("map2", l)
        family("map1", l)
    assert calls == [("map2_x", F(1, 8)), ("map1_x", F(1, 8)),
                     ("map2_x", F(3, 37)), ("map1_x", F(3, 37))]


@pytest.mark.parametrize("name,l", [("map1", F(2, 3)), ("map2", F(3, 37))])
def test_one_build_and_one_projection_per_record(monkeypatch, name, l):
    builder = symbols(name).builder
    built, projected = [], []
    real_build, real_project = getattr(maps, builder), transfer.project_unstable

    def build(arg):
        built.append(real_build(arg))
        return built[-1]

    def project(m):
        projected.append(real_project(m))
        return projected[-1]

    monkeypatch.setattr(maps, builder, build)
    monkeypatch.setattr(transfer, "project_unstable", project)
    families._family.cache_clear()
    fam = family(name, l)
    assert (len(built), len(projected)) == (1, 1)
    # the record keeps the very objects it built and checked
    assert fam.map is built[0] and fam.x_factor is projected[0]
    config = cli.ExperimentConfig(command="density", family=name, l=l)
    assert cli._base_map(config) is fam.map
    assert (len(built), len(projected)) == (1, 1)
    families._family.cache_clear()


@pytest.mark.parametrize("name,l", [("map1", F(2, 3)), ("map2", F(3, 37))])
def test_one_chain_per_consumer(monkeypatch, name, l):
    # one labelled chain for the transitions, one inside the stationary solve
    counts = {"_strip_chain": 0, "transition_matrix": 0}
    for attr in counts:
        real = getattr(transfer, attr)

        def counting(arg, real=real, attr=attr):
            counts[attr] += 1
            return real(arg)

        monkeypatch.setattr(transfer, attr, counting)
    families._family.cache_clear()
    family(name, l)
    assert counts == {"_strip_chain": 2, "transition_matrix": 1}
    families._family.cache_clear()


def test_consumers_build_no_family_map(monkeypatch):
    from bakerfr.periodic_orbits import enumerate_orbits

    k = maps.build_composite(F(1, 8))  # flattens its own map2, on purpose
    family("map1", F(2, 3)), family("map2", F(1, 8))

    def refuse(l):
        raise AssertionError(f"a consumer built a family map at l={l}")

    monkeypatch.setattr(maps, "build_simple_baker", refuse)
    monkeypatch.setattr(maps, "build_generalized_baker", refuse)
    assert len(enumerate_orbits(F(2, 3), 3)) == 8
    assert multibaker.simulate_current(F(1, 8), 10, 2, seed=0).particles == 10
    transfer.verify_x_factor(family("map2", F(1, 8)).map)
    transfer.verify_composite(k)
    for name, l in (("map1", F(2, 3)), ("map2", F(1, 8))):
        cli._base_map(cli.ExperimentConfig(command="density", family=name, l=l))


def test_record_mappings_reject_assignment():
    fam = family("map2", F(1, 8))
    for mapping, key in ((fam.trans, (A, A)), (fam.col, A), (fam.stationary, A),
                         (fam.initial, "uniform"), (fam.g, A),
                         (fam.conjugacy, A), (fam.successors, A)):
        with pytest.raises(TypeError):
            mapping[key] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.psi = F(0)


@pytest.mark.parametrize("name,l", [("map2", F(3, 37)), ("map1", F(2, 3))])
def test_strip_slope_that_disagrees_with_the_column_weight_raises(name, l):
    fam = family(name, l)
    bad = dataclasses.replace(fam, col=MappingProxyType({**fam.col, A: fam.col[A] * 2}))
    with pytest.raises(ConsistencyError, match="inverse strip slopes .* != column weights"):
        families._verify(bad)
    families._verify(fam)


def test_closed_forms():
    fam = family("map2", F(1, 8))
    assert fam.partition == ((0, F(1, 8), A), (F(1, 8), F(1, 2), B),
                             (F(1, 2), F(3, 4), C), (F(3, 4), 1, D))
    assert fam.col == {A: F(1, 4), B: F(3, 4), C: F(1, 2), D: F(1, 2)}
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
            return {**good, (A, A): good[A, A] + 1}
        if route == "region_measures":
            return {**good, A: good[A] / 2}
        return good + 1

    monkeypatch.setattr(multibaker if route == "analytic_current" else transfer,
                        route, corrupted)
    # the current route exists for map2 alone
    names = ("map2",) if route == "analytic_current" else ("map2", "map1")
    for name in names:
        families._family.cache_clear()
        with pytest.raises(ConsistencyError, match=message):
            family(name, l)
    monkeypatch.undo()
    for name in names:
        assert family(name, l).l == l  # the failure was not cached


def test_bad_input_is_a_value_error():
    with pytest.raises(ValueError):
        symbols("map3")
    with pytest.raises(ValueError):
        family("map2", F(1, 3))
    with pytest.raises(ValueError):
        family("map1", 1)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["map1", "map2"]),
       l=st.fractions(min_value=F(1, 40), max_value=F(39, 40), max_denominator=40))
@example(name="map1", l=F(1, 2))
def test_record_builds_for_random_l(name, l):
    # the record build runs the geometric cross-check for both families
    if name == "map2":
        l /= 4
    fam = family(name, l)
    fresh = transfer.project_unstable(getattr(maps, fam.builder)(l))
    assert fresh == fam.x_factor
    assert fam.stationary == transfer.region_measures(fresh)
