from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bakerfr.maps import (
    AffineBranch,
    MapConstructionError,
    NonInvertibleMapError,
    PhasePoint,
    RegionLabel,
    build_composite,
    build_generalized_baker,
    build_involution,
    build_perturbation,
    build_simple_baker,
    default_strip,
    map_from_dict,
    map_to_dict,
    random_rational_points,
    verify_reversibility,
)

A, B, C, D = RegionLabel.A, RegionLabel.B, RegionLabel.C, RegionLabel.D

# interior rational coordinates whose orbits never hit branch boundaries
coords = st.integers(min_value=1, max_value=1_000_002).map(
    lambda k: F(k, 1_000_003))
points = st.builds(PhasePoint, coords, coords)
l_map1 = st.fractions(min_value=F(1, 50), max_value=F(49, 50), max_denominator=50)
l_map2 = st.fractions(min_value=F(1, 40), max_value=F(1, 4), max_denominator=40)


class TestSimpleBaker:
    def test_symmetric_case_is_area_preserving(self):
        m = build_simple_baker(F(1, 2))
        assert [b.jacobian for b in m.branches] == [1, 1]

    def test_jacobians(self):
        m = build_simple_baker(F(2, 3))
        assert m.jacobian_at(PhasePoint(F(1, 3), F(1, 2))) == F(1, 2)
        assert m.jacobian_at(PhasePoint(F(5, 6), F(1, 2))) == 2

    def test_point_image(self):
        m = build_simple_baker(F(3, 4))
        assert m.apply(PhasePoint(F(1, 2), F(1, 2))) == PhasePoint(F(2, 3), F(1, 8))

    @pytest.mark.parametrize("l", ["0", "1", "-1/2", "5/4"])
    def test_rejects_bad_parameter(self, l):
        with pytest.raises(MapConstructionError):
            build_simple_baker(F(l))

    def test_stable_unstable_reciprocity(self):
        # y-contraction of one branch is the reciprocal of the other
        # branch's x-expansion, directly from the branch matrices
        m = build_simple_baker(F(2, 3))
        ba, bb = m.branches
        assert ba.linear[1][1] == 1 / bb.linear[0][0]
        assert bb.linear[1][1] == 1 / ba.linear[0][0]


class TestGeneralizedBaker:
    def test_equilibrium_jacobians(self):
        m = build_generalized_baker(F(1, 4))
        assert all(b.jacobian == 1 for b in m.branches)

    def test_jacobians(self):
        m = build_generalized_baker(F(1, 8))
        by_label = {b.label: b.jacobian for b in m.branches}
        assert by_label == {A: 1, B: F(2, 3), C: F(3, 2), D: 1}

    def test_point_image(self):
        m = build_generalized_baker(F(1, 8))
        assert m.apply(PhasePoint(F(0), F(0))) == PhasePoint(F(1, 2), F(3, 4))

    @pytest.mark.parametrize("l", ["0", "1/3", "1/2"])
    def test_rejects_bad_parameter(self, l):
        with pytest.raises(MapConstructionError):
            build_generalized_baker(F(l))

    def test_region_boundaries(self):
        m = build_generalized_baker(F(1, 8))
        assert m.region_of(PhasePoint(F(1, 8), F(1, 2))) == B
        assert m.region_of(PhasePoint(F(3, 4), F(1, 2))) == D
        assert m.region_of(PhasePoint(F(1), F(1, 2))) == D


class TestInvolutions:
    def test_simple_mirror(self):
        g = build_involution("map1")
        assert g.apply(PhasePoint(F(3, 10), F(2, 5))) == PhasePoint(F(3, 5), F(7, 10))

    def test_generalized_squares_to_identity(self):
        g = build_involution("map2")
        p = PhasePoint(F(7, 10), F(1, 5))
        assert g.apply(g.apply(p)) == p

    def test_unit_jacobians(self):
        for kind in ("map1", "map2"):
            g = build_involution(kind)
            assert all(b.jacobian == 1 for b in g.branches)

    def test_conjugation_inverts_generalized_map(self):
        m = build_generalized_baker(F(1, 8))
        g = build_involution("map2")
        p = PhasePoint(F(3, 10), F(3, 5))
        assert g.apply(m.apply(g.apply(m.apply(p)))) == p

    def test_involution_is_own_inverse(self):
        g = build_involution("map2")
        p = PhasePoint(F(3, 10), F(4, 5))
        assert g.apply_inverse(p) == g.apply(p)

    @pytest.mark.parametrize("kind", ["simple", "generalized", "map3"])
    def test_only_family_names(self, kind):
        with pytest.raises(MapConstructionError):
            build_involution(kind)


class TestPerturbation:
    def test_strip_folds_lower_half(self):
        n = build_perturbation(F(1, 8))
        x_tilde, eps = default_strip(F(1, 8))
        inside = x_tilde + eps / 2
        assert n.apply(PhasePoint(inside, F(1, 4))) == PhasePoint(inside, F(3, 4))
        assert n.apply(PhasePoint(inside, F(3, 4))) == PhasePoint(inside, F(3, 4))
        assert n.apply(PhasePoint(F(3, 5), F(1, 4))) == PhasePoint(F(3, 5), F(1, 4))

    def test_not_invertible(self):
        n = build_perturbation(F(1, 8))
        assert not n.invertible
        with pytest.raises(NonInvertibleMapError):
            n.apply_inverse(PhasePoint(F(1, 4), F(1, 4)))

    def test_strip_must_sit_inside_contracting_region(self):
        with pytest.raises(MapConstructionError):
            build_perturbation(F(1, 8), x_tilde=F(1, 16), eps=F(1, 32))
        with pytest.raises(MapConstructionError):
            build_perturbation(F(1, 8), x_tilde=F(2, 5), eps=F(1, 5))

    def test_zero_width_strip_is_identity(self):
        n = build_perturbation(F(1, 8), eps=0)
        p = PhasePoint(F(1, 4), F(1, 4))
        assert n.apply(p) == p


class TestComposite:
    def test_matches_factor_maps_pointwise(self):
        k = build_composite(F(1, 8))
        n = build_perturbation(F(1, 8))
        m = build_generalized_baker(F(1, 8))
        for p in random_rational_points(50, seed=3):
            assert k.apply(p) == m.apply(n.apply(p))

    def test_x_dynamics_equals_base_map(self):
        k = build_composite(F(1, 8))
        m = build_generalized_baker(F(1, 8))
        for p in random_rational_points(50, seed=4):
            assert k.apply(p).x == m.apply(p).x

    def test_not_invertible(self):
        k = build_composite(F(1, 8))
        assert not k.invertible
        with pytest.raises(NonInvertibleMapError):
            k.apply_inverse(PhasePoint(F(1, 3), F(1, 3)))

    def test_zero_width_strip_reduces_to_base_map(self):
        k = build_composite(F(1, 8), eps=0)
        m = build_generalized_baker(F(1, 8))
        for p in random_rational_points(20, seed=5):
            assert k.apply(p) == m.apply(p)


class TestApplyInverse:
    def test_specific_preimage(self):
        m = build_generalized_baker(F(1, 8))
        assert m.apply_inverse(PhasePoint(F(1, 2), F(3, 4))) == PhasePoint(F(0), F(0))

    def test_roundtrip_many_points(self):
        for m in (build_simple_baker(F(2, 3)), build_generalized_baker(F(1, 8))):
            for p in random_rational_points(100, seed=6):
                assert m.apply_inverse(m.apply(p)) == p


@pytest.mark.parametrize("x,y", [(0.5, F(1, 2)), (F(1, 2), 0.5)])
def test_float_coordinates_are_rejected(x, y):
    with pytest.raises(TypeError):
        PhasePoint(x, y)


def test_rational_orbits_stay_rational():
    m = build_generalized_baker(F(1, 8))
    p = PhasePoint(F(3, 7), F(2, 9))
    for q in m.iterate(p, 20):
        assert isinstance(q.x, F) and isinstance(q.y, F) and q.in_unit_square()


@settings(max_examples=40)
@given(l=l_map1, p=points)
def test_simple_family_identities(l, p):
    m = build_simple_baker(l)
    g = build_involution("map1")
    assert m.apply_inverse(m.apply(p)) == p
    assert g.apply(g.apply(p)) == p
    assert g.apply(m.apply(g.apply(m.apply(p)))) == p
    gmp = g.apply(m.apply(p))
    assert m.jacobian_at(p) * m.jacobian_at(gmp) == 1


@settings(max_examples=40)
@given(l=l_map2, p=points)
def test_generalized_family_identities(l, p):
    m = build_generalized_baker(l)
    g = build_involution("map2")
    assert m.apply_inverse(m.apply(p)) == p
    assert g.apply(g.apply(p)) == p
    assert g.apply(m.apply(g.apply(m.apply(p)))) == p
    gmp = g.apply(m.apply(p))
    assert m.jacobian_at(p) * m.jacobian_at(gmp) == 1


class TestVerifyReversibility:
    def test_simple_map_passes(self):
        rep = verify_reversibility(build_simple_baker(F(2, 3)),
                                   build_involution("map1"),
                                   random_rational_points(200, seed=1))
        assert rep.ok

    def test_generalized_map_passes(self):
        rep = verify_reversibility(build_generalized_baker(F(1, 8)),
                                   build_involution("map2"),
                                   random_rational_points(200, seed=1))
        assert rep.ok

    def test_composite_breaks_only_the_pointwise_inverse(self):
        rep = verify_reversibility(build_composite(F(1, 8)),
                                   build_involution("map2"),
                                   random_rational_points(400, seed=2))
        assert not rep.ok
        assert rep.failed_identities() == {"conjugation_inverts_map"}
        # the coarse-grained structure survives
        assert rep.checks["region_conjugacy"] == rep.samples
        assert rep.checks["jacobian_reciprocity"] == rep.samples

    def test_jacobians_read_from_the_branch_of_each_point(self):
        # the two-branch map under the wrong involution: its jacobians are
        # no longer reciprocal, and the detail holds J(p) * J(G(M(p)))
        m, g = build_simple_baker(F(2, 3)), build_involution("map2")
        pts = random_rational_points(20, seed=4)
        rep = verify_reversibility(m, g, pts)
        details = {f.point: f.detail for f in rep.failures
                   if f.identity == "jacobian_reciprocity"}
        assert details
        for p in pts:
            jac = m.jacobian_at(p) * m.jacobian_at(g.apply(m.apply(p)))
            assert (details.get(p) == f"J(p)*J(GMp) = {jac}") == (jac != 1)

    @pytest.mark.parametrize("p", [PhasePoint(F(3, 2), F(1, 2)),
                                   PhasePoint(F(1, 2), F(-1, 3))])
    def test_point_outside_the_square_is_refused(self, p):
        with pytest.raises(ValueError, match="outside the unit square"):
            verify_reversibility(build_generalized_baker(F(1, 8)),
                                 build_involution("map2"), [p])


def test_branch_jacobian_validated():
    with pytest.raises(MapConstructionError):
        AffineBranch(0, 1, 0, 1, ((F(2), F(0)), (F(0), F(1))), (F(0), F(0)),
                     jacobian=F(3))


def test_json_roundtrip(tmp_path):
    for m in (build_simple_baker(F(2, 3)), build_generalized_baker(F(1, 8)),
              build_perturbation(F(1, 8)), build_composite(F(1, 8))):
        again = map_from_dict(map_to_dict(m))
        assert again == m


def test_save_load_roundtrip(tmp_path):
    from bakerfr.maps import load_map, save_map

    for m in (build_simple_baker(F(2, 3)), build_composite(F(1, 8))):
        path = tmp_path / f"{m.name}.json"
        save_map(m, path)
        assert load_map(path) == m
        assert path.read_text().endswith("}\n")


def test_random_points_avoid_boundaries():
    m = build_generalized_baker(F(1, 8))
    for p in random_rational_points(50, seed=9):
        for q in m.iterate(p, 10):
            assert q.x not in (F(1, 8), F(1, 2), F(3, 4))


def test_random_points_refuse_a_negative_seed():
    # random.Random(-1) would draw the points of seed 1
    with pytest.raises(ValueError, match="seed >= 0"):
        random_rational_points(3, -1)
    assert random_rational_points(3, 0) != random_rational_points(3, 1)
