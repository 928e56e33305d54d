import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bakerfr import maps
from bakerfr.families import family
from bakerfr.maps import (
    AffineBranch,
    IdentityFailure,
    MapConstructionError,
    PhasePoint,
    RegionLabel,
    ReversibilityReport,
    build_composite,
    build_generalized_baker,
    build_involution,
    build_perturbation,
    build_simple_baker,
    compose,
    default_strip,
    in_interval,
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


def area(b):
    return (b.x_hi - b.x_lo) * (b.y_hi - b.y_lo)


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
        # branch's x-expansion, directly from the branch scales
        m = build_simple_baker(F(2, 3))
        ba, bb = m.branches
        assert ba.scale[1] == 1 / bb.scale[0]
        assert bb.scale[1] == 1 / ba.scale[0]


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
        # G o G is the identity on every piece, so G is its own inverse
        for kind in ("map1", "map2"):
            g = build_involution(kind)
            gg = compose(g, g)
            assert sum(area(b) for b in gg.branches) == 1
            assert all(b.action == (False, (1, 1), (0, 0)) for b in gg.branches)

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

    def test_zero_width_strip_reduces_to_base_map(self):
        k = build_composite(F(1, 8), eps=0)
        m = build_generalized_baker(F(1, 8))
        for p in random_rational_points(20, seed=5):
            assert k.apply(p) == m.apply(p)


@pytest.mark.parametrize("x,y", [(0.5, F(1, 2)), (F(1, 2), 0.5)])
def test_float_coordinates_are_rejected(x, y):
    with pytest.raises(TypeError):
        PhasePoint(x, y)


def test_rational_orbits_stay_rational():
    m = build_generalized_baker(F(1, 8))
    p = PhasePoint(F(3, 7), F(2, 9))
    for q in m.iterate(p, 20):
        assert isinstance(q.x, F) and isinstance(q.y, F)
        assert 0 <= q.x <= 1 and 0 <= q.y <= 1


@settings(max_examples=40)
@given(l=l_map1, p=points)
def test_simple_family_identities(l, p):
    m = build_simple_baker(l)
    g = build_involution("map1")
    assert g.apply(g.apply(p)) == p
    assert g.apply(m.apply(g.apply(m.apply(p)))) == p
    gmp = g.apply(m.apply(p))
    assert m.jacobian_at(p) * m.jacobian_at(gmp) == 1


@settings(max_examples=40)
@given(l=l_map2, p=points)
def test_generalized_family_identities(l, p):
    m = build_generalized_baker(l)
    g = build_involution("map2")
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
                                   PhasePoint(F(1, 2), F(-1, 3)),
                                   PhasePoint(F(-1, 10**6), F(0)),
                                   PhasePoint(F(1), F(10**6 + 1, 10**6))])
    def test_point_outside_the_square_is_refused(self, p):
        for m in (build_generalized_baker(F(1, 8)), build_composite(F(1, 8))):
            with pytest.raises(ValueError,
                               match=f"point {re.escape(str(p))} outside the unit square"):
                m.branch_at(p)
            with pytest.raises(ValueError, match="outside the unit square"):
                verify_reversibility(m, build_involution("map2"), [p])


def test_branch_jacobian_validated():
    # the jacobian is the derived |sx sy|, and a zero scale is refused
    with pytest.raises(MapConstructionError, match="zero scale"):
        AffineBranch(0, 1, 0, 1, (F(2), F(0)), (F(0), F(0)))
    assert AffineBranch(0, 1, 0, 1, (F(-2), F(1, 3)), (F(1), F(0))).jacobian == F(2, 3)


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


# ---------------------------------------------------------------------------
# exact composition and the per-piece proofs
# ---------------------------------------------------------------------------


@st.composite
def named_maps(draw):
    """(name, map): map1 or map2 at a random rational l, or the composite
    with a random fold strip inside region B."""
    kind = draw(st.sampled_from(["map1", "map2", "composite"]))
    if kind == "map1":
        return kind, build_simple_baker(draw(l_map1))
    l = draw(l_map2)
    if kind == "map2":
        return kind, build_generalized_baker(l)
    u = draw(st.fractions(F(0), F(1), max_denominator=30))
    v = draw(st.fractions(F(0), F(29, 30), max_denominator=30))
    x_tilde = l + (F(1, 2) - l) * u * F(99, 100)
    return kind, build_composite(l, x_tilde, (F(1, 2) - x_tilde) * v)


class TestCompose:
    @settings(max_examples=40, deadline=None)
    @given(named=named_maps(), pts=st.lists(points, min_size=5, max_size=5))
    def test_matches_pointwise_composition(self, named, pts):
        kind, m = named
        g = build_involution("map1" if kind == "map1" else "map2")
        for outer, inner in ((g, m), (m, g), (m, m)):
            both = compose(outer, inner)
            assert sum(area(b) for b in both.branches) == 1
            for p in pts:
                assert both.apply(p) == outer.apply(inner.apply(p))
                assert both.branch_at(p).label == outer.branch_at(inner.apply(p)).label

    def test_image_leaving_the_square_is_refused(self):
        m = build_simple_baker(F(2, 3))
        a, b = m.branches
        out = m._replace(branches=(a, b._replace(
            offset=(b.offset[0] + F(1, 1000), b.offset[1]))))
        with pytest.raises(MapConstructionError, match="total area"):
            compose(m, out)


def proofs(m, g):
    return verify_reversibility(m, g, []).proofs


def shifted_involution2(piece, shift):
    """map2's involution with the x-offset of one piece moved by `shift`."""
    g = build_involution("map2")
    b = g.branches[piece]
    return g._replace(branches=tuple(
        c._replace(offset=(c.offset[0] + shift, c.offset[1])) if c is b else c
        for c in g.branches))


class TestPieceProofs:
    @pytest.mark.parametrize("l", ["1/3", "2/3", "3/7"])
    def test_simple_map_passes(self, l):
        rep = verify_reversibility(build_simple_baker(F(l)), build_involution("map1"), [])
        assert rep.ok and set(rep.proofs) == set(rep.checks)
        assert all(res.pieces > 0 and res.failed_area == 0 for res in rep.proofs.values())

    @settings(max_examples=30, deadline=None)
    @given(l=l_map2)
    def test_generalized_map_passes(self, l):
        rep = verify_reversibility(build_generalized_baker(l), build_involution("map2"), [])
        assert rep.ok and set(rep.proofs) == set(rep.checks)
        assert all(res.pieces > 0 and res.failed_area == 0 for res in rep.proofs.values())

    def test_composite_witness(self):
        # 2 of the 10 pieces of G o K o G o K are not the identity
        res = proofs(build_composite(F(1, 8)), build_involution("map2"))
        assert {name for name, p in res.items() if p.failed_pieces} == {
            "conjugation_inverts_map"}
        wit = res["conjugation_inverts_map"]
        assert (wit.pieces, wit.failed_pieces, wit.failed_area) == (10, 2, F(5, 128))

    @pytest.mark.parametrize("piece,shift", [(0, F(-1, 1000)), (1, F(1, 1000))])
    def test_shifted_involution_fails_the_involution_proof(self, piece, shift):
        # one x-offset of map2's involution moved by 1/1000, towards the
        # inside of the square, so that G o G is still defined
        res = proofs(build_generalized_baker(F(1, 8)), shifted_involution2(piece, shift))
        assert res["involution_squares_to_identity"].failed_area > 0
        assert res["involution_squares_to_identity"].failed_pieces > 0

    def test_failed_area_equals_a_grid_count(self):
        # map2 under map1's mirror: the jacobian and region identities fail
        # on 35/48 of the square, and so they do at exactly that share of
        # the centres of a 48 x 48 grid, whose lines hold every piece edge
        m, g = build_generalized_baker(F(1, 8)), build_involution("map1")
        res = proofs(m, g)
        conj = family("map2", F(1, 8)).conjugacy
        centres = [PhasePoint(F(2 * i + 1, 96), F(2 * j + 1, 96))
                   for i in range(48) for j in range(48)]
        jac = sum(m.jacobian_at(p) * m.jacobian_at(g.apply(m.apply(p))) != 1 for p in centres)
        reg = sum(conj[m.region_of(p)] != m.region_of(g.apply(m.apply(p))) for p in centres)
        assert res["jacobian_reciprocity"].failed_area == F(jac, 48 * 48) == F(35, 48)
        assert res["region_conjugacy"].failed_area == F(reg, 48 * 48) == F(35, 48)

    def test_wrong_involution_fails_on_area(self):
        # the two-branch map under map2's involution: its jacobians are
        # not reciprocal on a set of positive area
        rep = verify_reversibility(build_simple_baker(F(2, 3)), build_involution("map2"), [])
        assert rep.proofs["jacobian_reciprocity"].failed_area > 0
        assert "jacobian_reciprocity" in rep.failed_identities() and not rep.ok


# ---------------------------------------------------------------------------
# the sampled route on integers, against its Fraction reference
# ---------------------------------------------------------------------------


def reference_sampled_route(m, g, samples):
    """The per-point loop of `verify_reversibility` in `Fraction`
    arithmetic, with its own half-open membership and branch action, as
    the report it gives beside the proofs of `verify_reversibility`."""

    def inside(v, lo, hi):
        return (lo <= v < hi) or (v == hi == 1)

    def branch(f, p):
        if not (0 <= p.x <= 1 and 0 <= p.y <= 1):
            raise ValueError(f"point {p} outside the unit square")
        for b in f.branches:
            if inside(p.x, b.x_lo, b.x_hi) and inside(p.y, b.y_lo, b.y_hi):
                return b
        raise ValueError(f"point {p} not covered by any branch of {f.name}")

    def act(b, p):
        u, v = (p.y, p.x) if b.swap else (p.x, p.y)
        return PhasePoint(b.scale[0] * u + b.offset[0], b.scale[1] * v + b.offset[1])

    def apply(f, p):
        return act(branch(f, p), p)

    def region(p):
        return next(label for lo, hi, label in m.partition if inside(p.x, lo, hi))

    proofs = verify_reversibility(m, g, []).proofs
    conj = family(m.family, m.l).conjugacy if m.partition is not None else None
    points = list(samples)
    if conj is not None:
        inset = (F(1, 4096), F(4095, 4096))
        points += [PhasePoint(lo + (hi - lo) * t, s) for lo, hi, _label in m.partition
                   for t in inset for s in inset]
    checks = dict.fromkeys(proofs, 0)
    failures = []
    for p in points:
        gg = apply(g, apply(g, p))
        at_p = branch(m, p)
        gmp = apply(g, act(at_p, p))
        at_gmp = branch(m, gmp)
        back = apply(g, act(at_gmp, gmp))
        jac = at_p.jacobian * at_gmp.jacobian
        outcomes = [("involution_squares_to_identity", gg == p, "G(G(p)) = {}", gg),
                    ("conjugation_inverts_map", back == p, "G(M(G(M(p)))) = {}", back),
                    ("jacobian_reciprocity", jac == 1, "J(p)*J(GMp) = {}", jac)]
        if conj is not None:
            want, got = conj[region(p)], region(gmp)
            outcomes.append(("region_conjugacy", got == want, f"expected {want}, got {{}}", got))
        for name, holds, detail, value in outcomes:
            if holds:
                checks[name] += 1
            else:
                failures.append(IdentityFailure(p, name, detail.format(value)))
    return ReversibilityReport(m.name, len(points), checks, failures, proofs)


# small denominators: every strip edge, fold edge and corner of the square
edge_coords = st.fractions(min_value=F(0), max_value=F(1), max_denominator=40)


class TestSampledRoute:
    @settings(max_examples=40, deadline=None)
    @given(named=named_maps(), seed=st.integers(min_value=0, max_value=2**16),
           edges=st.lists(st.builds(PhasePoint, edge_coords, edge_coords), max_size=10))
    def test_matches_the_fraction_reference(self, named, seed, edges):
        kind, m = named
        g = build_involution("map1" if kind == "map1" else "map2")
        pts = random_rational_points(30, seed) + edges
        rep = verify_reversibility(m, g, pts)
        ref = reference_sampled_route(m, g, pts)
        assert rep == ref

    @settings(max_examples=10, deadline=None)
    @given(l=l_map2, seed=st.integers(min_value=0, max_value=2**16))
    def test_composite_failures_match_entry_for_entry(self, l, seed):
        m, g = build_composite(l), build_involution("map2")
        pts = random_rational_points(200, seed)
        rep = verify_reversibility(m, g, pts)
        assert rep.failures == reference_sampled_route(m, g, pts).failures
        assert {f.identity for f in rep.failures} == {"conjugation_inverts_map"}

    @pytest.mark.parametrize("piece,shift", [(0, F(-1, 1000)), (1, F(1, 1000))])
    @settings(max_examples=10, deadline=None)
    @given(l=l_map2, seed=st.integers(min_value=0, max_value=2**16))
    def test_shifted_involution_failures_match_entry_for_entry(self, piece, shift, l, seed):
        m, g = build_generalized_baker(l), shifted_involution2(piece, shift)
        pts = random_rational_points(100, seed)
        rep = verify_reversibility(m, g, pts)
        assert rep.failures == reference_sampled_route(m, g, pts).failures
        assert "involution_squares_to_identity" in {f.identity for f in rep.failures}

    def test_samples_build_no_points(self, monkeypatch):
        # the samples run on integers: only the proofs and the region
        # corners build points, so 300 samples build as many as 10
        m, g = build_generalized_baker(F(7, 40)), build_involution("map2")
        samples = {k: random_rational_points(k, seed=1) for k in (10, 300)}
        real, built = maps.PhasePoint, []

        def counting(*args, **kwargs):
            built.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(maps, "PhasePoint", counting)
        counts = {}
        for k, pts in samples.items():
            built.clear()
            assert verify_reversibility(m, g, pts).ok
            counts[k] = len(built)
        assert counts[10] == counts[300]


class TestHalfOpenMembership:
    @pytest.mark.parametrize("l", [F(1, 8), F(3, 37), F(1, 4)])
    def test_integer_membership_at_exact_edges(self, l):
        # every strip edge, the fold's x- and y-cuts, 0 and 1, each also as
        # a pair out of lowest terms, against every interval of the composite
        k = build_composite(l)
        cuts = ({c for b in k.branches for c in b.domain}
                | {e for lo, hi, _label in k.partition for e in (lo, hi)} | {F(0), F(1)})
        intervals = ({(b.x_lo, b.x_hi) for b in k.branches}
                     | {(b.y_lo, b.y_hi) for b in k.branches}
                     | {(lo, hi) for lo, hi, _label in k.partition})
        for v in cuts:
            for lo, hi in intervals:
                want = (lo <= v < hi) or (v == hi == 1)
                assert in_interval(v, lo, hi) == want
                for i in (1, 2, 3):
                    for j in (1, 2):
                        assert maps._within(i * v.numerator, i * v.denominator,
                                            j * lo.numerator, j * lo.denominator,
                                            j * hi.numerator, j * hi.denominator) == want
        for b in k.branches:
            for x in cuts:
                for y in cuts:
                    assert b._holds(maps._int_point(PhasePoint(x, y))) == (
                        ((b.x_lo <= x < b.x_hi) or (x == b.x_hi == 1))
                        and ((b.y_lo <= y < b.y_hi) or (y == b.y_hi == 1)))

    def test_unnormalized_pair_on_an_edge(self):
        # (2, 4) is 1/2: the left edge of strip C, outside strip B
        assert maps._within(2, 4, 1, 2, 3, 4)
        assert not maps._within(2, 4, 1, 8, 1, 2)
        assert maps._within(4, 4, 3, 4, 1, 1) and maps._within(4, 4, 6, 8, 2, 2)
