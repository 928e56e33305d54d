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
from bakerfr import families, transfer
from bakerfr.cli import main
from bakerfr.families import family, verify_composite, verify_x_factor
from bakerfr.transfer import (
    Branch1D,
    ConsistencyError,
    Map1D,
    StepDensity,
    frobenius_perron_step,
    invariant_density,
    project_unstable,
    region_measures,
    transition_matrix,
)

A, B, C, D = RegionLabel.A, RegionLabel.B, RegionLabel.C, RegionLabel.D

l_map2 = st.fractions(min_value=F(1, 40), max_value=F(1, 4), max_denominator=40)

UNIFORM = StepDensity((F(0), F(1)), (F(1),))


@st.composite
def composite_strips(draw):
    """(l, x_tilde, eps) with the fold strip [x_tilde, x_tilde + eps)
    inside region B = [l, 1/2), eps = 0 included."""
    l = draw(l_map2)
    u = draw(st.fractions(F(0), F(1), max_denominator=30))
    v = draw(st.fractions(F(0), F(29, 30), max_denominator=30))
    x_tilde = l + (F(1, 2) - l) * u * F(99, 100)
    return l, x_tilde, (F(1, 2) - x_tilde) * v


class TestProjection:
    def test_simple_map_slopes(self):
        map1d = project_unstable(build_simple_baker(F(2, 3)))
        assert [b.slope for b in map1d.branches] == [F(3, 2), 3]

    def test_generalized_map_slopes(self):
        map1d = project_unstable(build_generalized_baker(F(1, 8)))
        assert [b.slope for b in map1d.branches] == [4, F(4, 3), 2, 2]

    def test_perturbation_not_projectable(self):
        # the fold's two y-pieces share the identity's x-action, so the
        # perturbation projects to the identity on x
        map1d = project_unstable(build_perturbation(F(1, 8)))
        assert [(b.lo, b.hi, b.slope, b.intercept) for b in map1d.branches] == [
            (0, 1, 1, 0)]
        # a y-split whose two pieces act differently on x does not project
        m = build_simple_baker(F(2, 3))
        a, b = m.branches
        lower = a._replace(y_hi=F(1, 2))
        upper = a._replace(y_lo=F(1, 2), offset=(F(1, 9), a.offset[1]))
        split = m._replace(branches=(lower, upper, b))
        with pytest.raises(MapConstructionError, match="differ in their x-action"):
            project_unstable(split)

    def test_pieces_must_cover_y(self):
        # strip A of the two-branch map as a lower half over [0, l) and an
        # upper half cut in x: one x-action, but the pieces over each
        # x-interval cover only half of y, which the merge rule refuses
        m = build_simple_baker(F(2, 3))
        a, b = m.branches
        pieces = (a._replace(y_hi=F(1, 2)),
                  a._replace(x_hi=F(1, 3), y_lo=F(1, 2)),
                  a._replace(x_lo=F(1, 3), y_lo=F(1, 2)))
        with pytest.raises(MapConstructionError, match="leave y uncovered"):
            project_unstable(m._replace(branches=(*pieces, b)))

    @settings(max_examples=40, deadline=None)
    @given(strip=composite_strips())
    def test_composite_projects_onto_the_base_map_strips(self, strip):
        l, x_tilde, eps = strip
        k = build_composite(l, x_tilde, eps)
        base = project_unstable(build_generalized_baker(l)).branches
        assert project_unstable(k).branches == base
        assert base == family("map2", l).x_factor.branches
        verify_x_factor(k)

    def test_corrupted_fold_piece_does_not_project(self):
        # one of the two y-pieces of the fold with a different x-offset
        k = build_composite(F(1, 8))
        fold = next(b for b in k.branches if b.x_lo == k.x_tilde and b.y_lo == 0)
        bad = fold._replace(offset=(fold.offset[0] + F(1, 1000), fold.offset[1]))
        corrupted = k._replace(branches=tuple(bad if b is fold else b for b in k.branches))
        with pytest.raises(MapConstructionError, match="differ in their x-action"):
            project_unstable(corrupted)

    def test_corrupted_full_height_piece_is_inconsistent(self):
        # the piece [x_tilde + eps, 1/2) with its own x-offset still
        # projects, but onto five strips instead of map2's four
        k = build_composite(F(1, 8))
        piece = next(b for b in k.branches
                     if b.x_lo == k.x_tilde + k.eps and b.label == B)
        bad = piece._replace(offset=(piece.offset[0] + F(1, 1000), piece.offset[1]))
        corrupted = k._replace(branches=tuple(bad if b is piece else b for b in k.branches))
        assert len(project_unstable(corrupted).branches) == 5
        with pytest.raises(ConsistencyError, match="x-factor"):
            verify_x_factor(corrupted)


class TestVerifyComposite:
    @settings(max_examples=40, deadline=None)
    @given(strip=composite_strips())
    def test_builder_output_passes(self, strip):
        verify_composite(build_composite(*strip))

    def test_zero_width_strip_passes(self):
        verify_composite(build_composite(F(1, 8), eps=0))

    def test_shifted_fold_piece_is_inconsistent(self):
        # the lower fold piece sent 1/1000 higher in y: same x-action, so
        # the x-factor holds, but fold-then-map differs on the piece
        k = build_composite(F(1, 8))
        fold = next(b for b in k.branches if b.x_lo == k.x_tilde and b.y_lo == 0)
        bad = fold._replace(offset=(fold.offset[0], fold.offset[1] + F(1, 1000)))
        shifted = k._replace(branches=tuple(bad if b is fold else b for b in k.branches))
        verify_x_factor(shifted)
        with pytest.raises(ConsistencyError, match="fold-then-map"):
            verify_composite(shifted)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_tilt_seen_by_one_point_only_is_inconsistent(self, axis):
        # the lower fold piece's x- or y-image tilted by 1/1000 along its
        # own input, about the point a quarter into the piece, where the
        # tilted action still agrees.  The x-tilt changes the x-action of
        # one piece of strip B, which the x-factor check sees.  The y-tilt
        # keeps the x-factor and changes the y-scale, which the map
        # equality sees on the whole piece.
        k = build_composite(F(1, 8))
        fold = next(b for b in k.branches if b.x_lo == k.x_tilde and b.y_lo == 0)
        lo, hi = ((fold.x_lo, fold.x_hi), (fold.y_lo, fold.y_hi))[axis]
        tilt, pivot = F(1, 1000), lo + (hi - lo) / 4
        scale, offset = list(fold.scale), list(fold.offset)
        scale[axis] += tilt
        offset[axis] -= tilt * pivot
        bad = fold._replace(scale=tuple(scale), offset=tuple(offset))
        tilted = k._replace(branches=tuple(bad if b is fold else b for b in k.branches))
        if axis == 0:
            with pytest.raises(ConsistencyError, match="x-factor"):
                verify_composite(tilted)
            return
        verify_x_factor(tilted)
        with pytest.raises(ConsistencyError, match="fold-then-map"):
            verify_composite(tilted)

    def test_moved_fold_boundary_is_inconsistent(self):
        # the line between the two fold pieces moved from y = 1/2 to 5/8:
        # the pieces still tile the square and share one x-action, and the
        # lower piece's action is right at any point below 1/2
        k = build_composite(F(1, 8))
        lower, upper = (next(b for b in k.branches if b.x_lo == k.x_tilde and b.y_lo == y)
                        for y in (0, F(1, 2)))
        moved = k._replace(branches=tuple(
            b._replace(y_hi=F(5, 8)) if b is lower else
            b._replace(y_lo=F(5, 8)) if b is upper else b
            for b in k.branches))
        verify_x_factor(moved)
        with pytest.raises(ConsistencyError, match=r"mapK: piece on \[7/32, 17/64\) x "
                           r"\[0, 5/8\) acts as .* but on \[7/32, 17/64\) x \[1/2, 5/8\) "
                           "fold-then-map acts as"):
            verify_composite(moved)


class TestFrobeniusPerronStep:
    def test_simple_map_keeps_uniform(self):
        map1d = project_unstable(build_simple_baker(F(2, 3)))
        assert frobenius_perron_step(map1d, UNIFORM).simplify() == UNIFORM

    def test_one_step_equals_matrix_multiplication(self):
        l = F(1, 8)
        map1d = project_unstable(build_generalized_baker(l))
        stepped = frobenius_perron_step(map1d, UNIFORM)
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
        assert rho == UNIFORM

    def test_simple_map_is_uniform(self):
        rho = invariant_density(project_unstable(build_simple_baker(F(2, 3))))
        assert rho == UNIFORM

    def test_exact_fixed_point(self):
        map1d = project_unstable(build_generalized_baker(F(1, 6)))
        rho = invariant_density(map1d)
        assert frobenius_perron_step(map1d, rho).simplify() == rho

    def test_branches_must_be_the_cells_in_order(self):
        map1d = project_unstable(build_generalized_baker(F(1, 8)))
        with pytest.raises(MapConstructionError, match="must tile"):
            invariant_density(map1d._replace(branches=map1d.branches[::-1]))

    @settings(max_examples=20)
    @given(l=l_map2)
    def test_closed_form_any_l(self, l):
        rho = invariant_density(project_unstable(build_generalized_baker(l)))
        assert rho == family("map2", l).density


@settings(max_examples=30, deadline=None)
@given(case=st.one_of(
    st.tuples(st.just("map1"),
              st.fractions(min_value=F(1, 60), max_value=F(59, 60), max_denominator=60)),
    st.tuples(st.just("map2"), l_map2)))
def test_region_measures_spread_over_the_strips_give_the_density(case):
    # the weights and the density come from one solve: spread evenly over
    # the strips, the weights are the density
    name, l = case
    x = family(name, l).x_factor
    mu = region_measures(x)
    edges = (F(0),) + tuple(b.hi for b in x.branches)
    spread = StepDensity(edges, tuple(mu[b.label] / (b.hi - b.lo) for b in x.branches))
    assert spread.simplify() == invariant_density(x)


def _scale_first_nonzero(rows, factor):
    rows = [row[:] for row in rows]
    i, j = next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x)
    rows[i][j] *= factor
    return rows


@pytest.mark.parametrize("route", ["cell_transfer_matrix", "_strip_chain"])
class TestChainEquality:
    """One entry of the pushed-indicator matrix or of the strip chain off by
    a factor 1 + 2^-60, far below float resolution of the density."""

    @pytest.fixture(autouse=True)
    def corrupt(self, monkeypatch, route):
        real = getattr(transfer, route)
        monkeypatch.setattr(transfer, route,
                            lambda arg: _scale_first_nonzero(real(arg), 1 + F(1, 2 ** 60)))
        families._family.cache_clear()
        yield
        families._family.cache_clear()

    def test_invariant_density_raises(self, route):
        with pytest.raises(ConsistencyError, match=r"pushed indicator t\[\d\]\[\d\]"):
            invariant_density(project_unstable(build_generalized_baker(F(3, 37))))

    def test_density_command_exits_3(self, route, tmp_path, capsys):
        rc = main(["density", "--family", "map2", "--l", "3/37", "--out", str(tmp_path / "d")])
        assert rc == 3
        assert capsys.readouterr().out.startswith("density [INCONSISTENT] ")


def _strips(*rows):
    """A projection from (lo, hi, slope, intercept, label) rows."""
    return Map1D("toy_x", tuple(Branch1D(F(lo), F(hi), F(s), F(c), lab)
                                for lo, hi, s, c, lab in rows))


def _scale_first_entry(monkeypatch, factor):
    real = transfer._nullspace_vector

    def scaled(mat):
        v = real(mat)
        v[0] *= factor
        return v

    monkeypatch.setattr(transfer, "_nullspace_vector", scaled)


class TestChainRefusals:
    """Every refusal of the strip chain and the stationary solve."""

    @pytest.fixture(autouse=True)
    def fresh_records(self):
        families._family.cache_clear()
        yield
        families._family.cache_clear()

    def test_image_off_a_strip_edge(self):
        m = _strips((0, F(1, 2), 2, 0, A), (F(1, 2), 1, 1, -F(1, 4), B))
        with pytest.raises(MapConstructionError,
                           match=r"branch image \(1/4, 3/4\) does not align"):
            invariant_density(m)

    def test_two_stationary_laws(self):
        identity = _strips((0, F(1, 2), 1, 0, A), (F(1, 2), 1, 1, 0, B))
        with pytest.raises(ConsistencyError,
                           match="expected a one-dimensional nullspace, got 2"):
            invariant_density(identity)

    def test_wrong_solve_is_not_a_fixed_point(self, monkeypatch, tmp_path, capsys):
        _scale_first_entry(monkeypatch, 2)
        with pytest.raises(ConsistencyError, match="not a fixed point"):
            invariant_density(project_unstable(build_generalized_baker(F(3, 37))))
        rc = main(["density", "--family", "map2", "--l", "3/37", "--out", str(tmp_path / "d")])
        assert rc == 3
        assert capsys.readouterr().out.startswith("density [INCONSISTENT] stationary density "
                                                  "is not a fixed point")

    def test_mixed_signs(self, monkeypatch):
        _scale_first_entry(monkeypatch, -1)
        with pytest.raises(ConsistencyError, match="mixed signs"):
            invariant_density(project_unstable(build_generalized_baker(F(3, 37))))

    def test_unequal_column(self):
        m = _strips((0, F(1, 2), 2, 0, A), (F(1, 2), 1, 1, -F(1, 2), B))
        with pytest.raises(ConsistencyError, match="column A has unequal entries"):
            transition_matrix(m)


class TestTransitionMatrix:
    def test_values(self):
        p = transition_matrix(project_unstable(build_generalized_baker(F(1, 8))))
        assert p[B, B] == F(3, 4)
        assert p[C, C] == F(1, 2)
        assert p[B, A] == F(1, 4)

    def test_row_sums_and_zero_pattern(self):
        p = transition_matrix(project_unstable(build_generalized_baker(F(1, 6))))
        for i in (A, B, C, D):
            assert sum(p[i, j] for j in (A, B, C, D)) == 1
        for i in (A, C):
            assert p[i, A] == 0 and p[i, B] == 0
        for i in (B, D):
            assert p[i, C] == 0 and p[i, D] == 0

    def test_rejects_a_map_not_made_of_strips(self):
        # the composite's fold pieces merge back into strip B, so its chain
        # is the base map's; an x-action that depends on y has no strips
        l = F(1, 8)
        assert transition_matrix(project_unstable(build_composite(l))) == transition_matrix(
            project_unstable(build_generalized_baker(l)))
        m = build_generalized_baker(l)
        a, b, c, d = m.branches
        sheared = b._replace(swap=True)
        with pytest.raises(MapConstructionError, match="depends on y"):
            project_unstable(m._replace(branches=(a, sheared, c, d)))
        unlabelled = project_unstable(m)
        unlabelled = unlabelled._replace(branches=tuple(
            br._replace(label=None) for br in unlabelled.branches))
        with pytest.raises(MapConstructionError, match="one labelled branch per strip"):
            transition_matrix(unlabelled)


class TestRegionMeasures:
    def test_values(self):
        mu = region_measures(project_unstable(build_generalized_baker(F(1, 8))))
        assert mu[A] == mu[C] == mu[D] == F(1, 6)
        assert mu[B] == F(1, 2)

    def test_equilibrium_uniform(self):
        mu = region_measures(project_unstable(build_generalized_baker(F(1, 4))))
        assert all(mu[i] == F(1, 4) for i in (A, B, C, D))

    def test_stationarity(self):
        l = F(1, 8)
        map1d = project_unstable(build_generalized_baker(l))
        mu = region_measures(map1d)
        p = transition_matrix(map1d)
        labels = (A, B, C, D)
        for lj in labels:
            assert sum(mu[li] * p[li, lj] for li in labels) == mu[lj]

    @settings(max_examples=20)
    @given(l=l_map2)
    def test_routes_agree_any_l(self, l):
        # inside invariant_density the pushed-indicator matrix must equal the
        # strip chain entry by entry, which with the exact fixed point makes
        # the measures stationary under the chain; here just confirm
        # normalization
        mu = region_measures(project_unstable(build_generalized_baker(l)))
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
        assert rho.simplify() == UNIFORM
