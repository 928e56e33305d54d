import dataclasses
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bakerfr import periodic_orbits
from bakerfr.families import family
from bakerfr.fluctuation import (
    MAX_DP_STEPS,
    admissible_sequences,
    chain_spec,
    exact_distribution,
)
from bakerfr.maps import RegionLabel, build_generalized_baker, build_simple_baker
from bakerfr.periodic_orbits import (
    enumerate_orbits,
    generalized_upo_diagnostic,
    upo_distribution,
    write_orbits_csv,
)
from bakerfr.transfer import Branch1D, ConsistencyError, project_unstable

A, B = RegionLabel.A, RegionLabel.B

l_values = st.fractions(min_value=F(1, 20), max_value=F(19, 20), max_denominator=30)


class TestEnumerateOrbits:
    def test_period_one(self):
        orbits = {o.text(): o for o in enumerate_orbits(F(2, 3), 1)}
        assert set(orbits) == {"A", "B"}
        assert orbits["A"].x_point == 0
        assert orbits["B"].x_point == 1

    def test_period_two(self):
        orbits = {o.text(): o for o in enumerate_orbits(F(2, 3), 2)}
        assert set(orbits) == {"AA", "AB", "BA", "BB"}
        # alternating cycle solves x = branch_B(branch_A(x))
        assert orbits["AB"].x_point == F(4, 7)

    def test_counts(self):
        assert len(enumerate_orbits(F(2, 3), 8)) == 2 ** 8

    def test_points_close_up_exactly(self):
        map1d = project_unstable(build_simple_baker(F(2, 3)))
        for o in enumerate_orbits(F(2, 3), 6):
            x = o.x_point
            for _ in range(6):
                x = map1d.apply(x)
            assert x == o.x_point

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_orbits(F(2, 3), 21)

    @settings(max_examples=15, deadline=None)
    @given(l=l_values, n=st.integers(min_value=1, max_value=7))
    def test_codes_in_lexicographic_order_with_closing_points(self, l, n):
        # the n-step walk of every orbit that the one-step check replaced
        by_label = {b.label: b for b in project_unstable(build_simple_baker(l)).branches}
        orbits = enumerate_orbits(l, n)
        assert [o.code for o in orbits] == sorted(o.code for o in orbits)
        assert len(orbits) == 2 ** n
        for o in orbits:
            x = o.x_point
            for lab in o.code:
                assert lab == (A if x < l else B)
                x = by_label[lab](x)
            assert x == o.x_point
            assert o.weight == math.prod(1 / by_label[lab].slope for lab in o.code)


def patch_branch(monkeypatch, label, replace):
    """Make `enumerate_orbits` read the branch `label` of the record's
    x-factor through `replace`."""
    def patched(name, l):
        fam = family(name, l)
        proj = fam.x_factor
        return dataclasses.replace(fam, x_factor=dataclasses.replace(proj, branches=tuple(
            replace(b) if b.label == label else b for b in proj.branches)))

    monkeypatch.setattr(periodic_orbits, "family", patched)


@dataclasses.dataclass(frozen=True)
class DriftingBranch(Branch1D):
    """A branch whose action is off by 1/1000 from its slope and intercept."""

    def __call__(self, x):
        return super().__call__(x) + F(1, 1000)


class TestOrbitChecks:
    @pytest.mark.parametrize("label,shift", [(A, F(1, 1000)), (B, F(-1, 1000))])
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_shifted_intercept_is_inconsistent(self, monkeypatch, label, shift, n):
        # the fixed point of the constant code leaves its strip
        patch_branch(monkeypatch, label,
                     lambda b: dataclasses.replace(b, intercept=b.intercept + shift))
        with pytest.raises(ConsistencyError, match="not realized"):
            enumerate_orbits(F(2, 3), n)

    @pytest.mark.parametrize("label", [A, B])
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_one_step_that_misses_the_rotated_point_is_inconsistent(self, monkeypatch,
                                                                    label, n):
        # the walk composes slope and intercept; the one-step check applies
        # the branch, whose action here drifts away from them
        patch_branch(monkeypatch, label, lambda b: DriftingBranch(**vars(b)))
        with pytest.raises(ConsistencyError, match="does not close"):
            enumerate_orbits(F(2, 3), n)


class TestOrbitWeights:
    def test_examples(self):
        one = {o.text(): o for o in enumerate_orbits(F(2, 3), 1)}
        assert one["A"].weight == F(2, 3)
        two = {o.text(): o for o in enumerate_orbits(F(2, 3), 2)}
        assert two["AB"].weight == F(2, 9)

    @settings(max_examples=15)
    @given(l=l_values, n=st.integers(min_value=1, max_value=8))
    def test_weights_sum_to_one(self, l, n):
        assert sum(o.weight for o in enumerate_orbits(l, n)) == 1

    def test_reversal_pairing(self):
        # swapping labels and reversing the code flips the weight exponents
        # and negates the net count
        by_code = {o.code: o for o in enumerate_orbits(F(2, 3), 5)}
        swap = {A: B, B: A}
        for code, o in by_code.items():
            partner = by_code[tuple(swap[lab] for lab in reversed(code))]
            assert partner.alpha == o.beta and partner.beta == o.alpha
            assert partner.g == -o.g
            assert partner.weight == F(2, 3) ** o.beta * F(1, 3) ** o.alpha


class TestUPODistribution:
    def test_matches_symbol_law(self):
        for n in range(1, 11):
            assert (upo_distribution(F(2, 3), enumerate_orbits(F(2, 3), n)).probs
                    == exact_distribution("map1", F(2, 3), n).probs)

    def test_ratio_identity(self):
        d = upo_distribution(F(2, 3), enumerate_orbits(F(2, 3), 9))
        for g in d.support():
            if g > 0:
                assert d.prob(g) == d.prob(-g) * F(2, 1) ** g

    def test_symmetric_at_half(self):
        d = upo_distribution(F(1, 2), enumerate_orbits(F(1, 2), 6))
        assert all(d.prob(g) == d.prob(-g) for g in d.support())

    @settings(max_examples=15, deadline=None)
    @given(l=l_values, n=st.integers(min_value=1, max_value=8))
    def test_matches_symbol_law_at_random_l(self, l, n):
        assert (upo_distribution(l, enumerate_orbits(l, n)).probs
                == exact_distribution("map1", l, n).probs)


def reference_orbits_csv(l, n) -> str:
    """The orbit table built from `Fraction`s: each code's fixed point of
    the composed branches, and its weight as the product of the inverse
    slopes."""
    by_label = {b.label: b for b in project_unstable(build_simple_baker(l)).branches}
    lines = ["code,alpha,beta,weight_num,weight_den,x_point\n"]
    for code in itertools.product((A, B), repeat=n):
        a, b = F(1), F(0)        # x -> a x + b, the branches of the prefix
        for lab in code:
            br = by_label[lab]
            a, b = br.slope * a, br.slope * b + br.intercept
        x = b / (1 - a)
        w = math.prod(1 / by_label[lab].slope for lab in code)
        alpha = code.count(A)
        lines.append(f"{''.join(lab.value for lab in code)},{alpha},{n - alpha},"
                     f"{w.numerator},{w.denominator},{x.numerator}/{x.denominator}\n")
    return "".join(lines)


class TestOrbitRows:
    @settings(max_examples=15, deadline=None)
    @given(l=l_values, n=st.integers(min_value=1, max_value=8))
    def test_csv_equals_the_fraction_reference(self, tmp_path_factory, l, n):
        path = tmp_path_factory.mktemp("orbits") / "orbits.csv"
        write_orbits_csv(enumerate_orbits(l, n), path)
        assert path.read_bytes() == reference_orbits_csv(l, n).encode()

    def test_derived_fields(self):
        o = enumerate_orbits(F(2, 3), 3)[3]
        assert (o.label, o.code, o.text()) == ("ABB", (A, B, B), "ABB")
        assert (o.alpha, o.beta, o.g) == (1, 2, -1)
        assert (o.weight_num, o.weight_den, o.weight) == (2, 27, F(2, 27))


class TestGeneralizedDiagnostic:
    def test_runs_and_reports_discrepancy(self):
        diag = generalized_upo_diagnostic(F(1, 8), 6)
        assert diag.cycles > 0
        assert sum(diag.upo_probs.values()) == 1
        assert 0 <= diag.total_variation <= 1
        # the naive orbit expansion is far from the true law here; no
        # agreement is asserted, only that the gap is quantified
        assert diag.total_variation > 0

    @settings(max_examples=15, deadline=None)
    @given(l=st.fractions(F(1, 60), F(1, 4), max_denominator=60),
           n=st.integers(min_value=1, max_value=12))
    def test_walk_equals_per_sequence_sum(self, l, n):
        spec = chain_spec("map2", l)
        inv_slope = {b.label: 1 / b.slope
                     for b in project_unstable(build_generalized_baker(l)).branches}
        weights, cycles = {}, 0
        for seq in admissible_sequences(spec, n):
            if seq[0] in spec.successors(seq[-1]):
                cycles += 1
                g = sum(spec.delta(lab) for lab in seq)
                weights[g] = weights.get(g, F(0)) + math.prod(inv_slope[lab] for lab in seq)
        total = sum(weights.values())
        diag = generalized_upo_diagnostic(l, n)
        assert diag.cycles == cycles
        assert diag.upo_probs == {g: w / total for g, w in weights.items()}

    @pytest.mark.parametrize("l", [F(1, 8), F(3, 37), F(1, 5)])
    @pytest.mark.parametrize("n", [21, 200])
    def test_trace_past_the_cycle_walk(self, l, n):
        # every cycle has as many A as D visits (A is entered from {B, D},
        # D from {A, C}), so g = #B - #C has the parity of n; the orbit sum
        # lives on that lattice and the chain's mass off it bounds the gap
        diag = generalized_upo_diagnostic(l, n)
        assert diag.cycles == 2 ** n
        assert sum(diag.upo_probs.values()) == 1
        assert all((g - n) % 2 == 0 for g in diag.upo_probs)
        off_lattice = sum(p for g, p in diag.chain_probs.items() if (g - n) % 2)
        assert diag.total_variation >= off_lattice
        if l == F(1, 8):
            assert round(float(off_lattice), 4) == 0.4444

    def test_guard_is_the_law_guard(self):
        with pytest.raises(ValueError, match="exceeds the DP guard"):
            generalized_upo_diagnostic(F(1, 8), MAX_DP_STEPS + 1)

    def test_equilibrium_diagnostic_is_symmetric(self):
        diag = generalized_upo_diagnostic(F(1, 4), 5)
        assert all(diag.upo_probs[g] == diag.upo_probs[-g] for g in diag.upo_probs)
