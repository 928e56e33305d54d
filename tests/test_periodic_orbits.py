import itertools
import math
from fractions import Fraction as F
from types import MappingProxyType

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bakerfr import periodic_orbits
from bakerfr.cli import orbit_table, write_csv
from bakerfr.families import family
from bakerfr.fluctuation import (
    MAX_DP_STEPS,
    chain_spec,
    exact_distribution,
)
from bakerfr.maps import (
    RegionLabel,
    build_generalized_baker,
    build_simple_baker,
)
from bakerfr.periodic_orbits import (
    PeriodicOrbit,
    enumerate_orbits,
    generalized_upo_diagnostic,
    upo_distribution,
)
from bakerfr.transfer import Branch1D, ConsistencyError, project_unstable
from reference import admissible_sequences, in_interval, packed_trace

A, B, C, D = RegionLabel.A, RegionLabel.B, RegionLabel.C, RegionLabel.D

l_values = st.fractions(min_value=F(1, 20), max_value=F(19, 20), max_denominator=30)


def weight(o):
    return F(o.weight_num, o.weight_den)


class TestEnumerateOrbits:
    def test_period_one(self):
        orbits = {o.label: o for o in enumerate_orbits(F(2, 3), 1)}
        assert set(orbits) == {"A", "B"}
        assert orbits["A"].x_point == 0
        assert orbits["B"].x_point == 1

    def test_period_two(self):
        orbits = {o.label: o for o in enumerate_orbits(F(2, 3), 2)}
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
                x = next(b for b in map1d.branches if in_interval(x, b.lo, b.hi))(x)
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
        assert [o.label for o in orbits] == sorted(o.label for o in orbits)
        assert len(orbits) == 2 ** n
        for o in orbits:
            x = o.x_point
            for lab in o.label:
                assert lab == (A if x < l else B)
                x = by_label[lab](x)
            assert x == o.x_point
            assert weight(o) == math.prod(1 / by_label[lab].slope for lab in o.label)


def patch_branch(monkeypatch, label, replace):
    """Make `enumerate_orbits` read the branch `label` of the record's
    x-factor through `replace`."""
    def patched(name, l):
        fam = family(name, l)
        proj = fam.x_factor
        return fam._replace(x_factor=proj._replace(branches=tuple(
            replace(b) if b.label == label else b for b in proj.branches)))

    monkeypatch.setattr(periodic_orbits, "family", patched)


class DriftingBranch(Branch1D):
    """A branch whose action is off by 1/1000 from its slope and intercept."""

    __slots__ = ()

    def __call__(self, x):
        return super().__call__(x) + F(1, 1000)


def bump_point(monkeypatch, code):
    """Make `enumerate_orbits` build the row of `code` with its point
    numerator one too large."""
    make = PeriodicOrbit._make

    def bumped(fields):
        row = make(fields)
        return make((*row[:3], row.x_num + 1, *row[4:])) if row.label == code else row

    monkeypatch.setattr(PeriodicOrbit, "_make", bumped)


class TestOrbitChecks:
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_point_off_by_one_does_not_close(self, monkeypatch, n):
        # the first code whose bumped point stays in the strip of its first
        # symbol, so that only the closure check can see it
        l = F(2, 3)
        code = next(o.label for o in enumerate_orbits(l, n)
                    if (F(o.x_num + 1, o.x_den) < l) == (o.label[0] == "A")
                    and o.x_num < o.x_den)
        bump_point(monkeypatch, code)
        with pytest.raises(ConsistencyError, match="does not close"):
            enumerate_orbits(l, n)

    @pytest.mark.parametrize("label,shift", [(A, F(1, 1000)), (B, F(-1, 1000))])
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_shifted_intercept_is_inconsistent(self, monkeypatch, label, shift, n):
        # the fixed point of the constant code leaves its strip
        patch_branch(monkeypatch, label,
                     lambda b: b._replace(intercept=b.intercept + shift))
        with pytest.raises(ConsistencyError, match="not realized"):
            enumerate_orbits(F(2, 3), n)

    @pytest.mark.parametrize("label", [A, B])
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_one_step_that_misses_the_rotated_point_is_inconsistent(self, monkeypatch,
                                                                    label, n):
        # the walk composes slope and intercept; the one-step check applies
        # the branch, whose action here drifts away from them
        patch_branch(monkeypatch, label, lambda b: DriftingBranch(*b))
        with pytest.raises(ConsistencyError, match="does not close"):
            enumerate_orbits(F(2, 3), n)


class TestOrbitWeights:
    def test_examples(self):
        one = {o.label: o for o in enumerate_orbits(F(2, 3), 1)}
        assert weight(one["A"]) == F(2, 3)
        two = {o.label: o for o in enumerate_orbits(F(2, 3), 2)}
        assert weight(two["AB"]) == F(2, 9)

    @settings(max_examples=15)
    @given(l=l_values, n=st.integers(min_value=1, max_value=8))
    def test_weights_sum_to_one(self, l, n):
        assert sum(map(weight, enumerate_orbits(l, n))) == 1

    def test_reversal_pairing(self):
        # swapping labels and reversing the code flips the weight exponents
        # and negates the net count
        by_label = {o.label: o for o in enumerate_orbits(F(2, 3), 5)}
        swap = str.maketrans("AB", "BA")
        for label, o in by_label.items():
            partner = by_label[label[::-1].translate(swap)]
            assert partner.alpha == o.beta and partner.beta == o.alpha
            assert partner.alpha - partner.beta == -(o.alpha - o.beta)
            assert weight(partner) == F(2, 3) ** o.beta * F(1, 3) ** o.alpha


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

    def test_no_orbits_is_bad_input(self):
        with pytest.raises(ValueError, match="no orbits"):
            upo_distribution(F(2, 3), [])

    def test_a_partial_list_is_bad_input(self):
        orbits = enumerate_orbits(F(2, 3), 3)
        with pytest.raises(ValueError, match=r"expected the 2\^3 orbits .*; got 7"):
            upo_distribution(F(2, 3), orbits[:-1])

    def test_orbits_of_two_lengths_are_bad_input(self):
        # 2^2 rows led by the all-A orbit of length 2, two of them of length 1
        orbits = enumerate_orbits(F(2, 3), 2)[:2] + enumerate_orbits(F(2, 3), 1)
        with pytest.raises(ValueError, match="orbits of two lengths, 2 and 1"):
            upo_distribution(F(2, 3), orbits)

    def test_orbits_of_another_l_are_bad_input(self):
        with pytest.raises(ValueError, match="at l = 1/3, A\\^3 of weight 1/27 first; "
                                             "got 8, AAA of weight 8/27$"):
            upo_distribution(F(1, 3), enumerate_orbits(F(2, 3), 3))


def reference_points(l, n):
    """(code, point) of every length-n code in lexicographic order, from
    `Fraction`s: the fixed point of the code's composed branches."""
    by_label = {b.label: b for b in project_unstable(build_simple_baker(l)).branches}
    for code in itertools.product((A, B), repeat=n):
        a, b = F(1), F(0)        # x -> a x + b, the branches of the prefix
        for lab in code:
            br = by_label[lab]
            a, b = br.slope * a, br.slope * b + br.intercept
        yield "".join(lab.value for lab in code), b / (1 - a)


def reference_orbits_csv(l, n) -> str:
    """The orbit table built from `Fraction`s: each code's fixed point of
    the composed branches, and its weight as the product of the inverse
    slopes."""
    inv_slope = {b.label.value: 1 / b.slope
                 for b in project_unstable(build_simple_baker(l)).branches}
    lines = ["code,alpha,beta,weight_num,weight_den,x_point\n"]
    for code, x in reference_points(l, n):
        w = math.prod(inv_slope[lab] for lab in code)
        alpha = code.count("A")
        lines.append(f"{code},{alpha},{n - alpha},{w.numerator},{w.denominator},{x}\n")
    return "".join(lines)


class TestOrbitRows:
    @settings(max_examples=15, deadline=None)
    @given(l=l_values, n=st.integers(min_value=1, max_value=8))
    def test_points_are_reduced_integer_pairs(self, l, n):
        orbits = enumerate_orbits(l, n)
        assert [(o.label, F(o.x_num, o.x_den)) for o in orbits] == list(reference_points(l, n))
        for o in orbits:
            assert o.x_den > 0 and math.gcd(o.x_num, o.x_den) == 1
            assert o.x_point == F(o.x_num, o.x_den)

    def test_csv_prints_each_point_as_its_fraction(self, tmp_path):
        # the constant codes have the points 0 and 1, printed as "0" and "1"
        orbits = enumerate_orbits(F(2, 3), 3)
        path = tmp_path / "orbits.csv"
        write_csv(path, *orbit_table(orbits))
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == [str(o.x_point) for o in orbits]
        assert (rows[0], rows[-1]) == ("AAA,3,0,8,27,0", "BBB,0,3,1,27,1")

    @settings(max_examples=15, deadline=None)
    @given(l=l_values, n=st.integers(min_value=1, max_value=8))
    def test_csv_equals_the_fraction_reference(self, tmp_path_factory, l, n):
        path = tmp_path_factory.mktemp("orbits") / "orbits.csv"
        write_csv(path, *orbit_table(enumerate_orbits(l, n)))
        assert path.read_bytes() == reference_orbits_csv(l, n).encode()

    def test_derived_fields(self):
        o = enumerate_orbits(F(2, 3), 3)[3]
        assert (o.label, o.alpha, o.beta, o.alpha - o.beta) == ("ABB", 1, 2, -1)
        assert (o.weight_num, o.weight_den) == (2, 27)


def mass_off_the_lattice(l, n):
    """The map2 chain's mass off g = n (mod 2), (1 - psi^2)(1 - (1/2 - 2l)^n) / 2.
    It is (1 - E (-1)^(g-n)) / 2, and E (-1)^g is the class chain's
    generating function at z = -1: a sum of n-th powers of the
    eigenvalues -1 and -(1/2 - 2l) of M(-1)."""
    psi = family("map2", l).psi
    return (1 - psi ** 2) * (1 - (F(1, 2) - 2 * l) ** n) / 2


class TestGeneralizedDiagnostic:
    def test_runs_and_reports_discrepancy(self):
        diag = generalized_upo_diagnostic(F(1, 8), 6)
        assert diag.cycles > 0
        assert sum(diag.upo.probs.values()) == 1
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
        assert diag.upo.probs == {g: w / total for g, w in weights.items()}

    @pytest.mark.parametrize("successors", [
        None,
        # two classes, {A, C} and {B, D}, whose count matrix [[1, 2], [1, 0]]
        # has the eigenvalues 2 and -1: 2^n + (-1)^n cycles
        {A: (A, B, D), B: (C,), C: (A, B, D), D: (C,)},
    ], ids=["record", "nonzero-det"])
    def test_cycles_equal_a_region_walk(self, monkeypatch, successors):
        l = F(1, 8)
        fam = family("map2", l)
        if successors:
            corrupted = fam._replace(successors=MappingProxyType(successors))
            monkeypatch.setattr(periodic_orbits, "family", lambda name, l: corrupted)
        else:
            successors = {r: [s for s in fam.labels if fam.trans[r, s]] for r in fam.labels}
        for n in range(1, 13):
            cycles = 0
            for first in fam.labels:
                walks = {first: 1}
                for _ in range(n):
                    step = {}
                    for r, count in walks.items():
                        for s in successors[r]:
                            step[s] = step.get(s, 0) + count
                    walks = step
                cycles += walks.get(first, 0)
            assert generalized_upo_diagnostic(l, n).cycles == cycles

    @settings(max_examples=15, deadline=None)
    @given(l=st.fractions(F(1, 60), F(1, 4), max_denominator=60),
           n=st.integers(min_value=1, max_value=200))
    def test_trace_equals_the_packed_dp(self, l, n):
        weights = packed_trace(l, n)
        total = sum(weights.values())
        diag = generalized_upo_diagnostic(l, n)
        assert diag.upo.probs == {g: F(w, total) for g, w in weights.items()}
        # the distance, summed as Fractions by its definition
        law = exact_distribution("map2", l, n).probs
        assert diag.total_variation == sum(abs(diag.upo.probs.get(g, 0) - law.get(g, 0))
                                           for g in set(law) | set(weights)) / 2

    def test_trace_equals_the_packed_dp_at_n_1000(self):
        # the packed trace takes about 1 s here, the diagnostic 0.07 s
        # (2-CPU Xeon container, Python 3.11.7)
        weights = packed_trace(F(1, 8), 1000)
        total = sum(weights.values())
        assert (generalized_upo_diagnostic(F(1, 8), 1000).upo.probs
                == {g: F(w, total) for g, w in weights.items()})

    @pytest.mark.parametrize("l", [F(1, 8), F(3, 37), F(1, 5)])
    @pytest.mark.parametrize("n", [21, 200])
    def test_trace_past_the_cycle_walk(self, l, n):
        # every cycle has as many A as D visits (A is entered from {B, D},
        # D from {A, C}), so g = #B - #C has the parity of n; the orbit sum
        # lives on that lattice and the chain's mass off it bounds the gap
        diag = generalized_upo_diagnostic(l, n)
        assert diag.cycles == 2 ** n
        assert sum(diag.upo.probs.values()) == 1
        assert all((g - n) % 2 == 0 for g in diag.upo.probs)
        off_lattice = sum(p for g, p in diag.chain.probs.items() if (g - n) % 2)
        assert off_lattice == mass_off_the_lattice(l, n)
        assert diag.total_variation >= off_lattice

    def test_mass_off_the_lattice_at_every_n(self):
        l = F(3, 37)
        for n in range(1, 41):
            law = exact_distribution("map2", l, n)
            assert (sum(p for g, p in law.probs.items() if (g - n) % 2)
                    == mass_off_the_lattice(l, n))

    def test_guard_is_the_law_guard(self):
        with pytest.raises(ValueError, match="exceeds the DP guard"):
            generalized_upo_diagnostic(F(1, 8), MAX_DP_STEPS + 1)

    def test_equilibrium_diagnostic_is_symmetric(self):
        diag = generalized_upo_diagnostic(F(1, 4), 5)
        assert all(diag.upo.probs[g] == diag.upo.probs[-g] for g in diag.upo.probs)
