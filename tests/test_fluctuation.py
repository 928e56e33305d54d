import functools
import itertools
import math
from fractions import Fraction as F
from types import MappingProxyType
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from bakerfr import families, fluctuation
from bakerfr.fluctuation import (
    MAX_DP_STEPS,
    BinnedFRRow,
    FRRow,
    UndefinedValueError,
    alpha_bounds_check,
    binned_fr_report,
    brute_force_distribution,
    chain_spec,
    empirical_fr_report,
    exact_distribution,
    fr_report,
    log_ratio,
    monte_carlo_distribution,
)
from bakerfr.families import family
from bakerfr.maps import (
    RegionLabel,
    build_composite,
    build_generalized_baker,
    common_denominator,
)
from bakerfr.transfer import ConsistencyError, verify_composite
from reference import admissible_sequences, alpha_direct, packed_law, sequence_measure

A, B, C, D = RegionLabel.A, RegionLabel.B, RegionLabel.C, RegionLabel.D

l_map2 = st.fractions(min_value=F(1, 40), max_value=F(6, 25), max_denominator=40)

LONG_LS = (F(1, 8), F(1, 6), F(1, 5))

family_l = st.one_of(
    st.tuples(st.just("map1"), st.fractions(F(1, 60), F(59, 60), max_denominator=60)),
    st.tuples(st.just("map2"), st.fractions(F(1, 60), F(1, 4), max_denominator=60)))


@functools.lru_cache(maxsize=None)
def map2_law(l, n):
    return exact_distribution("map2", l, n)


def region_dp(name, l, n, start):
    """The law of g by an integer DP over (region, g) cells, on the full
    region chain of the record: no class field is read."""
    fam = family(name, l)
    initial = fam.initial[start]
    d = math.lcm(*(p.denominator for p in fam.trans.values()))
    e = math.lcm(*(w.denominator for w in initial.values()))
    cells = {(r, fam.g[r]): int(e * w) for r, w in initial.items() if w}
    for _ in range(n - 1):
        nxt = {}
        for (r, g), c in cells.items():
            for s in fam.labels:
                if fam.trans[r, s]:
                    key = (s, g + fam.g[s])
                    nxt[key] = nxt.get(key, 0) + c * int(d * fam.trans[r, s])
        cells = nxt
    counts = {}
    for (_r, g), c in cells.items():
        counts[g] = counts.get(g, 0) + c
    return fluctuation.SymbolDistribution(name, fam.l, n, counts, e * d ** (n - 1))


class TestExactDistribution:
    def test_single_symbol_law(self):
        d = exact_distribution("map2", F(1, 8), 1)
        assert d.probs == {1: F(1, 2), -1: F(1, 6), 0: F(1, 3)}

    def test_simple_two_symbol_law(self):
        d = exact_distribution("map1", F(2, 3), 2)
        assert d.probs == {2: F(4, 9), 0: F(4, 9), -2: F(1, 9)}

    def test_equilibrium_is_symmetric(self):
        for family, l in (("map1", F(1, 2)), ("map2", F(1, 4))):
            d = exact_distribution(family, l, 7)
            assert all(d.prob(g) == d.prob(-g) for g in d.support())

    def test_mean_matches_steady_state(self):
        for n in (1, 5, 12):
            d = exact_distribution("map2", F(1, 8), n)
            assert sum(g * p for g, p in d.probs.items()) == n * F(1, 3)

    def test_guard(self):
        with pytest.raises(ValueError):
            exact_distribution("map2", F(1, 8), 10_001)

    def test_guard_refuses_before_any_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the guard must come before the chain is built")

        monkeypatch.setattr(fluctuation, "chain_spec", fail)
        with pytest.raises(ValueError, match="exceeds the DP guard"):
            exact_distribution("map2", F(1, 8), MAX_DP_STEPS + 1)

    @settings(max_examples=20)
    @given(l=l_map2, n=st.integers(min_value=1, max_value=15))
    def test_normalization_and_symmetric_support(self, l, n):
        d = exact_distribution("map2", l, n)
        assert sum(d.probs.values()) == 1
        assert all(-g in d.probs for g in d.probs)

    @settings(max_examples=12, deadline=None)
    @given(family_l=family_l,
           start=st.sampled_from(["stationary", "uniform"]),
           n=st.integers(min_value=1, max_value=200))
    def test_class_chain_equals_the_region_dp(self, family_l, start, n):
        name, l = family_l
        assert exact_distribution(name, l, n, start) == region_dp(name, l, n, start)

    @settings(max_examples=25, deadline=None)
    @given(family_l=family_l,
           start=st.sampled_from(["stationary", "uniform"]),
           n=st.integers(min_value=1, max_value=300))
    @example(family_l=("map2", F(1, 4)), start="stationary", n=50)  # det M = 0
    def test_equals_the_packed_dp(self, family_l, start, n):
        name, l = family_l
        assert exact_distribution(name, l, n, start) == packed_law(name, l, n, start)

    @pytest.mark.parametrize("name,l,start", [("map1", F(1, 2), "stationary"),
                                              ("map2", F(1, 8), "uniform")])
    def test_equals_the_packed_dp_at_the_cap(self, name, l, start):
        # the packed DP takes about 1 s (map1) and 5 s (map2) here, the
        # recurrence under 20 ms (2-CPU Xeon container, Python 3.11.7)
        assert (exact_distribution(name, l, MAX_DP_STEPS, start)
                == packed_law(name, l, MAX_DP_STEPS, start))

    @pytest.mark.parametrize("name,l", [("map1", F(2, 3)), ("map2", F(3, 37))])
    @pytest.mark.parametrize("factor", range(4))
    def test_a_recurrence_factor_one_unit_off_fails(self, monkeypatch, name, l, factor):
        # shift one of f0, f2, f4, f6 by one at p = k - 14, where every
        # coefficient that they multiply is nonzero
        n = 20
        real = fluctuation._factors

        def shifted(*args):
            rows = real(*args)
            if len(rows) > 6:
                row = list(rows[6])
                row[factor] += 1
                rows[6] = tuple(row)
            return rows

        reference = packed_law(name, l, n)
        monkeypatch.setattr(fluctuation, "_factors", shifted)
        try:
            law = exact_distribution(name, l, n)
        except ConsistencyError:
            return
        assert law != reference

    def test_variance_at_l_one_eighth(self):
        # Var_n(g) = 40/27 n - 100/81 + (100/81) Delta^n from the stationary
        # start, Delta = 1/2 - 2l = 1/4; about 0.02 s for all 62 windows
        for n in [*range(1, 61), 500, 1000]:
            law = exact_distribution("map2", F(1, 8), n)
            first = sum(g * c for g, c in law.counts.items())
            second = sum(g * g * c for g, c in law.counts.items())
            variance = F(second * law.total - first ** 2, law.total ** 2)
            assert variance == F(40, 27) * n - F(100, 81) + F(100, 81) / 4 ** n, n

    def test_simple_matches_binomial(self):
        l, n = F(2, 3), 9
        d = exact_distribution("map1", l, n)
        r = 1 - l
        for alpha in range(n + 1):
            g = alpha - (n - alpha)
            assert d.prob(g) == math.comb(n, alpha) * l ** alpha * r ** (n - alpha)


class TestBruteForceOracle:
    @pytest.mark.parametrize("family,l", [("map1", F(2, 3)), ("map2", F(1, 8))])
    def test_matches_dp_small_n(self, family, l):
        for start in ("stationary", "uniform"):
            for n in range(1, fluctuation.MAX_BRUTE_FORCE + 1):
                assert (brute_force_distribution(family, l, n, start)
                        == exact_distribution(family, l, n, start))

    def test_uniform_start_matches_too(self):
        for n in range(1, 7):
            assert (brute_force_distribution("map2", F(1, 6), n, start="uniform").probs
                    == exact_distribution("map2", F(1, 6), n, start="uniform").probs)

    def test_forbidden_sequence_has_zero_measure(self):
        spec = chain_spec("map2", F(1, 8))
        assert sequence_measure(spec, (A, A)) == 0
        assert sequence_measure(spec, (B, C)) == 0
        assert sequence_measure(spec, (B, B)) == F(1, 2) * F(3, 4)

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_force_distribution("map2", F(1, 8), 13)

    @settings(max_examples=40, deadline=None)
    @given(family_l=family_l,
           start=st.sampled_from(["stationary", "uniform"]),
           n=st.integers(min_value=1, max_value=9))
    def test_recurrence_equals_enumeration(self, family_l, start, n):
        name, l = family_l
        assert (exact_distribution(name, l, n, start).probs
                == brute_force_distribution(name, l, n, start).probs)

    @settings(max_examples=40, deadline=None)
    @given(family_l=family_l,
           start=st.sampled_from(["stationary", "uniform"]),
           n=st.integers(min_value=1, max_value=9))
    def test_walk_equals_per_sequence_sum(self, family_l, start, n):
        name, l = family_l
        spec = chain_spec(name, l, start)
        probs = {}
        for seq in admissible_sequences(spec, n):
            g = sum(spec.delta(lab) for lab in seq)
            probs[g] = probs.get(g, F(0)) + sequence_measure(spec, seq)
        assert (brute_force_distribution(name, l, n, start).probs
                == {g: p for g, p in probs.items() if p})

    def test_oracles_share_no_code_with_the_dp_kernel(self, monkeypatch):
        # the brute-force law and the alpha check must stay independent of
        # the recurrence that they check
        law = brute_force_distribution("map2", F(1, 8), 8)
        alpha = alpha_bounds_check(F(1, 8), 6)

        def fail(*args, **kwargs):
            raise AssertionError("an oracle ran the DP kernel")

        monkeypatch.setattr(fluctuation, "_chebyshev_u", fail)
        with pytest.raises(AssertionError, match="ran the DP kernel"):
            exact_distribution("map2", F(1, 8), 8)
        assert brute_force_distribution("map2", F(1, 8), 8) == law
        assert alpha_bounds_check(F(1, 8), 6) == alpha
        monkeypatch.undo()

        # a record whose class-chain polynomials count g with the wrong
        # sign: the law changes, the oracles read none of them
        dp = exact_distribution("map2", F(1, 8), 8)
        real = families.family

        def flip(poly):
            return MappingProxyType({-g: c for g, c in poly.items()})

        def corrupted(name, l):
            fam = real(name, l)
            return fam._replace(trace=flip(fam.trace), starts=MappingProxyType(
                {start: tuple(map(flip, polys)) for start, polys in fam.starts.items()}))

        monkeypatch.setattr(families, "family", corrupted)
        assert exact_distribution("map2", F(1, 8), 8) != dp
        assert brute_force_distribution("map2", F(1, 8), 8) == law
        assert alpha_bounds_check(F(1, 8), 6) == alpha
        spec = chain_spec("map2", F(1, 8))
        assert sum(sequence_measure(spec, seq) for seq in admissible_sequences(spec, 6)) == 1


class TestFRReport:
    def test_simple_map_exact_equality(self):
        for n in range(1, 13):
            rep = fr_report(exact_distribution("map1", F(2, 3), n))
            assert rep.all_pass
            assert all(r.alpha == 1 for r in rep.rows)
            assert rep.alpha_min == rep.alpha_max == 1

    def test_generalized_band(self):
        for n in range(1, 13):
            rep = fr_report(exact_distribution("map2", F(1, 8), n))
            assert rep.all_pass
            assert rep.alpha_min == F(1, 2) and rep.alpha_max == 2
            assert all(F(1, 2) <= r.alpha <= 2 for r in rep.rows)

    def test_stay_ratio_equals_unit_base(self):
        # p_BB / p_CC == 2(1-2l) is asserted inside fr_report; a failure
        # would raise, so a clean pass is the check
        fr_report(exact_distribution("map2", F(1, 6), 4))

    def test_undefined_at_equilibrium(self):
        with pytest.raises(UndefinedValueError):
            fr_report(exact_distribution("map2", F(1, 4), 5))

    def test_uniform_start_ratio_is_exact(self):
        # with a Lebesgue ("microcanonical") start the boundary corrections
        # cancel exactly and the ratio equals base^g with no band at all
        for l in (F(1, 8), F(1, 6), F(1, 5)):
            base = 2 * (1 - 2 * l)
            for n in range(1, 11):
                d = exact_distribution("map2", l, n, start="uniform")
                for g in d.support():
                    if g > 0:
                        assert d.prob(g) == d.prob(-g) * base ** g

    def test_uniform_start_ratio_is_exact_for_every_l(self):
        # Degree premise: on (0, 1/4] the successor sets of map2 do not
        # change, and its uniform widths (l, 1/2 - l, 1/4, 1/4) and its
        # transitions (1/2, 2l, 1 - 2l) are affine in l.  So P_u(g) and
        # P_u(-g), sums over admissible sequences of one width times n - 1
        # transitions, are polynomials in l of degree at most n, and
        # base^g = (2 (1 - 2l))^g has degree g.  Their gap
        # P_u(g) - base^g P_u(-g) has degree at most n + g, so it vanishes
        # on all of (0, 1/4] once it vanishes at n + g + 1 distinct l.
        # About 0.16 s in a fresh process (2-CPU Xeon container, Python 3.11.7).
        points = [F(k, 100) for k in range(1, 26)]   # 25 = 12 + 12 + 1 distinct l

        @functools.cache
        def law(l, n):
            return exact_distribution("map2", l, n, start="uniform")

        def gap(l, n, g):
            return law(l, n).prob(g) - (2 * (1 - 2 * l)) ** g * law(l, n).prob(-g)

        for n in range(1, 13):
            for g in range(n + 1):
                used = points[:n + g + 1]
                assert all(gap(l, n, g) == 0 for l in used), (n, g)
                # the last point is needed: adding the product over the
                # others, of degree n + g, keeps the gap zero at all of
                # them, and only the last one tells the sum from zero
                bumped = [gap(l, n, g) + math.prod(l - p for p in used[:-1]) for l in used]
                assert [b == 0 for b in bumped] == [True] * (n + g) + [False]

    def test_ratio_outside_the_float_range(self):
        # P(g)/P(-g) = (1/999)^g is below the smallest float from g = 108 on
        dist = exact_distribution("map1", F(1, 1000), 120)
        rep = fr_report(dist)
        assert rep.all_pass
        top = rep.rows[-1]
        assert float(top.p_plus / top.p_minus) == 0.0
        assert top.lhs == pytest.approx(top.g * math.log(F(1, 999)), rel=1e-12)
        assert binned_fr_report(dist, F(1, 2)).all_pass

    def test_log_ratio(self):
        for k in (-3000, -1100, 1100, 3000):
            expected = math.log(3 / 7) + k * math.log(2)
            r = F(3, 7) * F(2) ** k
            assert log_ratio(r.numerator, r.denominator) == pytest.approx(expected, rel=1e-14)
        for r in (F(1, 3), F(10 ** 300, 7), F(7, 10 ** 300)):
            assert log_ratio(r.numerator, r.denominator) == math.log(r)

    def test_e_n_lattice(self):
        rep = fr_report(exact_distribution("map2", F(1, 8), 6))
        psi = family("map2", F(1, 8)).psi
        for r in rep.rows:
            assert r.e_n == F(r.g, 6) / psi

    @settings(max_examples=30, deadline=None)
    @given(family_l=family_l,
           start=st.sampled_from(["stationary", "uniform"]),
           n=st.integers(min_value=1, max_value=40))
    def test_rows_equal_the_definition(self, family_l, start, n):
        name, l = family_l
        fam = family(name, l)
        assume(fam.psi != 0)
        dist = exact_distribution(name, l, n, start)
        base, (a_min, a_max) = fam.unit_base, fam.alpha_bounds
        expected = []
        for g in dist.support():
            if g > 0:
                ratio = F(dist.counts[g], dist.counts[-g])
                alpha = ratio / base ** g
                expected.append(FRRow(
                    g, dist.prob(g), dist.prob(-g), alpha,
                    log_ratio(ratio.numerator, ratio.denominator),
                    g * math.log(base), math.log(a_max), F(g, n) / fam.psi,
                    a_min <= alpha <= a_max))
        assert fr_report(dist).rows == tuple(expected)

    def test_log_ratio_of_an_integer_pair(self):
        # the pair form takes no gcd on the float path and must agree with
        # the reduced fraction on both paths, inside and outside the float range
        for num, den in ((6, 14), (3 * 10 ** 400, 7 * 10 ** 80), (7 * 2 ** 90, 3 * 2 ** 1200)):
            r = F(num, den)
            assert log_ratio(num, den) == log_ratio(r.numerator, r.denominator)


class AlphaReference(NamedTuple):
    sequences: int
    attained_min: F
    attained_max: F
    violations: tuple[str, ...]


def reference_alpha_bounds(l, n):
    """The per-sequence definition of the alpha check: the measures of each
    admissible sequence and of its reversal from `sequence_measure`,
    compared with the boundary formula of the whole sequence, with the
    extremes of alpha over the sequences whose reversal is admissible."""
    spec = fluctuation.chain_spec("map2", l)
    fam = spec.fam
    lo, hi = fam.alpha_bounds
    attained, violations = [], []
    count = 0
    for seq in admissible_sequences(spec, n):
        count += 1
        text = "".join(s.value for s in seq)
        rev = sequence_measure(spec, tuple(fam.conjugacy[lab] for lab in reversed(seq)))
        if rev == 0:
            violations.append(text + ": reversal inadmissible")
            continue
        g = sum(spec.delta(lab) for lab in seq)
        alpha = (sequence_measure(spec, seq) / rev) / fam.unit_base ** g
        direct = alpha_direct(spec, seq)
        if alpha != direct:
            violations.append(text + f": ratio {alpha} != boundary formula {direct}")
        if not lo <= alpha <= hi:
            violations.append(text + f": alpha {alpha}")
        attained.append(alpha)
    return AlphaReference(count, min(attained), max(attained), tuple(violations))


def leaf_by_leaf_alpha_bounds(l, n):
    """The level-wise alpha check with the band decided on every leaf's own
    alpha, as `alpha_bounds_check` did before it decided it once per
    (first, last) pair; the tables are scaled over every entry, zeros
    included."""
    def scaled(weights):
        den, nums = common_denominator(weights.values())
        return den, dict(zip(weights, nums))

    spec = fluctuation.chain_spec("map2", l)
    fam = spec.fam
    conj = fam.conjugacy
    _d, trans = scaled(spec.trans)
    _e, mu = scaled(spec.initial)
    (lo_n, lo_d), (hi_n, hi_d) = (bound.as_integer_ratio() for bound in fam.alpha_bounds)
    bn, bd = fam.unit_base.as_integer_ratio()
    power = {g: (bn ** g, bd ** g) if g >= 0 else (bd ** -g, bn ** -g) for g in range(-n, n + 1)}
    ratio = {lab: (spec.initial[lab] / fam.col[lab]).as_integer_ratio() for lab in fam.labels}
    direct = {(s.value, i): (a * ratio[conj[t]][1], b * ratio[conj[t]][0])
              for s, (a, b) in ratio.items() for i, t in enumerate(fam.labels)}
    end = [mu[conj[lab]] for lab in fam.labels]
    table = [[(fam.labels.index(s), fam.g[s], trans[r, s], trans[conj[s], conj[r]], s.value)
              for s in fam.successors[r]] for r in fam.labels]
    level = [(i, fam.g[r], mu[r], 1, r.value) for i, r in enumerate(fam.labels)
             if mu.get(r, 0) > 0]
    for _ in range(n - 1):
        level = [(s, g + dg, fwd * p, rev * q, text + c)
                 for r, g, fwd, rev, text in level for s, dg, p, q, c in table[r]]
    violations = []
    for r, g, fwd, rev, text in level:
        rev *= end[r]
        if rev == 0:
            violations.append(text + ": reversal inadmissible")
            continue
        p_n, p_d = power[g]
        num, den = fwd * p_d, rev * p_n
        f_n, f_d = direct[text[0], r]
        if num * f_d != f_n * den:
            violations.append(text + f": ratio {F(num, den)} != "
                              f"boundary formula {F(f_n, f_d)}")
        if not (lo_n * den <= num * lo_d and num * hi_d <= hi_n * den):
            violations.append(text + f": alpha {F(num, den)}")
    return fluctuation.AlphaBoundsReport(l, n, len(level), tuple(violations))


def alpha_fields(rep):
    return rep.sequences, rep.violations


def corrupt_chain(monkeypatch, l, trans=(), initial=(), **fields):
    """Make `fluctuation.chain_spec` return map2's chain at `l` with the
    given transition probabilities and initial weights replaced, and the
    record's other `fields`."""
    spec = chain_spec("map2", l)
    fam = spec.fam._replace(trans=MappingProxyType({**spec.trans, **dict(trans)}), **fields)
    bad = fluctuation.ChainSpec(fam, {**spec.initial, **dict(initial)})
    monkeypatch.setattr(fluctuation, "chain_spec", lambda *args: bad)


class TestAlphaBounds:
    def test_exhaustive_small_n(self):
        # the band [4l, 1/(4l)] is attained: the extremes of the definition
        assert family("map2", F(1, 8)).alpha_bounds == (F(1, 2), 2)
        for n in range(1, 7):
            rep = alpha_bounds_check(F(1, 8), n)
            assert rep.all_within
            ref = reference_alpha_bounds(F(1, 8), n)
            assert alpha_fields(rep) == alpha_fields(ref)
            assert (ref.attained_min, ref.attained_max) == (F(1, 2), 2)

    def test_equilibrium_collapses_to_unity(self):
        rep = alpha_bounds_check(F(1, 4), 5)
        ref = reference_alpha_bounds(F(1, 4), 5)
        assert rep.all_within and alpha_fields(rep) == alpha_fields(ref)
        assert ref.attained_min == ref.attained_max == 1

    def test_sequence_count(self):
        # out-degree 2 from every region: 4 * 2^(n-1) admissible sequences
        rep = alpha_bounds_check(F(1, 8), 6)
        assert rep.sequences == 4 * 2 ** 5

    @settings(max_examples=15)
    @given(l=l_map2, n=st.integers(min_value=1, max_value=7))
    def test_bounds_property(self, l, n):
        rep = alpha_bounds_check(l, n)
        assert rep.all_within

    @settings(max_examples=30, deadline=None)
    @given(l=st.fractions(F(1, 60), F(1, 4), max_denominator=60),
           n=st.integers(min_value=1, max_value=9))
    def test_walk_equals_per_sequence_loop(self, l, n):
        assert alpha_fields(alpha_bounds_check(l, n)) == alpha_fields(reference_alpha_bounds(l, n))

    @settings(max_examples=30, deadline=None)
    @given(l=st.fractions(F(1, 60), F(1, 4), max_denominator=60),
           n=st.integers(min_value=1, max_value=9))
    def test_per_pair_decisions_equal_the_leaf_by_leaf_loop(self, l, n):
        assert alpha_bounds_check(l, n) == leaf_by_leaf_alpha_bounds(l, n)

    def test_a_wrong_formula_is_reported_leaf_by_leaf(self, monkeypatch):
        # col[B] three times too large makes the formula wrong for every pair
        # that starts at B or ends at C = conj B, but not for (B, C); alpha
        # itself is unchanged.  The band (1, 1) puts most alphas outside it,
        # so the broken leaves are checked on their own alpha and the held
        # pairs once each.
        l, n = F(1, 8), 5
        spec = chain_spec("map2", l)
        col = {**spec.fam.col, B: 3 * spec.fam.col[B]}
        corrupt_chain(monkeypatch, l, col=MappingProxyType(col), alpha_bounds=(F(1), F(1)))
        rep = alpha_bounds_check(l, n)
        assert rep == leaf_by_leaf_alpha_bounds(l, n)
        ref = reference_alpha_bounds(l, n)
        assert alpha_fields(rep) == alpha_fields(ref)
        wrong = [seq for seq in admissible_sequences(spec, n) if (seq[0] == B) != (seq[-1] == C)]
        assert wrong
        assert ([v.split(":")[0] for v in rep.violations if "boundary formula" in v]
                == ["".join(lab.value for lab in seq) for seq in wrong])
        # the extremes are the true alphas of the unpatched chain
        assert (ref.attained_min, ref.attained_max) == (F(1, 2), 2)

    def test_column_that_is_not_constant_breaks_the_boundary_formula(self, monkeypatch):
        # A -> C at 1/3 while D -> ... -> C keeps 1/2: the column of C is no
        # longer constant, so the boundary terms no longer cancel
        corrupt_chain(monkeypatch, F(1, 8), trans={(A, C): F(1, 3)})
        rep = alpha_bounds_check(F(1, 8), 5)
        assert not rep.all_within
        assert any("boundary formula" in v for v in rep.violations)
        assert alpha_fields(rep) == alpha_fields(reference_alpha_bounds(F(1, 8), 5))

    def test_corrupted_initial_weight_leaves_the_band(self, monkeypatch):
        corrupt_chain(monkeypatch, F(1, 8), initial={A: F(1, 2)})
        rep = alpha_bounds_check(F(1, 8), 5)
        ref = reference_alpha_bounds(F(1, 8), 5)
        assert rep.violations and ref.attained_max == 6
        assert alpha_fields(rep) == alpha_fields(ref)

    def test_forbidden_reversal_is_reported(self, monkeypatch):
        # the reversal of ...AC... steps from B to A
        corrupt_chain(monkeypatch, F(1, 8), trans={(B, A): F(0)})
        rep = alpha_bounds_check(F(1, 8), 3)
        assert "ACC: reversal inadmissible" in rep.violations
        assert not any(v.startswith("CCC") for v in rep.violations)
        assert alpha_fields(rep) == alpha_fields(reference_alpha_bounds(F(1, 8), 3))

    @pytest.mark.parametrize("name,l", [("map1", F(2, 3)), ("map1", F(1, 5)),
                                        ("map2", F(1, 8)), ("map2", F(3, 37))])
    def test_boundary_formula_equals_the_ratio(self, name, l):
        # read from the record alone: alpha is the measured ratio for every
        # admissible sequence, and exactly 1 for the two-branch map
        spec = chain_spec(name, l)
        fam = spec.fam
        for n in range(1, 7):
            for seq in admissible_sequences(spec, n):
                rev = tuple(fam.conjugacy[lab] for lab in reversed(seq))
                g = sum(fam.g[lab] for lab in seq)
                ratio = sequence_measure(spec, seq) / sequence_measure(spec, rev)
                alpha = alpha_direct(spec, seq)
                assert alpha == ratio / fam.unit_base ** g
                if name == "map1":
                    assert alpha == 1


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        m = build_generalized_baker(F(1, 8))
        a = monte_carlo_distribution(m, 6, 30_000, 40, seed=11)
        b = monte_carlo_distribution(m, 6, 30_000, 40, seed=11)
        assert a.counts == b.counts

    def test_same_result_for_every_shard(self):
        from bakerfr.ensembles import DEFAULT_SHARD, sample_g
        from test_ensembles import kernel_g

        m = build_generalized_baker(F(1, 8))
        a = sample_g(m, 10, 3000, 20, seed=7, shard=300)
        b = sample_g(m, 10, 3000, 20, seed=7, shard=1001)
        c = sample_g(m, 10, 3000, 20, seed=7)
        assert len(a) == 21 and a.sum() == 3000 and (a == b).all() and (a == c).all()
        ga, gb, gc = (kernel_g(m, 10, 3000, 20, 7, shard) for shard in (300, 1001, DEFAULT_SHARD))
        assert len(ga) == 3000 and (ga == gb).all() and (ga == gc).all()

    @pytest.mark.parametrize("m,seed", [
        (build_generalized_baker(F(1, 8)), 3),
        (build_generalized_baker(F(3, 17)), 4),
        (build_composite(F(1, 8)), 5),
    ], ids=["map2", "map2-3/17", "composite"])
    def test_counts_equal_the_unique_route(self, m, seed):
        # the histogram's nonzero bins are np.unique of the per-particle g
        import numpy as np

        from bakerfr.ensembles import DEFAULT_SHARD
        from test_ensembles import kernel_g

        values, counts = np.unique(kernel_g(m, 8, 20_000, 30, seed, DEFAULT_SHARD),
                                   return_counts=True)
        emp = monte_carlo_distribution(m, 8, 20_000, 30, seed)
        assert emp.counts == {int(v): int(c) for v, c in zip(values, counts)}
        assert list(emp.counts) == emp.support()

    def test_simple_family_matches_exact_law(self):
        from bakerfr.maps import build_simple_baker

        m = build_simple_baker(F(2, 3))
        emp = monte_carlo_distribution(m, 6, 60_000, 50, seed=19)
        exact = exact_distribution("map1", F(2, 3), 6)
        for g in emp.support():
            pr = float(exact.prob(g))
            se = math.sqrt(pr * (1 - pr) / emp.total)
            assert abs(emp.counts[g] / emp.total - pr) <= 4 * se + 1e-12

    def test_matches_exact_law(self):
        m = build_generalized_baker(F(1, 8))
        emp = monte_carlo_distribution(m, 6, 100_000, 60, seed=12)
        exact = exact_distribution("map2", F(1, 8), 6)
        for g in emp.support():
            p = float(exact.prob(g))
            se = math.sqrt(p * (1 - p) / emp.total)
            assert abs(emp.counts[g] / emp.total - p) <= 4 * se + 1e-12

    def test_equilibrium_mean_near_zero(self):
        m = build_generalized_baker(F(1, 4))
        emp = monte_carlo_distribution(m, 8, 50_000, 40, seed=13)
        mean = sum(g * c for g, c in emp.counts.items()) / emp.total
        sd = math.sqrt(sum((g - mean) ** 2 * c for g, c in emp.counts.items()) / emp.total)
        assert abs(mean) <= 4 * sd / math.sqrt(emp.total)

    def test_empirical_report_passes(self):
        m = build_generalized_baker(F(1, 8))
        emp = monte_carlo_distribution(m, 8, 200_000, 60, seed=15)
        rep = empirical_fr_report(emp)
        assert rep.rows and rep.all_pass


class TestIrreversibleComposite:
    def test_report_passes(self):
        k = build_composite(F(1, 8))
        verify_composite(k)
        rep = empirical_fr_report(monte_carlo_distribution(k, 8, 150_000, 60, seed=16))
        assert rep.rows and rep.all_pass

    def test_zero_width_strip_reproduces_base_histogram(self):
        m = build_generalized_baker(F(1, 8))
        k0 = build_composite(F(1, 8), eps=0)
        a = monte_carlo_distribution(m, 6, 40_000, 30, seed=17)
        b = monte_carlo_distribution(k0, 6, 40_000, 30, seed=17)
        assert a.counts == b.counts

    def test_composite_g_law_equals_base_law(self):
        # the fold changes y only, so the histograms agree sample by sample
        m = build_generalized_baker(F(1, 8))
        k = build_composite(F(1, 8))
        a = monte_carlo_distribution(m, 6, 40_000, 30, seed=18)
        b = monte_carlo_distribution(k, 6, 40_000, 30, seed=18)
        assert a.counts == b.counts

    def test_requires_strip_parameters(self):
        m = build_generalized_baker(F(1, 8))
        with pytest.raises(ValueError):
            verify_composite(m)


def binned_reference(dist, delta):
    """The O(support^2) definition of the binned report: sum the exact
    probabilities of every lattice point inside each window."""
    fam = family(dist.family, dist.l)
    psi, base = fam.psi, fam.unit_base
    n_lambda = dist.n * float(psi) * math.log(base)
    lattice = {g: F(g, dist.n) / psi for g in dist.support()}
    rows = []
    for g0 in dist.support():
        if g0 <= 0:
            continue
        p = lattice[g0]
        plus = sum((dist.prob(g) for g in lattice if abs(lattice[g] - p) < delta), F(0))
        minus = sum((dist.prob(g) for g in lattice if abs(lattice[g] + p) < delta), F(0))
        lhs = math.log(plus / minus) / n_lambda
        slack = float(delta) + math.log(fam.alpha_bounds[1]) / n_lambda
        passed = float(p) - slack - 1e-12 <= lhs <= float(p) + slack + 1e-12
        rows.append(BinnedFRRow(p, plus, minus, lhs, slack, passed))
    return tuple(rows)


class TestBinnedReport:
    def test_narrow_window_reduces_to_lattice_rows(self):
        from bakerfr.fluctuation import binned_fr_report

        d = exact_distribution("map2", F(1, 8), 8)
        exact_rows = fr_report(d).rows
        # lattice spacing on the normalized axis is 1/(n*psi) = 3/8
        binned = binned_fr_report(d, F(1, 100))
        assert len(binned.rows) == len(exact_rows)
        assert binned.all_pass
        for br, er in zip(binned.rows, exact_rows):
            assert br.prob_plus == er.p_plus and br.prob_minus == er.p_minus

    def test_wide_window_aggregates_and_passes(self):
        from bakerfr.fluctuation import binned_fr_report

        d = exact_distribution("map2", F(1, 8), 10)
        binned = binned_fr_report(d, F(1, 2))
        assert binned.all_pass
        assert any(br.prob_plus > fr_report(d).rows[i].p_plus
                   for i, br in enumerate(binned.rows))

    def test_undefined_at_equilibrium(self):
        from bakerfr.fluctuation import binned_fr_report

        with pytest.raises(UndefinedValueError):
            binned_fr_report(exact_distribution("map2", F(1, 4), 5), F(1, 10))

    @pytest.mark.parametrize("family,l,n,start,delta", [
        # delta * n * psi == 1 exactly: the open window must exclude g0 +- 1
        ("map2", F(1, 8), 12, "stationary", F(1, 4)),
        # below the lattice spacing 1/(n psi) = 1/4: one lattice point each
        ("map2", F(1, 8), 12, "stationary", F(1, 100)),
        ("map2", F(1, 8), 12, "stationary", F(1, 2)),
        ("map2", F(1, 5), 30, "uniform", F(3, 7)),
        ("map2", F(7, 57), 25, "stationary", F(5, 2)),
        ("map1", F(2, 3), 15, "stationary", F(1, 3)),
        # negative psi: the lattice runs the other way
        ("map1", F(1, 3), 15, "uniform", F(2, 5)),
    ])
    def test_equals_pairwise_definition(self, family, l, n, start, delta):
        dist = exact_distribution(family, l, n, start)
        assert binned_fr_report(dist, delta).rows == binned_reference(dist, delta)

    def test_tie_case_is_an_integer_window(self):
        fam = family("map2", F(1, 8))
        assert F(1, 4) * 12 * fam.psi == 1
        dist = exact_distribution("map2", F(1, 8), 12)
        rows = binned_fr_report(dist, F(1, 4)).rows
        assert [(r.prob_plus, r.prob_minus) for r in rows] == [
            (dist.prob(g), dist.prob(-g)) for g in dist.support() if g > 0]

    @settings(max_examples=25, deadline=None)
    @given(l=st.fractions(F(1, 60), F(6, 25), max_denominator=60),
           n=st.integers(min_value=1, max_value=30),
           delta=st.fractions(F(1, 50), F(3), max_denominator=50))
    def test_equals_pairwise_definition_property(self, l, n, delta):
        dist = exact_distribution("map2", l, n)
        assert binned_fr_report(dist, delta).rows == binned_reference(dist, delta)


def closed_form_breaks(dist, psi=None):
    """The g > 0 of a map2 law from the stationary start where the closed
    form of its ratio fails, cross-multiplied on integers:
    P(g) (n - psi g) = base^g P(-g) (n + psi g) for g = n (mod 2), and
    P(g) = base^g P(-g) otherwise.  `psi` defaults to the record's."""
    fam = family(dist.family, dist.l)
    n = dist.n
    (bn, bd), (pn, pd) = (fam.unit_base.as_integer_ratio(),
                          (fam.psi if psi is None else psi).as_integer_ratio())
    broken, pow_n, pow_d = [], 1, 1   # base^g = pow_n / pow_d
    for g in range(1, n + 1):
        pow_n, pow_d = pow_n * bn, pow_d * bd
        plus, minus = dist.counts.get(g, 0) * pow_d, dist.counts.get(-g, 0) * pow_n
        if (n - g) % 2 == 0:
            plus, minus = plus * (n * pd - pn * g), minus * (n * pd + pn * g)
        if plus != minus:
            broken.append(g)
    return broken


class TestClosedFormRatio:
    # The per-g ratio of map2 in closed form (ROADMAP item 15): 5100 rows
    # in about 0.07 s, and the cap in 0.27-0.31 s with its law (2-CPU
    # Xeon container, Python 3.11.7)
    @pytest.mark.parametrize("l", [F(1, 8), F(3, 37), F(7, 53), F(1, 5),
                                   F(123457, 1000003)])
    def test_holds_for_every_g(self, l):
        for n in [*range(1, 41), 200]:
            assert closed_form_breaks(exact_distribution("map2", l, n)) == [], n
        assert closed_form_breaks(exact_distribution("map2", l, 12),
                                  family("map2", l).psi + F(1, 1000)) != []

    def test_holds_for_every_g_at_the_cap(self):
        assert closed_form_breaks(map2_law(F(3, 37), MAX_DP_STEPS)) == []


def broken_windows(dist, k):
    """The binned verdicts from the per-g ones, on integers.  With
    A = alpha_max and C = max(base, 1/base), each g of the window
    |g - g0| <= k has P(g) = alpha(g) base^(g - g0) base^g0 P(-g), so
    per-g alphas in [1/A, A] put the window ratio
    R = P(window g0) / (P(window -g0) base^g0) in [(A C^k)^-1, A C^k].
    Returns the g0 > 0 whose R, summed here from the counts, is outside;
    at k = 0 they are the failing per-g rows."""
    fam = family(dist.family, dist.l)
    (bn, bd), (an, ad) = (fam.unit_base.as_integer_ratio(),
                          fam.alpha_bounds[1].as_integer_ratio())
    hi_n, hi_d = an * max(bn, bd) ** k, ad * min(bn, bd) ** k   # A C^k

    lo = -dist.n - k
    below = [0, *itertools.accumulate(dist.counts.get(g, 0)
                                      for g in range(lo, dist.n + k + 1))]

    def window(center):
        return below[center + k + 1 - lo] - below[center - k - lo]

    broken, pow_n, pow_d = [], 1, 1   # base^g0 = pow_n / pow_d
    for g0 in range(1, dist.n + 1):
        pow_n, pow_d = pow_n * bn, pow_d * bd
        num, den = window(g0) * pow_d, window(-g0) * pow_n   # R = num / den
        if num and not (hi_d * den <= hi_n * num and hi_d * num <= hi_n * den):
            broken.append(g0)
    return broken


def binned_margin(dist, delta):
    """The window half-width k = ceil(delta n |psi|) - 1 of
    `binned_fr_report`, and the margin delta - k / (n |psi|) by which a
    row whose R lies in [(A C^k)^-1, A C^k] is inside its band: its
    normalized log ratio, ln(R base^g0) / (n <Lambda>), lies within
    ln A / (n <Lambda>) + k / (n |psi|) of its center, and the band is
    delta + ln A / (n <Lambda>) wide.  As k < delta n |psi|, the margin
    is positive: the 1e-12 slack can decide a row only where a per-g row
    of its window fails."""
    psi = abs(family(dist.family, dist.l).psi)
    k = math.ceil(delta * dist.n * psi) - 1
    return k, delta - F(k, dist.n) / psi


class TestBinnedVerdicts:
    # 3280 rows in about 0.3 s; the cap, 2000 rows at margin 1/5000, in
    # 0.8-1.1 s with its law (2-CPU Xeon container, Python 3.11.7)
    @pytest.mark.parametrize("delta", [F(1, 1000), F(1, 10), F(1, 2), F(2)])
    @pytest.mark.parametrize("name,l", [("map2", F(1, 8)), ("map2", F(3, 37)),
                                        ("map2", F(7, 53)), ("map2", F(1, 5)),
                                        ("map1", F(2, 3))])
    def test_follow_from_the_per_g_verdicts(self, name, l, delta):
        for n in (1, 2, 7, 12, 40, 120):
            dist = exact_distribution(name, l, n)
            k, margin = binned_margin(dist, delta)
            assert broken_windows(dist, 0) == [] and fr_report(dist).all_pass
            assert broken_windows(dist, k) == [] and margin > 0
            assert binned_fr_report(dist, delta).all_pass

    def test_follow_from_the_per_g_verdicts_at_the_cap(self):
        dist = map2_law(F(3, 37), MAX_DP_STEPS)
        k, margin = binned_margin(dist, F(1, 2))
        assert (k, margin) == (510, F(1, 5000))
        assert broken_windows(dist, 0) == broken_windows(dist, k) == []


class TestLongWindow:
    @pytest.mark.parametrize("l", LONG_LS)
    def test_fluctuation_relation_at_n_1000(self, l):
        dist = map2_law(l, 1000)
        assert fr_report(dist).all_pass
        assert binned_fr_report(dist, "1/2").all_pass

    @pytest.mark.parametrize("n", [12, 120, 1000])
    @pytest.mark.parametrize("l", LONG_LS)
    def test_binned_rows_clear_the_float_slack(self, l, n):
        # every row lies well away from both edges of its band, so the
        # 1e-12 slack of binned_fr_report decides none of them
        for r in binned_fr_report(map2_law(l, n), "1/2").rows:
            p = float(r.p)
            margin = min(r.lhs_normalized - (p - r.slack),
                         (p + r.slack) - r.lhs_normalized)
            assert margin >= 1e-6
