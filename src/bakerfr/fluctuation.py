"""Finite-time fluctuation statistics of the contraction observable.

The distribution of the net expanding-visit count g over an n-symbol
window is computed three ways: an exact forward DP, `_tilted_steps`,
on the class chain M(z) of the family record (regions with equal
transition rows lumped into one class, see `families`), each class's
generating polynomial in z packed into one Python int (see
`exact_distribution`; the map2 orbit diagnostic is its trace),
enumeration of every admissible symbol sequence (the oracle, n <= 12,
on the full region chain, sharing no code with the DP and reading no
class field), and Monte-Carlo sampling.  The oracles expand the symbol
tree level by level on integers over a common denominator, one tuple per
sequence; `admissible_sequences` and `sequence_measure` are the
per-sequence definitions that the tests check them against.  The ratio
P(g)/P(-g) is compared against base^g, exactly for the two-branch family
and with the multiplicative correction confined to [4l, 1/(4l)] for the
four-branch family.
The per-g report decides by rational comparisons; the interval-binned
report compares float logarithms with a slack of 1e-12 (see
`binned_fr_report`).  The irreversible composite needs no function of
its own: once `transfer.verify_composite` has checked it, its law is
map2's, and its Monte-Carlo histogram goes through the same
`monte_carlo_distribution` and `empirical_fr_report`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, reduce
from operator import add
from typing import Iterator, Mapping, NamedTuple, Optional

from bakerfr import families
from bakerfr.families import Family
from bakerfr.maps import (
    CheckedRecord,
    PiecewiseAffineMap,
    RegionLabel,
    as_fraction,
)
from bakerfr.transfer import ConsistencyError

_ZERO = Fraction(0)


class UndefinedValueError(ValueError):
    """A requested observable is undefined at this point or parameter."""


# The packed DP costs about n^2 log2(D) bit operations; the law keeps its
# integer counts.  Measured for map2 (2-CPU Xeon container, Python 3.11.7,
# one fresh process per run, wall time after the record build): under
# 0.01 s at n = 120; at n = 1000, 1.0-1.4 s for l = 1/8, 1.8-2.3 s for 1/5,
# 3.0-3.3 s for 7/40, and for 3/37, the worst of these, 3.4-3.8 s and 30 MB
# peak RSS; at the cap, 11 s for 1/8 and 35 s and 73 MB for 3/37.  The map2
# orbit trace with its law at l = 3/37: 9-13 s and 32 MB at n = 1000, 92 s
# and 85 MB at the cap.
MAX_DP_STEPS = 2000
# The level-wise oracles at n = 12 (same machine, fresh process, after the
# record build): brute_force_distribution 0.004-0.006 s for map2 at l = 1/8,
# 1/6, 1/5 (8192 sequences) and 0.002-0.003 s for map1 at l = 1/8 and 2/3,
# alpha_bounds_check 0.007-0.014 s at the same three l; 2x per extra symbol.
MAX_BRUTE_FORCE = 12

# Monte-Carlo ratio test: a +/-g pair is tested when both sides hold at
# least MIN_COUNT samples, and passes within Z_SCORE standard errors
Z_SCORE = 4.0
MIN_COUNT = 25


# ---------------------------------------------------------------------------
# symbolic Markov chains of the two families
# ---------------------------------------------------------------------------


class ChainSpec(NamedTuple):
    """The family's symbol process started from one initial law."""

    fam: Family
    initial: Mapping[RegionLabel, Fraction]

    @property
    def labels(self) -> tuple[RegionLabel, ...]:
        return self.fam.labels

    @property
    def trans(self) -> Mapping[tuple[RegionLabel, RegionLabel], Fraction]:
        return self.fam.trans

    def delta(self, label: RegionLabel) -> int:
        return self.fam.g[label]

    def successors(self, label: RegionLabel) -> tuple[RegionLabel, ...]:
        return self.fam.successors[label]


def chain_spec(family: str, l, start: str = "stationary") -> ChainSpec:
    """Symbol process of the family: region labels with their one-step
    transition probabilities and either the stationary region measures or
    the Lebesgue widths ("uniform") as initial weights."""
    fam = families.family(family, l)
    if start not in fam.initial:
        raise ValueError(f"unknown start {start!r}")
    return ChainSpec(fam, fam.initial[start])


# ---------------------------------------------------------------------------
# exact distributions
# ---------------------------------------------------------------------------


class _SymbolDistribution(NamedTuple):
    family: str
    l: Fraction
    n: int
    counts: dict[int, int]
    total: int


class SymbolDistribution(CheckedRecord, _SymbolDistribution):
    """Exact law of g over an n-symbol window, P(g) = counts[g] / total:
    integer counts over the one denominator their producer works on.  Two
    records of one law over different totals differ; `probs` compares
    the laws."""

    def __new__(cls, family: str, l: Fraction, n: int, counts: Mapping[int, int],
                total: int):
        counts = {g: c for g, c in counts.items() if c}
        if total < 1 or sum(counts.values()) != total:
            raise ValueError(f"counts sum to {sum(counts.values())}, not the total {total}")
        if any(not -n <= g <= n for g in counts):
            raise ValueError("support escapes [-n, n]")
        if any(-g not in counts for g in counts):
            raise ValueError("support is not symmetric around 0")
        return super().__new__(cls, family, l, n, counts, total)

    @cached_property
    def probs(self) -> dict[int, Fraction]:
        return {g: Fraction(c, self.total) for g, c in self.counts.items()}

    def prob(self, g: int) -> Fraction:
        return self.probs.get(g, _ZERO)

    def support(self) -> list[int]:
        return sorted(self.counts)


def _tilted_steps(fam: Family, v: list[int], steps: int, width: int) -> list[int]:
    """Run `steps` steps of the class chain M(z) of `fam` (see
    `families`), weighted by z^g on arrival.  v holds one polynomial per
    class, packed into an int with slot k at bit k W, W = `width` (the
    caller makes W wide enough that no slot overflows), and one step is
    v[y] <- sum (c v[x]) << ((g + 1) W) over the terms (x, c, g) of
    `fam.into[y]`, c = D p(x, s) for a region s of y."""
    into = [[(x, c, (g + 1) * width) for x, c, g in terms] for terms in fam.into]
    for _ in range(steps):
        v = [reduce(add, [(c * v[x]) << shift for x, c, shift in terms]) for terms in into]
    return v


def _slots(packed: int, count: int, nbytes: int) -> list[int]:
    """The first `count` slots of a packed polynomial, `nbytes` bytes each."""
    raw = packed.to_bytes(count * nbytes, "little")
    return [int.from_bytes(raw[k * nbytes:(k + 1) * nbytes], "little")
            for k in range(count)]


def exact_distribution(family: str, l, n: int,
                       start: str = "stationary") -> SymbolDistribution:
    """Exact law of g over an n-symbol window by a forward DP on the
    class chain of the family record.

    Let D = `fam.den` be the least common denominator of the transition
    probabilities and E that of the initial weights, so D p(x, s) and
    E w(r) are non-negative integers.  Class X starts at
    sum_{r in X} E w(r) z^(g_r + 1), and after k symbols, k - 1 steps of
    `_tilted_steps`, the slot g+k of class Y holds E D^(k-1) times the
    probability of ending in a region of Y with count g.  All slots sum
    to E D^(k-1) <= E D^(n-1), so with W at least one bit wider than that
    bound no slot can overflow into its neighbour (W is rounded up to
    whole bytes so the final unpacking is a byte slice per slot).  The
    coefficients are unpacked once and are the law's counts over
    E D^(n-1); if they do not sum to it exactly, `ConsistencyError` is
    raised."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_DP_STEPS:
        raise ValueError(f"n={n} exceeds the DP guard {MAX_DP_STEPS}")
    spec = chain_spec(family, l, start)
    fam = spec.fam
    e = math.lcm(*(w.denominator for w in spec.initial.values()))
    total = e * fam.den ** (n - 1)
    nbytes = total.bit_length() // 8 + 1
    width = 8 * nbytes
    v = [sum((spec.initial[r] * e).numerator << ((fam.g[r] + 1) * width) for r in cls)
         for cls in fam.classes]
    v = _tilted_steps(fam, v, n - 1, width)
    coeffs = _slots(sum(v), 2 * n + 1, nbytes)
    if sum(coeffs) != total:
        raise ConsistencyError(
            f"packed DP coefficients sum to {sum(coeffs)}, not E*D^(n-1) = {total}")
    return SymbolDistribution(family, fam.l, n, {k - n: c for k, c in enumerate(coeffs)},
                              total)


def _scaled(weights: Mapping) -> tuple[int, dict]:
    """The least common denominator L of the nonzero values of a mapping,
    and each nonzero value times L, an integer, keyed alike; the keys of
    zero values are left out."""
    pairs = {k: v.as_integer_ratio() for k, v in weights.items() if v}
    den = math.lcm(*(d for _n, d in pairs.values()))
    return den, {k: n * (den // d) for k, (n, d) in pairs.items()}


def sequence_measure(spec: ChainSpec, labels) -> Fraction:
    """Steady-state cylinder measure of an explicit symbol sequence;
    zero when any transition is forbidden.  With `admissible_sequences`
    this is the per-sequence definition that the tests check the
    prefix-shared walks of `brute_force_distribution` and
    `alpha_bounds_check` against."""
    w = spec.initial.get(labels[0], _ZERO)
    for a, b in zip(labels, labels[1:]):
        w *= spec.trans.get((a, b), _ZERO)
        if w == 0:
            return _ZERO
    return w


def admissible_sequences(spec: ChainSpec, n: int) -> Iterator[tuple[RegionLabel, ...]]:
    """All positive-measure symbol sequences of length n, in lexicographic
    order.  The exact oracles reach the same leaves in the same order without
    building the sequences; the tests check them against this list."""

    def extend(prefix: tuple[RegionLabel, ...]) -> Iterator[tuple[RegionLabel, ...]]:
        if len(prefix) == n:
            yield prefix
            return
        for succ in spec.successors(prefix[-1]):
            yield from extend(prefix + (succ,))

    for lab in spec.labels:
        if spec.initial.get(lab, _ZERO) > 0:
            yield from extend((lab,))


def brute_force_distribution(family: str, l, n: int,
                             start: str = "stationary") -> SymbolDistribution:
    """Oracle: accumulate the cylinder measure of every admissible symbol
    sequence individually.  The symbol tree is expanded level by level,
    one list comprehension over a successor table per level: level k holds
    each admissible k-symbol prefix, in the order of `admissible_sequences`,
    as one tuple of its last region's index, g and its measure times
    E D^(k-1), an integer (D and E as in `exact_distribution`, computed
    here on their own).  The sums are the law's counts over E D^(n-1).
    Exponential in n (8192 tuples for map2 at the cap); guarded."""
    if not 1 <= n <= MAX_BRUTE_FORCE:
        raise ValueError(f"brute force supports 1 <= n <= {MAX_BRUTE_FORCE}")
    spec = chain_spec(family, l, start)
    fam = spec.fam
    d, trans = _scaled(spec.trans)
    e, initial = _scaled(spec.initial)
    # table[i]: (index, g, D p(r, s)) of each successor s of r = fam.labels[i]
    table = [[(fam.labels.index(s), fam.g[s], trans.get((r, s), 0))
              for s in fam.successors[r]] for r in fam.labels]
    level = [(i, fam.g[r], initial[r]) for i, r in enumerate(fam.labels)
             if initial.get(r, 0) > 0]
    for _ in range(n - 1):
        level = [(s, g + dg, w * p) for r, g, w in level for s, dg, p in table[r]]
    sums: dict[int, int] = {}
    for _r, g, w in level:
        sums[g] = sums.get(g, 0) + w
    return SymbolDistribution(family, fam.l, n, sums, e * d ** (n - 1))


# ---------------------------------------------------------------------------
# fluctuation-ratio reports (exact)
# ---------------------------------------------------------------------------


class FRRow(NamedTuple):
    g: int
    p_plus: Fraction
    p_minus: Fraction
    alpha: Fraction          # P(g) / (P(-g) * base^g)
    lhs: float               # ln(P(g)/P(-g))
    target: float            # g * ln(base)
    bound: float             # ln(alpha_max)
    e_n: Optional[Fraction]
    passed: bool


class FRReport(NamedTuple):
    family: str
    l: Fraction
    n: int
    unit_base: Fraction
    alpha_min: Fraction
    alpha_max: Fraction
    mean_lambda: float
    rows: tuple[FRRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)


def log_ratio(num, den: int = 1) -> float:
    """math.log(r) for the positive rational r = num / den (num a `Fraction`
    or an int, den an int), also where float(r) is 0 or inf: there
    ln r = k ln 2 + ln(r / 2^k), with k from the bit lengths so that r / 2^k
    lies within a factor 2 of 1.  float(r) is the correctly rounded integer
    quotient, so it takes no gcd."""
    num, den = num.numerator, num.denominator * den
    try:
        f = num / den
    except OverflowError:
        f = math.inf
    if 0 < f < math.inf:
        return math.log(f)
    r = Fraction(num, den)
    k = r.numerator.bit_length() - r.denominator.bit_length()
    return k * math.log(2) + math.log(r / Fraction(2) ** k)


def fr_report(dist: SymbolDistribution) -> FRReport:
    """Check the ratio P(g)/P(-g) against base^g for every attainable
    positive g.  The two-branch family must satisfy the identity exactly;
    the four-branch family must have its multiplicative correction within
    [4l, 1/(4l)].  Exact rational comparisons throughout; a row is read
    from the law's counts c(g) and base = bn / bd: alpha is the one
    `Fraction` c(g) bd^g / (c(-g) bn^g), its powers carried over g."""
    fam = families.family(dist.family, dist.l)
    psi, base = fam.psi, fam.unit_base
    if psi == 0:
        raise UndefinedValueError(
            f"mean contraction vanishes at l={dist.l}; the ratio test is undefined")
    a_min, a_max = fam.alpha_bounds
    log_base, bound = math.log(base), math.log(a_max)
    (psi_n, psi_d), (bn, bd) = psi.as_integer_ratio(), base.as_integer_ratio()
    pow_n = pow_d = 1      # base^g = pow_n / pow_d
    rows = []
    for g in dist.support():
        if g <= 0:
            continue
        step = g - rows[-1].g if rows else g
        pow_n, pow_d = pow_n * bn ** step, pow_d * bd ** step
        c_plus, c_minus = dist.counts[g], dist.counts[-g]
        alpha = Fraction(c_plus * pow_d, c_minus * pow_n)
        rows.append(FRRow(
            g=g, p_plus=dist.prob(g), p_minus=dist.prob(-g), alpha=alpha,
            lhs=log_ratio(c_plus, c_minus), target=g * log_base, bound=bound,
            e_n=Fraction(g * psi_d, dist.n * psi_n), passed=a_min <= alpha <= a_max,
        ))
    return FRReport(dist.family, dist.l, dist.n, base, a_min, a_max,
                    float(psi) * log_base, tuple(rows))


class BinnedFRRow(NamedTuple):
    p: Fraction               # bin center on the normalized-contraction axis
    prob_plus: Fraction
    prob_minus: Fraction
    lhs_normalized: float     # ln(ratio) / (n <Lambda>)
    slack: float              # delta + ln(alpha_max) / (n <Lambda>)
    passed: bool


class BinnedFRReport(NamedTuple):
    family: str
    l: Fraction
    n: int
    delta: Fraction
    rows: tuple[BinnedFRRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)


def binned_fr_report(dist: SymbolDistribution, delta) -> BinnedFRReport:
    """Interval form of the ratio test on the normalized-contraction axis.

    The attainable normalized values form the lattice {g/(n psi)}; for each
    positive lattice point p the probabilities of the windows (p-delta,
    p+delta) and (-p-delta, -p+delta) are aggregated exactly, and the
    normalized log-ratio must land within delta plus the band width of the
    window center.  With delta below the lattice spacing this reduces to
    the per-g report; wider windows aggregate neighbouring lattice points.

    On the lattice, |g/(n psi) - g0/(n psi)| < delta is the integer window
    |g - g0| <= k with k = ceil(delta n |psi|) - 1, so each window's
    probability is a difference of integer prefix sums of the law's counts
    over its total.  The log-ratio is read from the two integer sums; a
    `Fraction` is built only for each printed value.

    The window probabilities are exact; the pass test compares float
    logarithms, and the 1e-12 added to both edges absorbs their rounding
    (a few ulp), so a row within 1e-12 of an edge is decided by the slack,
    not certified.  At delta = 1/2, l in {1/8, 1/6, 1/5} and n in
    {12, 120, 1000} every row lies at least 1e-6 from both edges (tested).
    """
    delta = as_fraction(delta)
    if delta <= 0:
        raise ValueError("need delta > 0")
    fam = families.family(dist.family, dist.l)
    psi, base = fam.psi, fam.unit_base
    if psi == 0:
        raise UndefinedValueError(
            f"mean contraction vanishes at l={dist.l}; binning is undefined")
    _a_min, a_max = fam.alpha_bounds
    n = dist.n
    n_lambda = n * float(psi) * math.log(base)
    slack = float(delta) + math.log(a_max) / n_lambda
    psi_n, psi_d = psi.as_integer_ratio()
    k = math.ceil(delta * n * abs(psi)) - 1
    # below[i] = total * P(g < i - n)
    below = [0]
    for g in range(-n, n + 1):
        below.append(below[-1] + dist.counts.get(g, 0))

    def window(center: int) -> int:
        return below[min(center + k, n) + n + 1] - below[max(center - k, -n) + n]

    rows = []
    for g0 in dist.support():
        if g0 <= 0:
            continue
        p = Fraction(g0 * psi_d, n * psi_n)
        plus, minus = window(g0), window(-g0)
        lhs, center = log_ratio(plus, minus) / n_lambda, float(p)
        passed = center - slack - 1e-12 <= lhs <= center + slack + 1e-12
        rows.append(BinnedFRRow(p, Fraction(plus, dist.total), Fraction(minus, dist.total),
                                lhs, slack, passed))
    return BinnedFRReport(dist.family, dist.l, n, delta, tuple(rows))


# ---------------------------------------------------------------------------
# exhaustive per-sequence correction bounds
# ---------------------------------------------------------------------------


class AlphaBoundsReport(NamedTuple):
    l: Fraction
    n: int
    sequences: int
    attained_min: Fraction
    attained_max: Fraction
    bound_min: Fraction
    bound_max: Fraction
    violations: tuple[str, ...] = ()

    @property
    def all_within(self) -> bool:
        return not self.violations


def _alpha_direct(spec: ChainSpec, seq) -> Fraction:
    """Per-sequence correction from the boundary terms alone.  Every step
    into region j has the same probability col[j] (the common nonzero
    entry of column j, `Family.col`), and col[j] / col[conj j] = base^(g_j),
    so all but the window ends cancel: alpha = mu[s1] col[conj sn] /
    (mu[conj sn] col[s1])."""
    first, last = seq[0], spec.fam.conjugacy[seq[-1]]
    col = spec.fam.col
    return spec.initial[first] * col[last] / (spec.initial[last] * col[first])


def alpha_bounds_check(l, n: int) -> AlphaBoundsReport:
    """Enumerate every admissible n-symbol sequence of the four-branch
    family, pair it with its time reversal (read backwards, expanding and
    contracting regions swapped), and verify that the measure ratio divided
    by base^g stays within [4l, 1/(4l)].  The ratio must also equal the
    boundary-term formula `_alpha_direct` of the sequence's two ends.

    The tree is expanded level by level as in `brute_force_distribution`;
    a node is one tuple: the last region's index, g, the forward measure of
    s_1..s_k and the product of the reversed conjugate transitions
    p(conj s_{i+1}, conj s_i), i < k, as integers scaled by E D^(k-1) and
    D^(k-1), and the label text.  A leaf multiplies in E mu[conj s_n] for
    the reversal's measure on the same scale.  base^g, from the unit base's
    integer pair, and the boundary formula of each (first, last) pair are
    read from tables as (numerator, denominator), and every leaf's alpha is
    compared with its pair's formula by cross-multiplication.  Where they
    agree, alpha is the formula, so the band and the attained extremes are
    decided once per pair; only a leaf that breaks the formula is checked
    against the band and the extremes on its own alpha.  A `Fraction` is
    built only for the attained extremes and the text of a violation."""
    l = as_fraction(l)
    if not 1 <= n <= MAX_BRUTE_FORCE:
        raise ValueError(f"exhaustive check supports 1 <= n <= {MAX_BRUTE_FORCE}")
    spec = chain_spec("map2", l)
    fam = spec.fam
    conj = fam.conjugacy
    _d, trans = _scaled(spec.trans)
    _e, mu = _scaled(spec.initial)
    bound_min, bound_max = fam.alpha_bounds
    (lo_n, lo_d), (hi_n, hi_d) = bound_min.as_integer_ratio(), bound_max.as_integer_ratio()

    def outside(num: int, den: int) -> bool:
        return not (lo_n * den <= num * lo_d and num * hi_d <= hi_n * den)

    bn, bd = fam.unit_base.as_integer_ratio()
    power = {g: (bn ** g, bd ** g) if g >= 0 else (bd ** -g, bn ** -g) for g in range(-n, n + 1)}
    labels, names = fam.labels, [lab.value for lab in fam.labels]
    # `_alpha_direct` of (s, t) is ratio[s] / ratio[conj t], ratio = mu / col,
    # here E mu / col as an integer pair (E cancels)
    ratio = {}
    for lab in labels:
        c_n, c_d = fam.col[lab].as_integer_ratio()
        ratio[lab] = (mu.get(lab, 0) * c_d, c_n)
    direct = {(names[j], i): (a * ratio[conj[t]][1], b * ratio[conj[t]][0])
              for j, (a, b) in enumerate(ratio.values()) for i, t in enumerate(labels)}
    # the violation text of each pair whose formula leaves the band; a zero
    # denominator belongs to a pair whose every reversal is inadmissible
    off_band = {key: f": alpha {Fraction(f_n, f_d)}" for key, (f_n, f_d) in direct.items()
                if f_d and outside(f_n, f_d)}
    end = [mu.get(conj[lab], 0) for lab in labels]
    # table[i]: (index, g, D p(r, s), D p(conj s, conj r), label) of each successor s
    index = {lab: i for i, lab in enumerate(labels)}
    table = [[(index[s], fam.g[s], trans.get((r, s), 0), trans.get((conj[s], conj[r]), 0),
               names[index[s]]) for s in fam.successors[r]] for r in labels]
    level = [(i, fam.g[r], mu[r], 1, names[i]) for i, r in enumerate(labels)
             if mu.get(r, 0) > 0]
    for _ in range(n - 1):
        level = [(s, g + dg, fwd * p, rev * q, text + c)
                 for r, g, fwd, rev, text in level for s, dg, p, q, c in table[r]]
    # held: the pairs whose formula some leaf's alpha equals; broken: the
    # alpha, as (num, den), of each leaf that breaks its pair's formula
    held, broken, violations = set(), [], []
    for r, g, fwd, rev, text in level:
        rev *= end[r]
        if rev == 0:
            violations.append(text + ": reversal inadmissible")
            continue
        # alpha = (fwd / rev) / base^g = num / den, den > 0
        p_n, p_d = power[g]
        num, den = fwd * p_d, rev * p_n
        key = text[0], r
        f_n, f_d = direct[key]
        if num * f_d == f_n * den:
            held.add(key)
            if key in off_band:
                violations.append(text + off_band[key])
            continue
        violations.append(text + f": ratio {Fraction(num, den)} != "
                          f"boundary formula {Fraction(f_n, f_d)}")
        if outside(num, den):
            violations.append(text + f": alpha {Fraction(num, den)}")
        broken.append((num, den))
    attained = []   # [min, max] of alpha as (num, den)
    for num, den in [direct[key] for key in held] + broken:
        if not attained:
            attained.extend([(num, den)] * 2)
        elif num * attained[0][1] < attained[0][0] * den:
            attained[0] = (num, den)
        elif num * attained[1][1] > attained[1][0] * den:
            attained[1] = (num, den)
    low, high = (Fraction(*a) for a in attained)
    return AlphaBoundsReport(l, n, len(level), low, high, bound_min, bound_max, tuple(violations))


# ---------------------------------------------------------------------------
# Monte-Carlo distributions and empirical reports
# ---------------------------------------------------------------------------


class EmpiricalDistribution(NamedTuple):
    family: str
    l: Fraction
    n: int
    counts: dict[int, int]
    total: int
    seed: int

    def support(self) -> list[int]:
        return sorted(self.counts)


def monte_carlo_distribution(m: PiecewiseAffineMap, n: int, ensemble: int,
                             transient: int, seed: int) -> EmpiricalDistribution:
    """Histogram of g over `ensemble` independent trajectories started
    uniformly on the square and relaxed for `transient` steps: the
    nonzero bins of the sampler's histogram, so memory does not grow
    with the ensemble."""
    from bakerfr.ensembles import sample_g

    if ensemble < 1:
        raise ValueError(f"need at least one trajectory, got ensemble={ensemble}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    counts = sample_g(m, n, ensemble, transient, seed).tolist()
    return EmpiricalDistribution(m.family, m.l, n,
                                 {g - n: c for g, c in enumerate(counts) if c},
                                 ensemble, seed)


class EmpiricalFRRow(NamedTuple):
    g: int
    count_plus: int
    count_minus: int
    lhs: float
    target: float
    bound: float
    sigma: float
    passed: bool


class EmpiricalFRReport(NamedTuple):
    family: str
    l: Fraction
    n: int
    total: int
    seed: int
    rows: tuple[EmpiricalFRRow, ...]

    @property
    def all_pass(self) -> bool:
        """Every tested pair passed, and there was at least one."""
        return bool(self.rows) and all(r.passed for r in self.rows)


def empirical_fr_report(emp: EmpiricalDistribution) -> EmpiricalFRReport:
    """Statistical version of the ratio test: a populated +/-g pair passes
    when |ln ratio - g ln(base)| <= ln(alpha_max) + Z_SCORE standard errors
    of the log ratio.  Pairs with fewer than MIN_COUNT counts on either
    side are excluded as too noisy to test."""
    fam = families.family(emp.family, emp.l)
    base = fam.unit_base
    _a_min, a_max = fam.alpha_bounds
    log_base = math.log(base)
    rows = []
    for g in emp.support():
        if g <= 0:
            continue
        k_plus, k_minus = emp.counts.get(g, 0), emp.counts.get(-g, 0)
        if min(k_plus, k_minus) < MIN_COUNT:
            continue
        p_plus, p_minus = k_plus / emp.total, k_minus / emp.total
        lhs = math.log(k_plus / k_minus)
        sigma = math.sqrt((1 - p_plus) / k_plus + (1 - p_minus) / k_minus)
        bound = math.log(a_max)
        passed = abs(lhs - g * log_base) <= bound + Z_SCORE * sigma
        rows.append(EmpiricalFRRow(g, k_plus, k_minus, lhs, g * log_base,
                                   bound, sigma, passed))
    return EmpiricalFRReport(emp.family, emp.l, emp.n, emp.total, emp.seed,
                             tuple(rows))
