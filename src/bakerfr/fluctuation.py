"""Finite-time fluctuation statistics of the contraction observable.

The distribution of the net expanding-visit count g over an n-symbol
window is computed three ways: an exact forward DP, `_tilted_steps`,
on each region's generating polynomial in z packed into one Python int
(see `exact_distribution`; the map2 orbit diagnostic is its trace),
enumeration of every admissible symbol sequence (the oracle, n <= 12,
sharing no code with the DP), and Monte-Carlo sampling.  The oracles
walk the symbol tree depth first on integers over a common denominator,
O(1) integer operations per sequence; `admissible_sequences` and
`sequence_measure` are the per-sequence definitions that the tests check
the walks against.  The ratio P(g)/P(-g) is compared against base^g,
exactly for the two-branch family and with the multiplicative
correction confined to [4l, 1/(4l)] for the four-branch family.
The per-g report decides by rational comparisons; the interval-binned
report compares float logarithms with a slack of 1e-12 (see
`binned_fr_report`).  The irreversible composite needs no function of
its own: once `transfer.verify_composite` has checked it, its law is
map2's, and its Monte-Carlo histogram goes through the same
`monte_carlo_distribution` and `empirical_fr_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Iterator, Mapping, Optional

from bakerfr import families
from bakerfr.families import Family
from bakerfr.maps import (
    SCHEMA_VERSION,
    PiecewiseAffineMap,
    RegionLabel,
    as_fraction,
    common_denominator,
)
from bakerfr.observables import UndefinedValueError
from bakerfr.transfer import ConsistencyError

_ZERO = Fraction(0)

# The packed DP costs about n^2 log2(D) bit operations.  Measured for map2
# at l = 1/8, 1/6, 1/5 (2-CPU Xeon container, Python 3.11): 0.003-0.01 s at
# n = 120, 1.0-2.0 s at n = 1000 and 9-18 s at n = 2000.  Larger
# denominators cost more: the worst of l in {1/8, 7/40, 3/37} is 3/37,
# 5.6-5.7 s and 39 MB peak RSS at n = 1000 and 48 s and 109 MB at the cap
# (7/40: 3.5-4.0 s and 33 s).  The map2 orbit trace: 4.8-5.9 s at n = 1000
# for l = 1/8, 20-22 s and 41 MB for 3/37, and 167 s and 113 MB at the cap.
MAX_DP_STEPS = 2000
# The prefix-shared oracles at n = 12 (same machine): brute_force_distribution
# 0.007-0.01 s for map2 at l = 1/8, 1/6, 1/5 (8192 sequences) and 0.003 s
# for map1 at l = 1/8 and 2/3, alpha_bounds_check 0.015-0.026 s at the
# same three l; about 2x per extra symbol.
MAX_BRUTE_FORCE = 12

# Monte-Carlo ratio test: a +/-g pair is tested when both sides hold at
# least MIN_COUNT samples, and passes within Z_SCORE standard errors
Z_SCORE = 4.0
MIN_COUNT = 25


# ---------------------------------------------------------------------------
# symbolic Markov chains of the two families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainSpec:
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


@dataclass(frozen=True)
class SymbolDistribution:
    """Exact law of g over an n-symbol window."""

    family: str
    l: Fraction
    n: int
    probs: dict[int, Fraction]

    def __post_init__(self):
        nonzero = {g: p for g, p in self.probs.items() if p != 0}
        object.__setattr__(self, "probs", nonzero)
        total = sum(nonzero.values())
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(not -self.n <= g <= self.n for g in nonzero):
            raise ValueError("support escapes [-n, n]")
        if any(-g not in nonzero for g in nonzero):
            raise ValueError("support is not symmetric around 0")

    def prob(self, g: int) -> Fraction:
        return self.probs.get(g, _ZERO)

    def support(self) -> list[int]:
        return sorted(self.probs)

    def mean_g(self) -> Fraction:
        return sum(Fraction(g) * p for g, p in self.probs.items())


def _tilted_steps(fam: Family, d: int, v: dict[RegionLabel, int], steps: int,
                  width: int) -> dict[RegionLabel, int]:
    """Run `steps` steps of the chain weighted by z^g.  v holds one
    polynomial per region, packed into an int with slot k at bit k W,
    W = `width` (the caller makes W wide enough that no slot overflows),
    and one step is v[s] <- (sum_r D p(r, s) v[r]) << ((g_s + 1) W)."""
    shift = {lab: (fam.g[lab] + 1) * width for lab in fam.labels}
    # predecessors of each region grouped by integer coefficient: a group
    # costs one multiply, and a group shared by several regions one sum
    into: dict[RegionLabel, dict[int, tuple]] = {s: {} for s in fam.labels}
    for (r, s), p in fam.trans.items():
        if p:
            c = p.numerator * (d // p.denominator)
            into[s][c] = into[s].get(c, ()) + (r,)
    pools = {rs for groups in into.values() for rs in groups.values()}
    for _ in range(steps):
        pooled = {rs: reduce(add, [v[r] for r in rs]) for rs in pools}
        v = {s: reduce(add, [c * pooled[rs] for c, rs in into[s].items()]) << shift[s]
             for s in fam.labels}
    return v


def _slots(packed: int, count: int, nbytes: int) -> list[int]:
    """The first `count` slots of a packed polynomial, `nbytes` bytes each."""
    raw = packed.to_bytes(count * nbytes, "little")
    return [int.from_bytes(raw[k * nbytes:(k + 1) * nbytes], "little")
            for k in range(count)]


def exact_distribution(family: str, l, n: int,
                       start: str = "stationary") -> SymbolDistribution:
    """Exact law of g over an n-symbol window by a forward DP over regions.

    Let D be the least common denominator of the transition probabilities
    and E that of the initial weights, so D p(r, s) and E w(r) are
    non-negative integers.  Region r starts at E w(r) z^(g_r + 1), and
    after k symbols, k - 1 steps of `_tilted_steps`, the slot g+k of
    region s holds E D^(k-1) times the probability of ending in s with
    count g.  All slots sum to E D^(k-1) <= E D^(n-1), so with W at least
    one bit wider than that bound no slot can overflow into its neighbour
    (W is rounded up to whole bytes so the final unpacking is a byte slice
    per slot).  The coefficients are unpacked once and divided by E D^(n-1);
    if they do not sum to it exactly, `ConsistencyError` is raised."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_DP_STEPS:
        raise ValueError(f"n={n} exceeds the DP guard {MAX_DP_STEPS}")
    spec = chain_spec(family, l, start)
    fam = spec.fam
    d = math.lcm(*(p.denominator for p in spec.trans.values()))
    e = math.lcm(*(w.denominator for w in spec.initial.values()))
    total = e * d ** (n - 1)
    nbytes = total.bit_length() // 8 + 1
    width = 8 * nbytes
    v = {lab: (w.numerator * (e // w.denominator)) << ((fam.g[lab] + 1) * width)
         for lab, w in spec.initial.items()}
    v = _tilted_steps(fam, d, v, n - 1, width)
    coeffs = _slots(sum(v.values()), 2 * n + 1, nbytes)
    if sum(coeffs) != total:
        raise ConsistencyError(
            f"packed DP coefficients sum to {sum(coeffs)}, not E*D^(n-1) = {total}")
    probs = {k - n: Fraction(c, total) for k, c in enumerate(coeffs) if c}
    return SymbolDistribution(family, fam.l, n, probs)


def _scaled(weights: Mapping) -> tuple[int, dict]:
    """`common_denominator` of the values of a mapping, keyed alike."""
    den, nums = common_denominator(weights.values())
    return den, dict(zip(weights, nums))


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
    """All positive-measure symbol sequences of length n, depth first.
    The exact oracles walk the same tree in the same order without
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
    sequence individually.  The symbol tree is walked depth first, in the
    order of `admissible_sequences`, and each node carries g and its
    prefix's measure times E D^(k-1), an integer (D and E as in
    `exact_distribution`, computed here on their own), so a sequence
    costs one integer multiplication and one integer addition, and each g
    one `Fraction`.  Exponential in n; guarded accordingly."""
    if not 1 <= n <= MAX_BRUTE_FORCE:
        raise ValueError(f"brute force supports 1 <= n <= {MAX_BRUTE_FORCE}")
    spec = chain_spec(family, l, start)
    fam = spec.fam
    d, trans = _scaled(spec.trans)
    e, initial = _scaled(spec.initial)
    sums: dict[int, int] = {}

    def walk(k: int, last: RegionLabel, g: int, w: int) -> None:
        if k == n:
            sums[g] = sums.get(g, 0) + w
            return
        for s in fam.successors[last]:
            walk(k + 1, s, g + fam.g[s], w * trans[last, s])

    for lab in fam.labels:
        w = initial.get(lab, 0)
        if w > 0:
            walk(1, lab, fam.g[lab], w)
    total = e * d ** (n - 1)
    return SymbolDistribution(family, fam.l, n,
                              {g: Fraction(c, total) for g, c in sums.items()})


# ---------------------------------------------------------------------------
# fluctuation-ratio reports (exact)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FRRow:
    g: int
    p_plus: Fraction
    p_minus: Fraction
    alpha: Fraction          # P(g) / (P(-g) * base^g)
    lhs: float               # ln(P(g)/P(-g))
    target: float            # g * ln(base)
    bound: float             # ln(alpha_max)
    e_n: Optional[Fraction]
    passed: bool


@dataclass(frozen=True)
class FRReport:
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

    def to_dict(self) -> dict:
        n_lambda = self.n * self.mean_lambda
        return {
            "schema_version": SCHEMA_VERSION,
            "family": self.family,
            "l": f"{self.l.numerator}/{self.l.denominator}",
            "n": self.n,
            "alpha_min": str(self.alpha_min),
            "alpha_max": str(self.alpha_max),
            "all_pass": self.all_pass,
            "rows": [
                {"g": r.g, "p_plus": str(r.p_plus), "p_minus": str(r.p_minus),
                 "alpha": str(r.alpha), "lhs": r.lhs, "target": r.target,
                 "bound": r.bound,
                 "lhs_over_n_mean": r.lhs / n_lambda,
                 "bound_over_n_mean": r.bound / n_lambda,
                 "e_n": None if r.e_n is None else str(r.e_n),
                 "pass": r.passed}
                for r in self.rows
            ],
        }


def log_ratio(r: Fraction) -> float:
    """math.log(r) for a positive rational r, also where float(r) is 0 or
    inf: there ln r = k ln 2 + ln(r / 2^k), with k from the bit lengths so
    that r / 2^k lies within a factor 2 of 1."""
    try:
        f = float(r)
    except OverflowError:
        f = math.inf
    if 0 < f < math.inf:
        return math.log(f)
    k = r.numerator.bit_length() - r.denominator.bit_length()
    return k * math.log(2) + math.log(r / Fraction(2) ** k)


def fr_report(dist: SymbolDistribution) -> FRReport:
    """Check the ratio P(g)/P(-g) against base^g for every attainable
    positive g.  The two-branch family must satisfy the identity exactly;
    the four-branch family must have its multiplicative correction within
    [4l, 1/(4l)].  Exact rational comparisons throughout."""
    fam = families.family(dist.family, dist.l)
    psi, base = fam.psi, fam.unit_base
    if psi == 0:
        raise UndefinedValueError(
            f"mean contraction vanishes at l={dist.l}; the ratio test is undefined")
    a_min, a_max = fam.alpha_bounds
    mean_lambda = float(psi) * math.log(base)
    rows = []
    for g in dist.support():
        if g <= 0:
            continue
        p_plus, p_minus = dist.prob(g), dist.prob(-g)
        alpha = (p_plus / p_minus) / base ** g
        passed = a_min <= alpha <= a_max
        rows.append(FRRow(
            g=g, p_plus=p_plus, p_minus=p_minus, alpha=alpha,
            lhs=log_ratio(p_plus / p_minus), target=g * math.log(base),
            bound=math.log(a_max),
            e_n=Fraction(g, dist.n) / psi, passed=passed,
        ))
    return FRReport(dist.family, dist.l, dist.n, base, a_min, a_max,
                    mean_lambda, tuple(rows))


@dataclass(frozen=True)
class BinnedFRRow:
    p: Fraction               # bin center on the normalized-contraction axis
    prob_plus: Fraction
    prob_minus: Fraction
    lhs_normalized: float     # ln(ratio) / (n <Lambda>)
    slack: float              # delta + ln(alpha_max) / (n <Lambda>)
    passed: bool


@dataclass(frozen=True)
class BinnedFRReport:
    family: str
    l: Fraction
    n: int
    delta: Fraction
    rows: tuple[BinnedFRRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "delta": str(self.delta),
            "all_pass": self.all_pass,
            "rows": [
                {"p": str(r.p), "prob_plus": str(r.prob_plus),
                 "prob_minus": str(r.prob_minus),
                 "lhs_normalized": r.lhs_normalized, "slack": r.slack,
                 "pass": r.passed}
                for r in self.rows
            ],
        }


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
    probability is a difference of integer prefix sums of the law over its
    common denominator.

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
    k = math.ceil(delta * n * abs(psi)) - 1
    den = math.lcm(*(p.denominator for p in dist.probs.values()))
    # below[i] = den * P(g < i - n)
    below = [0]
    for g in range(-n, n + 1):
        p = dist.prob(g)
        below.append(below[-1] + p.numerator * (den // p.denominator))

    def window(center: int) -> Fraction:
        lo, hi = max(center - k, -n), min(center + k, n)
        return Fraction(below[hi + n + 1] - below[lo + n], den)

    rows = []
    for g0 in dist.support():
        if g0 <= 0:
            continue
        p = Fraction(g0, n) / psi
        plus, minus = window(g0), window(-g0)
        lhs = log_ratio(plus / minus) / n_lambda
        slack = float(delta) + math.log(a_max) / n_lambda
        passed = float(p) - slack - 1e-12 <= lhs <= float(p) + slack + 1e-12
        rows.append(BinnedFRRow(p, plus, minus, lhs, slack, passed))
    return BinnedFRReport(dist.family, dist.l, n, delta, tuple(rows))


# ---------------------------------------------------------------------------
# exhaustive per-sequence correction bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaBoundsReport:
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

    The symbol tree is walked depth first, in the order of
    `admissible_sequences`.  Each node carries g, the forward measure of
    its prefix s_1..s_k and the product of the reversed conjugate
    transitions p(conj s_{i+1}, conj s_i), i < k, both as integers scaled
    by E D^(k-1) and D^(k-1) (D and E as in `brute_force_distribution`);
    a leaf multiplies in E mu[conj s_n] to get the reversal's measure on
    the same scale.  base^g and the boundary formula of each (first, last)
    pair are read from tables as (numerator, denominator), so a sequence
    costs O(1) integer operations: alpha, the bounds and the formula are
    compared by cross-multiplication, and a `Fraction` is built only for
    the attained extremes and the text of a violation."""
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
    power = {g: (fam.unit_base ** g).as_integer_ratio() for g in range(-n, n + 1)}
    direct = {(s, t): _alpha_direct(spec, (s, t)).as_integer_ratio()
              for s in fam.labels for t in fam.labels}
    path: list[RegionLabel] = [fam.labels[0]] * n
    attained: list[tuple[int, int]] = []   # [min, max] as (numerator, denominator)
    violations = []
    count = 0

    def text() -> str:
        return "".join(s.value for s in path)

    def walk(k: int, g: int, fwd: int, rev: int) -> None:
        nonlocal count
        last = path[k - 1]
        if k == n:
            count += 1
            rev *= mu[conj[last]]
            if rev == 0:
                violations.append(text() + ": reversal inadmissible")
                return
            # alpha = (fwd / rev) / base^g = num / den, den > 0
            p_n, p_d = power[g]
            num, den = fwd * p_d, rev * p_n
            f_n, f_d = direct[path[0], last]
            if num * f_d != f_n * den:
                violations.append(text() + f": ratio {Fraction(num, den)} != "
                                  f"boundary formula {Fraction(f_n, f_d)}")
            if not (lo_n * den <= num * lo_d and num * hi_d <= hi_n * den):
                violations.append(text() + f": alpha {Fraction(num, den)}")
            if not attained:
                attained.extend([(num, den)] * 2)
            elif num * attained[0][1] < attained[0][0] * den:
                attained[0] = (num, den)
            elif num * attained[1][1] > attained[1][0] * den:
                attained[1] = (num, den)
            return
        for s in fam.successors[last]:
            path[k] = s
            walk(k + 1, g + fam.g[s], fwd * trans[last, s], rev * trans[conj[s], conj[last]])

    for lab in fam.labels:
        if mu.get(lab, 0) > 0:
            path[0] = lab
            walk(1, fam.g[lab], mu[lab], 1)
    low, high = (Fraction(*a) for a in attained)
    return AlphaBoundsReport(l, n, count, low, high, bound_min, bound_max, tuple(violations))


# ---------------------------------------------------------------------------
# Monte-Carlo distributions and empirical reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalDistribution:
    family: str
    l: Fraction
    n: int
    counts: dict[int, int]
    total: int
    seed: int

    def prob(self, g: int) -> float:
        return self.counts.get(g, 0) / self.total

    def support(self) -> list[int]:
        return sorted(self.counts)

    def mean_g(self) -> float:
        return sum(g * c for g, c in self.counts.items()) / self.total


def monte_carlo_distribution(m: PiecewiseAffineMap, n: int, ensemble: int,
                             transient: int, seed: int) -> EmpiricalDistribution:
    """Histogram of g over `ensemble` independent trajectories started
    uniformly on the square and relaxed for `transient` steps."""
    import numpy as np

    from bakerfr.ensembles import sample_g

    if ensemble < 1:
        raise ValueError(f"need at least one trajectory, got ensemble={ensemble}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    values, counts = np.unique(sample_g(m, n, ensemble, transient, seed),
                               return_counts=True)
    return EmpiricalDistribution(m.family, m.l, n,
                                 {int(v): int(c) for v, c in zip(values, counts)},
                                 ensemble, seed)


@dataclass(frozen=True)
class EmpiricalFRRow:
    g: int
    count_plus: int
    count_minus: int
    lhs: float
    target: float
    bound: float
    sigma: float
    passed: bool


@dataclass(frozen=True)
class EmpiricalFRReport:
    family: str
    l: Fraction
    n: int
    total: int
    seed: int
    rows: tuple[EmpiricalFRRow, ...]
    notes: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        """Every tested pair passed, and there was at least one."""
        return bool(self.rows) and all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "family": self.family,
            "l": f"{self.l.numerator}/{self.l.denominator}",
            "n": self.n,
            "samples": self.total,
            "seed": self.seed,
            "z": Z_SCORE,
            "min_count": MIN_COUNT,
            "all_pass": self.all_pass,
            "notes": list(self.notes),
            "rows": [
                {"g": r.g, "count_plus": r.count_plus, "count_minus": r.count_minus,
                 "lhs": r.lhs, "target": r.target, "bound": r.bound,
                 "sigma": r.sigma, "pass": r.passed}
                for r in self.rows
            ],
        }


def empirical_fr_report(emp: EmpiricalDistribution,
                        notes: tuple[str, ...] = ()) -> EmpiricalFRReport:
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
                             tuple(rows), notes)


def write_fr_csv(report, path) -> None:
    """Flat CSV (g, p_plus, p_minus, lhs, target, bound, pass) for either
    the exact report (exact rationals) or the empirical one (proportions)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("g,p_plus,p_minus,lhs,target,bound,pass\n")
        for r in report.rows:
            if isinstance(r, FRRow):
                plus, minus = str(r.p_plus), str(r.p_minus)
            else:
                plus = repr(r.count_plus / report.total)
                minus = repr(r.count_minus / report.total)
            fh.write(f"{r.g},{plus},{minus},{r.lhs!r},{r.target!r},"
                     f"{r.bound!r},{r.passed}\n")
