"""Unstable-periodic-orbit expansion of the contraction statistics.

For the two-branch map every length-n symbol string closes into exactly
one periodic point of the n-fold horizontal map, and the orbit weights
(inverse unstable jacobians) reproduce the symbol-process law of g
exactly.  For the four-branch map the orbit sum is only a diagnostic,
the trace tr M(z)^n of the exact law's class chain, from the same
recurrence as the law: every cycle has g = n (mod 2), and the law does
not keep to that lattice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from bakerfr.maps import (
    _within,
    as_fraction,
    common_denominator,
)
from bakerfr.fluctuation import (
    SymbolDistribution,
    _add_product,
    _chebyshev_u,
    exact_distribution,
)
from bakerfr.families import family
from bakerfr.transfer import ConsistencyError


# enumerate_orbits keeps all 2^n orbit rows of integers, about 320 bytes
# each at n = 20 (VmHWM over 2^20 rows).  Measured with upo_distribution at
# l = 2/3 (2-CPU Xeon container, Python 3.11.7, fresh process, wall time
# after the record build, VmHWM of the process, two runs each): 0.05-0.07 s
# and 20 MB at n = 14, 0.16-0.27 s and 35 MB at n = 16, 0.75-0.78 s and
# 95 MB at n = 18, and at the cap n = 20, 3.7-3.8 s and 338 MB.  Each
# symbol doubles both, so n = 21 would take about 0.7 GB; 20 stays as the
# largest length whose rows fit a batch run beside other jobs.
MAX_ORBIT_LENGTH = 20


class PeriodicOrbit(NamedTuple):
    """A length-n cyclic code with its exact periodic point, as a light
    row of integers: the code as its label string, the point and the
    weight each as a reduced pair."""

    label: str            # the code as its label string, e.g. "ABB"
    alpha: int            # visits to the left (expanding-weight l) strip
    beta: int             # visits to the right strip
    x_num: int            # fixed point x_num / x_den of the composed
    x_den: int            # horizontal branches, in lowest terms, x_den > 0
    weight_num: int       # inverse unstable jacobian l^alpha * r^beta,
    weight_den: int       # in lowest terms

    @property
    def x_point(self) -> Fraction:
        return Fraction(self.x_num, self.x_den)


def enumerate_orbits(l, n: int) -> list[PeriodicOrbit]:
    """All 2^n fixed points of the n-fold map, one per symbol string, in
    the lexicographic order of the codes.

    The code tree is walked depth first on integers.  Each branch is
    read once as x -> (s x + t) / r, and each node carries the composed
    affine branch x -> (a x + b) / q of its prefix, the weight (the
    product of the inverse slopes r / s) as a numerator and a denominator,
    and the count of left-strip visits.  A leaf builds one row of
    integers: its label string, its fixed point x_c = b / (q - a) and its
    weight (for l = p/q, p^alpha (q-p)^beta over q^n), each reduced by
    one gcd.  Then one step per code checks the orbits on integers: x_c
    must lie in the strip of c[0] (`_within`), and f_{c[0]}(x_c) must
    equal x_{rot(c)}, the fixed point of the code rotated left by one
    symbol (by cross-multiplication).  That step reads the action of each
    branch from the branch itself, at the two edges of its strip, not
    from the slope and intercept that the walk composed.  By induction
    over the rotations, every orbit then follows its code and closes up
    after n steps; otherwise `ConsistencyError` is raised."""
    l = as_fraction(l)
    if not 1 <= n <= MAX_ORBIT_LENGTH:
        raise ValueError(f"supported orbit lengths are 1..{MAX_ORBIT_LENGTH}")
    fam = family("map1", l)
    by_label = {b.label.value: b for b in fam.x_factor.branches}
    # (label, r, (s, t), left): slope s / r and intercept t / r over one
    # denominator, and whether the strip counts towards alpha
    steps = []
    # check[label]: the strip [lo, hi) as two integer pairs, and the
    # branch's action x -> (u x + v) / w, read from its values at lo and hi
    check = {}
    for lab in fam.labels:
        br = by_label[lab.value]
        steps.append((lab.value, *common_denominator((br.slope, br.intercept)),
                      fam.g[lab] == 1))
        slope = (br(br.hi) - br(br.lo)) / (br.hi - br.lo)
        w, (u, v) = common_denominator((slope, br(br.lo) - slope * br.lo))
        check[lab.value] = (*br.lo.as_integer_ratio(), *br.hi.as_integer_ratio(), u, v, w)
    orbits = []
    row = PeriodicOrbit._make

    # Depth first on purpose, unlike the level-wise oracles of `fluctuation`:
    # a frontier at MAX_ORBIT_LENGTH would hold 2^20 nodes beside the 2^20
    # rows.
    def walk(label: str, alpha: int, a: int, b: int, q: int, w_n: int, w_d: int) -> None:
        if len(label) == n:
            d = q - a
            if d == 0:
                raise ValueError("composed branch is not expanding; no unique fixed point")
            if d < 0:
                b, d = -b, -d
            c, e = math.gcd(b, d), math.gcd(w_n, w_d)
            orbits.append(row((label, alpha, n - alpha, b // c, d // c, w_n // e, w_d // e)))
            return
        for lab, r, (s, t), left in steps:
            walk(label + lab, alpha + left, s * a, s * b + t * q, r * q, w_n * r, w_d * s)

    walk("", 0, 1, 0, 1, 1, 1)
    # orbits[i] has the code whose digits in base k are those of i, first
    # symbol most significant, so rotating a code left by one symbol takes
    # index i to (i k) mod k^n + i div k^(n-1)
    k = len(fam.labels)
    size, top = k ** n, k ** (n - 1)
    for i, (label, _alpha, _beta, x_n, x_d, _w_n, _w_d) in enumerate(orbits):
        lo_n, lo_d, hi_n, hi_d, u, v, w = check[label[0]]
        if not _within(x_n, x_d, lo_n, lo_d, hi_n, hi_d):
            raise ConsistencyError(f"code {label} not realized at x={Fraction(x_n, x_d)}")
        rotated = orbits[i * k % size + i // top]
        # f(x_c) = (u x_n + v x_d) / (w x_d)
        if (u * x_n + v * x_d) * rotated.x_den != rotated.x_num * w * x_d:
            raise ConsistencyError(
                f"orbit {label} does not close: f_{label[0]}(x) = "
                f"{Fraction(u * x_n + v * x_d, w * x_d)} != {rotated.x_point}, "
                f"the point of {rotated.label}")
    return orbits


def upo_distribution(l, orbits: list[PeriodicOrbit]) -> SymbolDistribution:
    """Law of g from the weights of `orbits` (all orbits of one length, as
    `enumerate_orbits(l, n)` gives them) grouped by alpha - beta.  The
    weights already sum to one, (l + r)^n, so no extra normalization
    enters.  The integer weights are summed over the lcm of their
    denominators: the law's counts over that lcm.  Orbits other than all
    2^n of one length n, led by the all-A orbit of weight l^n, raise
    `ValueError`."""
    l = as_fraction(l)
    if not orbits:
        raise ValueError("no orbits: expected all orbits of one length")
    first = orbits[0]
    n, weight = len(first.label), Fraction(first.weight_num, first.weight_den)
    if len(orbits) != 2 ** n or first.label != "A" * n or weight != l ** n:
        raise ValueError(f"expected the 2^{n} orbits of length {n} at l = {l}, A^{n} of weight "
                         f"{l ** n} first; got {len(orbits)}, {first.label} of weight {weight}")
    den = math.lcm(*{o.weight_den for o in orbits})
    sums: dict[int, int] = {}
    for _label, alpha, beta, _x_n, _x_d, w_n, w_d in orbits:
        if alpha + beta != n:
            raise ValueError(f"orbits of two lengths, {n} and {alpha + beta}")
        sums[alpha - beta] = sums.get(alpha - beta, 0) + w_n * (den // w_d)
    total = sum(sums.values())
    if total != den:
        raise ConsistencyError(f"orbit weights sum to {Fraction(total, den)}, not 1")
    return SymbolDistribution("map1", l, n, sums, den)


class UPODiagnostic(NamedTuple):
    l: Fraction
    n: int
    cycles: int
    upo: SymbolDistribution       # the orbit sum, normalized
    chain: SymbolDistribution     # the exact symbol law
    total_variation: Fraction


def generalized_upo_diagnostic(l, n: int) -> UPODiagnostic:
    """Compare orbit-weight estimates with the exact symbol law for the
    four-branch map.  Exploratory output only: no agreement is asserted,
    the interesting quantity is how large the discrepancy gets.

    A cycle's weight is the product of the inverse projected slopes of
    its regions.  The record build checks that they equal `Family.col`
    and builds the transitions from `col`, so the weight is the product
    of the cycle's transition probabilities and the orbit sum is the
    trace tr P(z)^n of the region chain weighted by z^g.  The record
    checks that P(z) lumps to a class chain M(z) of at most two classes (see
    `families`), so the sum is tr M(z)^n, and by Cayley-Hamilton (see
    `fluctuation.exact_distribution`)
    D^n tr M^n = (D T)(D^(n-1) U_(n-1)) - 2 D^2 Delta (D^(n-2) U_(n-2)):
    two passes of the law's recurrence.  The cycle count is tr A^n of the
    0/1 successor matrix A, which lumps the same way: the power sums
    V_k = T V_(k-1) - Delta V_(k-2) of its two nonzero eigenvalues, with
    T = tr A, Delta = e2(A), V_0 = 2 and V_1 = T.  The guard is the
    law's."""
    l = as_fraction(l)
    chain = exact_distribution("map2", l, n)
    fam = family("map2", l)
    weights = [0] * (2 * n + 1)
    _add_product(weights, n, fam.trace, _chebyshev_u(fam, n - 1))
    _add_product(weights, n, {0: 1}, _chebyshev_u(fam, n - 2), -2 * fam.det.get(0, 0))
    labels, succ = fam.labels, fam.successors
    trace = sum(r in succ[r] for r in labels)
    delta = sum((r in succ[r]) * (s in succ[s]) - (s in succ[r]) * (r in succ[s])
                for i, r in enumerate(labels) for s in labels[i + 1:])
    cycles, previous = trace, 2
    for _ in range(n - 1):
        cycles, previous = trace * cycles - delta * previous, cycles
    total = sum(weights)
    upo = SymbolDistribution("map2", l, n, {k - n: w for k, w in enumerate(weights)}, total)
    # both laws over total * chain.total, so the distance is one Fraction
    gap = sum(abs(w * chain.total - chain.counts.get(k - n, 0) * total)
              for k, w in enumerate(weights))
    tv = Fraction(gap, 2 * total * chain.total)
    return UPODiagnostic(l, n, cycles, upo, chain, tv)
