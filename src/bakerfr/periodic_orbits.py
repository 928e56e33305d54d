"""Unstable-periodic-orbit expansion of the contraction statistics.

For the two-branch map every length-n symbol string closes into exactly
one periodic point of the n-fold horizontal map, and the orbit weights
(inverse unstable jacobians) reproduce the symbol-process law of g
exactly.  For the four-branch map the orbit sum is only a diagnostic,
the trace of the exact law's kernel: every cycle has g = n (mod 2), and
the law does not keep to that lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from bakerfr.maps import (
    SCHEMA_VERSION,
    RegionLabel,
    as_fraction,
    common_denominator,
    in_interval,
)
from bakerfr.fluctuation import SymbolDistribution, _slots, _tilted_steps, exact_distribution
from bakerfr.families import family
from bakerfr.transfer import ConsistencyError

_ZERO = Fraction(0)

# enumerate_orbits keeps all 2^n orbit rows, about 340 bytes each.
# Measured with upo_distribution at l = 2/3 (2-CPU Xeon container,
# Python 3.11), time and peak RSS of the process: 0.23 s and 21 MB at
# n = 14, 0.7-0.85 s and 37 MB at n = 16, 3.4-3.5 s and 100 MB at n = 18;
# about 4x per two steps, so about 14 s and 0.35 GB at n = 20 (not run).
# The cap of 20 keeps that within a batch run.
MAX_ORBIT_LENGTH = 20


@dataclass(slots=True)
class PeriodicOrbit:
    """A length-n cyclic code with its exact periodic point, as a light
    row: the code as its label string and the weight as two integers."""

    label: str            # the code as its label string, e.g. "ABB"
    alpha: int            # visits to the left (expanding-weight l) strip
    beta: int             # visits to the right strip
    x_point: Fraction     # fixed point of the composed horizontal branches
    weight_num: int       # inverse unstable jacobian l^alpha * r^beta,
    weight_den: int       # in lowest terms

    @property
    def code(self) -> tuple[RegionLabel, ...]:
        return tuple(map(RegionLabel, self.label))

    @property
    def weight(self) -> Fraction:
        return Fraction(self.weight_num, self.weight_den)

    @property
    def g(self) -> int:
        return self.alpha - self.beta

    def text(self) -> str:
        return self.label


def enumerate_orbits(l, n: int) -> list[PeriodicOrbit]:
    """All 2^n fixed points of the n-fold map, one per symbol string, in
    the lexicographic order of the codes.

    The code tree is walked depth first on integers.  Each branch is
    read once as x -> (s x + t) / r, and each node carries the composed
    affine branch x -> (a x + b) / q of its prefix, the weight (the
    product of the inverse slopes r / s) as a numerator and a denominator,
    and the count of left-strip visits.  A leaf builds one row: its label
    string, its fixed point x_c = b / (q - a), the one `Fraction`, and its
    weight reduced by one gcd (for l = p/q, the integers p^alpha
    (q-p)^beta and q^n).  Then one step per code checks the orbits: x_c
    must lie in the strip of c[0], and f_{c[0]}(x_c) must equal
    x_{rot(c)}, the fixed point of the code rotated left by one symbol
    (compared by cross-multiplication).  By induction over the rotations,
    every orbit then follows its code and closes up after n steps;
    otherwise `ConsistencyError` is raised."""
    l = as_fraction(l)
    if not 1 <= n <= MAX_ORBIT_LENGTH:
        raise ValueError(f"supported orbit lengths are 1..{MAX_ORBIT_LENGTH}")
    fam = family("map1", l)
    by_label = {b.label.value: b for b in fam.x_factor.branches}
    # (label, r, (s, t), left): slope s / r and intercept t / r over one
    # denominator, and whether the strip counts towards alpha
    steps = []
    for lab in fam.labels:
        br = by_label[lab.value]
        steps.append((lab.value, *common_denominator((br.slope, br.intercept)),
                      fam.g[lab] == 1))
    orbits = []

    def walk(label: str, alpha: int, a: int, b: int, q: int, w_n: int, w_d: int) -> None:
        if len(label) == n:
            if a == q:
                raise ValueError("composed branch is not expanding; no unique fixed point")
            c = math.gcd(w_n, w_d)
            orbits.append(PeriodicOrbit(label, alpha, n - alpha, Fraction(b, q - a),
                                        w_n // c, w_d // c))
            return
        for lab, r, (s, t), left in steps:
            walk(label + lab, alpha + left, s * a, s * b + t * q, r * q, w_n * r, w_d * s)

    walk("", 0, 1, 0, 1, 1, 1)
    # orbits[i] has the code whose digits in base k are those of i, first
    # symbol most significant, so rotating a code left by one symbol takes
    # index i to (i k) mod k^n + i div k^(n-1)
    k = len(fam.labels)
    size, top = k ** n, k ** (n - 1)
    for i, o in enumerate(orbits):
        br = by_label[o.label[0]]
        if not in_interval(o.x_point, br.lo, br.hi):
            raise ConsistencyError(f"code {o.label} not realized at x={o.x_point}")
        image = br(o.x_point)
        rotated = orbits[i * k % size + i // top]
        x = rotated.x_point
        if image.numerator * x.denominator != x.numerator * image.denominator:
            raise ConsistencyError(
                f"orbit {o.label} does not close: f_{o.label[0]}(x) = {image} != "
                f"{x}, the point of {rotated.label}")
    return orbits


def upo_distribution(l, orbits: list[PeriodicOrbit]) -> SymbolDistribution:
    """Law of g from the weights of `orbits` (all orbits of one length, as
    `enumerate_orbits(l, n)` gives them) grouped by alpha - beta.  The
    weights already sum to one, (l + r)^n, so no extra normalization
    enters.  The integer weights are summed over the lcm of their
    denominators, with one `Fraction` per g."""
    l = as_fraction(l)
    n = len(orbits[0].label)
    den = math.lcm(*{o.weight_den for o in orbits})
    sums: dict[int, int] = {}
    for o in orbits:
        sums[o.g] = sums.get(o.g, 0) + o.weight_num * (den // o.weight_den)
    total = sum(sums.values())
    if total != den:
        raise ConsistencyError(f"orbit weights sum to {Fraction(total, den)}, not 1")
    return SymbolDistribution("map1", l, n, {g: Fraction(c, den) for g, c in sums.items()})


@dataclass(frozen=True)
class UPODiagnostic:
    l: Fraction
    n: int
    cycles: int
    upo_probs: dict[int, Fraction]
    chain_probs: dict[int, Fraction]
    total_variation: Fraction

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "l": f"{self.l.numerator}/{self.l.denominator}",
            "n": self.n,
            "cycles": self.cycles,
            "total_variation": str(self.total_variation),
            "upo": {str(g): str(p) for g, p in sorted(self.upo_probs.items())},
            "chain": {str(g): str(p) for g, p in sorted(self.chain_probs.items())},
        }


def generalized_upo_diagnostic(l, n: int) -> UPODiagnostic:
    """Compare orbit-weight estimates with the exact symbol law for the
    four-branch map.  Exploratory output only: no agreement is asserted,
    the interesting quantity is how large the discrepancy gets.

    A cycle's weight is the product of the inverse projected slopes of
    its regions.  The record build checks that they equal `Family.col`
    and builds the transitions from `col`, so the weight is the product
    of the cycle's transition probabilities and the orbit sum is the
    trace tr P(z)^n of the chain weighted by z^g: n steps of
    `_tilted_steps` from 1 in region s leave D^n times the weights of the
    cycles through s in v[s], at most k D^n over k regions.  The cycle
    count is tr A^n, A the 0/1 successor matrix; the guard is the law's."""
    l = as_fraction(l)
    chain = exact_distribution("map2", l, n)
    fam = family("map2", l)
    d = math.lcm(*(p.denominator for p in fam.trans.values()))
    nbytes = (len(fam.labels) * d ** n).bit_length() // 8 + 1
    trace = cycles = 0
    for s in fam.labels:
        walks = unit = {r: int(r == s) for r in fam.labels}
        trace += _tilted_steps(fam, d, unit, n, 8 * nbytes)[s]
        for _ in range(n):
            walks = {t: sum(walks[r] for r in fam.labels if t in fam.successors[r])
                     for t in fam.labels}
        cycles += walks[s]
    weights = _slots(trace, 2 * n + 1, nbytes)
    total = sum(weights)
    upo_probs = {k - n: Fraction(w, total) for k, w in enumerate(weights) if w}
    support = set(upo_probs) | set(chain.probs)
    tv = sum(abs(upo_probs.get(g, _ZERO) - chain.prob(g)) for g in support) / 2
    return UPODiagnostic(l, n, cycles, upo_probs, dict(chain.probs), tv)


def write_orbits_csv(orbits, path) -> None:
    """Rows (code, alpha, beta, weight_num, weight_den, x_point)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("code,alpha,beta,weight_num,weight_den,x_point\n")
        for o in orbits:
            fh.write(f"{o.label},{o.alpha},{o.beta},{o.weight_num},{o.weight_den},"
                     f"{o.x_point.numerator}/{o.x_point.denominator}\n")
