"""Unstable-periodic-orbit expansion of the contraction statistics.

For the two-branch map every length-n symbol string closes into exactly
one periodic point of the n-fold horizontal map, and the orbit weights
(inverse unstable jacobians) reproduce the symbol-process law of g
exactly.  For the four-branch map the same construction is exposed only
as a diagnostic: its stationary density is discontinuous along the
expanding direction, and the orbit weights need not reproduce the law.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from bakerfr.maps import SCHEMA_VERSION, RegionLabel, as_fraction, build_simple_baker
from bakerfr.fluctuation import (
    SymbolDistribution,
    admissible_sequences,
    chain_spec,
    exact_distribution,
)
from bakerfr.transfer import ConsistencyError, project_unstable

_ZERO = Fraction(0)
_ONE = Fraction(1)

MAX_ORBIT_LENGTH = 20


@dataclass(frozen=True)
class PeriodicOrbit:
    """A length-n cyclic code with its exact periodic point."""

    code: tuple[RegionLabel, ...]
    alpha: int            # visits to the left (expanding-weight l) strip
    beta: int             # visits to the right strip
    x_point: Fraction     # fixed point of the composed horizontal branches
    weight: Fraction      # inverse unstable jacobian l^alpha * r^beta

    @property
    def g(self) -> int:
        return self.alpha - self.beta

    def text(self) -> str:
        return "".join(lab.value for lab in self.code)


def _compose_fixed_point(branches_by_label, code) -> Fraction:
    """Exact fixed point of f_{c_{n-1}} o ... o f_{c_0}."""
    a, b = _ONE, _ZERO
    for lab in code:
        br = branches_by_label[lab]
        a, b = br.slope * a, br.slope * b + br.intercept
    if a == 1:
        raise ValueError("composed branch is not expanding; no unique fixed point")
    return b / (1 - a)


def enumerate_orbits(l, n: int) -> list[PeriodicOrbit]:
    """All 2^n fixed points of the n-fold map, one per symbol string.

    Each periodic point is solved exactly from the composed affine
    branches and verified to follow its code and to close up after n
    steps of the horizontal map."""
    l = as_fraction(l)
    if not 1 <= n <= MAX_ORBIT_LENGTH:
        raise ValueError(f"supported orbit lengths are 1..{MAX_ORBIT_LENGTH}")
    m = build_simple_baker(l)
    map1d = project_unstable(m)
    by_label = {RegionLabel.A: map1d.branches[0], RegionLabel.B: map1d.branches[1]}
    r = 1 - l
    orbits = []
    for code in product((RegionLabel.A, RegionLabel.B), repeat=n):
        x = _compose_fixed_point(by_label, code)
        pt = x
        for lab in code:
            if not (by_label[lab].lo <= pt < by_label[lab].hi or pt == by_label[lab].hi == 1):
                raise ConsistencyError(f"code {code} not realized at x={x}")
            pt = by_label[lab](pt)
        if pt != x:
            raise ConsistencyError(f"orbit {code} does not close: {pt} != {x}")
        alpha = sum(1 for lab in code if lab == RegionLabel.A)
        beta = n - alpha
        orbits.append(PeriodicOrbit(code, alpha, beta, x, l ** alpha * r ** beta))
    return orbits


def upo_distribution(l, orbits: list[PeriodicOrbit]) -> SymbolDistribution:
    """Law of g from the weights of `orbits` (all orbits of one length, as
    `enumerate_orbits(l, n)` gives them) grouped by alpha - beta.  The
    weights already sum to one, (l + r)^n, so no extra normalization
    enters."""
    l = as_fraction(l)
    n = len(orbits[0].code)
    total = sum(o.weight for o in orbits)
    if total != 1:
        raise ConsistencyError(f"orbit weights sum to {total}, not 1")
    probs: dict[int, Fraction] = {}
    for o in orbits:
        probs[o.g] = probs.get(o.g, _ZERO) + o.weight
    return SymbolDistribution("map1", l, n, probs)


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
    the interesting quantity is how large the discrepancy gets."""
    l = as_fraction(l)
    if not 1 <= n <= MAX_ORBIT_LENGTH:
        raise ValueError(f"supported cycle lengths are 1..{MAX_ORBIT_LENGTH}")
    spec = chain_spec("map2", l)
    inv_slope = {b.label: 1 / b.linear[0][0] for b in spec.fam.build_map().branches}
    cycles = 0
    weights: dict[int, Fraction] = {}
    total = _ZERO
    for seq in admissible_sequences(spec, n):
        if seq[0] not in spec.successors(seq[-1]):
            continue
        cycles += 1
        w = _ONE
        for lab in seq:
            w *= inv_slope[lab]
        g = sum(spec.delta(lab) for lab in seq)
        weights[g] = weights.get(g, _ZERO) + w
        total += w
    upo_probs = {g: w / total for g, w in weights.items()}
    chain = exact_distribution("map2", l, n)
    support = set(upo_probs) | set(chain.probs)
    tv = sum(abs(upo_probs.get(g, _ZERO) - chain.prob(g)) for g in support) / 2
    return UPODiagnostic(l, n, cycles, upo_probs, dict(chain.probs), tv)


def write_orbits_csv(orbits, path) -> None:
    """Rows (code, alpha, beta, weight_num, weight_den, x_point)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("code,alpha,beta,weight_num,weight_den,x_point\n")
        for o in orbits:
            fh.write(f"{o.text()},{o.alpha},{o.beta},"
                     f"{o.weight.numerator},{o.weight.denominator},"
                     f"{o.x_point.numerator}/{o.x_point.denominator}\n")
