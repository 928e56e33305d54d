"""The facts of each map family, derived from its map once per strip
width l.

`family(name, l)` builds the family's map at l, projects it once on the
expanding direction (`x_factor`) and derives the record from that
geometry: the region labels and strip partition from the branch strips,
the one-step transition probabilities from
`transfer.transition_matrix(x_factor)`, the common nonzero entry `col`
of each of their columns and the successors of each region from the
nonzero pattern, the class chain (below), the contraction unit base
from the jacobian of the g = -1 region, and the band
[min r / max r, max r / min r], r = mu / col, of the fluctuation-ratio
correction: the extremes of the boundary terms of the per-sequence
correction that `fluctuation.alpha_bounds_check` checks.

The class chain groups the regions with equal successor sets.  If every
region of a class has the same transition row (checked), the z^g-tilted
region chain, g counted on arrival, factors as P(z) = L R, L the 0/1
region-to-class matrix and R[x, s] = p(x, s) z^(g_s); the class chain
M(z) = R L has the same law of g, and tr P(z)^n = tr M(z)^n.  Map2
lumps to {A, C}, {B, D} with M(z) = [[1/(2z), 1/2], [2l, (1-2l) z]],
map1 to one class.  `into[y]` holds one term (x, D p(x, s), g_s) per
region s of class y entered from class x, D = `den`.

`_STATED` holds, per family, only what the geometry cannot give: the
map builder, the g increment of each region (the observable), how the
time-reversal involution permutes the regions (which
`maps.verify_reversibility` proves), and the stationary region weights,
the paper's discontinuous invariant measure.  The weights stay stated so
that the build has a second route to check `transfer.region_measures`
against; derived from it, they would make `bakerfr density` compare
`invariant_density` with itself.

The first call for a given (name, l) checks the record (`_verify`): the
inverse strip slopes against `col`, every region of a class against the
transition row of the class's first region (the lumping condition),
every branch jacobian against `unit_base ** -g`, the stay-probability
ratio of the g = +1 and g = -1 regions against the unit base, the
stated weights against `region_measures(x_factor)`, and for map2
`multibaker.analytic_current` against psi = sum(mu * g).  The strip chain is derived twice: once
labelled for the transitions, once inside the stationary solve of
`transfer.invariant_density`, which the measures read.  Any disagreement
raises `ConsistencyError`; later calls return the same record from the
cache.  Its mappings are read-only, so no caller can alter the cached
facts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from bakerfr import maps, transfer
from bakerfr.maps import PiecewiseAffineMap, RegionLabel, as_fraction
from bakerfr.transfer import ConsistencyError, Map1D, StepDensity

A, B, C, D = RegionLabel.A, RegionLabel.B, RegionLabel.C, RegionLabel.D

#: per family: the map builder in `bakerfr.maps`, the g increment of each
#: region, the region of G(M(p)) given the region of p, and the stationary
#: region weights at l
_STATED = {
    # uniform invariant x-density: the weights are the strip widths
    "map1": ("build_simple_baker", {A: 1, B: -1}, {A: B, B: A},
             lambda l: {A: l, B: 1 - l}),
    "map2": ("build_generalized_baker", {A: 0, B: 1, C: -1, D: 0},
             {A: A, B: C, C: B, D: D},
             lambda l: {A: 2 * l / (1 + 4 * l), B: (1 - 2 * l) / (1 + 4 * l),
                        C: 2 * l / (1 + 4 * l), D: 2 * l / (1 + 4 * l)}),
}


class Family(NamedTuple):
    """Every per-parameter fact of one family at one strip width l.
    `builder`, `g`, `conjugacy` and the stationary weights are stated;
    `map` and `x_factor` are built, and the other fields are derived
    from them."""

    name: str
    labels: tuple[RegionLabel, ...]
    g: Mapping[RegionLabel, int]                      # g increment per region
    conjugacy: Mapping[RegionLabel, RegionLabel]      # region of G(M(p)) given region of p
    successors: Mapping[RegionLabel, tuple[RegionLabel, ...]]
    builder: str                                      # map builder in bakerfr.maps
    l: Fraction
    partition: tuple[tuple[Fraction, Fraction, RegionLabel], ...]
    trans: Mapping[tuple[RegionLabel, RegionLabel], Fraction]
    col: Mapping[RegionLabel, Fraction]  # common nonzero entry of each column of trans
    initial: Mapping[str, Mapping[RegionLabel, Fraction]]  # "stationary", "uniform"
    unit_base: Fraction          # log of it is the contraction per unit of g
    psi: Fraction                # steady-state mean g per step
    alpha_bounds: tuple[Fraction, Fraction]
    classes: tuple[tuple[RegionLabel, ...], ...]  # regions with equal successors
    den: int                     # lcm D of the transition denominators
    into: tuple[tuple[tuple[int, int, int], ...], ...]  # per class y: (x, D p(x, s), g_s)
    map: PiecewiseAffineMap      # the family's map at l, as checked by the build
    x_factor: Map1D              # its projection on the expanding direction

    @property
    def stationary(self) -> Mapping[RegionLabel, Fraction]:
        return self.initial["stationary"]

    @property
    def density(self) -> StepDensity:
        """Stationary x-density: each region's weight spread evenly over
        its strip, adjacent equal values merged."""
        edges = (self.partition[0][0],) + tuple(hi for _lo, hi, _lab in self.partition)
        return StepDensity(edges, tuple(self.stationary[lab] / (hi - lo)
                                        for lo, hi, lab in self.partition)).simplify()


def family(name: str, l) -> Family:
    """The verified record of family `name` at strip width `l`, built once
    per (name, l).  An unknown name or an l outside the family's range
    raises `ValueError`."""
    if name not in _STATED:
        raise ValueError(f"unknown family {name!r}")
    return _family(name, as_fraction(l))


@lru_cache(maxsize=None)
def _family(name: str, l: Fraction) -> Family:
    builder, g, conjugacy, weights = _STATED[name]
    m = getattr(maps, builder)(l)
    x_factor = transfer.project_unstable(m)
    partition = tuple((b.x_lo, b.x_hi, b.label) for b in m.branches)
    labels = tuple(lab for _lo, _hi, lab in partition)
    trans = transfer.transition_matrix(x_factor)
    # transition_matrix checks that the nonzero entries of each column are
    # equal, so the largest is that entry
    col = {j: max(trans[i, j] for i in labels) for j in labels}
    [unit_base] = {b.jacobian for b in m.branches if g[b.label] == -1}
    stationary = weights(l)
    ratios = [stationary[lab] / col[lab] for lab in labels]
    successors = {i: tuple(j for j in labels if trans[i, j]) for i in labels}
    classes = tuple(tuple(r for r in labels if successors[r] == key)
                    for key in dict.fromkeys(successors.values()))
    den = math.lcm(*(p.denominator for p in trans.values()))
    into = tuple(
        tuple((x, (trans[cls[0], s] * den).numerator, g[s])
              for s in target for x, cls in enumerate(classes) if trans[cls[0], s])
        for target in classes)
    fam = Family(
        name, labels, MappingProxyType(g), MappingProxyType(conjugacy),
        successors=MappingProxyType(successors),
        builder=builder, l=l, partition=partition,
        trans=MappingProxyType(trans), col=MappingProxyType(col),
        initial=MappingProxyType({
            "stationary": MappingProxyType(stationary),
            "uniform": MappingProxyType({lab: hi - lo for lo, hi, lab in partition})}),
        unit_base=unit_base,
        psi=sum(stationary[lab] * g[lab] for lab in labels),
        alpha_bounds=(min(ratios) / max(ratios), max(ratios) / min(ratios)),
        classes=classes, den=den, into=into, map=m, x_factor=x_factor)
    _verify(fam)
    return fam


def _verify(fam: Family) -> None:
    """Check the fields of `fam` derived by one route against a second
    route, and the stated weights against the geometry."""
    from bakerfr import multibaker

    labels, trans, mu = fam.labels, fam.trans, fam.stationary
    inverse_slopes = {b.label: 1 / abs(b.slope) for b in fam.x_factor.branches}
    if inverse_slopes != fam.col:
        raise ConsistencyError(
            f"inverse strip slopes {inverse_slopes} != column weights {dict(fam.col)}")
    for cls in fam.classes:
        for lab in cls[1:]:
            if any(trans[lab, t] != trans[cls[0], t] for t in labels):
                raise ConsistencyError(f"region {lab.value} has another transition row "
                                       f"than {cls[0].value}, the first of its class")
    jacobians = {b.label: b.jacobian for b in fam.map.branches}
    powers = {lab: fam.unit_base ** -fam.g[lab] for lab in labels}
    if jacobians != powers:
        raise ConsistencyError(
            f"branch jacobians {jacobians} != unit base {fam.unit_base} "
            f"to the power -g {powers}")
    up, down = (next(lab for lab in labels if fam.g[lab] == s) for s in (1, -1))
    if trans[(up, up)] / trans[(down, down)] != fam.unit_base:
        raise ConsistencyError("stay-probability ratio must equal the unit base")
    measured = transfer.region_measures(fam.x_factor)
    if measured != mu:
        raise ConsistencyError(f"measures {measured} != closed form {dict(mu)}")
    if fam.name == "map2":
        # the measure route of the current: psi = sum(mu * g), mu as checked above
        current = multibaker.analytic_current(fam.l)
        if current != fam.psi:
            raise ConsistencyError(f"current route {current} != measure route {fam.psi}")
