"""The facts of each map family, derived from its map once per strip
width l.

`family(name, l)` builds the family's map at l, projects it once on the
expanding direction (`x_factor`) and derives the record from that
geometry: the region labels and strip partition from the branch strips,
the one-step transition probabilities from
`transfer.transition_matrix(x_factor)`, the common nonzero entry `col`
of each of their columns and the successors of each region from the
nonzero pattern, the contraction unit base from the jacobian of the
g = -1 region, and the band [min r / max r, max r / min r], r = mu /
col, of the fluctuation-ratio correction: the extremes of the boundary
terms of `fluctuation._alpha_direct`.

`_STATED` holds, per family, only what the geometry cannot give: the
map builder, the g increment of each region (the observable), how the
time-reversal involution permutes the regions (which
`maps.verify_reversibility` proves), and the stationary region weights,
the paper's discontinuous invariant measure.  The weights stay stated so
that the build has a second route to check `transfer.region_measures`
against; derived from it, they would make `bakerfr density` compare
`invariant_density` with itself.

The first call for a given (name, l) checks the record (`_verify`): the
inverse strip slopes against `col`, every branch jacobian against
`unit_base ** -g`, the stay-probability ratio of the g = +1 and g = -1
regions against the unit base, the stated weights against
`region_measures(x_factor)`, and for map2 `multibaker.analytic_current`
against psi = sum(mu * g).  The strip chain is derived twice: once
labelled for the transitions, once inside the stationary solve of
`transfer.invariant_density`, which the measures read.  Any disagreement
raises `ConsistencyError`; later calls return the same record from the
cache.  Its mappings are read-only, so no caller can alter the cached
facts.
"""

from __future__ import annotations

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
    fam = Family(
        name, labels, MappingProxyType(g), MappingProxyType(conjugacy),
        successors=MappingProxyType({i: tuple(j for j in labels if trans[i, j])
                                     for i in labels}),
        builder=builder, l=l, partition=partition,
        trans=MappingProxyType(trans), col=MappingProxyType(col),
        initial=MappingProxyType({
            "stationary": MappingProxyType(stationary),
            "uniform": MappingProxyType({lab: hi - lo for lo, hi, lab in partition})}),
        unit_base=unit_base,
        psi=sum(stationary[lab] * g[lab] for lab in labels),
        alpha_bounds=(min(ratios) / max(ratios), max(ratios) / min(ratios)),
        map=m, x_factor=x_factor)
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
