"""The facts the paper states per map family, defined once and verified
once per strip width.

`symbols(name)` holds what does not depend on the strip width l: the
region labels in strip order, the g increment of each region, how the
time-reversal involution permutes the regions, and which region may
follow which.  `family(name, l)` extends that with every closed form in
l: the strip partition, the one-step transition probabilities and the
common nonzero entry `col` of each of their columns, the stationary
region weights, the contraction unit base, the mean g per step psi,
the band [4l, 1/(4l)] of the fluctuation-ratio correction, and the map
at l, `map`, with its projection `x_factor`, which every consumer reads.

The first `family(name, l)` call for a given (name, l) builds and
projects the map once and, for both families, compares the closed forms
with that geometry: the branch strips, the inverse slopes of the
projected strips (against `col`), `transfer.transition_matrix` and
`transfer.region_measures` of `x_factor`.  That derives the strip chain
twice: once labelled for the transitions, once inside the stationary
solve of `transfer.invariant_density`, which the measures read.  For
map2 it also compares `multibaker.analytic_current` with psi =
sum(mu * g) over those measures.  It raises `ConsistencyError` on any
disagreement; later calls return the same record from the cache.  Its
mappings are read-only, so no caller can alter the cached facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from bakerfr import maps, transfer
from bakerfr.maps import PiecewiseAffineMap, RegionLabel, as_fraction
from bakerfr.transfer import ConsistencyError, Map1D, StepDensity

A, B, C, D = RegionLabel.A, RegionLabel.B, RegionLabel.C, RegionLabel.D

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Symbols:
    """Symbolic dynamics of a family, independent of the strip width."""

    name: str
    labels: tuple[RegionLabel, ...]
    g: Mapping[RegionLabel, int]                      # g increment per region
    conjugacy: Mapping[RegionLabel, RegionLabel]      # region of G(M(p)) given region of p
    successors: Mapping[RegionLabel, tuple[RegionLabel, ...]]
    builder: str                                      # map builder in bakerfr.maps


_SYMBOLS = {
    "map1": Symbols(
        "map1", (A, B),
        g=MappingProxyType({A: 1, B: -1}),
        conjugacy=MappingProxyType({A: B, B: A}),
        successors=MappingProxyType({A: (A, B), B: (A, B)}),
        builder="build_simple_baker"),
    "map2": Symbols(
        "map2", (A, B, C, D),
        g=MappingProxyType({A: 0, B: 1, C: -1, D: 0}),
        conjugacy=MappingProxyType({A: A, B: C, C: B, D: D}),
        successors=MappingProxyType({A: (C, D), B: (A, B), C: (C, D), D: (A, B)}),
        builder="build_generalized_baker"),
}


def symbols(name: str) -> Symbols:
    try:
        return _SYMBOLS[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None


@dataclass(frozen=True)
class Family(Symbols):
    """Every per-parameter fact of one family at one strip width l."""

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
    per (name, l)."""
    symbols(name)
    return _family(name, as_fraction(l))


@lru_cache(maxsize=None)
def _family(name: str, l: Fraction) -> Family:
    sym = _SYMBOLS[name]
    if name == "map1":
        if not 0 < l < 1:
            raise ValueError(f"need 0 < l < 1, got {l}")
        edges = (_ZERO, l, _ONE)
        # uniform invariant x-density: the stationary weights are the strip
        # widths and successive symbols are independent draws from them
        stationary = column = {A: l, B: 1 - l}
        unit_base = l / (1 - l)
        alpha_bounds = (_ONE, _ONE)
    else:
        if not 0 < l <= Fraction(1, 4):
            raise ValueError(f"need 0 < l <= 1/4, got {l}")
        edges = (_ZERO, l, _HALF, Fraction(3, 4), _ONE)
        # A and C jump to C or D with probability 1/2 each; B and D jump to
        # A with probability 2l and to B with probability 1-2l
        column = {A: 2 * l, B: 1 - 2 * l, C: _HALF, D: _HALF}
        stationary = {A: 2 * l / (1 + 4 * l), B: (1 - 2 * l) / (1 + 4 * l),
                      C: 2 * l / (1 + 4 * l), D: 2 * l / (1 + 4 * l)}
        unit_base = 2 * (1 - 2 * l)
        alpha_bounds = (4 * l, 1 / (4 * l))
    partition = tuple(zip(edges, edges[1:], sym.labels))
    trans = {(i, j): column[j] if j in sym.successors[i] else _ZERO
             for i in sym.labels for j in sym.labels}
    widths = {lab: hi - lo for lo, hi, lab in partition}
    m = getattr(maps, sym.builder)(l)
    fam = Family(
        **vars(sym), l=l, partition=partition,
        trans=MappingProxyType(trans), col=MappingProxyType(column),
        initial=MappingProxyType({"stationary": MappingProxyType(stationary),
                                  "uniform": MappingProxyType(widths)}),
        unit_base=unit_base,
        psi=sum(stationary[lab] * sym.g[lab] for lab in sym.labels),
        alpha_bounds=alpha_bounds, map=m, x_factor=transfer.project_unstable(m))
    _verify(fam)
    return fam


def _verify(fam: Family) -> None:
    """Check the closed forms of `fam` against each other and against the
    map geometry."""
    from bakerfr import multibaker

    labels, trans, mu = fam.labels, fam.trans, fam.stationary
    strips = tuple((b.x_lo, b.x_hi, b.label) for b in fam.map.branches)
    if strips != fam.partition:
        raise ConsistencyError(f"partition {fam.partition} != branch strips {strips}")
    inverse_slopes = {b.label: 1 / abs(b.slope) for b in fam.x_factor.branches}
    if inverse_slopes != fam.col:
        raise ConsistencyError(
            f"inverse strip slopes {inverse_slopes} != column weights {dict(fam.col)}")
    up, down = (next(lab for lab in labels if fam.g[lab] == s) for s in (1, -1))
    if trans[(up, up)] / trans[(down, down)] != fam.unit_base:
        raise ConsistencyError("stay-probability ratio must equal the unit base")
    geo = transfer.transition_matrix(fam.x_factor)
    if geo != trans:
        raise ConsistencyError(
            f"geometric transition rows {geo} != closed form {dict(trans)}")
    measured = transfer.region_measures(fam.x_factor)
    if measured != mu:
        raise ConsistencyError(f"measures {measured} != closed form {dict(mu)}")
    if fam.name == "map2":
        # the measure route of the current: psi = sum(mu * g), mu as checked above
        current = multibaker.analytic_current(fam.l)
        if current != fam.psi:
            raise ConsistencyError(f"current route {current} != measure route {fam.psi}")
