"""The facts of each map family, derived from its map once per strip
width l.

`family(name, l)` builds the family's map at l, projects it once on the
expanding direction (`x_factor`) and derives the record from that
geometry: the region labels and uniform weights from its strips, the
one-step transition probabilities from
`transfer.transition_matrix(x_factor)`, the common nonzero entry `col`
of each of their columns and the successors of each region from the
nonzero pattern, the polynomials of the exact law (below), the
contraction unit base from the jacobian of the g = -1 region, and the
band [min r / max r, max r / min r], r = mu / col, of the
fluctuation-ratio correction: the extremes of the boundary terms of the
per-sequence correction that `fluctuation.alpha_bounds_check` checks.

The exact law reads a few Laurent polynomials of the z^g-tilted region
chain P(z)[r, s] = p(r, s) z^(g_s), g counted on arrival, derived once
per l as {power of z: integer}.  With D = `den` and dp[r, s] = D p(r, s):
D T(z) = sum_r dp[r, r] z^(g_r); D^2 Delta, the sum over r < s of
(dp[r, r] dp[s, s] - dp[r, s] dp[s, r]) z^(g_r + g_s), the second
elementary symmetric function e2 of D P(z) (empty where it is 0); and
per start weights w, with E the lcm of their denominators, E s 1 =
sum_r E w(r) z^(g_r) and E D s M(z) 1 = sum_(r, t) E w(r) dp[r, t]
z^(g_r + g_t) (see `fluctuation.exact_distribution`).  These are the
trace, determinant and start terms of a class chain M(z) of at most two
states: the regions with equal successor sets form a class, and if
every region of a class has the same transition row (checked), P(z) =
L R(z), L the 0/1 region-to-class matrix and R[x, t] = p(x, t) z^(g_t).
Then P(z) has rank at most the number of classes, and M(z) = R(z) L has
the same nonzero eigenvalues, so tr M = tr P and, for two classes,
det M = e2(P): the chain is lumpable in the sense of Kemeny and Snell,
*Finite Markov Chains* (1960).  Map2 lumps to {A, C}, {B, D} with
M(z) = [[1/(2z), 1/2], [2l, (1-2l) z]], so a = D (1 - 2l), b = D/2 in
D T = a z + b/z and Delta = 1/2 - 2l; map1 is one class, whose law is
(a z + b/z) to a power.

`_STATED` holds, per family, only what the geometry cannot give: the
map builder, the g increment of each region (the observable), how the
time-reversal involution permutes the regions (which
`maps.verify_reversibility` proves), and the stationary region weights,
the paper's discontinuous invariant measure.  The weights stay stated so
that the build has a second route to check `transfer.region_measures`
against; derived from it, they would make `bakerfr density` compare
`invariant_density` with itself.

The first call for a given (name, l) checks the record (`_verify`): the
inverse strip slopes against `col`, every region of a class (the regions
grouped by successor set) against the transition row of the class's
first region (the lumping condition), every branch jacobian against
`unit_base ** -g`, the stay-probability ratio of the g = +1 and g = -1
regions against the unit base, the stated weights against
`region_measures(x_factor)`, and for map2 `multibaker.analytic_current`
against psi = sum(mu * g).  The strip chain is derived twice: once
labelled for the transitions, once inside the one stationary solve of
`transfer`, which `region_measures` reads.  It also checks that the chain
has the shape the exact law's recurrence needs (one or two classes, a
two-term D T and a z-free D^2 Delta) and that each start's E D s M(1) 1
is D times its E s(1) 1, the transition rows summing to one.  Any
disagreement raises `ConsistencyError`; later calls return the same
record from the cache.  Its mappings are read-only, so no caller can
alter the cached facts.
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
    `g`, `conjugacy` and the stationary weights are stated; `map` and
    `x_factor` are built by the family's builder, and the other fields are
    derived from them."""

    name: str
    labels: tuple[RegionLabel, ...]
    g: Mapping[RegionLabel, int]                      # g increment per region
    conjugacy: Mapping[RegionLabel, RegionLabel]      # region of G(M(p)) given region of p
    successors: Mapping[RegionLabel, tuple[RegionLabel, ...]]
    l: Fraction
    trans: Mapping[tuple[RegionLabel, RegionLabel], Fraction]
    col: Mapping[RegionLabel, Fraction]  # common nonzero entry of each column of trans
    initial: Mapping[str, Mapping[RegionLabel, Fraction]]  # "stationary", "uniform"
    unit_base: Fraction          # log of it is the contraction per unit of g
    psi: Fraction                # steady-state mean g per step
    alpha_bounds: tuple[Fraction, Fraction]
    den: int                     # lcm D of the transition denominators
    trace: Mapping[int, int]     # D tr M(z), {power of z: coefficient}
    det: Mapping[int, int]       # D^2 det M(z); empty where it is 0 and for one class
    starts: Mapping[str, tuple[Mapping[int, int], Mapping[int, int]]]  # E s 1, E D s M 1
    map: PiecewiseAffineMap      # the family's map at l, as checked by the build
    x_factor: Map1D              # its projection on the expanding direction

    @property
    def density(self) -> StepDensity:
        """Stationary x-density: the stated weights spread over the strips."""
        mu = self.initial["stationary"]
        return transfer.strip_density(self.x_factor.branches, [mu[lab] for lab in self.labels])


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
    labels = tuple(b.label for b in x_factor.branches)
    trans = transfer.transition_matrix(x_factor)
    # transition_matrix checks that the nonzero entries of each column are
    # equal, so the largest is that entry
    col = {j: max(trans[i, j] for i in labels) for j in labels}
    [unit_base] = {b.jacobian for b in m.branches if g[b.label] == -1}
    stationary = weights(l)
    ratios = [stationary[lab] / col[lab] for lab in labels]
    den = math.lcm(*(p.denominator for p in trans.values()))
    dp = {key: (p * den).numerator for key, p in trans.items()}   # D p(r, s)
    initial = {"stationary": stationary,
               "uniform": {b.label: b.hi - b.lo for b in x_factor.branches}}
    starts = {}
    for start, w in initial.items():
        e = math.lcm(*(v.denominator for v in w.values()))
        ew = {r: (e * v).numerator for r, v in w.items()}   # E w(r)
        starts[start] = (MappingProxyType(_poly((g[r], c) for r, c in ew.items())),
                         MappingProxyType(_poly((g[r] + g[s], ew[r] * c)
                                                for (r, s), c in dp.items())))
    fam = Family(
        name, labels, MappingProxyType(g), MappingProxyType(conjugacy),
        successors=MappingProxyType({i: tuple(j for j in labels if trans[i, j])
                                     for i in labels}),
        l=l,
        trans=MappingProxyType(trans), col=MappingProxyType(col),
        initial=MappingProxyType({start: MappingProxyType(w) for start, w in initial.items()}),
        unit_base=unit_base,
        psi=sum(stationary[lab] * g[lab] for lab in labels),
        alpha_bounds=(min(ratios) / max(ratios), max(ratios) / min(ratios)),
        den=den,
        trace=MappingProxyType(_poly((g[r], dp[r, r]) for r in labels)),
        # e2 of D P(z): its principal 2 x 2 minors
        det=MappingProxyType(_poly(
            (g[r] + g[s], dp[r, r] * dp[s, s] - dp[r, s] * dp[s, r])
            for i, r in enumerate(labels) for s in labels[i + 1:])),
        starts=MappingProxyType(starts),
        map=m, x_factor=x_factor)
    _verify(fam)
    return fam


def _poly(terms) -> dict[int, int]:
    """sum of c z^k over the terms (k, c), as {power of z: coefficient}:
    the zero terms dropped and the powers ascending."""
    out: dict[int, int] = {}
    for k, c in terms:
        out[k] = out.get(k, 0) + c
    return {k: out[k] for k in sorted(out) if out[k]}


def _verify(fam: Family) -> None:
    """Check the fields of `fam` derived by one route against a second
    route, and the stated weights against the geometry."""
    from bakerfr import multibaker

    labels, trans, mu = fam.labels, fam.trans, fam.initial["stationary"]
    inverse_slopes = {b.label: 1 / abs(b.slope) for b in fam.x_factor.branches}
    if inverse_slopes != fam.col:
        raise ConsistencyError(
            f"inverse strip slopes {inverse_slopes} != column weights {dict(fam.col)}")
    # the classes: the regions grouped by successor set
    classes: dict[tuple[RegionLabel, ...], list[RegionLabel]] = {}
    for lab in labels:
        classes.setdefault(fam.successors[lab], []).append(lab)
    for cls in classes.values():
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
    if len(classes) > 2 or set(fam.trace) != {1, -1} or set(fam.det) - {0}:
        raise ConsistencyError(
            f"class chain of {len(classes)} classes with D T(z) = {dict(fam.trace)} and "
            f"D^2 det M(z) = {dict(fam.det)}: the exact law needs one or two classes, "
            f"D T = a z + b/z and a determinant free of z")
    for start, (s1, sm1) in fam.starts.items():
        if sum(sm1.values()) != fam.den * sum(s1.values()):
            raise ConsistencyError(f"E D s M(1) 1 = {sum(sm1.values())} != D E s(1) 1 = "
                                   f"{fam.den * sum(s1.values())} from the {start} start")
    measured = transfer.region_measures(fam.x_factor)
    if measured != mu:
        raise ConsistencyError(f"measures {measured} != closed form {dict(mu)}")
    if fam.name == "map2":
        # the measure route of the current: psi = sum(mu * g), mu as checked above
        current = multibaker.analytic_current(fam.l)
        if current != fam.psi:
            raise ConsistencyError(f"current route {current} != measure route {fam.psi}")
