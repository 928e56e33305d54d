"""Transfer-operator machinery for the expanding (horizontal) direction.

The vertical coordinate never enters the contraction statistics, so the
invariant measure only matters through its projection on the x axis.  That
projection is piecewise constant for both map families, and the projected
Frobenius-Perron operator acts exactly on step densities with rational
breakpoints.  On a map whose strips are a Markov partition (checked by
`cell_transfer_matrix`), that operator is the strip chain written on
densities: `invariant_density` checks the pushed-indicator matrix against
the chain entry by entry, then solves the chain's stationary law once, in
rationals.

`project_unstable` reads the x-action of a map, merging pieces that share
one x-action, so the irreversible composite, whose fold cuts strip B in x
and in y, projects onto the four labelled strips of its base map.
`verify_x_factor` checks exactly that for any map: its projection must
equal its family's `x_factor` (the projection the record holds), strip
for strip.  `verify_composite` adds the rest of the composite's claim: it
equals fold-then-map exactly.  `transition_matrix` labels the same strip
chain; `invariant_density` and `region_measures` read the density and
the strip weights of one stationary solve.  All three take a projection.
`families.family` derives a record's transitions, column weights and
successors from `transition_matrix`, and checks the record's stated
stationary weights against `region_measures`."""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from bakerfr.maps import (
    MapConstructionError,
    AffineBranch,
    CheckedRecord,
    PiecewiseAffineMap,
    RegionLabel,
    build_perturbation,
    compose,
    overlay,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ConsistencyError(AssertionError):
    """Two supposedly-equivalent computations disagreed."""


# ---------------------------------------------------------------------------
# one-dimensional projection
# ---------------------------------------------------------------------------


class Branch1D(NamedTuple):
    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction
    label: Optional[RegionLabel] = None

    def __call__(self, x):
        return self.slope * x + self.intercept

    def image(self) -> tuple[Fraction, Fraction]:
        a, b = self(self.lo), self(self.hi)
        return (a, b) if a <= b else (b, a)


class Map1D(NamedTuple):
    name: str
    branches: tuple[Branch1D, ...]


def project_unstable(m: PiecewiseAffineMap) -> Map1D:
    """Project a map onto its expanding direction.

    Every branch must act on x independently of y.  Pieces over one
    x-interval, split in y, merge into one branch: they must share the
    x-slope, x-offset and label, and their heights must sum to 1.  Then
    adjacent x-pieces with equal slope, offset and label merge.  A map
    that fails either condition raises `MapConstructionError`."""
    stacks: dict[tuple[Fraction, Fraction], list] = {}
    for b in m.branches:
        if b.swap:
            raise MapConstructionError(
                f"{m.name}: branch x-action depends on y; not projectable")
        stacks.setdefault((b.x_lo, b.x_hi), []).append(b)
    merged: list[Branch1D] = []
    for (lo, hi), pieces in sorted(stacks.items()):
        actions = {(b.scale[0], b.offset[0], b.label) for b in pieces}
        if len(actions) != 1 or sum(b.y_hi - b.y_lo for b in pieces) != 1:
            raise MapConstructionError(
                f"{m.name}: pieces over x in [{lo}, {hi}) differ in their "
                "x-action or leave y uncovered; not projectable")
        [action] = actions
        last = merged[-1] if merged else None
        if last is not None and last.hi == lo and (last.slope, last.intercept, last.label) == action:
            lo = merged.pop().lo
        merged.append(Branch1D(lo, hi, *action))
    return Map1D(m.name + "_x", tuple(merged))


def verify_x_factor(m: PiecewiseAffineMap) -> None:
    """Exact check that `m` has its family's x-factor: the projection of
    `m` must equal `family(m.family, m.l).x_factor`, branch for branch
    and label for label, or `ConsistencyError` is raised.  For the
    composite this is the reduction to the reversible map: the strip law,
    hence the law of g, is the base map's.  A map that does not project
    at all (`MapConstructionError` from `project_unstable(m)`) fails the
    same check."""
    from bakerfr.families import family

    try:
        got = project_unstable(m).branches
    except MapConstructionError as exc:
        raise ConsistencyError(f"{m.name}: x-factor does not exist: {exc}") from None
    want = family(m.family, m.l).x_factor.branches
    if got != want:
        def text(branches):
            return "; ".join(f"{b.label} on [{b.lo}, {b.hi}): {b.slope} x + {b.intercept}"
                             for b in branches)
        raise ConsistencyError(
            f"{m.name}: x-factor {text(got)} differs from {m.family}'s {text(want)}")


def _action_text(b: AffineBranch) -> str:
    (sx, sy), (tx, ty), (u, v) = b.scale, b.offset, ("yx" if b.swap else "xy")
    return f"x' = {sx} {u} + {tx}, y' = {sy} {v} + {ty} ({b.label})"


def verify_composite(k: PiecewiseAffineMap) -> None:
    """Exact check that `k` is fold-then-map: `build_perturbation(l,
    x_tilde, eps)`, then map2 at `k`'s parameters.

    First `verify_x_factor(k)`.  Then one map equality: `k` must equal
    `compose(family("map2", l).map, build_perturbation(l, x_tilde, eps))`,
    action and label, on every overlap of a piece of `k` with a piece of
    the composition.  Two monomial actions that differ agree at
    most on a line, so this decides equality everywhere off the piece
    edges.  Raises `ValueError` for a map without strip parameters and
    `ConsistencyError` for any disagreement."""
    if k.l is None or k.x_tilde is None or k.eps is None:
        raise ValueError(f"{k.name}: expected a composite map carrying strip parameters")
    from bakerfr.families import family

    verify_x_factor(k)
    want = compose(family("map2", k.l).map, build_perturbation(k.l, k.x_tilde, k.eps))
    for (x_lo, x_hi, y_lo, y_hi), got, exp in overlay(k, want):
        if (got.action, got.label) != (exp.action, exp.label):
            raise ConsistencyError(
                f"{k.name}: piece on [{got.x_lo}, {got.x_hi}) x [{got.y_lo}, {got.y_hi}) "
                f"acts as {_action_text(got)}, but on [{x_lo}, {x_hi}) x [{y_lo}, {y_hi}) "
                f"fold-then-map acts as {_action_text(exp)}")


# ---------------------------------------------------------------------------
# step densities and the exact Frobenius-Perron step
# ---------------------------------------------------------------------------


class _StepDensity(NamedTuple):
    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]


class StepDensity(CheckedRecord, _StepDensity):
    """Piecewise-constant probability density on [0, 1]."""

    __slots__ = ()

    def __new__(cls, breakpoints, values):
        self = super().__new__(cls, tuple(breakpoints), tuple(values))
        bp, vals = self
        if len(bp) < 2 or len(vals) != len(bp) - 1:
            raise ValueError("need k+1 breakpoints for k values")
        if bp[0] != 0 or bp[-1] != 1 or any(a >= b for a, b in zip(bp, bp[1:])):
            raise ValueError(f"breakpoints must increase strictly from 0 to 1: {bp}")
        if any(v < 0 for v in vals):
            raise ValueError("density values must be non-negative")
        total = self.integral()
        if total != 1:
            raise ValueError(f"density integrates to {total}, not 1")
        return self

    def integral(self):
        return sum(v * (b - a)
                   for a, b, v in zip(self.breakpoints, self.breakpoints[1:], self.values))

    def simplify(self) -> "StepDensity":
        """Merge adjacent intervals with equal values."""
        bp = [self.breakpoints[0]]
        vals = []
        for b, v in zip(self.breakpoints[1:], self.values):
            if vals and v == vals[-1]:
                bp[-1] = b
            else:
                vals.append(v)
                bp.append(b)
        return StepDensity(tuple(bp), tuple(vals))


def _push(map1d: Map1D, breakpoints: Sequence, values: Sequence):
    """Raw Frobenius-Perron action on a (possibly unnormalized) step
    function: each affine branch transports its slice of the input with
    weight 1/|slope|.  Returns refined breakpoints and per-cell values."""
    pieces = []  # (img_lo, img_hi, contribution)
    for br in map1d.branches:
        for a, b, v in zip(breakpoints, breakpoints[1:], values):
            lo, hi = max(a, br.lo), min(b, br.hi)
            if lo >= hi:
                continue
            za, zb = br(lo), br(hi)
            if za > zb:
                za, zb = zb, za
            pieces.append((za, zb, v / abs(br.slope)))
    cuts = {_ZERO, _ONE}
    for za, zb, _v in pieces:
        cuts.add(za)
        cuts.add(zb)
    new_bp = sorted(cuts)
    new_vals = []
    for a, b in zip(new_bp, new_bp[1:]):
        total = _ZERO
        for za, zb, v in pieces:
            if za <= a and b <= zb:
                total += v
        new_vals.append(total)
    return tuple(new_bp), tuple(new_vals)


def frobenius_perron_step(map1d: Map1D, rho: StepDensity) -> StepDensity:
    bp, vals = _push(map1d, rho.breakpoints, rho.values)
    return StepDensity(bp, vals)


# ---------------------------------------------------------------------------
# exact stationary density via the Markov-cell transfer matrix
# ---------------------------------------------------------------------------


def _nullspace_vector(mat: list[list[Fraction]]) -> list[Fraction]:
    """One exact nullspace vector of a square rational matrix whose
    nullity must be exactly 1."""
    n = len(mat)
    a = [row[:] for row in mat]
    pivot_cols = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = a[row][col]
        a[row] = [x / inv for x in a[row]]
        for r in range(n):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivot_cols.append(col)
        row += 1
        if row == n:
            break
    free = [c for c in range(n) if c not in pivot_cols]
    if len(free) != 1:
        raise ConsistencyError(f"expected a one-dimensional nullspace, got {len(free)}")
    v = [_ZERO] * n
    v[free[0]] = _ONE
    for r, c in enumerate(pivot_cols):
        v[c] = -a[r][free[0]]
    return v


def cell_transfer_matrix(map1d: Map1D) -> list[list[Fraction]]:
    """k x k matrix of the projected operator on strip-wise constant
    densities, built by pushing each strip indicator through one exact
    Frobenius-Perron step.

    The strips must be a Markov partition: they tile [0, 1] in order, and
    every branch image ends on a strip edge (`MapConstructionError`
    otherwise).  Then branch j maps strip j onto a union of strips, so
    its pushed indicator is 1/|slope_j| there and 0 elsewhere, constant
    on every strip: each strip's value is read at its left edge."""
    strips = map1d.branches
    edges = sorted({_ZERO, _ONE}.union(*((b.lo, b.hi) for b in strips)))
    if [(b.lo, b.hi) for b in strips] != list(zip(edges, edges[1:])):
        raise MapConstructionError(f"{map1d.name}: branches must tile [0, 1] in order")
    for br in strips:
        lo, hi = br.image()
        if lo not in edges or hi not in edges:
            raise MapConstructionError(
                f"branch image ({lo}, {hi}) does not align with the partition")
    k = len(strips)
    cols = []
    for j in range(k):
        bp, pushed = _push(map1d, edges, [_ONE if i == j else _ZERO for i in range(k)])
        cols.append([pushed[bisect_right(bp, a) - 1] for a in edges[:-1]])
    return [[cols[j][i] for j in range(k)] for i in range(k)]


def _strip_chain(strips: Sequence[Branch1D]) -> list[list[Fraction]]:
    """p[i][j]: the share of the x-image of strip i that falls in strip j."""
    p = []
    for src in strips:
        lo, hi = src.image()
        p.append([max(_ZERO, min(dst.hi, hi) - max(dst.lo, lo)) / (hi - lo)
                  for dst in strips])
    return p


def strip_density(strips: Sequence[Branch1D], weights: Sequence[Fraction]) -> StepDensity:
    """The density that spreads each weight evenly over its strip of the
    tiling `strips`, adjacent equal values merged."""
    edges = (strips[0].lo,) + tuple(b.hi for b in strips)
    return StepDensity(edges, tuple(w / (b.hi - b.lo)
                                    for b, w in zip(strips, weights))).simplify()


def _stationary(map1d: Map1D) -> tuple[list[Fraction], StepDensity]:
    """The one stationary solve: the strip weights mu and their density.

    `cell_transfer_matrix` checks that the strips are a Markov partition
    and gives the pushed-indicator matrix t.  With w the strip widths and
    p the strip chain, t must equal the chain written on densities,
    t[i][j] == p[j][i] w[j] / w[i], entry by entry.  So t is similar to
    the transpose of p, and the chain's stationary law mu, one rational
    solve whose nullity must be 1, gives the density mu[i] / w[i]; that
    equality and the exact fixed point make mu stationary under p.
    Raises `ConsistencyError` on a differing entry, a stationary vector of
    mixed signs, or a density that is not an exact fixed point of
    `frobenius_perron_step`."""
    t = cell_transfer_matrix(map1d)
    strips = map1d.branches
    w = [b.hi - b.lo for b in strips]
    p = _strip_chain(strips)
    k = len(w)
    for i in range(k):
        for j in range(k):
            if t[i][j] != p[j][i] * w[j] / w[i]:
                raise ConsistencyError(
                    f"{map1d.name}: pushed indicator t[{i}][{j}] = {t[i][j]}, but the "
                    f"strip chain gives p[{j}][{i}] w[{j}] / w[{i}] = {p[j][i] * w[j] / w[i]}")
    mu = _nullspace_vector([[p[j][i] - (_ONE if i == j else _ZERO) for j in range(k)]
                            for i in range(k)])
    total = sum(mu)  # nonzero for a vector of one sign, and fixes that sign
    if total == 0 or any(x * total < 0 for x in mu):
        raise ConsistencyError(f"stationary vector has mixed signs: {mu}")
    mu = [x / total for x in mu]
    rho = strip_density(strips, mu)
    if frobenius_perron_step(map1d, rho).simplify() != rho:
        raise ConsistencyError("stationary density is not a fixed point of the operator")
    return mu, rho


def invariant_density(map1d: Map1D) -> StepDensity:
    """Exact stationary density of the projected operator (`_stationary`)."""
    return _stationary(map1d)[1]


# ---------------------------------------------------------------------------
# region-level chain of a strip map
# ---------------------------------------------------------------------------


def _labels(map1d: Map1D) -> list[RegionLabel]:
    labels = [b.label for b in map1d.branches]
    if None in labels or len(set(labels)) != len(labels):
        raise MapConstructionError(f"{map1d.name}: needs one labelled branch per strip")
    return labels


def transition_matrix(map1d: Map1D) -> dict[tuple[RegionLabel, RegionLabel], Fraction]:
    """Region-to-region probabilities {(i, j): p} of a projection made of
    labelled strips, from the geometry: the share of the x-image of strip
    i that falls in strip j.  Checked here: every row sums to 1, and the
    nonzero entries of each column are equal, so each column has one
    nonzero entry, which `families.family` takes as the column weight
    `col` and checks against the inverse strip slope."""
    labels = _labels(map1d)
    p = {(i, j): x for i, row in zip(labels, _strip_chain(map1d.branches))
         for j, x in zip(labels, row)}
    if any(sum(p[i, j] for j in labels) != 1 for i in labels):
        raise ConsistencyError("transition rows must sum to 1")
    for j in labels:
        if len({p[i, j] for i in labels if p[i, j] != 0}) > 1:
            raise ConsistencyError(f"column {j} has unequal entries across source rows")
    return p


def region_measures(map1d: Map1D) -> dict[RegionLabel, Fraction]:
    """Invariant region probabilities {label: mu} of a projection made of
    labelled strips: the strip weights of the solve (`_stationary`) whose
    density `invariant_density` returns, stationary under the chain of
    `transition_matrix(map1d)` by what that solve proves.
    `families.family` checks a family's stated weights against them."""
    return dict(zip(_labels(map1d), _stationary(map1d)[0]))
