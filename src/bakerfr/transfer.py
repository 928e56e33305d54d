"""Transfer-operator machinery for the expanding (horizontal) direction.

The vertical coordinate never enters the contraction statistics, so the
invariant measure only matters through its projection on the x axis.  That
projection is piecewise constant for both map families, and the projected
Frobenius-Perron operator acts exactly on step densities with rational
breakpoints.  The stationary density is obtained from exact linear algebra
on the cell-transfer matrix of the natural Markov partition; power
iteration in floats is kept as an independent cross-check.

`project_unstable` reads the x-action of a map, merging pieces that share
one x-action, so the irreversible composite, whose fold cuts strip B in x
and in y, projects onto the four labelled strips of its base map.
`verify_x_factor` checks exactly that for any map: its projection must
equal the one of its family's map, strip for strip.  `verify_composite`
adds the rest of the composite's claim: every piece acts as fold-then-map.
The region chain (`transition_matrix`, `region_measures`) is derived from
the projected strips, and `families.family` checks it against the closed
forms of both families."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from bakerfr.maps import (
    MapConstructionError,
    PhasePoint,
    PiecewiseAffineMap,
    RegionLabel,
    build_generalized_baker,
    build_perturbation,
    in_interval,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ConsistencyError(AssertionError):
    """Two supposedly-equivalent computations disagreed."""


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


# ---------------------------------------------------------------------------
# one-dimensional projection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Branch1D:
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


@dataclass(frozen=True)
class Map1D:
    name: str
    branches: tuple[Branch1D, ...]

    def breakpoints(self) -> list[Fraction]:
        pts = {_ZERO, _ONE}
        for b in self.branches:
            pts.update((b.lo, b.hi))
        return sorted(pts)

    def apply(self, x):
        for b in self.branches:
            if in_interval(x, b.lo, b.hi):
                return b(x)
        raise ValueError(f"x={x} not in any branch of {self.name}")


def project_unstable(m: PiecewiseAffineMap) -> Map1D:
    """Project a map onto its expanding direction.

    Every branch must act on x independently of y.  Pieces over one
    x-interval, split in y, merge into one branch: they must share the
    x-slope, x-offset and label, and their heights must sum to 1.  Then
    adjacent x-pieces with equal slope, offset and label merge.  A map
    that fails either condition raises `MapConstructionError`."""
    stacks: dict[tuple[Fraction, Fraction], list] = {}
    for b in m.branches:
        if b.linear[0][1] != 0:
            raise MapConstructionError(
                f"{m.name}: branch x-action depends on y; not projectable")
        stacks.setdefault((b.x_lo, b.x_hi), []).append(b)
    merged: list[Branch1D] = []
    for (lo, hi), pieces in sorted(stacks.items()):
        actions = {(b.linear[0][0], b.offset[0], b.label) for b in pieces}
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
    `m` must equal that of `family(m.family, m.l).build_map()`, branch for
    branch and label for label, or `ConsistencyError` is raised.  For the
    composite this is the reduction to the reversible map: the strip law,
    hence the law of g, is the base map's.  A map that does not project
    at all (`MapConstructionError` from `project_unstable(m)`) fails the
    same check."""
    from bakerfr.families import family

    try:
        got = project_unstable(m).branches
    except MapConstructionError as exc:
        raise ConsistencyError(f"{m.name}: x-factor does not exist: {exc}") from None
    want = project_unstable(family(m.family, m.l).build_map()).branches
    if got != want:
        def text(branches):
            return "; ".join(f"{b.label} on [{b.lo}, {b.hi}): {b.slope} x + {b.intercept}"
                             for b in branches)
        raise ConsistencyError(
            f"{m.name}: x-factor {text(got)} differs from {m.family}'s {text(want)}")


def verify_composite(k: PiecewiseAffineMap) -> None:
    """Exact check that `k` is fold-then-map: `build_perturbation(l,
    x_tilde, eps)`, then `build_generalized_baker(l)`, at `k`'s parameters.

    First `verify_x_factor(k)`, which puts every piece inside one strip of
    the map.  Then, piece by piece: the piece must lie inside one piece of
    the fold, so fold-then-map is affine on it, and agree with
    fold-then-map at three affinely independent interior points, which
    fixes an affine action on the whole piece.  Raises `ValueError` for a
    map without strip parameters and `ConsistencyError` for any
    disagreement."""
    if k.l is None or k.x_tilde is None or k.eps is None:
        raise ValueError(f"{k.name}: expected a composite map carrying strip parameters")
    verify_x_factor(k)
    fold = build_perturbation(k.l, k.x_tilde, k.eps)
    base = build_generalized_baker(k.l)
    for b in k.branches:
        where = f"{k.name}: piece on [{b.x_lo}, {b.x_hi}) x [{b.y_lo}, {b.y_hi})"
        if not any(f.x_lo <= b.x_lo and b.x_hi <= f.x_hi and f.y_lo <= b.y_lo
                   and b.y_hi <= f.y_hi for f in fold.branches):
            raise ConsistencyError(f"{where} straddles two pieces of the fold")
        dx, dy = (b.x_hi - b.x_lo) / 4, (b.y_hi - b.y_lo) / 4
        for p in (PhasePoint(b.x_lo + dx, b.y_lo + dy), PhasePoint(b.x_lo + 3 * dx, b.y_lo + dy),
                  PhasePoint(b.x_lo + dx, b.y_lo + 3 * dy)):
            got, want = b.apply(p), base.apply(fold.apply(p))
            if got != want:
                raise ConsistencyError(
                    f"{where} maps ({p.x}, {p.y}) to ({got.x}, {got.y}), "
                    f"fold-then-map to ({want.x}, {want.y})")


# ---------------------------------------------------------------------------
# step densities and the exact Frobenius-Perron step
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepDensity:
    """Piecewise-constant probability density on [0, 1]."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        bp, vals = tuple(self.breakpoints), tuple(self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(bp) < 2 or len(vals) != len(bp) - 1:
            raise ValueError("need k+1 breakpoints for k values")
        if bp[0] != 0 or bp[-1] != 1 or any(a >= b for a, b in zip(bp, bp[1:])):
            raise ValueError(f"breakpoints must increase strictly from 0 to 1: {bp}")
        if any(v < 0 for v in vals):
            raise ValueError("density values must be non-negative")
        total = self.integral()
        if total != 1:
            raise ValueError(f"density integrates to {total}, not 1")

    def integral(self):
        return sum(v * (b - a)
                   for a, b, v in zip(self.breakpoints, self.breakpoints[1:], self.values))

    def value_at(self, x):
        if not 0 <= x <= 1:
            raise ValueError(f"x={x} outside [0, 1]")
        for a, b, v in zip(self.breakpoints, self.breakpoints[1:], self.values):
            if in_interval(x, a, b):
                return v
        raise AssertionError("unreachable")

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

    def rows(self) -> list[tuple[Fraction, Fraction]]:
        """(breakpoint, value) rows for CSV output; the final breakpoint 1
        repeats the last value so step plots close."""
        out = list(zip(self.breakpoints, self.values))
        out.append((self.breakpoints[-1], self.values[-1]))
        return out


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


def markov_cells(map1d: Map1D) -> list[Fraction]:
    """Branch-domain breakpoints, verified to be a Markov partition
    (every branch image is a union of cells)."""
    edges = map1d.breakpoints()
    edge_set = set(edges)
    for br in map1d.branches:
        lo, hi = br.image()
        if lo not in edge_set or hi not in edge_set:
            raise MapConstructionError(
                f"branch image ({lo}, {hi}) does not align with the partition")
    return edges


def _values_on_interval(bp, vals, a, b) -> set:
    """Values a step function takes on the interval [a, b)."""
    out = set()
    for za, zb, v in zip(bp, bp[1:], vals):
        if max(a, za) < min(b, zb):
            out.add(v)
    return out


def cell_transfer_matrix(map1d: Map1D) -> list[list[Fraction]]:
    """k x k matrix of the projected operator on cell-wise constant
    densities, built by pushing each cell indicator through one exact
    Frobenius-Perron step."""
    edges = markov_cells(map1d)
    k = len(edges) - 1
    cols = []
    for j in range(k):
        vals = [_ONE if i == j else _ZERO for i in range(k)]
        bp, pushed = _push(map1d, edges, vals)
        col = []
        for a, b in zip(edges, edges[1:]):
            cell_vals = _values_on_interval(bp, pushed, a, b)
            if len(cell_vals) != 1:
                raise MapConstructionError(
                    "pushed indicator is not constant per cell; partition not Markov")
            col.append(cell_vals.pop())
        cols.append(col)
    return [[cols[j][i] for j in range(k)] for i in range(k)]


# float power iteration (the cross-check of `invariant_density`): stop at a
# sup-norm residual of POWER_TOL, give up after POWER_MAX_ITER steps
POWER_TOL = 1e-12
POWER_MAX_ITER = 10_000


def invariant_density(map1d: Map1D) -> StepDensity:
    """Exact stationary density of the projected operator.

    Solves the unit-eigenvalue problem of the cell-transfer matrix with
    rational elimination, asserts the result is an exact fixed point of
    the Frobenius-Perron step, and cross-checks it cell by cell against
    `invariant_density_power` (within 100 POWER_TOL)."""
    edges = markov_cells(map1d)
    t = cell_transfer_matrix(map1d)
    k = len(t)
    shifted = [[t[i][j] - (_ONE if i == j else _ZERO) for j in range(k)]
               for i in range(k)]
    v = _nullspace_vector(shifted)
    if all(x <= 0 for x in v):
        v = [-x for x in v]
    if any(x < 0 for x in v):
        raise ConsistencyError(f"stationary vector has mixed signs: {v}")
    mass = sum(val * (b - a) for val, a, b in zip(v, edges, edges[1:]))
    v = [val / mass for val in v]
    rho = StepDensity(tuple(edges), tuple(v))
    stepped = frobenius_perron_step(map1d, rho)
    if stepped.simplify() != rho.simplify():
        raise ConsistencyError("eigen-solution is not a fixed point of the operator")
    power = invariant_density_power(map1d)
    worst = max(abs(float(a) - b) for a, b in zip(v, power))
    if worst > 100 * POWER_TOL:
        raise ConsistencyError(
            f"power iteration disagrees with the exact solution by {worst:.3e}")
    return rho.simplify()


def invariant_density_power(map1d: Map1D) -> list[float]:
    """Stationary density values on the cells of `markov_cells(map1d)`, by
    float power iteration; independent of the exact eigen-solve.  A
    cross-check, not a density: the values are floats."""
    edges = markov_cells(map1d)
    widths = [float(b - a) for a, b in zip(edges, edges[1:])]
    t = [[float(x) for x in row] for row in cell_transfer_matrix(map1d)]
    k = len(t)
    v = [1.0] * k
    residual = float("inf")
    for _ in range(POWER_MAX_ITER):
        new = [sum(t[i][j] * v[j] for j in range(k)) for i in range(k)]
        mass = sum(val * w for val, w in zip(new, widths))
        new = [val / mass for val in new]
        residual = max(abs(a - b) for a, b in zip(new, v))
        v = new
        if residual <= POWER_TOL:
            return v
    raise ConvergenceError(
        f"power iteration did not reach {POWER_TOL} in {POWER_MAX_ITER} steps", residual)


# ---------------------------------------------------------------------------
# region-level chain of a strip map
# ---------------------------------------------------------------------------


def transition_matrix(m: PiecewiseAffineMap) -> dict[tuple[RegionLabel, RegionLabel], Fraction]:
    """Region-to-region probabilities {(i, j): p} of a map whose projection
    is made of labelled strips, from the geometry: the share of the x-image
    of strip i that falls in strip j.  Checked here: every row sums to 1, and
    the nonzero entries of each column are equal.  `families.family`
    compares the result with the closed form."""
    branches = project_unstable(m).branches
    labels = [b.label for b in branches]
    if None in labels or len(set(labels)) != len(labels):
        raise MapConstructionError(f"{m.name}: needs one labelled branch per strip")
    p = {}
    for src in branches:
        img_lo, img_hi = src.image()
        for dst in branches:
            overlap = max(_ZERO, min(dst.hi, img_hi) - max(dst.lo, img_lo))
            p[src.label, dst.label] = overlap / (img_hi - img_lo)
    if any(sum(p[i, j] for j in labels) != 1 for i in labels):
        raise ConsistencyError("transition rows must sum to 1")
    for j in labels:
        if len({p[i, j] for i in labels if p[i, j] != 0}) > 1:
            raise ConsistencyError(f"column {j} has unequal entries across source rows")
    return p


def region_measures(m: PiecewiseAffineMap) -> dict[RegionLabel, Fraction]:
    """Invariant region probabilities {label: mu} of a strip map, computed
    two independent ways (left unit-eigenvector of `transition_matrix(m)`;
    stationary density times strip widths) and required to agree exactly.
    `families.family` compares them with the closed form."""
    p = transition_matrix(m)
    map1d = project_unstable(m)
    labels = [b.label for b in map1d.branches]
    # route (a): left eigenvector, i.e. nullspace of (P^T - I)
    pt_minus_i = [[p[j, i] - (_ONE if i == j else _ZERO) for j in labels]
                  for i in labels]
    v = _nullspace_vector(pt_minus_i)
    total = sum(v)  # also fixes the sign
    eig = {lab: val / total for lab, val in zip(labels, v)}
    # route (b): stationary density times strip widths
    rho = invariant_density(map1d)
    by_width = {b.label: rho.value_at((b.lo + b.hi) / 2) * (b.hi - b.lo)
                for b in map1d.branches}
    if eig != by_width:
        raise ConsistencyError(
            f"eigenvector route {eig} != density-times-width route {by_width}")
    if sum(eig.values()) != 1:
        raise ConsistencyError("region measures must sum to 1")
    for j in labels:
        if sum(eig[i] * p[i, j] for i in labels) != eig[j]:
            raise ConsistencyError(f"measures not stationary at {j}")
    return eig


def write_density_csv(rho: StepDensity, path) -> None:
    """CSV rows (breakpoint, value) as num/den text."""
    def fmt(v):
        return f"{v.numerator}/{v.denominator}"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("breakpoint,value\n")
        for bp, val in rho.rows():
            fh.write(f"{fmt(bp)},{fmt(val)}\n")
