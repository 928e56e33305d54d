"""Piecewise-affine maps of the unit square, in exact arithmetic.

All map coefficients are exact rationals, and a `PhasePoint` holds
``Fraction`` coordinates only, so every step of an orbit is exact.  The
float sampler is `bakerfr.ensembles`, which integrates the x-action read
from `transfer.project_unstable`.  Branch domains follow the half-open
convention ``[lo, hi)`` with the top edge of the square closed
(`in_interval`), which makes region membership total and deterministic.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)

#: prime denominator used for boundary-avoiding random rational samples;
#: orbits of such points can never land on the small-denominator branch
#: boundaries of the map families.
SAMPLE_DENOMINATOR = 1_000_003

#: version of the layout of every JSON document bakerfr writes
SCHEMA_VERSION = 1


class MapConstructionError(ValueError):
    """Raised when map parameters or branch data are invalid."""


class NonInvertibleMapError(ValueError):
    """Raised when an inverse is requested from a non-invertible map."""


class RegionLabel(str, Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"

    def __str__(self) -> str:  # cleaner CSV / reports
        return self.value


def as_fraction(value) -> Fraction:
    """Coerce to an exact rational; floats are rejected to avoid silent
    binary-expansion junk (pass a string like ``"1/8"`` instead)."""
    if isinstance(value, float):
        raise TypeError(
            f"refusing to coerce float {value!r} to a Fraction; "
            "pass a Fraction, int, or 'num/den' string"
        )
    return Fraction(value)


@dataclass(frozen=True)
class PhasePoint:
    """A point of the unit square with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        if not (isinstance(self.x, Fraction) and isinstance(self.y, Fraction)):
            raise TypeError(
                f"PhasePoint needs Fraction coordinates, got {self.x!r}, {self.y!r}")

    def in_unit_square(self) -> bool:
        return 0 <= self.x <= 1 and 0 <= self.y <= 1


def in_interval(v: Fraction, lo: Fraction, hi: Fraction) -> bool:
    """Half-open membership v in [lo, hi), closed at the top edge 1 of
    the square."""
    return (lo <= v < hi) or (v == hi == 1)


Matrix2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
Vector2 = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class AffineBranch:
    """One affine piece: a domain rectangle and the action x' = L x + t."""

    x_lo: Fraction
    x_hi: Fraction
    y_lo: Fraction
    y_hi: Fraction
    linear: Matrix2
    offset: Vector2
    jacobian: Optional[Fraction] = None
    label: Optional[RegionLabel] = None

    def __post_init__(self):
        for name in ("x_lo", "x_hi", "y_lo", "y_hi"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        lin = tuple(tuple(as_fraction(c) for c in row) for row in self.linear)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "offset", tuple(as_fraction(c) for c in self.offset))
        if not (0 <= self.x_lo < self.x_hi <= 1 and 0 <= self.y_lo < self.y_hi <= 1):
            raise MapConstructionError(f"degenerate or out-of-square domain: {self}")
        det = abs(lin[0][0] * lin[1][1] - lin[0][1] * lin[1][0])
        if self.jacobian is None:
            object.__setattr__(self, "jacobian", det)
        elif as_fraction(self.jacobian) != det:
            raise MapConstructionError(
                f"declared jacobian {self.jacobian} != |det| {det} of the linear part"
            )
        else:
            object.__setattr__(self, "jacobian", as_fraction(self.jacobian))

    # -- geometry ---------------------------------------------------------

    def contains(self, p: PhasePoint) -> bool:
        return in_interval(p.x, self.x_lo, self.x_hi) and in_interval(
            p.y, self.y_lo, self.y_hi
        )

    def domain_area(self) -> Fraction:
        return (self.x_hi - self.x_lo) * (self.y_hi - self.y_lo)

    @cached_property
    def image_rect(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Bounding box (x_lo, x_hi, y_lo, y_hi) of the branch image.

        Exact for the monomial linear parts used here (each output
        coordinate depends on a single input coordinate).
        """
        corners = [
            (self.x_lo, self.y_lo),
            (self.x_lo, self.y_hi),
            (self.x_hi, self.y_lo),
            (self.x_hi, self.y_hi),
        ]
        xs, ys = [], []
        for cx, cy in corners:
            xs.append(self.linear[0][0] * cx + self.linear[0][1] * cy + self.offset[0])
            ys.append(self.linear[1][0] * cx + self.linear[1][1] * cy + self.offset[1])
        return (min(xs), max(xs), min(ys), max(ys))

    def image_contains(self, p: PhasePoint) -> bool:
        x_lo, x_hi, y_lo, y_hi = self.image_rect
        return in_interval(p.x, x_lo, x_hi) and in_interval(p.y, y_lo, y_hi)

    def is_monomial(self) -> bool:
        (a, b), (c, d) = self.linear
        return (a == 0 or b == 0) and (c == 0 or d == 0)

    # -- action ------------------------------------------------------------

    def apply(self, p: PhasePoint) -> PhasePoint:
        x = self.linear[0][0] * p.x + self.linear[0][1] * p.y + self.offset[0]
        y = self.linear[1][0] * p.x + self.linear[1][1] * p.y + self.offset[1]
        return PhasePoint(x, y)

    def apply_inverse(self, p: PhasePoint) -> PhasePoint:
        (a, b), (c, d) = self.linear
        det = a * d - b * c
        if det == 0:
            raise NonInvertibleMapError("branch linear part is singular")
        rx = p.x - self.offset[0]
        ry = p.y - self.offset[1]
        x = (d * rx - b * ry) / det
        y = (-c * rx + a * ry) / det
        return PhasePoint(x, y)


def _rects_overlap_area(r1, r2) -> Fraction:
    w = min(r1[1], r2[1]) - max(r1[0], r2[0])
    h = min(r1[3], r2[3]) - max(r1[2], r2[2])
    if w <= 0 or h <= 0:
        return _ZERO
    return w * h


@dataclass(frozen=True)
class PiecewiseAffineMap:
    """A finite list of affine branches whose domains tile the unit square."""

    name: str
    branches: tuple[AffineBranch, ...]
    family: Optional[str] = None  # "map1" | "map2" region conventions
    l: Optional[Fraction] = None
    x_tilde: Optional[Fraction] = None
    eps: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise MapConstructionError("map needs at least one branch")
        total = sum(b.domain_area() for b in self.branches)
        if total != 1:
            raise MapConstructionError(f"branch domains have total area {total} != 1")
        doms = [(b.x_lo, b.x_hi, b.y_lo, b.y_hi) for b in self.branches]
        for i in range(len(doms)):
            for j in range(i + 1, len(doms)):
                if _rects_overlap_area(doms[i], doms[j]) != 0:
                    raise MapConstructionError(
                        f"branch domains {i} and {j} overlap in {self.name}"
                    )

    # -- structural properties ----------------------------------------------

    @cached_property
    def invertible(self) -> bool:
        """True when branch images tile the square (inverse is well defined)."""
        if not all(b.is_monomial() and b.jacobian != 0 for b in self.branches):
            return False
        rects = [b.image_rect for b in self.branches]
        if sum((r[1] - r[0]) * (r[3] - r[2]) for r in rects) != 1:
            return False
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                if _rects_overlap_area(rects[i], rects[j]) != 0:
                    return False
        return True

    @cached_property
    def partition(self) -> Optional[tuple[tuple[Fraction, Fraction, RegionLabel], ...]]:
        """Vertical-strip region partition of the family, if one applies."""
        if self.family is None or self.l is None:
            return None
        from bakerfr.families import family

        return family(self.family, self.l).partition

    # -- operations ----------------------------------------------------------

    def branch_at(self, p: PhasePoint) -> AffineBranch:
        if not p.in_unit_square():
            raise ValueError(f"point {p} outside the unit square")
        for b in self.branches:
            if b.contains(p):
                return b
        raise ValueError(f"point {p} not covered by any branch of {self.name}")

    def apply(self, p: PhasePoint) -> PhasePoint:
        return self.branch_at(p).apply(p)

    def apply_inverse(self, p: PhasePoint) -> PhasePoint:
        if not self.invertible:
            raise NonInvertibleMapError(f"{self.name} is not invertible")
        if not p.in_unit_square():
            raise ValueError(f"point {p} outside the unit square")
        for b in self.branches:
            if b.image_contains(p):
                return b.apply_inverse(p)
        raise ValueError(f"point {p} not covered by any branch image of {self.name}")

    def jacobian_at(self, p: PhasePoint) -> Fraction:
        return self.branch_at(p).jacobian

    def region_of(self, p: PhasePoint) -> RegionLabel:
        part = self.partition
        if part is None:
            raise ValueError(f"{self.name} carries no region partition")
        for lo, hi, label in part:
            if in_interval(p.x, lo, hi):
                return label
        raise ValueError(f"x={p.x} not covered by the region partition")

    def iterate(self, p: PhasePoint, n: int) -> list[PhasePoint]:
        """Orbit [p, M p, ..., M^n p] (length n+1)."""
        orbit = [p]
        for _ in range(n):
            p = self.apply(p)
            orbit.append(p)
        return orbit


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_simple_baker(l) -> PiecewiseAffineMap:
    """Two-branch dissipative baker map: left strip of width l expands
    horizontally by 1/l and contracts vertically by r = 1 - l; the right
    strip does the reverse.  Area preserving exactly at l = 1/2."""
    l = as_fraction(l)
    if not 0 < l < 1:
        raise MapConstructionError(f"need 0 < l < 1, got {l}")
    r = 1 - l
    branches = (
        AffineBranch(0, l, 0, 1, ((1 / l, _ZERO), (_ZERO, r)), (_ZERO, _ZERO),
                     label=RegionLabel.A),
        AffineBranch(l, 1, 0, 1, ((1 / r, _ZERO), (_ZERO, l)), (-l / r, r),
                     label=RegionLabel.B),
    )
    m = PiecewiseAffineMap("map1", branches, family="map1", l=l)
    if not m.invertible:
        raise MapConstructionError("branch images fail to tile the square")
    return m


def build_generalized_baker(l) -> PiecewiseAffineMap:
    """Four-branch baker map acting differently on the vertical strips
    A = [0,l), B = [l,1/2), C = [1/2,3/4), D = [3/4,1].  Area preserving on
    A and D, contracting on B, expanding on C; uniform exactly at l = 1/4."""
    l = as_fraction(l)
    if not 0 < l <= Fraction(1, 4):
        raise MapConstructionError(f"need 0 < l <= 1/4, got {l}")
    w = 1 - 2 * l
    branches = (
        AffineBranch(0, l, 0, 1,
                     ((1 / (2 * l), _ZERO), (_ZERO, 2 * l)), (_HALF, w),
                     label=RegionLabel.A),
        AffineBranch(l, _HALF, 0, 1,
                     ((1 / w, _ZERO), (_ZERO, _HALF)), (-l / w, _HALF),
                     label=RegionLabel.B),
        AffineBranch(_HALF, Fraction(3, 4), 0, 1,
                     ((Fraction(2), _ZERO), (_ZERO, w)), (-_HALF, _ZERO),
                     label=RegionLabel.C),
        AffineBranch(Fraction(3, 4), 1, 0, 1,
                     ((Fraction(2), _ZERO), (_ZERO, _HALF)), (-Fraction(3, 2), _ZERO),
                     label=RegionLabel.D),
    )
    m = PiecewiseAffineMap("map2", branches, family="map2", l=l)
    if not m.invertible:
        raise MapConstructionError("branch images fail to tile the square")
    return m


def build_involution(map_kind: str) -> PiecewiseAffineMap:
    """Time-reversal involution of family "map1" or "map2".

    For map1 this is the mirror (x, y) -> (1-y, 1-x).  For map2 it swaps
    the left and right halves of the square and mirrors each half along
    its anti-diagonal (rescaled):

        (x, y) -> (1 - y/2,   1 - 2x)   for x <  1/2,
        (x, y) -> (1/2 - y/2, 2 - 2x)   for x >= 1/2.

    Both have unit jacobian everywhere and square to the identity on the
    interior of the square.
    """
    if map_kind == "map1":
        branch = AffineBranch(
            0, 1, 0, 1, ((_ZERO, -_ONE), (-_ONE, _ZERO)), (_ONE, _ONE)
        )
        return PiecewiseAffineMap("involution1", (branch,), family="map1")
    if map_kind == "map2":
        branches = (
            AffineBranch(0, _HALF, 0, 1,
                         ((_ZERO, -_HALF), (-Fraction(2), _ZERO)), (_ONE, _ONE)),
            AffineBranch(_HALF, 1, 0, 1,
                         ((_ZERO, -_HALF), (-Fraction(2), _ZERO)), (_HALF, Fraction(2))),
        )
        return PiecewiseAffineMap("involution2", branches, family="map2")
    raise MapConstructionError(f"unknown map kind {map_kind!r}")


def default_strip(l) -> tuple[Fraction, Fraction]:
    """Default perturbation strip strictly inside region B."""
    l = as_fraction(l)
    x_tilde = l + (_HALF - l) / 4
    eps = (_HALF - l) / 8
    return x_tilde, eps


def _identity_branch(x_lo, x_hi, y_lo=_ZERO, y_hi=_ONE) -> AffineBranch:
    return AffineBranch(x_lo, x_hi, y_lo, y_hi,
                        ((_ONE, _ZERO), (_ZERO, _ONE)), (_ZERO, _ZERO))


def build_perturbation(l, x_tilde=None, eps=None) -> PiecewiseAffineMap:
    """Non-invertible perturbation: the identity everywhere except on a
    vertical strip [x_tilde, x_tilde+eps) inside region B, where the lower
    half of the square is folded onto the upper half via y -> 1 - y.
    Unit jacobian everywhere, so it neither contracts nor expands."""
    l = as_fraction(l)
    d_x, d_e = default_strip(l)
    x_tilde = d_x if x_tilde is None else as_fraction(x_tilde)
    eps = d_e if eps is None else as_fraction(eps)
    if eps < 0 or not (l <= x_tilde and x_tilde + eps < _HALF):
        raise MapConstructionError(
            f"strip [{x_tilde}, {x_tilde + eps}) not inside region B = [{l}, 1/2)"
        )
    if eps == 0:
        branches = (_identity_branch(0, 1),)
    else:
        branches = (
            _identity_branch(0, x_tilde),
            AffineBranch(x_tilde, x_tilde + eps, 0, _HALF,
                         ((_ONE, _ZERO), (_ZERO, -_ONE)), (_ZERO, _ONE)),
            _identity_branch(x_tilde, x_tilde + eps, _HALF, 1),
            _identity_branch(x_tilde + eps, 1),
        )
    return PiecewiseAffineMap("mapN", branches, family="map2", l=l,
                              x_tilde=x_tilde, eps=eps)


def build_composite(l, x_tilde=None, eps=None) -> PiecewiseAffineMap:
    """Composite map: perturbation first, then the generalized baker map.

    The perturbation leaves x untouched and the baker branches are full-
    height vertical strips, so the composition flattens into an explicit
    branch list (intersect strip intervals, stack the affine actions).
    The result is non-invertible whenever eps > 0.
    """
    pert = build_perturbation(l, x_tilde, eps)
    baker = build_generalized_baker(l)
    branches = []
    for bn in pert.branches:
        for bm in baker.branches:
            x_lo, x_hi = max(bn.x_lo, bm.x_lo), min(bn.x_hi, bm.x_hi)
            if x_lo >= x_hi:
                continue
            lin = tuple(
                tuple(
                    sum(bm.linear[i][k] * bn.linear[k][j] for k in range(2))
                    for j in range(2)
                )
                for i in range(2)
            )
            off = tuple(
                sum(bm.linear[i][k] * bn.offset[k] for k in range(2)) + bm.offset[i]
                for i in range(2)
            )
            branches.append(
                AffineBranch(x_lo, x_hi, bn.y_lo, bn.y_hi, lin, off, label=bm.label)
            )
    return PiecewiseAffineMap("mapK", tuple(branches), family="map2", l=pert.l,
                              x_tilde=pert.x_tilde, eps=pert.eps)


# ---------------------------------------------------------------------------
# reversibility verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityFailure:
    point: PhasePoint
    identity: str
    detail: str


@dataclass
class ReversibilityReport:
    map_name: str
    samples: int
    checks: dict[str, int]
    failures: list[IdentityFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def failed_identities(self) -> set[str]:
        return {f.identity for f in self.failures}

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "map": self.map_name,
            "samples": self.samples,
            "checks": dict(sorted(self.checks.items())),
            "ok": self.ok,
            "failures": [
                {"identity": f.identity, "x": str(f.point.x), "y": str(f.point.y),
                 "detail": f.detail}
                for f in self.failures
            ],
        }


def _shrunken_corners(lo, hi) -> list[Fraction]:
    inset = (hi - lo) / 4096
    return [lo + inset, hi - inset]


def verify_reversibility(m: PiecewiseAffineMap, involution: PiecewiseAffineMap,
                         samples: Sequence[PhasePoint]) -> ReversibilityReport:
    """Check the reversal identities on exact rational sample points.

    Per sample: the involution squares to the identity, conjugating the map
    by the involution inverts it, the jacobians at a point and at its
    reversed image are reciprocal, and region labels transform by the
    family conjugacy.  Region-corner images are checked on points shrunk
    slightly into each region, since exact corners sit on branch
    boundaries where the half-open convention is arbitrary.  The map's
    branch is looked up once per point and gives both the image and the
    jacobian; a point outside the unit square raises `ValueError`.
    """
    from bakerfr.families import symbols

    conj = symbols(m.family).conjugacy if m.partition is not None else None
    checks = {"involution_squares_to_identity": 0, "conjugation_inverts_map": 0,
              "jacobian_reciprocity": 0}
    if conj is not None:
        checks["region_conjugacy"] = 0
    failures: list[IdentityFailure] = []

    def run_point(p: PhasePoint):
        gg = involution.apply(involution.apply(p))
        if gg == p:
            checks["involution_squares_to_identity"] += 1
        else:
            failures.append(IdentityFailure(p, "involution_squares_to_identity",
                                            f"G(G(p)) = {gg}"))
        at_p = m.branch_at(p)
        gmp = involution.apply(at_p.apply(p))
        at_gmp = m.branch_at(gmp)
        back = involution.apply(at_gmp.apply(gmp))
        if back == p:
            checks["conjugation_inverts_map"] += 1
        else:
            failures.append(IdentityFailure(p, "conjugation_inverts_map",
                                            f"G(M(G(M(p)))) = {back}"))
        jac = at_p.jacobian * at_gmp.jacobian
        if jac == 1:
            checks["jacobian_reciprocity"] += 1
        else:
            failures.append(IdentityFailure(p, "jacobian_reciprocity",
                                            f"J(p)*J(GMp) = {jac}"))
        if conj is not None:
            want = conj[m.region_of(p)]
            got = m.region_of(gmp)
            if got == want:
                checks["region_conjugacy"] += 1
            else:
                failures.append(IdentityFailure(
                    p, "region_conjugacy", f"expected {want}, got {got}"))

    count = 0
    for p in samples:
        run_point(p)
        count += 1
    if conj is not None:
        for lo, hi, _label in m.partition:
            for cx in _shrunken_corners(lo, hi):
                for cy in _shrunken_corners(_ZERO, _ONE):
                    run_point(PhasePoint(cx, cy))
                    count += 1
    return ReversibilityReport(m.name, count, checks, failures)


def random_rational_points(count: int, seed: int) -> list[PhasePoint]:
    """Random interior points with a fixed prime denominator, so iterates
    can never hit the branch boundaries of the map families exactly.  A
    negative seed raises `ValueError`."""
    if count < 0:
        raise ValueError(f"need a sample count >= 0, got count={count}")
    if seed < 0:
        # random.Random folds a negative seed onto its absolute value
        raise ValueError(f"need seed >= 0, got seed={seed}")
    rng = random.Random(seed)
    den = SAMPLE_DENOMINATOR
    return [
        PhasePoint(Fraction(rng.randint(1, den - 1), den),
                   Fraction(rng.randint(1, den - 1), den))
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _frac_pair(v: Optional[Fraction]):
    return None if v is None else [v.numerator, v.denominator]


def _pair_frac(v):
    return None if v is None else Fraction(v[0], v[1])


def map_to_dict(m: PiecewiseAffineMap) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": m.name,
        "family": m.family,
        "l": _frac_pair(m.l),
        "x_tilde": _frac_pair(m.x_tilde),
        "eps": _frac_pair(m.eps),
        "branches": [
            {
                "domain": [_frac_pair(b.x_lo), _frac_pair(b.x_hi),
                           _frac_pair(b.y_lo), _frac_pair(b.y_hi)],
                "linear": [[_frac_pair(c) for c in row] for row in b.linear],
                "offset": [_frac_pair(c) for c in b.offset],
                "jacobian": _frac_pair(b.jacobian),
                "label": b.label.value if b.label else None,
            }
            for b in m.branches
        ],
    }


def map_from_dict(d: dict) -> PiecewiseAffineMap:
    branches = tuple(
        AffineBranch(
            _pair_frac(bd["domain"][0]), _pair_frac(bd["domain"][1]),
            _pair_frac(bd["domain"][2]), _pair_frac(bd["domain"][3]),
            tuple(tuple(_pair_frac(c) for c in row) for row in bd["linear"]),
            tuple(_pair_frac(c) for c in bd["offset"]),
            jacobian=_pair_frac(bd["jacobian"]),
            label=RegionLabel(bd["label"]) if bd["label"] else None,
        )
        for bd in d["branches"]
    )
    return PiecewiseAffineMap(d["name"], branches, family=d.get("family"),
                              l=_pair_frac(d.get("l")),
                              x_tilde=_pair_frac(d.get("x_tilde")),
                              eps=_pair_frac(d.get("eps")))


def save_map(m: PiecewiseAffineMap, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(map_to_dict(m), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_map(path) -> PiecewiseAffineMap:
    with open(path, encoding="utf-8") as fh:
        return map_from_dict(json.load(fh))
