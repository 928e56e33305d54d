"""Piecewise-affine maps of the unit square, in exact arithmetic.

Every branch is monomial (each output coordinate is a scaled, shifted
copy of one input coordinate), so the preimage of a rectangle is a
rectangle: `compose` is exact on the common refinement, and
`verify_reversibility` proves the reversal identities on every piece.
Coefficients and `PhasePoint` coordinates are ``Fraction``s only; the
float sampler is `bakerfr.ensembles`.  Branch domains follow the
half-open convention ``[lo, hi)`` with the top edge of the square closed
(`_within`, on integers), which makes region membership total and
deterministic.  A branch's action is written once, on integers
(`AffineBranch._act`); `AffineBranch.apply` is its ``Fraction`` form.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)

#: prime denominator used for boundary-avoiding random rational samples;
#: orbits of such points can never land on the small-denominator branch
#: boundaries of the map families.
SAMPLE_DENOMINATOR = 1_000_003


class MapConstructionError(ValueError):
    """Raised when map parameters or branch data are invalid."""


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


class CheckedRecord:
    """Base of a record (a NamedTuple subclass) whose `__new__` checks its
    fields: `_replace` goes through that constructor, which namedtuple's
    own `_replace` skips.  A subclass sets ``__slots__ = ()`` unless it has
    a `cached_property`, which needs the instance ``__dict__``.  No
    package code calls `_replace`; it keeps the copies that library
    callers and tests derive as strictly checked as the constructor."""

    __slots__ = ()

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})


class _PhasePoint(NamedTuple):
    x: Fraction
    y: Fraction


class PhasePoint(CheckedRecord, _PhasePoint):
    """A point of the unit square with exact rational coordinates."""

    __slots__ = ()

    def __new__(cls, x: Fraction, y: Fraction):
        if not (isinstance(x, Fraction) and isinstance(y, Fraction)):
            raise TypeError(f"PhasePoint needs Fraction coordinates, got {x!r}, {y!r}")
        return super().__new__(cls, x, y)


def _within(n: int, d: int, lo_n: int, lo_d: int, hi_n: int, hi_d: int) -> bool:
    """Half-open membership n/d in [lo_n/lo_d, hi_n/hi_d), closed at the
    top edge 1 of the square, by cross-multiplication; every denominator
    is positive, and no pair need be in lowest terms."""
    return (lo_n * d <= n * lo_d and n * hi_d < hi_n * d) or (n == d and hi_n == hi_d)


#: a point (x, y) as the integers (x_num, x_den, y_num, y_den), both
#: denominators positive and neither pair necessarily in lowest terms
IntPoint = tuple[int, int, int, int]


def _int_point(p: PhasePoint) -> IntPoint:
    return (p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator)


def _phase_point(xn: int, xd: int, yn: int, yd: int) -> PhasePoint:
    return PhasePoint(Fraction(xn, xd), Fraction(yn, yd))


def _same_point(a: IntPoint, b: IntPoint) -> bool:
    return a[0] * b[1] == b[0] * a[1] and a[2] * b[3] == b[2] * a[3]


def common_denominator(values) -> tuple[int, list[int]]:
    """The least common denominator L of the rationals `values`, and each
    value times L, an integer."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


Vector2 = tuple[Fraction, Fraction]
Rect = tuple[Fraction, Fraction, Fraction, Fraction]  # (x_lo, x_hi, y_lo, y_hi)


def _meet(r: Rect, s: Rect) -> Optional[Rect]:
    """Intersection of two rectangles, or None unless it has positive area."""
    x_lo, x_hi = max(r[0], s[0]), min(r[1], s[1])
    y_lo, y_hi = max(r[2], s[2]), min(r[3], s[3])
    return (x_lo, x_hi, y_lo, y_hi) if x_lo < x_hi and y_lo < y_hi else None


def _area(r: Rect) -> Fraction:
    return (r[1] - r[0]) * (r[3] - r[2])


def _affine_interval(lo, hi, s, t) -> tuple[Fraction, Fraction]:
    """Image (min, max) of [lo, hi] under v -> s v + t."""
    a, b = s * lo + t, s * hi + t
    return (a, b) if a <= b else (b, a)


class _AffineBranch(NamedTuple):
    x_lo: Fraction
    x_hi: Fraction
    y_lo: Fraction
    y_hi: Fraction
    scale: Vector2
    offset: Vector2
    swap: bool = False
    label: Optional[RegionLabel] = None


class AffineBranch(CheckedRecord, _AffineBranch):
    """One affine piece: a domain rectangle and the monomial action

        x' = sx (y if swap else x) + tx,    y' = sy (x if swap else y) + ty,

    with ``scale = (sx, sy)`` and ``offset = (tx, ty)``; the jacobian
    |sx sy| is derived, and a zero scale raises `MapConstructionError`."""

    def __new__(cls, x_lo, x_hi, y_lo, y_hi, scale, offset, swap=False, label=None):
        x_lo, x_hi, y_lo, y_hi = map(as_fraction, (x_lo, x_hi, y_lo, y_hi))
        (sx, sy), offset = map(as_fraction, scale), tuple(map(as_fraction, offset))
        if not (0 <= x_lo < x_hi <= 1 and 0 <= y_lo < y_hi <= 1):
            raise MapConstructionError(
                f"degenerate or out-of-square domain [{x_lo}, {x_hi}) x [{y_lo}, {y_hi})")
        if sx == 0 or sy == 0:
            raise MapConstructionError(f"zero scale ({sx}, {sy})")
        return super().__new__(cls, x_lo, x_hi, y_lo, y_hi, (sx, sy), offset, swap, label)

    @cached_property
    def jacobian(self) -> Fraction:
        sx, sy = self.scale
        return abs(sx * sy)

    # -- geometry ---------------------------------------------------------

    @property
    def domain(self) -> Rect:
        return (self.x_lo, self.x_hi, self.y_lo, self.y_hi)

    @property
    def action(self) -> tuple[bool, Vector2, Vector2]:
        """(swap, scale, offset): equal actions are equal affine maps."""
        return (self.swap, self.scale, self.offset)

    @cached_property
    def _box(self) -> tuple[int, ...]:
        """The domain edges x_lo, x_hi, y_lo, y_hi as numerator, denominator."""
        return tuple(i for c in self.domain for i in (c.numerator, c.denominator))

    def _holds(self, pt: IntPoint) -> bool:
        b = self._box
        return (_within(pt[0], pt[1], b[0], b[1], b[2], b[3])
                and _within(pt[2], pt[3], b[4], b[5], b[6], b[7]))

    @cached_property
    def image_rect(self) -> Rect:
        """Image (x_lo, x_hi, y_lo, y_hi) of the domain rectangle."""
        (sx, sy), (tx, ty) = self.scale, self.offset
        u, v = (self.x_lo, self.x_hi), (self.y_lo, self.y_hi)
        u, v = (v, u) if self.swap else (u, v)
        return (*_affine_interval(*u, sx, tx), *_affine_interval(*v, sy, ty))

    def preimage(self, r: Rect) -> Optional[Rect]:
        """The part of the domain that the action sends into `r`: a
        rectangle, or None unless it has positive area."""
        (sx, sy), (tx, ty) = self.scale, self.offset
        u = _affine_interval(r[0], r[1], 1 / sx, -tx / sx)
        v = _affine_interval(r[2], r[3], 1 / sy, -ty / sy)
        return _meet(self.domain, (*v, *u) if self.swap else (*u, *v))

    # -- action ------------------------------------------------------------

    @cached_property
    def _coeffs(self) -> tuple[int, ...]:
        """(a, c, q) per output: scale a/q and offset c/q over one
        denominator."""
        out = []
        for pair in zip(self.scale, self.offset):
            q, (a, c) = common_denominator(pair)
            out += [a, c, q]
        return tuple(out)

    def _act(self, pt: IntPoint) -> IntPoint:
        """The action on an integer point, in no lowest terms: an input
        u/w goes to (a u + c w) / (q w)."""
        un, ud, vn, vd = (pt[2], pt[3], pt[0], pt[1]) if self.swap else pt
        ax, cx, qx, ay, cy, qy = self._coeffs
        return (ax * un + cx * ud, qx * ud, ay * vn + cy * vd, qy * vd)

    def apply(self, p: PhasePoint) -> PhasePoint:
        return _phase_point(*self._act(_int_point(p)))


_IDENTITY = (False, (_ONE, _ONE), (_ZERO, _ZERO))


def _after(outer: AffineBranch, inner: AffineBranch, domain: Rect) -> AffineBranch:
    """`outer` after `inner` on a `domain` that `inner` sends into the
    domain of `outer`, with the outer label.  Output i of `outer` reads
    output i of `inner`, or the other one when `outer` swaps."""
    read = (1, 0) if outer.swap else (0, 1)
    scale = tuple(outer.scale[i] * inner.scale[read[i]] for i in range(2))
    offset = tuple(outer.scale[i] * inner.offset[read[i]] + outer.offset[i]
                   for i in range(2))
    return AffineBranch(*domain, scale, offset, outer.swap != inner.swap, outer.label)


class _PiecewiseAffineMap(NamedTuple):
    name: str
    branches: tuple[AffineBranch, ...]
    family: Optional[str] = None  # "map1" | "map2" region conventions
    l: Optional[Fraction] = None
    x_tilde: Optional[Fraction] = None
    eps: Optional[Fraction] = None


class PiecewiseAffineMap(CheckedRecord, _PiecewiseAffineMap):
    """A finite list of affine branches whose domains tile the unit square."""

    def __new__(cls, name, branches, family=None, l=None, x_tilde=None, eps=None):
        branches = tuple(branches)
        if not branches:
            raise MapConstructionError("map needs at least one branch")
        total = sum(_area(b.domain) for b in branches)
        if total != 1:
            raise MapConstructionError(f"branch domains have total area {total} != 1")
        for (i, a), (j, b) in combinations(enumerate(branches), 2):
            if _meet(a.domain, b.domain):
                raise MapConstructionError(f"branch domains {i} and {j} overlap in {name}")
        return super().__new__(cls, name, branches, family, l, x_tilde, eps)

    # -- structural properties ----------------------------------------------

    @cached_property
    def invertible(self) -> bool:
        """True when branch images tile the square (inverse is well defined)."""
        rects = [b.image_rect for b in self.branches]
        return sum(_area(r) for r in rects) == 1 and not any(
            _meet(r, s) for r, s in combinations(rects, 2))

    # -- operations ----------------------------------------------------------

    def branch_at(self, p: PhasePoint) -> AffineBranch:
        return self._branch_of(_int_point(p))

    def _branch_of(self, pt: IntPoint) -> AffineBranch:
        xn, xd, yn, yd = pt
        if not (0 <= xn <= xd and 0 <= yn <= yd):
            raise ValueError(f"point {_phase_point(*pt)} outside the unit square")
        for b in self.branches:
            if b._holds(pt):
                return b
        raise ValueError(f"point {_phase_point(*pt)} not covered by any branch of {self.name}")

    def apply(self, p: PhasePoint) -> PhasePoint:
        return self.branch_at(p).apply(p)

    def _apply_ints(self, pt: IntPoint) -> IntPoint:
        return self._branch_of(pt)._act(pt)

    def jacobian_at(self, p: PhasePoint) -> Fraction:
        return self.branch_at(p).jacobian


def compose(outer: PiecewiseAffineMap, inner: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """The map p -> outer(inner(p)) on the common refinement: the part of
    each inner piece that the inner action sends into one outer piece, a
    rectangle (the monomial preimage of one), with one monomial action and
    the outer label.  It equals ``outer.apply(inner.apply(p))`` off the
    piece edges, a null set.  An inner image that leaves the square
    leaves the pieces short of area 1: `MapConstructionError`."""
    pieces = [_after(a, b, part)
              for b in inner.branches for a in outer.branches
              if (part := b.preimage(a.domain))]
    return PiecewiseAffineMap(f"{outer.name} o {inner.name}", pieces)


def overlay(m1: PiecewiseAffineMap, m2: PiecewiseAffineMap):
    """(rect, b1, b2) for every piece b1 of `m1` and b2 of `m2` whose
    domains overlap in positive area; the rects tile the square."""
    for b1 in m1.branches:
        for b2 in m2.branches:
            if rect := _meet(b1.domain, b2.domain):
                yield rect, b1, b2


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
        AffineBranch(0, l, 0, 1, (1 / l, r), (_ZERO, _ZERO), label=RegionLabel.A),
        AffineBranch(l, 1, 0, 1, (1 / r, l), (-l / r, r), label=RegionLabel.B),
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
        AffineBranch(0, l, 0, 1, (1 / (2 * l), 2 * l), (_HALF, w), label=RegionLabel.A),
        AffineBranch(l, _HALF, 0, 1, (1 / w, _HALF), (-l / w, _HALF), label=RegionLabel.B),
        AffineBranch(_HALF, Fraction(3, 4), 0, 1, (2, w), (-_HALF, _ZERO),
                     label=RegionLabel.C),
        AffineBranch(Fraction(3, 4), 1, 0, 1, (2, _HALF), (-Fraction(3, 2), _ZERO),
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
        branch = AffineBranch(0, 1, 0, 1, (-_ONE, -_ONE), (_ONE, _ONE), swap=True)
        return PiecewiseAffineMap("involution1", (branch,), family="map1")
    if map_kind == "map2":
        branches = (
            AffineBranch(0, _HALF, 0, 1, (-_HALF, -2), (_ONE, _ONE), swap=True),
            AffineBranch(_HALF, 1, 0, 1, (-_HALF, -2), (_HALF, 2), swap=True),
        )
        return PiecewiseAffineMap("involution2", branches, family="map2")
    raise MapConstructionError(f"unknown map kind {map_kind!r}")


def default_strip(l) -> tuple[Fraction, Fraction]:
    """Default perturbation strip strictly inside region B."""
    l = as_fraction(l)
    x_tilde = l + (_HALF - l) / 4
    eps = (_HALF - l) / 8
    return x_tilde, eps


def _identity_branch(x_lo, x_hi, y_lo=_ZERO, y_hi=_ONE, label=None) -> AffineBranch:
    return AffineBranch(x_lo, x_hi, y_lo, y_hi, (_ONE, _ONE), (_ZERO, _ZERO), label=label)


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
            AffineBranch(x_tilde, x_tilde + eps, 0, _HALF, (_ONE, -_ONE), (_ZERO, _ONE)),
            _identity_branch(x_tilde, x_tilde + eps, _HALF, 1),
            _identity_branch(x_tilde + eps, 1),
        )
    return PiecewiseAffineMap("mapN", branches, family="map2", l=l,
                              x_tilde=x_tilde, eps=eps)


def build_composite(l, x_tilde=None, eps=None) -> PiecewiseAffineMap:
    """Composite map: perturbation first, then the generalized baker map.

    The perturbation leaves x untouched and the baker branches are full-
    height vertical strips, so each piece of the perturbation meets each
    strip of the map in the x-interval the two share.  This strip
    intersection is the builder's own, independent of the general
    preimages of `compose`, which `families.verify_composite` checks it
    against.  The result is non-invertible whenever eps > 0.
    """
    pert = build_perturbation(l, x_tilde, eps)
    baker = build_generalized_baker(l)
    branches = []
    for bn in pert.branches:
        for bm in baker.branches:
            x_lo, x_hi = max(bn.x_lo, bm.x_lo), min(bn.x_hi, bm.x_hi)
            if x_lo < x_hi:
                branches.append(_after(bm, bn, (x_lo, x_hi, bn.y_lo, bn.y_hi)))
    return PiecewiseAffineMap("mapK", tuple(branches), family="map2", l=pert.l,
                              x_tilde=pert.x_tilde, eps=pert.eps)


# ---------------------------------------------------------------------------
# reversibility verification
# ---------------------------------------------------------------------------


class IdentityFailure(NamedTuple):
    point: PhasePoint
    identity: str
    detail: str


class PieceProof(NamedTuple):
    """One identity decided on every piece of an exact composition: the
    number of pieces, those on which it fails and their total area."""

    pieces: int
    failed_pieces: int
    failed_area: Fraction


class ReversibilityReport(NamedTuple):
    map_name: str
    samples: int
    checks: dict[str, int]
    failures: list[IdentityFailure]
    proofs: dict[str, PieceProof]

    @property
    def ok(self) -> bool:
        return not self.failed_identities()

    def failed_identities(self) -> set[str]:
        """Identities that fail at a sample point or on a piece."""
        return ({f.identity for f in self.failures}
                | {name for name, proof in self.proofs.items() if proof.failed_pieces})


def _proof(cells) -> PieceProof:
    """Tally (rect, holds) pairs into a `PieceProof`."""
    cells = list(cells)
    failed = [_area(rect) for rect, holds in cells if not holds]
    return PieceProof(len(cells), len(failed), sum(failed, _ZERO))


def verify_reversibility(m: PiecewiseAffineMap, involution: PiecewiseAffineMap,
                         samples: Sequence[PhasePoint]) -> ReversibilityReport:
    """Check the reversal identities: the involution G squares to the
    identity, conjugating the map M by G inverts it, the jacobians at a
    point and at its reversed image are reciprocal, and region labels
    transform by the family conjugacy.  A map that carries a family and
    an l gets its record from `families.verify_x_factor`, which refuses
    (`ConsistencyError`) a map without its family's x-factor; a map
    without either has no region identity.

    Two independent routes.  The proofs decide each identity on every
    piece of the exact compositions G o G, (G o M) o (G o M) and
    M o (G o M), and for the regions on the overlay of the record's
    x-factor strips, as a labelled identity map S, with S o (G o M); each
    gives the area on which it fails, and the region proof does not read
    the labels of M.  A jacobian is constant on a piece, so it is read at
    the piece's centre, which G o M sends inside one piece of M.  The
    samples check each identity at exact rational points, plus region
    corners shrunk into each region (exact corners sit on branch
    boundaries, where the half-open convention is arbitrary); a point
    outside the unit square raises `ValueError`.  They run on the
    integers of each point (`IntPoint`): branches are found and images
    compared by cross-multiplication, without reducing to lowest terms,
    and a `PhasePoint` is built only for a failure.  The region of p and
    of G(M(p)) is the label of the branch of M found there: the x-factor
    check has proved that every piece of M lies inside one record strip
    and carries its label."""
    # families imports maps, and perfbench/tracer.py wraps this function
    # as maps.verify_reversibility, so the record is imported here
    from bakerfr.families import verify_x_factor

    fam = None if m.family is None or m.l is None else verify_x_factor(m)
    gm = compose(involution, m)

    def identity(b: AffineBranch):
        return b.domain, b.action == _IDENTITY

    def reciprocal(b: AffineBranch):
        q = PhasePoint((b.x_lo + b.x_hi) / 2, (b.y_lo + b.y_hi) / 2)
        return b.domain, m.jacobian_at(q) * m.jacobian_at(gm.apply(q)) == 1

    proofs = {
        "involution_squares_to_identity": _proof(
            map(identity, compose(involution, involution).branches)),
        "conjugation_inverts_map": _proof(map(identity, compose(gm, gm).branches)),
        "jacobian_reciprocity": _proof(map(reciprocal, compose(m, gm).branches)),
    }
    points = list(samples)
    if fam is not None:
        conj = fam.conjugacy
        strips = PiecewiseAffineMap("strips", [_identity_branch(b.lo, b.hi, label=b.label)
                                               for b in fam.x_factor.branches])
        proofs["region_conjugacy"] = _proof(
            (rect, after.label == conj[at.label])
            for rect, at, after in overlay(strips, compose(strips, gm)))
        inset = (Fraction(1, 4096), Fraction(4095, 4096))  # region corners, shrunk
        points += [PhasePoint(b.lo + (b.hi - b.lo) * t, s) for b in fam.x_factor.branches
                   for t in inset for s in inset]
    checks = dict.fromkeys(proofs, 0)
    failures: list[IdentityFailure] = []
    for p in points:
        pt = _int_point(p)
        gg = involution._apply_ints(involution._apply_ints(pt))
        at_p = m._branch_of(pt)
        gmp = involution._apply_ints(at_p._act(pt))
        at_gmp = m._branch_of(gmp)
        back = involution._apply_ints(at_gmp._act(gmp))
        j_p, j_gmp = at_p.jacobian, at_gmp.jacobian
        jac = (j_p.numerator * j_gmp.numerator, j_p.denominator * j_gmp.denominator)
        # (identity, holds, detail template, and the function and arguments
        # that build the value shown on failure)
        outcomes = [("involution_squares_to_identity", _same_point(gg, pt),
                     "G(G(p)) = {}", _phase_point, gg),
                    ("conjugation_inverts_map", _same_point(back, pt),
                     "G(M(G(M(p)))) = {}", _phase_point, back),
                    ("jacobian_reciprocity", jac[0] == jac[1], "J(p)*J(GMp) = {}", Fraction, jac)]
        if fam is not None:
            want, got = conj[at_p.label], at_gmp.label
            outcomes.append(("region_conjugacy", got == want, f"expected {want}, got {{}}",
                             RegionLabel, (got,)))
        for name, holds, detail, build, value in outcomes:
            if holds:
                checks[name] += 1
            else:
                failures.append(IdentityFailure(p, name, detail.format(build(*value))))
    return ReversibilityReport(m.name, len(points), checks, failures, proofs)


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

