"""Phase-space contraction observables and trajectory bookkeeping.

The per-step contraction -ln J only takes values in {0, +u, -u} where u is
the log of a rational expansion factor fixed by the family (l/(1-l) for the
two-branch map, 2(1-2l) for the four-branch map).  Trajectory averages are
therefore tracked as an integer count g of net expanding-region visits, and
every identity is checked on g rather than on accumulated float logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from bakerfr import families
from bakerfr.maps import PhasePoint, PiecewiseAffineMap, RegionLabel
from bakerfr.transfer import ConsistencyError, StepDensity

#: exact-backend iteration guard; rational coordinates grow geometrically
#: with the step count, so long runs belong to the float backend.
MAX_EXACT_STEPS = 64


class UndefinedValueError(ValueError):
    """A requested observable is undefined at this point or parameter."""


def mean_g_per_step(family: str, l) -> Fraction:
    """Steady-state expectation of the per-step g increment."""
    return families.family(family, l).psi


@dataclass(frozen=True)
class SymbolSequence:
    labels: tuple[RegionLabel, ...]
    family: str
    admissible: bool = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        succ = families.symbols(self.family).successors
        ok = all(b in succ[a] for a, b in zip(self.labels, self.labels[1:]))
        if self.admissible is None:
            object.__setattr__(self, "admissible", ok)
        elif self.admissible != ok:
            raise ValueError("declared admissibility contradicts the labels")

    def __len__(self):
        return len(self.labels)

    def g(self, count: Optional[int] = None) -> int:
        """Net count over the first `count` labels (all by default)."""
        labels = self.labels if count is None else self.labels[:count]
        g = families.symbols(self.family).g
        return sum(g[lab] for lab in labels)

    def text(self) -> str:
        return "".join(lab.value for lab in self.labels)


@dataclass(frozen=True)
class TrajectorySegment:
    initial: PhasePoint
    steps: int
    symbols: SymbolSequence
    points: Optional[tuple[PhasePoint, ...]] = None


def trajectory_segment(m: PiecewiseAffineMap, x0: PhasePoint, n: int,
                       keep_points: bool = False,
                       max_exact_steps: int = MAX_EXACT_STEPS) -> TrajectorySegment:
    """Evolve n steps and record the n+1 visited region labels."""
    if n < 0:
        raise ValueError("need n >= 0")
    if x0.is_rational() and n > max_exact_steps:
        raise ValueError(
            f"{n} exact-rational steps exceed the cap {max_exact_steps}; "
            "raise max_exact_steps explicitly or use float coordinates")
    orbit = m.iterate(x0, n)
    labels = tuple(m.region_of(p) for p in orbit)
    seq = SymbolSequence(labels, m.family)
    return TrajectorySegment(x0, n, seq, tuple(orbit) if keep_points else None)


@dataclass(frozen=True)
class ContractionStats:
    """Time-averaged contraction over a trajectory segment, held as the
    exact count g: the average is g ln(unit_base) / steps, with the unit
    base of `family(family, l)`."""

    family: str
    l: Fraction
    g: int
    steps: int

    @property
    def e_n(self) -> Optional[Fraction]:
        """Normalized contraction; exactly rational, None in the
        zero-dissipation cases (l = 1/2 resp. l = 1/4)."""
        psi = families.family(self.family, self.l).psi
        if psi == 0:
            return None
        return Fraction(self.g, self.steps) / psi


def average_contraction(m: PiecewiseAffineMap, x0: PhasePoint, n: int,
                        max_exact_steps: int = MAX_EXACT_STEPS) -> ContractionStats:
    """Average contraction over the n labels of x_0 .. x_{n-1}."""
    if n < 1:
        raise ValueError("need n >= 1")
    seg = trajectory_segment(m, x0, n - 1, max_exact_steps=max_exact_steps)
    g = seg.symbols.g()
    return ContractionStats(m.family, m.l, g, n)


def lambda_at(m: PiecewiseAffineMap, p: PhasePoint) -> float:
    """Local contraction rate -ln J at p."""
    return -math.log(m.jacobian_at(p))


def mean_lambda_exact(family: str, l) -> tuple[Fraction, Fraction]:
    """Steady-state mean contraction as (coefficient, base) with
    <Lambda> = coefficient * ln(base).  For the four-branch map the
    coefficient is verified across two independent derivations (current
    formula in the bias parameter; region measures) when the family
    record is built."""
    fam = families.family(family, l)
    return fam.psi, fam.unit_base


def mean_lambda_analytic(family: str, l) -> float:
    coeff, base = mean_lambda_exact(family, l)
    return float(coeff) * math.log(base)


def reversed_initial(m: PiecewiseAffineMap, involution: PiecewiseAffineMap,
                     x0: PhasePoint, n: int, check: bool = True,
                     max_exact_steps: int = MAX_EXACT_STEPS) -> PhasePoint:
    """Initial condition of the time-reversed segment: the involution
    applied to the point one step past the forward segment.  In exact mode
    the equivalent backward construction (n inverse steps from the
    reversed start) is asserted to agree."""
    if x0.is_rational() and n > max_exact_steps:
        raise ValueError(f"{n} exact steps exceed the cap {max_exact_steps}")
    forward_end = x0
    for _ in range(n):
        forward_end = m.apply(forward_end)
    rev = involution.apply(forward_end)
    if check and x0.is_rational():
        back = involution.apply(x0)
        for _ in range(n):
            back = m.apply_inverse(back)
        if back != rev:
            raise ConsistencyError(
                "forward and backward constructions of the reversed initial "
                f"condition disagree at n={n}: {rev} vs {back}")
    return rev


def reversed_symbol_sequence(seq: SymbolSequence) -> SymbolSequence:
    """Symbols of the time-reversed segment: read backwards with the
    expanding and contracting regions swapped (A, D fixed)."""
    conj = families.symbols(seq.family).conjugacy
    return SymbolSequence(tuple(conj[lab] for lab in reversed(seq.labels)),
                          seq.family)


def dissipation_function(m: PiecewiseAffineMap, rho: Optional[StepDensity],
                         p: PhasePoint,
                         involution: Optional[PiecewiseAffineMap] = None) -> float:
    """ln(rho(p) / rho(reversed image of p)) plus the local contraction.

    `rho` is the projected x-density (None means uniform, for which the
    output equals the local contraction rate)."""
    from bakerfr.maps import build_involution

    if involution is None:
        involution = build_involution(m.family)
    gmp = involution.apply(m.apply(p))
    lam = lambda_at(m, p)
    if rho is None:
        return lam
    rho_here = rho.value_at(p.x)
    rho_there = rho.value_at(gmp.x)
    if rho_here == 0 or rho_there == 0:
        raise UndefinedValueError(
            f"density vanishes at x={p.x} or x={gmp.x}; dissipation undefined")
    return math.log(rho_here / rho_there) + lam
