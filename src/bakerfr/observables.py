"""Phase-space contraction observables and trajectory bookkeeping.

The per-step contraction -ln J only takes values in {0, +u, -u} where u is
the log of a rational expansion factor fixed by the family (l/(1-l) for the
two-branch map, 2(1-2l) for the four-branch map).  Trajectory averages are
therefore tracked as an integer count g of net expanding-region visits, and
every identity is checked on g rather than on accumulated float logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from bakerfr import families
from bakerfr.maps import PhasePoint, PiecewiseAffineMap, RegionLabel

#: exact iteration guard: the denominators of rational coordinates grow
#: geometrically with the step count
MAX_EXACT_STEPS = 64


class UndefinedValueError(ValueError):
    """A requested observable is undefined at this point or parameter."""


def mean_g_per_step(family: str, l) -> Fraction:
    """Steady-state expectation of the per-step g increment, the same as
    `family(family, l).psi`.  Kept by name because the benchmark tracer
    (`perfbench/tracer.py`) binds it."""
    return families.family(family, l).psi


@dataclass(frozen=True)
class SymbolSequence:
    labels: tuple[RegionLabel, ...]
    family: str
    admissible: bool = field(init=False)   # every transition is allowed

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        succ = families.symbols(self.family).successors
        object.__setattr__(self, "admissible", all(
            b in succ[a] for a, b in zip(self.labels, self.labels[1:])))

    def __len__(self):
        return len(self.labels)

    def g(self) -> int:
        """Net count of expanding-region visits."""
        g = families.symbols(self.family).g
        return sum(g[lab] for lab in self.labels)


@dataclass(frozen=True)
class TrajectorySegment:
    initial: PhasePoint
    steps: int
    symbols: SymbolSequence


def trajectory_segment(m: PiecewiseAffineMap, x0: PhasePoint, n: int) -> TrajectorySegment:
    """Evolve n steps (at most MAX_EXACT_STEPS) and record the n+1 visited
    region labels."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n > MAX_EXACT_STEPS:
        raise ValueError(f"{n} exact-rational steps exceed the cap {MAX_EXACT_STEPS}")
    labels = tuple(m.region_of(p) for p in m.iterate(x0, n))
    return TrajectorySegment(x0, n, SymbolSequence(labels, m.family))


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


def average_contraction(m: PiecewiseAffineMap, x0: PhasePoint, n: int) -> ContractionStats:
    """Average contraction over the n labels of x_0 .. x_{n-1}."""
    if n < 1:
        raise ValueError("need n >= 1")
    seg = trajectory_segment(m, x0, n - 1)
    g = seg.symbols.g()
    return ContractionStats(m.family, m.l, g, n)


def lambda_at(m: PiecewiseAffineMap, p: PhasePoint) -> float:
    """Local contraction rate -ln J at p."""
    return -math.log(m.jacobian_at(p))


def reversed_initial(m: PiecewiseAffineMap, involution: PiecewiseAffineMap,
                     x0: PhasePoint, n: int) -> PhasePoint:
    """Initial condition of the time-reversed segment: the involution
    applied to the point one step past the forward segment (n at most
    MAX_EXACT_STEPS).  For a reversible map, where `verify_reversibility`
    proves G o M o G = M^-1 on every piece, n steps from it end at G(x0)."""
    if n > MAX_EXACT_STEPS:
        raise ValueError(f"{n} exact-rational steps exceed the cap {MAX_EXACT_STEPS}")
    return involution.apply(m.iterate(x0, n)[-1])


def reversed_symbol_sequence(seq: SymbolSequence) -> SymbolSequence:
    """Symbols of the time-reversed segment: read backwards with the
    expanding and contracting regions swapped (A, D fixed)."""
    conj = families.symbols(seq.family).conjugacy
    return SymbolSequence(tuple(conj[lab] for lab in reversed(seq.labels)),
                          seq.family)
