"""Phase-space contraction observables.

The per-step contraction -ln J only takes values in {0, +u, -u} where u is
the log of a rational expansion factor fixed by the family (l/(1-l) for the
two-branch map, 2(1-2l) for the four-branch map).  Trajectory averages are
therefore tracked as an integer count g of net expanding-region visits, and
every identity is checked on g rather than on accumulated float logs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from bakerfr import families
from bakerfr.maps import PhasePoint, PiecewiseAffineMap

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
