"""Phase-space contraction observables.

The per-step contraction -ln J only takes values in {0, +u, -u} where u is
the log of a rational expansion factor fixed by the family (l/(1-l) for the
two-branch map, 2(1-2l) for the four-branch map).  Trajectory averages are
therefore tracked as an integer count g of net expanding-region visits, and
every identity is checked on g rather than on accumulated float logs.
"""

from __future__ import annotations

from fractions import Fraction

from bakerfr import families


class UndefinedValueError(ValueError):
    """A requested observable is undefined at this point or parameter."""


def mean_g_per_step(family: str, l) -> Fraction:
    """Steady-state expectation of the per-step g increment, the same as
    `family(family, l).psi`.  Kept by name because the benchmark tracer
    (`perfbench/tracer.py`) binds it."""
    return families.family(family, l).psi

