"""Exact and Monte-Carlo verification of steady-state fluctuation relations
in dissipative baker maps.

The package implements two reversible piecewise-affine baker maps of the
unit square (a two-branch "simple" map and a four-branch "generalized" map
with a discontinuous invariant density), their time-reversal involutions,
an irreversible perturbation acting on a vertical strip, transfer-operator
machinery, exact finite-time contraction statistics, periodic-orbit
expansions, and a multibaker transport lift.  Identities are checked with
exact rational arithmetic; sampling experiments use a vectorized float
backend.
"""

from bakerfr.maps import (
    AffineBranch,
    MapConstructionError,
    PhasePoint,
    PiecewiseAffineMap,
    RegionLabel,
    build_composite,
    build_generalized_baker,
    build_involution,
    build_perturbation,
    build_simple_baker,
    compose,
    default_strip,
    random_rational_points,
    verify_reversibility,
)
from bakerfr.transfer import (
    Map1D,
    StepDensity,
    frobenius_perron_step,
    invariant_density,
    project_unstable,
    region_measures,
    transition_matrix,
    verify_composite,
    verify_x_factor,
)
from bakerfr.families import Family, family
from bakerfr.fluctuation import (
    EmpiricalDistribution,
    FRReport,
    SymbolDistribution,
    alpha_bounds_check,
    brute_force_distribution,
    empirical_fr_report,
    exact_distribution,
    fr_report,
    monte_carlo_distribution,
    sequence_measure,
)
from bakerfr.periodic_orbits import (
    PeriodicOrbit,
    enumerate_orbits,
    generalized_upo_diagnostic,
    upo_distribution,
)
from bakerfr.multibaker import (
    ChainState,
    CurrentEstimate,
    analytic_current,
    bias_of,
    l_of_bias,
    lift_step,
    linear_response_sweep,
    simulate_current,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
