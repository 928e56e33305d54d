"""Multibaker lift: an infinite chain of four-branch baker cells.

Each cell evolves by the generalized map; material leaving the
contracting strip B shifts one cell to the right and material leaving the
expanding strip C shifts one cell to the left, so the cumulative
displacement of a trajectory equals its net visit count g.  The bias
parameter b = 2 - 1/(1-2l) controls the steady current."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from bakerfr.families import family
from bakerfr.maps import as_fraction
from bakerfr.transfer import ConsistencyError

DEFAULT_TRANSIENT = 100


class CurrentEstimate(NamedTuple):
    psi_hat: float
    stderr: float
    steps: int
    particles: int


def bias_of(l) -> Fraction:
    l = as_fraction(l)
    return 2 - 1 / (1 - 2 * l)


def l_of_bias(b) -> Fraction:
    """The strip width of bias b in (0, 1); b = 1 would be l = 0, no map."""
    b = as_fraction(b)
    if not 0 < b < 1:
        raise ValueError(f"need a bias b in (0, 1), got b={b}")
    return (1 - b) / (2 * (2 - b))


def analytic_current(l) -> Fraction:
    """Steady-state cells per step per particle: (1-4l)/(1+4l), checked
    equal to b/(4-3b) in the bias parameter.

    The `family("map2", l)` record build checks it once per l against the
    measure route psi = sum(mu * g) = mu_B - mu_C, with mu the
    `transfer.region_measures` of the record's `x_factor`; callers read
    `family("map2", l).psi`."""
    l = as_fraction(l)
    direct = (1 - 4 * l) / (1 + 4 * l)
    b = bias_of(l)
    via_bias = b / (4 - 3 * b)
    if via_bias != direct:
        raise ConsistencyError(f"bias route {via_bias} != direct form {direct}")
    return direct


def simulate_current(l, particles: int, steps: int, seed: int,
                     transient: int = DEFAULT_TRANSIENT) -> CurrentEstimate:
    """Empirical current from independent particles of the record's map
    `family("map2", l).map`, started uniformly in cell zero.  The
    displacement of each particle is its g count, so the sampling backend
    is shared with the fluctuation histograms.  The mean and the standard
    error are exact moments of the g histogram rounded once, in O(steps) memory."""
    from bakerfr.ensembles import sample_g

    if particles < 2:
        raise ValueError(f"a standard error needs at least 2 particles, got {particles}")
    if steps < 1:
        raise ValueError(f"need n >= 1 steps, got n={steps}")
    counts = sample_g(family("map2", l).map, steps, particles, transient, seed).tolist()
    s1, s2 = (sum(c * g ** k for g, c in enumerate(counts, -steps)) for k in (1, 2))
    # the sample variance (ddof=1) of g / steps, over the particle count
    var_mean = Fraction(particles * s2 - s1 * s1, particles ** 2 * (particles - 1) * steps ** 2)
    return CurrentEstimate(float(Fraction(s1, particles * steps)), math.sqrt(var_mean),
                           steps, particles)


class SweepRow(NamedTuple):
    b: Fraction
    l: Fraction
    psi_analytic: Fraction
    psi_hat: float
    stderr: float
    lambda_analytic: float
    lambda_hat: float

    @property
    def psi_hat_over_b(self) -> float:
        return self.psi_hat / float(self.b)

    @property
    def lambda_hat_over_b2(self) -> float:
        return self.lambda_hat / float(self.b) ** 2


def linear_response_sweep(b_values, particles: int, steps: int, seed: int,
                          transient: int = DEFAULT_TRANSIENT) -> list[SweepRow]:
    """Current and mean contraction along a list of bias values.

    Asserts the bias forms of the record exactly: psi/b equals 1/(4-3b)
    (so the zero-bias slope is 1/4) and the unit base equals 2/(2-b).
    Together they fix the mean contraction lambda = b/(4-3b) ln(2/(2-b))
    = b^2/8 + b^3/8 + O(b^4)."""
    rows = []
    for idx, b_in in enumerate(b_values):
        b = as_fraction(b_in)
        l = l_of_bias(b)
        fam = family("map2", l)
        psi = fam.psi
        if psi / b != 1 / (4 - 3 * b):
            raise ConsistencyError("psi/b must equal 1/(4-3b) exactly")
        if fam.unit_base != 2 / (2 - b):
            raise ConsistencyError(f"unit base {fam.unit_base} != 2/(2-b) at b={b}")
        phi = math.log(fam.unit_base)
        lam = float(psi) * phi
        est = simulate_current(l, particles, steps, seed + idx, transient)
        rows.append(SweepRow(b, l, psi, est.psi_hat, est.stderr, lam,
                             est.psi_hat * phi))
    return rows
