"""Per-sequence and per-point references that the tests check the program
against: the cylinder measure of one symbol sequence, the boundary formula
of its fluctuation-ratio correction, the exact orbit of a point with its
regions and g count, and the multibaker lift.  The program computes these
facts level by level or on integers; nothing in it calls this module."""

from fractions import Fraction
from typing import Iterator, NamedTuple

from bakerfr.families import family
from bakerfr.fluctuation import ChainSpec
from bakerfr.maps import PhasePoint, PiecewiseAffineMap, RegionLabel, in_interval

_ZERO = Fraction(0)


def sequence_measure(spec: ChainSpec, labels) -> Fraction:
    """Steady-state cylinder measure of an explicit symbol sequence;
    zero when any transition is forbidden.  With `admissible_sequences`
    this is the per-sequence definition that the tests check the
    prefix-shared walks of `brute_force_distribution` and
    `alpha_bounds_check` against."""
    w = spec.initial.get(labels[0], _ZERO)
    for a, b in zip(labels, labels[1:]):
        w *= spec.trans.get((a, b), _ZERO)
        if w == 0:
            return _ZERO
    return w


def admissible_sequences(spec: ChainSpec, n: int) -> Iterator[tuple[RegionLabel, ...]]:
    """All positive-measure symbol sequences of length n, in lexicographic
    order.  The exact oracles reach the same leaves in the same order without
    building the sequences; the tests check them against this list."""

    def extend(prefix: tuple[RegionLabel, ...]) -> Iterator[tuple[RegionLabel, ...]]:
        if len(prefix) == n:
            yield prefix
            return
        for succ in spec.successors(prefix[-1]):
            yield from extend(prefix + (succ,))

    for lab in spec.labels:
        if spec.initial.get(lab, _ZERO) > 0:
            yield from extend((lab,))


def alpha_direct(spec: ChainSpec, seq) -> Fraction:
    """Per-sequence correction from the boundary terms alone.  Every step
    into region j has the same probability col[j] (the common nonzero
    entry of column j, `Family.col`), and col[j] / col[conj j] = base^(g_j),
    so all but the window ends cancel: alpha = mu[s1] col[conj sn] /
    (mu[conj sn] col[s1])."""
    first, last = seq[0], spec.fam.conjugacy[seq[-1]]
    col = spec.fam.col
    return spec.initial[first] * col[last] / (spec.initial[last] * col[first])


def iterate(m: PiecewiseAffineMap, p: PhasePoint, n: int) -> list[PhasePoint]:
    """Orbit [p, M p, ..., M^n p] (length n+1), in exact rationals.
    The tests' orbit facts go through it: symbol sequences, the
    time-reversed segment, which starts at G(M^n p), and the lift."""
    orbit = [p]
    for _ in range(n):
        p = m.apply(p)
        orbit.append(p)
    return orbit


def region_of(m: PiecewiseAffineMap, p: PhasePoint) -> RegionLabel:
    """The region of the strip partition of m's family record that holds p."""
    for lo, hi, label in family(m.family, m.l).partition:
        if in_interval(p.x, lo, hi):
            return label
    raise ValueError(f"x={p.x} not covered by the region partition")


def g_count(m: PiecewiseAffineMap, p: PhasePoint, n: int) -> int:
    """Net count g of expanding-region visits over the regions of x_0 .. x_{n-1}."""
    g = family(m.family, m.l).g
    return sum(g[region_of(m, q)] for q in iterate(m, p, n - 1))


class ChainState(NamedTuple):
    cell: int
    local: PhasePoint


def lift_step(m: PiecewiseAffineMap, s: ChainState) -> ChainState:
    """One multibaker step: advance the local coordinates and move the
    cell index by the g increment of the current region (+1 from strip B,
    -1 from strip C, 0 otherwise for the four-branch map).  It is the exact
    reference model of the lift: the sampler only counts g, and the tests
    check that the displacement of this model equals g."""
    region = region_of(m, s.local)
    return ChainState(s.cell + family(m.family, m.l).g[region], m.apply(s.local))
