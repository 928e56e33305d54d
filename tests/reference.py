"""References that the tests check the program against: the cylinder
measure of one symbol sequence, the boundary formula of its
fluctuation-ratio correction, the class chain lumped from the region
chain with its packed DP of the exact law and of the map2 cycle trace,
the exact orbit of a point with its regions and g count, and the
multibaker lift.  The program computes these facts
level by level, on integers or by a recurrence; nothing in it calls this
module."""

import math
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Iterator, NamedTuple

from bakerfr.families import Family, family
from bakerfr.fluctuation import ChainSpec, SymbolDistribution, chain_spec
from bakerfr.maps import PhasePoint, PiecewiseAffineMap, RegionLabel, in_interval
from bakerfr.transfer import ConsistencyError

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


class ClassChain(NamedTuple):
    classes: tuple[tuple[RegionLabel, ...], ...]    # regions with equal successors
    into: tuple[tuple[tuple[int, int, int], ...], ...]  # per class y: (x, D p(x, s), g_s)


def class_chain(fam: Family) -> ClassChain:
    """The class chain M(z) of `fam`, lumped here from the region chain
    alone: the regions grouped by the nonzero pattern of their rows of
    `fam.trans`, and per class y one term (x, D p(x, s), g_s) for each
    region s of y entered from class x, read from the row of x's first
    region, D the lcm of the transition denominators.  The program derives
    the trace, determinant and start terms of M(z) from the region chain
    without it (see `families`)."""
    labels, trans = fam.labels, fam.trans
    groups: dict[tuple[RegionLabel, ...], list[RegionLabel]] = {}
    for r in labels:
        groups.setdefault(tuple(s for s in labels if trans[r, s]), []).append(r)
    classes = tuple(map(tuple, groups.values()))
    d = math.lcm(*(p.denominator for p in trans.values()))
    into = tuple(
        tuple((x, (trans[cls[0], s] * d).numerator, fam.g[s])
              for s in target for x, cls in enumerate(classes) if trans[cls[0], s])
        for target in classes)
    return ClassChain(classes, into)


def tilted_steps(into, v: list[int], steps: int, width: int) -> list[int]:
    """Run `steps` steps of a class chain M(z) (`class_chain(...).into`),
    weighted by z^g on arrival.  v holds one polynomial per class, packed
    into an int with slot k at bit k W, W = `width` (the caller makes W
    wide enough that no slot overflows), and one step is
    v[y] <- sum (c v[x]) << ((g + 1) W) over the terms (x, c, g) of
    `into[y]`, c = D p(x, s) for a region s of y."""
    into = [[(x, c, (g + 1) * width) for x, c, g in terms] for terms in into]
    for _ in range(steps):
        v = [reduce(add, [(c * v[x]) << shift for x, c, shift in terms]) for terms in into]
    return v


def slots(packed: int, count: int, nbytes: int) -> list[int]:
    """The first `count` slots of a packed polynomial, `nbytes` bytes each."""
    raw = packed.to_bytes(count * nbytes, "little")
    return [int.from_bytes(raw[k * nbytes:(k + 1) * nbytes], "little")
            for k in range(count)]


def packed_law(name: str, l, n: int, start: str = "stationary") -> SymbolDistribution:
    """The law of g by a forward DP on the class chain of the record
    (`class_chain`), n passes over one int per class (O(n^3 log D)).
    Class X starts at sum_{r in X} E w(r) z^(g_r + 1), and after k symbols,
    k - 1 steps of `tilted_steps`, the slot g+k of class Y holds E D^(k-1)
    times the probability of ending in a region of Y with count g.  All
    slots sum to E D^(k-1) <= E D^(n-1), so with W at least one bit wider
    than that bound no slot can overflow into its neighbour (W is rounded
    up to whole bytes so the final unpacking is a byte slice per slot)."""
    spec = chain_spec(name, l, start)
    fam = spec.fam
    chain = class_chain(fam)
    e = math.lcm(*(w.denominator for w in spec.initial.values()))
    total = e * fam.den ** (n - 1)
    nbytes = total.bit_length() // 8 + 1
    width = 8 * nbytes
    v = [sum((spec.initial[r] * e).numerator << ((fam.g[r] + 1) * width) for r in cls)
         for cls in chain.classes]
    coeffs = slots(sum(tilted_steps(chain.into, v, n - 1, width)), 2 * n + 1, nbytes)
    if sum(coeffs) != total:
        raise ConsistencyError(
            f"packed DP coefficients sum to {sum(coeffs)}, not E*D^(n-1) = {total}")
    return SymbolDistribution(name, fam.l, n, {k - n: c for k, c in enumerate(coeffs)}, total)


def packed_trace(l, n: int) -> dict[int, int]:
    """D^n tr M(z)^n of map2's class chain as {g: coefficient}: n steps of
    `tilted_steps` from 1 in class x leave D^n times the diagonal entry of
    x in v[x], at most k D^n over k classes."""
    fam = family("map2", l)
    into = class_chain(fam).into
    size = len(into)
    nbytes = (size * fam.den ** n).bit_length() // 8 + 1
    trace = sum(tilted_steps(into, [int(y == x) for y in range(size)], n, 8 * nbytes)[x]
                for x in range(size))
    return {k - n: w for k, w in enumerate(slots(trace, 2 * n + 1, nbytes)) if w}


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
