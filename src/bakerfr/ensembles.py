"""Vectorized float backend for ensemble simulations.

Ensembles are split into shards, each driven by a child RNG stream spawned
deterministically from (seed, shard index); results merge by concatenation
in shard order, so the outcome is deterministic for a given (seed, shard
size).  A different shard size spawns different streams, so results are
not invariant under the shard size.  Branch dispatch mirrors the exact
backend's half-open convention with the top edges of the square closed.

Both map families act on full-height vertical strips with diagonal linear
parts, so a step reduces to a searchsorted over the strip edges plus two
fused multiply-adds.  The composite map is simulated as its factors: a
masked y-fold on the perturbation strip followed by the base-map step.

Sampling applies one ulp of seed-deterministic dither to x after every
step.  Without it, parameter choices whose expanding slopes are exact
powers of two (the equilibrium point l = 1/4 in particular) turn the
float iteration into a pure bit shift: each step discards one mantissa
bit and within ~53 steps every orbit collapses onto a dyadic fixed point
instead of sampling the invariant measure.  The dither is far below any
observable resolution and keeps runs byte-reproducible per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from bakerfr.maps import PiecewiseAffineMap

DEFAULT_SHARD = 250_000
DITHER = 2.0 ** -52


@dataclass(frozen=True)
class CompiledMap:
    """Float view of a strip map plus region bookkeeping."""

    strip_edges: np.ndarray   # inner x-edges separating the branches
    axx: np.ndarray
    tx: np.ndarray
    ayy: np.ndarray
    ty: np.ndarray
    region_edges: np.ndarray  # inner partition edges for region lookup
    g_delta: np.ndarray       # per-region-index g increment
    fold_lo: Optional[float] = None  # composite: y-fold strip [lo, hi)
    fold_hi: Optional[float] = None


def compile_map(m: PiecewiseAffineMap) -> CompiledMap:
    from bakerfr.families import symbols
    from bakerfr.maps import build_generalized_baker

    fold_lo = fold_hi = None
    if m.eps is not None and m.eps > 0:
        # composite: simulate as y-fold followed by the base map
        fold_lo, fold_hi = float(m.x_tilde), float(m.x_tilde + m.eps)
        base = build_generalized_baker(m.l)
    else:
        base = m
    branches = sorted(base.branches, key=lambda b: b.x_lo)
    for b in branches:
        if not (b.y_lo == 0 and b.y_hi == 1):
            raise ValueError(f"{base.name}: branch is not a full-height strip")
        if b.linear[0][1] != 0 or b.linear[1][0] != 0:
            raise ValueError(f"{base.name}: branch linear part is not diagonal")
    if m.partition is None:
        raise ValueError(f"{m.name} carries no region partition")
    edges = [float(hi) for _lo, hi, _lab in m.partition[:-1]]
    labels = [lab for _lo, _hi, lab in m.partition]
    increment = symbols(m.family).g
    delta = np.array([increment[lab] for lab in labels], dtype=np.int64)
    return CompiledMap(
        strip_edges=np.array([float(b.x_hi) for b in branches[:-1]]),
        axx=np.array([float(b.linear[0][0]) for b in branches]),
        tx=np.array([float(b.offset[0]) for b in branches]),
        ayy=np.array([float(b.linear[1][1]) for b in branches]),
        ty=np.array([float(b.offset[1]) for b in branches]),
        region_edges=np.array(edges),
        g_delta=delta,
        fold_lo=fold_lo,
        fold_hi=fold_hi,
    )


def step(cm: CompiledMap, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One map application on coordinate arrays (in-place friendly)."""
    if cm.fold_lo is not None:
        fold = (x >= cm.fold_lo) & (x < cm.fold_hi) & (y < 0.5)
        y = np.where(fold, 1.0 - y, y)
    idx = np.searchsorted(cm.strip_edges, x, side="right")
    xn = cm.axx[idx] * x + cm.tx[idx]
    yn = cm.ayy[idx] * y + cm.ty[idx]
    np.clip(xn, 0.0, 1.0, out=xn)
    np.clip(yn, 0.0, 1.0, out=yn)
    return xn, yn


def region_index(cm: CompiledMap, x: np.ndarray) -> np.ndarray:
    return np.searchsorted(cm.region_edges, x, side="right")


def shard_sizes(total: int, shard: int = DEFAULT_SHARD) -> list[int]:
    sizes = [shard] * (total // shard)
    if total % shard:
        sizes.append(total % shard)
    return sizes


def sample_g(m: PiecewiseAffineMap, n: int, ensemble: int, transient: int,
             seed: int, shard: int = DEFAULT_SHARD) -> np.ndarray:
    """Net expanding-visit count over n steps for each of `ensemble`
    particles started uniformly on the unit square and relaxed for
    `transient` steps.  Deterministic for a given (seed, shard)."""
    cm = compile_map(m)
    streams = np.random.SeedSequence(seed).spawn(len(shard_sizes(ensemble, shard)))
    out = []
    for size, stream in zip(shard_sizes(ensemble, shard), streams):
        rng = np.random.default_rng(stream)
        x = rng.random(size)
        y = rng.random(size)

        def dithered(xv):
            xv += (rng.random(xv.size) - 0.5) * DITHER
            np.clip(xv, 0.0, 1.0, out=xv)
            return xv

        for _ in range(transient):
            x, y = step(cm, x, y)
            x = dithered(x)
        g = np.zeros(size, dtype=np.int64)
        for _ in range(n):
            g += cm.g_delta[region_index(cm, x)]
            x, y = step(cm, x, y)
            x = dithered(x)
        out.append(g)
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)
