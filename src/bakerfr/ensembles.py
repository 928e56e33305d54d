"""Vectorized float backend for ensemble simulations.

The observable g counts visits to the contracting and expanding strips,
a function of the x-orbit alone.  `compile_map` reads the x-action of any
map from `transfer.project_unstable`, which merges the pieces that share
one x-action: the composite's fold cuts strip B in x and in y but acts on
y alone, so it projects onto its base map's four strips, and its
histograms equal the base map's bit for bit.  The sampler integrates x
only.  The regions are the projected strips, so one strip index per
iteration, by a compare and an add per inner edge, serves both the g
increment and the map application; arrays are updated in place in
buffers allocated once per `sample_g` call.

Ensembles are split into shards, each driven by a child RNG stream spawned
deterministically from (seed, shard index).  A shard draws its start
points x and y (y only to keep the stream unchanged), then one dither
array per iteration.  The outcome is deterministic for a given (seed,
shard size); a different shard size spawns different streams, so results
depend on the shard size.  Branch dispatch mirrors the exact backend's
half-open convention with the top edges of the square closed.

Sampling applies one ulp of seed-deterministic dither to x after every
iteration.  Without it, parameter choices whose expanding slopes are
exact powers of two (the equilibrium point l = 1/4 in particular) turn
the float iteration into a pure bit shift: each iteration discards one
mantissa bit and within ~53 iterations every orbit collapses onto a
dyadic fixed point instead of sampling the invariant measure.  The
dither is far below any observable resolution, and runs stay
byte-reproducible per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bakerfr.maps import PiecewiseAffineMap
from bakerfr.transfer import project_unstable

DEFAULT_SHARD = 250_000
DITHER = 2.0 ** -52


@dataclass(frozen=True)
class CompiledMap:
    """Float x-action of a strip map; its strips are its regions."""

    strip_edges: np.ndarray   # inner x-edges separating the branches
    axx: np.ndarray
    tx: np.ndarray
    g_delta: np.ndarray       # g increment per strip index


def compile_map(m: PiecewiseAffineMap) -> CompiledMap:
    from bakerfr.families import symbols

    strips = project_unstable(m).branches
    if m.partition is None:
        raise ValueError(f"{m.name} carries no region partition")
    if [(b.lo, b.hi, b.label) for b in strips] != list(m.partition):
        raise ValueError(f"{m.name}: region edges differ from the strip edges")
    increment = symbols(m.family).g
    return CompiledMap(
        strip_edges=np.array([float(b.hi) for b in strips[:-1]]),
        axx=np.array([float(b.slope) for b in strips]),
        tx=np.array([float(b.intercept) for b in strips]),
        g_delta=np.array([increment[b.label] for b in strips], dtype=np.int64),
    )


def region_index(cm: CompiledMap, x: np.ndarray, out: np.ndarray,
                 hits: np.ndarray) -> None:
    """Strip index of each x into the intp array `out`: the number of inner
    edges e <= x, as np.searchsorted(cm.strip_edges, x, side="right"),
    counted in int8 row 0 of `hits` from one compare per edge into row 1."""
    count, hit = hits
    count.fill(0)
    for e in cm.strip_edges:
        np.greater_equal(x, e, out=hit.view(bool))
        count += hit
    np.copyto(out, count)


def step(cm: CompiledMap, x: np.ndarray, idx: np.ndarray,
         rng: np.random.Generator, buf: np.ndarray) -> None:
    """One map application on x in place, from the strip index `idx`,
    followed by the dither; `buf` is float scratch of x's size."""
    # idx is always in range; mode="clip" only skips numpy's bounds check
    np.take(cm.axx, idx, out=buf, mode="clip")
    x *= buf
    np.take(cm.tx, idx, out=buf, mode="clip")
    x += buf
    np.maximum(x, 0.0, out=x)  # np.clip(x, 0, 1), with less overhead
    np.minimum(x, 1.0, out=x)
    rng.random(out=buf)
    buf -= 0.5
    buf *= DITHER
    x += buf
    np.maximum(x, 0.0, out=x)
    np.minimum(x, 1.0, out=x)


def shard_sizes(total: int, shard: int = DEFAULT_SHARD) -> list[int]:
    sizes = [shard] * (total // shard)
    if total % shard:
        sizes.append(total % shard)
    return sizes


def sample_g(m: PiecewiseAffineMap, n: int, ensemble: int, transient: int,
             seed: int, shard: int = DEFAULT_SHARD) -> np.ndarray:
    """Net expanding-visit count over n iterations for each of `ensemble`
    particles started uniformly on the unit square and relaxed for
    `transient` iterations.  Deterministic for a given (seed, shard)."""
    if n < 0 or transient < 0:
        raise ValueError(f"need n >= 0 and transient >= 0, got n={n}, transient={transient}")
    cm = compile_map(m)
    sizes = shard_sizes(ensemble, shard)
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    out = np.zeros(ensemble, dtype=np.int64)
    width = max(sizes, default=0)
    xs, bufs = np.empty(width), np.empty(width)
    idxs, hit_rows = np.empty(width, dtype=np.intp), np.empty((2, width), dtype=np.int8)
    for start, size, stream in zip(range(0, ensemble, shard), sizes, streams):
        rng = np.random.default_rng(stream)
        x, buf, idx, hits = xs[:size], bufs[:size], idxs[:size], hit_rows[:, :size]
        g = out[start:start + size]
        rng.random(out=x)
        rng.random(out=buf)  # y: drawn only to keep the stream
        for t in range(transient + n):
            region_index(cm, x, idx, hits)
            if t >= transient:
                # buf is free until the step; read it as int64 scratch
                np.take(cm.g_delta, idx, out=buf.view(np.int64), mode="clip")
                g += buf.view(np.int64)
            step(cm, x, idx, rng, buf)
    return out
