"""Vectorized float backend for ensemble simulations.

The observable g counts visits to the contracting and expanding strips,
a function of the x-orbit alone.  `compile_map` compiles the x-action
of the record that `families.verify_x_factor` returns once it has found
the map's projection equal to the record's `x_factor` strip for strip
(`ConsistencyError` otherwise): the composite's fold cuts strip B in x
and in y but acts on y alone, so it projects onto its base map's four
strips, and its histograms equal the base map's bit for bit.  The
sampler integrates x only.  One strip index per iteration, by a compare
and an add per inner edge, serves both the g increment and the map
application; arrays are updated in place in scratch buffers that each
chunk allocates once.

Every random number sits at a fixed position of one PCG64 stream seeded
from `SeedSequence(seed)`: particle p draws its start x at position p and
the dither of step t at position (t + 1) * ensemble + p (counter-addressed
streams, Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11).  A chunk of particles [a, b) copies the seeded state, advances it
to a and, after each draw, skips the ensemble's other particles.  So the
histogram depends on the seed alone: the chunk size (`shard`) and the
number of worker threads only set how the work is split.  Chunks run on a
thread pool of min(CPUs, chunks) workers, since numpy releases the GIL in
`take`, in the ufuncs and in `Generator.random(out=)`; each worker bins
its chunks into a g histogram of its own, so the order in which chunks
run cannot change the sum, and memory grows with workers * shard + n,
not with the ensemble.  Branch dispatch mirrors the exact backend's
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

import os
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from bakerfr.maps import PiecewiseAffineMap
from bakerfr.families import verify_x_factor

DEFAULT_SHARD = 50_000  # 34 bytes a particle: ~1.7 MB of scratch per worker fits a 2 MB L2
DITHER = 2.0 ** -52


class CompiledMap(NamedTuple):
    """Float x-action of a strip map; its strips are its regions."""

    strip_edges: np.ndarray   # inner x-edges separating the branches
    axx: np.ndarray
    tx: np.ndarray
    g_delta: np.ndarray       # g increment per strip index


def compile_map(m: PiecewiseAffineMap) -> CompiledMap:
    fam = verify_x_factor(m)
    strips = fam.x_factor.branches
    return CompiledMap(
        strip_edges=np.array([float(b.hi) for b in strips[:-1]]),
        axx=np.array([float(b.slope) for b in strips]),
        tx=np.array([float(b.intercept) for b in strips]),
        g_delta=np.array([fam.g[b.label] for b in strips], dtype=np.int64),
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
    # one pass, faster than np.maximum then np.minimum (0.39 against 0.65 ns
    # a double at 50 000, numpy 2.4); it keeps the sign of a -0.0, which no
    # compare, product or sum of the kernel can see
    np.clip(x, 0.0, 1.0, out=x)
    rng.random(out=buf)
    buf -= 0.5
    buf *= DITHER
    x += buf
    np.clip(x, 0.0, 1.0, out=x)


def _cpu_count() -> int:
    """CPUs this process may run on; all CPUs where the platform has no
    affinity mask (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_g(cm: CompiledMap, n: int, ensemble: int, transient: int, seeded: dict,
             start: int, size: int) -> np.ndarray:
    """The g of particles [start, start + size), in scratch buffers of the
    chunk's own.  `seeded` is the state of the seed's PCG64 stream at
    position 0."""
    bits = np.random.PCG64()
    bits.state = seeded
    rng = np.random.Generator(bits)
    x, buf, g = np.empty(size), np.empty(size), np.zeros(size, dtype=np.int64)
    idx, hits = np.empty(size, dtype=np.intp), np.empty((2, size), dtype=np.int8)
    bits.advance(start)
    rng.random(out=x)
    for t in range(transient + n):
        bits.advance(ensemble - size)  # to position (t + 1) * ensemble + start
        region_index(cm, x, idx, hits)
        if t >= transient:
            # buf is free until the step; read it as int64 scratch
            np.take(cm.g_delta, idx, out=buf.view(np.int64), mode="clip")
            g += buf.view(np.int64)
        step(cm, x, idx, rng, buf)
    return g


def sample_g(m: PiecewiseAffineMap, n: int, ensemble: int, transient: int,
             seed: int, shard: int = DEFAULT_SHARD) -> np.ndarray:
    """Histogram of the net expanding-visit count g over n iterations of
    `ensemble` particles started uniformly on the unit square (only x is
    drawn: g does not depend on y) and relaxed for `transient` iterations:
    entry g + n of the int64 array of length 2n + 1 counts the particles
    at g.  Particle p draws x at position p of the PCG64 stream of
    `SeedSequence(seed)` and the dither of step t at position
    (t + 1) * ensemble + p, so the result depends on the seed alone, not
    on the chunk size `shard` or on the worker count.  Chunks of `shard`
    particles run on min(CPUs, chunks) threads; no process is started.
    Memory grows with min(CPUs, chunks) * shard + n, not with the ensemble."""
    if n < 0 or transient < 0:
        raise ValueError(f"need n >= 0 and transient >= 0, got n={n}, transient={transient}")
    if shard < 1:
        raise ValueError(f"need shard >= 1, got shard={shard}")
    cm = compile_map(m)
    seeded = np.random.PCG64(np.random.SeedSequence(seed)).state
    counts = np.zeros(2 * n + 1, dtype=np.int64)
    starts = iter(range(0, ensemble, shard))

    def work() -> np.ndarray:
        hist = np.zeros_like(counts)
        # threads share `starts`; next() on a range iterator is one C call
        # under the GIL, so each chunk start goes to exactly one worker
        for start in starts:
            g = _chunk_g(cm, n, ensemble, transient, seeded, start, min(shard, ensemble - start))
            g += n
            hist += np.bincount(g, minlength=2 * n + 1)
        return hist

    workers = min(_cpu_count(), -(-ensemble // shard))
    if workers:
        with ThreadPoolExecutor(workers) as pool:
            for future in [pool.submit(work) for _ in range(workers)]:
                counts += future.result()
    return counts
