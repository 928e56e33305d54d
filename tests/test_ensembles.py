import hashlib
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bakerfr import ensembles
from bakerfr.ensembles import (
    DEFAULT_SHARD, DITHER, _chunk_g, compile_map, region_index, sample_g)
from bakerfr.families import family
from bakerfr.maps import (
    build_composite,
    build_generalized_baker,
    build_involution,
    build_simple_baker,
    verify_reversibility,
)
from bakerfr.transfer import ConsistencyError


# ---------------------------------------------------------------------------
# reference: the serial two-dimensional sampler on the same random stream
# ---------------------------------------------------------------------------


def reference_sample_g(m, n, ensemble, transient, seed):
    """The sampler as one serial loop over (x, y): the composite as a
    y-fold on its perturbation strip followed by the base map, searchsorted
    twice per step (branch and region), fresh arrays on every operation.
    One PCG64 stream from SeedSequence(seed) gives all x, then one dither
    per particle per step; y, which never feeds back into x or g, comes
    from a generator of its own."""
    fold = None
    base = m
    if m.eps is not None and m.eps > 0:
        fold = (float(m.x_tilde), float(m.x_tilde + m.eps))
        base = build_generalized_baker(m.l)
    branches = sorted(base.branches, key=lambda b: b.x_lo)
    strip_edges = np.array([float(b.x_hi) for b in branches[:-1]])
    axx = np.array([float(b.scale[0]) for b in branches])
    tx = np.array([float(b.offset[0]) for b in branches])
    ayy = np.array([float(b.scale[1]) for b in branches])
    ty = np.array([float(b.offset[1]) for b in branches])
    fam = family(m.family, m.l)
    region_edges = np.array([float(b.hi) for b in fam.x_factor.branches[:-1]])
    g_delta = np.array([fam.g[b.label] for b in fam.x_factor.branches], dtype=np.int64)

    def step(x, y):
        if fold is not None:
            folded = (x >= fold[0]) & (x < fold[1]) & (y < 0.5)
            y = np.where(folded, 1.0 - y, y)
        idx = np.searchsorted(strip_edges, x, side="right")
        xn = axx[idx] * x + tx[idx]
        yn = ayy[idx] * y + ty[idx]
        np.clip(xn, 0.0, 1.0, out=xn)
        np.clip(yn, 0.0, 1.0, out=yn)
        return xn, yn

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    x = rng.random(ensemble)
    y = np.random.default_rng([seed, 1]).random(ensemble)

    def dithered(xv):
        xv += (rng.random(xv.size) - 0.5) * DITHER
        np.clip(xv, 0.0, 1.0, out=xv)
        return xv

    for _ in range(transient):
        x, y = step(x, y)
        x = dithered(x)
    g = np.zeros(ensemble, dtype=np.int64)
    for _ in range(n):
        g += g_delta[np.searchsorted(region_edges, x, side="right")]
        x, y = step(x, y)
        x = dithered(x)
    return g


def kernel_g(m, n, ensemble, transient, seed, shard):
    """The g of every particle from the sampler's per-chunk kernel: the
    chunks of `shard` particles, run in order and concatenated."""
    cm = compile_map(m)
    seeded = np.random.PCG64(np.random.SeedSequence(seed)).state
    return np.concatenate([np.zeros(0, dtype=np.int64)] + [
        _chunk_g(cm, n, ensemble, transient, seeded, start, min(shard, ensemble - start))
        for start in range(0, ensemble, shard)])


def histogram(g, n):
    """What `sample_g` returns for the per-particle counts g."""
    return np.bincount(g + n, minlength=2 * n + 1)


@st.composite
def maps(draw):
    kind = draw(st.sampled_from(["map1", "map2", "composite"]))
    if kind == "map1":
        return build_simple_baker(draw(st.fractions(F(1, 50), F(49, 50), max_denominator=50)))
    l = draw(st.fractions(F(1, 40), F(1, 4), max_denominator=40))
    if kind == "map2":
        return build_generalized_baker(l)
    # the fold strip [x_tilde, x_tilde + eps) inside region B = [l, 1/2)
    x_tilde = l + (F(1, 2) - l) * F(draw(st.integers(0, 9)), 10)
    eps = (F(1, 2) - x_tilde) * F(draw(st.integers(0, 9)), 10)
    return build_composite(l, x_tilde, eps)


@settings(max_examples=60, deadline=None)
@given(m=maps(), n=st.integers(0, 12), transient=st.integers(0, 12),
       ensemble=st.integers(0, 400), shard=st.integers(1, 160),
       seed=st.integers(0, 2**32 - 1))
def test_equals_reference_sampler(m, n, transient, ensemble, shard, seed):
    # the kernel splits the ensemble into chunks of `shard`; the reference
    # has no chunks at all
    got = kernel_g(m, n, ensemble, transient, seed, shard)
    want = reference_sample_g(m, n, ensemble, transient, seed)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    counts = sample_g(m, n, ensemble, transient, seed, shard)
    assert counts.dtype == np.int64 and counts.shape == (2 * n + 1,)
    assert np.array_equal(counts, histogram(want, n))
    assert counts.sum() == ensemble


# sha256 of the little-endian int64 bytes of the per-particle g, taken with
# `reference_sample_g`; the shard column only sets the kernel's chunks
PINNED = [
    (build_simple_baker(F(2, 3)), 20, 5000, 10, 1, 777,
     "2dcd0ae6423e21735aeefa8cdbf68d930256bac78eab738d6e584f10d395b3c2"),
    (build_generalized_baker(F(3, 17)), 30, 7001, 5, 2, 1000,
     "52fe0a108e150bf27b435f5e545e296412ecb7ee604c63b60a94eb17aa5facfb"),
    (build_generalized_baker(F(1, 4)), 80, 3000, 0, 3, DEFAULT_SHARD,
     "b9ac25eeb2a040a2353f51811700b6eb4a98561c9b2b22697c405c0e531c7083"),
    (build_composite(F(1, 8)), 10, 20000, 20, 4, 6000,
     "6408395375eda7b960d4de99eaae52c6c76aa7f0b9c2c1a11b26e16d93aa519b"),
]


@pytest.mark.parametrize("m,n,ensemble,transient,seed,shard,digest", PINNED,
                         ids=["map1", "map2", "map2-equilibrium", "composite"])
def test_pinned_digests(m, n, ensemble, transient, seed, shard, digest):
    g = kernel_g(m, n, ensemble, transient, seed, shard)
    assert hashlib.sha256(g.astype("<i8").tobytes()).hexdigest() == digest
    assert np.array_equal(sample_g(m, n, ensemble, transient, seed, shard), histogram(g, n))


@pytest.mark.parametrize("cpus", [1, 2])
def test_same_histograms_for_every_shard_and_worker_count(monkeypatch, cpus):
    # at the equilibrium point the dither decides the orbit (see the module
    # docstring), so over 60 steps a dither drawn at a wrong position
    # shows in g; elsewhere its one ulp rarely reaches g in a short run
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    m = build_generalized_baker(F(1, 4))
    ensemble = DEFAULT_SHARD + 777
    want = reference_sample_g(m, 60, ensemble, 5, 21)
    for shard in (1000, 300, DEFAULT_SHARD):
        assert np.array_equal(kernel_g(m, 60, ensemble, 5, 21, shard), want)
        counts = sample_g(m, 60, ensemble, 5, 21, shard)
        assert np.array_equal(counts, histogram(want, 60)) and counts.sum() == ensemble


def test_many_workers_with_frequent_switches_lose_no_chunk(monkeypatch):
    # more workers than cores, each switching threads every microsecond:
    # a chunk start that no worker took from the shared iterator, or that
    # two workers took, would change the total and the histogram of the
    # serial reference
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    m = build_generalized_baker(F(1, 8))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sample_g(m, 20, 6000, 3, 5, shard=97)
    finally:
        sys.setswitchinterval(interval)
    want = reference_sample_g(m, 20, 6000, 3, 5)
    assert np.array_equal(kernel_g(m, 20, 6000, 3, 5, shard=97), want)
    assert got.sum() == 6000 and np.array_equal(got, histogram(want, 20))


def test_memory_does_not_grow_with_the_ensemble(monkeypatch):
    # tracemalloc sees numpy's buffers; a per-particle result array would
    # add 8 bytes a particle, about 1.5 MB between these two ensembles
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    m = build_generalized_baker(F(1, 8))
    sample_g(m, 5, 4000, 2, 0, shard=1000)  # builds the family record

    def peak(ensemble):
        tracemalloc.start()
        try:
            sample_g(m, 5, ensemble, 2, 0, shard=1000)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert abs(peak(200_000) - peak(4000)) <= 64 * 1024


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every pool the sampler starts."""
    sizes = []

    def pool(max_workers):
        sizes.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(ensembles, "ThreadPoolExecutor", pool)
    return sizes


@pytest.mark.parametrize("cpus,ensemble,shard,workers", [
    (2, 1000, 300, 2), (8, 1000, 300, 4), (2, 100, 300, 1), (2, 0, 300, None)])
def test_pool_is_capped_at_cpus_and_chunks(monkeypatch, pool_sizes, cpus, ensemble,
                                           shard, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    sample_g(build_generalized_baker(F(1, 8)), 3, ensemble, 2, 0, shard)
    assert pool_sizes == ([] if workers is None else [workers])


def test_pool_without_an_affinity_mask_takes_the_cpu_count(monkeypatch, pool_sizes):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    sample_g(build_generalized_baker(F(1, 8)), 3, 1000, 2, 0, 300)
    assert pool_sizes == [3]


@pytest.mark.parametrize("shard", [0, -5])
def test_refuses_a_shard_below_one(shard):
    with pytest.raises(ValueError, match=f"shard={shard}"):
        sample_g(build_generalized_baker(F(1, 8)), 3, 100, 2, 0, shard)


@pytest.mark.parametrize("l", [F(1, 8), F(3, 17), F(1, 4)])
def test_composite_samples_the_base_map_x_marginal(l):
    # the fold acts on y only, so the composite's g histogram is the base
    # map's for the same seed: the Monte-Carlo test of the composite checks
    # the x-marginal, not an independent simulation
    a = sample_g(build_composite(l), 12, 5000, 7, seed=9, shard=1234)
    b = sample_g(build_generalized_baker(l), 12, 5000, 7, seed=9, shard=1234)
    assert np.array_equal(a, b)
    assert np.array_equal(kernel_g(build_composite(l), 12, 5000, 7, 9, 1234),
                          kernel_g(build_generalized_baker(l), 12, 5000, 7, 9, 1234))


def test_region_index_equals_searchsorted():
    cm = compile_map(build_generalized_baker(F(3, 17)))
    x = np.concatenate([np.random.default_rng(0).random(1000),
                        cm.strip_edges, np.nextafter(cm.strip_edges, 0), [0.0, 1.0]])
    idx = np.empty(x.size, dtype=np.intp)
    region_index(cm, x, idx, np.empty((2, x.size), dtype=np.int8))
    assert np.array_equal(idx, np.searchsorted(cm.strip_edges, x, side="right"))


def test_refuses_regions_that_are_not_the_strips():
    # the four-branch map with strip B cut in two halves that act
    # differently on x: two strips, but one region B
    m = build_generalized_baker(F(1, 8))
    a, b, c, d = sorted(m.branches, key=lambda br: br.x_lo)
    halves = (b._replace(x_hi=F(1, 4)),
              b._replace(x_lo=F(1, 4), offset=(b.offset[0] + F(1, 100), b.offset[1])))
    split = m._replace(branches=(a, *halves, c, d))
    with pytest.raises(ConsistencyError, match="x-factor"):
        compile_map(split)


def test_refuses_strips_labelled_unlike_the_regions():
    # g is read from the strip labels, so strips B and C with swapped
    # labels would count g with the wrong sign
    m = build_generalized_baker(F(1, 8))
    a, b, c, d = sorted(m.branches, key=lambda br: br.x_lo)
    swapped = (b._replace(label=c.label), c._replace(label=b.label))
    with pytest.raises(ConsistencyError, match="x-factor"):
        compile_map(m._replace(branches=(a, *swapped, d)))


def test_refuses_strips_that_act_unlike_the_record():
    # strip B with x-slope 6/5 in place of 4/3: the edges and labels are
    # the record's, but the dynamics are not map2's, so g counted with
    # map2's labels would not be map2's g, and the sampled reversibility
    # route, which reads regions from the branch labels, would not be sound
    m = build_generalized_baker(F(1, 8))
    a, b, c, d = sorted(m.branches, key=lambda br: br.x_lo)
    assert b.scale[0] == F(4, 3)
    steeper = m._replace(branches=(a, b._replace(scale=(F(6, 5), b.scale[1])), c, d))
    with pytest.raises(ConsistencyError, match="x-factor .*B on \\[1/8, 1/2\\): 6/5 x"):
        compile_map(steeper)
    with pytest.raises(ConsistencyError, match="x-factor .*B on \\[1/8, 1/2\\): 6/5 x"):
        verify_reversibility(steeper, build_involution("map2"), [])


def test_refuses_a_map_without_a_family_record():
    m = build_generalized_baker(F(1, 8))
    for bare in (m._replace(family=None), m._replace(l=None)):
        with pytest.raises(ValueError, match="carries no region partition"):
            compile_map(bare)
