import dataclasses
import hashlib
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bakerfr.ensembles import DEFAULT_SHARD, DITHER, compile_map, region_index, sample_g
from bakerfr.families import symbols
from bakerfr.maps import build_composite, build_generalized_baker, build_simple_baker


# ---------------------------------------------------------------------------
# reference: the two-dimensional sampler the x-only kernel replaced
# ---------------------------------------------------------------------------


def reference_sample_g(m, n, ensemble, transient, seed, shard=DEFAULT_SHARD):
    """The sampler as it integrated (x, y): the composite as a y-fold on its
    perturbation strip followed by the base map, searchsorted twice per
    step (branch and region), fresh arrays on every operation."""
    fold = None
    base = m
    if m.eps is not None and m.eps > 0:
        fold = (float(m.x_tilde), float(m.x_tilde + m.eps))
        base = build_generalized_baker(m.l)
    branches = sorted(base.branches, key=lambda b: b.x_lo)
    strip_edges = np.array([float(b.x_hi) for b in branches[:-1]])
    axx = np.array([float(b.linear[0][0]) for b in branches])
    tx = np.array([float(b.offset[0]) for b in branches])
    ayy = np.array([float(b.linear[1][1]) for b in branches])
    ty = np.array([float(b.offset[1]) for b in branches])
    region_edges = np.array([float(hi) for _lo, hi, _lab in m.partition[:-1]])
    increment = symbols(m.family).g
    g_delta = np.array([increment[lab] for *_, lab in m.partition], dtype=np.int64)

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

    sizes = [shard] * (ensemble // shard) + ([ensemble % shard] if ensemble % shard else [])
    out = []
    for size, stream in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        rng = np.random.default_rng(stream)
        x = rng.random(size)
        y = rng.random(size)

        def dithered(xv):
            xv += (rng.random(xv.size) - 0.5) * DITHER
            np.clip(xv, 0.0, 1.0, out=xv)
            return xv

        for _ in range(transient):
            x, y = step(x, y)
            x = dithered(x)
        g = np.zeros(size, dtype=np.int64)
        for _ in range(n):
            g += g_delta[np.searchsorted(region_edges, x, side="right")]
            x, y = step(x, y)
            x = dithered(x)
        out.append(g)
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


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
    got = sample_g(m, n, ensemble, transient, seed, shard)
    want = reference_sample_g(m, n, ensemble, transient, seed, shard)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


# sha256 of the little-endian int64 bytes, taken with the two-dimensional
# sampler before the x-only kernel replaced it
PINNED = [
    (build_simple_baker(F(2, 3)), 20, 5000, 10, 1, 777,
     "663a5a15e6968c2af4b45c05ab970e8a4fa4e39bd4a6c8f55f9343fec4e0c1dd"),
    (build_generalized_baker(F(3, 17)), 30, 7001, 5, 2, 1000,
     "5efe56d83c96774e0e7b80186ec9046c9bc4e99f9b2a300fa3fbf91481a66d25"),
    (build_generalized_baker(F(1, 4)), 80, 3000, 0, 3, DEFAULT_SHARD,
     "e9bd5f16500ab79924663774267cb6832e7ea91a13dd84ecbc712bccea4b92f3"),
    (build_composite(F(1, 8)), 10, 20000, 20, 4, 6000,
     "57bc6713eae68fe8a576089ed00ae5f4b2c005d469a82dfd83a7910efccab683"),
]


@pytest.mark.parametrize("m,n,ensemble,transient,seed,shard,digest", PINNED,
                         ids=["map1", "map2", "map2-equilibrium", "composite"])
def test_pinned_digests(m, n, ensemble, transient, seed, shard, digest):
    g = sample_g(m, n, ensemble, transient, seed, shard)
    assert hashlib.sha256(g.astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("l", [F(1, 8), F(3, 17), F(1, 4)])
def test_composite_samples_the_base_map_x_marginal(l):
    # the fold acts on y only, so the composite's g histogram is the base
    # map's for the same seed: the Monte-Carlo test of the composite checks
    # the x-marginal, not an independent simulation
    a = sample_g(build_composite(l), 12, 5000, 7, seed=9, shard=1234)
    b = sample_g(build_generalized_baker(l), 12, 5000, 7, seed=9, shard=1234)
    assert np.array_equal(a, b)


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
    halves = (dataclasses.replace(b, x_hi=F(1, 4)),
              dataclasses.replace(b, x_lo=F(1, 4), offset=(b.offset[0] + F(1, 100),
                                                           b.offset[1])))
    split = dataclasses.replace(m, branches=(a, *halves, c, d))
    with pytest.raises(ValueError, match="region edges"):
        compile_map(split)


def test_refuses_strips_labelled_unlike_the_regions():
    # g is read from the strip labels, so strips B and C with swapped
    # labels would count g with the wrong sign
    m = build_generalized_baker(F(1, 8))
    a, b, c, d = sorted(m.branches, key=lambda br: br.x_lo)
    swapped = (dataclasses.replace(b, label=c.label), dataclasses.replace(c, label=b.label))
    with pytest.raises(ValueError, match="region edges"):
        compile_map(dataclasses.replace(m, branches=(a, *swapped, d)))
