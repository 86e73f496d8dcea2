"""Property tests: exact synthesis in dimensions 1-8, on generic inputs and
on inputs with points within 1e-4 of a line, plane or hyperplane through
others."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from relusynth.core import AffineMap, DiscretePWL, forward_batch
from relusynth.deep import deep_build
from relusynth.report import BuildFailure
from relusynth.shallow import interpolation_build


def near_flat_point(rng, points, offset):
    """A point within ``offset`` of the line (two points) or plane (three)
    through some of ``points``, off it along a direction normal to it."""
    k, n = points.shape
    q = int(rng.integers(2, min(3, k) + 1))
    through = points[rng.choice(k, size=q, replace=False)]
    coeffs = rng.normal(size=q)
    coeffs += (1.0 - coeffs.sum()) / q           # an affine combination
    normal = rng.normal(size=n)
    span = (through[1:] - through[0]).T
    if n > q - 1:
        Q, _ = np.linalg.qr(span)
        normal -= Q @ (Q.T @ normal)
    length = np.linalg.norm(normal)
    step = normal * (offset / length) if length > 1e-12 else 0.0
    return coeffs @ through + step


def near_hyperplane_point(rng, points, offset):
    """A point ``offset`` off the hyperplane through n of ``points``, at a
    convex combination of them, so it lies that close to their hull."""
    k, n = points.shape
    through = points[rng.choice(k, size=n, replace=False)]
    normal = np.linalg.svd(through[1:] - through[0])[2][-1]
    return rng.dirichlet(np.ones(n)) @ through + offset * normal


near_degenerate = st.lists(st.floats(0.0, 1e-4), max_size=3)


def check_exact(build, X, Y):
    fresh = float(np.abs(forward_batch(build.network, X) - Y).max())
    assert fresh <= 1e-8
    assert build.report.max_residual == pytest.approx(fresh, rel=1e-6, abs=1e-15)


@given(n=st.integers(1, 8), k=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       offsets=near_degenerate)
def test_interpolation_exact(n, k, seed, offsets):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(k, n)) * 3
    for off in offsets:
        X = np.vstack([X, near_flat_point(rng, X, off)])
    X = np.unique(X.round(decimals=9), axis=0)
    Y = rng.normal(size=(len(X), 1))
    check_exact(interpolation_build(X, Y[:, 0], seed=seed % 1000), X, Y)


@given(n=st.integers(2, 8), extra=st.integers(0, 4), seed=st.integers(0, 2**32 - 1),
       exponents=st.lists(st.floats(-8.0, -4.0), min_size=1, max_size=3))
def test_interpolation_exact_near_hull(n, extra, seed, exponents):
    # a point placed last by the staircase order must separate from every
    # earlier one; one within 1e-8 of their hull cannot do so with margin
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n + 1 + extra, n)) * 3
    for e in exponents:
        X = np.vstack([X, near_hyperplane_point(rng, X, 10.0 ** e)])
    Y = rng.normal(size=(len(X), 1))
    check_exact(interpolation_build(X, Y[:, 0], seed=seed % 1000), X, Y)


@given(n=st.integers(1, 8), clusters=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       offsets=near_degenerate)
def test_deep_exact(n, clusters, seed, offsets):
    # near-degenerate points stay in their own cluster: one that lies almost
    # on a line or plane through another cluster's points can fail, see
    # test_deep_exact_with_points_near_other_clusters_planes
    rng = np.random.default_rng(seed)
    subs = []
    for c, centre in enumerate(rng.normal(size=(clusters, n)) * 10):
        P = centre + rng.normal(size=(3, n)) * 0.8
        if c < len(offsets):
            P = np.vstack([P, near_flat_point(rng, P, offsets[c])])
        subs.append((P, AffineMap(rng.normal(size=(1, n)), rng.normal(size=1))))
    pwl = DiscretePWL(n, 1, tuple(subs))
    check_exact(deep_build(pwl, seed=seed % 1000), pwl.all_points(), pwl.all_targets())


@pytest.mark.xfail(strict=True, raises=BuildFailure,
                   reason="open defect: deep residual with points near other clusters' planes")
def test_deep_exact_with_points_near_other_clusters_planes():
    # 5 clusters in 7-D; clusters 0-2 each get a point 1e-5, 1e-4 and 1e-4
    # off a line or plane through the next cluster's points.  The build
    # raises a synthesis residual of 1.18e-7, and its smallest rank-audit
    # sigma_min is 4e-8
    r = np.random.default_rng([198, 81])
    n, k = int(r.integers(1, 9)), int(r.integers(2, 6))
    P = [c + r.normal(size=(3, n)) * 0.8 for c in r.normal(size=(k, n)) * 10]
    sets = list(P)
    for c in range(min(3, k)):
        offset = r.choice([0, 1e-9, 1e-7, 1e-5, 1e-4])
        sets[c] = np.vstack([P[c], near_flat_point(r, P[(c + 1) % k], offset)])
    pwl = DiscretePWL(n, 1, tuple(
        (Q, AffineMap(r.normal(size=(1, n)), r.normal(size=1))) for Q in sets))
    deep_build(pwl, seed=198)
