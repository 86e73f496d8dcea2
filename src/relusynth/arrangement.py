"""Hyperplane-arrangement combinatorics.

Closed-form region counts for lines in the plane, the general-position
binomial bound, region enumeration that adds one hyperplane at a time
with an LP per cell (the test oracle for both formulas), and the
incremental construction of regions in staircase order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .core import PLUS, ZERO, Hyperplane, ranked
from .ordering import check_distinguishable
from .simplex import OPTIMAL, solve_lps

PARALLEL_TOL = 1e-9        # |sin of angle between unit normals|
COINCIDENCE_TOL = 1e-7     # distance between intersection points
REGION_THRESHOLD = 1e-7    # distance certifying a nonempty open region
DEFAULT_CAP = 12


class AmbiguousGeometryError(ValueError):
    """Incidence structure cannot be decided within tolerance."""


@dataclass(frozen=True, eq=False)
class Arrangement:
    dim: int
    hyperplanes: tuple

    def __post_init__(self):
        object.__setattr__(self, "hyperplanes", tuple(self.hyperplanes))
        if not self.hyperplanes:
            raise ValueError("arrangement needs at least one hyperplane")
        for h in self.hyperplanes:
            if h.dim != self.dim:
                raise ValueError("all hyperplanes must share the arrangement dimension")

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "hyperplanes": [{"w": h.w.tolist(), "b": h.b} for h in self.hyperplanes],
        }

    @staticmethod
    def from_json_dict(d):
        try:
            hps = tuple(Hyperplane(np.array(h["w"], dtype=float), float(h["b"]))
                        for h in d["hyperplanes"])
            return Arrangement(int(d["dim"]), hps)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed arrangement JSON: {exc}") from exc


@dataclass(frozen=True, eq=False)
class Region:
    """Open full-dimensional cell: one sign per hyperplane plus a witness."""

    sign_vector: tuple
    witness: np.ndarray


def _components(n, i, j):
    """Component labels of n nodes joined by the edges (i[k], j[k]): each
    node's label is the least node of its component."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[i], label[j])
        new = label.copy()
        np.minimum.at(new, i, low)
        np.minimum.at(new, j, low)
        if np.array_equal(new, label):
            return label
        label = new


def count_regions_2d(arr):
    """Exact region count for lines in the plane.

    Evaluates 1 + m + C(m,2) minus the pair collapses caused by points
    where three or more lines meet and by parallel classes, detecting
    both from the coefficients within geometric tolerances.  Duplicate
    lines and incidence data ambiguous within tolerance are rejected; the
    first offending pair in index order names the error.
    """
    if arr.dim != 2:
        raise ValueError("count_regions_2d requires a 2-d arrangement")
    W = np.array([h.w for h in arr.hyperplanes])
    # np.linalg.norm of one row is sqrt(dot); its axis=1 form sums differently
    norm = np.sqrt(np.vecdot(W, W))
    U = W / norm[:, None]
    c = np.array([h.b for h in arr.hyperplanes]) / norm
    m = len(U)

    # each pair of lines: parallel, crossing, or too close to tell
    I, J = np.triu_indices(m, 1)
    s = np.abs(U[I, 0] * U[J, 1] - U[I, 1] * U[J, 0])
    par = s < PARALLEL_TOL
    unclear = (PARALLEL_TOL <= s) & (s < 10 * PARALLEL_TOL)
    same = par & (np.abs(c[I] - np.vecdot(U[I], U[J]) * c[J]) < COINCIDENCE_TOL)
    bad = np.flatnonzero(unclear | same)
    if bad.size:
        k = bad[0]
        if unclear[k]:
            raise AmbiguousGeometryError(
                f"lines {I[k]} and {J[k]} are neither clearly parallel nor clearly crossing"
            )
        raise ValueError(f"lines {I[k]} and {J[k]} coincide up to scale")
    class_sizes = np.bincount(_components(m, I[par], J[par]))

    # intersection points of the crossing pairs, clustered by distance; one
    # point against the later ones at a time keeps memory linear in them
    I, J = I[~par], J[~par]
    pts = np.linalg.solve(np.stack([U[I], U[J]], axis=1),
                          -np.column_stack([c[I], c[J]])[..., None])[..., 0]
    A, B = [], []
    for a in range(len(pts)):
        gap = pts[a + 1:] - pts[a]
        d = np.sqrt(np.vecdot(gap, gap))
        if ((COINCIDENCE_TOL <= d) & (d < 10 * COINCIDENCE_TOL)).any():
            raise AmbiguousGeometryError(
                "intersection points neither clearly coincident nor clearly distinct"
            )
        near = a + 1 + np.flatnonzero(d < COINCIDENCE_TOL)
        A += [a] * len(near)
        B += near.tolist()
    cluster = np.tile(_components(len(pts), np.array(A, dtype=int), np.array(B, dtype=int)), 2)
    # the lines through each cluster point: its distinct (cluster, line) keys
    lines_through = np.bincount(np.unique(cluster * m + np.concatenate([I, J])) // m)

    return (1 + m + comb(m, 2)
            - sum(comb(k - 1, 2) for k in lines_through if k >= 3)
            - sum(comb(p, 2) for p in class_sizes))


def count_regions_bound(n, M):
    """Sum of C(M, i) for i = 0..n: exact in general position, else an upper bound."""
    if n < 1 or M < 0:
        raise ValueError("need n >= 1 and M >= 0")
    total = sum(comb(M, i) for i in range(n + 1))
    if total >= 2 ** 63:
        raise OverflowError("region bound exceeds 64-bit range")
    return total


def _region_lps(W, b, plus):
    """An interior witness of each open cell a row of ``plus`` gives (True
    on the plus side of hyperplane w.x + b = 0, a row of W and b), or None
    where the cell is empty.

    A cell's LP maximizes t subject to sgn (w.x + b) >= t and t <= 1.
    x = 0 with t = t0 = min(0, min sgn b) is feasible, so it is solved in
    t - t0, feasible at zero as ``solve_lps`` needs, and its margin is the
    optimum plus t0.  The cells' LPs share one shape: one ``solve_lps``
    stack.  t <= 1 bounds every LP, so any other end is an error."""
    L, m = plus.shape
    n = W.shape[1]
    sgn = np.where(plus, 1.0, -1.0)
    low = (sgn * b).min(axis=1)
    t0 = np.where(low < 0, low, 0.0)  # +0.0, so sgn b - t0 is sgn b bitwise
    rows = np.zeros((L, m + 1, n + 1))
    rhs = np.zeros((L, m + 1))
    rows[:, :m, :n] = -sgn[:, :, None] * W
    rows[:, :, n] = 1.0
    rhs[:, :m] = sgn * b - t0[:, None]
    rhs[:, -1] = 1.0 - t0
    c = np.zeros(n + 1)
    c[-1] = 1.0
    witnesses = []
    for res, t in zip(solve_lps(c, rows, rhs), t0):
        if res.status != OPTIMAL:
            raise RuntimeError(f"region LP ended with status {res.status}")
        witnesses.append(res.z[:n] if res.value + t > REGION_THRESHOLD else None)
    return witnesses


def enumerate_regions(arr, cap=DEFAULT_CAP):
    """All open regions of the arrangement, each with an interior witness,
    in the order of their codes (bit i set on hyperplane i's plus side).

    The incremental construction of arrangements (Edelsbrunner, O'Rourke
    & Seidel 1986), with a strict-margin LP per cell (``_region_lps``).
    Hyperplanes are scaled to unit normals, so ``REGION_THRESHOLD`` is a
    distance.  Starting from one cell, witnessed by the origin, hyperplane
    i splits each cell of the first i: a witness farther than the
    threshold from it certifies its own side, and every other side asks
    for an LP on the first i + 1 hyperplanes, all of them one
    ``solve_lps`` stack.  The cost follows the region count; ``cap``
    bounds the hyperplanes.
    """
    m = len(arr.hyperplanes)
    if m > cap:
        raise ValueError(f"{m} hyperplanes exceed the enumeration cap {cap}")
    W = np.array([h.w for h in arr.hyperplanes])
    norm = np.sqrt(np.vecdot(W, W))
    W = W / norm[:, None]
    b = np.array([h.b for h in arr.hyperplanes]) / norm
    plus = np.zeros((1, 0), dtype=bool)
    X = np.zeros((1, arr.dim))
    for i in range(m):
        d = X @ W[i] + b[i]
        kept = np.abs(d) > REGION_THRESHOLD
        own = np.column_stack([plus, d > 0])
        # every cell's far side, and its own side where its witness is near
        asked = np.vstack([np.column_stack([plus, d <= 0]), own[~kept]])
        found = _region_lps(W[:i + 1], b[:i + 1], asked)
        new = [k for k, x in enumerate(found) if x is not None]
        plus = np.vstack([own[kept], asked[new]])
        X = np.vstack([X[kept]] + [found[k] for k in new])
    order = np.lexsort(plus.T)
    return [Region(tuple(PLUS if p else ZERO for p in plus[k]), X[k]) for k in order]


def general_position(arr):
    """Both clauses of the general-position property over small subsets.

    Subsets of size s <= dim must meet in an (n-s)-flat (full row rank);
    subsets of size dim+1 must have empty intersection (inconsistent
    system).  Larger subsets follow from the dim+1 case.
    """
    n = arr.dim
    W = np.array([h.w for h in arr.hyperplanes])
    aug = np.column_stack([W, -np.array([h.b for h in arr.hyperplanes])])
    m = len(W)
    for s in range(2, min(m, n) + 1):
        S = np.array(list(combinations(range(m), s)))
        if (ranked(W[S])[0] < s).any():
            return False
    if m > n:
        S = np.array(list(combinations(range(m), n + 1)))
        if (ranked(aug[S])[0] == ranked(W[S])[0]).any():
            return False  # consistent system: common point exists
    return True


def distinguishable_regions(dim, m):
    """m hyperplanes whose staircase regions are pairwise distinguishable.

    Incremental construction: each added hyperplane is translated beyond
    every existing witness so all prior regions land on its zero side,
    and the new region's witness is placed just past the boundary.
    Returns (Arrangement, regions in staircase order).
    """
    if m < 1 or dim < 1:
        raise ValueError("need m >= 1 and dim >= 1")
    hyperplanes = []
    witnesses = []

    def axis(i):
        w = np.zeros(dim)
        w[i] = 1.0
        return w

    if dim == 1:
        for k in range(m):
            hyperplanes.append(Hyperplane(axis(0), -(k + 0.5)))
            witnesses.append(np.array([float(k + 1)]))
    else:
        hyperplanes.append(Hyperplane(axis(0), 0.0))
        p = np.zeros(dim)
        p[0] = 1.0
        witnesses.append(p)
        for k in range(2, m + 1):
            coord = 1 if k % 2 == 0 else 0  # alternate up / right
            top = max(w[coord] for w in witnesses)
            hyperplanes.append(Hyperplane(axis(coord), -(top + 1.0)))
            p = np.zeros(dim)
            p[coord] = top + 2.0
            p[1 - coord] = 1.0 if coord == 1 else 0.0
            witnesses.append(p)

    arr = Arrangement(dim, hyperplanes)
    regions = []
    for w in witnesses:
        vals = np.array([h.value(w) for h in arr.hyperplanes])
        signs = tuple(PLUS if v > 0 else ZERO for v in vals)
        regions.append(Region(signs, w))

    ok, failures = check_distinguishable(
        [w[None, :] for w in witnesses], hyperplanes
    )
    if not ok:
        raise RuntimeError(f"staircase construction failed its own check: {failures}")
    return arr, regions
