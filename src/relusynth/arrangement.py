"""Hyperplane-arrangement combinatorics.

Closed-form region counts for lines in the plane, the general-position
binomial bound, LP-backed brute-force region enumeration (the test oracle
for both formulas), and the incremental construction of regions in
staircase order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import PLUS, ZERO, Hyperplane, numeric_rank
from .ordering import check_distinguishable
from .simplex import OPTIMAL, solve_lp

PARALLEL_TOL = 1e-9        # |sin of angle between unit normals|
COINCIDENCE_TOL = 1e-7     # distance between intersection points
REGION_THRESHOLD = 1e-7    # LP margin certifying a nonempty open region
BOX_BOUND = 1e6
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


def _unit_lines(arr):
    """Unit-normal forms (u, c) of the lines of a 2-d arrangement."""
    out = []
    for h in arr.hyperplanes:
        norm = np.linalg.norm(h.w)
        out.append((h.w / norm, h.b / norm))
    return out


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def count_regions_2d(arr):
    """Exact region count for lines in the plane.

    Evaluates 1 + m + C(m,2) minus the pair collapses caused by points
    where three or more lines meet and by parallel classes, detecting
    both from the coefficients within geometric tolerances.  Duplicate
    lines and incidence data ambiguous within tolerance are rejected.
    """
    if arr.dim != 2:
        raise ValueError("count_regions_2d requires a 2-d arrangement")
    lines = _unit_lines(arr)
    m = len(lines)

    # parallel detection with an ambiguity guard
    def parallel(i, j):
        s = abs(_cross2(lines[i][0], lines[j][0]))
        if PARALLEL_TOL <= s < 10 * PARALLEL_TOL:
            raise AmbiguousGeometryError(
                f"lines {i} and {j} are neither clearly parallel nor clearly crossing"
            )
        return s < PARALLEL_TOL

    for i in range(m):
        for j in range(i + 1, m):
            if parallel(i, j):
                ui, ci = lines[i]
                uj, cj = lines[j]
                offset = abs(ci - float(ui @ uj) * cj)
                if offset < COINCIDENCE_TOL:
                    raise ValueError(f"lines {i} and {j} coincide up to scale")

    # parallel classes by union-find
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(m):
        for j in range(i + 1, m):
            if parallel(i, j):
                parent[find(i)] = find(j)
    classes = {}
    for i in range(m):
        classes.setdefault(find(i), []).append(i)
    parallel_sizes = [len(v) for v in classes.values() if len(v) >= 2]

    # intersection points of non-parallel pairs, clustered by distance
    pts = []
    pairs = []
    for i in range(m):
        for j in range(i + 1, m):
            if not parallel(i, j):
                A = np.array([lines[i][0], lines[j][0]])
                rhs = -np.array([lines[i][1], lines[j][1]])
                pts.append(np.linalg.solve(A, rhs))
                pairs.append((i, j))
    cluster_of = list(range(len(pts)))

    def cfind(a):
        while cluster_of[a] != a:
            cluster_of[a] = cluster_of[cluster_of[a]]
            a = cluster_of[a]
        return a

    for a in range(len(pts)):
        for b2 in range(a + 1, len(pts)):
            d = float(np.linalg.norm(pts[a] - pts[b2]))
            if COINCIDENCE_TOL <= d < 10 * COINCIDENCE_TOL:
                raise AmbiguousGeometryError(
                    "intersection points neither clearly coincident nor clearly distinct"
                )
            if d < COINCIDENCE_TOL:
                cluster_of[cfind(a)] = cfind(b2)
    members = {}
    for a in range(len(pts)):
        members.setdefault(cfind(a), set()).update(pairs[a])
    multi = [len(s) for s in members.values() if len(s) >= 3]

    count = 1 + m + comb(m, 2)
    for i in multi:
        count -= comb(i - 1, 2)
    for p in parallel_sizes:
        count -= comb(p, 2)
    return count


def count_regions_bound(n, M):
    """Sum of C(M, i) for i = 0..n: exact in general position, else an upper bound."""
    if n < 1 or M < 0:
        raise ValueError("need n >= 1 and M >= 0")
    total = sum(comb(M, i) for i in range(n + 1))
    if total >= 2 ** 63:
        raise OverflowError("region bound exceeds 64-bit range")
    return total


def _region_lp(arr, signs):
    """LP feasibility of the open cell with the given signs; None if empty."""
    n = arr.dim
    m = len(arr.hyperplanes)
    rows = np.zeros((m + 2 * n + 1, n + 1))
    rhs = np.zeros(m + 2 * n + 1)
    for i, (h, s) in enumerate(zip(arr.hyperplanes, signs)):
        sgn = 1.0 if s == PLUS else -1.0
        rows[i, :n] = -sgn * h.w
        rows[i, n] = 1.0
        rhs[i] = sgn * h.b
    rows[m: m + n, :n] = np.eye(n)
    rhs[m: m + n] = BOX_BOUND
    rows[m + n: m + 2 * n, :n] = -np.eye(n)
    rhs[m + n: m + 2 * n] = BOX_BOUND
    rows[-1, n] = 1.0
    rhs[-1] = 1.0
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = solve_lp(c, rows, rhs)
    if res.status == OPTIMAL and res.value > REGION_THRESHOLD:
        return res.z[:n]
    return None


def enumerate_regions(arr, cap=DEFAULT_CAP):
    """All open regions of the arrangement, each with an interior witness.

    Candidate sign vectors are pruned first by sampling 200 random points
    per hyperplane from a fixed seed, and the remainder decided by
    strict-margin LP feasibility.  Exponential in
    the hyperplane count, hence the cap.
    """
    m = len(arr.hyperplanes)
    if m > cap:
        raise ValueError(f"{m} hyperplanes exceed the enumeration cap {cap}")
    n = arr.dim
    W = np.array([h.w for h in arr.hyperplanes])
    b = np.array([h.b for h in arr.hyperplanes])

    found = {}
    rng = np.random.default_rng(0)
    scale = 3.0 * max(
        1.0, max(abs(h.b) / np.linalg.norm(h.w) for h in arr.hyperplanes)
    )
    X = rng.normal(scale=scale, size=(200 * m, n))
    V = X @ W.T + b
    margins = np.min(np.abs(V), axis=1)
    good = margins > REGION_THRESHOLD
    for x, v, ok in zip(X, V, good):
        if not ok:
            continue
        signs = tuple(PLUS if val > 0 else ZERO for val in v)
        if signs not in found:
            found[signs] = x

    regions = []
    for code in range(2 ** m):
        signs = tuple(PLUS if (code >> i) & 1 else ZERO for i in range(m))
        if signs in found:
            regions.append(Region(signs, found[signs]))
            continue
        witness = _region_lp(arr, signs)
        if witness is not None:
            regions.append(Region(signs, witness))
    return regions


def general_position(arr):
    """Both clauses of the general-position property over small subsets.

    Subsets of size s <= dim must meet in an (n-s)-flat (full row rank);
    subsets of size dim+1 must have empty intersection (inconsistent
    system).  Larger subsets follow from the dim+1 case.
    """
    from itertools import combinations

    n = arr.dim
    hps = arr.hyperplanes
    m = len(hps)
    for s in range(2, min(m, n) + 1):
        for subset in combinations(range(m), s):
            W = np.array([hps[i].w for i in subset])
            if numeric_rank(W) < s:
                return False
    if m > n:
        for subset in combinations(range(m), n + 1):
            W = np.array([hps[i].w for i in subset])
            bb = np.array([hps[i].b for i in subset])
            aug = np.hstack([W, -bb[:, None]])
            if numeric_rank(aug) == numeric_rank(W):
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
