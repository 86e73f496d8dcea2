"""Linear separability and the ordered-subdomain machinery.

``separate`` is the max-margin LP every other construction leans on.
A staircase order arranges singleton subdomains so each has a hyperplane
with itself strictly on the plus side and every earlier subdomain strictly
on the zero side; that structure is what lets the shallow synthesizer
solve output weights stage by stage.  ``projection_order`` is the one
builds use: an order along a seeded direction, one LP per position, all
solved together by ``separate_many``.
``distinguishable_order`` is the paper's construction by maximum
hyperplanes, which ``relusynth order`` runs.  It is deterministic: the
points each new point leaves on its plus side are placed after it by one
lexicographic sort, and the greedy cover is its search's one fallback.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import MARGIN, Hyperplane, point_key
from .simplex import OPTIMAL, solve_lps

SEPARABLE_THRESHOLD = 1e-7
# Largest C(k+1, n) whose touch sets maximum_hyperplane enumerates; above it
# the greedy fallback runs.  The candidate arrays grow with C(k+1, n) * k
# (about 50 MB at the cap with n = 2), and C(41, 6) = 4.5M subsets would
# need over 1 GB for the SVD input alone.  The largest tested instance,
# n = 4 with 25 samples, has 14,950.
MAX_TOUCH_SUBSETS = 20_000


class EmptyCoverError(RuntimeError):
    """Raised when the greedy fallback of ``maximum_hyperplane`` can keep no
    sample on the zero side."""


@dataclass(frozen=True)
class SeparationResult:
    separable: bool
    hyperplane: Hyperplane | None
    margin: float
    lp_margin: float          # raw LP optimum under the |w|_inf <= 1 normalization
    certificate: Hyperplane   # the LP's best direction, even when inseparable


@dataclass(frozen=True)
class DistinguishableOrder:
    """Permutation of subdomain indices with one hyperplane per position."""

    order: tuple
    hyperplanes: tuple


def _point_sets(D1, D2):
    D1 = np.atleast_2d(np.asarray(D1, dtype=float))
    D2 = np.atleast_2d(np.asarray(D2, dtype=float))
    if D1.shape[0] == 0 or D2.shape[0] == 0:
        raise ValueError("both point sets must be nonempty")
    if D2.shape[1] != D1.shape[1]:
        raise ValueError("point sets must share a dimension")
    return D1, D2


def separate(D1, D2):
    """Max-margin strict separation: D1 on the plus side, D2 on the zero side.

    Separable iff the LP optimum exceeds ``SEPARABLE_THRESHOLD``.  The
    hyperplane keeps the LP's unit weight normalization and is only scaled
    up when its margin falls below twice the global margin floor; that
    keeps margins contractual without inflating weight norms on close
    point sets (which would poison downstream perturbation families).
    The raw LP direction is always returned as a certificate.  It is the
    batch of one, ``separate_many([(D1, D2)])[0]``.
    """
    return separate_many([(D1, D2)])[0]


def separate_many(pairs):
    """``[separate(D1, D2) for D1, D2 in pairs]``, with the LPs of every
    pair solved together by ``solve_lps``.

    Pair l's LP maximizes t over z = (w, b, t) subject to w.x + b >= t on
    D1, w.x + b <= -t on D2 and |w|_inf <= 1.  Its point rows come first,
    nearest the cut first: with d the difference of the two centroids and
    v = x.d, both sides' rows sort together by |v - mid|, stably, where
    mid is halfway between D1's smallest v and D2's largest.  Every point
    row has rhs 0, so the simplex starts at a degenerate vertex where
    Bland's rule breaks each ratio-test tie by row order, and this order
    reaches the optimum in about a third of the pivots of the input
    order.  The 2n box rows follow, then 0 <= 0 padding up to the batch's
    largest LP, and ``solve_lps`` gets the whole (L, rows, n + 2) stack.
    All pairs share one dimension.  Each result is that of its pair's LP
    solved alone, bit for bit.
    """
    pairs = [_point_sets(D1, D2) for D1, D2 in pairs]
    if not pairs:
        return []
    n = pairs[0][0].shape[1]
    if any(D1.shape[1] != n for D1, _ in pairs):
        raise ValueError("all pairs must share a dimension")
    sides = [D for pair in pairs for D in pair]  # D1 of pair 0, D2 of pair 0, ...
    sizes = np.array([D.shape[0] for D in sides])
    starts = np.cumsum(sizes) - sizes
    X = np.vstack(sides)
    side = np.repeat(np.arange(len(sides)), sizes)
    pair = side // 2
    centroid = np.add.reduceat(X, starts) / sizes[:, None]
    v = (X * (centroid[0::2] - centroid[1::2])[pair]).sum(axis=1)
    mid = 0.5 * (np.minimum.reduceat(v, starts)[0::2] + np.maximum.reduceat(v, starts)[1::2])
    order = np.lexsort((np.abs(v - mid[pair]), pair))
    m = sizes[0::2] + sizes[1::2]  # point rows of each LP
    L, rows = len(pairs), m.max() + 2 * n
    lp = pair[order]
    slot = np.arange(X.shape[0]) - starts[0::2][lp]
    sign = np.where(side[order] % 2 == 0, -1.0, 1.0)  # -(w.x + b) + t <= 0 on D1
    A = np.zeros((L, rows, n + 2))
    rhs = np.zeros((L, rows))
    A[lp, slot, :n] = sign[:, None] * X[order]
    A[lp, slot, n] = sign
    A[lp, slot, n + 1] = 1.0
    lps, box = np.arange(L)[:, None], m[:, None] + np.arange(2 * n)
    A[lps, box, :n] = np.vstack([np.eye(n), -np.eye(n)])
    rhs[lps, box] = 1.0
    c = np.zeros(n + 2)
    c[-1] = 1.0

    results = solve_lps(c, A, rhs)
    for res in results:
        if res.status != OPTIMAL:
            raise RuntimeError(f"separation LP ended with status {res.status}")
    Z = np.array([res.z for res in results])
    # the signed margin of each point row is -(its row) . (w, b); box and
    # padding rows count as +inf
    margins = -(A[:, :, :n + 1] * Z[:, None, :n + 1]).sum(axis=2)
    margins[np.arange(rows) >= m[:, None]] = np.inf
    worst = margins.min(axis=1)
    with np.errstate(divide="ignore"):
        scale = np.maximum(1.0, 2.0 * MARGIN / worst)
    W = np.where(Z[:, :n].any(axis=1)[:, None], Z[:, :n], np.eye(n)[0])
    out = []
    for w, b, t, wl, sl in zip(W, Z[:, n], Z[:, n + 1], worst, scale):
        cert = Hyperplane(w, b)
        if t <= SEPARABLE_THRESHOLD or wl <= 0:
            out.append(SeparationResult(False, None, 0.0, float(t), cert))
        else:
            h = cert if sl == 1.0 else cert.scaled(sl)
            out.append(SeparationResult(True, h, float(wl * sl), float(t), cert))
    return out


def check_distinguishable(sets_in_order, hyperplanes, margin=MARGIN):
    """Verify the staircase conditions on already-ordered point sets.

    Position nu must have its own set at preactivation >= margin and the
    union of all earlier sets at <= -margin.  Each position takes one
    product of its hyperplane with the stacked sets up to its own.
    Returns (ok, failures) where failures lists (position, kind,
    worst_value).
    """
    sets = [np.atleast_2d(pts) for pts in sets_in_order]
    points = np.vstack(sets)
    sizes = [len(pts) for pts in sets]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    failures = []
    for nu, h in zip(range(len(sets)), hyperplanes):
        vals = h.value(points[: ends[nu]])
        own = vals[starts[nu]:].min()
        if own < margin:
            failures.append((nu, "own-side", float(own)))
        if nu:
            prev = np.maximum.reduceat(vals[: starts[nu]], starts[:nu])
            for mu in np.flatnonzero(prev > -margin):
                failures.append((nu, f"earlier-set-{mu}", float(prev[mu])))
    return len(failures) == 0, failures


def _greedy_removal(delta, star):
    """Greedy largest-violation removal from the full zero-side cover.

    Repeatedly drop the zero-side point that sticks out worst (under the
    failed LP's best direction) until the remaining cover separates.
    Returns the remaining sample indices.
    """
    k = delta.shape[0]
    remaining = list(range(k))
    removed = []
    while remaining:
        plus = np.vstack([star[None, :], delta[removed]]) if removed else star[None, :]
        res = separate(plus, delta[remaining])
        if res.separable:
            break
        vals = res.certificate.value(delta[remaining])
        worst = remaining[int(np.argmax(vals))]
        removed.append(worst)
        remaining.remove(worst)
    return remaining


def _vertex_candidate_covers(delta, star):
    """Candidate zero-side covers from hyperplanes touching n points, largest first.

    A maximum cover's hyperplane can be translated and rotated, keeping its
    cover, until it touches n of the samples or the star.  So for points in
    generic position one of the touch-set normals (taken with either sign)
    puts a maximum cover strictly below the star's projection.  The counts
    of every normal come from one vectorised pass; the covers are then
    yielded lazily in decreasing size, deduplicated, so the caller stops
    at the first one its LP verifies.  Touch sets that do not span a
    hyperplane give no normal.  The caller bounds C(k+1, n) by
    ``MAX_TOUCH_SUBSETS`` before calling.
    """
    pts = np.vstack([delta, star[None, :]])
    n = pts.shape[1]
    if n == 1:
        normals = np.ones((1, 1))
    else:
        subsets = np.array(list(itertools.combinations(range(pts.shape[0]), n)))
        A = pts[subsets[:, 1:]] - pts[subsets[:, :1]]
        _, s, vt = np.linalg.svd(A)
        normals = vt[s[:, -1] > 1e-9 * np.maximum(s[:, 0], 1.0), -1, :]
    tol = 1e-9 * (1.0 + float(np.max(np.abs(pts))))
    proj = delta @ normals.T
    star_proj = (star @ normals.T)[None, :]
    # columns: each normal, then its negation
    below = np.hstack([proj < star_proj - tol, proj > star_proj + tol])
    counts = below.sum(axis=0)
    seen = set()
    for idx in np.argsort(-counts):
        if counts[idx] == 0:
            return
        key = below[:, idx].tobytes()
        if key not in seen:
            seen.add(key)
            yield tuple(np.flatnonzero(below[:, idx]).tolist())


def maximum_hyperplane(delta_samples, star):
    """Hyperplane with star strictly plus and a maximum zero-side cover.

    The full cover is tried first.  Otherwise the touch-set candidates of
    ``_vertex_candidate_covers`` are verified by the separation LP, largest
    first, over every candidate of the largest size; the first that
    separates is returned (exact for samples in generic position).  When
    none of them verifies, C(k+1, n) exceeds ``MAX_TOUCH_SUBSETS``, or there
    are fewer than n points and so no touch set, the one fallback runs:
    greedy largest-violation removal with a translation-improvement
    fixpoint.  Its cover can be smaller than the maximum; an empty greedy
    cover raises ``EmptyCoverError``.  Returns (hyperplane, covered) with
    covered a tuple of sample indices placed on the zero side.
    """
    delta = np.atleast_2d(np.asarray(delta_samples, dtype=float))
    star = np.asarray(star, dtype=float)
    k, n = delta.shape
    if k == 0:
        raise ValueError("need at least one zero-side sample")
    if (point_key(delta) == point_key(star)).all(axis=1).any():
        raise ValueError("star must not be one of the zero-side samples")

    full = separate(star[None, :], delta)
    if full.separable:
        _check_translation_property(full, delta, list(range(k)), star)
        return full.hyperplane, tuple(range(k))

    if 0 < math.comb(k + 1, n) <= MAX_TOUCH_SUBSETS:
        best_size = None
        for cover in _vertex_candidate_covers(delta, star):
            if best_size is not None and len(cover) < best_size:
                break
            excl = [i for i in range(k) if i not in cover]
            res = separate(np.vstack([star[None, :], delta[excl]]), delta[list(cover)])
            if res.separable:
                _check_translation_property(res, delta, list(cover), star)
                return res.hyperplane, cover
            best_size = len(cover)  # keep trying equal-size candidates only

    covered = set(_greedy_removal(delta, star))
    if not covered:
        raise EmptyCoverError(
            f"greedy cover is empty: removal left none of the {k} samples on "
            f"the zero side of the star {star.tolist()}")
    while True:
        excl = [i for i in range(k) if i not in covered]
        plus = np.vstack([star[None, :], delta[excl]]) if excl else star[None, :]
        res = separate(plus, delta[sorted(covered)])
        if not res.separable:
            raise RuntimeError("greedy cover lost separability")
        h = res.hyperplane
        star_val = float(h.value(star))
        vals = h.value(delta)
        improvable = [
            i for i in excl if vals[i] < star_val - 1e-6 * max(1.0, abs(star_val))
        ]
        if not improvable:
            _check_translation_property(res, delta, sorted(covered), star)
            return h, tuple(sorted(covered))
        covered.update(improvable)


def _check_translation_property(res, delta, covered, star):
    """No uncovered sample may sit strictly between the boundary and star.

    Slack accounts for partitions the LP threshold was allowed to reject:
    an uncovered sample within threshold/lp_margin of the star projection
    is a tie, not a violation.
    """
    h = res.hyperplane
    star_val = float(h.value(star))
    uncovered = [i for i in range(delta.shape[0]) if i not in covered]
    if not uncovered:
        return
    vals = h.value(delta[uncovered])
    slack = max(
        1e-6 * max(1.0, abs(star_val)),
        4.0 * SEPARABLE_THRESHOLD / max(res.lp_margin, SEPARABLE_THRESHOLD) * abs(star_val),
    )
    if vals.min() < star_val - slack:
        raise RuntimeError(
            "translation property violated: an uncovered sample sits between "
            "the hyperplane and the star sample"
        )


def _rescale_for(h, constrained_points):
    """Scale up only as needed to clear twice the margin floor."""
    vals = np.abs(h.value(np.atleast_2d(np.vstack(constrained_points))))
    worst = float(vals.min())
    if worst <= 0:
        raise RuntimeError("degenerate hyperplane: a constrained point lies on it")
    return h.scaled(max(1.0, 2.0 * MARGIN / worst))


def _singleton_points(sets):
    """Stack singleton subdomains into one point array.

    Raises ValueError when a subdomain has more than one point, or when two
    points coincide after rounding to 12 decimals.
    """
    if any(s.shape[0] != 1 for s in sets):
        raise ValueError(
            "construction route requires singleton subdomains; "
            "supply hyperplanes to validate an existing order instead"
        )
    points = np.vstack(sets)
    if len(np.unique(point_key(points), axis=0)) != len(sets):
        raise ValueError("duplicate points across subdomains")
    return points


def _staircase_lines(points, order, lines):
    """One max-margin line per position of a staircase order.

    ``order`` lists point indices in staircase order and ``lines[pos]`` is
    a line that already meets position pos's conditions.  Each position
    after the first gets the separation LP's max-margin separator of its
    point from every earlier one, which keeps every condition while giving
    the bundles the best possible margins; where the LP finds no
    separator, the given line is kept, scaled to clear the margin floor.
    The first position has no earlier point and keeps its line.  A
    staircase of k points costs k - 1 LPs, solved in one lockstep batch.
    """
    hps = [_rescale_for(lines[0], [points[order[0]][None, :]])]
    results = separate_many([(points[order[pos]][None, :], points[list(order[:pos])])
                             for pos in range(1, len(order))])
    for pos, res in enumerate(results, start=1):
        if res.separable:
            hps.append(res.hyperplane)
        else:
            hps.append(_rescale_for(lines[pos], [points[list(order[: pos + 1])]]))
    return hps


def projection_order(subdomains, seed=0):
    """The staircase order that builds use: singletons sorted along one
    seeded random unit direction u.

    The point placed last is the farthest along u of the points placed so
    far, so it separates from all of them: the cut halfway between it and
    its predecessor along u is a staircase line, and the max-margin LP
    separator that replaces it (``_staircase_lines``) has at least half
    that gap as its margin.  This deviates from the paper, whose order
    gives each point a maximum hyperplane (``distinguishable_order``); a
    build needs only some staircase, and this one takes k - 1 LPs.
    """
    points = _singleton_points(
        [np.atleast_2d(np.asarray(s, dtype=float)) for s in subdomains])
    u = np.random.default_rng(seed).normal(size=points.shape[1])
    u /= np.linalg.norm(u)
    proj = points @ u
    order = np.argsort(proj, kind="stable")
    along = proj[order]
    lines = [Hyperplane(u, 1.0 - along[0])]
    lines += [Hyperplane(u, -0.5 * (lo + hi)) for lo, hi in zip(along, along[1:])]
    return DistinguishableOrder(tuple(order.tolist()),
                                tuple(_staircase_lines(points, order, lines)))


def _place_plus_side(points, star, uncovered, h, lines):
    """The star and the points ``h`` leaves on its plus side, in staircase
    order, with a line for each in ``lines``.

    They sort by projection onto ``h.w``.  Projections within the tie
    tolerance 1e-9 (1 + |w|)(1 + max|x|) of their sorted neighbour form one
    level, and a level sorts by coordinates x0, x1, ... in turn.  The first
    point keeps ``h``; each later one gets the cut halfway along ``h.w``
    from its predecessor.  Each point so placed is the lexicographic
    maximum, under (h.w, e0, ..., e(n-1)), of everything placed before it,
    the covered points lying below ``h``.  So it is a vertex of their hull
    and separates strictly, and ``_staircase_lines`` replaces every cut,
    including the placeholder cuts inside a level, with an LP separator.
    """
    idx = np.array([star] + uncovered)
    w = h.w
    proj = np.array([float(w @ points[j]) for j in idx])
    tol = 1e-9 * (1.0 + np.linalg.norm(w)) * (1.0 + float(np.max(np.abs(points[idx]))))
    by_proj = np.argsort(proj, kind="stable")
    level = np.zeros(len(idx))
    level[by_proj[1:]] = np.cumsum(np.diff(proj[by_proj]) > tol)
    rank = np.lexsort(np.vstack([points[idx].T[::-1], level]))  # last key first
    placed = idx[rank].tolist()
    lines[placed[0]] = h
    for j, lo, hi in zip(placed[1:], rank, rank[1:]):
        lines[j] = Hyperplane(w, -0.5 * (proj[lo] + proj[hi]))
    return placed


def distinguishable_order(subdomains):
    """Order subdomains into the staircase structure with one hyperplane each.

    This is the paper's construction and the route of ``relusynth order``;
    builds use the cheaper ``projection_order``.  Every subdomain must be
    a singleton; points are processed in index order, each via its maximum
    hyperplane over the already-placed points (``maximum_hyperplane``: the
    LP-verified touch-set cover, or the greedy fallback on degenerate
    inputs and above ``MAX_TOUCH_SUBSETS``).  The covered points keep their
    places, and the new point and the points left on its plus side follow
    them in the lexicographic order of ``_place_plus_side``.  Once the
    order is fixed, ``_staircase_lines`` replaces each line with its
    max-margin separator.  The result depends on the points alone.
    ``check_distinguishable`` validates an existing staircase.
    """
    sets = [np.atleast_2d(np.asarray(s, dtype=float)) for s in subdomains]
    k = len(sets)
    if k == 0:
        raise ValueError("need at least one subdomain")

    points = _singleton_points(sets)
    order_list = [0]     # subdomain indices in staircase order
    lines = {0: Hyperplane(np.eye(points.shape[1])[0], 1.0 - points[0, 0])}
    for i in range(1, k):
        h, covered = maximum_hyperplane(points[order_list], points[i])
        covered = {order_list[c] for c in covered}
        uncovered = [j for j in order_list if j not in covered]
        order_list = [j for j in order_list if j in covered]
        order_list += _place_plus_side(points, i, uncovered, h, lines)

    hps = _staircase_lines(points, order_list, [lines[j] for j in order_list])
    ok, failures = check_distinguishable([points[j][None, :] for j in order_list], hps)
    if not ok:
        raise RuntimeError(f"constructed order fails its own staircase check: {failures}")
    return DistinguishableOrder(tuple(order_list), tuple(hps))
