"""Linear separability and the ordered-subdomain machinery.

``separate`` is the max-margin LP every other construction leans on.
A staircase order arranges singleton subdomains so each has a hyperplane
with itself strictly on the plus side and every earlier subdomain strictly
on the zero side; that structure is what lets the shallow synthesizer
solve output weights stage by stage.  ``projection_order`` is the one
builds use: an order along a seeded direction, one LP per position, all
solved together by ``separate_many``.
``distinguishable_order`` is the paper's construction by maximum
hyperplanes, which ``relusynth order`` runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import MARGIN, Hyperplane, point_key
from .simplex import OPTIMAL, solve_lp, solve_lps

SEPARABLE_THRESHOLD = 1e-7
# Largest C(k+1, n) whose touch sets maximum_hyperplane enumerates; above it
# the greedy fallback runs.  The candidate arrays grow with C(k+1, n) * k
# (about 50 MB at the cap with n = 2), and C(41, 6) = 4.5M subsets would
# need over 1 GB for the SVD input alone.  The largest tested instance,
# n = 4 with 25 samples, has 14,950.
MAX_TOUCH_SUBSETS = 20_000
# Tie breaking in ``distinguishable_order``: random weight perturbations
# tried, and halvings of each one's step, before the order gives up.
MAX_PERTURB_ROUNDS = 30
MAX_HALVINGS = 60


class InseparableError(ValueError):
    """Raised when a construction requires separability; carries the LP result."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


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


def _separation_system(D1, D2):
    """(c, rows, rhs) of: maximize t s.t. w.x+b >= t on D1, w.x+b <= -t on
    D2, |w|_inf <= 1, over z = (w, b, t)."""
    n = D1.shape[1]
    rows = np.zeros((D1.shape[0] + D2.shape[0] + 2 * n, n + 2))
    rhs = np.zeros(rows.shape[0])
    rows[: D1.shape[0], :n] = -D1
    rows[: D1.shape[0], n] = -1.0
    rows[: D1.shape[0], n + 1] = 1.0
    rows[D1.shape[0]: D1.shape[0] + D2.shape[0], :n] = D2
    rows[D1.shape[0]: D1.shape[0] + D2.shape[0], n] = 1.0
    rows[D1.shape[0]: D1.shape[0] + D2.shape[0], n + 1] = 1.0
    box = D1.shape[0] + D2.shape[0]
    rows[box: box + n, :n] = np.eye(n)
    rows[box + n:, :n] = -np.eye(n)
    rhs[box:] = 1.0
    c = np.zeros(n + 2)
    c[-1] = 1.0
    return c, rows, rhs


def _separator(res, n):
    if res.status != OPTIMAL:
        raise RuntimeError(f"separation LP ended with status {res.status}")
    return res.z[:n], float(res.z[n]), float(res.value)


def _separation_lp(D1, D2):
    """maximize t s.t. w.x+b >= t on D1, w.x+b <= -t on D2, |w|_inf <= 1."""
    return _separator(solve_lp(*_separation_system(D1, D2)), D1.shape[1])


def _point_sets(D1, D2):
    D1 = np.atleast_2d(np.asarray(D1, dtype=float))
    D2 = np.atleast_2d(np.asarray(D2, dtype=float))
    if D1.shape[0] == 0 or D2.shape[0] == 0:
        raise ValueError("both point sets must be nonempty")
    if D2.shape[1] != D1.shape[1]:
        raise ValueError("point sets must share a dimension")
    return D1, D2


def _separation_result(D1, D2, w, b, t_opt):
    if not np.any(w != 0.0):
        cert = Hyperplane(np.eye(D1.shape[1])[0], b)
    else:
        cert = Hyperplane(w, b)
    if t_opt <= SEPARABLE_THRESHOLD:
        return SeparationResult(False, None, 0.0, t_opt, cert)
    margins = np.concatenate([D1 @ cert.w + cert.b, -(D2 @ cert.w + cert.b)])
    worst = float(margins.min())
    if worst <= 0:
        return SeparationResult(False, None, 0.0, t_opt, cert)
    scale = max(1.0, 2.0 * MARGIN / worst)
    h = cert.scaled(scale)
    return SeparationResult(True, h, worst * scale, t_opt, cert)


def separate(D1, D2):
    """Max-margin strict separation: D1 on the plus side, D2 on the zero side.

    Separable iff the LP optimum exceeds ``SEPARABLE_THRESHOLD``.  The
    hyperplane keeps the LP's unit weight normalization and is only scaled
    up when its margin falls below twice the global margin floor; that
    keeps margins contractual without inflating weight norms on close
    point sets (which would poison downstream perturbation families).
    The raw LP direction is always returned as a certificate.
    """
    D1, D2 = _point_sets(D1, D2)
    return _separation_result(D1, D2, *_separation_lp(D1, D2))


def separate_many(pairs):
    """``[separate(D1, D2) for D1, D2 in pairs]``, with the LPs of every
    pair solved together by ``solve_lps``.

    All pairs share one dimension, and so one LP column count.  The
    results are those of ``separate`` pair by pair, bit for bit.
    """
    pairs = [_point_sets(D1, D2) for D1, D2 in pairs]
    if not pairs:
        return []
    systems = [_separation_system(D1, D2) for D1, D2 in pairs]
    results = solve_lps(systems[0][0], [rows for _, rows, _ in systems],
                        [rhs for _, _, rhs in systems])
    return [_separation_result(D1, D2, *_separator(res, D1.shape[1]))
            for (D1, D2), res in zip(pairs, results)]


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


def maximum_hyperplane(delta_samples, star, trace=None):
    """Hyperplane with star strictly plus and a maximum zero-side cover.

    The full cover is tried first.  Otherwise the touch-set candidates of
    ``_vertex_candidate_covers`` are verified by the separation LP, largest
    first, over every candidate of the largest size; the first that
    separates is returned (exact for samples in generic position).  When
    none of them verifies, or C(k+1, n) exceeds ``MAX_TOUCH_SUBSETS``, the
    one fallback runs: greedy largest-violation removal with a
    translation-improvement fixpoint, or the empty cover when nothing can
    be covered.  It records a ``maximum_hyperplane_fallback`` trace event
    with its reason (``cap`` or ``unverified``).  Returns (hyperplane,
    covered) with covered a tuple of sample indices placed on the zero
    side.
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

    reason = "cap"
    if math.comb(k + 1, n) <= MAX_TOUCH_SUBSETS:
        reason = "unverified"
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

    if trace is not None:
        trace.append({"event": "maximum_hyperplane_fallback", "samples": k,
                      "reason": reason})
    covered = set(_greedy_removal(delta, star))
    while True:
        if not covered:
            return _cover_nothing(delta, star, trace), ()
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
            if trace is not None:
                trace.append({"event": "greedy_cover", "size": len(covered)})
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


def _cover_nothing(delta, star, trace):
    """Terminal fallback: no sample can be covered; put the boundary at star."""
    n = star.shape[0]
    rows = np.zeros((delta.shape[0] + 2 * n, n + 1))
    rhs = np.zeros(rows.shape[0])
    rows[: delta.shape[0], :n] = star[None, :] - delta
    rows[: delta.shape[0], n] = 1.0
    rows[delta.shape[0]: delta.shape[0] + n, :n] = np.eye(n)
    rows[delta.shape[0] + n:, :n] = -np.eye(n)
    rhs[delta.shape[0]:] = 1.0
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = solve_lp(c, rows, rhs)
    if res.status == OPTIMAL and res.value > SEPARABLE_THRESHOLD:
        w = res.z[:n]
        b = -float(w @ star) + res.value / 2.0
        return Hyperplane(w, b).scaled(2.0 / res.value)
    if trace is not None:
        trace.append({"event": "empty_cover_degenerate"})
    w = np.zeros(n)
    w[0] = 1.0
    return Hyperplane(w, 1.0 - star[0])


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


def distinguishable_order(
    subdomains,
    seed=0,
    margin=MARGIN,
    hyperplanes=None,
    order=None,
    trace=None,
):
    """Order subdomains into the staircase structure with one hyperplane each.

    This is the paper's construction and the route of ``relusynth order``;
    builds use the cheaper ``projection_order``.  Construction route:
    every subdomain must be a singleton; points are processed in index
    order, each via its maximum hyperplane over the already-placed points
    (``maximum_hyperplane``: the LP-verified touch-set cover, or the greedy
    fallback on degenerate inputs and above ``MAX_TOUCH_SUBSETS``).  Points
    left stranded on the new plus side are reprocessed by translating the
    new hyperplane past them one at a time (boundary at the midpoint
    between consecutive points along the normal), with a seeded random
    weight perturbation whenever several of them tie along the normal
    direction.  Once the order is fixed, ``_staircase_lines`` replaces each
    line with its max-margin separator.

    Validation route: pass ``hyperplanes`` (and optionally ``order``) to
    check an existing staircase instead of building one.
    """
    sets = [np.atleast_2d(np.asarray(s, dtype=float)) for s in subdomains]
    k = len(sets)
    if k == 0:
        raise ValueError("need at least one subdomain")

    if hyperplanes is not None:
        order = tuple(order) if order is not None else tuple(range(k))
        ordered_sets = [sets[j] for j in order]
        ok, failures = check_distinguishable(ordered_sets, hyperplanes, margin)
        if not ok:
            raise ValueError(f"supplied hyperplanes fail the staircase check: {failures}")
        return DistinguishableOrder(order, tuple(hyperplanes))

    points = _singleton_points(sets)
    rng = np.random.default_rng(seed)
    n = points.shape[1]

    order_list = []      # subdomain indices in staircase order
    lines = {}           # subdomain index -> Hyperplane

    for i in range(k):
        p = points[i]
        if not order_list:
            w = np.zeros(n)
            w[0] = 1.0
            order_list.append(i)
            lines[i] = Hyperplane(w, 1.0 - p[0])
            continue
        delta_idx = list(order_list)
        delta = points[delta_idx]
        h, covered = maximum_hyperplane(delta, p, trace=trace)
        covered_global = {delta_idx[c] for c in covered}
        uncovered_global = [j for j in order_list if j not in covered_global]

        order_list = [j for j in order_list if j in covered_global]
        order_list.append(i)
        lines[i] = h

        if uncovered_global:
            _reprocess_uncovered(
                points, order_list, lines, i, uncovered_global, h, rng, trace)

    hps = _staircase_lines(points, order_list, [lines[j] for j in order_list])
    ok, failures = check_distinguishable([points[j][None, :] for j in order_list], hps, margin)
    if not ok:
        raise RuntimeError(f"constructed order fails its own staircase check: {failures}")
    return DistinguishableOrder(tuple(order_list), tuple(hps))


def _reprocess_uncovered(points, order_list, lines, star_idx, uncovered, h, rng, trace):
    """Give translated lines to the points left on the new plus side."""
    star_and_up = [star_idx] + list(uncovered)
    zero_side = [j for j in order_list if j not in star_and_up]

    w, b = h.w, h.b
    scale = 1.0 + float(np.max(np.abs(points[star_and_up])))

    def projections(wv):
        return {j: float(wv @ points[j]) for j in star_and_up}

    def tie_free(proj, wv):
        tol = 1e-9 * (1.0 + np.linalg.norm(wv)) * scale
        star_first = all(proj[star_idx] < proj[j] - tol for j in uncovered)
        svals = sorted(proj.values())
        gaps_ok = all(hi - lo > tol for lo, hi in zip(svals, svals[1:]))
        return star_first and gaps_ok

    def classification_ok(w_try):
        plus_vals = points[star_and_up] @ w_try + b
        if not (plus_vals >= 0.5 * plus_ref).all():
            return False
        if zero_side:
            zero_vals = points[zero_side] @ w_try + b
            return (zero_vals <= 0.5 * zero_ref).all()
        return True

    def tie_score(proj_try):
        """Smallest of the star gap and the internal ordering gaps."""
        star_gap = min(proj_try[j] - proj_try[star_idx] for j in uncovered)
        svals = sorted(proj_try.values())
        internal = min((hi - lo for lo, hi in zip(svals, svals[1:])),
                       default=np.inf)
        return min(star_gap, internal)

    proj = projections(w)
    rounds = 0
    while not tie_free(proj, w):
        rounds += 1
        if rounds > MAX_PERTURB_ROUNDS:
            raise RuntimeError("perturbation budget exhausted while breaking ties")
        eps = rng.normal(size=points.shape[1])
        eps /= np.linalg.norm(eps)
        plus_ref = points[star_and_up] @ w + b
        zero_ref = (points[zero_side] @ w + b) if zero_side else None
        # the perturbation magnitude can be arbitrarily small and its sign
        # is free: among the classification-preserving candidates take the
        # one that widens the binding gap, so ties break monotonically
        # instead of by a random walk
        best = None
        alpha = 1e-3 * np.linalg.norm(w)
        for _ in range(MAX_HALVINGS):
            for sign in (1.0, -1.0):
                w_try = w + sign * alpha * eps
                if not classification_ok(w_try):
                    continue
                proj_try = projections(w_try)
                score = tie_score(proj_try)
                if best is None or score > best[0]:
                    best = (score, w_try, proj_try)
            if best is not None:
                break
            alpha *= 0.5
        if best is None:
            raise RuntimeError("perturbation halving budget exhausted")
        if best[0] > tie_score(proj):
            w, proj = best[1], best[2]
        if trace is not None:
            trace.append({"event": "tie_perturbation", "round": rounds,
                          "alpha": alpha, "score": best[0]})

    uncovered_sorted = sorted(uncovered, key=lambda j: proj[j])
    prev = proj[star_idx]
    for j in uncovered_sorted:
        cut = 0.5 * (prev + proj[j])
        lines[j] = Hyperplane(w, -cut)
        order_list.append(j)
        prev = proj[j]
