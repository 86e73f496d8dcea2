"""Hyperplane families with prescribed joint properties.

Each family starts from a base hyperplane, and each further member moves
one free parameter of it: a non-pivot weight, or (for the
same-classification family) the bias.  Stacked, the parameters are the
base's plus a diagonal block, so they have full rank in every dimension.
Each parameter's step is set in closed form from the base's smallest
conditioning margin and how far the conditioning points lie along that
parameter, so every member keeps the base's classification with at least
half the required margin.  ``families`` is the one place that builds
bundles and checks their margins, ranks and anchors: a staircase's
stages, a deep layer's blocks and the one-base functions all go through it.

The paper perturbs member j by powers eps_i**j of distinct epsilons
instead.  That stacks into a Vandermonde block whose smallest singular
value falls to about 1e-9 at dimension 8, too small for exact stage
solves; any family works that keeps the base's classification with margin
and stacks to full rank.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .core import MARGIN, Hyperplane, RankDeficientError, ranked, supporting_hyperplane


class MarginError(ValueError):
    """A conditioning point violates the required margin; carries the point
    and its margin.  ``stage`` and ``subdomain`` name the bundle as the
    caller of ``families`` does: for a staircase build the stage position
    and the stage's subdomain, for a deep build the layer and the block's
    leaves (the leaf, for an output bundle); the one-base functions leave
    both None."""

    def __init__(self, message, point=None, margin=None, stage=None, subdomain=None):
        super().__init__(message)
        self.point = point
        self.margin = margin
        self.stage = stage
        self.subdomain = subdomain


@dataclass(frozen=True)
class BundleConfig:
    margin: float = MARGIN

    def __post_init__(self):
        m = self.margin
        if isinstance(m, bool) or not isinstance(m, numbers.Real) or not 0 < m < np.inf:
            raise ValueError(f"margin must be a finite positive number, got {m!r}")


def _non_pivot(W):
    """Per row of W, the weight indices other than the (first)
    largest-magnitude one: a (k, n - 1) index array."""
    j = np.arange(W.shape[1] - 1)
    return j + (j >= np.argmax(np.abs(W), axis=1)[:, None])


def axis_family(W, b, count, worst, reach, anchor=None):
    """Parameter stacks of k axis-aligned families, one per base.

    Row 0 of each (count, dim + 1) stack is the base's (w, b); member i
    moves one free parameter of it.  The free parameters are the weights
    other than the (first) largest one and, without an anchor, the bias;
    member i adds eps_j * m to free[j], where j = (i - 1) mod F and
    m = 1 + (i - 1) // F, and with no free parameter the members repeat
    the base.  ``worst`` (k,) is each base's smallest margin on its
    conditioning points and ``reach`` (k, dim) the largest |x_j| over them
    (|x_j - anchor_j| with an anchor), so eps_j = worst / (2 m_max reach_j)
    moves no conditioning preactivation by more than worst / 2: each member
    keeps the base's sides with at least half its smallest margin.  Each
    eps_j is capped at the pivot weight's magnitude, which also sets it for
    a parameter no conditioning point feels.  With an anchor (k, dim),
    every member's bias is recomputed so that it passes through its
    base's anchor.
    """
    k, n = W.shape
    rows = np.arange(k)[:, None]
    free = _non_pivot(W)
    reach = reach[rows, free]
    if anchor is None:
        free = np.concatenate([free, np.full((k, 1), n)], axis=1)
        reach = np.concatenate([reach, np.ones((k, 1))], axis=1)
    base = np.concatenate([W, b[:, None]], axis=1)[:, None]
    moves = np.zeros((k, count - 1, n + 1))
    F = free.shape[1]
    if F and count > 1:
        i = np.arange(count - 1)
        m = 1 + i // F
        with np.errstate(divide="ignore"):
            eps = np.minimum(worst[:, None] / (2.0 * m[-1] * reach),
                             np.abs(W).max(axis=1, keepdims=True))
        moves[rows, i, free[:, i % F]] = eps[:, i % F] * m
    # adding the zero moves too turns a -0.0 weight into 0.0, as the
    # members always have
    params = np.concatenate([base, base + moves], axis=1)
    if anchor is not None:
        # one dot product per member, so the rounding is that of each
        # member alone
        params[:, 1:, n] = -np.matmul(params[:, 1:, None, :n],
                                      np.asarray(anchor)[:, None, :, None])[..., 0, 0]
    return params


def _margins(z, signs):
    """Margins of preactivations ``z``: z on the plus side (sign 1), 0 - z
    on the zero side, so a zero margin reads 0 rather than -0."""
    return np.where(signs > 0, z, 0.0 - z)


def _margin_error(name, what, margin, floor, point):
    label, stage, subdomain = name
    return MarginError(
        f"{label}: {what} margin {margin:.3g} at point {np.round(point, 6).tolist()} "
        f"is below the required {floor:.3g}",
        point=point, margin=margin, stage=stage, subdomain=subdomain)


def families(X, rows, signs, bundle_of_row, W, b, counts, anchors, margin, name):
    """The units of k bundles, built and checked in one stacked pass.

    Bundle j has the base (W[j], b[j]) and counts[j] units; with
    ``anchors`` (one entry per bundle), a bundle whose entry is not None
    is a common-point family of at least dim units through that anchor,
    which must lie on the base (to 1e-9).  Its conditioning points are the
    rows X[rows[i]] with bundle_of_row[i] == j (``bundle_of_row``
    ascending): on the plus side where signs[i] is 1, on the zero side
    where it is -1.

    Each base's margins are one matrix-vector product over its own rows,
    since they set its family's steps, and must reach ``margin``; ``worst``
    and ``reach`` are segment reductions of them (inf and 0 for a bundle
    without rows).  One ``axis_family`` call builds each stack of bundles
    of equal count and anchoring, and one batched solve per anchored stack
    checks that each family's first dim members meet at its anchor (to
    1e-9 relative).  Every member must keep its base's sides with
    margin / 2 on its own bundle's rows, read from one product of X with
    all units, and one batched SVD per unanchored stack ranks its bundles'
    stacked (w, b) columns, which need rank min(count, dim + 1).  The first
    failing bundle j raises, in this order, ``ValueError`` (anchor off its
    base), ``MarginError`` (base), ``RuntimeError`` (a singular
    common-point frame, or a family that misses its anchor),
    ``MarginError`` (members) or ``RankDeficientError``, named by
    ``name(j)``: a (label, stage, subdomain) triple, the label leading the
    message and the other two carried by a ``MarginError``.

    Returns the (sum(counts), dim + 1) unit rows, bundle after bundle and
    each base first; each bundle's rank and sigma_min (its smallest
    singular value over its largest; 0 and nan when anchored); and the
    preactivations of X on the units.
    """
    X = np.asarray(X, dtype=float)
    counts = np.asarray(counts)
    n = X.shape[1]
    k = len(W)
    anchored, A = np.zeros(k, dtype=bool), np.zeros((k, n))
    for j, a in enumerate(anchors or ()):
        if a is not None:
            anchored[j], A[j] = True, a
    off = anchored & (np.abs(np.einsum("ij,ij->i", A, W) + b) > 1e-9)
    if off.any():
        raise ValueError(f"{name(int(np.argmax(off)))[0]}: "
                         "anchor does not lie on the base hyperplane")
    sizes = np.bincount(bundle_of_row, minlength=k)
    offsets = np.cumsum(sizes) - sizes
    G = X[rows]
    margins = _margins(np.concatenate([G[o:o + m] @ w for o, m, w in zip(offsets, sizes, W)])
                       + b[bundle_of_row], signs)
    low = margins < margin
    if low.any():
        j = bundle_of_row[np.argmax(low)]
        i = offsets[j] + np.argmin(margins[offsets[j]:offsets[j] + sizes[j]])
        raise _margin_error(name(j), "base hyperplane", float(margins[i]), margin, G[i])
    # reduceat does not reduce an empty segment
    worst, reach = np.full(k, np.inf), np.zeros((k, n))
    has = sizes > 0
    if has.any():
        worst[has] = np.minimum.reduceat(margins, offsets[has])
        D = G - A[bundle_of_row] if anchored.any() else G
        reach[has] = np.maximum.reduceat(np.abs(D), offsets[has], axis=0)

    unit_start = np.cumsum(counts) - counts
    P = np.empty((counts.sum(), n + 1))
    rank, sigma_min = np.zeros(k, dtype=int), np.full(k, np.nan)
    apart = np.zeros(k, dtype=bool)
    for with_anchor, count in dict.fromkeys(zip(anchored.tolist(), counts.tolist())):
        idx = np.flatnonzero((anchored == with_anchor) & (counts == count))
        F = axis_family(W[idx], b[idx], count, worst[idx], reach[idx],
                        A[idx] if with_anchor else None)
        P[unit_start[idx, None] + np.arange(count)] = F
        if with_anchor:
            # the first dim members' frame and biases must recover the anchor
            try:
                found = np.linalg.solve(F[:, :n, :n], -F[:, :n, n:])[..., 0]
            except np.linalg.LinAlgError:
                j = idx[np.argmax(np.linalg.det(F[:, :n, :n]) == 0.0)]
                raise RuntimeError(f"{name(j)[0]}: common-point frame is singular") from None
            a = A[idx]
            apart[idx] = np.abs(found - a).max(axis=1) > 1e-9 * (1.0 + np.abs(a).max(axis=1))
        else:
            # a row-major copy: LAPACK's copy-in of a transposed view is slower
            rank[idx], sigma_min[idx] = ranked(np.ascontiguousarray(np.swapaxes(F, 1, 2)))
    if apart.any():
        raise RuntimeError(f"{name(int(np.argmax(apart)))[0]}: "
                           "family does not meet at the anchor")

    Z = X @ np.ascontiguousarray(P[:, :n]).T + P[:, n]
    # one (row, member) pair per member of each row's own bundle
    members = counts[bundle_of_row] - 1
    first = np.cumsum(members) - members
    pair = np.repeat(np.arange(len(rows)), members)
    unit = np.arange(len(pair)) + (unit_start[bundle_of_row] + 1 - first)[pair]
    margins = _margins(Z[rows[pair], unit], signs[pair])
    floor = margin / 2.0
    low = margins < floor
    if low.any():
        j = bundle_of_row[pair[np.argmax(low)]]
        start = first[offsets[j]]
        i = start + np.argmin(margins[start:start + sizes[j] * (counts[j] - 1)])
        raise _margin_error(name(j), f"family member {unit[i] - unit_start[j]}",
                            float(margins[i]), floor, G[pair[i]])
    expected = np.minimum(counts, n + 1)
    low = ~anchored & (rank < expected)
    if low.any():
        j = int(np.argmax(low))
        raise RankDeficientError(f"{name(j)[0]}: bundle matrix rank {rank[j]} < {expected[j]}",
                                 rank=int(rank[j]))
    return P, rank, sigma_min, Z


def _one_base(base, D_plus, D_zero, count, cfg, label, anchor=None):
    """One base's bundle through ``families``: the base itself, then one
    hyperplane per member."""
    n = base.dim
    sides = [np.atleast_2d(np.asarray(D, dtype=float)) if D is not None and len(D)
             else np.zeros((0, n)) for D in (D_plus, D_zero)]
    X = np.vstack(sides)
    P = families(X, np.arange(len(X)), np.repeat([1.0, -1.0], [len(D) for D in sides]),
                 np.zeros(len(X), dtype=int), base.w[None], np.array([base.b]),
                 np.array([count]), None if anchor is None else [anchor], cfg.margin,
                 lambda j: (label, None, None))[0]
    return [base] + [Hyperplane(p[:n], p[n]) for p in P[1:]]


def same_classification_bundle(base, D_plus, D_zero, count, cfg=BundleConfig()):
    """``count`` hyperplanes (including the base) classifying like the base.

    The base must put D_plus on its plus side and D_zero on its zero side,
    both with margin at least cfg.margin.  The members form the axis-aligned
    family over the non-pivot weights and the bias, so every member keeps
    the classification with at least half the base's smallest margin
    (checked against cfg.margin / 2) and the stacked (dim+1)-row parameter
    matrix has rank min(count, dim + 1).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    return _one_base(base, D_plus, D_zero, count, cfg, "same-classification bundle")


def common_point_bundle(base, anchor, D_plus, cfg=BundleConfig(), count=None):
    """dim hyperplanes through one common point, all classifying like the base.

    The base must contain the anchor.  The members form the axis-aligned
    family over the non-pivot weights, each with its bias recomputed from
    the anchor, so the whole family meets exactly there; the weight rows of
    the first dim members are the base's plus a diagonal block, so their
    intersection is the anchor alone, which ``families`` checks.  ``count``
    beyond dim cycles through the same weights again with growing multiples.
    """
    n = base.dim
    count = n if count is None else count
    if count < n:
        raise ValueError("count below the dimension breaks the frame property")
    return _one_base(base, D_plus, None, count, cfg, "common-point bundle", anchor)


def anchored_base(points):
    """The base and anchor of a pass-through family: the points' supporting
    hyperplane and the first point's projection onto it."""
    base = supporting_hyperplane(points)
    p = points[0]
    return base, p - float(base.value(p)) * base.w / float(base.w @ base.w)
