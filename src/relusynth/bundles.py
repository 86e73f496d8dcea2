"""Hyperplane families with prescribed joint properties.

Each family starts from a base hyperplane, and each further member moves
one free parameter of it: a non-pivot weight, or (for the
same-classification family) the bias.  Stacked, the parameters are the
base's plus a diagonal block, so they have full rank in every dimension.
Each parameter's step is set in closed form from the base's smallest
conditioning margin and how far the conditioning points lie along that
parameter, so every member keeps the base's classification with at least
half the required margin.

The paper perturbs member j by powers eps_i**j of distinct epsilons
instead.  That stacks into a Vandermonde block whose smallest singular
value falls to about 1e-9 at dimension 8, too small for exact stage
solves; any family works that keeps the base's classification with margin
and stacks to full rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MARGIN, Hyperplane, affine_fit, numeric_rank
from .ordering import InseparableError, separate


class MarginError(ValueError):
    """A conditioning point violates the required margin; carries the point
    and its margin.  For a staircase build ``stage`` is the stage position
    and ``subdomain`` the stage's subdomain; for a deep build ``stage`` is
    the layer and ``subdomain`` the block's leaves (the leaf, for an output
    bundle)."""

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
        if self.margin <= 0:
            raise ValueError("margin must be positive")


def _non_pivot(W):
    """Per row of W, the weight indices other than the (first)
    largest-magnitude one: a (k, n - 1) index array."""
    j = np.arange(W.shape[1] - 1)
    return j + (j >= np.argmax(np.abs(W), axis=1)[:, None])


def _conditioning(D_plus, D_zero, n):
    """Stacked conditioning points and the sign that makes each one's
    preactivation its margin (+1 on D_plus, -1 on D_zero)."""
    parts = [np.atleast_2d(np.asarray(D, dtype=float)) if D is not None and len(D)
             else np.zeros((0, n)) for D in (D_plus, D_zero)]
    signs = np.repeat([1.0, -1.0], [len(P) for P in parts])
    return np.vstack(parts), signs


def _require_margins(margins, pts, floor, what):
    """Raises MarginError naming the worst point when a margin falls below
    ``floor``; ``margins`` holds one column per hyperplane when 2-d."""
    if margins.size and margins.min() < floor:
        i = np.unravel_index(np.argmin(margins), margins.shape)[0]
        worst = float(margins.min())
        raise MarginError(
            f"{what} margin {worst:.3g} is below the required {floor:.3g}",
            point=pts[i], margin=worst,
        )


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


def _bundle(base, params):
    """The base itself followed by one hyperplane per further row."""
    n = base.dim
    return [base] + [Hyperplane(p[:n], p[n]) for p in params[1:]]


def _one_family(base, pts, signs, count, cfg, reach, anchor=None):
    """The parameter stack of one base's family on its conditioning points,
    with the base and every member margin checked."""
    margins = signs * base.value(pts)
    _require_margins(margins, pts, cfg.margin, "base hyperplane")
    params = axis_family(base.w[None], np.array([base.b]), count,
                         margins.min(initial=np.inf)[None], reach[None],
                         None if anchor is None else anchor[None])[0]
    members = params[1:]
    _require_margins(signs[:, None] * (pts @ members[:, :-1].T + members[:, -1]),
                     pts, cfg.margin / 2.0, "family member")
    return params


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
    pts, signs = _conditioning(D_plus, D_zero, base.dim)
    params = _one_family(base, pts, signs, count, cfg,
                         np.abs(pts).max(axis=0, initial=0.0))
    if count == 1:
        return [base]
    expected = min(count, base.dim + 1)
    rank = numeric_rank(params.T)
    if rank < expected:
        raise RuntimeError(f"bundle parameter matrix rank {rank} < {expected}")
    return _bundle(base, params)


def reversed_pair_bundles(D1, D2, k1, k2, cfg=BundleConfig()):
    """Two families with opposite sides: D1 in every plus of the first and
    every zero of the second, D2 reversed.

    When k1 == k2 == dim, the first family's weight rows form a
    nonsingular frame, so D1's image under its preactivations is an affine
    transform of D1 (checked by fit).
    """
    D1 = np.atleast_2d(np.asarray(D1, dtype=float))
    D2 = np.atleast_2d(np.asarray(D2, dtype=float))
    res = separate(D1, D2)
    if not res.separable:
        raise InseparableError(
            f"point sets are not strictly separable (LP margin {res.lp_margin:.3g})",
            res,
        )
    base = res.hyperplane
    bundle_a = same_classification_bundle(base, D1, D2, k1, cfg)
    bundle_b = same_classification_bundle(base.negated(), D2, D1, k2, cfg)

    n = D1.shape[1]
    if k1 == k2 == n:
        for bundle, pts in ((bundle_a, D1), (bundle_b, D2)):
            W = np.array([h.w for h in bundle])
            if numeric_rank(W) < n:
                raise RuntimeError("bundle weight frame lost full rank")
            image = pts @ W.T + np.array([h.b for h in bundle])
            _, resid = affine_fit(pts, image)
            if resid > 1e-8:
                raise RuntimeError(f"affine image check failed (residual {resid:.3g})")
    return bundle_a, bundle_b


def common_point_bundle(base, anchor, D_plus, cfg=BundleConfig(), count=None):
    """dim hyperplanes through one common point, all classifying like the base.

    The base must contain the anchor.  The members form the axis-aligned
    family over the non-pivot weights, each with its bias recomputed from
    the anchor, so the whole family meets exactly there; the weight rows of
    the first dim members are the base's plus a diagonal block, so their
    intersection is the anchor alone.  ``count`` beyond dim cycles through
    the same weights again with growing multiples.
    """
    n = base.dim
    count = n if count is None else count
    if count < n:
        raise ValueError("count below the dimension breaks the frame property")
    anchor = np.asarray(anchor, dtype=float)
    if abs(float(base.value(anchor))) > 1e-9:
        raise ValueError("anchor does not lie on the base hyperplane")
    pts, signs = _conditioning(D_plus, None, n)
    params = _one_family(base, pts, signs, count, cfg,
                         np.abs(pts - anchor).max(axis=0, initial=0.0), anchor)
    if count == 1:
        return [base]
    W, b = params[:n, :n], params[:n, n]
    if n > 1 and numeric_rank(W) < n:
        raise RuntimeError("common-point weight matrix is singular")
    recovered = np.linalg.solve(W, -b) if n > 1 else -b / W[0]
    if np.max(np.abs(recovered - anchor)) > 1e-9 * (1.0 + np.max(np.abs(anchor))):
        raise RuntimeError("family does not meet at the anchor")
    return _bundle(base, params)
