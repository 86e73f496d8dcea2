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
    """A conditioning point violates the required margin; carries the point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class BundleConfig:
    margin: float = MARGIN

    def __post_init__(self):
        if self.margin <= 0:
            raise ValueError("margin must be positive")


def _non_pivot(w):
    """Weight indices other than the (first) largest-magnitude one."""
    return np.delete(np.arange(w.shape[0]), np.argmax(np.abs(w)))


def _conditioning(D_plus, D_zero, n):
    """Stacked conditioning points and the sign that makes each one's
    preactivation its margin (+1 on D_plus, -1 on D_zero)."""
    parts = [np.atleast_2d(np.asarray(D, dtype=float)) if D is not None and len(D)
             else np.zeros((0, n)) for D in (D_plus, D_zero)]
    signs = np.repeat([1.0, -1.0], [len(P) for P in parts])
    return np.vstack(parts), signs


def _require_margins(h, pts, signs, floor, what):
    """The hyperplane's margins on the conditioning points; raises
    MarginError naming the worst point when one falls below ``floor``."""
    margins = signs * h.value(pts)
    if len(margins) and margins.min() < floor:
        i = int(np.argmin(margins))
        raise MarginError(
            f"{what} margin {margins[i]:.3g} is below the required {floor:.3g}",
            point=pts[i],
        )
    return margins


def _axis_family(base, count, free, reach, worst, anchor=None):
    """The base followed by ``count - 1`` members, each moving one parameter.

    ``free`` indexes the F movable entries of the parameter vector (w, b),
    index dim being the bias, and ``reach[j]`` is the most a unit move of
    entry free[j] shifts any conditioning preactivation.  Member i adds
    eps_j * m to entry free[j], where j = (i - 1) mod F and
    m = 1 + (i - 1) // F; with no free entry the members repeat the base.  With eps_j = worst / (2 m_max reach_j) no member
    shifts a conditioning preactivation by more than worst / 2, so each
    keeps the base's sides with at least half its smallest margin.  Each
    eps_j is capped at the pivot weight's magnitude, which also sets it for
    an entry no conditioning point feels.  With an anchor, every member's
    bias is recomputed so that it passes through the anchor.
    """
    n, F = base.dim, len(free)
    moves = np.zeros((count - 1, n + 1))
    if F:
        i = np.arange(count - 1)
        m = 1 + i // F
        with np.errstate(divide="ignore"):
            eps = np.minimum(worst / (2.0 * m[-1] * reach), np.max(np.abs(base.w)))
        moves[i, free[i % F]] = eps[i % F] * m
    bundle = [base]
    for p in np.append(base.w, base.b) + moves:
        w = p[:n]
        bundle.append(Hyperplane(w, -float(w @ anchor) if anchor is not None else p[n]))
    return bundle


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
    n = base.dim
    pts, signs = _conditioning(D_plus, D_zero, n)
    margins = _require_margins(base, pts, signs, cfg.margin, "base hyperplane")
    if count == 1:
        return [base]

    free = np.append(_non_pivot(base.w), n)
    reach = np.append(np.abs(pts[:, free[:-1]]).max(axis=0, initial=0.0), 1.0)
    bundle = _axis_family(base, count, free, reach, margins.min(initial=np.inf))
    for h in bundle[1:]:
        _require_margins(h, pts, signs, cfg.margin / 2.0, "family member")

    stacked = np.vstack([
        np.column_stack([h.w for h in bundle]),
        np.array([[h.b for h in bundle]]),
    ])
    expected = min(count, n + 1)
    rank = numeric_rank(stacked)
    if rank < expected:
        raise RuntimeError(f"bundle parameter matrix rank {rank} < {expected}")
    return bundle


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
    margins = _require_margins(base, pts, signs, cfg.margin, "base hyperplane")
    if count == 1:
        return [base]

    free = _non_pivot(base.w)
    reach = np.abs(pts[:, free] - anchor[free]).max(axis=0, initial=0.0)
    bundle = _axis_family(base, count, free, reach, margins.min(initial=np.inf), anchor)
    for h in bundle[1:]:
        _require_margins(h, pts, signs, cfg.margin / 2.0, "family member")

    W = np.array([h.w for h in bundle[:n]])
    if n > 1 and numeric_rank(W) < n:
        raise RuntimeError("common-point weight matrix is singular")
    b = np.array([h.b for h in bundle[:n]])
    recovered = np.linalg.solve(W, -b) if n > 1 else -b / W[0]
    if np.max(np.abs(recovered - anchor)) > 1e-9 * (1.0 + np.max(np.abs(anchor))):
        raise RuntimeError("family does not meet at the anchor")
    return bundle
