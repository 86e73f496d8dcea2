"""Core domain types and the small dense numeric kernel.

Everything here is an immutable value type plus pure functions: safe to
share between threads, no interior mutation after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
import orjson

# The numerical contract's tolerances.  A ReLU preactivation in
# (0, ACTIVATION_TOL] is treated as zero; constructions place preactivations
# outside +-MARGIN so the band is never load-bearing.  A numeric rank counts
# the singular values above RANK_TOL times the largest.  VERIFY_TOL is the
# exactness bound: a built or verified network, and each exact affine image
# a construction checks, is off by at most this much on every given point.
ACTIVATION_TOL = 1e-9
RANK_TOL = 1e-9
MARGIN = 1e-6
VERIFY_TOL = 1e-8

Activation = Literal["relu", "linear"]

PLUS = "+"
ZERO = "0"


def dumps(obj, indent=None):
    """The package's JSON text: compact, or indented by 2 spaces for
    reports.  numpy scalars are written as numbers and non-finite floats as
    ``null`` (RFC 8259 has no NaN or Infinity)."""
    if indent not in (None, 2):
        raise ValueError(f"indent must be None or 2, got {indent!r}")
    option = orjson.OPT_SERIALIZE_NUMPY | (orjson.OPT_INDENT_2 if indent == 2 else 0)
    return orjson.dumps(obj, option=option).decode()


# parses str or UTF-8 bytes; NaN and Infinity tokens raise JSONDecodeError,
# a subclass of json.JSONDecodeError and so of ValueError
loads = orjson.loads
JSONDecodeError = orjson.JSONDecodeError


class DimensionMismatch(ValueError):
    """Shapes do not chain; carries the index of the offending layer."""

    def __init__(self, message, layer_index=None):
        super().__init__(message)
        self.layer_index = layer_index


class RankDeficientError(ValueError):
    """A solve required full rank; carries the computed numeric rank."""

    def __init__(self, message, rank):
        super().__init__(message)
        self.rank = rank


def _as_vector(x, name="vector"):
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {a.shape}")
    return a


def _as_matrix(x, name="matrix"):
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """Oriented affine hyperplane w.x + b = 0; the plus side is w.x + b > 0."""

    w: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "w", _as_vector(self.w, "w"))
        object.__setattr__(self, "b", float(self.b))
        if not np.any(self.w != 0.0):
            raise ValueError("hyperplane weight vector must be nonzero")

    @property
    def dim(self):
        return self.w.shape[0]

    def value(self, x):
        """Signed preactivation at one point or a stack of points."""
        x = np.asarray(x, dtype=float)
        return x @ self.w + self.b

    def scaled(self, factor):
        return Hyperplane(self.w * factor, self.b * factor)

    def negated(self):
        return Hyperplane(-self.w, -self.b)


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> W x + b.  W may be rectangular; constant maps use W = 0."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "W", _as_matrix(self.W, "W"))
        object.__setattr__(self, "b", _as_vector(self.b, "b"))
        if self.W.shape[0] != self.b.shape[0]:
            raise ValueError("W row count must match b length")

    @property
    def in_dim(self):
        return self.W.shape[1]

    @property
    def out_dim(self):
        return self.W.shape[0]

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self.W.T + self.b

    def is_nonsingular(self):
        """Usable as an equivalence witness: square and of full numeric rank."""
        if self.W.shape[0] != self.W.shape[1]:
            return False
        return numeric_rank(self.W) == self.W.shape[0]

    @staticmethod
    def constant(values, in_dim):
        values = _as_vector(values, "values")
        return AffineMap(np.zeros((values.shape[0], in_dim)), values)


@dataclass(frozen=True, eq=False)
class Layer:
    """Dense layer: units x fan-in weights, per-unit biases, relu or linear."""

    weights: np.ndarray
    biases: np.ndarray
    activation: Activation = "relu"

    def __post_init__(self):
        object.__setattr__(self, "weights", _as_matrix(self.weights, "weights"))
        object.__setattr__(self, "biases", _as_vector(self.biases, "biases"))
        if self.weights.shape[0] != self.biases.shape[0]:
            raise ValueError("bias length must equal weight row count")
        if self.activation not in ("relu", "linear"):
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def units(self):
        return self.weights.shape[0]

    @property
    def fan_in(self):
        return self.weights.shape[1]

    def preactivation(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self.weights.T + self.biases

    def hyperplane(self, unit):
        return Hyperplane(self.weights[unit], self.biases[unit])


@dataclass(frozen=True, eq=False)
class Network:
    """Feedforward stack of dense layers."""

    input_dim: int
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        fan = self.input_dim
        for i, layer in enumerate(self.layers):
            if layer.fan_in != fan:
                raise DimensionMismatch(
                    f"layer {i} expects fan-in {layer.fan_in}, got {fan}",
                    layer_index=i,
                )
            fan = layer.units

    @property
    def output_dim(self):
        return self.layers[-1].units if self.layers else self.input_dim

    def architecture(self):
        """Render widths as e.g. '2(1)4(1)6(1)9(1)1'(1)'.

        Consecutive layers with equal width and activation collapse into
        width(count); linear layers carry a prime.
        """
        parts = [f"{self.input_dim}(1)"]
        groups = []
        for layer in self.layers:
            key = (layer.units, layer.activation)
            if groups and groups[-1][0] == key:
                groups[-1][1] += 1
            else:
                groups.append([key, 1])
        for (units, activation), count in groups:
            prime = "'" if activation == "linear" else ""
            parts.append(f"{units}{prime}({count})")
        return "".join(parts)

    def to_json_dict(self):
        return {
            "input_dim": self.input_dim,
            "layers": [
                {
                    "weights": layer.weights.tolist(),
                    "biases": layer.biases.tolist(),
                    "activation": layer.activation,
                }
                for layer in self.layers
            ],
        }

    def to_json(self):
        return dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(d):
        try:
            layers = tuple(
                Layer(np.array(l["weights"], dtype=float),
                      np.array(l["biases"], dtype=float),
                      l["activation"])
                for l in d["layers"]
            )
            return Network(int(d["input_dim"]), layers)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed network JSON: {exc}") from exc

    @staticmethod
    def from_json(text):
        return Network.from_json_dict(loads(text))


def point_key(X):
    """The duplicate-point rule: points that agree to 12 decimals are one
    point."""
    return np.asarray(X, dtype=float).round(decimals=12)


def distinct_points(points, targets):
    """The first occurrence of each point, with its target.

    A point repeated with the same target (``np.allclose``) is dropped; one
    repeated with a different target raises ValueError naming the row.
    """
    first = {}
    keep = []
    for i, key in enumerate(map(tuple, point_key(points))):
        j = first.setdefault(key, i)
        if j == i:
            keep.append(i)
        elif not np.allclose(targets[j], targets[i]):
            raise ValueError(f"duplicate point at row {i} with a conflicting target; "
                             "the map from points to targets is not bijective")
    return points[keep], targets[keep]


@dataclass(frozen=True, eq=False)
class DiscretePWL:
    """Finite disjoint point sets, each carrying a target affine map.

    ``subdomains`` is a sequence of (points, AffineMap) pairs; points is an
    array of shape (count, dim) and every map sends dim -> output_dim.
    """

    dim: int
    output_dim: int
    subdomains: tuple

    def __post_init__(self):
        subs = []
        for points, amap in self.subdomains:
            pts = np.asarray(points, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != self.dim:
                raise ValueError(f"points must have shape (k, {self.dim})")
            if pts.shape[0] == 0:
                raise ValueError("subdomains must be nonempty")
            if amap.in_dim != self.dim or amap.out_dim != self.output_dim:
                raise ValueError(
                    f"map must send {self.dim} -> {self.output_dim}, "
                    f"got {amap.in_dim} -> {amap.out_dim}"
                )
            subs.append((pts, amap))
        object.__setattr__(self, "subdomains", tuple(subs))
        all_pts = self.all_points()
        if len(np.unique(point_key(all_pts), axis=0)) != len(all_pts):
            raise ValueError("subdomain point sets must be pairwise disjoint")

    @staticmethod
    def singletons(points, targets):
        """One singleton subdomain per row of ``points``, each carrying the
        constant map to the same row of ``targets``."""
        points = np.asarray(points, dtype=float)
        targets = np.asarray(targets, dtype=float)
        return DiscretePWL(points.shape[1], targets.shape[1], tuple(
            (p[None, :], AffineMap.constant(t, points.shape[1]))
            for p, t in zip(points, targets)))

    def all_points(self):
        return np.vstack([pts for pts, _ in self.subdomains])

    def all_targets(self):
        return np.vstack([amap.apply(pts) for pts, amap in self.subdomains])

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "output_dim": self.output_dim,
            "subdomains": [
                {"points": pts.tolist(), "W": amap.W.tolist(), "b": amap.b.tolist()}
                for pts, amap in self.subdomains
            ],
        }

    def to_json(self):
        return dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(d):
        try:
            subs = tuple(
                (np.array(s["points"], dtype=float),
                 AffineMap(np.array(s["W"], dtype=float), np.array(s["b"], dtype=float)))
                for s in d["subdomains"]
            )
            return DiscretePWL(int(d["dim"]), int(d["output_dim"]), subs)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed piecewise-linear JSON: {exc}") from exc

    @staticmethod
    def from_json(text):
        return DiscretePWL.from_json_dict(loads(text))


@dataclass(frozen=True)
class ActivationPattern:
    """Per-unit sign vector: '+' for strictly active, '0' otherwise."""

    signs: tuple

    @staticmethod
    def from_preactivation(z):
        return ActivationPattern.from_mask(np.asarray(z, dtype=float) > ACTIVATION_TOL)

    @staticmethod
    def from_mask(on):
        """Pattern of a boolean mask: '+' where True."""
        return ActivationPattern(tuple(PLUS if v else ZERO for v in on.tolist()))

    def active_units(self):
        return tuple(i for i, s in enumerate(self.signs) if s == PLUS)

    def __str__(self):
        return "".join(self.signs)


# ---------------------------------------------------------------------------
# Evaluation


def _activate(layer, z):
    """A layer's outputs from its preactivations ``z``, and the mask
    ``z > ACTIVATION_TOL``; a ReLU layer clamps to zero where it is off."""
    on = z > ACTIVATION_TOL
    if layer.activation == "relu":
        return np.where(on, z, 0.0), on
    return z, on


def forward_masks(net, X):
    """Evaluate at one point, shape (input_dim,), or a stack, (k, input_dim).

    Returns the outputs and, for each layer, the boolean mask
    ``preactivation > ACTIVATION_TOL`` with one entry per unit (one row per
    point for a stack).  ReLU outputs are clamped to zero wherever the mask
    is off, so output > 0 iff preactivation > ACTIVATION_TOL.  It checks no
    shapes; ``forward``, ``forward_traced`` and ``forward_batch`` do.
    """
    out = np.asarray(X, dtype=float)
    masks = []
    for layer in net.layers:
        out, on = _activate(layer, layer.preactivation(out))
        masks.append(on)
    return out, masks


def _as_point(net, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise DimensionMismatch(
            f"input has shape {x.shape}, network expects ({net.input_dim},)",
            layer_index=None,
        )
    return x


def forward(net, x):
    """Evaluate the network at a single point.

    ReLU outputs are clamped to zero for preactivations at or below
    ACTIVATION_TOL, so output > 0 iff preactivation > ACTIVATION_TOL.
    """
    out, _ = forward_masks(net, _as_point(net, x))
    return out


def forward_traced(net, x):
    """Evaluate and return (output, per-layer ActivationPattern list)."""
    out, masks = forward_masks(net, _as_point(net, x))
    return out, [ActivationPattern.from_mask(on) for on in masks]


def forward_batch(net, X):
    """Vectorized forward pass over an array of points, shape (k, input_dim)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise DimensionMismatch(
            f"points have shape {X.shape}, network expects (k, {net.input_dim})")
    out, _ = forward_masks(net, X)
    return out


def activation_pattern(layer, points):
    """Sign vectors of a point set under one ReLU layer, plus the aggregate.

    The aggregate maps each unit to 'simultaneous' (activated by every
    point), 'never' (by no point) or 'partial'.
    """
    if layer.activation != "relu":
        raise ValueError("activation_pattern requires a relu layer")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (k, fan_in) array")
    Z = pts @ layer.weights.T + layer.biases
    per_point = [ActivationPattern.from_preactivation(z) for z in Z]
    active = Z > ACTIVATION_TOL
    aggregate = {}
    for unit in range(layer.units):
        col = active[:, unit]
        if col.all():
            aggregate[unit] = "simultaneous"
        elif not col.any():
            aggregate[unit] = "never"
        else:
            aggregate[unit] = "partial"
    return per_point, aggregate


# ---------------------------------------------------------------------------
# Dense numeric kernel


def numeric_rank(M):
    """Number of singular values above RANK_TOL times the largest one."""
    M = _as_matrix(M, "M")
    if M.size == 0:
        raise ValueError("rank of an empty matrix is undefined")
    return int(ranked(M[None])[0][0])


def ranked(mats):
    """The one rank rule: numeric ranks of a stack of equal-shape matrices
    from one batched SVD, each the count of singular values above RANK_TOL
    times the largest, and each one's smallest singular value over its
    largest (nan for a zero matrix)."""
    s = np.linalg.svd(np.asarray(mats, dtype=float), compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (s > RANK_TOL * s[:, :1]).sum(axis=-1), s[:, -1] / s[:, 0]


def solve_square(A, Y):
    """The coefficient-matching solve: exact solves of square systems.

    ``A`` is (..., m, m) and ``Y`` (..., k, m); row j of ``Y`` is one
    right-hand side for the matching ``A``, and the result has the shape
    of ``Y``.  Each right-hand side takes its own LAPACK solve and one step
    of iterative refinement, which rescues marginally conditioned systems
    without changing the well-conditioned ones; a solution's bytes do not
    depend on the other right-hand sides or the rest of the stack.  The
    caller checks the ranks.
    """
    A = np.asarray(A, dtype=float)[..., None, :, :]
    Y = np.asarray(Y, dtype=float)[..., None]
    X = np.linalg.solve(A, Y)
    X += np.linalg.solve(A, Y - A @ X)
    return X[..., 0]


def solve_constrained(A, y):
    """The minimum-norm solution of A x = y, with one refinement step."""
    A = _as_matrix(A, "A")
    y = _as_vector(y, "y")
    if A.shape[0] != y.shape[0]:
        raise ValueError(f"A has {A.shape[0]} rows but y has length {y.shape[0]}")
    x, *_ = np.linalg.lstsq(A, y, rcond=None)
    dx, *_ = np.linalg.lstsq(A, y - A @ x, rcond=None)
    return x + dx


def shifted_systems(M, centroids, square, name):
    """Coefficient-matching systems with each bias row moved to its centroid.

    ``M`` is (s, n + 1, c): each system's columns are the stacked (w, b) of
    its bundle.  Adding ``centroid @ w`` to each bias gives the same
    solution with the constant term measured at the centroid, which keeps
    systems far from the origin well conditioned.  The systems that
    ``square`` marks, the ones solved exactly, are ranked by one batched
    SVD; the first of them short of full rank raises
    ``RankDeficientError`` under ``name(j)``, j its index in the stack.
    Returns the shifted stack, C-contiguous: a solve's last bits depend on
    the memory layout.
    """
    M = np.array(M, dtype=float, order="C")
    n = M.shape[1] - 1
    M[:, n] += np.matmul(np.asarray(centroids)[:, None, :], M[:, :n])[:, 0]
    idx = np.flatnonzero(square)
    if idx.size:
        rank = ranked(M[idx])[0]
        if (rank < n + 1).any():
            j = int(np.argmax(rank < n + 1))
            raise RankDeficientError(f"{name(int(idx[j]))}: centroid-shifted matrix "
                                     f"rank {rank[j]} < {n + 1}", rank=int(rank[j]))
    return M


def match(A, Y):
    """The coefficient-matching solve of ``A`` (..., m, c) against ``Y``
    (..., k, m): ``solve_square`` when A is square, the minimum-norm
    ``solve_constrained`` of each right-hand side otherwise.  The result
    is (..., k, c)."""
    A = np.asarray(A, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if A.shape[-1] == A.shape[-2]:
        return solve_square(A, Y)
    X = np.empty(Y.shape[:-1] + A.shape[-1:])
    for i in np.ndindex(A.shape[:-2]):
        X[i] = [solve_constrained(A[i], y) for y in Y[i]]
    return X


def supporting_hyperplane(points, direction=None):
    """A hyperplane with every point strictly on the plus side, margin 1."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if direction is None:
        direction = np.zeros(points.shape[1])
        direction[0] = 1.0
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    b = 1.0 - float(np.min(points @ direction))
    return Hyperplane(direction, b)


def affine_fit(X, Y):
    """Least-squares affine map X -> Y; returns (AffineMap, max residual).

    Used as the constructive certificate that one point set is an affine
    transform of another.
    """
    X = _as_matrix(X, "X")
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    design = np.hstack([X, np.ones((X.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(design, Y, rcond=None)
    W = coef[:-1].T
    b = coef[-1]
    amap = AffineMap(W, b)
    residual = float(np.max(np.abs(amap.apply(X) - Y))) if X.size else 0.0
    return amap, residual
