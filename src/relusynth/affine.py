"""Overparameterization machinery.

A wide layer that a data set activates in full carries the data on an
n-dimensional affine subspace of its output space.  The decomposition
below splits such a layer into an invertible pivot block plus affinely
dependent complement rows; hyperplanes then move back and forth between
the wide space and the embedded coordinates without changing any
preactivation, which is what lets widened networks reproduce the original
function exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ACTIVATION_TOL,
    VERIFY_TOL,
    AffineMap,
    Hyperplane,
    Layer,
    activation_pattern,
    affine_fit,
    forward_batch,
    numeric_rank,
)
from .bundles import BundleConfig, anchored_base, common_point_bundle

# training points plus about this many interior probes per widened network
PROBE_POINTS = 1000


@dataclass(frozen=True, eq=False)
class EmbeddingDecomposition:
    """Pivot/complement split of an m-row affine image of n-space.

    base_affine is the invertible pivot map x' = W_n x + b_n; the
    complement rows reconstruct as W_c x' + b_c.  Row indices refer to the
    original m-row order.
    """

    pivot_rows: tuple
    free_rows: tuple
    base_affine: AffineMap
    W_c: np.ndarray
    b_c: np.ndarray
    m: int

    @property
    def n(self):
        return self.base_affine.in_dim

    def reconstruct(self, x_pivot):
        """Full m-vector image from pivot coordinates."""
        x_pivot = np.atleast_2d(np.asarray(x_pivot, dtype=float))
        full = np.empty((x_pivot.shape[0], self.m))
        full[:, list(self.pivot_rows)] = x_pivot
        full[:, list(self.free_rows)] = x_pivot @ self.W_c.T + self.b_c
        return full


def _greedy_pivot_rows(M, n):
    """Select n rows maximizing the smallest singular value greedily."""
    chosen = []
    remaining = list(range(M.shape[0]))
    for _ in range(n):
        best, best_val = None, -1.0
        for r in remaining:
            s = np.linalg.svd(M[chosen + [r]], compute_uv=False)
            if s[-1] > best_val:
                best, best_val = r, float(s[-1])
        chosen.append(best)
        remaining.remove(best)
    return tuple(sorted(chosen))


def embedding_from_affine(M, c, pivot_rows=None):
    """Decomposition of the affine image x -> M x + c, m rows over n inputs."""
    M = np.asarray(M, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = M.shape
    if m <= n:
        raise ValueError("need more rows than input dimensions")
    if numeric_rank(M) < n:
        raise ValueError("affine image is rank deficient; no pivot block exists")
    if pivot_rows is None:
        pivot_rows = _greedy_pivot_rows(M, n)
    pivot_rows = tuple(int(r) for r in pivot_rows)
    free_rows = tuple(r for r in range(m) if r not in pivot_rows)
    W_n = M[list(pivot_rows)]
    if numeric_rank(W_n) < n:
        raise ValueError("chosen pivot rows are singular")
    b_n = c[list(pivot_rows)]
    W_r = M[list(free_rows)]
    b_r = c[list(free_rows)]
    W_n_inv = np.linalg.inv(W_n)
    W_c = W_r @ W_n_inv
    b_c = b_r - W_c @ b_n
    return EmbeddingDecomposition(
        pivot_rows, free_rows, AffineMap(W_n, b_n), W_c, b_c, m
    )


def decompose_embedding(layer, D):
    """Decompose a wide layer around a point set that fully activates it.

    Also certifies that the images restricted to the pivot rows are an
    affine transform of the inputs (fit residual at most ``VERIFY_TOL``
    with a nonsingular witness) and that reconstruction reproduces the
    layer's outputs to 1e-9.
    """
    D = np.atleast_2d(np.asarray(D, dtype=float))
    if layer.units <= layer.fan_in:
        raise ValueError("layer must have more units than inputs")
    _, aggregate = activation_pattern(layer, D)
    partial = [u for u, s in aggregate.items() if s != "simultaneous"]
    if partial:
        raise ValueError(f"points do not simultaneously activate units {partial}")
    emb = embedding_from_affine(layer.weights, layer.biases)

    images = D @ layer.weights.T + layer.biases
    recon = emb.reconstruct(images[:, list(emb.pivot_rows)])
    recon_err = float(np.max(np.abs(recon - images)))
    if recon_err > 1e-9:
        raise RuntimeError(f"reconstruction residual {recon_err:.3g} above 1e-9")

    witness, resid = affine_fit(D, images[:, list(emb.pivot_rows)])
    if resid > VERIFY_TOL or not witness.is_nonsingular():
        raise RuntimeError("pivot image is not an affine transform of the inputs")
    return emb


def restrict_hyperplane(h, emb):
    """Pull a wide-space hyperplane back to the embedded coordinates.

    The returned hyperplane produces the same preactivation at x' as the
    original does at the reconstructed m-vector.
    """
    if h.dim != emb.m:
        raise ValueError("hyperplane dimension must match the wide space")
    w_n = h.w[list(emb.pivot_rows)]
    w_c = h.w[list(emb.free_rows)]
    w_prime = w_n + emb.W_c.T @ w_c
    b_prime = float(w_c @ emb.b_c) + h.b
    if np.max(np.abs(w_prime)) < 1e-12:
        raise ValueError("embedded subspace is parallel to the hyperplane")
    return Hyperplane(w_prime, b_prime)


def lift_hyperplane(target, emb, free_values=None):
    """Find a wide-space hyperplane whose restriction equals the target.

    With ``free_values`` the complement-row weights are fixed (for example
    to interference weights) and the pivot weights and bias solve exactly;
    otherwise the minimum-norm solution of the underdetermined coefficient
    match is returned.
    """
    if target.dim != emb.n:
        raise ValueError("target dimension must match the embedded space")
    k = len(emb.free_rows)
    if free_values is not None:
        w_c = np.asarray(free_values, dtype=float)
        if w_c.shape != (k,):
            raise ValueError(f"free_values must have shape ({k},)")
        w_n = target.w - emb.W_c.T @ w_c
        b = target.b - float(w_c @ emb.b_c)
    else:
        n = emb.n
        A = np.zeros((n + 1, n + k + 1))
        A[:n, :n] = np.eye(n)
        A[:n, n:n + k] = emb.W_c.T
        A[n, n:n + k] = emb.b_c
        A[n, n + k] = 1.0
        rhs = np.concatenate([target.w, [target.b]])
        sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        w_n, w_c, b = sol[:n], sol[n:n + k], float(sol[n + k])
    w = np.empty(emb.m)
    w[list(emb.pivot_rows)] = w_n
    w[list(emb.free_rows)] = w_c
    lifted = Hyperplane(w, b)
    back = restrict_hyperplane(lifted, emb)
    err = max(
        float(np.max(np.abs(back.w - target.w))),
        abs(back.b - target.b),
    )
    if err > 1e-9 * (1.0 + float(np.max(np.abs(target.w))) + abs(target.b)):
        raise RuntimeError(f"lift does not restrict back to the target ({err:.3g})")
    return lifted


def transform_hyperplane(h, amap):
    """Rewrite a hyperplane in the coordinates x' = W x + b of an invertible
    map.

    Preactivations are invariant: the new hyperplane takes the same value
    at W x + b as the old one takes at x.
    """
    if not amap.is_nonsingular():
        raise ValueError("coordinate change must be nonsingular")
    w_new = np.linalg.inv(amap.W).T @ h.w
    return Hyperplane(w_new, h.b - float(w_new @ amap.b))


def interference_avoiding_weights(fixed_weights, bias, off_dims, D2_images):
    """Common weight for the off dimensions driving foreign preactivations
    strictly negative.

    Protected data has zero coordinates on the off dimensions, so the
    returned weight cannot touch it; foreign images must be strictly
    positive there.  The weight is one below the feasibility bound, which
    pushes every foreign preactivation to at most minus the sum of its off
    coordinates.

    One row: ``fixed_weights`` is an m-vector with a scalar ``bias``,
    ``off_dims`` one foreign group's dimensions and ``D2_images`` its
    images; the weight comes back as a float.  Block: ``fixed_weights`` is
    an (r, m) block of rows with r biases, ``off_dims`` a list of F foreign
    groups' dimensions and ``D2_images`` the list of their images, each
    zero outside its own group's dimensions; the result is (r, F), column
    j the weight on group j's dimensions.  The block is solved with one
    product over the stacked foreign points and a segment minimum per
    group, and equals the row-by-row calls bit for bit.
    """
    single = np.ndim(fixed_weights) == 1
    if single:
        fixed_weights, bias = [fixed_weights], [bias]
        off_dims, D2_images = [off_dims], [D2_images]
    W = np.array(fixed_weights, dtype=float)
    offs = [np.asarray(d, dtype=int) for d in off_dims]
    imgs = [np.asarray(x, dtype=float).reshape(-1, W.shape[1]) for x in D2_images]
    sums = []
    for off, images in zip(offs, imgs):
        if off.size == 0:
            raise ValueError("need at least one off dimension")
        off_coords = images[:, off]
        if off_coords.min() <= ACTIVATION_TOL:
            raise ValueError(
                "a foreign image has a nonpositive coordinate on an off dimension"
            )
        sums.append(off_coords.sum(axis=1))
    W[:, np.concatenate(offs)] = 0.0
    C = np.vstack(imgs) @ W.T + np.asarray(bias, dtype=float)
    starts = np.cumsum([0] + [x.shape[0] for x in imgs[:-1]])
    weights = np.minimum.reduceat(-C / np.concatenate(sums)[:, None], starts).T - 1.0
    return float(weights[0, 0]) if single else weights


def passthrough_layer(emb, D_images, foreign=(), cfg=None, count=None):
    """A block of units that forwards one group unchanged up to an affine map.

    Builds a common-point family in the embedded coordinates (so the block's
    weight frame is invertible and the group's image stays an affine
    transform of the group) and writes its rows into the pivot columns,
    zero on the embedding's dependent rows (a deep layer's stacked lift
    with the identity frame), then sets interference weights on every
    foreign group's exclusive dimensions so those points produce all-zero
    outputs, which is checked.  ``foreign`` is a sequence of (dims,
    images) pairs.
    """
    cfg = cfg or BundleConfig()
    D_images = np.atleast_2d(np.asarray(D_images, dtype=float))
    x_prime = D_images[:, list(emb.pivot_rows)]
    recon = emb.reconstruct(x_prime)
    if float(np.max(np.abs(recon - D_images))) > VERIFY_TOL:
        raise ValueError("images do not lie on the embedded subspace")

    bundle = common_point_bundle(*anchored_base(x_prime), x_prime, cfg, count=count)
    W = np.zeros((len(bundle), emb.m))
    W[:, list(emb.pivot_rows)] = [t.w for t in bundle]
    b = np.array([t.b for t in bundle])
    if foreign:
        dims = [d for d, _ in foreign]
        weights = interference_avoiding_weights(W, b, dims, [x for _, x in foreign])
        W[:, np.concatenate(dims)] = np.repeat(weights, [len(d) for d in dims], axis=1)
    layer = Layer(W, b, "relu")

    own_out = np.maximum(D_images @ layer.weights.T + layer.biases, 0.0)
    fit, resid = affine_fit(D_images, own_out[:, : emb.n])
    if resid > VERIFY_TOL:
        raise RuntimeError(f"pass-through affine fit residual {resid:.3g}")
    for dims, images in foreign:
        vals = np.atleast_2d(images) @ layer.weights.T + layer.biases
        if vals.max() > -ACTIVATION_TOL:
            raise RuntimeError("a foreign point is not strictly deactivated")
    return layer


def widen_network(build, target_widths=None, uniform=None):
    """Rebuild a synthesized network with wider hidden layers, same function.

    New last-hidden units come from extending each stage's bundle with
    redundant members and re-solving the output weights; new units
    elsewhere extend pass-through and split blocks with redundant members
    whose downstream weights are fixed to zero.  Each layer's base width
    is its width less the extra units its plan records; the plan is
    re-run with the target widths' extras; a deep network's must not
    decrease, which is checked first.  Output invariance is probed
    on the training points plus random convex combinations inside each
    subdomain.
    """
    from .deep import DeepBuild, rebuild_deep_from_plan
    from .shallow import ShallowBuild, rebuild_from_plan

    if not isinstance(build, (ShallowBuild, DeepBuild)):
        raise TypeError(f"cannot widen a {type(build).__name__}")
    hidden_widths = [layer.units for layer in build.network.layers[:-1]]
    if uniform is not None:
        target_widths = [uniform] * len(hidden_widths)
    if target_widths is None:
        raise ValueError("give target_widths or uniform")
    target_widths = [int(m) for m in target_widths]
    if len(target_widths) != len(hidden_widths):
        raise ValueError(
            f"expected {len(hidden_widths)} widths, got {len(target_widths)}"
        )
    for have, want in zip(hidden_widths, target_widths):
        if want < have:
            raise ValueError(f"target width {want} below existing {have}")
    if isinstance(build, DeepBuild) and target_widths != sorted(target_widths):
        raise ValueError(f"deep hidden widths must not decrease, got {target_widths}")
    plan = build.report.plan
    if plan is None:
        raise ValueError("build carries no synthesis plan")

    if isinstance(build, ShallowBuild):
        extra = target_widths[0] - hidden_widths[0] + (plan.get("extra_units") or 0)
        new_build = rebuild_from_plan(plan, cfg=build.cfg, extra_units=extra)
    else:
        had = list(plan.get("extras") or [])
        had += [0] * (len(hidden_widths) - len(had))
        extras = [want - have + int(e)
                  for want, have, e in zip(target_widths, hidden_widths, had)]
        new_build = rebuild_deep_from_plan(plan, cfg=build.cfg, extras=extras)

    _check_output_invariance(build, new_build)
    return new_build


def _check_output_invariance(old_build, new_build):
    rng = np.random.default_rng(0)
    pwl = old_build.pwl
    probes = [pwl.all_points()]
    per_sub = max(1, PROBE_POINTS // len(pwl.subdomains))
    for pts, _ in pwl.subdomains:
        if pts.shape[0] == 1:
            continue
        lam = rng.dirichlet(np.ones(pts.shape[0]), size=per_sub)
        probes.append(lam @ pts)
    X = np.vstack(probes)
    diff = forward_batch(new_build.network, X) - forward_batch(old_build.network, X)
    worst = float(np.max(np.abs(diff)))
    if worst > VERIFY_TOL:
        raise RuntimeError(f"widening changed outputs by {worst:.3g}")
