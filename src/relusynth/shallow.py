"""Three-layer synthesis.

The staircase engine: give each subdomain, in distinguishable order, a
full-rank bundle of dim+1 hyperplanes, then solve output weights stage by
stage.  Because every earlier subdomain sits on the zero side of later
bundles, each stage's solve matches the target coefficients exactly
without disturbing what came before.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    ACTIVATION_TOL,
    RANK_TOL,
    AffineMap,
    DiscretePWL,
    Hyperplane,
    Layer,
    Network,
    forward_batch,
    numeric_rank,
    solve_constrained,
    RankDeficientError,
)
from .core import supporting_hyperplane
from .bundles import BundleConfig, same_classification_bundle
from .ordering import DistinguishableOrder, check_distinguishable, distinguishable_order, separate
from .report import ConstructionReport


class GeometryError(ValueError):
    """The requested construction's geometric precondition failed."""


class UniformityError(ValueError):
    """An earlier bundle hyperplane splits a later subdomain."""

    def __init__(self, message, subdomain, hyperplane):
        super().__init__(message)
        self.subdomain = subdomain
        self.hyperplane = hyperplane


@dataclass(frozen=True)
class LinearOutputMatrix:
    """Stacked (w, b) columns of the hyperplanes activated by a data set."""

    columns: tuple

    def matrix(self):
        return np.vstack([
            np.column_stack([h.w for h in self.columns]),
            np.array([[h.b for h in self.columns]]),
        ])


def solve_output_weights(W, target, fixed_contributions=(), rank_tol=RANK_TOL):
    """Output weights realizing an affine target through activated columns.

    Solves the coefficient-matching system: the weighted sum of the
    columns' (w, b) pairs, plus the fixed contributions, must equal the
    target's coefficients.  Requires at least dim+1 columns of full rank.
    """
    if target.out_dim != 1:
        raise ValueError("target must be scalar-valued")
    M = W.matrix()
    n_plus_1 = M.shape[0]
    if M.shape[1] < n_plus_1:
        raise ValueError(f"need at least {n_plus_1} columns, got {M.shape[1]}")
    rank = numeric_rank(M, rank_tol)
    if rank < n_plus_1:
        raise RankDeficientError(
            f"linear-output matrix rank {rank} < {n_plus_1}", rank=rank
        )
    rhs = np.concatenate([target.W[0], target.b])
    for h, weight in fixed_contributions:
        rhs = rhs - weight * np.concatenate([h.w, [h.b]])
    mode = "exact_square" if M.shape[1] == n_plus_1 else "least_norm_underdetermined"
    alpha = solve_constrained(M, rhs, mode, rank_tol)
    if np.max(np.abs(M @ alpha - rhs)) > 1e-9:
        raise RuntimeError("output-weight solve residual above tolerance")
    return alpha


@dataclass
class ShallowStage:
    position: int            # index in the staircase order
    subdomain: int           # index into the build's subdomain list
    base: Hyperplane
    count: int
    bundle: list
    unit_start: int


@dataclass
class ShallowBuild:
    """Synthesized three-layer network plus the metadata to rebuild it."""

    network: Network
    pwl: DiscretePWL
    order: DistinguishableOrder
    stages: list
    cfg: BundleConfig
    seed: int
    relu_output: bool
    report: ConstructionReport


def _uniform_side(h, points, tol=ACTIVATION_TOL):
    """'plus', 'zero' or None if the hyperplane splits the set."""
    vals = h.value(np.atleast_2d(points))
    if (vals > tol).all():
        return "plus"
    if (vals <= tol).all():
        return "zero"
    return None


def build_staircase(pwl, order=None, cfg=None, seed=0, extra_units=0,
                    relu_output=False, trace=None):
    """Staircase synthesis engine shared by every three-layer route.

    ``pwl`` supplies the subdomains and their affine targets; ``order`` is
    constructed from singletons when not supplied.  Every output dimension
    is solved independently against the shared hidden layer.  With
    ``relu_output`` the output units are ReLUs with a bias unknown folded
    into the first stage's solve.
    """
    t_start = time.monotonic()
    cfg = cfg or BundleConfig()
    trace = trace if trace is not None else []
    n = pwl.dim
    sets = [pts for pts, _ in pwl.subdomains]
    maps = [amap for _, amap in pwl.subdomains]

    if order is None:
        order = distinguishable_order(sets, seed=seed, margin=cfg.margin,
                                      trace=trace)
    ok, failures = check_distinguishable(
        [sets[j] for j in order.order], order.hyperplanes, cfg.margin
    )
    if not ok:
        raise GeometryError(f"order fails the staircase check: {failures}")

    k = len(order.order)
    stages = []
    unit_cursor = 0
    hidden_rows = []
    hidden_biases = []
    for pos, j in enumerate(order.order):
        base = order.hyperplanes[pos]
        # keep later subdomains on whichever side the base already has them
        # with margin, so members cannot split what the base classifies
        # uniformly (a split would leave a partial stage sum in some later
        # solve)
        d_plus, d_zero = [sets[j]], [sets[order.order[m]] for m in range(pos)]
        for m in range(pos + 1, k):
            later = sets[order.order[m]]
            vals = base.value(later)
            if (vals >= cfg.margin).all():
                d_plus.append(later)
            elif (vals <= -cfg.margin).all():
                d_zero.append(later)
        count = (n + 1) + (extra_units if pos == 0 else 0)
        bundle = same_classification_bundle(
            base, np.vstack(d_plus), np.vstack(d_zero) if d_zero else None, count, cfg)
        stages.append(ShallowStage(pos, j, base, count, bundle, unit_cursor))
        for h in bundle:
            hidden_rows.append(h.w)
            hidden_biases.append(h.b)
        unit_cursor += count

    # uniformity precondition: every earlier member classifies each later
    # subdomain entirely on one side
    for stage in stages:
        for m in range(stage.position + 1, k):
            later_idx = order.order[m]
            for h in stage.bundle:
                if _uniform_side(h, sets[later_idx]) is None:
                    raise UniformityError(
                        f"stage {stage.position} hyperplane splits subdomain {later_idx}",
                        subdomain=later_idx,
                        hyperplane=h,
                    )

    hidden = Layer(np.array(hidden_rows), np.array(hidden_biases), "relu")
    width = hidden.units

    mu = pwl.output_dim
    out_W = np.zeros((mu, width))
    out_b = np.zeros(mu)
    rank_audits = []
    for rho in range(mu):
        beta = 0.0
        solved = {}  # unit index -> output weight
        for stage in stages:
            amap = maps[stage.subdomain]
            target_w = amap.W[rho]
            target_b = float(amap.b[rho])
            probe = sets[stage.subdomain][0]
            rhs = np.concatenate([target_w, [target_b]])
            for u, alpha_u in solved.items():
                h_u = hidden.hyperplane(u)
                if float(h_u.value(probe)) > ACTIVATION_TOL:
                    rhs = rhs - alpha_u * np.concatenate([h_u.w, [h_u.b]])
            M = np.vstack([
                np.column_stack([h.w for h in stage.bundle]),
                np.array([[h.b for h in stage.bundle]]),
            ])
            # re-express the bias row at the stage centroid: same solution,
            # tighter conditioning for data away from the origin
            centroid = sets[stage.subdomain].mean(axis=0)
            M_c = M.copy()
            M_c[n] += centroid @ M[:n]
            rhs_c = rhs.copy()
            rhs_c[n] += float(centroid @ rhs[:n])
            if relu_output and stage.position == 0:
                # bias unknown appended: it only feeds the constant row
                aug = np.hstack([M_c, np.eye(n + 1)[:, -1:]])
                sol = solve_constrained(aug, rhs_c, "least_norm_underdetermined")
                alpha, beta = sol[:-1], float(sol[-1])
            else:
                if relu_output:
                    rhs_c = rhs_c - beta * np.eye(n + 1)[-1]
                mode = ("exact_square" if M.shape[1] == n + 1
                        else "least_norm_underdetermined")
                rank = numeric_rank(M)
                if rank < n + 1:
                    raise RankDeficientError(
                        f"stage {stage.position} matrix rank {rank} < {n + 1}",
                        rank=rank,
                    )
                alpha = solve_constrained(M_c, rhs_c, mode)
            if rho == 0:
                rank_audits.append({
                    "stage": stage.position,
                    "columns": M.shape[1],
                    "rank": int(numeric_rank(M)),
                })
            for offset, a in enumerate(alpha):
                solved[stage.unit_start + offset] = float(a)
        for u, a in solved.items():
            out_W[rho, u] = a
        out_b[rho] = beta

    out_layer = Layer(out_W, out_b, "relu" if relu_output else "linear")
    net = Network(n, (hidden, out_layer))

    # residual + activation audits; a relu output layer clamps negative
    # target preactivations to zero by design
    X = pwl.all_points()
    Y = pwl.all_targets()
    if relu_output:
        Y = np.maximum(Y, 0.0)
    out = forward_batch(net, X)
    max_residual = float(np.max(np.abs(out - Y)))

    activation_audits = []
    claims_ok = True
    Z = X @ hidden.weights.T + hidden.biases
    row = 0
    set_rows = {}
    for j, pts in enumerate(sets):
        set_rows[j] = slice(row, row + pts.shape[0])
        row += pts.shape[0]
    for pos, j in enumerate(order.order):
        active = Z[set_rows[j]] > ACTIVATION_TOL
        for stage in stages:
            cols = slice(stage.unit_start, stage.unit_start + stage.count)
            block = active[:, cols]
            expected = None
            if stage.position == pos:
                expected = True
            elif stage.position > pos:
                expected = False
            if expected is not None and not (block == expected).all():
                claims_ok = False
        activation_audits.append({
            "subdomain": int(j),
            "position": pos,
            "active_units": [int(u) for u in np.flatnonzero(active.all(axis=0))],
        })

    report = ConstructionReport(
        architecture=net.architecture(),
        max_residual=max_residual,
        activation_audits=activation_audits,
        rank_audits=rank_audits,
        traces=list(trace),
        seed=seed,
        wall_clock=time.monotonic() - t_start,
        tolerances={
            "activation_tol": ACTIVATION_TOL,
            "margin": cfg.margin,
            "rank_tol": RANK_TOL,
            "note": "preactivations in (0, activation_tol] count as zero output",
        },
        plan=_shallow_plan(pwl, order, stages, seed, relu_output, extra_units),
    )
    if not claims_ok:
        report.traces.append({"event": "activation_claim_mismatch"})
    build = ShallowBuild(net, pwl, order, stages, cfg, seed, relu_output, report)
    if max_residual > 1e-8:
        raise RuntimeError(f"synthesis residual {max_residual:.3g} above 1e-8")
    if not claims_ok:
        raise RuntimeError("hidden-layer activation audit failed")
    return build


def _shallow_plan(pwl, order, stages, seed, relu_output, extra_units):
    return {
        "kind": "shallow",
        "pwl": pwl.to_json_dict(),
        "order": [int(j) for j in order.order],
        "hyperplanes": [{"w": h.w.tolist(), "b": h.b} for h in order.hyperplanes],
        "seed": seed,
        "relu_output": relu_output,
        "extra_units": extra_units,
    }


def rebuild_from_plan(plan, cfg=None, extra_units=None):
    """Re-run a staircase synthesis recorded in a report's plan."""
    if plan["kind"] != "shallow":
        raise ValueError("not a three-layer synthesis plan")
    pwl = DiscretePWL.from_json_dict(plan["pwl"])
    hps = tuple(Hyperplane(np.array(h["w"]), h["b"]) for h in plan["hyperplanes"])
    order = DistinguishableOrder(tuple(plan["order"]), hps)
    return build_staircase(
        pwl,
        order=order,
        cfg=cfg,
        seed=plan["seed"],
        extra_units=plan["extra_units"] if extra_units is None else extra_units,
        relu_output=plan["relu_output"],
    )


def _singleton_decomposition(pwl):
    """Split every subdomain into single points carrying constant targets."""
    subs = []
    for pts, amap in pwl.subdomains:
        for p in pts:
            subs.append((p[None, :], AffineMap.constant(amap.apply(p), pwl.dim)))
    return DiscretePWL(pwl.dim, pwl.output_dim, tuple(subs))


def synth_two_subdomains(pwl, cfg=None, seed=0):
    """Two subdomains, one strictly separable from the other.

    The first subdomain's bundle keeps everything on its plus side; the
    second bundle activates only on the second subdomain, so its solve
    cannot disturb the first.  Hidden width is exactly 2 (dim + 1).
    """
    cfg = cfg or BundleConfig()
    if len(pwl.subdomains) != 2:
        raise ValueError("expected exactly two subdomains")
    if pwl.output_dim != 1:
        raise ValueError("single-output route; use synth_multi_output")
    D1, D2 = pwl.subdomains[0][0], pwl.subdomains[1][0]
    res = separate(D2, D1)
    if not res.separable:
        raise GeometryError(
            "subdomains are not strictly separable; decompose into points "
            "and use synth_interpolate instead"
        )
    l2 = res.hyperplane
    l1 = supporting_hyperplane(np.vstack([D1, D2]), direction=l2.w)
    order = DistinguishableOrder((0, 1), (l1, l2))
    return build_staircase(pwl, order=order, cfg=cfg, seed=seed).network


def interpolation_build(points, values, cfg=None, seed=0, extra_units=0):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.ndim == 1:
        values = values[:, None]
    if points.shape[0] != values.shape[0]:
        raise ValueError("need one value row per point")
    seen = {}
    keep = []
    for i, p in enumerate(points):
        key = tuple(p.round(decimals=12))
        if key in seen:
            if not np.allclose(values[seen[key]], values[i]):
                raise ValueError(f"duplicate x with conflicting values at row {i}")
            continue
        seen[key] = i
        keep.append(i)
    points, values = points[keep], values[keep]
    subs = tuple(
        (p[None, :], AffineMap.constant(v, points.shape[1]))
        for p, v in zip(points, values)
    )
    pwl = DiscretePWL(points.shape[1], values.shape[1], subs)
    return build_staircase(pwl, cfg=cfg, seed=seed, extra_units=extra_units)


def synth_interpolate(points, values, cfg=None, seed=0, extra_units=0):
    """Exact scalar interpolation of distinct points.

    Decomposes into singleton subdomains with constant targets; the hidden
    width is point count times (dim + 1) plus any extra redundant units.
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.ndim != 1:
        raise ValueError("synth_interpolate takes scalar values")
    return interpolation_build(points, values, cfg, seed, extra_units).network


def multi_output_build(pwl, cfg=None, seed=0, extra_units=0):
    return build_staircase(_singleton_decomposition(pwl), cfg=cfg, seed=seed,
                           extra_units=extra_units)


def synth_multi_output(pwl, cfg=None, seed=0):
    """Vector-valued synthesis: one shared hidden layer, independent output
    units solved per coordinate."""
    return multi_output_build(pwl, cfg, seed).network


def classifier_build(points, labels, categories=None, cfg=None, seed=0):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(labels, dtype=int)
    if labels.shape[0] != points.shape[0]:
        raise ValueError("need one label per point")
    mu = categories if categories is not None else int(labels.max()) + 1
    if not np.all((0 <= labels) & (labels < mu)):
        raise ValueError("labels out of range")
    for c in range(mu):
        if not (labels == c).any():
            raise ValueError(f"category {c} has no points")
    targets = np.where(labels[:, None] == np.arange(mu)[None, :], 1.0, -1.0)
    subs = tuple(
        (p[None, :], AffineMap.constant(t, points.shape[1]))
        for p, t in zip(points, targets)
    )
    pwl = DiscretePWL(points.shape[1], mu, subs)
    return build_staircase(pwl, cfg=cfg, seed=seed, relu_output=True)


def synth_classifier(points, labels, categories=None, cfg=None, seed=0):
    """Multi-category classifier with ReLU output units.

    Each output unit's preactivation is driven to +1 on its own category
    and -1 elsewhere, so outputs are strictly positive exactly on the
    category and clamp to zero everywhere else.
    """
    return classifier_build(points, labels, categories, cfg, seed).network


def resolve_output_unit(build, unit, new_targets):
    """Re-solve one output unit against fresh per-subdomain targets.

    Every other output row is reused as-is, byte for byte; this is the
    parameter-sharing property of the shared hidden layer.
    """
    pwl = build.pwl
    if not 0 <= unit < pwl.output_dim:
        raise ValueError("output unit out of range")
    new_targets = np.asarray(new_targets, dtype=float)
    if new_targets.shape[0] != len(pwl.subdomains):
        raise ValueError("need one target per subdomain")
    subs = []
    for i, (pts, amap) in enumerate(pwl.subdomains):
        b = amap.b.copy()
        b[unit] = new_targets[i]
        subs.append((pts, AffineMap(amap.W, b)))
    new_pwl = DiscretePWL(pwl.dim, pwl.output_dim, tuple(subs))
    fresh = build_staircase(new_pwl, order=build.order, cfg=build.cfg,
                            seed=build.seed, relu_output=build.relu_output)
    hidden = build.network.layers[0]
    old_out = build.network.layers[1]
    new_out_row = fresh.network.layers[1].weights[unit]
    W = old_out.weights.copy()
    W[unit] = new_out_row
    b = old_out.biases.copy()
    b[unit] = fresh.network.layers[1].biases[unit]
    out = Layer(W, b, old_out.activation)
    return Network(build.network.input_dim, (hidden, out))
