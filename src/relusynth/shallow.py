"""Three-layer synthesis.

The staircase engine: give each subdomain, in distinguishable order, a
full-rank bundle of dim+1 hyperplanes, then solve output weights stage by
stage.  Because every earlier subdomain sits on the zero side of later
bundles, each stage's solve matches the target coefficients exactly
without disturbing what came before.

Builds order their singleton points along one seeded direction
(``ordering.projection_order``), which takes one LP per point after the
first, rather than by the paper's maximum hyperplanes.  A supplied order,
such as a report's plan, is used as given.
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
from .bundles import BundleConfig, MarginError, axis_family
from .ordering import DistinguishableOrder, check_distinguishable, projection_order, separate
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
    params: np.ndarray       # (count, dim + 1): the base's (w, b), then each member's
    unit_start: int

    @property
    def bundle(self):
        """The base itself, then one hyperplane per member row."""
        n = self.base.dim
        return [self.base] + [Hyperplane(p[:n], p[n]) for p in self.params[1:]]


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


def _stage_margin_error(what, pos, subdomain, margin, floor, point):
    return MarginError(
        f"stage {pos} (subdomain {subdomain}): {what} margin {margin:.3g} at point "
        f"{np.round(point, 6).tolist()} is below the required {floor:.3g}",
        point=point, margin=margin, stage=pos, subdomain=subdomain)


def _stage_ranks(s, n, what, stage_ids, subdomain):
    """Numeric ranks from a stack's singular values (one row per stage);
    raises RankDeficientError naming the first stage below rank n + 1."""
    rank = (s > RANK_TOL * s[:, :1]).sum(axis=1)
    low = np.flatnonzero(rank < n + 1)
    if low.size:
        pos = int(stage_ids[low[0]])
        raise RankDeficientError(
            f"stage {pos} (subdomain {subdomain[pos]}): {what} rank {rank[low[0]]} < {n + 1}",
            rank=int(rank[low[0]]))
    return rank


def build_staircase(pwl, order=None, cfg=None, seed=0, extra_units=0,
                    relu_output=False):
    """Staircase synthesis engine shared by every three-layer route.

    ``pwl`` supplies the subdomains and their affine targets; when no
    ``order`` is supplied, the singletons are ordered along a direction
    drawn from ``seed`` (``projection_order``, k - 1 LPs).  Every output
    dimension is solved independently against the shared hidden layer.
    With ``relu_output`` the output units are ReLUs with a bias unknown
    folded into the first stage's solve.

    All k stages are built in one stacked pass.  Which later sets each base
    holds with margin is read from one product of the ordered points with
    the bases.  Each base's margins on its conditioning rows take their own
    product, since they set its family's steps; the families are one
    ``axis_family`` stack.  The member margins, the uniformity check, the
    activation audit and the solves' contributions from earlier units read
    one product with the hidden layer.  The stage matrices, and their
    centroid-shifted copies, are ranked by one batched SVD per stack of
    equal width, and each output of each stage is one direct solve.
    """
    t_start = time.monotonic()
    if extra_units < 0:
        raise ValueError(f"extra_units must be non-negative, got {extra_units}")
    cfg = cfg or BundleConfig()
    n = pwl.dim
    sets = [pts for pts, _ in pwl.subdomains]
    maps = [amap for _, amap in pwl.subdomains]

    if order is None:
        order = projection_order(sets, seed=seed)
    ordered = [sets[j] for j in order.order]
    ok, failures = check_distinguishable(ordered, order.hyperplanes, cfg.margin)
    if not ok:
        raise GeometryError(f"order fails the staircase check: {failures}")

    k = len(order.order)
    subdomain = np.asarray(order.order)
    X = np.vstack(ordered)
    sizes = np.array([len(pts) for pts in ordered])
    starts = np.cumsum(sizes) - sizes
    row_pos = np.repeat(np.arange(k), sizes)    # position of each row's set
    positions = np.arange(k)
    bases = order.hyperplanes
    base_W = np.array([h.w for h in bases])
    base_b = np.array([h.b for h in bases])

    # keep later subdomains on whichever side the base already has them
    # with margin, so members cannot split what the base classifies
    # uniformly (a split would leave a partial stage sum in some later
    # solve); plus[s, m] / zero[s, m]: stage s's bundle holds set m on
    # that side
    V = X @ base_W.T + base_b
    later = positions[None, :] > positions[:, None]
    plus = np.eye(k, dtype=bool) | (later & (np.minimum.reduceat(V, starts, axis=0)
                                             >= cfg.margin).T)
    zero = later.T | (later & (np.maximum.reduceat(V, starts, axis=0) <= -cfg.margin).T)

    # each stage's conditioning rows, its plus rows then its zero rows in
    # point order, gathered once; each base's margins are one product over
    # its own rows, so their rounding is that of the base alone
    stage_of, col = np.nonzero(np.hstack([plus[:, row_pos], zero[:, row_pos]]))
    N = len(X)
    rows = col % N
    signs = np.where(col < N, 1.0, -1.0)
    offsets = np.searchsorted(stage_of, positions)
    G = X[rows]
    ends = np.append(offsets[1:], len(G))
    margins = signs * (np.concatenate([G[a:e] @ h.w for a, e, h in zip(offsets, ends, bases)])
                       + base_b[stage_of])
    if margins.min() < cfg.margin:
        s = stage_of[np.argmax(margins < cfg.margin)]
        i = offsets[s] + np.argmin(margins[offsets[s]:ends[s]])
        raise _stage_margin_error("base hyperplane", int(s), int(subdomain[s]),
                                  float(margins[i]), cfg.margin, G[i])
    worst = np.minimum.reduceat(margins, offsets)
    reach = np.maximum.reduceat(np.abs(G), offsets, axis=0)

    counts = np.full(k, n + 1)
    counts[0] += extra_units
    unit_start = np.cumsum(counts) - counts
    # stages of equal width stack: stage 0 alone when extra units widen it
    groups = [slice(0, k)] if extra_units == 0 or k == 1 else [slice(0, 1), slice(1, k)]
    families = [axis_family(base_W[g], base_b[g], counts[g.start], worst[g], reach[g])
                for g in groups]
    params = np.concatenate([f.reshape(-1, n + 1) for f in families])
    stages = [ShallowStage(pos, int(j), bases[pos], int(counts[pos]),
                           params[unit_start[pos]:unit_start[pos] + counts[pos]],
                           int(unit_start[pos]))
              for pos, j in enumerate(subdomain)]

    hidden = Layer(params[:, :n].copy(), params[:, n].copy(), "relu")
    unit_stage = np.repeat(positions, counts)
    Z = hidden.preactivation(X)
    low = np.minimum.reduceat(Z, starts, axis=0)     # per set and unit
    high = np.maximum.reduceat(Z, starts, axis=0)

    # every member keeps its base's sides on the sets the base conditions
    floor = cfg.margin / 2.0
    member = np.ones(len(unit_stage), dtype=bool)
    member[unit_start] = False
    bad = (plus[unit_stage] & (low.T < floor)) | (zero[unit_stage] & (-high.T < floor))
    bad &= member[:, None]
    if bad.any():
        u, m = np.argwhere(bad)[0]
        s = unit_stage[u]
        set_rows = slice(starts[m], starts[m] + sizes[m])
        if plus[s, m]:
            i = starts[m] + np.argmin(Z[set_rows, u])
            margin = Z[i, u]
        else:
            i = starts[m] + np.argmax(Z[set_rows, u])
            margin = 0.0 - Z[i, u]
        raise _stage_margin_error(f"family member {u - unit_start[s]}", int(s),
                                  int(subdomain[s]), float(margin), floor, X[i])

    # one rank per stage matrix, the stacked (w, b) columns of its bundle:
    # it serves as bundle, stage and audit check
    stage_M = [np.ascontiguousarray(f.transpose(0, 2, 1)) for f in families]
    sv = [np.linalg.svd(M, compute_uv=False) for M in stage_M]
    rank = np.concatenate([_stage_ranks(s, n, "matrix", positions[g], subdomain)
                           for s, g in zip(sv, groups)])
    sigma_min = np.concatenate([s[:, -1] / s[:, 0] for s in sv])
    rank_audits = [{"stage": pos, "columns": int(counts[pos]), "rank": int(rank[pos]),
                    "sigma_min": float(sigma_min[pos])} for pos in positions.tolist()]

    # uniformity precondition: every earlier member classifies each later
    # subdomain entirely on one side
    split = (low <= ACTIVATION_TOL) & (high > ACTIVATION_TOL)
    split &= positions[:, None] > unit_stage[None, :]
    if split.any():
        m, u = np.nonzero(split)
        first = np.lexsort((u, m, unit_stage[u]))[0]
        stage = stages[unit_stage[u[first]]]
        raise UniformityError(
            f"stage {stage.position} hyperplane splits subdomain {subdomain[m[first]]}",
            subdomain=int(subdomain[m[first]]),
            hyperplane=stage.bundle[u[first] - stage.unit_start],
        )

    # the bias row is re-expressed at the stage centroid for the solves:
    # same solution, tighter conditioning for data away from the origin;
    # a square stage is solved exactly once its shifted copy is ranked
    centroids = X[starts]    # a singleton's mean is its point, bit for bit
    for m in np.flatnonzero(sizes > 1):
        centroids[m] = ordered[m].mean(axis=0)
    shifted = []
    for g, M in zip(groups, stage_M):
        M_c = M.copy()
        M_c[:, n] += np.matmul(centroids[g, None, :], M[:, :n])[:, 0]
        shifted.extend(M_c)
    square = counts == n + 1
    if relu_output:
        # bias unknown appended: it only feeds the constant row
        shifted[0] = np.hstack([shifted[0], np.eye(n + 1)[:, -1:]])
        square[0] = False
    if square.any():
        sq = np.flatnonzero(square)
        _stage_ranks(np.linalg.svd(np.stack([shifted[s] for s in sq]), compute_uv=False),
                     n, "centroid-shifted matrix", sq, subdomain)

    mu = pwl.output_dim
    out_W = np.zeros((mu, hidden.units))
    out_b = np.zeros(mu)    # a relu output's bias, solved in the first stage
    for pos in positions.tolist():
        cols = slice(unit_start[pos], unit_start[pos] + counts[pos])
        A = shifted[pos]
        centroid = centroids[pos]
        # units of earlier stages active at the stage's first point
        active = np.flatnonzero(Z[starts[pos], : unit_start[pos]] > ACTIVATION_TOL)
        amap = maps[subdomain[pos]]
        rhs = np.column_stack([amap.W, amap.b])    # one row per output
        if active.size:
            # one unit at a time, in unit order, so the rounding is that of
            # a loop over the units
            rhs = np.subtract.reduce(np.concatenate([
                rhs[None], out_W[:, active].T[:, :, None] * params[active][:, None, :]]),
                axis=0)
        rhs[:, n] += [float(centroid @ r[:n]) for r in rhs]
        rhs[:, n] -= out_b
        if square[pos]:
            # one right-hand side per LAPACK solve, one refinement step, as
            # in solve_constrained
            rhs = rhs[:, :, None]
            sol = np.linalg.solve(A, rhs)
            sol += np.linalg.solve(A, rhs - A @ sol)
            out_W[:, cols] = sol[:, :, 0]
        else:
            sol = np.array([solve_constrained(A, r, "least_norm_underdetermined")
                            for r in rhs])
            if relu_output and pos == 0:
                out_W[:, cols], out_b[:] = sol[:, :-1], sol[:, -1]
            else:
                out_W[:, cols] = sol

    out_layer = Layer(out_W, out_b, "relu" if relu_output else "linear")
    net = Network(n, (hidden, out_layer))

    # residual + activation audits; a relu output layer clamps negative
    # target preactivations to zero by design
    Y = pwl.all_targets()
    if relu_output:
        Y = np.maximum(Y, 0.0)
    out = forward_batch(net, pwl.all_points())
    max_residual = float(np.max(np.abs(out - Y)))

    # each position's own units are active on all its points, and every
    # later stage's units are dark on all of them
    all_active = low > ACTIVATION_TOL
    claims_ok = bool(
        all_active[unit_stage[None, :] == positions[:, None]].all()
        and not (high > ACTIVATION_TOL)[unit_stage[None, :] > positions[:, None]].any())
    activation_audits = [
        {"subdomain": int(j), "position": pos,
         "active_units": np.flatnonzero(all_active[pos]).tolist()}
        for pos, j in enumerate(order.order)
    ]

    report = ConstructionReport(
        architecture=net.architecture(),
        max_residual=max_residual,
        activation_audits=activation_audits,
        rank_audits=rank_audits,
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
