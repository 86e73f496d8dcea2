"""Three-layer synthesis.

The staircase engine: give each subdomain, in distinguishable order, a
full-rank bundle of dim+1 hyperplanes, then solve output weights stage by
stage.  Because every earlier subdomain sits on the zero side of later
bundles, each stage's solve matches the target coefficients exactly
without disturbing what came before.  That solve is the deep output
layer's too: ``core.shifted_systems`` moves each stage's bias row to its
centroid and ranks the stages solved exactly, and ``core.match`` solves
each stage against the target less the earlier units' contributions.

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
    AffineMap,
    DiscretePWL,
    Hyperplane,
    Layer,
    Network,
    _activate,
    distinct_points,
    match,
    shifted_systems,
    supporting_hyperplane,
)
from .bundles import BundleConfig, families
from .ordering import DistinguishableOrder, projection_order, separate
from .report import BuildFailure, ConstructionReport, build_tolerances, check_exact


class GeometryError(ValueError):
    """The requested construction's geometric precondition failed."""


class UniformityError(ValueError):
    """An earlier bundle hyperplane splits a later subdomain."""

    def __init__(self, message, subdomain, hyperplane):
        super().__init__(message)
        self.subdomain = subdomain
        self.hyperplane = hyperplane


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
    the bases.  One ``bundles.families`` call then builds every stage's
    bundle: it checks the base and member margins and ranks the stage
    matrices, one batched SVD per stack of equal width.  A base's margins
    cover its own set on the plus side and every earlier set on the zero
    side, so they are the staircase check: a supplied order that breaks a
    position raises ``MarginError`` naming the stage, its subdomain, the
    point and the margin.  The product of the points with the hidden layer
    that it returns also serves the uniformity check, the activation audit
    and the solves' contributions from earlier units.  One
    ``core.shifted_systems`` call per stack shifts the stage matrices and
    ranks the square ones with one more batched SVD, and each stage is one
    ``core.match`` call.
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
    elif sorted(order.order) != list(range(len(sets))):  # the residual reads their rows
        raise ValueError(f"order {list(order.order)} is not a permutation of the subdomains")
    ordered = [sets[j] for j in order.order]

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
    # point order
    stage_of, col = np.nonzero(np.hstack([plus[:, row_pos], zero[:, row_pos]]))
    N = len(X)
    counts = np.full(k, n + 1)
    counts[0] += extra_units
    unit_start = np.cumsum(counts) - counts
    # the stage matrix, its bundle's stacked (w, b) columns, is ranked once:
    # as bundle, stage and audit check
    params, rank, sigma_min, Z = families(
        X, col % N, np.where(col < N, 1.0, -1.0), stage_of, base_W, base_b, counts, None,
        cfg.margin, lambda s: (f"stage {s} (subdomain {subdomain[s]})", int(s), int(subdomain[s])))
    rank_audits = [{"stage": pos, "columns": int(counts[pos]), "rank": int(rank[pos]),
                    "sigma_min": float(sigma_min[pos])} for pos in positions.tolist()]
    stages = [ShallowStage(pos, int(j), bases[pos], int(counts[pos]),
                           params[unit_start[pos]:unit_start[pos] + counts[pos]],
                           int(unit_start[pos]))
              for pos, j in enumerate(subdomain)]

    hidden = Layer(params[:, :n].copy(), params[:, n].copy(), "relu")
    unit_stage = np.repeat(positions, counts)
    low = np.minimum.reduceat(Z, starts, axis=0)     # per set and unit
    high = np.maximum.reduceat(Z, starts, axis=0)

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

    # the solves match coefficients with each bias row moved to the stage
    # centroid (``core.shifted_systems``); stages of equal width stack:
    # stage 0 alone when extra units widen it
    centroids = X[starts]    # a singleton's mean is its point, bit for bit
    for m in np.flatnonzero(sizes > 1):
        centroids[m] = ordered[m].mean(axis=0)
    square = counts == n + 1
    square[0] &= not relu_output    # its bias unknown makes it wide
    groups = [slice(0, k)] if extra_units == 0 or k == 1 else [slice(0, 1), slice(1, k)]
    bounds = np.append(unit_start, len(params))
    shifted = []
    for g in groups:
        shifted.extend(shifted_systems(
            params[bounds[g.start]:bounds[g.stop]].reshape(-1, counts[g.start], n + 1)
            .transpose(0, 2, 1), centroids[g], square[g],
            lambda j: f"stage {g.start + j} (subdomain {subdomain[g.start + j]})"))
    if relu_output:
        # bias unknown appended: it only feeds the constant row
        shifted[0] = np.hstack([shifted[0], np.eye(n + 1)[:, -1:]])

    mu = pwl.output_dim
    out_W = np.zeros((mu, hidden.units))
    out_b = np.zeros(mu)    # a relu output's bias, solved in the first stage
    for pos in positions.tolist():
        cols = slice(unit_start[pos], unit_start[pos] + counts[pos])
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
        sol = match(shifted[pos], rhs)
        if relu_output and pos == 0:
            out_W[:, cols], out_b[:] = sol[:, :-1], sol[:, -1]
        else:
            out_W[:, cols] = sol

    out_layer = Layer(out_W, out_b, "relu" if relu_output else "linear")
    net = Network(n, (hidden, out_layer))

    # residual + activation audits; a relu output layer clamps negative
    # target preactivations to zero by design.  The output layer reads Z
    # with its rows in the pwl's point order, so that each output rounds
    # as in a forward pass over all the points
    Y = pwl.all_targets()
    if relu_output:
        Y = np.maximum(Y, 0.0)
    H = _activate(hidden, Z[np.argsort(subdomain[row_pos], kind="stable")])[0]
    out = _activate(out_layer, out_layer.preactivation(H))[0]
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
        tolerances=build_tolerances(cfg.margin),
        plan=_shallow_plan(pwl, order, stages, seed, relu_output, extra_units),
    )
    build = ShallowBuild(net, pwl, order, stages, cfg, seed, relu_output, report)
    check_exact(report)
    if not claims_ok:
        raise BuildFailure("hidden-layer activation audit failed", report)
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
    try:
        if plan["kind"] != "shallow":
            raise ValueError("not a three-layer synthesis plan")
        pwl = DiscretePWL.from_json_dict(plan["pwl"])
        hps = tuple(Hyperplane(np.array(h["w"]), h["b"]) for h in plan["hyperplanes"])
        order = DistinguishableOrder(tuple(plan["order"]), hps)
        if sorted(order.order) != list(range(len(pwl.subdomains))):
            raise ValueError(f"malformed synthesis plan: order {list(order.order)} is not "
                             f"a permutation of the {len(pwl.subdomains)} subdomains")
        if len(hps) != len(order.order):
            raise ValueError(f"malformed synthesis plan: {len(hps)} hyperplanes for "
                             f"{len(order.order)} order entries")
        seed, relu_output = plan["seed"], plan["relu_output"]
        if extra_units is None:
            extra_units = plan["extra_units"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed synthesis plan: {exc}") from exc
    return build_staircase(pwl, order=order, cfg=cfg, seed=seed,
                           extra_units=extra_units, relu_output=relu_output)


def _singleton_decomposition(pwl):
    """Split every subdomain into single points carrying constant targets.

    Each target is its own point's ``amap.apply``: one stacked apply could
    round differently."""
    return DiscretePWL.singletons(pwl.all_points(), [
        amap.apply(p) for pts, amap in pwl.subdomains for p in pts])


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
    points, values = distinct_points(points, values)
    return build_staircase(DiscretePWL.singletons(points, values), cfg=cfg, seed=seed,
                           extra_units=extra_units)


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


def classifier_build(points, labels, cfg=None, seed=0):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(labels, dtype=int)
    if labels.shape[0] != points.shape[0]:
        raise ValueError("need one label per point")
    if (labels < 0).any():
        raise ValueError("labels out of range")
    mu = int(labels.max()) + 1
    for c in range(mu):
        if not (labels == c).any():
            raise ValueError(f"category {c} has no points")
    targets = np.where(labels[:, None] == np.arange(mu)[None, :], 1.0, -1.0)
    return build_staircase(DiscretePWL.singletons(points, targets), cfg=cfg, seed=seed,
                           relu_output=True)


def synth_classifier(points, labels, cfg=None, seed=0):
    """Multi-category classifier with ReLU output units.

    Labels are 0, 1, ..., max label, each with at least one point.  Each
    output unit's preactivation is driven to +1 on its own category and -1
    elsewhere, so outputs are strictly positive exactly on the category and
    clamp to zero everywhere else.
    """
    return classifier_build(points, labels, cfg, seed).network


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
