"""Deep synthesis by recursive region dividing.

The partition tree splits each group by its most balanced direction cut,
certified by a max-margin LP that also sets the separator: k - 1 LPs for k
subdomains, and depth ceil(log2 k) when every group has a cut into halves.
Groups that no cut separates are refined to singletons.  The tree is grown
depth first; a cut too wide for an LP to reject waits, and the wide cuts
are certified one batch of LPs per tree level once the tree is whole.

Each tree level becomes one hidden layer: groups being split get a pair of
reversed-side bundles, groups already isolated get pass-through blocks,
and every new unit receives interference weights on the other groups'
exclusive dimensions so it stays dark for them.  The last hidden layer
gives each leaf a full-rank bundle of dim+1 units and the linear output
layer solves each leaf's affine target independently.

Each layer is built and audited in one stacked pass, not group by group,
on one array: the previous layer's outputs on every point, in input row
order.  Its bundles come from one ``bundles.families`` call, which checks
their margins and ranks and that each pass-through family's anchor lies
on its base and the family meets there; their lift from one batched
inverse of the groups' frames, the interference weights from one block
solve over the groups' rows of the array, and the audit from one product
with it, whose ReLU step gives the next layer's array.  So the audits and
the residual check examine the network that ships.  Each block's frame
residual is recorded, not gated.  Ranks come from three batched SVDs per
layer.  The output layer is the shallow stages' coefficient-matching
solve: one ``core.shifted_systems`` and one ``core.match`` call per stack
of equal-width leaves.  Rows keep their own matrix-vector products where
a matrix product would round differently, so the networks are the same
bytes as a group-by-group loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    ACTIVATION_TOL,
    DiscretePWL,
    Hyperplane,
    Layer,
    Network,
    _activate,
    distinct_points,
    match,
    point_key,
    ranked,
    shifted_systems,
)
from .bundles import BundleConfig, anchored_base, families
from .ordering import SEPARABLE_THRESHOLD, separate, separate_many
from .affine import interference_avoiding_weights
from .report import BuildFailure, ConstructionReport, build_tolerances, check_exact

__all__ = [
    "PartitionTree",
    "TreeNode",
    "DeepBuild",
    "build_partition_tree",
    "deep_build",
    "decoder_build",
]


# seeded random directions each group tries, besides its axes and principal axes
DIRECTION_TRIES = 40


class PartitionError(ValueError):
    """No separable bipartition exists and nothing is left to refine."""


@dataclass
class TreeNode:
    leaf: int | None = None
    a: "TreeNode | None" = None
    b: "TreeNode | None" = None
    separator: Hyperplane | None = None

    def is_leaf(self):
        return self.leaf is not None

    def leaves(self):
        if self.is_leaf():
            return [self.leaf]
        return self.a.leaves() + self.b.leaves()

    def to_json_dict(self):
        if self.is_leaf():
            return {"leaf": self.leaf}
        return {
            "a": self.a.to_json_dict(),
            "b": self.b.to_json_dict(),
            "separator": {"w": self.separator.w.tolist(), "b": self.separator.b},
        }

    @staticmethod
    def from_json_dict(d):
        if "leaf" in d:
            return TreeNode(leaf=int(d["leaf"]))
        sep = Hyperplane(np.array(d["separator"]["w"]), d["separator"]["b"])
        return TreeNode(a=TreeNode.from_json_dict(d["a"]),
                        b=TreeNode.from_json_dict(d["b"]), separator=sep)


@dataclass
class PartitionTree:
    root: TreeNode
    subdomains: list          # final point sets (refinement may split inputs)
    origin: list              # final index -> original subdomain index


def _grow(sets, rng, wide):
    """Grow one round's tree depth first, in preorder.  Each group draws
    its block of random directions from ``rng`` when the walk reaches it
    and takes its first candidate cut.  A cut with a gap wider than
    ``wide`` is recorded as (node, left, right, gap) under its level for
    ``_certify_levels``; a thinner one, which an LP may reject, has its LP
    solved at once, and a rejected cut gives way to the group's next
    candidate.  Returns the root, the recorded cuts by level and the first
    group with no cut, or None."""
    n = sets[0].shape[1]
    root = TreeNode()
    wide_cuts = {}          # preorder meets the levels in ascending order
    stack = [(tuple(range(len(sets))), root, 0)]
    while stack:
        group, node, level = stack.pop()
        if len(group) == 1:
            node.leaf = group[0]
            continue
        block = rng.normal(size=(DIRECTION_TRIES, n))
        for left, right, gap in _candidate_direction_cuts(sets, group, block):
            if gap > wide:
                wide_cuts.setdefault(level, []).append((node, left, right, gap))
                break
            res = separate(*_sides(sets, left, right))
            if res.separable:
                node.separator = res.hyperplane
                break
        else:
            return root, wide_cuts, group
        node.a, node.b = TreeNode(), TreeNode()
        stack += [(right, node.b, level + 1), (left, node.a, level + 1)]
    return root, wide_cuts, None


def _sides(sets, left, right):
    return np.vstack([sets[i] for i in left]), np.vstack([sets[i] for i in right])


def _certify_levels(sets, origin, wide_cuts, wide):
    """Solve the wide cuts' LPs, one ``separate_many`` batch per tree
    level, so no LP is padded to a shallower level's rows, and set each
    node's separator.  A wide cut's LP optimum is at least ten times the
    separation threshold, so a rejection is a solver fault."""
    for cuts in wide_cuts.values():
        results = separate_many([_sides(sets, left, right) for _, left, right, _ in cuts])
        for (node, left, right, gap), res in zip(cuts, results):
            if not res.separable:
                raise RuntimeError(
                    "separation LP rejected the cut of subdomains "
                    f"{sorted({origin[i] for i in left})} from "
                    f"{sorted({origin[i] for i in right})}: its gap {gap:.3g} "
                    f"exceeds the thin-cut bound {wide:.3g}")
            node.separator = res.hyperplane


def _candidate_direction_cuts(sets, group, directions):
    """Direction-projection splits of a group, most balanced first.

    The directions are the axes, the group's principal axes and the given
    block of random ``directions``.  All points go through one product
    with all unit directions; each set's extent on a direction is a
    segment min and max over its rows, and the gap of every cut along the
    sorted order is the next set's low end minus the running max of the
    high ends so far.  Cuts whose gap is at least 1e-3 of the widest come
    most balanced first (by the smaller side's set count), then by gap,
    largest first; each left side comes once, and cuts are yielded lazily,
    so only the ones tried are built.  A cut is its left and right set
    indices and its gap.
    """
    pts = np.vstack([sets[i] for i in group])
    n = pts.shape[1]
    dirs = [np.eye(n)]
    if pts.shape[0] > 1:
        _, _, vt = np.linalg.svd(pts - pts.mean(axis=0), full_matrices=False)
        dirs.append(vt)
    dirs = np.vstack(dirs + [directions])
    # the same bits as np.linalg.norm row by row; the axis= form is not
    norms = np.sqrt(np.vecdot(dirs, dirs))
    dirs = dirs[norms != 0.0] / norms[norms != 0.0, None]
    proj = pts @ dirs.T
    starts = np.cumsum([0] + [len(sets[i]) for i in group[:-1]])
    lo = np.minimum.reduceat(proj, starts).T        # (directions, sets)
    hi = np.maximum.reduceat(proj, starts).T
    order = np.argsort(lo, axis=1)
    hi_so_far = np.maximum.accumulate(np.take_along_axis(hi, order, axis=1), axis=1)
    gaps = np.take_along_axis(lo, order, axis=1)[:, 1:] - hi_so_far[:, :-1]
    # a cut far thinner than the group's widest gives an ill-conditioned
    # split frame; it waits for a group where no wider cut remains
    k, c = np.nonzero(gaps > max(0.0, 1e-3 * gaps.max()))
    smaller = np.minimum(c + 1, len(group) - c - 1)
    seen = set()
    for i in np.lexsort((-gaps[k, c], -smaller)):
        left = tuple(sorted(group[j] for j in order[k[i], :c[i] + 1]))
        if left not in seen:
            seen.add(left)
            yield (left, tuple(sorted(group[j] for j in order[k[i], c[i] + 1:])),
                   gaps[k[i], c[i]])


def build_partition_tree(subdomains, seed=0):
    """Recursively bipartition subdomains into linearly separable groups.

    Each group is split by its most balanced LP-certified direction cut.
    A round grows the tree depth first from one seeded generator, each
    group drawing its random directions when it is reached, up to the
    first group with no cut.  If there is one, its multi-point subdomains
    are split into single points and the next round starts, the draws
    going on from there; distinct points always separate eventually.
    Otherwise the wide cuts, which no LP rejects, are certified one batch
    of separation LPs per tree level; a thin cut was certified when it was
    reached.  So the tree is the one a depth-first build that certifies
    each cut when it reaches it would draw, for k - 1 LPs.
    """
    sets = [np.atleast_2d(np.asarray(s, dtype=float)) for s in subdomains]
    origin = list(range(len(sets)))
    pts_all = np.vstack(sets)
    if len(np.unique(point_key(pts_all), axis=0)) != pts_all.shape[0]:
        raise ValueError("duplicate points across subdomains")
    # a cut with gap g along unit d is held apart by w = d / |d|_inf, so
    # its LP optimum is at least g / 2; the simplex stops at most about
    # 1e-13 short of it (measured against HiGHS on the trees of 64-512
    # 2-D clusters and the benchmark's LPs), so its LP passes every wider cut
    wide = 20 * SEPARABLE_THRESHOLD * (1.0 + np.abs(pts_all).max())
    rng = np.random.default_rng(seed)
    while True:
        root, wide_cuts, failed = _grow(sets, rng, wide)
        if failed is None:
            _certify_levels(sets, origin, wide_cuts, wide)
            return PartitionTree(root, sets, origin)
        refinable = [i for i in failed if sets[i].shape[0] > 1]
        if not refinable:
            P = np.vstack([sets[i] for i in failed])
            closest = min(np.linalg.norm(P[i + 1:] - P[i], axis=1).min()
                          for i in range(len(P) - 1))
            raise PartitionError(
                "no separable bipartition of subdomains "
                f"{sorted({origin[i] for i in failed})}, even as single "
                f"points; their closest points are {closest:.3g} apart")
        new_sets, new_origin = [], []
        for i, s in enumerate(sets):
            parts = [p[None, :] for p in s] if i in refinable else [s]
            new_sets += parts
            new_origin += [origin[i]] * len(parts)
        sets, origin = new_sets, new_origin


@dataclass
class _Group:
    node: TreeNode
    leaf_ids: list          # the node's leaves, ascending
    rows: np.ndarray        # their points' rows in the root stack, ascending
    points: np.ndarray      # original-coordinate points: those rows
    M: np.ndarray           # frame: x -> block preactivations
    c: np.ndarray
    dims: range             # unit indices of the block in the current layer


@dataclass
class DeepBuild:
    """Synthesized deep network plus the metadata to rebuild it."""

    network: Network
    pwl: DiscretePWL        # final (possibly refined) subdomains with targets
    tree: PartitionTree
    stage_plan: list
    cfg: BundleConfig
    seed: int
    report: ConstructionReport


def _block_name(node, last):
    return f"output leaf {node.leaf}" if last else f"leaves {sorted(node.leaves())}"


class _Bundle(NamedTuple):
    """One bundle a layer adds: the new block's tree node and plan tag, the
    group it lifts into, the base's (w, b), the conditioning rows (plus
    side, zero side), the unit count and, for a pass-through block, the
    common point of its family."""

    node: TreeNode
    tag: dict
    group: int
    w: np.ndarray
    b: float
    plus: np.ndarray
    zero: np.ndarray
    count: int
    anchor: np.ndarray | None


def _layer_bundles(groups, last, extra, rows_of):
    """The bundles one layer adds, in unit order."""
    n = groups[0].points.shape[1]
    none = np.zeros(0, dtype=int)
    bundles = []
    for gi, g in enumerate(groups):
        count = n + (extra if gi == 0 else 0)
        node = g.node
        if last or node.is_leaf():
            # a pass-through block is a common-point family anchored in
            # original coordinates, so frame conditioning does not
            # accumulate with depth; its restriction to the group's embedded
            # subspace still meets in the anchor's image
            base, anchor = anchored_base(g.points)
            tag = {"kind": "output-bundle" if last else "passthrough", "leaf": node.leaf}
            bundles.append(_Bundle(node, tag, gi, base.w, base.b, g.rows, none,
                                   count + 1 if last else count, None if last else anchor))
            continue
        sep = node.separator
        (leaves_a, rows_a), (leaves_b, rows_b) = rows_of(node.a), rows_of(node.b)
        bundles.append(_Bundle(node.a, {"kind": "split", "leaves": leaves_a},
                               gi, sep.w, sep.b, rows_a, rows_b, count, None))
        bundles.append(_Bundle(node.b, {"kind": "split", "leaves": leaves_b},
                               gi, -sep.w, -sep.b, rows_b, rows_a, n, None))
    return bundles


def _build_layer(groups, A, layer_no, last, extra, cfg, rows_of, X):
    """One hidden layer in one stacked pass over ``A``, the previous
    layer's outputs in root row order: every group's bundles, their lift
    into the groups' frames, and the interference weights.  Returns the
    layer, its plan tags, the groups it carries on and each new block's
    bundle rank and sigma_min."""
    n = X.shape[1]
    bundles = _layer_bundles(groups, last, extra, rows_of)
    sides = [rows for u in bundles for rows in (u.plus, u.zero)]
    side_sizes = np.array([len(rows) for rows in sides])
    counts = [u.count for u in bundles]

    def name(j):
        node = bundles[j].node
        return (f"layer {layer_no} ({_block_name(node, last)})", layer_no,
                node.leaf if last else sorted(node.leaves()))

    # for an output bundle the stacked (w, b) columns are the leaf's
    # coefficient-matching matrix, so its rank serves the output layer too
    P, rank, sigma_min, _ = families(
        X, np.concatenate(sides), np.repeat(np.tile([1.0, -1.0], len(bundles)), side_sizes),
        np.repeat(np.arange(len(bundles)), side_sizes[0::2] + side_sizes[1::2]),
        np.array([u.w for u in bundles]), np.array([u.b for u in bundles]), counts,
        [u.anchor for u in bundles], cfg.margin, name)

    # the lift: one inverse per frame, then each row's own matrix-vector
    # product with the transposed inverse and dot product for its bias,
    # stacked; each frame is nonsingular, as the previous layer's audit
    # (or the identity of the input) certified
    unit_group = np.repeat([u.group for u in bundles], counts)
    W_inv = np.linalg.inv(np.array([g.M[:n] for g in groups]))
    w = np.matmul(np.swapaxes(W_inv[unit_group], 1, 2), P[:, :n, None])
    c = np.array([g.c[:n] for g in groups])[unit_group]
    b = P[:, n] - np.matmul(np.swapaxes(w, 1, 2), c[:, :, None])[:, 0, 0]
    W = np.zeros((len(P), A.shape[1]))
    pivots = np.array([g.dims[:n] for g in groups])
    W[np.arange(len(P))[:, None], pivots[unit_group]] = w[:, :, 0]
    if len(groups) > 1:
        # a group's outputs are zero off its own units, as the previous
        # layer's audit certified, so one block solve sets the weight on
        # each group's units for every unit of the layer
        images = [A[g.rows] for g in groups]
        try:
            weights = interference_avoiding_weights(
                W, b, [g.dims for g in groups], images)
        except ValueError as exc:
            bad = [h for h, img in zip(groups, images)
                   if img[:, h.dims.start:h.dims.stop].min() <= ACTIVATION_TOL]
            foreign = sorted((bad or groups)[0].leaf_ids)
            raise ValueError(f"layer {layer_no}, foreign group {foreign}: {exc}") from exc
        owner = np.repeat(np.arange(len(groups)), [len(g.dims) for g in groups])
        W = np.where(unit_group[:, None] == owner[None, :], W, weights[:, owner])

    tags, new_groups = [], []
    start = 0
    for u in bundles:
        leaves, rows = rows_of(u.node)
        p = P[start:start + u.count]
        tags.append(dict(u.tag, units=[start, u.count]))
        new_groups.append(_Group(u.node, leaves, rows, X[rows],
                                 np.ascontiguousarray(p[:, :n]), p[:, n].copy(),
                                 range(start, start + u.count)))
        start += u.count
    return Layer(W, b, "relu"), tags, new_groups, rank, sigma_min


def _audit_layer(layer, layer_no, A, groups, X, cfg, report, fail):
    """Group isolation and affine-transmission checks for one hidden layer.

    ``A`` holds the previous layer's outputs in root row order, so one
    product gives every point's preactivations.  Each block's own minimum
    and foreign maximum are segment reductions of it over the groups'
    rows and units.  Each block's frame residual is recorded, the
    witnesses are ranked by one batched SVD and the blocks' weights by one
    per stack of equal shape.  The audits go to ``report``; a failed check
    calls ``fail`` with its message.  Returns the layer's outputs in root
    row order, by the forward pass's own ReLU step.
    """
    n = X.shape[1]
    W = layer.weights
    Z = layer.preactivation(A)
    sizes = np.array([len(g.rows) for g in groups])
    starts = np.cumsum(sizes) - sizes
    Zg = Z[np.concatenate([g.rows for g in groups])]     # rows in group order
    units = np.array([len(g.dims) for g in groups])
    unit_starts = np.cumsum(units) - units
    lo = np.minimum.reduceat(np.minimum.reduceat(Zg, starts, axis=0), unit_starts, axis=1)
    hi = np.maximum.reduceat(np.maximum.reduceat(Zg, starts, axis=0), unit_starts, axis=1)
    own = np.diagonal(lo).copy()
    np.fill_diagonal(hi, -np.inf)
    foreign = hi.max(axis=0)
    for g, o, f in zip(groups, own.tolist(), foreign.tolist()):
        report.activation_audits.append({
            "layer": layer_no,
            "leaves": [int(i) for i in g.leaf_ids],
            "own_min_preactivation": o,
            "foreign_max_preactivation": f,
        })
    bad_own = own <= cfg.margin / 2.0 - 1e-12
    bad = bad_own | (foreign > -cfg.margin / 2.0)
    if bad.any():
        i = int(np.argmax(bad))
        g = groups[i]
        block = Z[:, g.dims.start:g.dims.stop]
        if bad_own[i]:
            r = g.rows[np.argmin(block[g.rows].min(axis=1))]
            what = f"a group's own preactivation fell to {own[i]:.3g}"
        else:
            others = np.setdiff1d(np.arange(len(Z)), g.rows)
            r = others[np.argmax(block[others].max(axis=1))]
            what = f"foreign preactivation {foreign[i]:.3g} not below -margin/2"
        fail(f"layer {layer_no}: {what} (block of leaves {g.leaf_ids}, "
             f"point {np.round(X[r], 6).tolist()})")

    # the frame residual: how far the block's first n preactivations on its
    # own points are from the witness frame's image of them.  The next
    # layer's lift inverts the frame, so it must be nonsingular
    resid = [float(np.max(np.abs(g.points @ g.M[:n].T + g.c[:n] - Zg[a:a + m, u:u + n])))
             for g, a, m, u in zip(groups, starts, sizes, unit_starts)]
    nonsingular = ranked([g.M[:n] for g in groups])[0] == n
    for g, r, ok in zip(groups, resid, nonsingular.tolist()):
        report.affine_fit_residuals.append({
            "layer": layer_no,
            "leaves": [int(i) for i in g.leaf_ids],
            "residual": r,
            "witness_nonsingular": ok,
        })
    if not nonsingular.all():
        fail(f"layer {layer_no}: witness frame singular (block of leaves "
             f"{groups[int(np.argmin(nonsingular))].leaf_ids})")

    rank = np.zeros(len(groups), dtype=int)
    sigma_min = np.zeros(len(groups))
    for u in dict.fromkeys(units.tolist()):
        idx = np.flatnonzero(units == u)
        rank[idx], sigma_min[idx] = ranked(
            [W[groups[i].dims.start:groups[i].dims.stop] for i in idx])
    ok = rank >= np.minimum(n, units)
    for g, r, good, s in zip(groups, rank.tolist(), ok.tolist(), sigma_min.tolist()):
        report.rank_audits.append({"layer": layer_no,
                                   "leaves": [int(i) for i in g.leaf_ids],
                                   "rank_ok": good, "rank": r, "sigma_min": s})
    if not ok.all():
        i = int(np.argmin(ok))
        fail(f"layer {layer_no}: block weight rank {rank[i]} too low "
             f"(block of leaves {groups[i].leaf_ids})")
    return _activate(layer, Z)[0]


def _build_from_tree(pwl, tree, cfg=None, seed=0, extras=None):
    t_start = time.monotonic()
    cfg = cfg or BundleConfig()
    n = pwl.dim
    mu = pwl.output_dim
    sets = [pts for pts, _ in pwl.subdomains]
    maps = [amap for _, amap in pwl.subdomains]

    # a node's points are its leaves' rows of the root stack, in ascending
    # leaf order
    X = np.vstack(sets)
    bounds = np.cumsum([0] + [len(s) for s in sets])
    node_rows = {}

    def rows_of(node):
        if id(node) not in node_rows:
            leaves = sorted(node.leaves())
            node_rows[id(node)] = (leaves, np.concatenate(
                [np.arange(bounds[i], bounds[i + 1]) for i in leaves]))
        return node_rows[id(node)]

    leaves, rows = rows_of(tree.root)
    groups = [_Group(tree.root, leaves, rows, X, np.eye(n), np.zeros(n), range(n))]
    A = X           # the previous layer's outputs on every point
    layers = []
    stage_plan = []
    report = ConstructionReport(
        seed=seed,
        tolerances=build_tolerances(cfg.margin),
        plan={
            "kind": "deep",
            "pwl": pwl.to_json_dict(),
            "tree": tree.root.to_json_dict(),
            "origin": [int(i) for i in tree.origin],
            "seed": seed,
            "extras": list(extras) if extras is not None else None,
        },
    )

    def fail(message):
        # the report of the layers built so far, with no residual
        report.architecture = Network(n, tuple(layers)).architecture()
        report.wall_clock = time.monotonic() - t_start
        raise BuildFailure(message, report)

    # one layer per tree level, then the last hidden layer: one full-rank
    # bundle per leaf
    last = False
    while not last:
        last = all(g.node.is_leaf() for g in groups)
        layer_no = len(layers) + 1
        extra = int(extras[len(layers)]) if extras and len(layers) < len(extras) else 0
        layer, tags, groups, rank, sigma_min = _build_layer(
            groups, A, layer_no, last, extra, cfg, rows_of, X)
        layers.append(layer)
        stage_plan.append(tags)
        A = _audit_layer(layer, layer_no, A, groups, X, cfg, report, fail)

    # output layer: per-leaf coefficient match, independent per coordinate.
    # A leaf's matrix is its output bundle's stacked (w, b) columns, ranked
    # when the bundle was built; ``core.shifted_systems`` moves its bias
    # row to the leaf centroid and ranks it again if it is square.
    for g, r, s in zip(groups, rank.tolist(), sigma_min.tolist()):
        report.rank_audits.append({"layer": "output", "leaf": int(g.node.leaf),
                                   "columns": len(g.dims), "rank": r, "sigma_min": s})
    out_W = np.zeros((mu, A.shape[1]))
    units = np.array([len(g.dims) for g in groups])
    for u in dict.fromkeys(units.tolist()):
        leaves = [groups[i] for i in np.flatnonzero(units == u)]
        # a singleton's mean is its point, bit for bit
        centroids = np.array([g.points[0] if len(g.rows) == 1 else g.points.mean(axis=0)
                              for g in leaves])
        M_c = shifted_systems(
            np.concatenate([np.swapaxes(np.array([g.M for g in leaves]), 1, 2),
                            np.array([g.c for g in leaves])[:, None, :]], axis=1),
            centroids, np.full(len(leaves), u == n + 1),
            lambda j: f"output layer (leaf {leaves[j].node.leaf})")
        rhs = np.array([np.column_stack([maps[g.node.leaf].W, maps[g.node.leaf].b])
                        for g in leaves])           # (leaves, outputs, n + 1)
        rhs[..., n] += np.matmul(centroids[:, None, None, :], rhs[..., :n, None])[..., 0, 0]
        for g, x in zip(leaves, match(M_c, rhs)):
            out_W[:, g.dims.start:g.dims.stop] = x
    layers.append(Layer(out_W, np.zeros(mu), "linear"))

    net = Network(n, tuple(layers))
    widths = [l.units for l in layers[:-1]]
    if any(b < a for a, b in zip(widths, widths[1:])):
        fail(f"hidden widths decreased: {widths}")

    # the output layer on the last hidden layer's outputs is the forward pass
    report.architecture = net.architecture()
    report.max_residual = float(np.max(np.abs(layers[-1].preactivation(A) - pwl.all_targets())))
    report.wall_clock = time.monotonic() - t_start
    build = DeepBuild(net, pwl, tree, stage_plan, cfg, seed, report)
    check_exact(report)
    return build


def _final_pwl(pwl, tree):
    """Final subdomain list with targets inherited from the originals."""
    subs = tuple(
        (tree.subdomains[i], pwl.subdomains[tree.origin[i]][1])
        for i in range(len(tree.subdomains))
    )
    return DiscretePWL(pwl.dim, pwl.output_dim, subs)


def deep_build(pwl, cfg=None, seed=0):
    """Region-dividing deep synthesis; exact on every training point."""
    tree = build_partition_tree([pts for pts, _ in pwl.subdomains], seed)
    return _build_from_tree(_final_pwl(pwl, tree), tree, cfg, seed)


def decoder_build(codes, targets, cfg=None, seed=0):
    """Map low-dimensional codes back to their high-dimensional points.

    Each code becomes a singleton subdomain with a constant vector target;
    the resulting architecture has non-decreasing hidden widths from the
    code dimension up to the target dimension's output layer.
    """
    codes = np.atleast_2d(np.asarray(codes, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if codes.shape[0] != targets.shape[0]:
        raise ValueError("need one target per code")
    codes, targets = distinct_points(codes, targets)
    return deep_build(DiscretePWL.singletons(codes, targets), cfg, seed)


def _plan_tree(plan):
    """The final PWL and the partition tree a deep synthesis plan records."""
    if plan is None or plan.get("kind") != "deep":
        raise ValueError("not a deep synthesis plan")
    try:
        pwl = DiscretePWL.from_json_dict(plan["pwl"])
        tree = PartitionTree(TreeNode.from_json_dict(plan["tree"]),
                             [pts for pts, _ in pwl.subdomains],
                             [int(i) for i in plan["origin"]])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed synthesis plan: {exc}") from exc
    leaves = sorted(tree.root.leaves())
    if leaves != list(range(len(pwl.subdomains))):
        raise ValueError(f"malformed synthesis plan: tree leaves {leaves} are not a "
                         f"permutation of the {len(pwl.subdomains)} subdomains")
    return pwl, tree


def rebuild_deep_from_plan(plan, cfg=None, extras=None):
    """Re-run a deep synthesis recorded in a report's plan."""
    pwl, tree = _plan_tree(plan)
    if extras is None:
        extras = plan.get("extras")
    return _build_from_tree(pwl, tree, cfg, plan.get("seed", 0), extras=extras)
