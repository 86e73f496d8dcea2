"""Deep synthesis by recursive region dividing.

The partition tree splits each group by its most balanced direction cut,
certified by a max-margin LP that also sets the separator: k - 1 LPs for k
subdomains, and depth ceil(log2 k) when every group has a cut into halves.
Groups that no cut separates are refined to singletons.  The tree is grown
topology first: each round takes every group's first cut without an LP,
a round that refines solves none unless a cut is thin enough for an LP to
reject it, and the last round's cuts are certified one batch of LPs per
tree level.

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
from collections.abc import Iterator
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
from .ordering import SEPARABLE_THRESHOLD, separate_many
from .affine import interference_avoiding_weights
from .report import BuildFailure, ConstructionReport, build_tolerances, check_exact

__all__ = [
    "PartitionTree",
    "TreeNode",
    "DeepBuild",
    "build_partition_tree",
    "synth_deep",
    "synth_decoder",
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


@dataclass
class _Split:
    """A group of two or more sets in a round's tree: its index in the
    tree's preorder, which picks its block of random directions, its
    remaining candidate cuts, the cut it holds (None once none is left),
    its children (a set index for a leaf) and, once certified, the
    separator."""

    group: tuple
    pre: int
    cuts: Iterator | None = None
    cut: tuple | None = None
    a: "_Split | int | None" = None
    b: "_Split | int | None" = None
    separator: Hyperplane | None = None


def _grow(sets, blocks, root, wide):
    """Grow the tree under ``root`` in preorder, solving no LP: each group
    takes its first candidate cut when it is reached, and child a of group
    p is group p + 1 and child b group p + |a|, as in a depth-first build.
    Groups grown before keep their cuts.  Growth does not go below an
    uncertified cut with a gap of at most ``wide``, which an LP may
    reject.  Returns the first group with no cut, which is the
    lowest-preorder failure, or None, and those thin cuts' groups before
    it."""
    stack, thin = [root], []
    while stack:
        s = stack.pop()
        if s.cuts is None:
            s.cuts = _candidate_direction_cuts(sets, s.group, blocks[s.pre])
            s.cut = next(s.cuts, None)
        if s.cut is None:
            return s, thin
        if s.separator is None and s.cut[2] <= wide:
            thin.append(s)
            continue
        if s.a is None:
            left, right, _ = s.cut
            s.a, s.b = (_Split(side, s.pre + skip) if len(side) > 1 else side[0]
                        for side, skip in ((left, 1), (right, len(left))))
        stack.extend(c for c in (s.b, s.a) if isinstance(c, _Split))
    return None, thin


def _certify(sets, splits):
    """Certify the groups' cuts by their max-margin LPs, solved together
    by ``separate_many``.  A rejected cut gives way to its group's next
    candidate and drops its subtree, to be regrown.  Returns whether
    every cut passed."""
    results = separate_many([
        tuple(np.vstack([sets[i] for i in side]) for side in s.cut[:2])
        for s in splits])
    for s, res in zip(splits, results):
        if res.separable:
            s.separator = res.hyperplane
        else:
            s.cut, s.a, s.b = next(s.cuts, None), None, None
    return all(res.separable for res in results)


def _certify_levels(sets, root):
    """Certify every uncertified cut of the tree, one batch per level, so
    no LP is padded to a shallower level's rows; stops after the first
    level with a rejection.  Returns whether every cut passed."""
    level = [root]
    while level:
        if not _certify(sets, [s for s in level if s.separator is None]):
            return False
        level = [c for s in level for c in (s.a, s.b) if isinstance(c, _Split)]
    return True


def _tree_node(x):
    if not isinstance(x, _Split):
        return TreeNode(leaf=x)
    return TreeNode(a=_tree_node(x.a), b=_tree_node(x.b), separator=x.separator)


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
    A round grows the tree from every group's first candidate cut, in
    preorder and without LPs, up to the first group with no cut.  If there
    is one, its multi-point subdomains are split into single points and
    the next round starts; distinct points always separate eventually.
    Otherwise every cut is certified, one batch of separation LPs per tree
    level.  A group whose cut an LP rejects moves to its next candidate
    and regrows its subtree; a cut thin enough for that is certified
    before anything grows below it.  Group p of the preorder takes block
    p of the round's random directions, so the tree is the one drawn by a
    depth-first build that certifies each cut when it reaches it.
    """
    sets = [np.atleast_2d(np.asarray(s, dtype=float)) for s in subdomains]
    origin = list(range(len(sets)))
    pts_all = np.vstack(sets)
    if len(np.unique(point_key(pts_all), axis=0)) != pts_all.shape[0]:
        raise ValueError("duplicate points across subdomains")
    if len(sets) == 1:
        return PartitionTree(TreeNode(leaf=0), sets, origin)
    # a cut with gap g along unit d is held apart by w = d / |d|_inf, so
    # its LP optimum is at least g / 2; the simplex stops at most about
    # 1e-13 short of it (measured against HiGHS on the trees of 64-512
    # 2-D clusters and the benchmark's LPs), so its LP passes every wider cut
    wide = 20 * SEPARABLE_THRESHOLD * (1.0 + np.abs(pts_all).max())
    rng = np.random.default_rng(seed)
    n = pts_all.shape[1]
    # one (DIRECTION_TRIES, n) block per group, in preorder; one draw of
    # several blocks gives the same numbers as one draw per block
    blocks = rng.normal(size=(len(sets) - 1, DIRECTION_TRIES, n))

    while True:
        root = _Split(tuple(range(len(sets))), 0)
        while True:
            failed, thin = _grow(sets, blocks, root, wide)
            if thin:
                _certify(sets, thin)
            elif failed is not None or _certify_levels(sets, root):
                break
        if failed is None:
            return PartitionTree(_tree_node(root), sets, origin)
        refinable = [i for i in failed.group if sets[i].shape[0] > 1]
        if not refinable:
            P = np.vstack([sets[i] for i in failed.group])
            closest = min(np.linalg.norm(P[i + 1:] - P[i], axis=1).min()
                          for i in range(len(P) - 1))
            raise PartitionError(
                "no separable bipartition of subdomains "
                f"{sorted({origin[i] for i in failed.group})}, even as single "
                f"points; their closest points are {closest:.3g} apart")
        new_sets, new_origin = [], []
        for i, s in enumerate(sets):
            if i in refinable:
                for p in s:
                    new_sets.append(p[None, :])
                    new_origin.append(origin[i])
            else:
                new_sets.append(s)
                new_origin.append(origin[i])
        sets, origin = new_sets, new_origin
        # the next round's draws follow the failed group's block
        blocks = blocks[failed.pre + 1:]
        if len(blocks) < len(sets) - 1:
            blocks = np.concatenate([blocks, rng.normal(
                size=(len(sets) - 1 - len(blocks), DIRECTION_TRIES, n))])


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


def _synth_deep_impl(pwl, tree, cfg=None, seed=0, extras=None):
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
    tree = build_partition_tree([pts for pts, _ in pwl.subdomains], seed)
    return _synth_deep_impl(_final_pwl(pwl, tree), tree, cfg, seed)


def synth_deep(pwl, cfg=None, seed=0):
    """Region-dividing deep synthesis; exact on every training point."""
    return deep_build(pwl, cfg, seed).network


def decoder_build(codes, targets, cfg=None, seed=0):
    codes = np.atleast_2d(np.asarray(codes, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if codes.shape[0] != targets.shape[0]:
        raise ValueError("need one target per code")
    codes, targets = distinct_points(codes, targets)
    return deep_build(DiscretePWL.singletons(codes, targets), cfg, seed)


def synth_decoder(codes, targets, cfg=None, seed=0):
    """Map low-dimensional codes back to their high-dimensional points.

    Each code becomes a singleton subdomain with a constant vector target;
    the resulting architecture has non-decreasing hidden widths from the
    code dimension up to the target dimension's output layer.
    """
    return decoder_build(codes, targets, cfg, seed).network


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
    return _synth_deep_impl(pwl, tree, cfg, plan.get("seed", 0), extras=extras)
