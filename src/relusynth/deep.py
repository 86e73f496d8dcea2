"""Deep synthesis by recursive region dividing.

The partition tree splits each group by its most balanced direction cut,
certified by a max-margin LP that also sets the separator: k - 1 LPs for k
subdomains, and depth ceil(log2 k) when every group has a cut into halves.
Groups that no cut separates are refined to singletons.

Each tree level becomes one hidden layer: groups being split get a pair of
reversed-side bundles, groups already isolated get pass-through blocks,
and every new unit receives interference weights on the other groups'
exclusive dimensions so it stays dark for them.  The last hidden layer
gives each leaf a full-rank bundle of dim+1 units and the linear output
layer solves each leaf's affine target independently.

The work runs per bundle and per layer: a bundle is lifted into its
group's frame with one pivot inverse; each group of the layer gets one
interference solve, which sets the weight on its units for every unit the
other groups own; and each layer is audited with one product over the
previous layer's images stacked in input row order.
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
    affine_fit,
    forward_batch,
    numeric_rank,
    solve_constrained,
    supporting_hyperplane,
)
from .bundles import BundleConfig, common_point_bundle, same_classification_bundle
from .ordering import separate
from .affine import (
    interference_avoiding_weights,
    rank_condition_check,
    transform_hyperplane,
)
from .report import ConstructionReport

__all__ = [
    "PartitionTree",
    "TreeNode",
    "DeepBuild",
    "build_partition_tree",
    "synth_deep",
    "synth_deep_multi",
    "synth_decoder",
    "deep_build",
    "decoder_build",
    "rebuild_deep_with_widths",
    "interference_avoiding_weights",
]


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


class _NeedRefine(Exception):
    def __init__(self, indices):
        self.indices = indices


def _candidate_direction_cuts(sets, group, rng, tries=40):
    """Direction-projection splits of a group, most balanced first.

    All points go through one product with all unit directions; each set's
    extent on a direction is a segment min and max over its rows, and the
    gap of every cut along the sorted order is the next set's low end minus
    the running max of the high ends so far.  Cuts whose gap is at least
    1e-3 of the widest come most balanced first (by the smaller side's set
    count), then by gap, largest first; each left side comes once, and cuts
    are yielded lazily, so only the ones tried are built.
    """
    pts = np.vstack([sets[i] for i in group])
    n = pts.shape[1]
    dirs = [np.eye(n)[i] for i in range(n)]
    centered = pts - pts.mean(axis=0)
    if pts.shape[0] > 1:
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        dirs.extend(vt)
    dirs.extend(rng.normal(size=(tries, n)))
    # one norm per direction: the axis= form rounds some of them differently
    norms = np.array([np.linalg.norm(d) for d in dirs])
    dirs = np.array(dirs)[norms != 0.0] / norms[norms != 0.0, None]
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
            yield left, tuple(sorted(group[j] for j in order[k[i], c[i] + 1:]))


def build_partition_tree(subdomains, seed=0):
    """Recursively bipartition subdomains into linearly separable groups.

    Each group is split by its most balanced LP-certified direction cut.
    When a group of two or more subdomains has none, its multi-point
    subdomains are split into singletons and the whole tree is rebuilt;
    distinct points always separate eventually.
    """
    sets = [np.atleast_2d(np.asarray(s, dtype=float)) for s in subdomains]
    origin = list(range(len(sets)))
    pts_all = np.vstack(sets)
    if len(np.unique(pts_all.round(decimals=12), axis=0)) != pts_all.shape[0]:
        raise ValueError("duplicate points across subdomains")
    rng = np.random.default_rng(seed)

    def grow(group):
        if len(group) == 1:
            return TreeNode(leaf=group[0])
        for left, right in _candidate_direction_cuts(sets, group, rng):
            res = separate(np.vstack([sets[i] for i in left]),
                           np.vstack([sets[i] for i in right]))
            if res.separable:
                return TreeNode(a=grow(list(left)), b=grow(list(right)),
                                separator=res.hyperplane)
        raise _NeedRefine(group)

    while True:
        try:
            root = grow(list(range(len(sets))))
            return PartitionTree(root, sets, origin)
        except _NeedRefine as need:
            refinable = [i for i in need.indices if sets[i].shape[0] > 1]
            if not refinable:
                raise PartitionError(
                    "no separable bipartition exists even for singletons"
                ) from None
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


@dataclass
class _Group:
    node: TreeNode
    leaf_ids: list
    points: np.ndarray      # original-coordinate points, in ascending leaf order
    M: np.ndarray           # frame: x -> block preactivations
    c: np.ndarray
    dims: list              # unit indices of the block in the current layer
    is_input: bool = False  # frame refers to the raw input, not relu outputs

    def images(self, width):
        """The group's points in a layer of the given width: its block's
        outputs on its own units, zero on every other unit."""
        vals = self.points @ self.M.T + self.c
        if not self.is_input:
            vals = np.maximum(vals, 0.0)
        out = np.zeros((vals.shape[0], width))
        out[:, self.dims] = vals
        return out


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


def _lift_bundle(bundle, group, prev_width):
    """Full-width unit rows realizing a bundle's original-coordinate
    hyperplanes on the group's image, zero on every other group's units."""
    n = group.M.shape[1]
    lifted = transform_hyperplane(bundle, AffineMap(group.M[:n], group.c[:n]))
    W = np.zeros((len(lifted), prev_width))
    W[:, group.dims[:n]] = [t.w for t in lifted]
    return W, np.array([t.b for t in lifted])


def _group_bundles(g, last, count, cfg, sets):
    """The bundles one group adds to the next layer, each with the tree
    node it carries, that node's points and its plan tag.  ``count`` is n
    plus the group's extra units: the width of its first bundle, one less
    than that of its output bundle."""
    n = g.points.shape[1]
    if last:
        base = supporting_hyperplane(g.points)
        bundle = same_classification_bundle(base, g.points, None, count + 1, cfg)
        return [(g.node, g.points, bundle,
                 {"kind": "output-bundle", "leaf": g.node.leaf})]
    if g.node.is_leaf():
        # common-point family anchored in original coordinates, so frame
        # conditioning does not accumulate with depth; its restriction to
        # the group's embedded subspace still meets in the anchor's image
        base = supporting_hyperplane(g.points)
        p0 = g.points[0]
        anchor = p0 - float(base.value(p0)) * base.w / float(base.w @ base.w)
        bundle = common_point_bundle(base, anchor, g.points, cfg, count=count)
        return [(g.node, g.points, bundle, {"kind": "passthrough", "leaf": g.node.leaf})]
    pts_a = np.vstack([sets[i] for i in sorted(g.node.a.leaves())])
    pts_b = np.vstack([sets[i] for i in sorted(g.node.b.leaves())])
    sep = g.node.separator
    bundle_a = same_classification_bundle(sep, pts_a, pts_b, count, cfg)
    bundle_b = same_classification_bundle(sep.negated(), pts_b, pts_a, n, cfg)
    return [(child, pts, bundle, {"kind": "split", "leaves": sorted(child.leaves())})
            for child, pts, bundle in ((g.node.a, pts_a, bundle_a),
                                       (g.node.b, pts_b, bundle_b))]


def _build_layer(groups, images, layer_no, last, extra, prev_width, cfg, sets):
    """One hidden layer: each group's bundles, lifted one bundle at a time,
    then one interference solve per group for the units the other groups
    own.  Returns the layer, its plan tags and the groups it carries on."""
    n = groups[0].points.shape[1]
    rows, biases, owner, tags, new_groups = [], [], [], [], []
    width = 0
    for gi, g in enumerate(groups):
        try:
            for node, pts, bundle, tag in _group_bundles(
                    g, last, n + (extra if gi == 0 else 0), cfg, sets):
                W, b = _lift_bundle(bundle, g, prev_width)
                rows.append(W)
                biases.append(b)
                owner.extend([gi] * len(bundle))
                tags.append(dict(tag, units=[width, len(bundle)]))
                new_groups.append(_Group(node, sorted(node.leaves()), pts,
                                         np.array([t.w for t in bundle]),
                                         np.array([t.b for t in bundle]),
                                         list(range(width, width + len(bundle)))))
                width += len(bundle)
        except (ValueError, RuntimeError) as exc:
            where = (f"output bundle for leaf {g.node.leaf}" if last
                     else f"layer {layer_no}, group {sorted(g.leaf_ids)}")
            raise type(exc)(f"{where}: {exc}") from exc
    W, b, owner = np.vstack(rows), np.concatenate(biases), np.array(owner)
    if len(groups) > 1:
        # a group's images are zero off its own units, so one solve per
        # group sets the weight on its units for every unit it does not own
        for hi, h in enumerate(groups):
            other = owner != hi
            try:
                weights = interference_avoiding_weights(
                    W[other], b[other], [h.dims], [images[hi]])
            except ValueError as exc:
                raise ValueError(f"layer {layer_no}, foreign group "
                                 f"{sorted(h.leaf_ids)}: {exc}") from exc
            W[np.ix_(other, h.dims)] = weights
    return Layer(W, b, "relu"), tags, new_groups


def _synth_deep_impl(pwl, tree, cfg=None, seed=0, extras=None):
    t_start = time.monotonic()
    cfg = cfg or BundleConfig()
    n = pwl.dim
    mu = pwl.output_dim
    sets = [pts for pts, _ in pwl.subdomains]
    maps = [amap for _, amap in pwl.subdomains]

    # group point rows are always stacked in ascending leaf order, so a
    # group's rows in the root stack are its leaves' rows
    leaf_of_row = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    groups = [_Group(tree.root, sorted(tree.root.leaves()), np.vstack(sets),
                     np.eye(n), np.zeros(n), list(range(n)), is_input=True)]
    prev_width = n

    layers = []
    stage_plan = []
    activation_audits = []
    affine_fit_residuals = []
    rank_audits = []

    # one layer per tree level, then the last hidden layer: one full-rank
    # bundle per leaf
    last = False
    while not last:
        last = all(g.node.is_leaf() for g in groups)
        layer_no = len(layers) + 1
        extra = int(extras[len(layers)]) if extras and len(layers) < len(extras) else 0
        images = [g.images(prev_width) for g in groups]
        layer, tags, new_groups = _build_layer(groups, images, layer_no, last, extra,
                                               prev_width, cfg, sets)
        layers.append(layer)
        stage_plan.append(tags)
        _audit_layer(layer, layer_no, groups, images, new_groups, leaf_of_row,
                     activation_audits, affine_fit_residuals, rank_audits, cfg)
        groups = new_groups
        prev_width = layer.units

    # output layer: per-leaf coefficient match, independent per coordinate;
    # solved with the bias row re-expressed at the leaf centroid, which
    # drops the condition number for leaves far from the origin without
    # changing the solution
    out_W = np.zeros((mu, prev_width))
    for g in groups:
        leaf = g.node.leaf
        # row-major: the solve's last bits depend on the memory layout
        M = np.ascontiguousarray(np.vstack([g.M.T, g.c]))
        rank = numeric_rank(M)
        rank_audits.append({"layer": "output", "leaf": int(leaf),
                            "columns": M.shape[1], "rank": int(rank)})
        if rank < n + 1:
            raise RuntimeError(f"leaf {leaf} bundle lost rank ({rank} < {n + 1})")
        centroid = sets[leaf].mean(axis=0)
        M_c = M.copy()
        M_c[n] += centroid @ M[:n]
        amap = maps[leaf]
        for rho in range(mu):
            rhs = np.concatenate([amap.W[rho], [float(amap.b[rho])]])
            rhs_c = rhs.copy()
            rhs_c[n] += float(centroid @ rhs[:n])
            mode = ("exact_square" if M.shape[1] == n + 1
                    else "least_norm_underdetermined")
            out_W[rho, g.dims] = solve_constrained(M_c, rhs_c, mode)
    layers.append(Layer(out_W, np.zeros(mu), "linear"))

    net = Network(n, tuple(layers))
    widths = [l.units for l in layers[:-1]]
    for a, b in zip(widths, widths[1:]):
        if b < a:
            raise RuntimeError(f"hidden widths decreased: {widths}")

    X = pwl.all_points()
    Y = pwl.all_targets()
    out = forward_batch(net, X)
    max_residual = float(np.max(np.abs(out - Y)))
    report = ConstructionReport(
        architecture=net.architecture(),
        max_residual=max_residual,
        activation_audits=activation_audits,
        rank_audits=rank_audits,
        affine_fit_residuals=affine_fit_residuals,
        seed=seed,
        wall_clock=time.monotonic() - t_start,
        tolerances={
            "activation_tol": ACTIVATION_TOL,
            "margin": cfg.margin,
            "rank_tol": RANK_TOL,
            "note": "preactivations in (0, activation_tol] count as zero output",
        },
        plan={
            "kind": "deep",
            "pwl": pwl.to_json_dict(),
            "tree": tree.root.to_json_dict(),
            "origin": [int(i) for i in tree.origin],
            "seed": seed,
            "extras": list(extras) if extras is not None else None,
        },
    )
    build = DeepBuild(net, pwl, tree, stage_plan, cfg, seed, report)
    if max_residual > 1e-8:
        raise RuntimeError(f"synthesis residual {max_residual:.3g} above 1e-8")
    return build


def _audit_layer(layer, layer_no, prev_groups, images, new_groups, leaf_of_row,
                 activation_audits, affine_fit_residuals, rank_audits, cfg):
    """Group isolation and affine-transmission checks for one hidden layer.

    The previous groups' images are stacked once in root row order, so one
    product gives every point's preactivations; each new group takes its
    own rows and the foreign rows by leaf mask.
    """
    def group_of_row(groups):
        of_leaf = np.empty(leaf_of_row.max() + 1, dtype=int)
        for i, g in enumerate(groups):
            of_leaf[g.leaf_ids] = i
        return of_leaf[leaf_of_row]

    A = np.empty((leaf_of_row.size, images[0].shape[1]))
    A[np.argsort(group_of_row(prev_groups), kind="stable")] = np.vstack(images)
    Z = A @ layer.weights.T + layer.biases
    new_of_row = group_of_row(new_groups)
    for gi, g in enumerate(new_groups):
        own = new_of_row == gi
        own_pre = Z[np.ix_(own, g.dims)]
        foreign_pre = Z[np.ix_(~own, g.dims)]
        worst_foreign = float(foreign_pre.max()) if foreign_pre.size else -np.inf
        audit = {
            "layer": layer_no,
            "leaves": [int(i) for i in g.leaf_ids],
            "own_min_preactivation": float(own_pre.min()),
            "foreign_max_preactivation": worst_foreign,
        }
        activation_audits.append(audit)
        if own_pre.min() <= cfg.margin / 2.0 - 1e-12:
            raise RuntimeError(
                f"layer {layer_no}: a group's own preactivation fell to "
                f"{own_pre.min():.3g}"
            )
        if worst_foreign > -cfg.margin / 2.0:
            raise RuntimeError(
                f"layer {layer_no}: foreign preactivation {worst_foreign:.3g} "
                f"not below -margin/2"
            )
        n = g.points.shape[1]
        witness = AffineMap(g.M[:n], g.c[:n])
        resid = float(np.max(np.abs(witness.apply(g.points) - own_pre[:, :n])))
        nonsingular = witness.is_nonsingular()
        centered = g.points - g.points.mean(axis=0)
        if g.points.shape[0] > n and numeric_rank(np.atleast_2d(centered)) == n:
            # enough affine span for an independent fit
            fit, fit_resid = affine_fit(g.points, own_pre[:, :n])
            resid = max(resid, fit_resid)
            nonsingular = nonsingular and fit.is_nonsingular()
        affine_fit_residuals.append({
            "layer": layer_no,
            "leaves": [int(i) for i in g.leaf_ids],
            "residual": resid,
            "witness_nonsingular": bool(nonsingular),
        })
        if resid > 1e-8 or not nonsingular:
            raise RuntimeError(f"layer {layer_no}: affine transmission broke")
        W_blk = layer.weights[g.dims]
        need = min(n, len(g.dims))
        if W_blk.shape[1] > need:
            ok, rank = rank_condition_check(W_blk, n=need)
        else:
            rank = numeric_rank(W_blk)
            ok = rank >= need
        rank_audits.append({"layer": layer_no, "leaves": [int(i) for i in g.leaf_ids],
                            "rank_ok": bool(ok), "rank": int(rank)})
        if not ok:
            raise RuntimeError(f"layer {layer_no}: block weight rank {rank} too low")


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


def synth_deep_multi(pwl, mu=None, cfg=None, seed=0):
    """Multi-output deep synthesis: shared hidden stack, independent output
    units, one per coordinate."""
    if mu is not None and mu != pwl.output_dim:
        raise ValueError(f"mu={mu} disagrees with output_dim={pwl.output_dim}")
    return deep_build(pwl, cfg, seed).network


def decoder_build(codes, targets, cfg=None, seed=0):
    codes = np.atleast_2d(np.asarray(codes, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if codes.shape[0] != targets.shape[0]:
        raise ValueError("need one target per code")
    seen = {}
    keep = []
    for i, c in enumerate(codes):
        key = tuple(c.round(decimals=12))
        if key in seen:
            if not np.allclose(targets[seen[key]], targets[i]):
                raise ValueError(
                    f"duplicate code at row {i} with a different target; "
                    "the code map is not bijective"
                )
            continue
        seen[key] = i
        keep.append(i)
    codes, targets = codes[keep], targets[keep]
    subs = tuple(
        (c[None, :], AffineMap.constant(t, codes.shape[1]))
        for c, t in zip(codes, targets)
    )
    pwl = DiscretePWL(codes.shape[1], targets.shape[1], subs)
    return deep_build(pwl, cfg, seed)


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
    pwl = DiscretePWL.from_json_dict(plan["pwl"])
    tree = PartitionTree(TreeNode.from_json_dict(plan["tree"]),
                         [pts for pts, _ in pwl.subdomains],
                         [int(i) for i in plan["origin"]])
    return pwl, tree


def rebuild_deep_from_plan(plan, cfg=None, extras=None):
    """Re-run a deep synthesis recorded in a report's plan."""
    pwl, tree = _plan_tree(plan)
    if extras is None:
        extras = plan.get("extras")
    return _synth_deep_impl(pwl, tree, cfg, plan.get("seed", 0), extras=extras)


def rebuild_deep_with_widths(build, target_widths):
    """Re-run a deep synthesis allocating extra redundant units per layer."""
    pwl, tree = _plan_tree(build.report.plan)
    base = _base_widths(tree, pwl.dim)
    if len(target_widths) != len(base):
        raise ValueError(f"expected {len(base)} hidden widths, got {len(target_widths)}")
    extras = []
    for have, want in zip(base, target_widths):
        if want < have:
            raise ValueError(f"target width {want} below base width {have}")
        extras.append(want - have)
    return _synth_deep_impl(pwl, tree, build.cfg, build.seed, extras=extras)


def _base_widths(tree, n):
    """Hidden widths the tree produces with no extra units."""
    groups = [tree.root]
    widths = []
    while any(not g.is_leaf() for g in groups):
        nxt = []
        w = 0
        for g in groups:
            if g.is_leaf():
                w += n
                nxt.append(g)
            else:
                w += 2 * n
                nxt.extend([g.a, g.b])
        widths.append(w)
        groups = nxt
    widths.append(len(groups) * (n + 1))
    return widths
