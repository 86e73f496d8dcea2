import json
import re

import numpy as np
import pytest

from relusynth.core import (
    AffineMap,
    DiscretePWL,
    Layer,
    Network,
    RankDeficientError,
    forward_batch,
    numeric_rank,
    solve_constrained,
    supporting_hyperplane,
)
from relusynth.affine import interference_avoiding_weights, transform_hyperplane
from relusynth.bundles import (
    BundleConfig,
    MarginError,
    anchored_base,
    common_point_bundle,
    same_classification_bundle,
)
from relusynth.ordering import separate
from relusynth.report import BuildFailure, ConstructionReport
import relusynth.deep as deep_module
from relusynth.deep import (
    DIRECTION_TRIES,
    PartitionError,
    PartitionTree,
    TreeNode,
    build_partition_tree,
    decoder_build,
    deep_build,
    rebuild_deep_from_plan,
)
from relusynth.cli import fig7_fixture, main as cli_main
from conftest import nudge_bias, repeat_base


def cluster_fixture():
    return DiscretePWL(2, 1, (
        (np.array([[0.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
         AffineMap([[1.0, 0.5]], [0.3])),
        (np.array([[2.0, 0.0], [2.0, 1.0], [2.5, 0.5]]),
         AffineMap([[0.2, -1.0]], [1.0])),
        (np.array([[6.0, 0.0], [6.0, 1.0], [6.5, 0.5]]),
         AffineMap([[-0.7, 0.1]], [-0.5])),
    ))


def test_interference_single_image_arithmetic():
    w = interference_avoiding_weights(np.zeros(2), 1.0, [1], np.array([[0.0, 2.0]]))
    assert w == pytest.approx(-1.5)
    assert w * 2.0 + 1.0 == pytest.approx(-2.0)


def test_interference_with_negative_fixed_part():
    # already-negative contributions only strengthen the bound
    w = interference_avoiding_weights(np.zeros(2), -3.0, [1], np.array([[0.0, 2.0]]))
    assert w <= -3.0 / 2.0 - 1.0 + 3.0  # w = min(3/2) - 1 = 0.5
    s = w * 2.0 - 3.0
    assert s < 0


def test_interference_rejects_zero_off_coordinate():
    with pytest.raises(ValueError):
        interference_avoiding_weights(np.zeros(2), 1.0, [1],
                                      np.array([[1.0, 0.0]]))


def test_interference_two_group_fixture():
    D1, D2, layer1, layer2 = fig7_fixture()
    img1 = np.maximum(D1 @ layer1.weights.T + layer1.biases, 0.0)
    img2 = np.maximum(D2 @ layer1.weights.T + layer1.biases, 0.0)
    pre1 = img1 @ layer2.weights[0] + layer2.biases[0]
    pre2 = img2 @ layer2.weights[0] + layer2.biases[0]
    assert (pre1 > 0).all()
    assert (pre2 < 0).all()


def test_partition_tree_single_leaf():
    tree = build_partition_tree([np.array([[1.0, 2.0]])])
    assert tree.root.is_leaf()


def test_partition_tree_cluster_fixture_splits():
    pwl = cluster_fixture()
    tree = build_partition_tree([pts for pts, _ in pwl.subdomains])
    assert not tree.root.is_leaf()
    sides = {tuple(sorted(tree.root.a.leaves())),
             tuple(sorted(tree.root.b.leaves()))}
    assert sides == {(0, 1), (2,)}
    inner = tree.root.a if not tree.root.a.is_leaf() else tree.root.b
    assert {inner.a.leaf, inner.b.leaf} == {0, 1}


def test_partition_tree_separators_verified():
    pwl = cluster_fixture()
    tree = build_partition_tree([pts for pts, _ in pwl.subdomains])

    def walk(node, sets):
        if node.is_leaf():
            return
        A = np.vstack([sets[i] for i in node.a.leaves()])
        B = np.vstack([sets[i] for i in node.b.leaves()])
        assert (node.separator.value(A) > 0).all()
        assert (node.separator.value(B) < 0).all()
        walk(node.a, sets)
        walk(node.b, sets)

    walk(tree.root, tree.subdomains)


def test_partition_tree_interleaved_falls_back_to_singletons():
    A = np.array([[0.0, 0.0], [3.0, 0.0]])
    B = np.array([[1.0, 0.0], [4.0, 0.0]])
    C = np.array([[2.0, 0.0], [5.0, 0.0]])
    tree = build_partition_tree([A, B, C])
    assert len(tree.subdomains) == 6
    assert all(s.shape[0] == 1 for s in tree.subdomains)
    assert tree.origin == [0, 0, 1, 1, 2, 2]

    def walk(node):
        if node.is_leaf():
            return
        A_ = np.vstack([tree.subdomains[i] for i in node.a.leaves()])
        B_ = np.vstack([tree.subdomains[i] for i in node.b.leaves()])
        assert separate(A_, B_).separable
        walk(node.a)
        walk(node.b)

    walk(tree.root)


def _jittered_grid(rng, nx, ny):
    """Clusters of three points jittered around an nx-by-ny lattice of
    centres 3 apart, each cluster carrying a random affine map."""
    return DiscretePWL(2, 1, tuple(
        (rng.normal(size=(3, 2)) * 0.3 + 3.0 * np.array([i, j]),
         AffineMap(rng.normal(size=(1, 2)), rng.normal(size=1)))
        for i in range(nx) for j in range(ny)))


def _depth(node):
    return 0 if node.is_leaf() else 1 + max(_depth(node.a), _depth(node.b))


@pytest.mark.parametrize("nx, ny", [(4, 4), (8, 4), (8, 8)])
def test_balanced_tree_on_jittered_grids(lp_calls, lp_batches, nx, ny):
    # every group has a cut into halves, and each cut takes one LP, in
    # one batch per tree level
    k = nx * ny
    pwl = _jittered_grid(np.random.default_rng(0), nx, ny)
    tree = build_partition_tree([pts for pts, _ in pwl.subdomains])
    assert len(lp_calls) == k - 1
    assert lp_batches == [2 ** d for d in range(int(np.log2(k)))]
    assert len(tree.subdomains) == k
    assert _depth(tree.root) == int(np.ceil(np.log2(k)))

    def walk(node):
        if node.is_leaf():
            return
        A = np.vstack([tree.subdomains[i] for i in node.a.leaves()])
        B = np.vstack([tree.subdomains[i] for i in node.b.leaves()])
        assert (node.separator.value(A) > 0).all()
        assert (node.separator.value(B) < 0).all()
        walk(node.a)
        walk(node.b)

    walk(tree.root)
    build = deep_build(pwl)
    assert len(build.network.layers) - 1 == _depth(build.tree.root) + 1
    assert _input_residual(build, pwl) <= 1e-8


def test_partition_tree_duplicate_points_rejected():
    with pytest.raises(ValueError):
        build_partition_tree([np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]])])


def reference_tree(subdomains, seed=0):
    """The eager depth-first build, which certifies each cut when it
    reaches it: a group draws its block of random directions when it is
    reached and tries its cuts one separation LP at a time.  A group with
    no separable cut refines its multi-point sets and the whole tree is
    rebuilt, the draws going on from there.  Also returns how many LPs
    rejected a cut."""
    sets = [np.atleast_2d(np.asarray(s, dtype=float)) for s in subdomains]
    origin = list(range(len(sets)))
    rng = np.random.default_rng(seed)
    rejected = 0

    class Refine(Exception):
        pass

    def grow(group):
        nonlocal rejected
        if len(group) == 1:
            return TreeNode(leaf=group[0])
        block = rng.normal(size=(DIRECTION_TRIES, sets[0].shape[1]))
        for left, right, _ in deep_module._candidate_direction_cuts(sets, group, block):
            res = separate(np.vstack([sets[i] for i in left]),
                           np.vstack([sets[i] for i in right]))
            if res.separable:
                return TreeNode(a=grow(left), b=grow(right), separator=res.hyperplane)
            rejected += 1
        raise Refine(group)

    while True:
        try:
            return PartitionTree(grow(tuple(range(len(sets)))), sets, origin), rejected
        except Refine as need:
            refinable = [i for i in need.args[0] if len(sets[i]) > 1]
            if not refinable:
                raise PartitionError(rejected) from None
            new_sets, new_origin = [], []
            for i, s in enumerate(sets):
                parts = [p[None, :] for p in s] if i in refinable else [s]
                new_sets += parts
                new_origin += [origin[i]] * len(parts)
            sets, origin = new_sets, new_origin


def _tree_bytes(tree):
    return (json.dumps(tree.root.to_json_dict()), tree.origin,
            [s.tobytes() for s in tree.subdomains])


def _sweep_sets(s):
    """Seeded inputs for n = 1-4 of four kinds: random labels (these
    refine), unique integer-grid rows, jittered clusters, and clusters of
    1-4 points at 1e-6 to 1e-7, the scale of the separation LP's
    threshold, where LPs reject cuts, some of them ahead of a refinement."""
    r = np.random.default_rng([s, 17])
    n, kind = 1 + s % 4, s // 4 % 4
    if kind == 0:
        P = r.normal(size=(int(r.integers(4, 20)), n))
        labels = r.integers(0, int(r.integers(2, 6)), len(P))
    elif kind == 1:
        P = np.unique(r.integers(0, 4, (int(r.integers(3, 20)), n)).astype(float), axis=0)
        P = P[r.permutation(len(P))]
        labels = r.integers(0, int(r.integers(1, 5)), len(P))
    else:
        scale = 10.0 if kind == 2 else r.choice([3e-7, 1e-6])
        spread, most = (0.8, 3) if kind == 2 else (scale / 3, 4)
        C = r.normal(size=(int(r.integers(2, 12)), n)) * scale
        return [c + r.normal(size=(int(r.integers(1, most + 1)), n)) * spread for c in C]
    return [P[labels == i] for i in np.unique(labels)]


def test_tree_equals_the_eager_depth_first_build_byte_for_byte():
    refined = rejected = failed = 0
    for s in range(128):
        sets, seed = _sweep_sets(s), s % 7
        try:
            ref, lps_rejected = reference_tree(sets, seed)
        except PartitionError as exc:
            failed += 1
            rejected += exc.args[0]
            with pytest.raises(PartitionError):
                build_partition_tree(sets, seed)
            continue
        assert _tree_bytes(build_partition_tree(sets, seed)) == _tree_bytes(ref), s
        refined += len(ref.subdomains) > len(sets)
        rejected += lps_rejected
    # every path of the build ran: refinement, rejected thin cuts and failure
    assert refined and rejected and failed


def _tiny_clusters(s):
    """Clusters of 1-4 points at 1e-7 in the plane, where LPs reject cuts."""
    r = np.random.default_rng([s, 5])
    return [c + r.normal(size=(int(r.integers(1, 5)), 2)) * 3e-7
            for c in r.normal(size=(int(r.integers(3, 10)), 2)) * 9e-7]


@pytest.mark.parametrize("s", [72, 109])
def test_thin_cuts_are_certified_before_a_refinement(s):
    # an LP rejects a thin cut ahead of the group that fails, and the
    # depth-first build, following the next candidate, refines another
    # group.  Refined at once, these trees differed.
    sets = _tiny_clusters(s)
    ref, rejected = reference_tree(sets)
    assert rejected and len(ref.subdomains) > len(sets)
    assert _tree_bytes(build_partition_tree(sets)) == _tree_bytes(ref)


@pytest.mark.parametrize("s, sides, gap", [
    pytest.param(20, "[1, 2, 4, 5] from [0, 3, 6, 7]", "2.11e-08", id="20"),
    pytest.param(51, "[0, 3] from [1, 2]", "1.11e-07", id="51"),
])
def test_a_rejected_wide_cut_fails_loudly(monkeypatch, tmp_path, capsys, s, sides, gap):
    # with every cut counted wide, the LPs of the tree's cuts wait until it
    # is whole, and an LP rejects one of them: a wide cut's LP cannot do
    # that, so the build names the cut instead of growing another tree
    monkeypatch.setattr(deep_module, "SEPARABLE_THRESHOLD", -1.0)
    sets = _tiny_clusters(s)
    expected = (f"separation LP rejected the cut of subdomains {sides}: its gap "
                f"{gap} exceeds the thin-cut bound -20")
    with pytest.raises(RuntimeError, match=re.escape(expected) + "$"):
        build_partition_tree(sets)
    pwl = tmp_path / "pwl.json"
    pwl.write_text(json.dumps({"dim": 2, "output_dim": 1, "subdomains": [
        {"points": P.tolist(), "W": [[0.0, 0.0]], "b": [float(i)]}
        for i, P in enumerate(sets)]}))
    net = tmp_path / "net.json"
    assert cli_main(["synthdeep", "--pwl", str(pwl), "--out", str(net)]) == 3
    assert capsys.readouterr().err == f"build failed: {expected}\n"
    assert not net.exists()


def test_tree_lp_count_is_leaves_minus_one_after_refinement(lp_calls):
    r = np.random.default_rng([2, 64, 0, 1])
    sets = [c + r.normal(size=(3, 2)) * 0.8 for c in r.normal(size=(64, 2)) * 10]
    tree = build_partition_tree(sets)
    # refinement split clusters to 82 leaves; the depth-first build solved 179 LPs
    assert len(tree.subdomains) == 82
    assert len(lp_calls) == 81
    assert _tree_bytes(tree) == _tree_bytes(reference_tree(sets)[0])


def test_partition_error_names_the_subdomains_and_their_distance():
    # point_key keeps the first two points apart, but no LP separates them
    with pytest.raises(PartitionError, match=r"subdomains \[0, 1\], even as single "
                       r"points; their closest points are 2e-14 apart"):
        build_partition_tree([[[4.9e-13, 0.0]], [[5.1e-13, 0.0]], [[3.0, 1.0]]])


@pytest.mark.parametrize("n", range(1, 9))
def test_direction_norms_equal_the_per_row_norm_bit_for_bit(n):
    # _candidate_direction_cuts normalises its directions with vecdot in
    # place of a per-row norm loop; trees stay the same bytes only if the
    # two agree bit for bit
    r = np.random.default_rng([n, 4])
    D = r.normal(size=(2000, n)) * r.uniform(0.01, 100.0, size=(2000, 1))
    loop = np.array([np.linalg.norm(d) for d in D])
    assert np.sqrt(np.vecdot(D, D)).tobytes() == loop.tobytes()


def test_deep_two_singletons_architecture():
    pwl = DiscretePWL(2, 1, (
        (np.array([[0.0, 0.0]]), AffineMap.constant([1.0], 2)),
        (np.array([[3.0, 1.0]]), AffineMap.constant([-2.0], 2)),
    ))
    net = deep_build(pwl).network
    assert net.architecture() == "2(1)4(1)6(1)1'(1)"
    out = forward_batch(net, pwl.all_points())
    assert np.abs(out - pwl.all_targets()).max() <= 1e-8


def test_deep_cluster_fixture_architecture_and_audits():
    build = deep_build(cluster_fixture())
    assert build.network.architecture() == "2(1)4(1)6(1)9(1)1'(1)"
    assert build.report.max_residual <= 1e-8
    for audit in build.report.activation_audits:
        assert audit["own_min_preactivation"] > 0
        assert audit["foreign_max_preactivation"] <= -5e-7
    widths = [l.units for l in build.network.layers[:-1]]
    assert widths == sorted(widths)


def test_deep_random_clusters_exact(rng):
    centers = np.array([[0.0, 0.0, 0.0], [9.0, 0.0, 0.0],
                        [0.0, 9.0, 0.0], [9.0, 9.0, 9.0]])
    subs = []
    for c in centers:
        pts = rng.normal(size=(4, 3)) * 0.7 + c
        subs.append((pts, AffineMap(rng.normal(size=(1, 3)), rng.normal(size=1))))
    pwl = DiscretePWL(3, 1, tuple(subs))
    build = deep_build(pwl)
    assert build.report.max_residual <= 1e-8
    widths = [l.units for l in build.network.layers[:-1]]
    assert widths == sorted(widths)


def test_deep_multi_output_per_coordinate(rng):
    base = cluster_fixture()
    subs = tuple(
        (pts, AffineMap(rng.normal(size=(3, 2)), rng.normal(size=3)))
        for pts, _ in base.subdomains
    )
    pwl = DiscretePWL(2, 3, subs)
    net = deep_build(pwl).network
    out = forward_batch(net, pwl.all_points())
    assert np.abs(out - pwl.all_targets()).max() <= 1e-8


def test_deep_multi_output_rows_solved_independently(rng):
    base = cluster_fixture()
    maps = [AffineMap(rng.normal(size=(2, 2)), rng.normal(size=2))
            for _ in base.subdomains]
    pwl = DiscretePWL(2, 2, tuple(
        (pts, m) for (pts, _), m in zip(base.subdomains, maps)))
    build_a = deep_build(pwl, seed=0)
    # change only the second output coordinate's targets
    maps2 = [AffineMap(np.vstack([m.W[0], m.W[1] + 1.0]),
                       np.array([m.b[0], m.b[1] - 2.0])) for m in maps]
    pwl2 = DiscretePWL(2, 2, tuple(
        (pts, m) for (pts, _), m in zip(base.subdomains, maps2)))
    build_b = deep_build(pwl2, seed=0)
    out_a = build_a.network.layers[-1]
    out_b = build_b.network.layers[-1]
    assert out_a.weights[0].tobytes() == out_b.weights[0].tobytes()
    assert out_a.weights[1].tobytes() != out_b.weights[1].tobytes()


def test_decoder_single_code():
    net = decoder_build(np.array([[0.5, 0.5]]), np.array([[1.0, 2.0, 3.0]])).network
    out = forward_batch(net, np.array([[0.5, 0.5]]))
    assert out[0] == pytest.approx([1.0, 2.0, 3.0], abs=1e-8)


def test_decoder_five_codes(rng):
    codes = rng.normal(size=(5, 2))
    targets = rng.normal(size=(5, 4))
    build = decoder_build(codes, targets)
    out = forward_batch(build.network, codes)
    assert np.abs(out - targets).max() <= 1e-8
    widths = [l.units for l in build.network.layers[:-1]]
    assert widths == sorted(widths)
    assert build.network.input_dim == 2
    assert build.network.output_dim == 4


def test_decoder_zigzag_patterns(rng):
    codes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    patterns = rng.uniform(size=(3, 9))  # flattened 3x3 gray images
    net = decoder_build(codes, patterns).network
    out = forward_batch(net, codes)
    assert np.abs(out - patterns).max() <= 1e-8


def test_decoder_rejects_conflicting_duplicate_codes():
    codes = np.array([[0.0, 0.0], [0.0, 0.0]])
    targets = np.array([[1.0], [2.0]])
    with pytest.raises(ValueError, match="bijective"):
        decoder_build(codes, targets)
    # consistent duplicates collapse
    net = decoder_build(codes, np.array([[1.0], [1.0]])).network
    assert forward_batch(net, codes[:1])[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_deep_report_rank_audits_pass():
    build = deep_build(cluster_fixture())
    for audit in build.report.rank_audits:
        if "rank_ok" in audit:
            assert audit["rank_ok"]


def test_audit_tells_close_foreign_point_from_own():
    # a foreign point 4e-4 from an own point at x = 50 lies within isclose's
    # default relative tolerance; matching rows by coordinates took it for
    # one of the group's own and failed a valid build at layer 2
    s, g = 50.0, 4e-4
    pwl = DiscretePWL(2, 1, (
        (np.array([[s, 0.0], [s, 3.0]]), AffineMap(np.array([[1.0, 0.0]]), np.zeros(1))),
        (np.array([[s + g, 0.0], [s + 3.0, 5.0]]),
         AffineMap(np.array([[0.0, 1.0]]), np.array([2.0]))),
        (np.array([[0.0, 40.0]]), AffineMap(np.zeros((1, 2)), np.ones(1))),
    ))
    build = deep_build(pwl)
    assert build.report.max_residual <= 1e-8
    out = forward_batch(build.network, pwl.all_points())
    assert np.abs(out - pwl.all_targets()).max() <= 1e-8


def test_audit_catches_broken_isolation(monkeypatch, tmp_path, capsys):
    # with the interference solve disabled, foreign points reach the new
    # units; the layer audit must say so, not pass a wrong network on
    rng = np.random.default_rng(3)
    pwl = DiscretePWL(2, 1, tuple(
        (rng.normal(size=(3, 2)) * 0.5 + c,
         AffineMap(rng.normal(size=(1, 2)), rng.normal(size=1)))
        for c in np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0], [6.0, 6.0]])
    ))
    monkeypatch.setattr(deep_module, "interference_avoiding_weights",
                        lambda W, b, dims, images: np.zeros((len(W), len(dims))))
    with pytest.raises(BuildFailure, match=r"layer 2: foreign preactivation") as err:
        deep_build(pwl)
    # the partial report: both layers built, layer 2's isolation audits,
    # which failed, and no residual
    report = err.value.report
    assert report.architecture == "2(1)4(1)8(1)"
    assert np.isnan(report.max_residual)
    assert [a["layer"] for a in report.activation_audits] == [1, 1, 2, 2, 2, 2]
    assert [a["layer"] for a in report.affine_fit_residuals + report.rank_audits] == [1] * 4
    assert report.plan["kind"] == "deep"
    # the CLI writes it to --report
    pwl_path, net, rep = tmp_path / "pwl.json", tmp_path / "net.json", tmp_path / "rep.json"
    pwl_path.write_text(pwl.to_json())
    assert cli_main(["synthdeep", "--pwl", str(pwl_path), "--out", str(net),
                     "--report", str(rep)]) == 3
    assert capsys.readouterr().err.startswith("build failed: layer 2: foreign preactivation")
    assert not net.exists()
    written = ConstructionReport.from_json(rep.read_text())
    assert written.architecture == report.architecture and np.isnan(written.max_residual)
    assert written.activation_audits == report.activation_audits
    assert written.plan == report.plan


def test_pass_through_anchor_off_base_names_its_layer(monkeypatch):
    # layer 2 of the fixture passes leaf 2 through
    def off_base(points):
        base, anchor = anchored_base(points)
        return base, anchor + base.w

    monkeypatch.setattr(deep_module, "anchored_base", off_base)
    with pytest.raises(ValueError, match=r"^layer 2 \(leaves \[2\]\): anchor does not "
                                         r"lie on the base hyperplane$"):
        deep_build(cluster_fixture())


@pytest.mark.parametrize("change, what", [
    (nudge_bias, "family does not meet at the anchor"),
    (repeat_base, "common-point frame is singular"),
])
def test_pass_through_family_must_meet_at_its_anchor(edit_anchored, change, what):
    edit_anchored(change)
    with pytest.raises(RuntimeError, match=rf"^layer 2 \(leaves \[2\]\): {what}$"):
        deep_build(cluster_fixture())


def test_rebuild_from_plan_is_byte_identical(rng):
    builds = [deep_build(cluster_fixture()),
              decoder_build(rng.normal(size=(5, 2)), rng.normal(size=(5, 3)))]
    for build in builds:
        again = rebuild_deep_from_plan(build.report.plan)
        assert again.network.to_json() == build.network.to_json()


def _gaussian_clusters(rng, n, clusters):
    """The clusters of the dimension sweep: three points around each of
    ``clusters`` centres, each cluster carrying a random affine map."""
    return DiscretePWL(n, 1, tuple(
        (rng.normal(size=(3, n)) * 0.8 + c,
         AffineMap(rng.normal(size=(1, n)), rng.normal(size=1)))
        for c in rng.normal(size=(clusters, n)) * 10))


def _input_residual(build, pwl):
    out = forward_batch(build.network, pwl.all_points())
    return float(np.abs(out - pwl.all_targets()).max())


@pytest.mark.parametrize("n, clusters", [(4, 3), (5, 4)])
def test_deep_exact_at_dimension_four_and_five(n, clusters):
    # the epsilon-power family left residuals of 1.2e-7 and 6.7e-6 here
    pwl = _gaussian_clusters(np.random.default_rng(0), n, clusters)
    assert _input_residual(deep_build(pwl), pwl) <= 1e-8


# eight 3-D clusters of 1-4 points, seeded default_rng([32, 56]); with the
# epsilon-power family the build ended at residual 1.8e-7
SEED56_POINTS = np.array([
    [17.922671211512334, 2.4350381383446704, -5.373009893021634],
    [14.359796294784434, -13.728738999028277, -0.07346395699825647],
    [13.961749262871276, -12.195386452289371, 2.05772186611892],
    [0.3685455476401916, 0.8569950580828616, 9.182648954403444],
    [0.12992259265547346, 1.9555550353505473, 8.73977632865062],
    [0.43492058151487495, 2.0106072804352584, 7.886549585332302],
    [-10.403600391437246, 4.671703923685392, 8.24671769918496],
    [-11.7075122383201, 6.268885008936389, 8.81624400177306],
    [-9.947405855912086, 4.941953427120485, 7.699909859024026],
    [-10.42590862751684, 4.56295194656262, 7.482652759284065],
    [-4.578333357947801, -4.787692100991512, -5.726494057106748],
    [-8.801667344805878, 3.34468861581675, 6.549861523738224],
    [-8.366993707788053, 4.433949631478892, 4.705540473607434],
    [-8.081594868310965, 4.442475081666386, 5.063257622922087],
    [-6.996683010934953, 1.2239286202641813, 6.432496739370517],
    [-9.8630097722011, 2.755922487570699, 5.826924089759153],
    [-1.8348626007757116, 8.757104072592732, 3.5428531741120337],
    [-1.705465255435342, 9.692979437532909, 4.628674061957159],
    [-2.6883052217163055, 8.324260333134946, 4.494106427866474],
    [-1.656815356817424, 8.166930557770497, 5.147806718980046],
])
SEED56_MAPS = np.array([
    [0.9548223037855094, -0.6747270567663909, -0.6146152968492017, -0.0030210634126009582],
    [-0.5174190687672384, 0.7031695114631482, -0.01095602803296158, -0.2544978271128975],
    [0.6264085965917129, -0.01936994105702209, 0.7291689691691153, -0.7241827747767344],
    [1.2966837244768947, -1.3673394908964036, -1.4844158043563462, -0.046445908237033075],
    [-0.5165929770983728, 1.3874654428007442, -0.8730579912698913, -1.5110148563323877],
    [-0.9743388553722353, -1.2019084517385212, -1.074506101662184, -0.2639368189392091],
    [-0.9777669681165736, 0.9175889028727773, -0.628313882583921, 2.6449915199284293],
    [0.34739494282594313, 0.1075230167683273, 0.771098852102517, -1.3908180024821835],
])


def test_deep_exact_on_seed56_clusters():
    owner = np.repeat(np.arange(8), [1 + i % 4 for i in range(8)])
    pwl = DiscretePWL(3, 1, tuple(
        (SEED56_POINTS[owner == i], AffineMap(m[None, :3], m[3:]))
        for i, m in enumerate(SEED56_MAPS)))
    assert _input_residual(deep_build(pwl, seed=56), pwl) <= 1e-8


def test_deep_exact_with_point_near_a_foreign_line():
    # a point of cluster 1 lies 1e-4 from the midpoint of a segment of
    # cluster 0; the max-margin split then certified a separator nearly
    # orthogonal to that segment, whose frame missed 1e-8 on seeds 5, 6,
    # 22, 24, 28 and 35.  No sampled direction cut separates the thin
    # split, so the group is refined to singletons instead.
    for seed in range(40):
        r = np.random.default_rng(seed)
        S = r.normal(size=(4, 3, 4)) * 3
        u = r.normal(size=4)
        d = S[0, 1] - S[0, 0]
        u -= (u @ d) / (d @ d) * d
        S[1, 0] = (S[0, 0] + S[0, 1]) / 2 + 1e-4 * u / np.linalg.norm(u)
        pwl = DiscretePWL(4, 1, tuple(
            (P, AffineMap(r.normal(size=(1, 4)), r.normal(size=1))) for P in S))
        assert _input_residual(deep_build(pwl), pwl) <= 1e-8, seed


def test_deep_exact_when_the_balanced_cut_is_thin():
    # clusters 0 and 1 sit between clusters 2 and 3 along x and are 1e-4
    # apart there, with a point of cluster 1 that close to a segment of
    # cluster 0.  The only 2|2 cut runs through that gap, and its split
    # frame has a condition number of about 1e6; ranked by balance alone,
    # it was taken at the root and the build missed 1e-8 on seeds 1, 2 and
    # 27.  Deferred to the {0, 1} group, it does not.
    for seed in range(40):
        r = np.random.default_rng(seed)
        S = r.normal(size=(4, 3, 4)) * 3
        S[2, :, 0] = -20 + r.normal(size=3)
        S[3, :, 0] = 20 + r.normal(size=3)
        S[0, :, 0] = -np.abs(r.normal(size=3)) * 3
        S[0, :2, 0] = 0.0
        S[1, :, 0] = 1e-4 + np.abs(r.normal(size=3)) * 3
        S[1, 0] = (S[0, 0] + S[0, 1]) / 2
        S[1, 0, 0] = 1e-4
        pwl = DiscretePWL(4, 1, tuple(
            (P, AffineMap(r.normal(size=(1, 4)), r.normal(size=1))) for P in S))
        assert _input_residual(deep_build(pwl), pwl) <= 1e-8, seed


def reference_deep(pwl, tree, extras=None, cfg=BundleConfig()):
    """The per-group loop that the stacked pass replaced: each group's
    bundles built, checked and lifted one at a time, one interference
    solve per group, one audit per block and one solve per output of each
    leaf.  Each layer reads the previous layer's computed outputs, the
    stacked input for layer 1.  Returns the layers and the report's audit
    lists."""
    n, mu = pwl.dim, pwl.output_dim
    sets = [p for p, _ in pwl.subdomains]
    maps = [m for _, m in pwl.subdomains]
    leaf_of_row = np.repeat(np.arange(len(sets)), [len(p) for p in sets])

    def points(node):
        return np.vstack([sets[i] for i in sorted(node.leaves())])

    groups = [(tree.root, np.eye(n), np.zeros(n), list(range(n)))]  # node, M, c, dims
    A = np.vstack(sets)
    width = n
    layers, acts, fits, ranks = [], [], [], []
    last = False
    while not last:
        last = all(g[0].is_leaf() for g in groups)
        layer_no = len(layers) + 1
        extra = extras[len(layers)] if extras and len(layers) < len(extras) else 0
        images = [A[np.isin(leaf_of_row, g[0].leaves())] for g in groups]
        rows, biases, owner, new = [], [], [], []
        for gi, (node, M, c, dims) in enumerate(groups):
            count = n + (extra if gi == 0 else 0)
            pts = points(node)
            if last or node.is_leaf():
                base = supporting_hyperplane(pts)
                if last:
                    bundle = same_classification_bundle(base, pts, None, count + 1, cfg)
                else:
                    anchor = pts[0] - float(base.value(pts[0])) * base.w / float(base.w @ base.w)
                    bundle = common_point_bundle(base, anchor, pts, cfg, count=count)
                blocks = [(node, bundle)]
            else:
                pa, pb, sep = points(node.a), points(node.b), node.separator
                blocks = [(node.a, same_classification_bundle(sep, pa, pb, count, cfg)),
                          (node.b, same_classification_bundle(sep.negated(), pb, pa, n, cfg))]
            for child, bundle in blocks:
                lifted = [transform_hyperplane(t, AffineMap(M[:n], c[:n])) for t in bundle]
                W = np.zeros((len(lifted), width))
                W[:, dims[:n]] = [t.w for t in lifted]
                rows.append(W)
                biases.append([t.b for t in lifted])
                owner.extend([gi] * len(bundle))
                start = sum(len(g[3]) for g in new)
                new.append((child, np.array([t.w for t in bundle]),
                            np.array([t.b for t in bundle]),
                            list(range(start, start + len(bundle)))))
        W, b, owner = np.vstack(rows), np.concatenate(biases), np.array(owner)
        if len(groups) > 1:
            for hi, h in enumerate(groups):
                other = owner != hi
                W[np.ix_(other, h[3])] = interference_avoiding_weights(
                    W[other], b[other], [h[3]], [images[hi]])
        layers.append(Layer(W, b))

        Z = A @ W.T + b
        for node, M, c, dims in new:
            leaves = sorted(node.leaves())
            own = np.isin(leaf_of_row, leaves)
            own_pre, foreign = Z[np.ix_(own, dims)], Z[np.ix_(~own, dims)]
            acts.append({"layer": layer_no, "leaves": leaves,
                         "own_min_preactivation": float(own_pre.min()),
                         "foreign_max_preactivation":
                             float(foreign.max()) if foreign.size else -np.inf})
            pts = points(node)
            witness = AffineMap(M[:n], c[:n])
            resid = float(np.max(np.abs(witness.apply(pts) - own_pre[:, :n])))
            fits.append({"layer": layer_no, "leaves": leaves, "residual": resid,
                         "witness_nonsingular": witness.is_nonsingular()})
            rank = numeric_rank(W[dims])
            ranks.append({"layer": layer_no, "leaves": leaves,
                          "rank_ok": rank >= min(n, len(dims)), "rank": rank})
        groups, width, A = new, len(b), np.where(Z > 1e-9, Z, 0.0)

    out_W = np.zeros((mu, width))
    for node, M, c, dims in groups:
        M = np.ascontiguousarray(np.vstack([M.T, c]))
        ranks.append({"layer": "output", "leaf": node.leaf, "columns": M.shape[1],
                      "rank": numeric_rank(M)})
        centroid = sets[node.leaf].mean(axis=0)
        M_c = M.copy()
        M_c[n] += centroid @ M[:n]
        amap = maps[node.leaf]
        for rho in range(mu):
            rhs = np.concatenate([amap.W[rho], [float(amap.b[rho])]])
            rhs[n] += float(centroid @ rhs[:n])
            if M.shape[1] == n + 1:
                x = np.linalg.solve(M_c, rhs)
                x += np.linalg.solve(M_c, rhs - M_c @ x)
            else:
                x = solve_constrained(M_c, rhs)
            out_W[rho, dims] = x
    layers.append(Layer(out_W, np.zeros(mu), "linear"))
    return layers, acts, fits, ranks


def assert_equals_reference(build, extras=None):
    layers, acts, fits, ranks = reference_deep(build.pwl, build.tree, extras)
    assert len(build.network.layers) == len(layers)
    for got, ref in zip(build.network.layers, layers):
        assert got.weights.tobytes() == ref.weights.tobytes()
        assert got.biases.tobytes() == ref.biases.tobytes()
    report = build.report
    assert report.activation_audits == acts
    assert report.affine_fit_residuals == fits
    assert [{k: v for k, v in a.items() if k != "sigma_min"}
            for a in report.rank_audits] == ranks


def _grown(build, r):
    """The build re-run with 1-3 extra units on every hidden layer, never
    fewer than on the layer before, so the widths still do not decrease."""
    extras = np.sort(r.integers(1, 4, size=len(build.network.layers) - 1)).tolist()
    return rebuild_deep_from_plan(build.report.plan, extras=extras), extras


@pytest.mark.parametrize("n", range(1, 6))
def test_stacked_pass_equals_the_per_group_loop_bit_for_bit(n):
    r = np.random.default_rng([n, 12])
    builds = []
    for mu, clusters in ((1, 5), (3, 4)):
        pwl = DiscretePWL(n, mu, tuple(
            (r.normal(size=(int(m), n)) * 0.8 + c,
             AffineMap(r.normal(size=(mu, n)), r.normal(size=mu)))
            for m, c in zip(r.integers(1, 5, size=clusters),
                            r.normal(size=(clusters, n)) * 10)))
        builds.append(deep_build(pwl, seed=n))
    for build in builds:
        assert_equals_reference(build)
        grown, extras = _grown(build, r)
        assert_equals_reference(grown, extras)


def test_stacked_pass_equals_the_per_group_loop_on_a_decoder_and_a_refined_tree():
    r = np.random.default_rng(20)
    decoder = decoder_build(r.normal(size=(7, 2)), r.uniform(size=(7, 20)), seed=3)
    assert decoder.network.output_dim == 20
    assert_equals_reference(decoder)
    assert_equals_reference(*_grown(decoder, r))
    # interleaved clusters on a line: no cut separates them, so the tree
    # is refined to singletons
    sets = [np.array([[0.0, 0.0], [3.0, 0.0]]), np.array([[1.0, 0.0], [4.0, 0.0]]),
            np.array([[2.0, 0.0], [5.0, 0.0]])]
    refined = deep_build(DiscretePWL(2, 2, tuple(
        (P, AffineMap(r.normal(size=(2, 2)), r.normal(size=2))) for P in sets)))
    assert len(refined.tree.subdomains) == 6
    assert_equals_reference(refined)


@pytest.mark.parametrize("nx, ny", [(4, 2), (4, 4), (8, 4)])
def test_svd_count_depends_on_the_layers_not_the_groups(svd_calls, nx, ny):
    # per hidden layer: the bundles, the witnesses and the blocks; then the
    # leaves' shifted matrices.
    # The per-group loop took about eight per group of each layer.
    build = deep_build(_jittered_grid(np.random.default_rng(1), nx, ny))
    del svd_calls[:]
    rebuild_deep_from_plan(build.report.plan)
    hidden = len(build.network.layers) - 1
    assert hidden == int(np.log2(nx * ny)) + 1
    assert len(svd_calls) == 3 * hidden + 1


def test_bundle_builder_runs_once_per_hidden_layer(family_calls):
    # split, pass-through and output bundles of a layer come from one call
    build = deep_build(cluster_fixture())
    hidden = len(build.network.layers) - 1
    assert hidden == 3
    assert len(family_calls) == hidden


def test_one_shifted_stack_per_leaf_width(shifted_calls):
    # the output layer shifts and ranks every leaf of one width together:
    # all leaves, or the widened first leaf and then the rest
    build = deep_build(cluster_fixture())
    n = build.pwl.dim
    assert shifted_calls == [(3, n + 1)]
    del shifted_calls[:]
    rebuild_deep_from_plan(build.report.plan, extras=[1, 1, 2])
    assert shifted_calls == [(1, n + 3), (2, n + 1)]


def test_rank_audits_carry_the_block_sigma_ratio():
    build = deep_build(cluster_fixture())
    blocks = [a for a in build.report.rank_audits if a["layer"] != "output"]
    leaves = [a for a in build.report.rank_audits if a["layer"] == "output"]
    assert len(leaves) == 3
    for audit in blocks:
        tags = build.stage_plan[audit["layer"] - 1]
        start, count = next(t["units"] for t in tags
                            if t.get("leaves", [t.get("leaf")]) == audit["leaves"])
        M = build.network.layers[audit["layer"] - 1].weights[start:start + count]
        s = np.linalg.svd(M, compute_uv=False)
        assert audit["sigma_min"] == pytest.approx(s[-1] / s[0], rel=1e-12)
    for audit in blocks + leaves:
        assert 0.0 < audit["sigma_min"] <= 1.0


def test_family_member_margin_failure_names_layer_leaf_point_and_margin():
    # at 2**52 + 1 one ulp is 1: the output bundle's first member moves the
    # y weight by 0.5, and x - 0.5 rounds to even, onto x - 1, so with the
    # bias 1 - x the member passes through the point with margin 0
    x = 2.0 ** 52 + 1
    pwl = DiscretePWL(2, 1, ((np.array([[x, -1.0]]), AffineMap.constant([1.0], 2)),))
    with pytest.raises(MarginError, match=r"layer 1 \(output leaf 0\): family member 1 "
                                          r"margin 0 at point \[4503599627370497.0, -1.0\]"
                       ) as err:
        deep_build(pwl)
    assert (err.value.stage, err.value.subdomain, err.value.margin) == (1, 0, 0.0)
    assert err.value.point.tolist() == [x, -1.0]


def test_block_rank_failure_names_layer_and_leaves():
    # two 2-point sets 1e5 from the origin and 1 apart: the split bundle's
    # bias row is 1e5 times its member's step, so its stacked (w, b)
    # columns have a sigma ratio far below 1e-9
    far = 1e5
    pwl = DiscretePWL(2, 1, (
        (np.array([[far, far], [far, far + 1]]), AffineMap.constant([1.0], 2)),
        (np.array([[far + 1, far], [far + 1, far + 1]]), AffineMap.constant([2.0], 2)),
    ))
    with pytest.raises(RankDeficientError,
                       match=r"layer 1 \(leaves \[0\]\): bundle matrix rank 1 < 2") as err:
        deep_build(pwl)
    assert err.value.rank == 1
    # the output leaf's matrix [[1, 1], [1 - x, 1.5 - x]] at x = 1e5
    pwl = DiscretePWL(1, 1, ((np.array([[0.0]]), AffineMap.constant([1.0], 1)),
                             (np.array([[far]]), AffineMap.constant([2.0], 1))))
    with pytest.raises(RankDeficientError,
                       match=r"layer 2 \(output leaf 1\): bundle matrix rank 1 < 2"):
        deep_build(pwl)


def _carried_builds():
    r = np.random.default_rng(7)
    return [deep_build(cluster_fixture()),
            deep_build(_gaussian_clusters(r, 3, 12), seed=2),
            deep_build(_jittered_grid(r, 8, 4), seed=1),
            decoder_build(r.normal(size=(9, 2)), r.uniform(size=(9, 5)), seed=3)]


def test_audits_read_the_network_that_ships_bit_for_bit():
    # each block's own minimum and foreign maximum are those of a separate
    # forward pass through the built network, not of the frames' images
    for build in _carried_builds():
        net, pwl = build.network, build.pwl
        leaf_of_row = np.repeat(np.arange(len(pwl.subdomains)),
                                [len(p) for p, _ in pwl.subdomains])
        audits = iter(build.report.activation_audits)
        for k, (layer, tags) in enumerate(zip(net.layers, build.stage_plan)):
            inputs = forward_batch(Network(net.input_dim, net.layers[:k]), pwl.all_points())
            Z = layer.preactivation(inputs)
            for tag in tags:
                audit = next(audits)
                leaves = tag.get("leaves", [tag.get("leaf")])
                assert audit["leaves"] == leaves
                start, count = tag["units"]
                block = Z[:, start:start + count]
                own = np.isin(leaf_of_row, leaves)
                foreign = block[~own].max() if (~own).any() else -np.inf
                assert audit["own_min_preactivation"] == block[own].min()
                assert audit["foreign_max_preactivation"] == foreign
        assert next(audits, None) is None


def test_max_residual_is_the_forward_pass_residual_bit_for_bit():
    for build in _carried_builds():
        out = forward_batch(build.network, build.pwl.all_points())
        assert build.report.max_residual == np.abs(out - build.pwl.all_targets()).max()


def test_failed_residual_check_carries_the_report(monkeypatch):
    all_targets = DiscretePWL.all_targets
    monkeypatch.setattr(DiscretePWL, "all_targets", lambda pwl: all_targets(pwl) - 1e-6)
    with pytest.raises(BuildFailure, match="synthesis residual 1e-06 above 1e-8") as err:
        deep_build(cluster_fixture())
    report = err.value.report
    assert report.max_residual == pytest.approx(1e-6, rel=1e-6)
    assert report.architecture == "2(1)4(1)6(1)9(1)1'(1)"
    assert report.plan["kind"] == "deep"
