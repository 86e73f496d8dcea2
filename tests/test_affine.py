import numpy as np
import pytest

from relusynth.core import (
    AffineMap,
    DiscretePWL,
    Hyperplane,
    Layer,
    forward_batch,
    supporting_hyperplane,
)
import relusynth.affine as affine_module
from relusynth.affine import (
    decompose_embedding,
    embedding_from_affine,
    interference_avoiding_weights,
    lift_hyperplane,
    passthrough_layer,
    restrict_hyperplane,
    transform_hyperplane,
    widen_network,
)
from relusynth.shallow import interpolation_build, multi_output_build
from relusynth.bundles import common_point_bundle
from relusynth.deep import deep_build


def activating_layer(rng, m, n, points):
    W = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    b += 1.0 - (points @ W.T + b).min()
    return Layer(W, b, "relu")


def test_decompose_identity_pivot_block():
    layer = Layer(np.vstack([np.eye(2), [[1.0, 1.0]]]), [0.5, -0.2, 3.0], "relu")
    D = np.array([[3.0, 3.0], [4.0, 3.5], [3.5, 4.0]])
    emb = embedding_from_affine(layer.weights, layer.biases, pivot_rows=(0, 1))
    assert emb.W_c == pytest.approx(np.array([[1.0, 1.0]]))
    # complement bias: b_r - W_c b_n
    assert emb.b_c == pytest.approx([3.0 - (0.5 - 0.2)])
    full = decompose_embedding(layer, D)
    images = D @ layer.weights.T + layer.biases
    rec = full.reconstruct(images[:, list(full.pivot_rows)])
    assert np.abs(rec - images).max() <= 1e-9


def test_decompose_random_reconstruction(rng):
    pts = rng.normal(size=(10, 2))
    layer = activating_layer(rng, 5, 2, pts)
    emb = decompose_embedding(layer, pts)
    images = pts @ layer.weights.T + layer.biases
    rec = emb.reconstruct(images[:, list(emb.pivot_rows)])
    assert np.abs(rec - images).max() <= 1e-9


def test_decompose_partial_activation_rejected(rng):
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    layer = Layer([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 5.0, 5.0], "relu")
    with pytest.raises(ValueError, match="simultaneously"):
        decompose_embedding(layer, pts)


def test_decompose_third_coordinate_recovered(rng):
    # m = 3, n = 2: the dependent unit's output is an affine function
    # A x' + B y' + C of the pivot outputs
    pts = rng.normal(size=(8, 2))
    layer = activating_layer(rng, 3, 2, pts)
    emb = decompose_embedding(layer, pts)
    images = pts @ layer.weights.T + layer.biases
    xp = images[:, list(emb.pivot_rows)]
    free = images[:, list(emb.free_rows)]
    A, B = emb.W_c[0]
    C = emb.b_c[0]
    assert np.abs(A * xp[:, 0] + B * xp[:, 1] + C - free[:, 0]).max() <= 1e-9


def test_restrict_pivot_only_hyperplane(rng):
    M = np.vstack([np.eye(2), np.zeros((2, 2))])
    emb = embedding_from_affine(M, np.zeros(4), pivot_rows=(0, 1))
    h = Hyperplane([2.0, -1.0, 0.0, 0.0], 0.7)
    r = restrict_hyperplane(h, emb)
    assert r.w == pytest.approx([2.0, -1.0])
    assert r.b == pytest.approx(0.7)


def test_restrict_dual_evaluation(rng):
    for _ in range(10):
        n, m = 2, 5
        M = rng.normal(size=(m, n))
        c = rng.normal(size=m)
        emb = embedding_from_affine(M, c)
        h = Hyperplane(rng.normal(size=m), rng.normal())
        r = restrict_hyperplane(h, emb)
        X = rng.normal(size=(50, n))
        imgs = X @ M.T + c
        xp = imgs[:, list(emb.pivot_rows)]
        assert np.abs(h.value(imgs) - r.value(xp)).max() <= 1e-10


def test_restrict_formula_symbolic(rng):
    M = rng.normal(size=(4, 2))
    c = rng.normal(size=4)
    emb = embedding_from_affine(M, c)
    h = Hyperplane(rng.normal(size=4), rng.normal())
    r = restrict_hyperplane(h, emb)
    w_n = h.w[list(emb.pivot_rows)]
    w_c = h.w[list(emb.free_rows)]
    assert r.w == pytest.approx(w_n + emb.W_c.T @ w_c)
    assert r.b == pytest.approx(float(w_c @ emb.b_c) + h.b)


def test_restrict_parallel_subspace_rejected():
    M = np.vstack([np.eye(2), np.zeros((1, 2))])
    emb = embedding_from_affine(M, np.zeros(3), pivot_rows=(0, 1))
    # weight only on the constant-zero free row: pullback weight vanishes
    with pytest.raises(ValueError, match="parallel"):
        restrict_hyperplane(Hyperplane([0.0, 0.0, 1.0], 0.5), emb)


def test_lift_with_zero_complement(rng):
    M = np.vstack([np.eye(2), np.zeros((2, 2))])
    emb = embedding_from_affine(M, np.array([0.0, 0.0, 1.0, 2.0]),
                                pivot_rows=(0, 1))
    t = Hyperplane([1.5, -0.5], 0.3)
    lifted = lift_hyperplane(t, emb, free_values=np.zeros(2))
    assert lifted.w == pytest.approx([1.5, -0.5, 0.0, 0.0])
    assert lifted.b == pytest.approx(0.3)


def test_lift_restrict_roundtrip(rng):
    hits = 0
    while hits < 100:
        m = int(rng.integers(3, 7))
        n = int(rng.integers(1, m))
        M = rng.normal(size=(m, n))
        c = rng.normal(size=m)
        emb = embedding_from_affine(M, c)
        t = Hyperplane(rng.normal(size=n), rng.normal())
        lifted = lift_hyperplane(t, emb)
        back = restrict_hyperplane(lifted, emb)
        assert np.abs(back.w - t.w).max() <= 1e-9 * (1 + np.abs(t.w).max())
        assert abs(back.b - t.b) <= 1e-9 * (1 + abs(t.b))
        hits += 1


def test_lift_with_interference_weights(rng):
    # the foreign dimension is a zero row of the embedded image (as in the
    # deep pipeline), so fixing its weight cannot disturb the restriction
    M = np.vstack([np.eye(2), np.zeros((1, 2))])
    c = np.zeros(3)
    emb = embedding_from_affine(M, c, pivot_rows=(0, 1))
    foreign = np.abs(rng.normal(size=(4, 3))) + 0.5
    t = Hyperplane([1.0, 0.5], -2.0)
    partial = lift_hyperplane(t, emb, free_values=np.zeros(1))
    w_free = interference_avoiding_weights(partial.w, partial.b, [2], foreign)
    lifted = lift_hyperplane(t, emb, free_values=np.array([w_free]))
    back = restrict_hyperplane(lifted, emb)
    assert np.abs(back.w - t.w).max() <= 1e-9
    assert (foreign @ lifted.w + lifted.b < 0).all()


def _scattered_foreign_groups(rng, own, sizes):
    """Foreign groups' images in one layer: each positive on its own
    dimensions and zero on every other one, after ``own`` protected ones."""
    width = own + sum(sizes)
    dims, images = [], []
    start = own
    for k in sizes:
        d = list(range(start, start + k))
        img = np.zeros((int(rng.integers(1, 7)), width))
        img[:, d] = rng.uniform(0.1, 5.0, size=(img.shape[0], k))
        dims.append(d)
        images.append(img)
        start += k
    return width, dims, images


def test_interference_block_equals_row_by_row_calls(rng):
    for _ in range(50):
        sizes = rng.integers(1, 5, size=int(rng.integers(1, 6)))
        own = int(rng.integers(1, 4))
        width, dims, images = _scattered_foreign_groups(rng, own, sizes)
        W = rng.normal(size=(int(rng.integers(1, 6)), width)) * 10
        b = rng.normal(size=W.shape[0]) * 10
        block = interference_avoiding_weights(W, b, dims, images)
        rows = np.empty((W.shape[0], len(dims)))
        for i in range(W.shape[0]):
            w = W[i].copy()
            for j, (d, img) in enumerate(zip(dims, images)):
                rows[i, j] = interference_avoiding_weights(w, b[i], d, img)
                w[d] = rows[i, j]
        assert block.shape == rows.shape
        assert block.tobytes() == rows.tobytes()


def test_interference_block_rejects_nonpositive_off_coordinate(rng):
    width, dims, images = _scattered_foreign_groups(rng, 2, [2, 3])
    images[1][0, dims[1][1]] = 0.0
    with pytest.raises(ValueError, match="nonpositive coordinate"):
        interference_avoiding_weights(rng.normal(size=(3, width)), np.ones(3),
                                      dims, images)


def test_transform_preserves_preactivation(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5))
        W = rng.normal(size=(n, n)) + 3 * np.eye(n)
        amap = AffineMap(W, rng.normal(size=n))
        h = Hyperplane(rng.normal(size=n), rng.normal())
        h2 = transform_hyperplane(h, amap)
        x = rng.normal(size=n)
        assert h.value(x) == pytest.approx(h2.value(amap.apply(x)), abs=1e-10)


def test_transform_requires_nonsingular():
    with pytest.raises(ValueError):
        transform_hyperplane(Hyperplane([1.0, 0.0], 0.0),
                             AffineMap(np.zeros((2, 2)), np.zeros(2)))


def test_passthrough_affine_equivalence_no_foreign(rng):
    pts = rng.normal(size=(8, 2)) + 5
    layer0 = activating_layer(rng, 4, 2, pts)
    emb = decompose_embedding(layer0, pts)
    images = np.maximum(pts @ layer0.weights.T + layer0.biases, 0.0)
    block = passthrough_layer(emb, images)
    out = np.maximum(images @ block.weights.T + block.biases, 0.0)
    from relusynth.core import affine_fit
    fit, resid = affine_fit(pts, out[:, :2])
    assert resid <= 1e-8
    assert fit.is_nonsingular()


def test_passthrough_darkens_foreign_group(rng):
    emb = embedding_from_affine(np.vstack([np.eye(2), np.zeros((1, 2))]), np.zeros(3),
                                pivot_rows=(0, 1))
    own = np.column_stack([rng.normal(size=(6, 2)) + 5, np.zeros(6)])
    foreign = np.zeros((4, 3))
    foreign[:, 2] = rng.uniform(1.0, 3.0, size=4)
    block = passthrough_layer(emb, own, foreign=[([2], foreign)])
    assert (foreign @ block.weights.T + block.biases < 0).all()
    assert (own @ block.weights.T + block.biases > 0).all()


def test_passthrough_rejects_images_off_the_subspace(rng):
    pts = rng.normal(size=(8, 2)) + 5
    layer0 = activating_layer(rng, 4, 2, pts)
    emb = decompose_embedding(layer0, pts)
    images = np.maximum(pts @ layer0.weights.T + layer0.biases, 0.0)
    images[0, emb.free_rows[0]] += 1e-3
    with pytest.raises(ValueError, match="^images do not lie on the embedded subspace$"):
        passthrough_layer(emb, images)


def test_passthrough_rejects_a_foreign_point_left_active(monkeypatch, rng):
    # interference weights far above the bound leave the foreign group lit
    emb = embedding_from_affine(np.vstack([np.eye(2), np.zeros((1, 2))]), np.zeros(3),
                                pivot_rows=(0, 1))
    own = np.column_stack([rng.normal(size=(6, 2)) + 5, np.zeros(6)])
    foreign = np.zeros((4, 3))
    foreign[:, 2] = rng.uniform(1.0, 3.0, size=4)
    monkeypatch.setattr(affine_module, "interference_avoiding_weights",
                        lambda W, b, dims, images: np.full((len(W), len(dims)), 100.0))
    with pytest.raises(RuntimeError, match="^a foreign point is not strictly deactivated$"):
        passthrough_layer(emb, own, foreign=[([2], foreign)])


def member_by_member_passthrough(emb, images, foreign=(), count=None):
    """The pass-through block built member by member: the common-point
    family in pivot coordinates, each member lifted with zero weights on
    the free rows, then the interference weights."""
    x = images[:, list(emb.pivot_rows)]
    base = supporting_hyperplane(x)
    anchor = x[0] - float(base.value(x[0])) * base.w / float(base.w @ base.w)
    lifted = [lift_hyperplane(t, emb, free_values=np.zeros(len(emb.free_rows)))
              for t in common_point_bundle(base, anchor, x, count=count)]
    W = np.array([t.w for t in lifted])
    b = np.array([t.b for t in lifted])
    if foreign:
        dims = [d for d, _ in foreign]
        weights = interference_avoiding_weights(W, b, dims, [img for _, img in foreign])
        W[:, np.concatenate(dims)] = np.repeat(weights, [len(d) for d in dims], axis=1)
    return W, b


@pytest.mark.parametrize("n, foreign_dims, count", [
    (1, 0, None), (2, 0, 4), (2, 2, None), (3, 1, 5), (4, 2, 6), (5, 0, None),
])
def test_passthrough_equals_the_member_by_member_lift(n, foreign_dims, count):
    rng = np.random.default_rng([n, foreign_dims])
    m = n + 2
    pts = rng.normal(size=(n + 3, n)) * 2 + 4
    layer0 = activating_layer(rng, m, n, pts)
    M = np.vstack([layer0.weights, np.zeros((foreign_dims, n))])
    c = np.concatenate([layer0.biases, np.zeros(foreign_dims)])
    emb = embedding_from_affine(M, c)
    images = pts @ M.T + c
    foreign = ()
    if foreign_dims:
        X = np.zeros((4, m + foreign_dims))
        X[:, m:] = rng.uniform(1.0, 3.0, size=(4, foreign_dims))
        foreign = [(list(range(m, m + foreign_dims)), X)]
    block = passthrough_layer(emb, images, foreign=foreign, count=count)
    W, b = member_by_member_passthrough(emb, images, foreign, count)
    assert block.weights.tobytes() == W.tobytes()
    assert block.biases.tobytes() == b.tobytes()


def test_passthrough_chain_depth_three(rng):
    from relusynth.core import affine_fit
    pts = rng.normal(size=(8, 2)) + 5
    layer0 = activating_layer(rng, 4, 2, pts)
    images = np.maximum(pts @ layer0.weights.T + layer0.biases, 0.0)
    emb = decompose_embedding(layer0, pts)
    widths = [5, 4, 6]
    for depth, m_next in enumerate(widths):
        block = passthrough_layer(emb, images)
        images = np.maximum(images @ block.weights.T + block.biases, 0.0)
        fit, resid = affine_fit(pts, images[:, :2])
        assert resid <= 1e-8
        assert fit.is_nonsingular()
        # re-embed through a fresh wide layer to continue the chain
        pad = np.zeros((m_next - 2, 2))
        M = np.vstack([np.eye(2), rng.normal(size=(m_next - 2, 2))])
        c = np.concatenate([np.zeros(2), rng.uniform(5, 9, size=m_next - 2)])
        emb = embedding_from_affine(M @ np.eye(2), c, pivot_rows=(0, 1))
        images = emb.reconstruct(images[:, :2])


def test_passthrough_zeroes_foreign_group(rng):
    # one group transmitted, the other strictly dark on the new units
    pwl = DiscretePWL(2, 1, (
        (np.array([[0.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
         AffineMap([[1.0, 0.5]], [0.3])),
        (np.array([[2.0, 0.0], [2.0, 1.0], [2.5, 0.5]]),
         AffineMap([[0.2, -1.0]], [1.0])),
        (np.array([[6.0, 0.0], [6.0, 1.0], [6.5, 0.5]]),
         AffineMap([[-0.7, 0.1]], [-0.5])),
    ))
    build = deep_build(pwl)
    net = build.network
    # layer 2 contains a pass-through block for the third cluster
    tags = build.stage_plan[1]
    pass_tag = next(t for t in tags if t["kind"] == "passthrough")
    start, count = pass_tag["units"]
    X12 = np.vstack([pwl.subdomains[0][0], pwl.subdomains[1][0]])
    X3 = pwl.subdomains[2][0]
    h1 = np.maximum(X12 @ net.layers[0].weights.T + net.layers[0].biases, 0.0)
    h3 = np.maximum(X3 @ net.layers[0].weights.T + net.layers[0].biases, 0.0)
    out12 = np.maximum(h1 @ net.layers[1].weights.T + net.layers[1].biases, 0.0)
    out3 = np.maximum(h3 @ net.layers[1].weights.T + net.layers[1].biases, 0.0)
    assert (out12[:, start:start + count] == 0.0).all()
    assert (out3[:, start:start + count] > 0.0).all()


def test_widen_identity_is_bit_identical(rng):
    pts = rng.normal(size=(5, 2))
    build = interpolation_build(pts, rng.normal(size=5))
    same = widen_network(build, target_widths=[build.network.layers[0].units])
    for a, b in zip(build.network.layers, same.network.layers):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.biases.tobytes() == b.biases.tobytes()


def test_widen_shallow_preserves_outputs(rng):
    pts = rng.normal(size=(5, 2))
    vals = rng.normal(size=5)
    build = interpolation_build(pts, vals)
    wider = widen_network(build, uniform=24)
    assert wider.network.layers[0].units == 24
    diff = forward_batch(wider.network, pts) - forward_batch(build.network, pts)
    assert np.abs(diff).max() <= 1e-8


def test_widen_deep_uniform_architecture(rng):
    pwl = DiscretePWL(2, 1, (
        (np.array([[0.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
         AffineMap([[1.0, 0.5]], [0.3])),
        (np.array([[2.0, 0.0], [2.0, 1.0], [2.5, 0.5]]),
         AffineMap([[0.2, -1.0]], [1.0])),
        (np.array([[6.0, 0.0], [6.0, 1.0], [6.5, 0.5]]),
         AffineMap([[-0.7, 0.1]], [-0.5])),
    ))
    build = deep_build(pwl)
    wide = widen_network(build, uniform=12)
    assert wide.network.architecture() == "2(1)12(3)1'(1)"
    X = pwl.all_points()
    diff = forward_batch(wide.network, X) - forward_batch(build.network, X)
    assert np.abs(diff).max() <= 1e-8


def test_widen_multi_output_per_coordinate(rng):
    pts = rng.normal(size=(4, 2)) * 2
    T = rng.normal(size=(4, 3))
    subs = tuple((p[None, :], AffineMap.constant(t, 2)) for p, t in zip(pts, T))
    build = multi_output_build(DiscretePWL(2, 3, subs))
    wide = widen_network(build, uniform=20)
    diff = forward_batch(wide.network, pts) - forward_batch(build.network, pts)
    assert np.abs(diff).max() <= 1e-8


def test_widen_below_existing_rejected(rng):
    pts = rng.normal(size=(4, 2))
    build = interpolation_build(pts, rng.normal(size=4))
    with pytest.raises(ValueError):
        widen_network(build, target_widths=[5])
    with pytest.raises(ValueError):
        widen_network(build, target_widths=[12, 12])


def test_preactivation_invariance_under_affine_maps(rng):
    # random (point, hyperplane, nonsingular map) triples keep their
    # preactivation under the coordinate change
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        W = rng.normal(size=(n, n)) + 3 * np.eye(n)
        amap = AffineMap(W, rng.normal(size=n))
        h = Hyperplane(rng.normal(size=n), rng.normal())
        x = rng.normal(size=n)
        h2 = transform_hyperplane(h, amap)
        assert abs(h.value(x) - h2.value(amap.apply(x))) <= 1e-10
