"""Acceptance criteria, one test per criterion, each printing a verdict line.

Tolerances are pinned here; run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import time

import numpy as np

from relusynth.core import (
    AffineMap,
    DiscretePWL,
    Hyperplane,
    forward_batch,
)
from relusynth.arrangement import (
    Arrangement,
    count_regions_2d,
    count_regions_bound,
    enumerate_regions,
    general_position,
)
from relusynth.affine import (
    embedding_from_affine,
    lift_hyperplane,
    passthrough_layer,
    decompose_embedding,
    restrict_hyperplane,
    transform_hyperplane,
    widen_network,
)
from relusynth.shallow import (
    classifier_build,
    interpolation_build,
    multi_output_build,
    resolve_output_unit,
)
from relusynth.deep import decoder_build, deep_build
from relusynth.randmat import SphereSampler, rank_probability

DELTA = 1e-6


def report_line(criterion, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def cluster_fixture():
    return DiscretePWL(2, 1, (
        (np.array([[0.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
         AffineMap([[1.0, 0.5]], [0.3])),
        (np.array([[2.0, 0.0], [2.0, 1.0], [2.5, 0.5]]),
         AffineMap([[0.2, -1.0]], [1.0])),
        (np.array([[6.0, 0.0], [6.0, 1.0], [6.5, 0.5]]),
         AffineMap([[-0.7, 0.1]], [-0.5])),
    ))


def random_cluster_pwl(r, n_max=3, max_subdomains=6):
    n = int(r.integers(2, n_max + 1))
    k = int(r.integers(2, max_subdomains + 1))
    centers = r.normal(size=(k, n)) * 10
    subs = []
    for c in centers:
        pts = r.normal(size=(int(r.integers(1, 5)), n)) * 0.8 + c
        subs.append((pts, AffineMap(r.normal(size=(1, n)), r.normal(size=1))))
    return DiscretePWL(n, 1, tuple(subs))


def test_criterion_1_region_count_reproduction():
    t0 = time.monotonic()
    arr = Arrangement(2, [Hyperplane([1, 0], 0), Hyperplane([0, 1], 0),
                          Hyperplane([1, 1], -1)])
    formula = count_regions_2d(arr)
    enumerated = len(enumerate_regions(arr))
    elapsed = time.monotonic() - t0
    ok = formula == 7 and enumerated == 7 and elapsed < 1.0
    report_line(1, ok, f"(formula={formula}, enumerated={enumerated}, {elapsed:.2f}s)")


def test_criterion_2_formula_consistency():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    ok = True
    for _ in range(70):  # 2-d instances against the closed form
        m = int(rng.integers(3, 9))
        arr = Arrangement(2, [Hyperplane(rng.normal(size=2), rng.normal())
                              for _ in range(m)])
        if len(enumerate_regions(arr)) != count_regions_2d(arr):
            ok = False
        checked += 1
    for _ in range(30):  # 3-d general-position instances against the bound
        m = int(rng.integers(3, 7))
        while True:
            arr = Arrangement(3, [Hyperplane(rng.normal(size=3), rng.normal())
                                  for _ in range(m)])
            if general_position(arr):
                break
        if len(enumerate_regions(arr)) != count_regions_bound(3, m):
            ok = False
        checked += 1
    elapsed = time.monotonic() - t0
    ok = ok and checked >= 100 and elapsed < 30.0
    report_line(2, ok, f"({checked} arrangements, {elapsed:.1f}s)")


def test_criterion_3_three_layer_exactness():
    t0 = time.monotonic()
    worst = 0.0
    ok = True
    count = 0
    for trial in range(50):
        r = np.random.default_rng(300 + trial)
        n = int(r.integers(1, 5))
        nu = int(r.integers(2, 26))
        pts = r.normal(size=(nu, n)) * 3
        vals = r.normal(size=nu)
        build = interpolation_build(pts, vals, seed=trial)
        resid = float(np.max(np.abs(
            forward_batch(build.network, pts)[:, 0] - vals)))
        worst = max(worst, resid)
        if resid > 1e-8 or build.network.layers[0].units != nu * (n + 1):
            ok = False
        count += 1
    elapsed = time.monotonic() - t0
    ok = ok and count >= 50 and elapsed < 60.0
    report_line(3, ok, f"({count} instances, worst residual {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_4_multi_output_sharing():
    rng = np.random.default_rng(44)
    pts = rng.normal(size=(6, 2)) * 2
    T = rng.normal(size=(6, 2))
    subs = tuple((p[None, :], AffineMap.constant(t, 2)) for p, t in zip(pts, T))
    build = multi_output_build(DiscretePWL(2, 2, subs))
    new_targets = rng.normal(size=6)
    updated = resolve_output_unit(build, 1, new_targets)
    unchanged = (updated.layers[1].weights[0].tobytes()
                 == build.network.layers[1].weights[0].tobytes())
    out = forward_batch(updated, pts)
    resid = max(float(np.max(np.abs(out[:, 0] - T[:, 0]))),
                float(np.max(np.abs(out[:, 1] - new_targets))))
    ok = unchanged and resid <= 1e-8
    report_line(4, ok, f"(unit-1 weights byte-identical={unchanged}, residual {resid:.2e})")


def test_criterion_5_classifier():
    ok = True
    for trial in range(20):
        r = np.random.default_rng(500 + trial)
        mu = int(r.integers(2, 5))
        per = int(r.integers(2, 30 // mu + 1))
        centers = r.normal(size=(mu, 2)) * 8
        pts = np.vstack([r.normal(size=(per, 2)) * 0.7 + c for c in centers])
        labels = np.repeat(np.arange(mu), per)
        build = classifier_build(pts, labels, seed=trial)
        out = forward_batch(build.network, pts)
        for i, c in enumerate(labels):
            if out[i, c] <= 0:
                ok = False
            if max(out[i, o] for o in range(mu) if o != c) > 1e-9:
                ok = False
        if not (out.argmax(axis=1) == labels).all():
            ok = False
    report_line(5, ok, "(20 instances, one-hot sign pattern and argmax exact)")


def test_criterion_6_deep_synthesis():
    build = deep_build(cluster_fixture())
    arch_ok = build.network.architecture() == "2(1)4(1)6(1)9(1)1'(1)"
    resid_ok = build.report.max_residual <= 1e-8
    audit_ok = all(a["foreign_max_preactivation"] <= -DELTA / 2
                   for a in build.report.activation_audits)
    ok = arch_ok and resid_ok and audit_ok
    worst = build.report.max_residual
    for trial in range(20):
        r = np.random.default_rng(100 + trial)
        pwl = random_cluster_pwl(r)
        b = deep_build(pwl, seed=trial)
        worst = max(worst, b.report.max_residual)
        widths = [l.units for l in b.network.layers[:-1]]
        if b.report.max_residual > 1e-8 or widths != sorted(widths):
            ok = False
    report_line(6, ok, f"(fixture architecture={build.network.architecture()}, "
                f"worst residual {worst:.2e})")


def test_criterion_7_interference_guarantee():
    worst = -np.inf
    builds = [deep_build(cluster_fixture())]
    for trial in range(20):
        r = np.random.default_rng(100 + trial)
        builds.append(deep_build(random_cluster_pwl(r), seed=trial))
    codes = np.random.default_rng(77).normal(size=(5, 2))
    targets = np.random.default_rng(78).normal(size=(5, 3))
    builds.append(decoder_build(codes, targets))
    violations = 0
    for b in builds:
        for a in b.report.activation_audits:
            worst = max(worst, a["foreign_max_preactivation"])
            if a["foreign_max_preactivation"] > -DELTA / 2:
                violations += 1
    ok = violations == 0
    report_line(7, ok, f"(worst foreign preactivation {worst:.3e}, "
                f"{violations} violations across {len(builds)} builds)")


def test_criterion_8_affine_machinery():
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(100):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(1, m))
        M = rng.normal(size=(m, n))
        c = rng.normal(size=m)
        emb = embedding_from_affine(M, c)
        t = Hyperplane(rng.normal(size=n), rng.normal())
        back = restrict_hyperplane(lift_hyperplane(t, emb), emb)
        err = max(float(np.max(np.abs(back.w - t.w))), abs(back.b - t.b))
        if err > 1e-9 * (1 + float(np.max(np.abs(t.w))) + abs(t.b)):
            ok = False
    # pass-through chain of depth 3 preserves affine equivalence
    from relusynth.core import Layer, affine_fit
    pts = rng.normal(size=(8, 2)) + 5
    W0 = rng.normal(size=(4, 2))
    b0 = rng.normal(size=4)
    b0 += 1.0 - (pts @ W0.T + b0).min()
    layer0 = Layer(W0, b0, "relu")
    emb = decompose_embedding(layer0, pts)
    images = np.maximum(pts @ W0.T + b0, 0.0)
    chain_ok = True
    for _ in range(3):
        block = passthrough_layer(emb, images)
        images = np.maximum(images @ block.weights.T + block.biases, 0.0)
        fit, resid = affine_fit(pts, images[:, :2])
        det = abs(np.linalg.det(fit.W))
        if resid > 1e-8 or det <= 1e-9:
            chain_ok = False
        M = np.vstack([np.eye(2), rng.normal(size=(2, 2))])
        c = np.concatenate([np.zeros(2), rng.uniform(5, 9, size=2)])
        emb = embedding_from_affine(M, c, pivot_rows=(0, 1))
        images = emb.reconstruct(images[:, :2])
    ok = ok and chain_ok
    report_line(8, ok, "(100 round trips to 1e-9; depth-3 chain fit to 1e-8)")


def test_criterion_9_overparameterization_invariance():
    rng = np.random.default_rng(99)
    diffs = []
    # shallow single-output
    pts = rng.normal(size=(5, 2))
    vals = rng.normal(size=5)
    sb = interpolation_build(pts, vals)
    wide = widen_network(sb, uniform=24)
    diffs.append(float(np.max(np.abs(
        forward_batch(wide.network, pts) - forward_batch(sb.network, pts)))))
    # deep single-output to the uniform-width shape
    db = deep_build(cluster_fixture())
    dware = widen_network(db, uniform=12)
    X = db.pwl.all_points()
    diffs.append(float(np.max(np.abs(
        forward_batch(dware.network, X) - forward_batch(db.network, X)))))
    assert dware.network.architecture() == "2(1)12(3)1'(1)"
    # multi-output widen
    T = rng.normal(size=(4, 3))
    pts3 = rng.normal(size=(4, 2)) * 2
    subs = tuple((p[None, :], AffineMap.constant(t, 2)) for p, t in zip(pts3, T))
    mb = multi_output_build(DiscretePWL(2, 3, subs))
    mwide = widen_network(mb, uniform=18)
    diffs.append(float(np.max(np.abs(
        forward_batch(mwide.network, pts3) - forward_batch(mb.network, pts3)))))
    worst = max(diffs)
    ok = worst <= 1e-8
    report_line(9, ok, f"(max output change across widenings {worst:.2e})")


def test_criterion_10_decoder():
    worst = 0.0
    ok = True
    for trial in range(10):
        r = np.random.default_rng(500 + trial)
        ne = int(r.integers(1, 4))
        nt = int(r.integers(ne + 1, 10))
        kc = int(r.integers(2, 9))
        codes = r.normal(size=(kc, ne))
        targets = r.normal(size=(kc, nt))
        build = decoder_build(codes, targets, seed=trial)
        resid = float(np.max(np.abs(
            forward_batch(build.network, codes) - targets)))
        worst = max(worst, resid)
        widths = [l.units for l in build.network.layers[:-1]]
        if resid > 1e-8 or widths != sorted(widths):
            ok = False
    report_line(10, ok, f"(10 decoders, worst residual {worst:.2e})")


def test_criterion_11_monte_carlo_rank():
    t0 = time.monotonic()
    ok = True
    details = []
    for n, m in [(2, 2), (3, 3), (3, 5), (4, 8)]:
        stats = rank_probability(SphereSampler(n, seed=7), m, trials=100000,
                                 tol=1e-9)
        details.append(f"(n={n},m={m}):{stats['full_rank_fraction']}")
        if stats["full_rank_fraction"] != 1.0:
            ok = False
        if "near_singular_count" not in stats:
            ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    report_line(11, ok, f"({' '.join(details)}, {elapsed:.1f}s)")


def test_criterion_12_preactivation_invariance():
    rng = np.random.default_rng(1212)
    worst = 0.0
    for _ in range(10000):
        n = int(rng.integers(1, 5))
        W = rng.normal(size=(n, n)) + 3 * np.eye(n)
        amap = AffineMap(W, rng.normal(size=n))
        h = Hyperplane(rng.normal(size=n), rng.normal())
        x = rng.normal(size=n)
        h2 = transform_hyperplane(h, amap)
        worst = max(worst, abs(float(h.value(x)) - float(h2.value(amap.apply(x)))))
    ok = worst <= 1e-10
    report_line(12, ok, f"(10000 triples, worst deviation {worst:.2e})")
