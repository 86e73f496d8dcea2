import numpy as np
import pytest

from relusynth.core import (
    ACTIVATION_TOL,
    AffineMap,
    DiscretePWL,
    Hyperplane,
    Layer,
    Network,
    RankDeficientError,
    forward,
    forward_batch,
    numeric_rank,
    solve_constrained,
)
from relusynth.bundles import BundleConfig, MarginError
from relusynth.ordering import DistinguishableOrder, projection_order
from relusynth.report import BuildFailure
import relusynth.shallow as shallow_module
from relusynth.shallow import (
    GeometryError,
    UniformityError,
    build_staircase,
    interpolation_build,
    classifier_build,
    multi_output_build,
    rebuild_from_plan,
    resolve_output_unit,
    synth_classifier,
    synth_interpolate,
    synth_multi_output,
    synth_two_subdomains,
)


def two_cluster_pwl(rng, n=2, per_side=4):
    D1 = rng.normal(size=(per_side, n)) * 0.6
    D2 = rng.normal(size=(per_side, n)) * 0.6
    D2[:, 0] += 8.0
    m1 = AffineMap(rng.normal(size=(1, n)), rng.normal(size=1))
    m2 = AffineMap(rng.normal(size=(1, n)), rng.normal(size=1))
    return DiscretePWL(n, 1, ((D1, m1), (D2, m2)))


def test_two_subdomains_singleton_constants():
    pwl = DiscretePWL(1, 1, (
        (np.array([[0.0]]), AffineMap.constant([2.0], 1)),
        (np.array([[5.0]]), AffineMap.constant([-1.0], 1)),
    ))
    net = synth_two_subdomains(pwl)
    assert forward(net, np.array([0.0]))[0] == pytest.approx(2.0, abs=1e-8)
    assert forward(net, np.array([5.0]))[0] == pytest.approx(-1.0, abs=1e-8)


def test_two_subdomains_architecture_and_exactness(rng):
    pwl = two_cluster_pwl(rng)
    net = synth_two_subdomains(pwl)
    assert net.architecture() == "2(1)6(1)1'(1)"
    resid = np.abs(forward_batch(net, pwl.all_points()) - pwl.all_targets()).max()
    assert resid <= 1e-8


def test_two_subdomains_3d(rng):
    pwl = two_cluster_pwl(rng, n=3, per_side=5)
    net = synth_two_subdomains(pwl)
    assert net.architecture() == "3(1)8(1)1'(1)"
    resid = np.abs(forward_batch(net, pwl.all_points()) - pwl.all_targets()).max()
    assert resid <= 1e-8


def test_two_subdomains_inseparable_suggests_interpolation():
    pwl = DiscretePWL(2, 1, (
        (np.array([[0.0, 0.0], [2.0, 0.0]]), AffineMap.constant([1.0], 2)),
        (np.array([[1.0, 0.0], [3.0, 0.0]]), AffineMap.constant([0.0], 2)),
    ))
    with pytest.raises(GeometryError, match="synth_interpolate"):
        synth_two_subdomains(pwl)


def test_staircase_single_stage():
    build = interpolation_build(np.array([[1.0, 2.0]]), [3.0])
    assert build.network.layers[0].units == 3
    assert forward(build.network, np.array([1.0, 2.0]))[0] == pytest.approx(3.0, abs=1e-10)


def test_staircase_three_constants_width_nine(rng):
    pts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    build = interpolation_build(pts, [1.0, -2.0, 0.5])
    net = build.network
    assert net.layers[0].units == 9
    out = forward_batch(net, pts)[:, 0]
    assert out == pytest.approx([1.0, -2.0, 0.5], abs=1e-8)


def test_staircase_stage_appends_do_not_change_earlier_outputs(rng):
    pts = rng.normal(size=(5, 2))
    build = interpolation_build(pts, rng.normal(size=5), seed=4)
    net = build.network
    hidden, out = net.layers
    # truncating every later stage's output weights leaves earlier points'
    # outputs bit-identical: later units are strictly dark there
    for nu in range(1, len(build.stages)):
        keep_until = build.stages[nu].unit_start
        W = out.weights.copy()
        W[:, keep_until:] = 0.0
        truncated = Network(2, (hidden, Layer(W, out.biases, out.activation)))
        earlier = np.vstack([
            build.pwl.subdomains[build.order.order[m]][0] for m in range(nu)
        ])
        a = forward_batch(net, earlier)
        b = forward_batch(truncated, earlier)
        assert a.tobytes() == b.tobytes()


def test_interpolate_ten_points_r3(rng):
    pts = rng.normal(size=(10, 3))
    vals = rng.normal(size=10)
    net = synth_interpolate(pts, vals)
    assert net.layers[0].units == 40
    for p, v in zip(pts, vals):
        assert forward(net, p)[0] == pytest.approx(v, abs=1e-8)


def test_interpolate_all_zero_targets(rng):
    pts = rng.normal(size=(6, 2))
    net = synth_interpolate(pts, np.zeros(6))
    assert np.abs(forward_batch(net, pts)).max() <= 1e-8


def test_interpolate_duplicate_x_conflicting_y():
    pts = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="conflicting"):
        synth_interpolate(pts, [0.0, 1.0])
    # equal duplicates collapse
    net = synth_interpolate(pts, [2.0, 2.0])
    assert forward(net, pts[0])[0] == pytest.approx(2.0, abs=1e-9)


def test_interpolate_points_closer_than_allclose():
    # 3 and 3 + 1e-6 are distinct points, though np.allclose calls them equal
    pts = np.array([[0.0], [3.0], [3.0 + 1e-6]])
    vals = np.array([0.0, 1.0, 2.0])
    build = interpolation_build(pts, vals)
    assert np.abs(forward_batch(build.network, pts)[:, 0] - vals).max() <= 1e-8


def test_negative_extra_units_rejected(rng):
    with pytest.raises(ValueError, match="extra_units must be non-negative"):
        interpolation_build(rng.normal(size=(4, 2)), rng.normal(size=4), extra_units=-1)


def test_interpolate_extra_units_widen_first_stage(rng):
    pts = rng.normal(size=(4, 2))
    vals = rng.normal(size=4)
    net = synth_interpolate(pts, vals, extra_units=3)
    assert net.layers[0].units == 4 * 3 + 3
    for p, v in zip(pts, vals):
        assert forward(net, p)[0] == pytest.approx(v, abs=1e-8)


def multi_pwl(rng, k=6, n=2, mu=2):
    pts = rng.normal(size=(k, n)) * 2
    T = rng.normal(size=(k, mu))
    subs = tuple((p[None, :], AffineMap.constant(t, n)) for p, t in zip(pts, T))
    return DiscretePWL(n, mu, subs), pts, T


def test_multi_output_exact_and_shared_hidden(rng):
    pwl, pts, T = multi_pwl(rng)
    build = multi_output_build(pwl)
    out = forward_batch(build.network, pts)
    assert np.abs(out - T).max() <= 1e-8
    assert build.network.architecture() == "2(1)18(1)2'(1)"
    # single-output route produces the identical hidden layer
    single = interpolation_build(pts, T[:, 0])
    assert (single.network.layers[0].weights ==
            build.network.layers[0].weights).all()


def test_multi_output_resolve_does_not_touch_other_units(rng):
    pwl, pts, T = multi_pwl(rng)
    build = multi_output_build(pwl)
    new_targets = rng.normal(size=len(pwl.subdomains))
    updated = resolve_output_unit(build, 1, new_targets)
    old_out = build.network.layers[1]
    new_out = updated.layers[1]
    assert old_out.weights[0].tobytes() == new_out.weights[0].tobytes()
    assert np.abs(forward_batch(updated, pts)[:, 1] - new_targets).max() <= 1e-8
    assert np.abs(forward_batch(updated, pts)[:, 0] - T[:, 0]).max() <= 1e-8


def test_multi_output_mu_one_matches_interpolation(rng):
    pts = rng.normal(size=(5, 2))
    vals = rng.normal(size=(5, 1))
    subs = tuple((p[None, :], AffineMap.constant(v, 2)) for p, v in zip(pts, vals))
    net = synth_multi_output(DiscretePWL(2, 1, subs))
    for p, v in zip(pts, vals):
        assert forward(net, p)[0] == pytest.approx(v[0], abs=1e-8)


def test_classifier_three_categories(rng):
    pts = np.vstack([
        rng.normal(size=(3, 2)) + [0.0, 0.0],
        rng.normal(size=(3, 2)) + [6.0, 0.0],
        rng.normal(size=(3, 2)) + [0.0, 6.0],
    ])
    labels = np.repeat([0, 1, 2], 3)
    net = synth_classifier(pts, labels)
    assert net.layers[-1].activation == "relu"
    out = forward_batch(net, pts)
    for i, c in enumerate(labels):
        assert out[i, c] > 0
        for other in range(3):
            if other != c:
                assert out[i, other] <= 1e-9
    assert (out.argmax(axis=1) == labels).all()


def test_classifier_binary(rng):
    pts = rng.normal(size=(6, 2))
    labels = np.array([0, 1, 0, 1, 0, 1])
    out = forward_batch(synth_classifier(pts, labels), pts)
    assert (out.argmax(axis=1) == labels).all()


def test_classifier_single_category_always_positive(rng):
    pts = rng.normal(size=(4, 2))
    out = forward_batch(synth_classifier(pts, np.zeros(4, dtype=int)), pts)
    assert (out[:, 0] > 0).all()


def test_classifier_missing_category_rejected():
    # labels 0 and 2 leave category 1 without points
    with pytest.raises(ValueError, match="category 1 has no points"):
        synth_classifier(np.array([[0.0, 0.0], [1.0, 1.0]]), [0, 2])


def test_report_contents(rng):
    pts = rng.normal(size=(4, 2))
    build = interpolation_build(pts, rng.normal(size=4), seed=9)
    rep = build.report
    assert rep.architecture == build.network.architecture()
    assert rep.max_residual <= 1e-8
    assert rep.plan["kind"] == "shallow"
    assert len(rep.rank_audits) == 4
    assert all(a["rank"] == 3 for a in rep.rank_audits)


@pytest.mark.parametrize("n, k, rng_seed, seed", [(5, 30, 0, 0), (4, 12, 5037, 37)])
def test_interpolate_exact_at_dimension_four_and_five(n, k, rng_seed, seed):
    # the epsilon-power family lost rank here ("rank 4 < 6", "rank 4 < 5")
    r = np.random.default_rng(rng_seed)
    pts = r.normal(size=(k, n)) * 3
    vals = r.normal(size=k)
    build = interpolation_build(pts, vals, seed=seed)
    assert np.abs(forward_batch(build.network, pts)[:, 0] - vals).max() <= 1e-8


def test_interpolate_point_within_1e7_of_the_hull_of_others():
    # the maximum-hyperplane order placed point 11 last, 1.1e-7 from the
    # hull of the other 11, and its bundle lost rank ("rank 8 < 9")
    r = np.random.default_rng([100, 8, 0])
    pts = r.normal(size=(12, 8)) * 3
    pts[9:] = [pts[r.choice(9, size=8, replace=False)].T @ r.dirichlet(np.ones(8))
               + r.normal(size=8) * 1e-4 / np.sqrt(8) for _ in range(3)]
    vals = r.normal(size=12)
    build = interpolation_build(pts, vals)
    assert np.abs(forward_batch(build.network, pts)[:, 0] - vals).max() <= 1e-8


@pytest.mark.parametrize("route", ["interpolation", "multi_output", "classifier"])
def test_rebuild_from_plan_is_byte_identical(route, rng):
    pts = rng.normal(size=(9, 2)) * 3
    if route == "interpolation":
        build = interpolation_build(pts, rng.normal(size=9), seed=3)
    elif route == "multi_output":
        T = rng.normal(size=(9, 2))
        build = multi_output_build(DiscretePWL(2, 2, tuple(
            (p[None, :], AffineMap.constant(t, 2)) for p, t in zip(pts, T))), seed=3)
    else:
        build = classifier_build(pts, np.arange(9) % 3, seed=3)
    again = rebuild_from_plan(build.report.plan)
    assert again.network.to_json() == build.network.to_json()
    assert again.report.rank_audits == build.report.rank_audits


def test_uniformity_error_names_the_stage_set_and_hyperplane():
    # the first base holds its own set but splits the later one, which it
    # therefore does not condition its bundle on
    pwl = DiscretePWL(2, 1, (
        (np.array([[0.0, 1.0], [1.0, 1.0]]), AffineMap.constant([1.0], 2)),
        (np.array([[5.0, -2.0], [6.0, 2.0]]), AffineMap.constant([2.0], 2)),
    ))
    bases = (Hyperplane([0.0, 1.0], 0.5), Hyperplane([1.0, 0.0], -3.0))
    with pytest.raises(UniformityError, match="stage 0 hyperplane splits subdomain 1") as err:
        build_staircase(pwl, order=DistinguishableOrder((0, 1), bases))
    assert err.value.subdomain == 1
    assert err.value.hyperplane is bases[0]


def reference_staircase(pwl, order, margin, extra_units=0, relu_output=False):
    """The per-stage loop that the stacked pass replaced: one family, one
    rank and one solve per output for each stage in turn.  Returns the
    hidden and output parameters and the stage ranks."""
    n = pwl.dim
    sets = [pts for pts, _ in pwl.subdomains]
    ordered = [sets[j] for j in order.order]
    k = len(ordered)
    X = np.vstack(ordered)
    sizes = np.array([len(pts) for pts in ordered])
    starts = np.cumsum(sizes) - sizes
    row_pos = np.repeat(np.arange(k), sizes)
    V = X @ np.array([h.w for h in order.hyperplanes]).T + np.array(
        [h.b for h in order.hyperplanes])
    later_plus = np.minimum.reduceat(V, starts, axis=0) >= margin
    later_zero = np.maximum.reduceat(V, starts, axis=0) <= -margin
    counts = [n + 1 + (extra_units if pos == 0 else 0) for pos in range(k)]
    rows = []
    for pos, base in enumerate(order.hyperplanes):
        later = np.arange(k) > pos
        plus = ((np.arange(k) == pos) | (later & later_plus[:, pos]))[row_pos]
        zero = ((np.arange(k) < pos) | (later & later_zero[:, pos]))[row_pos]
        pts = np.vstack([X[plus], X[zero]])
        signs = np.repeat([1.0, -1.0], [plus.sum(), zero.sum()])
        worst = (signs * (pts @ base.w + base.b)).min()
        free = np.append(np.delete(np.arange(n), np.argmax(np.abs(base.w))), n)
        reach = np.append(np.abs(pts[:, free[:-1]]).max(axis=0, initial=0.0), 1.0)
        i = np.arange(counts[pos] - 1)
        m = 1 + i // len(free)
        with np.errstate(divide="ignore"):
            eps = np.minimum(worst / (2.0 * m[-1] * reach), np.max(np.abs(base.w)))
        moves = np.zeros((counts[pos] - 1, n + 1))
        moves[i, free[i % len(free)]] = eps[i % len(free)] * m
        p = np.append(base.w, base.b)
        rows.append(p)
        rows.extend(p + moves)
    params = np.array(rows)
    W, b = params[:, :n].copy(), params[:, n].copy()
    Z = X @ W.T + b

    mu = pwl.output_dim
    out_W = np.zeros((mu, len(params)))
    out_b = np.zeros(mu)
    ranks = []
    start = 0
    for pos, j in enumerate(order.order):
        cols = slice(start, start + counts[pos])
        M = params[cols].T.copy()
        ranks.append(numeric_rank(M))
        centroid = sets[j].mean(axis=0)
        M_c = M.copy()
        M_c[n] += centroid @ M[:n]
        relu_first = relu_output and pos == 0
        if relu_first:
            M_c = np.hstack([M_c, np.eye(n + 1)[:, -1:]])
        active = np.flatnonzero(Z[starts[pos], :start] > ACTIVATION_TOL)
        amap = pwl.subdomains[j][1]
        for rho in range(mu):
            rhs = np.concatenate([amap.W[rho], [float(amap.b[rho])]])
            for u in active:
                rhs = rhs - out_W[rho, u] * params[u]
            rhs[n] += float(centroid @ rhs[:n])
            rhs[n] -= out_b[rho]
            if M_c.shape[1] == n + 1:
                sol = np.linalg.solve(M_c, rhs)
                sol += np.linalg.solve(M_c, rhs - M_c @ sol)
            else:
                sol = solve_constrained(M_c, rhs)
            if relu_first:
                out_W[rho, cols], out_b[rho] = sol[:-1], sol[-1]
            else:
                out_W[rho, cols] = sol
        start += counts[pos]
    return W, b, out_W, out_b, ranks


def singleton_pwl(pts, T):
    n = pts.shape[1]
    return DiscretePWL(n, T.shape[1], tuple(
        (p[None, :], AffineMap.constant(t, n)) for p, t in zip(pts, T)))


def cluster_pwl(r, n, mu):
    """Clusters of 1-5 points strung along a tilted axis, affine targets,
    and the staircase of cuts across that axis."""
    u = np.eye(n)[0] + 0.05 * r.normal(size=n)
    u /= np.linalg.norm(u)
    sets = [r.normal(size=(int(m), n)) * 0.5 + 10.0 * i * u
            for i, m in enumerate(r.integers(1, 6, size=6))]
    pwl = DiscretePWL(n, mu, tuple(
        (P, AffineMap(r.normal(size=(mu, n)), r.normal(size=mu))) for P in sets))
    lines = [Hyperplane(u, 1.0 - float((np.vstack(sets) @ u).min()))]
    lines += [Hyperplane(u, -10.0 * (i - 0.5)) for i in range(1, len(sets))]
    return pwl, DistinguishableOrder(tuple(range(len(sets))), tuple(lines))


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_pass_equals_the_per_stage_loop_bit_for_bit(n):
    r = np.random.default_rng([n, 11])
    pts = r.normal(size=(9, n)) * 3
    labels = np.arange(9) % 3
    cases = [  # (pwl, order, extra_units, relu_output)
        (singleton_pwl(pts, r.normal(size=(9, 1))), None, 0, False),
        (singleton_pwl(pts, r.normal(size=(9, 1))), None, 3, False),
        (singleton_pwl(pts, r.normal(size=(9, 3))), None, 2, False),
        (singleton_pwl(pts, np.where(labels[:, None] == np.arange(3), 1.0, -1.0)),
         None, 0, True),
        (singleton_pwl(pts, np.where(labels[:, None] == np.arange(3), 1.0, -1.0)),
         None, 2, True),
        (*cluster_pwl(r, n, 3), 1, False),
    ]
    for pwl, order, extra, relu in cases:
        order = order or projection_order([p for p, _ in pwl.subdomains], seed=n)
        build = build_staircase(pwl, order=order, extra_units=extra, relu_output=relu)
        W, b, out_W, out_b, ranks = reference_staircase(
            pwl, order, BundleConfig().margin, extra, relu)
        hidden, out = build.network.layers
        assert hidden.weights.tobytes() == W.tobytes()
        assert hidden.biases.tobytes() == b.tobytes()
        assert out.weights.tobytes() == out_W.tobytes()
        assert out.biases.tobytes() == out_b.tobytes()
        assert [a["rank"] for a in build.report.rank_audits] == ranks
        # the residual read from the build's own preactivations is the
        # forward pass's, bit for bit
        Y = np.maximum(pwl.all_targets(), 0.0) if relu else pwl.all_targets()
        resid = np.abs(forward_batch(build.network, pwl.all_points()) - Y).max()
        assert build.report.max_residual == float(resid)


@pytest.mark.parametrize("k", [3, 12, 30])
def test_one_build_takes_a_fixed_number_of_svds(svd_calls, k):
    # the per-stage loop took three or more per stage: the family's rank,
    # the stage check and each output's exact-square solve
    r = np.random.default_rng(k)
    pts = r.normal(size=(k, 2)) * 3
    interpolation_build(pts, r.normal(size=k), seed=1)
    assert len(svd_calls) == 2    # the stage matrices, their shifted copies
    del svd_calls[:]
    interpolation_build(pts, r.normal(size=k), seed=1, extra_units=2)
    assert len(svd_calls) == 3    # the wider first stage is its own stack


def test_one_build_calls_the_bundle_builder_once(family_calls):
    # every stage's bundle, the widened first one too, comes from one call
    r = np.random.default_rng(4)
    interpolation_build(r.normal(size=(12, 3)) * 3, r.normal(size=12), extra_units=2)
    assert len(family_calls) == 1


def test_one_shifted_stack_per_stage_width(shifted_calls):
    # the coefficient-matching systems of equal-width stages shift and rank
    # together: all k stages, or the widened first stage and then the rest
    r = np.random.default_rng(4)
    pts, vals = r.normal(size=(12, 3)) * 3, r.normal(size=12)
    interpolation_build(pts, vals)
    assert shifted_calls == [(12, 4)]
    del shifted_calls[:]
    interpolation_build(pts, vals, extra_units=2)
    assert shifted_calls == [(1, 6), (11, 4)]


def test_rank_audits_carry_the_stage_sigma_ratio(rng):
    build = interpolation_build(rng.normal(size=(6, 3)) * 3, rng.normal(size=6),
                                extra_units=2)
    hidden = build.network.layers[0]
    params = np.column_stack([hidden.weights, hidden.biases])
    for audit, stage in zip(build.report.rank_audits, build.stages):
        M = params[stage.unit_start:stage.unit_start + stage.count].T
        s = np.linalg.svd(M, compute_uv=False)
        assert audit["sigma_min"] == pytest.approx(s[-1] / s[0], rel=1e-12)
        assert 0.0 < audit["sigma_min"] <= 1.0


def test_stage_rank_failure_names_the_stage_and_subdomain():
    # a margin of 2e-6 at 1e4 gives the bias step 1e-6, so the second stage
    # matrix [[1, 1], [b, b + 1e-6]] has sigma ratio about 5e-15
    pwl = DiscretePWL(1, 1, (
        (np.array([[0.0]]), AffineMap.constant([1.0], 1)),
        (np.array([[1e4]]), AffineMap.constant([2.0], 1)),
    ))
    bases = (Hyperplane([1.0], 1.0), Hyperplane([1.0], -1e4 + 2e-6))
    with pytest.raises(RankDeficientError,
                       match=r"stage 1 \(subdomain 1\): bundle matrix rank 1 < 2") as err:
        build_staircase(pwl, order=DistinguishableOrder((0, 1), bases))
    assert err.value.rank == 1


def test_family_member_margin_failure_names_stage_point_and_margin():
    # at 2**33 one ulp is 2**-19, the second base's margin on the earlier
    # point; its member's bias step of half that rounds to even, onto
    # -2**33, so the member passes through that point with margin 0
    far = 2.0 ** 33
    pwl = DiscretePWL(1, 1, (
        (np.array([[far]]), AffineMap.constant([1.0], 1)),
        (np.array([[far + 10.0]]), AffineMap.constant([2.0], 1)),
    ))
    bases = (Hyperplane([1.0], 1.0 - far), Hyperplane([1.0], -(far + 2.0 ** -19)))
    with pytest.raises(MarginError, match=r"stage 1 \(subdomain 1\): family member 1 "
                                          r"margin 0 at point \[8589934592.0\]") as err:
        build_staircase(pwl, order=DistinguishableOrder((0, 1), bases))
    assert (err.value.stage, err.value.subdomain, err.value.margin) == (1, 1, 0.0)
    assert err.value.point.tolist() == [far]


@pytest.mark.parametrize("third_base, margin, point", [
    (Hyperplane([1.0], -0.5), -1.5, 2.0),   # the earlier point x = 2 on its plus side
    (Hyperplane([-1.0], 0.3), -0.7, 1.0),   # its own point x = 1 on its zero side
])
def test_supplied_order_that_breaks_a_staircase_position_names_it(third_base, margin, point):
    # points 0, 1, 2 in the order (0, 2, 1): the third position, subdomain
    # 1, must hold x = 1 above the margin and x = 0 and x = 2 below -margin
    pwl = DiscretePWL(1, 1, tuple(
        (np.array([[x]]), AffineMap.constant([x], 1)) for x in (0.0, 1.0, 2.0)))
    bases = (Hyperplane([-1.0], 1.0), Hyperplane([1.0], -1.5), third_base)
    with pytest.raises(MarginError, match=rf"stage 2 \(subdomain 1\): base hyperplane "
                                          rf"margin {margin} at point \[{point}\]") as err:
        build_staircase(pwl, order=DistinguishableOrder((0, 2, 1), bases))
    assert (err.value.stage, err.value.subdomain, err.value.margin) == (2, 1, margin)
    assert err.value.point.tolist() == [point]


def test_supplied_order_must_be_a_permutation_of_the_subdomains():
    # the residual audit covers the ordered subdomains only, so a dropped
    # subdomain would go unchecked
    pwl = DiscretePWL(1, 1, tuple(
        (np.array([[x]]), AffineMap.constant([x], 1)) for x in (0.0, 1.0, 2.0)))
    bases = (Hyperplane([-1.0], 1.0), Hyperplane([1.0], -1.5))
    with pytest.raises(ValueError, match=r"order \[0, 2\] is not a permutation of the sub"):
        build_staircase(pwl, order=DistinguishableOrder((0, 2), bases))


def test_failed_residual_check_carries_the_report(monkeypatch, rng):
    activate = shallow_module._activate

    def shifted(layer, z):  # the linear output layer's outputs, 1e-6 off
        out, on = activate(layer, z)
        return (out + 1e-6 if layer.activation == "linear" else out), on

    monkeypatch.setattr(shallow_module, "_activate", shifted)
    with pytest.raises(BuildFailure, match="synthesis residual 1e-06 above 1e-8") as err:
        interpolation_build(rng.normal(size=(4, 2)), rng.normal(size=4))
    report = err.value.report
    assert report.max_residual == pytest.approx(1e-6, rel=1e-6)
    assert report.architecture == "2(1)12(1)1'(1)"
    assert [a["stage"] for a in report.rank_audits] == [0, 1, 2, 3]
