from itertools import combinations

import numpy as np
import pytest

from relusynth import ordering
from relusynth.core import AffineMap, DiscretePWL, Hyperplane, forward_batch
from relusynth.ordering import (
    check_distinguishable,
    distinguishable_order,
    maximum_hyperplane,
    projection_order,
    separate,
    separate_many,
)
from relusynth.shallow import classifier_build, interpolation_build, multi_output_build


def test_separate_1d():
    res = separate([[1.0]], [[-1.0]])
    assert res.separable
    # the separating boundary sits at the origin up to scale
    assert abs(res.hyperplane.b / res.hyperplane.w[0]) < 1e-9
    assert res.margin > 0


def test_separate_identical_singletons_inseparable():
    res = separate([[1.0, 2.0]], [[1.0, 2.0]])
    assert not res.separable


def test_xor_corners_inseparable():
    D1 = [[0.0, 0.0], [1.0, 1.0]]
    D2 = [[0.0, 1.0], [1.0, 0.0]]
    assert not separate(D1, D2).separable
    # independent oracle: exhaustive direction/threshold scan finds no
    # strict separation either
    best = -np.inf
    for theta in np.linspace(0, 2 * np.pi, 720, endpoint=False):
        w = np.array([np.cos(theta), np.sin(theta)])
        m = min(np.min(np.asarray(D1) @ w), -np.max(np.asarray(D2) @ w))
        lo = np.min(np.asarray(D1) @ w)
        hi = np.max(np.asarray(D2) @ w)
        best = max(best, (lo - hi) / 2.0)
    assert best <= 1e-12


def test_separate_margins_scale_floor():
    res = separate([[1e-6, 0.0]], [[-1e-6, 0.0]])
    assert res.separable
    # margins are pushed up to at least twice the global floor
    assert res.margin >= 2e-6


def test_maximum_hyperplane_single_sample():
    h, covered = maximum_hyperplane([[2.0, 0.0]], [0.0, 0.0])
    assert covered == (0,)
    assert h.value(np.array([0.0, 0.0])) > 0
    assert h.value(np.array([2.0, 0.0])) < 0


def test_maximum_hyperplane_matches_exhaustive_oracle(rng):
    for trial in range(30):
        inside_hull = trial % 2 == 1
        n = int(rng.integers(1, 4))
        # a star inside the hull of k <= n samples is affinely degenerate
        k = int(rng.integers(n + 1 if inside_hull else 2, 11))
        delta = rng.normal(size=(k, n))
        if inside_hull:
            star = rng.dirichlet(np.ones(k)) @ delta
        else:
            star = rng.normal(size=n)
        trace = []
        h, covered = maximum_hyperplane(delta, star, trace=trace)
        best = 0
        for size in range(k, 0, -1):
            hit = False
            for S in combinations(range(k), size):
                excl = [i for i in range(k) if i not in S]
                plus = (np.vstack([star[None, :], delta[excl]])
                        if excl else star[None, :])
                if separate(plus, delta[list(S)]).separable:
                    best = size
                    hit = True
                    break
            if hit:
                break
        assert len(covered) == best
        # generic inputs never need the fallback
        assert trace == []
        assert h.value(star) > 0
        assert (h.value(delta[list(covered)]) < 0).all()


def test_maximum_hyperplane_fallback_keeps_guarantees(rng, monkeypatch):
    def check(delta, star, reason):
        trace = []
        h, covered = maximum_hyperplane(delta, star, trace=trace)
        assert trace[0] == {"event": "maximum_hyperplane_fallback",
                            "samples": len(delta), "reason": reason}
        star_val = h.value(star)
        assert star_val > 0
        assert (h.value(delta[list(covered)]) < 0).all()
        # translation property: no uncovered sample between boundary and star
        uncovered = [i for i in range(len(delta)) if i not in covered]
        assert (h.value(delta[uncovered])
                >= star_val - 1e-6 * max(1.0, star_val)).all()
        return covered

    # star between two samples: every touch-set normal ties all three points
    assert len(check(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([1.0, 0.0]),
                     "unverified")) == 1

    monkeypatch.setattr(ordering, "MAX_TOUCH_SUBSETS", 0)
    delta = rng.normal(size=(9, 2))
    check(delta, delta.mean(axis=0), "cap")

    pts = rng.normal(size=(10, 2))
    trace = []
    result = distinguishable_order([p[None, :] for p in pts], seed=2, trace=trace)
    assert any(e["event"] == "maximum_hyperplane_fallback" for e in trace)
    ok, failures = check_distinguishable(
        [pts[j][None, :] for j in result.order], result.hyperplanes)
    assert ok, failures


@pytest.fixture
def lp_calls(monkeypatch):
    """Every LP the ordering module solves: one per solve_lp call and one
    per LP of a solve_lps batch."""
    calls = []
    solve, solve_many = ordering.solve_lp, ordering.solve_lps

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    def counting_many(c, As, bs):
        calls.extend(1 for _ in As)
        return solve_many(c, As, bs)

    monkeypatch.setattr(ordering, "solve_lp", counting)
    monkeypatch.setattr(ordering, "solve_lps", counting_many)
    return calls


def test_order_lp_count_on_criterion_3_trial_14(lp_calls):
    # the 2-D, 24-point instance once cost 58,301 ordering LPs, then 55
    r = np.random.default_rng(314)
    n, nu = int(r.integers(1, 5)), int(r.integers(2, 26))
    assert (n, nu) == (2, 24)
    pts = r.normal(size=(nu, n)) * 3
    vals = r.normal(size=nu)
    build = interpolation_build(pts, vals, seed=14)
    assert len(lp_calls) == nu - 1
    assert np.abs(forward_batch(build.network, pts)[:, 0] - vals).max() <= 1e-8


def test_build_lp_count_multi_output(lp_calls, rng):
    pts = rng.normal(size=(15, 3)) * 3
    T = rng.normal(size=(15, 2))
    pwl = DiscretePWL(3, 2, tuple((p[None, :], AffineMap.constant(t, 3))
                                  for p, t in zip(pts, T)))
    build = multi_output_build(pwl, seed=5)
    assert len(lp_calls) == len(pts) - 1
    assert np.abs(forward_batch(build.network, pts) - T).max() <= 1e-8


def test_build_lp_count_classifier(lp_calls, rng):
    pts = rng.normal(size=(18, 2)) * 3
    labels = np.arange(18) % 3
    build = classifier_build(pts, labels, seed=6)
    assert len(lp_calls) == len(pts) - 1
    assert (forward_batch(build.network, pts).argmax(axis=1) == labels).all()


def assert_same_separation(mine, ref):
    assert mine.separable == ref.separable
    assert mine.margin == ref.margin and mine.lp_margin == ref.lp_margin
    for h, g in ((mine.hyperplane, ref.hyperplane), (mine.certificate, ref.certificate)):
        assert (h is None) == (g is None)
        if g is not None:
            assert h.w.tobytes() == g.w.tobytes() and h.b == g.b


def test_separate_many_equals_separate_pair_by_pair(rng):
    square = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    pairs = [(rng.normal(size=(int(rng.integers(1, 4)), 2)) + 3.0,
              rng.normal(size=(int(rng.integers(1, 9)), 2))) for _ in range(8)]
    pairs.insert(3, ([[1.0, 1.0]], square))  # inside the hull: inseparable
    pairs.append(([[0.5, 0.5], [1.5, 1.5]], [[0.5, 1.5], [1.5, 0.5]]))  # XOR: inseparable
    results = separate_many(pairs)
    assert [res.separable for res in results].count(False) >= 2
    for (D1, D2), res in zip(pairs, results):
        assert_same_separation(res, separate(D1, D2))
    assert separate_many([]) == []


def test_staircase_lines_equals_a_loop_over_separate():
    # the last point sits inside the hull of the earlier ones, so its LP
    # finds no separator and the given line is kept
    points = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [1.0, 0.9]])
    order = [1, 0, 3, 2, 4]
    lines = [Hyperplane([1.0, 0.3], -0.1234 * (pos + 1)) for pos in range(5)]
    reference = [ordering._rescale_for(lines[0], [points[order[0]][None, :]])]
    for pos in range(1, len(order)):
        res = separate(points[order[pos]][None, :], points[order[:pos]])
        reference.append(res.hyperplane if res.separable else
                         ordering._rescale_for(lines[pos], [points[order[: pos + 1]]]))
    hps = ordering._staircase_lines(points, order, lines)
    assert hps[-1].w.tobytes() == lines[-1].w.tobytes()
    for h, g in zip(hps, reference, strict=True):
        assert h.w.tobytes() == g.w.tobytes() and h.b == g.b


def test_projection_order_is_a_staircase_along_one_direction(rng):
    pts = rng.normal(size=(12, 3))
    result = projection_order([p[None, :] for p in pts], seed=4)
    ordered = [pts[j][None, :] for j in result.order]
    ok, failures = check_distinguishable(ordered, result.hyperplanes)
    assert ok, failures
    u = np.random.default_rng(4).normal(size=3)
    along = pts[list(result.order)] @ u
    assert (np.diff(along) > 0).all()
    with pytest.raises(ValueError, match="duplicate"):
        projection_order([pts[:1], pts[1:2], pts[:1]])
    with pytest.raises(ValueError, match="singleton"):
        projection_order([pts[:2]])


def test_maximum_hyperplane_collinear_full_cover():
    # samples collinear along the axis orthogonal to the star offset:
    # all of them separate, and the translation property holds
    delta = np.array([[2.0, -1.0], [2.0, 0.0], [2.0, 1.0], [2.0, 2.0]])
    star = np.array([0.0, 0.0])
    h, covered = maximum_hyperplane(delta, star)
    assert covered == (0, 1, 2, 3)
    # nothing sits between the boundary and the star
    assert h.value(star) > 0


def test_maximum_hyperplane_cover_beats_random_alternatives(rng):
    delta = rng.normal(size=(8, 2))
    star = rng.normal(size=2)
    _, covered = maximum_hyperplane(delta, star)
    for _ in range(50):
        w = rng.normal(size=2)
        b = rng.normal()
        if w @ star + b <= 0:
            continue
        alt_cover = int(np.sum(delta @ w + b < 0))
        assert len(covered) >= alt_cover


def test_order_single_point():
    result = distinguishable_order([np.array([[1.5, 2.0]])])
    assert result.order == (0,)
    assert result.hyperplanes[0].value(np.array([1.5, 2.0])) > 0


def test_order_two_points():
    pts = [np.array([[0.0, 0.0]]), np.array([[3.0, 0.0]])]
    result = distinguishable_order(pts)
    assert set(result.order) == {0, 1}
    second = result.order[1]
    first = result.order[0]
    h2 = result.hyperplanes[1]
    assert h2.value(pts[second][0]) > 0
    assert h2.value(pts[first][0]) < 0


def test_order_eight_random_points(rng):
    pts = rng.normal(size=(8, 2))
    result = distinguishable_order([p[None, :] for p in pts], seed=3)
    ordered = [pts[j][None, :] for j in result.order]
    ok, failures = check_distinguishable(ordered, result.hyperplanes)
    assert ok, failures
    # each staircase line is independently recoverable as a separation
    for pos in range(1, 8):
        own = pts[result.order[pos]][None, :]
        earlier = pts[[result.order[m] for m in range(pos)]]
        assert separate(own, earlier).separable


def test_order_collinear_tie_needs_perturbation():
    # two points at identical projection along the natural separator
    pts = np.array([
        [0.0, 0.0],
        [4.0, 0.0],
        [1.0, 2.0],
        [3.0, 2.0],   # ties with the previous along the y direction
        [2.0, 1.0],
    ])
    trace = []
    result = distinguishable_order([p[None, :] for p in pts], seed=5, trace=trace)
    ordered = [pts[j][None, :] for j in result.order]
    ok, failures = check_distinguishable(ordered, result.hyperplanes)
    assert ok, failures


def test_order_duplicate_points_rejected():
    pts = [np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]])]
    with pytest.raises(ValueError):
        distinguishable_order(pts)


def test_order_requires_singletons_for_construction():
    with pytest.raises(ValueError):
        distinguishable_order([np.array([[0.0, 0.0], [1.0, 1.0]])])


def test_order_validation_route():
    sets = [np.array([[0.0, 0.0]]), np.array([[3.0, 0.0]])]
    hps = (Hyperplane([-1.0, 0.0], 1.0), Hyperplane([1.0, 0.0], -1.5))
    result = distinguishable_order(sets, hyperplanes=hps)
    assert result.order == (0, 1)
    bad = (Hyperplane([1.0, 0.0], -1.5), Hyperplane([-1.0, 0.0], 1.0))
    with pytest.raises(ValueError):
        distinguishable_order(sets, hyperplanes=bad)


def test_order_deterministic_given_seed(rng):
    pts = rng.normal(size=(7, 3))
    a = distinguishable_order([p[None, :] for p in pts], seed=11)
    b = distinguishable_order([p[None, :] for p in pts], seed=11)
    assert a.order == b.order
    for ha, hb in zip(a.hyperplanes, b.hyperplanes):
        assert ha.w.tobytes() == hb.w.tobytes()
        assert ha.b == hb.b
