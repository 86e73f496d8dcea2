from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

from relusynth import ordering
from relusynth.core import AffineMap, DiscretePWL, Hyperplane, forward_batch
from relusynth.deep import build_partition_tree
from relusynth.ordering import (
    check_distinguishable,
    distinguishable_order,
    maximum_hyperplane,
    projection_order,
    separate,
    separate_many,
)
from relusynth.shallow import classifier_build, interpolation_build, multi_output_build
from relusynth.simplex import UNBOUNDED, LPResult


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


def test_maximum_hyperplane_matches_exhaustive_oracle(rng, greedy_calls):
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
        h, covered = maximum_hyperplane(delta, star)
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
        assert greedy_calls == []
        assert h.value(star) > 0
        assert (h.value(delta[list(covered)]) < 0).all()


def test_maximum_hyperplane_fallback_keeps_guarantees(rng, monkeypatch, greedy_calls):
    def check(delta, star):
        greedy_calls.clear()
        h, covered = maximum_hyperplane(delta, star)
        assert greedy_calls == [len(delta)]
        star_val = h.value(star)
        assert star_val > 0
        assert (h.value(delta[list(covered)]) < 0).all()
        # translation property: no uncovered sample between boundary and star
        uncovered = [i for i in range(len(delta)) if i not in covered]
        assert (h.value(delta[uncovered])
                >= star_val - 1e-6 * max(1.0, star_val)).all()
        return covered

    # star between two samples: every touch-set normal ties all three points
    assert len(check(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([1.0, 0.0]))) == 1

    # above the cap the touch sets are not tried
    monkeypatch.setattr(ordering, "MAX_TOUCH_SUBSETS", 0)
    delta = rng.normal(size=(9, 2))
    check(delta, delta.mean(axis=0))

    greedy_calls.clear()
    pts = rng.normal(size=(10, 2))
    result = distinguishable_order([p[None, :] for p in pts])
    assert greedy_calls
    ok, failures = check_distinguishable(
        [pts[j][None, :] for j in result.order], result.hyperplanes)
    assert ok, failures


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


def test_separate_many_rejects_an_unbounded_lp(monkeypatch):
    # the box rows bound every separation LP, so only a numeric failure of
    # the simplex can end one unbounded; it must not pass as a verdict
    monkeypatch.setattr(ordering, "solve_lps",
                        lambda c, A, b: [LPResult(UNBOUNDED, None, None) for _ in A])
    with pytest.raises(RuntimeError, match="separation LP ended with status unbounded"):
        separate_many([([[1.0]], [[-1.0]]), ([[2.0]], [[0.0]])])


def _separation_optimum(D1, D2):
    """HiGHS's optimum of separate's LP: max t s.t. w.x + b >= t on D1,
    w.x + b <= -t on D2 and |w|_inf <= 1."""
    n = D1.shape[1]
    rows = np.vstack([np.hstack([-D1, -np.ones((len(D1), 1)), np.ones((len(D1), 1))]),
                      np.hstack([D2, np.ones((len(D2), 2))])])
    res = linprog(-np.eye(n + 2)[-1], A_ub=rows, b_ub=np.zeros(len(rows)),
                  bounds=[(-1.0, 1.0)] * n + [(None, None)] * 2, method="highs")
    assert res.status == 0
    return -res.fun


def _random_pairs(r, n, count):
    """Gaussian clouds of 1-40 points a side, pulled apart or not."""
    pairs = []
    for _ in range(count):
        k1, k2 = r.integers(1, 41, size=2)
        shift = r.choice([0.0, 0.5, 3.0]) * r.normal(size=n)
        pairs.append((r.normal(size=(k1, n)) + shift, r.normal(size=(k2, n))))
    return pairs


@pytest.mark.parametrize("n", range(1, 7))
def test_separate_many_matches_highs_and_ignores_row_order(n):
    r = np.random.default_rng([n, 22])
    pairs = _random_pairs(r, n, 12)
    results = separate_many(pairs)
    verdicts = [res.separable for res in results]
    assert 0 < sum(verdicts) < len(pairs)
    for (D1, D2), res in zip(pairs, results):
        assert res.lp_margin == pytest.approx(_separation_optimum(D1, D2), abs=1e-9)
    # the optimal face can be wider than a vertex, so compare optima only
    shuffled = separate_many([(r.permutation(D1), r.permutation(D2)) for D1, D2 in pairs])
    assert [res.separable for res in shuffled] == verdicts
    for res, ref in zip(shuffled, results):
        assert res.lp_margin == pytest.approx(ref.lp_margin, rel=1e-12)


def test_interpolation_build_takes_few_pivots(pivot_calls):
    r = np.random.default_rng([40, 3])
    interpolation_build(r.normal(size=(40, 3)), r.normal(size=40), seed=1)
    # 76 with each LP's rows in input order, 15 with the rows nearest the
    # cut first
    assert len(pivot_calls) <= 20


def test_partition_tree_takes_few_pivots(pivot_calls):
    r = np.random.default_rng([2, 64, 0, 1])
    build_partition_tree([c + r.normal(size=(3, 2)) * 0.8 for c in r.normal(size=(64, 2)) * 10])
    # 221 with each LP's rows in input order, 94 with the rows nearest the
    # cut first
    assert len(pivot_calls) <= 130


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
    result = distinguishable_order([p[None, :] for p in pts])
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
    result = distinguishable_order([p[None, :] for p in pts])
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
    # an existing staircase is validated by check_distinguishable
    sets = [np.array([[0.0, 0.0]]), np.array([[3.0, 0.0]])]
    hps = (Hyperplane([-1.0, 0.0], 1.0), Hyperplane([1.0, 0.0], -1.5))
    assert check_distinguishable(sets, hps) == (True, [])
    bad = (Hyperplane([1.0, 0.0], -1.5), Hyperplane([-1.0, 0.0], 1.0))
    ok, failures = check_distinguishable(sets, bad)
    assert not ok
    assert [(pos, kind) for pos, kind, _ in failures] == [
        (0, "own-side"), (1, "own-side"), (1, "earlier-set-0")]


def test_order_deterministic_given_seed(rng):
    pts = rng.normal(size=(7, 3))
    a = distinguishable_order([p[None, :] for p in pts])
    b = distinguishable_order([p[None, :] for p in pts])
    assert a.order == b.order
    for ha, hb in zip(a.hyperplanes, b.hyperplanes):
        assert ha.w.tobytes() == hb.w.tobytes()
        assert ha.b == hb.b


def _planar_lattice(rng, k, n):
    """Distinct points of a 2-D integer lattice mapped into n dimensions,
    in random order: many of them tie along many normals."""
    pts = rng.integers(-3, 4, (k, 2)) @ rng.normal(size=(2, n))
    return rng.permutation(np.unique(pts, axis=0))


def assert_staircase(pts, result):
    ok, failures = check_distinguishable([pts[j][None, :] for j in result.order],
                                         result.hyperplanes)
    assert ok, failures


def test_order_places_tied_points_in_lexicographic_order(monkeypatch):
    # with the greedy fallback, one star leaves tied points on its plus side;
    # a seeded perturbation search once broke that tie
    pts = np.array([[0, 3], [0, 2], [2, 0], [3, 1], [3, 0], [1, 1]], dtype=float)
    monkeypatch.setattr(ordering, "MAX_TOUCH_SUBSETS", 0)
    place = ordering._place_plus_side
    calls = []

    def recording(points, star, uncovered, h, lines):
        placed = place(points, star, uncovered, h, lines)
        calls.append((h.w, points[placed]))
        return placed

    monkeypatch.setattr(ordering, "_place_plus_side", recording)
    assert_staircase(pts, distinguishable_order([p[None, :] for p in pts]))
    tied = 0
    for w, placed in calls:
        proj = placed @ w
        tol = 1e-9 * (1.0 + np.linalg.norm(w)) * (1.0 + np.abs(placed).max())
        for a, b, gap in zip(placed, placed[1:], np.diff(proj)):
            assert gap > -tol
            if gap <= tol:
                tied += 1
                assert tuple(a) < tuple(b)
    assert tied


def test_order_tie_tolerance_on_a_planar_lattice(monkeypatch):
    # projections that tie exactly differ by about 1e-16 here; sorting the
    # raw floats placed a point on a placeholder cut through another
    monkeypatch.setattr(ordering, "MAX_TOUCH_SUBSETS", 0)
    pts = _planar_lattice(np.random.default_rng([20, 0, 5]), 23, 3)
    assert_staircase(pts, distinguishable_order([p[None, :] for p in pts]))


def test_empty_greedy_cover_is_an_error(monkeypatch):
    monkeypatch.setattr(ordering, "_greedy_removal", lambda delta, star: [])
    with pytest.raises(ordering.EmptyCoverError, match="greedy cover is empty"):
        maximum_hyperplane(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([1.0, 0.0]))


def test_maximum_hyperplane_with_fewer_samples_than_dimensions(greedy_calls):
    # C(k + 1, n) = 0: there is no touch set, so the greedy fallback runs
    delta = np.array([[0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
    star = np.array([1.0, 0.0, 0.0, 0.0])
    h, covered = maximum_hyperplane(delta, star)
    assert greedy_calls == [2]
    assert len(covered) == 1
    assert h.value(star) > 0 and (h.value(delta[list(covered)]) < 0).all()


def test_order_sweep_over_planar_lattices(monkeypatch):
    for n in range(1, 7):
        for cap in (ordering.MAX_TOUCH_SUBSETS, 0):
            monkeypatch.setattr(ordering, "MAX_TOUCH_SUBSETS", cap)
            for rep in range(3):
                pts = _planar_lattice(np.random.default_rng([n, cap, rep]), 16, n)
                assert_staircase(pts, distinguishable_order([p[None, :] for p in pts]))
