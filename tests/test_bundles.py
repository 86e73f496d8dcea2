from itertools import combinations

import numpy as np
import pytest

from relusynth.bundles import (
    BundleConfig,
    MarginError,
    axis_family,
    common_point_bundle,
    same_classification_bundle,
)
from relusynth.core import Hyperplane, RankDeficientError, numeric_rank
from conftest import det_cofactor, nudge_bias, repeat_base


def stacked(bundle):
    return np.vstack([
        np.column_stack([h.w for h in bundle]),
        np.array([[h.b for h in bundle]]),
    ])


def test_single_member_returns_base_unchanged():
    base = Hyperplane([1.0, 0.5], 0.2)
    out = same_classification_bundle(base, [[1.0, 1.0]], [[-1.0, -1.0]], 1)
    assert out == [base]


def test_family_of_three_keeps_sides_and_rank():
    base = Hyperplane([1.0, 0.5], 0.2)
    plus = np.array([[1.0, 1.0]])
    zero = np.array([[-1.0, -1.0]])
    bundle = same_classification_bundle(base, plus, zero, 3)
    M = stacked(bundle)
    assert numeric_rank(M) == 3
    assert abs(det_cofactor(M)) > 1e-300
    for h in bundle:
        assert h.value(plus[0]) > 0
        assert h.value(zero[0]) < 0


def test_family_of_five_wide_stack():
    base = Hyperplane([1.0, 0.5], 0.2)
    bundle = same_classification_bundle(base, [[1.0, 1.0]], [[-1.0, -1.0]], 5)
    M = stacked(bundle)
    assert M.shape == (3, 5)
    assert numeric_rank(M) == 3
    # some 3x3 column subset is nonsingular
    assert any(
        abs(det_cofactor(M[:, list(cols)])) > 1e-300
        for cols in combinations(range(5), 3)
    )


def test_member_margins_at_least_half_floor(rng):
    cfg = BundleConfig()
    for _ in range(10):
        n = int(rng.integers(1, 5))
        plus = rng.normal(size=(4, n)) + 4
        zero = rng.normal(size=(4, n)) - 4
        base = Hyperplane(np.ones(n), 0.0)
        bundle = same_classification_bundle(base, plus, zero, n + 1, cfg)
        for h in bundle:
            assert h.value(plus).min() >= cfg.margin / 2
            assert (-h.value(zero)).min() >= cfg.margin / 2


def test_base_must_separate_with_margin():
    base = Hyperplane([1.0, 0.0], 0.0)
    with pytest.raises(MarginError) as err:
        same_classification_bundle(base, [[1.0, 0.0]], [[0.5, 0.0]], 3)
    assert err.value.point.tolist() == [0.5, 0.0] and err.value.margin == -0.5


def test_rank_failure_raises_rank_deficient_error():
    # a margin of 2e-6 at 1e4 gives the bias step 1e-6, so the stacked
    # parameters [[1, 1], [b, b + 1e-6]] have sigma ratio about 5e-15
    base = Hyperplane([1.0], -1e4 + 2e-6)
    with pytest.raises(RankDeficientError,
                       match=r"same-classification bundle: bundle matrix rank 1 < 2") as err:
        same_classification_bundle(base, [[1e4]], [[0.0]], 2)
    assert err.value.rank == 1


def test_one_base_calls_take_one_builder_call_each(family_calls):
    base = Hyperplane([1.0, 1.0], -1.0)
    same_classification_bundle(base, [[2.0, 2.0]], [[0.0, 0.0]], 3)
    common_point_bundle(base, [1.0, 0.0], [[2.0, 2.0]])
    assert len(family_calls) == 2


def test_common_point_1d_is_base():
    base = Hyperplane([2.0], -1.0)
    assert common_point_bundle(base, [0.5], [[3.0]]) == [base]


def test_common_point_two_lines():
    base = Hyperplane([1.0, 1.0], -1.0)
    anchor = np.array([1.0, 0.0])
    bundle = common_point_bundle(base, anchor, [[2.0, 2.0]])
    assert len(bundle) == 2
    W = np.array([h.w for h in bundle])
    assert abs(det_cofactor(W)) > 1e-300
    for h in bundle:
        assert abs(h.value(anchor)) < 1e-9
        assert h.value(np.array([2.0, 2.0])) > 0


def test_common_point_solve_recovers_anchor(rng):
    w = rng.normal(size=3)
    base = Hyperplane(w, 0.0)
    anchor = np.zeros(3)
    plus = rng.normal(size=(6, 3))
    plus = plus[base.value(plus) > 0.1]
    bundle = common_point_bundle(base, anchor, plus)
    W = np.array([h.w for h in bundle])
    b = np.array([h.b for h in bundle])
    rec = np.linalg.solve(W, -b)
    assert np.max(np.abs(rec - anchor)) <= 1e-9


def test_common_point_anchor_must_lie_on_base():
    with pytest.raises(ValueError):
        common_point_bundle(Hyperplane([1.0, 0.0], 0.0), [1.0, 0.0], [[2.0, 0.0]])


def test_bundle_config_validation():
    with pytest.raises(ValueError):
        BundleConfig(margin=0.0)


@pytest.mark.parametrize("margin", [float("nan"), float("inf"), -1e-6, "x", True])
def test_bundle_config_rejects_a_margin_that_is_not_finite_positive(margin):
    # a NaN margin would pass every margin test (margins < nan is false)
    with pytest.raises(ValueError, match="margin must be a finite positive number"):
        BundleConfig(margin=margin)


def test_common_point_anchor_off_base_is_named_before_the_margins():
    # the plus point is on the base's zero side too; the anchor fails first
    with pytest.raises(ValueError, match=r"^common-point bundle: anchor does not lie "
                                         r"on the base hyperplane$"):
        common_point_bundle(Hyperplane([1.0, 0.0], 0.0), [1.0, 0.0], [[-2.0, 0.0]])


@pytest.mark.parametrize("change, what", [
    (nudge_bias, "family does not meet at the anchor"),
    (repeat_base, "common-point frame is singular"),
])
def test_common_point_family_must_meet_at_its_anchor(edit_anchored, change, what):
    edit_anchored(change)
    with pytest.raises(RuntimeError, match=f"^common-point bundle: {what}$"):
        common_point_bundle(Hyperplane([1.0, 1.0], -1.0), [1.0, 0.0], [[2.0, 2.0]])


def condition_ratio(M):
    s = np.linalg.svd(M, compute_uv=False)
    return s[-1] / s[0]


@pytest.mark.parametrize("n", range(2, 11))
def test_stacked_parameters_well_conditioned_in_every_dimension(n):
    # the epsilon-power family fell to 1.5e-9 at n = 8 and lost rank at 10
    r = np.random.default_rng(n)
    plus = r.normal(size=(4, n)) + 4
    zero = r.normal(size=(4, n)) - 4
    bundle = same_classification_bundle(Hyperplane(np.ones(n), 0.0), plus, zero, n + 1)
    assert condition_ratio(stacked(bundle)) >= 1e-3


@pytest.mark.parametrize("n", range(2, 11))
def test_common_point_weight_frame_well_conditioned(n):
    r = np.random.default_rng(n)
    anchor = r.normal(size=n)
    base = Hyperplane(np.ones(n), -float(np.ones(n) @ anchor))
    plus = anchor + np.abs(r.normal(size=(6, n))) + 1.0
    bundle = common_point_bundle(base, anchor, plus)
    assert condition_ratio(np.array([h.w for h in bundle])) >= 1e-3
    for h in bundle:
        assert abs(h.value(anchor)) <= 1e-9
        assert h.value(plus).min() >= 0.5 * base.value(plus).min()


def test_stacked_family_equals_one_base_calls_bit_for_bit(rng):
    # a stack of bases gives each base the family a one-base call gives it
    for n, count in ((1, 2), (3, 4), (5, 9)):
        pts = rng.normal(size=(30, n)) * 3
        W, b = rng.normal(size=(6, n)), rng.normal(size=6)
        bundles, worst, reach = [], [], []
        for w, c in zip(W, b):
            base = Hyperplane(w, c)
            v = base.value(pts)
            plus, zero = pts[v > 0.1], pts[v < -0.1]
            bundles.append(same_classification_bundle(base, plus, zero, count))
            cond = np.vstack([plus, zero])
            worst.append(np.abs(base.value(cond)).min())
            reach.append(np.abs(cond).max(axis=0))
        params = axis_family(W, b, count, np.array(worst), np.array(reach))
        assert params.shape == (6, count, n + 1)
        for P, bundle in zip(params, bundles):
            assert P.tobytes() == stacked(bundle).T.tobytes()


def test_empty_sides_equal_axis_family(rng):
    # reduceat does not reduce an empty segment: a bundle with one side
    # empty takes worst and reach from the other, and one without any
    # conditioning point takes worst = inf and reach = 0
    n, count = 3, 5
    base = Hyperplane(rng.normal(size=n), 0.5)
    pts = rng.normal(size=(12, n)) * 3
    v = base.value(pts)
    plus, zero = pts[v > 0.1], pts[v < -0.1]
    for D_plus, D_zero in ((plus, None), (None, zero), ([], zero), (None, None)):
        cond = np.vstack([np.zeros((0, n))] + [D for D in (D_plus, D_zero)
                                               if D is not None and len(D)])
        bundle = same_classification_bundle(base, D_plus, D_zero, count)
        P = axis_family(base.w[None], np.array([base.b]), count,
                        np.abs(base.value(cond)).min(initial=np.inf)[None],
                        np.abs(cond).max(axis=0, initial=0.0)[None])[0]
        assert P.tobytes() == stacked(bundle).T.tobytes()
    # a common-point family without plus points
    anchor = rng.normal(size=n)
    base = Hyperplane(base.w, -float(base.w @ anchor))
    bundle = common_point_bundle(base, anchor, [], count=count)
    P = axis_family(base.w[None], np.array([base.b]), count, np.array([np.inf]),
                    np.zeros((1, n)), anchor[None])[0]
    assert P.tobytes() == stacked(bundle).T.tobytes()
