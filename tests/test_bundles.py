from itertools import combinations

import numpy as np
import pytest

from relusynth.bundles import (
    BundleConfig,
    MarginError,
    common_point_bundle,
    reversed_pair_bundles,
    same_classification_bundle,
)
from relusynth.core import Hyperplane, affine_fit, numeric_rank
from relusynth.ordering import InseparableError
from conftest import det_cofactor


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
    assert err.value.point is not None


def test_reversed_pair_singletons():
    a, b = reversed_pair_bundles([[0.0, 1.0]], [[0.0, -1.0]], 1, 1)
    assert len(a) == 1 and len(b) == 1
    assert a[0].value(np.array([0.0, 1.0])) > 0
    assert a[0].value(np.array([0.0, -1.0])) < 0
    assert b[0].value(np.array([0.0, -1.0])) > 0
    assert b[0].value(np.array([0.0, 1.0])) < 0


def test_reversed_pair_two_by_two_pattern(rng):
    D1 = rng.normal(size=(3, 2)) * 0.5
    D2 = rng.normal(size=(3, 2)) * 0.5 + [5.0, 0.0]
    a, b = reversed_pair_bundles(D1, D2, 2, 2)
    for h in a:
        assert (h.value(D1) > 0).all() and (h.value(D2) < 0).all()
    for h in b:
        assert (h.value(D2) > 0).all() and (h.value(D1) < 0).all()


def test_reversed_pair_affine_image(rng):
    D1 = rng.normal(size=(10, 3)) + [0.0, 0.0, 5.0]
    D2 = rng.normal(size=(10, 3))
    a, b = reversed_pair_bundles(D1, D2, 3, 3)
    W = np.array([h.w for h in a])
    bias = np.array([h.b for h in a])
    image = D1 @ W.T + bias
    fit, resid = affine_fit(D1, image)
    assert resid <= 1e-8
    assert fit.is_nonsingular()


def test_reversed_pair_inseparable_raises_with_certificate():
    D1 = [[0.0, 0.0], [1.0, 1.0]]
    D2 = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(InseparableError) as err:
        reversed_pair_bundles(D1, D2, 2, 2)
    assert err.value.result.lp_margin <= 1e-7


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
