import json

import numpy as np
import pytest

from relusynth.core import (
    ActivationPattern,
    AffineMap,
    DimensionMismatch,
    DiscretePWL,
    Hyperplane,
    Layer,
    Network,
    RankDeficientError,
    activation_pattern,
    affine_fit,
    distinct_points,
    dumps,
    forward,
    forward_batch,
    forward_masks,
    forward_traced,
    loads,
    numeric_rank,
    match,
    shifted_systems,
    solve_constrained,
    ranked,
    solve_square,
)
from conftest import det_cofactor


def single_relu():
    return Network(1, (Layer([[1.0]], [0.0], "relu"),))


def test_forward_relu_negative():
    assert forward(single_relu(), np.array([-3.0])) == pytest.approx([0.0])


def test_forward_identity_on_positive_ray():
    assert forward(single_relu(), np.array([2.0])) == pytest.approx([2.0])


def test_absolute_value_decomposition_is_identity():
    net = Network(1, (
        Layer([[1.0], [-1.0]], [0.0, 0.0], "relu"),
        Layer([[1.0, -1.0]], [0.0], "linear"),
    ))
    for x in (-5.0, 0.0, 5.0):
        assert forward(net, np.array([x])) == pytest.approx([x])


def test_forward_dimension_mismatch_names_layer():
    net = single_relu()
    with pytest.raises(DimensionMismatch):
        forward(net, np.array([1.0, 2.0]))
    bad = Layer([[1.0, 1.0]], [0.0], "relu")
    with pytest.raises(DimensionMismatch) as err:
        Network(1, (bad,))
    assert err.value.layer_index == 0


def test_forward_clamps_tolerance_band():
    # output > 0 iff preactivation > tolerance
    net = Network(1, (Layer([[1.0]], [0.0], "relu"),))
    assert forward(net, np.array([5e-10]))[0] == 0.0
    assert forward(net, np.array([2e-9]))[0] > 0.0


def test_traced_patterns():
    net = Network(1, (
        Layer([[1.0], [-1.0]], [0.0, 0.0], "relu"),
        Layer([[1.0, -1.0]], [0.0], "linear"),
    ))
    _, patterns = forward_traced(net, np.array([3.0]))
    assert str(patterns[0]) == "+0"


def test_activation_pattern_simultaneous_and_partial():
    layer = Layer([[1.0, 0.0]], [0.0], "relu")
    per_point, agg = activation_pattern(layer, [[1.0, 0.0], [2.0, 3.0]])
    assert all(p.signs == ("+",) for p in per_point)
    assert agg[0] == "simultaneous"
    per_point, agg = activation_pattern(layer, [[1.0, 0.0], [-1.0, 0.0]])
    assert [p.signs for p in per_point] == [("+",), ("0",)]
    assert agg[0] == "partial"


def test_activation_pattern_empty_points_rejected():
    layer = Layer([[1.0, 0.0]], [0.0], "relu")
    with pytest.raises(ValueError):
        activation_pattern(layer, np.zeros((0, 2)))


def test_activation_pattern_two_group_fixture():
    # three lines with one set lighting units 0 and 2 only, the other all
    lines = Layer(
        [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [5.0, -2.0, 5.0], "relu")
    D1 = [[0.0, 0.0], [0.5, 0.5], [0.0, 1.0]]
    D2 = [[3.0, 0.0], [3.5, 1.0], [4.0, 0.5]]
    _, agg1 = activation_pattern(lines, D1)
    _, agg2 = activation_pattern(lines, D2)
    assert agg1 == {0: "simultaneous", 1: "never", 2: "simultaneous"}
    assert agg2 == {0: "simultaneous", 1: "simultaneous", 2: "simultaneous"}


def test_numeric_rank_basics():
    assert numeric_rank(np.eye(3)) == 3
    assert numeric_rank(np.ones((3, 3))) == 1
    with pytest.raises(ValueError):
        numeric_rank(np.zeros((0, 2)))


def test_numeric_rank_perturbation_family_matrix():
    # 3x3 family matrix: base column plus two epsilon-power columns
    w, b = (1.0, 0.5), 0.2
    e1, e2 = 0.3, 0.7
    M = np.array([
        [w[0], w[0], w[0]],
        [w[1], w[1] + e1, w[1] + e1 ** 2],
        [b, b + e2, b + e2 ** 2],
    ])
    assert numeric_rank(M) == 3
    assert abs(det_cofactor(M)) > 1e-12
    assert np.isclose(det_cofactor(M), np.linalg.det(M))


def test_solve_constrained_modes():
    x = solve_constrained(np.array([[1.0, 1.0]]), [2.0])
    assert x == pytest.approx([1.0, 1.0])


def test_solve_constrained_wide_family_matrix(rng):
    # 3x4 stack of a base hyperplane and three perturbed copies
    w, b = np.array([1.0, 0.5]), 0.2
    cols = [np.array([w[0], w[1], b])]
    for p in (1, 2, 3):
        cols.append(np.array([w[0], w[1] + 0.3 ** p, b + 0.7 ** p]))
    A = np.column_stack(cols)
    assert numeric_rank(A) == 3
    for _ in range(10):
        y = rng.normal(size=3)
        x = solve_constrained(A, y)
        assert np.max(np.abs(A @ x - y)) < 1e-10


def test_exact_square_roundtrip(rng):
    for _ in range(20):
        A = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        y = rng.normal(size=4)
        x = solve_square(A, y[None])[0]
        assert np.max(np.abs(A @ x - y)) <= 1e-10 * (1 + np.max(np.abs(y)))


def test_forward_masks_rows_equal_traced_patterns(rng):
    net = Network(2, (
        Layer(np.vstack([[1.0, 0.0], rng.normal(size=(4, 2))]),
              np.concatenate([[0.0], rng.normal(size=4)]), "relu"),
        Layer(rng.normal(size=(3, 5)), rng.normal(size=3), "relu"),
        Layer(rng.normal(size=(2, 3)), rng.normal(size=2), "linear"),
    ))
    # the first point puts unit 0's preactivation at 5e-10, inside (0, tol]
    X = np.vstack([[5e-10, 0.3], rng.normal(size=(40, 2)) * 2])
    out, masks = forward_masks(net, X)
    assert out.tobytes() == forward_batch(net, X).tobytes()
    assert [m.shape for m in masks] == [(41, 5), (41, 3), (41, 2)]
    assert not masks[0][0, 0]
    for i, x in enumerate(X):
        y, patterns = forward_traced(net, x)
        assert [tuple(np.flatnonzero(m[i])) for m in masks] == [
            p.active_units() for p in patterns]
        # the one-point product of the loop forward_masks replaced
        ref = x
        for layer in net.layers:
            z = ref @ layer.weights.T + layer.biases
            ref = np.where(z > 1e-9, z, 0.0) if layer.activation == "relu" else z
        assert y.tobytes() == ref.tobytes()


def test_forward_is_affine_per_activation_pattern(rng):
    net = Network(2, (
        Layer(rng.normal(size=(5, 2)), rng.normal(size=5), "relu"),
        Layer(rng.normal(size=(4, 5)), rng.normal(size=4), "relu"),
        Layer(rng.normal(size=(1, 4)), [0.0], "linear"),
    ))
    pts = rng.normal(size=(300, 2)) * 2
    groups = {}
    for x in pts:
        out, patterns = forward_traced(net, x)
        key = tuple(str(p) for p in patterns)
        groups.setdefault(key, []).append((x, out))
    checked = 0
    for key, members in groups.items():
        if len(members) < 4:
            continue
        X = np.array([m[0] for m in members])
        Y = np.array([m[1] for m in members])
        _, resid = affine_fit(X, Y)
        assert resid <= 1e-8
        checked += 1
    assert checked >= 1


def test_network_json_roundtrip_bit_exact(rng):
    net = Network(3, (
        Layer(rng.normal(size=(4, 3)), rng.normal(size=4), "relu"),
        Layer(rng.normal(size=(1, 4)), [0.0], "linear"),
    ))
    back = Network.from_json(net.to_json())
    for a, b in zip(net.layers, back.layers):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.biases.tobytes() == b.biases.tobytes()
        assert a.activation == b.activation


def _assert_same_bits(net, back):
    assert len(back.layers) == len(net.layers)
    for a, b in zip(net.layers, back.layers):
        assert np.array_equal(a.weights.view(np.int64), b.weights.view(np.int64))
        assert np.array_equal(a.biases.view(np.int64), b.biases.view(np.int64))
        assert a.activation == b.activation


def _seeded_builds():
    from relusynth.deep import deep_build
    from relusynth.shallow import multi_output_build

    rng = np.random.default_rng([7, 1])
    pwl = DiscretePWL.singletons(rng.normal(size=(12, 2)) * 3, rng.normal(size=(12, 1)))
    return [multi_output_build(pwl, seed=1).network, deep_build(pwl, seed=1).network]


def test_built_networks_json_roundtrip_bit_exact():
    for net in _seeded_builds():
        _assert_same_bits(net, Network.from_json(net.to_json()))


EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               0.1, 1e-5, 1e16]


def test_edge_floats_json_roundtrip_bit_exact():
    v = np.array(EDGE_FLOATS)
    net = Network(len(v), (Layer(np.vstack([v, -v]), v[:2], "linear"),))
    _assert_same_bits(net, Network.from_json(net.to_json()))
    # the stdlib reads what the codec writes, and the other way round
    assert np.array_equal(np.array(json.loads(dumps(EDGE_FLOATS))).view(np.int64),
                          v.view(np.int64))
    assert np.array_equal(np.array(loads(json.dumps(EDGE_FLOATS))).view(np.int64),
                          v.view(np.int64))


def test_network_files_written_by_json_dumps_still_load_bit_exact():
    for net in _seeded_builds():
        _assert_same_bits(net, Network.from_json(json.dumps(net.to_json_dict())))


def test_indented_json_holds_the_compact_values():
    net = _seeded_builds()[1]
    assert loads(dumps(net.to_json_dict(), indent=2)) == loads(net.to_json())
    with pytest.raises(ValueError, match="indent must be None or 2, got 4"):
        dumps({}, indent=4)


def test_pwl_json_roundtrip_bit_exact(rng):
    pwl = DiscretePWL(2, 2, (
        (rng.normal(size=(3, 2)), AffineMap(rng.normal(size=(2, 2)), rng.normal(size=2))),
        (rng.normal(size=(2, 2)) + 10, AffineMap.constant([1.0, -1.0], 2)),
    ))
    back = DiscretePWL.from_json(pwl.to_json())
    for (p1, m1), (p2, m2) in zip(pwl.subdomains, back.subdomains):
        assert p1.tobytes() == p2.tobytes()
        assert m1.W.tobytes() == m2.W.tobytes()
        assert m1.b.tobytes() == m2.b.tobytes()


def test_pwl_validation():
    with pytest.raises(ValueError):
        DiscretePWL(2, 1, (
            (np.zeros((1, 2)), AffineMap.constant([0.0], 2)),
            (np.zeros((1, 2)), AffineMap.constant([1.0], 2)),  # duplicate point
        ))
    with pytest.raises(ValueError):
        DiscretePWL(2, 1, ((np.zeros((0, 2)), AffineMap.constant([0.0], 2)),))


def test_hyperplane_rejects_zero_weights():
    with pytest.raises(ValueError):
        Hyperplane([0.0, 0.0], 1.0)


def test_architecture_string_collapses_equal_layers():
    net = Network(2, (
        Layer(np.ones((12, 2)), np.zeros(12), "relu"),
        Layer(np.ones((12, 12)), np.zeros(12), "relu"),
        Layer(np.ones((1, 12)), [0.0], "linear"),
    ))
    assert net.architecture() == "2(1)12(2)1'(1)"


def test_activation_pattern_from_preactivation():
    p = ActivationPattern.from_preactivation([1.0, 0.0, 5e-10, 2e-9])
    assert str(p) == "+00+"
    assert p.active_units() == (0, 3)


def test_solve_square_is_one_refined_solve_per_right_hand_side(rng):
    A = rng.normal(size=(5, 4, 4))
    Y = rng.normal(size=(5, 3, 4))
    X = solve_square(A, Y)
    for a, ys, xs in zip(A, Y, X):
        for y, x in zip(ys, xs):
            ref = np.linalg.solve(a, y)
            ref += np.linalg.solve(a, y - a @ ref)
            assert x.tobytes() == ref.tobytes()
            assert x.tobytes() == solve_square(a, y[None])[0].tobytes()


def test_shifted_systems_move_the_bias_row_to_the_centroid(rng):
    M = rng.normal(size=(3, 3, 3))
    centroids = rng.normal(size=(3, 2))
    S = shifted_systems(M, centroids, np.ones(3, dtype=bool), str)
    assert S.flags.c_contiguous
    assert S[:, :2].tobytes() == M[:, :2].tobytes()
    for m, s, c in zip(M, S, centroids):
        assert s[2] == pytest.approx(m[2] + c @ m[:2], abs=1e-14)
        # same solution: the target's constant term is measured at c too
        y = rng.normal(size=3)
        x = solve_square(m, y[None])[0]
        assert solve_square(s, np.append(y[:2], y[2] + c @ y[:2])[None])[0] == \
            pytest.approx(x, rel=1e-9)


@pytest.mark.parametrize("label, expect", [
    (lambda j: f"stage {j + 1} (subdomain {7 + j})", r"^stage 2 \(subdomain 8\): "),
    (lambda j: f"output layer (leaf {[4, 9, 2][j]})", r"^output layer \(leaf 9\): "),
])
def test_shifted_systems_name_the_first_singular_square_system(rng, label, expect):
    M = rng.normal(size=(3, 3, 3))
    M[1, :, 2] = M[1, :, 0] + M[1, :, 1]     # rank 2: a column repeats a sum
    M[2, :, 1] = 2.0 * M[2, :, 0]
    with pytest.raises(RankDeficientError,
                       match=expect + r"centroid-shifted matrix rank 2 < 3$") as err:
        shifted_systems(M, rng.normal(size=(3, 2)), np.ones(3, dtype=bool), label)
    assert err.value.rank == 2
    # systems not solved exactly are not ranked
    shifted_systems(M, rng.normal(size=(3, 2)), np.array([True, False, False]), label)


def test_match_solves_square_stacks_exactly_and_wide_ones_by_least_norm(rng):
    A = rng.normal(size=(2, 3, 3))
    Y = rng.normal(size=(2, 4, 3))
    assert match(A, Y).tobytes() == solve_square(A, Y).tobytes()
    A = rng.normal(size=(2, 3, 5))
    X = match(A, Y)
    assert X.shape == (2, 4, 5)
    for a, ys, xs in zip(A, Y, X):
        for y, x in zip(ys, xs):
            assert x.tobytes() == solve_constrained(a, y).tobytes()
    assert match(A[0], Y[0]).tobytes() == X[0].tobytes()


def test_ranked_is_numeric_rank_per_matrix(rng):
    M = rng.normal(size=(6, 3, 5))
    M[1, 2] = M[1, 0] + M[1, 1]
    M[2] = 0.0
    rank, sigma_min = ranked(M)
    assert rank.tolist() == [numeric_rank(m) for m in M] == [3, 2, 0, 3, 3, 3]
    # each one's smallest singular value over its largest; nan for the zero matrix
    s = np.linalg.svd(np.delete(M, 2, axis=0), compute_uv=False)
    assert np.isnan(sigma_min[2])
    assert np.delete(sigma_min, 2).tolist() == (s[:, -1] / s[:, 0]).tolist()


def test_distinct_points_keep_the_first_occurrence_and_name_a_conflict():
    pts = np.array([[0.0, 1.0], [2.0, 3.0], [1e-13, 1.0], [2.0, 3.0]])
    vals = np.array([[1.0], [2.0], [1.0], [2.0]])
    P, V = distinct_points(pts, vals)
    assert P.tolist() == [[0.0, 1.0], [2.0, 3.0]] and V.tolist() == [[1.0], [2.0]]
    vals[3] = 5.0
    with pytest.raises(ValueError, match=r"row 3 with a conflicting target.*bijective"):
        distinct_points(pts, vals)
