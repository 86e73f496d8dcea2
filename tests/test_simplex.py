import numpy as np
import pytest
from scipy.optimize import linprog

from relusynth import simplex
from relusynth.simplex import OPTIMAL, UNBOUNDED, solve_lp, solve_lps


def reference(c, A, b):
    res = linprog(-np.asarray(c), A_ub=A, b_ub=b,
                  bounds=[(None, None)] * len(c), method="highs")
    return res


def test_known_optimum():
    # max x + y s.t. x <= 2, y <= 3, x + y <= 4
    res = solve_lp([1.0, 1.0], [[1, 0], [0, 1], [1, 1]], [2.0, 3.0, 4.0])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(4.0)


def test_infeasible():
    # a negative rhs (here x <= 0 and x >= 1) is rejected, not solved
    with pytest.raises(ValueError, match="feasible at z = 0"):
        solve_lp([1.0], [[1.0], [-1.0]], [0.0, -1.0])
    with pytest.raises(ValueError, match="feasible at z = 0"):
        solve_lps([1.0], np.ones((2, 1, 1)), np.array([[1.0], [-1e-300]]))


def test_unbounded():
    res = solve_lp([1.0], [[-1.0]], [0.0])  # x >= 0, maximize x
    assert res.status == UNBOUNDED


def test_degenerate_pivoting_terminates():
    # classic degenerate corner: many redundant constraints through a vertex
    A = [[1, 0], [0, 1], [1, 1], [1, 1], [2, 2], [0.5, 0.5]]
    b = [1.0, 1.0, 2.0, 2.0, 4.0, 1.0]
    res = solve_lp([1.0, 1.0], A, b)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(2.0)


def test_matches_reference_on_random_instances(rng):
    agree = 0
    for _ in range(200):
        m = int(rng.integers(1, 25))
        n = int(rng.integers(1, 8))
        A = rng.normal(size=(m, n))
        b = np.abs(rng.normal(size=m))
        c = rng.normal(size=n)
        mine = solve_lp(c, A, b)
        ref = reference(c, A, b)
        if ref.status == 0:
            assert mine.status == OPTIMAL
            assert mine.value == pytest.approx(-ref.fun, abs=1e-6, rel=1e-6)
            assert np.all(A @ mine.z - b < 1e-7)
        elif ref.status == 3:
            assert mine.status == UNBOUNDED
        agree += 1
    assert agree == 200


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_lp([1.0, 2.0], [[1.0]], [1.0])
    with pytest.raises(ValueError):  # solve_lps takes a stack: one LP is A[None]
        solve_lps([1.0], [[1.0]], [1.0])


def assert_same_bits(mine, ref):
    assert mine.status == ref.status
    if ref.z is None:
        assert mine.z is None and mine.value is None and ref.value is None
    else:
        assert mine.z.tobytes() == ref.z.tobytes()
        assert mine.value == ref.value


def padded(n, As, bs):
    """The LPs (As[l], bs[l]) as one stack, each padded at the end with
    0 <= 0 rows up to the largest."""
    rows = max(len(bl) for bl in bs)
    A, b = np.zeros((len(As), rows, n)), np.zeros((len(As), rows))
    for l, (Al, bl) in enumerate(zip(As, bs)):
        A[l, :len(bl)], b[l, :len(bl)] = Al, bl
    return A, b


def test_solve_lps_mixed_statuses_and_row_counts():
    c = [1.0, 1.0]
    batch = [
        ([[1, 0], [0, 1], [1, 1]], [2.0, 3.0, 4.0]),                  # optimal
        ([[1, 0], [0, 1], [1, 1], [1, 1], [2, 2], [0.5, 0.5]],
         [1.0, 1.0, 2.0, 2.0, 4.0, 1.0]),                            # degenerate
        ([[-1, 0], [0, -1]], [0.0, 0.0]),                            # unbounded
    ]
    results = solve_lps(c, *padded(2, [A for A, _ in batch], [b for _, b in batch]))
    assert [r.status for r in results] == [OPTIMAL, OPTIMAL, UNBOUNDED]
    assert results[1].value == 2.0
    for (A, b), res in zip(batch, results):
        assert_same_bits(res, solve_lp(c, A, b))
    assert solve_lps(c, np.zeros((0, 3, 2)), np.zeros((0, 3))) == []


@pytest.mark.parametrize("stack_entries", [simplex._STACK_ENTRIES, 2000])
def test_solve_lps_equals_solve_lp_bit_for_bit(rng, monkeypatch, stack_entries):
    # 2000 entries split most batches into several stacks
    monkeypatch.setattr(simplex, "_STACK_ENTRIES", stack_entries)
    statuses = {}
    for _ in range(120):
        n = int(rng.integers(1, 6))
        c = rng.normal(size=n)
        As, bs = [], []
        for _ in range(int(rng.integers(1, 7))):
            m = int(rng.integers(1, 20))
            kind = int(rng.integers(3))
            if kind < 2:     # the origin is feasible: often unbounded
                A, b = rng.normal(size=(m, n)), np.abs(rng.normal(size=m))
            else:            # small integers: degenerate vertices and ratio ties
                A, b = rng.integers(-2, 3, size=(m, n)), rng.integers(0, 3, size=m)
            As.append(A)
            bs.append(b)
        for A, b, res in zip(As, bs, solve_lps(c, *padded(n, As, bs))):
            assert_same_bits(res, solve_lp(c, A, b))
            statuses[res.status] = statuses.get(res.status, 0) + 1
    assert min(statuses.get(s, 0) for s in (OPTIMAL, UNBOUNDED)) >= 20


def test_stacked_batch_sliced_equals_unsliced_bit_for_bit(rng, monkeypatch):
    # a stack as separate_many hands it over: each LP padded at the end
    # with 0 <= 0 rows up to the batch's largest
    n, L, rows = 3, 40, 24
    c = rng.normal(size=n)
    A, b, sizes = np.zeros((L, rows, n)), np.zeros((L, rows)), rng.integers(1, rows + 1, size=L)
    for l, m in enumerate(sizes):
        if l % 2:  # small integers: degenerate vertices and ratio ties
            A[l, :m], b[l, :m] = rng.integers(-2, 3, size=(m, n)), rng.integers(0, 3, size=m)
        else:      # the origin is feasible: often unbounded
            A[l, :m], b[l, :m] = rng.normal(size=(m, n)), np.abs(rng.normal(size=m))
    whole = solve_lps(c, A, b)
    # 2000 entries hold one LP per slice, each without its padding rows
    monkeypatch.setattr(simplex, "_STACK_ENTRIES", 2000)
    sliced = solve_lps(c, A, b)
    assert {res.status for res in whole} == {OPTIMAL, UNBOUNDED}
    for l, (m, res) in enumerate(zip(sizes, whole, strict=True)):
        assert_same_bits(sliced[l], res)
        assert_same_bits(solve_lp(c, A[l, :m], b[l, :m]), res)
    assert solve_lps(c, A[:0], b[:0]) == []
    with pytest.raises(ValueError):
        solve_lps(c, A[:, :, :2], b)


def test_iteration_limit_is_an_error(monkeypatch):
    monkeypatch.setattr(simplex, "_MAX_ITER", 1)
    # max x + y over x <= 2, y <= 3 takes two pivots
    with pytest.raises(RuntimeError, match="simplex iteration limit exceeded"):
        solve_lp([1.0, 1.0], [[1, 0], [0, 1]], [2.0, 3.0])
