import numpy as np
import pytest
from scipy.optimize import linprog

from relusynth import simplex
from relusynth.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp, solve_lps


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
    res = solve_lp([1.0], [[1.0], [-1.0]], [0.0, -1.0])  # x <= 0 and x >= 1
    assert res.status == INFEASIBLE


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
        b = rng.normal(size=m)
        c = rng.normal(size=n)
        mine = solve_lp(c, A, b)
        ref = reference(c, A, b)
        if ref.status == 0:
            assert mine.status == OPTIMAL
            assert mine.value == pytest.approx(-ref.fun, abs=1e-6, rel=1e-6)
            assert np.all(A @ mine.z - b < 1e-7)
        elif ref.status == 2:
            assert mine.status == INFEASIBLE
        elif ref.status == 3:
            assert mine.status == UNBOUNDED
        agree += 1
    assert agree == 200


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_lp([1.0, 2.0], [[1.0]], [1.0])


def assert_same_bits(mine, ref):
    assert mine.status == ref.status
    if ref.z is None:
        assert mine.z is None and mine.value is None and ref.value is None
    else:
        assert mine.z.tobytes() == ref.z.tobytes()
        assert mine.value == ref.value


def test_solve_lps_mixed_statuses_and_row_counts():
    c = [1.0, 1.0]
    batch = [
        ([[1, 0], [0, 1], [1, 1]], [2.0, 3.0, 4.0]),                  # optimal
        ([[1, 0], [0, 1], [1, 1], [1, 1], [2, 2], [0.5, 0.5]],
         [1.0, 1.0, 2.0, 2.0, 4.0, 1.0]),                            # degenerate
        ([[-1, 0], [0, -1]], [0.0, 0.0]),                            # unbounded
        ([[1, 0], [-1, 0]], [0.0, -1.0]),                            # infeasible
        ([[1, 0], [0, 1], [-1, -1]], [2.0, 3.0, -1.0]),              # phase 1, feasible
    ]
    results = solve_lps(c, [A for A, _ in batch], [b for _, b in batch])
    assert [r.status for r in results] == [OPTIMAL, OPTIMAL, UNBOUNDED, INFEASIBLE, OPTIMAL]
    for (A, b), res in zip(batch, results):
        assert_same_bits(res, solve_lp(c, A, b))
        assert_same_bits(solve_lps(c, [A], [b])[0], res)
    assert solve_lps(c, [], []) == []


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
            if kind == 0:    # negative rhs entries: phase 1, often infeasible
                A, b = rng.normal(size=(m, n)), rng.normal(size=m)
            elif kind == 1:  # the origin is feasible: often unbounded
                A, b = rng.normal(size=(m, n)), np.abs(rng.normal(size=m))
            else:            # small integers: degenerate vertices and ratio ties
                A, b = rng.integers(-2, 3, size=(m, n)), rng.integers(0, 3, size=m)
            As.append(A)
            bs.append(b)
        for A, b, res in zip(As, bs, solve_lps(c, As, bs)):
            assert_same_bits(res, solve_lp(c, A, b))
            statuses[res.status] = statuses.get(res.status, 0) + 1
    assert min(statuses.get(s, 0) for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) >= 20
