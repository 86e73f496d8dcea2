from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

from relusynth import arrangement, simplex
from relusynth.arrangement import (
    AmbiguousGeometryError,
    Arrangement,
    count_regions_2d,
    count_regions_bound,
    distinguishable_regions,
    enumerate_regions,
    general_position,
)
from relusynth.core import Hyperplane, Layer, activation_pattern, numeric_rank
from relusynth.ordering import check_distinguishable

H = Hyperplane


def three_generic_lines():
    return Arrangement(2, [H([1, 0], 0), H([0, 1], 0), H([1, 1], -1)])


def test_three_generic_lines_make_seven_regions():
    assert count_regions_2d(three_generic_lines()) == 7


def test_parallel_class():
    arr = Arrangement(2, [H([1.0, 0.0], -float(k)) for k in range(4)])
    assert count_regions_2d(arr) == 5
    assert len(enumerate_regions(arr)) == 5


def test_concurrent_lines():
    arr = Arrangement(2, [H([1, 0], 0), H([0, 1], 0), H([1, 1], 0)])
    assert count_regions_2d(arr) == 6
    assert len(enumerate_regions(arr)) == 6


def test_four_concurrent_lines():
    arr = Arrangement(2, [H([1, 0], 0), H([0, 1], 0), H([1, 1], 0), H([1, -1], 0)])
    assert count_regions_2d(arr) == 8
    assert len(enumerate_regions(arr)) == 8


def test_mixed_parallel_and_crossing():
    arr = Arrangement(2, [H([0, 1], 0), H([0, 1], -1), H([1, 0], 0)])
    assert count_regions_2d(arr) == 6
    assert len(enumerate_regions(arr)) == 6


def test_duplicate_lines_rejected():
    with pytest.raises(ValueError):
        count_regions_2d(Arrangement(2, [H([1, 0], 0), H([2, 0], 0)]))


def test_ambiguous_parallelism_rejected():
    arr = Arrangement(2, [H([1.0, 0.0], 0.0), H([1.0, 5e-9], -3.0)])
    with pytest.raises(AmbiguousGeometryError):
        count_regions_2d(arr)


@pytest.mark.parametrize("lines, error, message", [
    # the coincident pair (1, 2) comes before the unclear pair (1, 3)
    ([H([0, 1], 0), H([1, 0], 0), H([2, 0], 0), H([1.0, 5e-9], -3.0)],
     ValueError, "lines 1 and 2 coincide up to scale"),
    # the unclear pair (1, 2) comes before the coincident pair (1, 3)
    ([H([0, 1], 0), H([1, 0], 0), H([1.0, 5e-9], -3.0), H([2, 0], 0)],
     AmbiguousGeometryError, "lines 1 and 2 are neither clearly parallel nor clearly crossing"),
])
def test_first_offending_pair_names_the_error(lines, error, message):
    with pytest.raises(ValueError) as err:
        count_regions_2d(Arrangement(2, lines))
    assert err.type is error and str(err.value) == message


def test_ambiguous_intersection_rejected():
    # x = 0, y = 0 and x + y = 3e-7 meet pairwise 3e-7 to 4.3e-7 apart
    arr = Arrangement(2, [H([1, 0], 0), H([0, 1], 0), H([1, 1], -3e-7)])
    with pytest.raises(AmbiguousGeometryError) as err:
        count_regions_2d(arr)
    assert str(err.value) == "intersection points neither clearly coincident nor clearly distinct"


def test_count_regions_bound_values():
    assert count_regions_bound(2, 3) == 7
    assert count_regions_bound(3, 0) == 1
    assert count_regions_bound(3, 5) == 1 + 5 + 10 + 10
    with pytest.raises(OverflowError):
        count_regions_bound(1, 2 ** 63)
    with pytest.raises(ValueError):
        count_regions_bound(0, 3)


def test_enumerate_single_hyperplane():
    regions = enumerate_regions(Arrangement(2, [H([1, 1], 0)]))
    assert len(regions) == 2


def test_enumerate_seven_regions_distinct_active_sets():
    regions = enumerate_regions(three_generic_lines())
    assert len(regions) == 7
    assert len({r.sign_vector for r in regions}) == 7


def test_enumerate_cap():
    arr = Arrangement(1, [H([1.0], -float(k)) for k in range(5)])
    with pytest.raises(ValueError):
        enumerate_regions(arr, cap=4)


def test_region_lps_off_the_origin_match_highs(monkeypatch):
    # cells that do not hold the origin, the empty ones among them: each
    # LP is solved shifted to be feasible at the origin, and its margin
    # (optimum plus t0) is the optimum of the unshifted LP
    r = np.random.default_rng(3)
    n, m = 2, 5
    arr = Arrangement(n, [H(w, c) for w, c in zip(r.normal(size=(m, n)), r.normal(size=m) * 3)])
    W = np.array([h.w for h in arr.hyperplanes])
    b = np.array([h.b for h in arr.hyperplanes])
    plus = ((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1).astype(bool)
    sgn = np.where(plus, 1.0, -1.0)
    plus = plus[(sgn * b).min(axis=1) < 0]
    solved = []
    solve_lps = arrangement.solve_lps

    def recording(c, A, rhs):
        solved.append((rhs, solve_lps(c, A, rhs)))
        return solved[-1][1]

    monkeypatch.setattr(arrangement, "solve_lps", recording)
    witnesses = arrangement._region_lps(W, b, plus)
    (rhs, results), = solved
    assert len(results) == len(plus) > 20
    for p, x, res, shifted in zip(plus, witnesses, results, rhs):
        t0 = 1.0 - shifted[-1]
        s = np.where(p, 1.0, -1.0)
        ref = linprog([0.0] * n + [-1.0], A_ub=np.column_stack([-s[:, None] * W, np.ones(m)]),
                      b_ub=s * b, bounds=[(None, None)] * n + [(None, 1.0)], method="highs")
        assert t0 < 0 and ref.status == 0
        assert res.value + t0 == pytest.approx(-ref.fun, abs=1e-9)
        assert (x is None) == (-ref.fun <= arrangement.REGION_THRESHOLD)
        if x is not None:
            assert (s * (W @ x + b) > 0).all()


def test_region_lps_fail_loudly_on_an_unbounded_lp(monkeypatch):
    # t <= 1 bounds every region LP, so an unbounded one is a numerical
    # fault, not an empty cell to drop from the count
    def unbounded(c, A, b):
        return [simplex.LPResult(simplex.UNBOUNDED, None, None)] * len(A)

    monkeypatch.setattr(arrangement, "solve_lps", unbounded)
    with pytest.raises(RuntimeError, match="region LP ended with status unbounded"):
        enumerate_regions(three_generic_lines())


def test_region_lps_in_slices_equal_one_stack_bit_for_bit(monkeypatch):
    # a triangle of side 1e-3 at the origin and seven random lines; each
    # hyperplane's cell LPs are one solve_lps stack, and 2000 entries run
    # the last, of 11-row LPs, in slices of five
    r = np.random.default_rng(7)
    arr = Arrangement(2, [H([1, 0], 0), H([0, 1], 0), H([1, 1], -1e-3)]
                      + [H(w, c) for w, c in zip(r.normal(size=(7, 2)), r.normal(size=7) * 2)])
    stacks = []
    solve_lps = arrangement.solve_lps

    def counting(c, A, b):
        stacks.append(A.shape[0])
        return solve_lps(c, A, b)

    monkeypatch.setattr(arrangement, "solve_lps", counting)
    whole = enumerate_regions(arr, cap=10)
    monkeypatch.setattr(simplex, "_STACK_ENTRIES", 2000)
    sliced = enumerate_regions(arr, cap=10)
    assert len(stacks) == 2 * 10 and stacks[:10] == stacks[10:] and stacks[9] > 5
    assert len(whole) == count_regions_2d(arr)
    assert any(np.abs(rg.witness).max() < 1e-3 for rg in whole)
    assert ([(rg.sign_vector, rg.witness.tobytes()) for rg in sliced]
            == [(rg.sign_vector, rg.witness.tobytes()) for rg in whole])


def test_general_position_basics():
    assert general_position(three_generic_lines())
    assert not general_position(Arrangement(2, [H([1, 0], 0), H([1, 0], -1)]))
    planes = [H([1, 0, 0], 0), H([0, 1, 0], 0), H([0, 0, 1], 0), H([1, 1, 1], 0)]
    assert not general_position(Arrangement(3, planes))


def general_position_reference(arr):
    """``general_position`` as one ``numeric_rank`` call per subset."""
    n, hps = arr.dim, arr.hyperplanes
    m = len(hps)
    for s in range(2, min(m, n) + 1):
        for subset in combinations(range(m), s):
            if numeric_rank(np.array([hps[i].w for i in subset])) < s:
                return False
    if m > n:
        for subset in combinations(range(m), n + 1):
            W = np.array([hps[i].w for i in subset])
            aug = np.hstack([W, -np.array([hps[i].b for i in subset])[:, None]])
            if numeric_rank(aug) == numeric_rank(W):
                return False
    return True


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_general_position_matches_the_per_subset_loop(dim):
    # small integer coefficients, so parallel, dependent and concurrent
    # subsets occur
    rng = np.random.default_rng([dim, 21])
    verdicts = set()
    for _ in range(80):
        m = int(rng.integers(1, dim + 5))
        W = rng.integers(-2, 3, size=(m, dim)).astype(float)
        W[~W.any(axis=1), 0] = 1.0
        b = rng.integers(-3, 4, size=m).astype(float)
        arr = Arrangement(dim, [H(w, c) for w, c in zip(W, b)])
        verdict = general_position(arr)
        assert verdict == general_position_reference(arr)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_general_position_bound_match(rng):
    # random 5-plane arrangement in R^3: exactly 26 regions once in
    # general position
    while True:
        hps = [H(rng.normal(size=3), rng.normal()) for _ in range(5)]
        arr = Arrangement(3, hps)
        if general_position(arr):
            break
    assert len(enumerate_regions(arr)) == count_regions_bound(3, 5) == 26


def test_enumeration_matches_formula_random_2d(rng):
    for _ in range(30):
        m = int(rng.integers(2, 7))
        arr = Arrangement(2, [H(rng.normal(size=2), rng.normal()) for _ in range(m)])
        assert len(enumerate_regions(arr)) == count_regions_2d(arr)


def test_enumeration_matches_formula_on_integer_lines():
    # small integer coefficients make concurrent points and parallel classes
    rng = np.random.default_rng(21)
    degenerate = 0
    for _ in range(40):
        m = int(rng.integers(3, 7))
        W = rng.integers(-2, 3, size=(m, 2)).astype(float)
        W[~W.any(axis=1), 0] = 1.0
        arr = Arrangement(2, [H(w, c) for w, c in zip(W, rng.integers(-2, 3, size=m))])
        try:
            count = count_regions_2d(arr)
        except ValueError as err:
            assert "coincide up to scale" in str(err)
            continue
        degenerate += count < 1 + m + m * (m - 1) // 2
        assert len(enumerate_regions(arr)) == count
    assert degenerate >= 10


def far_line_arrangements():
    """Six random lines and two lines 1e2 to 3e5 from the origin, whose far
    cells a box or samples near the origin miss."""
    for off in (1e2, 1e3, 1e4, 1e5, 3e5):
        for seed in range(5):
            r = np.random.default_rng(seed)
            yield Arrangement(2, [H(w, c) for w, c in zip(r.normal(size=(6, 2)), r.normal(size=6))]
                              + [H([1.0, 0.3], -off), H([0.2, 1.0], off / 2)])


def test_enumeration_finds_the_cells_of_far_lines():
    counts = [(len(enumerate_regions(arr)), count_regions_2d(arr)) for arr in far_line_arrangements()]
    assert len(counts) == 25 and counts[17] == (37, 37)
    assert all(found == count for found, count in counts)


def test_enumeration_past_eighteen_lines():
    # the sign vectors of 40 lines would number 2**40
    r = np.random.default_rng(40)
    arr = Arrangement(2, [H(w, c) for w, c in zip(r.normal(size=(40, 2)), r.normal(size=40))])
    regions = enumerate_regions(arr, cap=40)
    assert len(regions) == count_regions_bound(2, 40) == 821
    W = np.array([h.w for h in arr.hyperplanes])
    b = np.array([h.b for h in arr.hyperplanes])
    codes = [int(sum(1 << i for i, s in enumerate(rg.sign_vector) if s == "+")) for rg in regions]
    assert codes == sorted(set(codes))
    assert all(tuple(np.where(W @ rg.witness + b > 0, "+", "0")) == rg.sign_vector
               for rg in regions)


def test_region_witnesses_reproduce_sign_vectors(rng):
    arr = Arrangement(2, [H(rng.normal(size=2), rng.normal()) for _ in range(4)])
    layer = Layer(np.array([h.w for h in arr.hyperplanes]),
                  np.array([h.b for h in arr.hyperplanes]), "relu")
    for region in enumerate_regions(arr):
        per_point, _ = activation_pattern(layer, region.witness[None, :])
        assert per_point[0].signs == region.sign_vector


def test_staircase_regions_single():
    arr, regions = distinguishable_regions(2, 1)
    assert len(regions) == 1
    assert regions[0].sign_vector == ("+",)


def test_staircase_regions_pattern_three_lines():
    _, regions = distinguishable_regions(2, 3)
    assert [("".join(r.sign_vector)) for r in regions] == ["+00", "++0", "+0+"]


def test_staircase_regions_r3_six():
    arr, regions = distinguishable_regions(3, 6)
    ok, failures = check_distinguishable(
        [r.witness[None, :] for r in regions], arr.hyperplanes)
    assert ok, failures


def test_staircase_regions_1d():
    arr, regions = distinguishable_regions(1, 4)
    ok, _ = check_distinguishable(
        [r.witness[None, :] for r in regions], arr.hyperplanes)
    assert ok
