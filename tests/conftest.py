import json

import numpy as np
import pytest

from relusynth import bundles, core, deep, ordering, shallow, simplex

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    # fixed examples, so tier-1 runs the same builds every time; builds of
    # 8-D networks take tens of milliseconds, so no per-example deadline
    settings.register_profile("relusynth", derandomize=True, deadline=None,
                              database=None, max_examples=150)
    settings.load_profile("relusynth")


def strict_loads(text):
    """``json.loads`` that rejects the NaN and Infinity tokens RFC 8259
    leaves out."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def det_cofactor(M):
    """Determinant by cofactor expansion; independent of numpy.linalg."""
    M = [list(map(float, row)) for row in M]
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += ((-1.0) ** j) * M[0][j] * det_cofactor(minor)
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def svd_calls(monkeypatch):
    """Every np.linalg.svd call, one entry per call."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.fixture
def lp_calls(monkeypatch):
    """Every LP the ordering module solves: one per LP of a solve_lps
    batch, its one LP entry point."""
    calls = []
    solve_many = ordering.solve_lps

    def counting_many(c, A, b):
        calls.extend(1 for _ in A)
        return solve_many(c, A, b)

    monkeypatch.setattr(ordering, "solve_lps", counting_many)
    return calls


@pytest.fixture
def lp_batches(monkeypatch):
    """The size of every ``solve_lps`` batch the ordering module solves,
    one entry per batch."""
    sizes = []
    solve_many = ordering.solve_lps

    def counting(c, A, b):
        sizes.append(len(A))
        return solve_many(c, A, b)

    monkeypatch.setattr(ordering, "solve_lps", counting)
    return sizes


@pytest.fixture
def pivot_calls(monkeypatch):
    """Every simplex pivot step: one entry per lockstep ``_pivot`` call,
    however many LPs it pivots."""
    calls = []
    pivot = simplex._pivot

    def counting(*args):
        calls.append(1)
        return pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", counting)
    return calls


@pytest.fixture
def greedy_calls(monkeypatch):
    """Every run of ``maximum_hyperplane``'s greedy fallback, one entry per
    run: the number of zero-side samples it was given."""
    calls = []
    greedy_removal = ordering._greedy_removal

    def counting(delta, star):
        calls.append(len(delta))
        return greedy_removal(delta, star)

    monkeypatch.setattr(ordering, "_greedy_removal", counting)
    return calls


@pytest.fixture
def family_calls(monkeypatch):
    """Every call of the stacked bundle builder ``bundles.families``, one
    entry per call, from the one-base functions and from both builders."""
    calls = []
    families = bundles.families

    def counting(*args, **kwargs):
        calls.append(1)
        return families(*args, **kwargs)

    for module in (bundles, shallow, deep):
        monkeypatch.setattr(module, "families", counting)
    return calls


@pytest.fixture
def shifted_calls(monkeypatch):
    """Every ``core.shifted_systems`` call the builders make, one entry per
    call: its number of systems and their columns."""
    calls = []
    shifted_systems = core.shifted_systems

    def counting(M, *args, **kwargs):
        M = np.asarray(M)
        calls.append((M.shape[0], M.shape[2]))
        return shifted_systems(M, *args, **kwargs)

    for module in (shallow, deep):
        monkeypatch.setattr(module, "shifted_systems", counting)
    return calls


def nudge_bias(P):
    """Member 1 of each family no longer passes through its anchor."""
    P[:, 1, -1] += 1e-3


def repeat_base(P):
    """Member 1 of each family repeats its base: an exactly singular frame."""
    P[:, 1] = P[:, 0]


@pytest.fixture
def edit_anchored(monkeypatch):
    """``edit_anchored(change)`` makes ``bundles.families`` see every
    anchored ``axis_family`` stack P after ``change(P)`` edits it."""
    def install(change):
        axis_family = bundles.axis_family

        def edited(W, b, count, worst, reach, anchor=None):
            P = axis_family(W, b, count, worst, reach, anchor)
            if anchor is not None:
                change(P)
            return P

        monkeypatch.setattr(bundles, "axis_family", edited)
    return install
