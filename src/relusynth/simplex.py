"""Dense one-phase simplex for the package's LPs.

Problems are stated as: maximize c.z subject to A z <= b with z free
and b >= 0, so the slacks are a feasible basis at z = 0 and there is no
phase 1 (``arrangement._region_lps`` shifts its cell LPs to this form).
Free variables are split internally; Bland's rule avoids cycling.  The
LPs have a few columns and from a few rows to about 1,500 (the root cut
of a 512-cluster partition tree), so a dense tableau serves.  Bland's
rule breaks a ratio-test tie by the smallest basic index, and each
row's slack index follows its row, so at a degenerate vertex the row
order picks the pivots.  A separation LP starts at one: every point row
has rhs 0.  That is why ``ordering.separate_many`` lists the rows
nearest the cut first, which takes about a third of the pivots of the
input order.  Every LP runs through ``solve_lps``: one lockstep loop over
an (L, rows, n) stack of LPs that share c, with the results each LP gives
alone.  ``solve_lp`` is its batch of one, and ``enumerate_regions`` hands
it the cell LPs of each hyperplane it adds as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-9
_MAX_ITER = 20000
# Most tableau entries (8 MB) one lockstep stack may hold.  A larger batch
# runs as consecutive slices; padding all k - 1 LPs of a k-point staircase
# to k rows would otherwise take memory cubic in k.
_STACK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class LPResult:
    status: str
    z: np.ndarray | None
    value: float | None


def _pivot(W, B, rows, cols):
    """Pivot each tableau W[l] of the stack on its entry (rows[l], cols[l])
    and record cols[l] as basic in row rows[l] of B[l]."""
    k = np.arange(W.shape[0])
    prow = W[k, rows] / W[k, rows, cols][:, None]
    W[k, rows] = prow
    colvals = W[k, :, cols]
    colvals[k, rows] = 0.0
    W -= colvals[:, :, None] * prow[:, None, :]
    # keep the pivot columns numerically exact
    W[k, :, cols] = 0.0
    W[k, rows, cols] = 1.0
    B[k, rows] = cols


def _run(T, basis):
    """Minimize the last row of each tableau T[l]; True where optimal,
    False where unbounded.

    The LPs run in lockstep, each taking its own Bland pivot per
    iteration.  An LP that finishes is written back to T and dropped from
    the working stack.
    """
    ncols = T.shape[2] - 1
    optimal = np.zeros(T.shape[0], dtype=bool)
    slot = np.arange(T.shape[0])  # index in T of each working LP
    W, B = T, basis
    for _ in range(_MAX_ITER):
        improving = W[:, -1, :ncols] < -_PIVOT_TOL
        entering = improving.argmax(axis=1)  # Bland: smallest index
        col = W[np.arange(W.shape[0]), :-1, entering]
        positive = col > _PIVOT_TOL
        running = improving.any(axis=1)
        done = ~(running & positive.any(axis=1))
        if done.any():
            T[slot[done]] = W[done]
            basis[slot[done]] = B[done]
            optimal[slot[done]] = ~running[done]
            keep = ~done
            if not keep.any():
                return optimal
            W, B, slot = W[keep], B[keep], slot[keep]
            entering, col, positive = entering[keep], col[keep], positive[keep]
        ratios = np.divide(W[:, :-1, -1], col, out=np.full(col.shape, np.inf), where=positive)
        ties = ratios <= ratios.min(axis=1, keepdims=True) + _PIVOT_TOL
        rows = np.where(ties, B, ncols).argmin(axis=1)  # Bland: smallest basic index
        _pivot(W, B, rows, entering)
    raise RuntimeError("simplex iteration limit exceeded")


def _trimmed(A, b):
    """The stack without the 0 <= 0 rows that end every LP in it."""
    used = np.flatnonzero((A != 0.0).any(axis=(0, 2)) | (b != 0.0).any(axis=0))
    end = used[-1] + 1 if used.size else 0
    return A[:, :end], b[:, :end]


def _tableaus(c, A, b):
    """Tableaus of the stacked LPs (c, A[l], b[l]) at z = 0, and their bases.

    Columns are u, v (z = u - v), one slack per row and the rhs; the last
    row holds the objective -c.z.  A padding row (0 <= 0) keeps its slack
    basic and a padding column stays zero, so neither ever enters the
    basis or wins a ratio test, and the pivots Bland's rule picks are
    those of the unpadded LP.
    """
    L, rows, n = A.shape
    # scale rows to unit max-norm for stable pivot tolerances
    row_scale = np.maximum(np.max(np.abs(A), axis=2), np.abs(b))
    row_scale[row_scale == 0.0] = 1.0
    nvar = 2 * n + rows
    T = np.zeros((L, rows + 1, nvar + 1))
    T[:, :rows, :n] = A / row_scale[:, :, None]
    T[:, :rows, n:2 * n] = -T[:, :rows, :n]
    T[:, :rows, 2 * n:nvar] = np.eye(rows)
    T[:, :rows, -1] = b / row_scale
    T[:, -1, :n] = -c
    T[:, -1, n:2 * n] = c
    return T, np.tile(np.arange(2 * n, nvar), (L, 1))  # slacks


def _solve(c, A, b):
    """Solve the stacked LPs (c, A[l], b[l]) on one stack of tableaus."""
    T, basis = _tableaus(c, A, b)
    bounded = _run(T, basis)
    n = c.shape[0]
    full = np.zeros((T.shape[0], T.shape[2] - 1))
    full[np.arange(T.shape[0])[:, None], basis] = T[:, :-1, -1]
    z = full[:, :n] - full[:, n:2 * n]
    return [LPResult(OPTIMAL, zl, float(c @ zl)) if ok else LPResult(UNBOUNDED, None, None)
            for zl, ok in zip(z, bounded)]


def solve_lp(c, A, b):
    """Maximize c.z s.t. A z <= b, z free, for b >= 0.  Returns an LPResult.

    The returned z is a vertex solution; value is c.z at the optimum.  It
    is the batch of one, ``solve_lps(c, A[None], b[None])[0]``.
    """
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != A.shape[:1]:
        raise ValueError("inconsistent LP shapes")
    return solve_lps(c, A[None], b[None])[0]


def solve_lps(c, A, b):
    """``solve_lp(c, A[l], b[l])`` for every LP of a stack, in one lockstep loop.

    A is an (L, rows, n) stack and b its (L, rows) right-hand sides, none
    negative (``ValueError`` otherwise); the LPs share c, and LPs with
    fewer rows are padded at the end with 0 <= 0 rows.  A stack too large for ``_STACK_ENTRIES`` runs as
    consecutive slices, each without the padding rows it does not need.
    Each iteration takes one Bland pivot on every LP still running, so a
    batch costs about as many iterations as its longest LP needs.  Each LP
    takes the pivots it takes alone, and ``_pivot`` does the same
    elementwise arithmetic on every tableau of the stack, so each result
    equals that of the LP solved alone (``solve_lp``) bit for bit.
    """
    c = np.asarray(c, dtype=float)
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    n = c.shape[0]
    if A.ndim != 3 or A.shape[2] != n or b.shape != A.shape[:2]:
        raise ValueError("inconsistent LP shapes")
    if (b < 0).any():
        raise ValueError("every LP must be feasible at z = 0: b >= 0")
    rows = A.shape[1]
    step = max(1, _STACK_ENTRIES // ((rows + 1) * (2 * (n + rows) + 1)))
    return [res for s in range(0, A.shape[0], step)
            for res in _solve(c, *_trimmed(A[s:s + step], b[s:s + step]))]
