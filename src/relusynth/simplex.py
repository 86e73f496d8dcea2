"""Dense two-phase simplex for the small LPs used throughout the package.

Problems are stated as: maximize c.z subject to A z <= b with z free.
Free variables are split internally; Bland's rule avoids cycling.  Sizes
here are desk-scale (tens of rows), so a dense tableau is the right tool.
``solve_lps`` runs a stack of LPs that share c through one lockstep
loop, one pivot on every running LP per iteration, with the results
``solve_lp`` gives LP by LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
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


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    # keep the pivot column numerically exact
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run_phase(T, basis, ncols, allowed):
    """Minimize the objective in the last tableau row over allowed columns."""
    for _ in range(_MAX_ITER):
        improving = np.flatnonzero(allowed & (T[-1, :ncols] < -_PIVOT_TOL))
        if improving.size == 0:
            return True
        entering = improving[0]  # Bland: smallest index
        col = T[:-1, entering]
        positive = col > _PIVOT_TOL
        if not positive.any():
            return False  # unbounded in this direction
        ratios = np.full(col.shape[0], np.inf)
        ratios[positive] = T[:-1, -1][positive] / col[positive]
        rmin = ratios.min()
        ties = np.flatnonzero(ratios <= rmin + _PIVOT_TOL)
        row = ties[np.argmin(basis[ties])]  # Bland: smallest basic index
        _pivot(T, basis, row, entering)
    raise RuntimeError("simplex iteration limit exceeded")


def _pivot_stacked(W, B, rows, cols):
    """``_pivot`` on every tableau of the stack W, elementwise the same."""
    k = np.arange(W.shape[0])
    prow = W[k, rows] / W[k, rows, cols][:, None]
    W[k, rows] = prow
    colvals = W[k, :, cols]
    colvals[k, rows] = 0.0
    W -= colvals[:, :, None] * prow[:, None, :]
    W[k, :, cols] = 0.0
    W[k, rows, cols] = 1.0
    B[k, rows] = cols


def _run_phases(T, basis, live, ncols, allowed):
    """``_run_phase`` on each tableau T[l], l in ``live``; True where
    optimal, False where unbounded.

    One LP runs the 2-D loop.  Several run in lockstep on a working copy,
    each taking its own Bland pivot per iteration; an LP that finishes is
    written back to T and dropped from the copy.
    """
    if live.size == 1:
        return np.array([_run_phase(T[live[0]], basis[live[0]], ncols, allowed)])
    optimal = np.zeros(live.size, dtype=bool)
    slot = np.arange(live.size)  # position in live of each working LP
    W, B = T[live], basis[live]
    for _ in range(_MAX_ITER):
        improving = allowed & (W[:, -1, :ncols] < -_PIVOT_TOL)
        entering = improving.argmax(axis=1)  # Bland: smallest index
        col = W[np.arange(W.shape[0]), :-1, entering]
        positive = col > _PIVOT_TOL
        running = improving.any(axis=1)
        done = ~(running & positive.any(axis=1))
        if done.any():
            T[live[slot[done]]] = W[done]
            basis[live[slot[done]]] = B[done]
            optimal[slot[done]] = ~running[done]
            keep = ~done
            if not keep.any():
                return optimal
            W, B, slot = W[keep], B[keep], slot[keep]
            entering, col, positive = entering[keep], col[keep], positive[keep]
        ratios = np.divide(W[:, :-1, -1], col, out=np.full(col.shape, np.inf), where=positive)
        ties = ratios <= ratios.min(axis=1, keepdims=True) + _PIVOT_TOL
        rows = np.where(ties, B, ncols).argmin(axis=1)  # Bland: smallest basic index
        _pivot_stacked(W, B, rows, entering)
    raise RuntimeError("simplex iteration limit exceeded")


def _tableaus(c, As, bs):
    """Phase-ready tableaus of the LPs (c, As[l], bs[l]), stacked.

    Returns T, basis and the artificial count of each LP.  Columns are u,
    v (z = u - v), one slack per row, artificials for the rows whose rhs
    was negative, and the rhs; with artificials, the last row holds the
    phase-1 objective.  Shorter LPs are padded at the end with 0 <= 0
    rows and every LP with zero artificial columns up to the most any LP
    has.  A padding row's slack stays basic and a padding column stays
    zero, so neither ever enters the basis or wins a ratio test, and the
    pivots Bland's rule picks are those of the unpadded LP.
    """
    n = c.shape[0]
    rows = max(b.shape[0] for b in bs)
    A = np.zeros((len(As), rows, n))
    b = np.zeros((len(As), rows))
    for l, (Al, bl) in enumerate(zip(As, bs)):
        if Al.ndim != 2 or Al.shape != (bl.shape[0], n):
            raise ValueError("inconsistent LP shapes")
        A[l, :Al.shape[0]] = Al
        b[l, :bl.shape[0]] = bl

    # scale rows to unit max-norm for stable pivot tolerances
    row_scale = np.maximum(np.max(np.abs(A), axis=2), np.abs(b))
    row_scale[row_scale == 0.0] = 1.0
    A = A / row_scale[:, :, None]
    b = b / row_scale

    nvar = 2 * n + rows
    neg = b < 0
    # rows that were negated lose their identity slack; give them artificials
    nart = neg.sum(axis=1)
    T = np.zeros((len(As), rows + 1, nvar + nart.max() + 1))
    T[:, :rows, :n] = A
    T[:, :rows, n:2 * n] = -A
    T[:, :rows, 2 * n:nvar] = np.eye(rows)
    T[:, :rows, -1] = np.where(neg, -b, b)
    basis = np.tile(np.arange(2 * n, nvar), (len(As), 1))  # slacks
    if nart.any():
        T[:, :rows, :nvar][neg] *= -1.0
        lps, art_rows = np.nonzero(neg)
        basis[lps, art_rows] = nvar + np.cumsum(neg, axis=1)[lps, art_rows] - 1
        T[lps, art_rows, basis[lps, art_rows]] = 1.0
    # phase 1: minimize sum of artificials
    for l in np.flatnonzero(nart):
        art_rows = np.flatnonzero(neg[l])
        for i in art_rows:
            T[l, -1, :] -= T[l, i, :]
        T[l, -1, basis[l, art_rows]] = 0.0
    return T, basis, nart


def _end_phase1(T, basis, nvar):
    """False if phase 1 left the LP infeasible; else drive leftover
    artificials out of the basis."""
    if T[-1, -1] < -1e-7:
        return False
    for i in range(basis.shape[0]):
        if basis[i] >= nvar:
            piv = np.where(np.abs(T[i, :nvar]) > _PIVOT_TOL)[0]
            if piv.size:
                _pivot(T, basis, i, piv[0])
    return True


def _solve(c, As, bs):
    """Solve the LPs (c, As[l], bs[l]) on one stack of tableaus."""
    T, basis, nart = _tableaus(c, As, bs)
    n, rows = c.shape[0], basis.shape[1]
    nvar = 2 * n + rows
    ncols = T.shape[2] - 1
    results = [None] * len(As)
    allowed = np.ones(ncols, dtype=bool)
    phase1 = np.flatnonzero(nart)
    if phase1.size:
        if not _run_phases(T, basis, phase1, ncols, allowed).all():
            raise RuntimeError("phase-1 objective unbounded")  # cannot happen
        for l in phase1:
            if not _end_phase1(T[l], basis[l], nvar):
                results[l] = LPResult(INFEASIBLE, None, None)
        allowed[nvar:] = False
    live = np.array([l for l, res in enumerate(results) if res is None], dtype=int)
    if not live.size:
        return results

    # phase 2: minimize -c.z, the objective reduced by the basic columns
    cost = np.concatenate([-c, c, np.zeros(rows)])
    T[live, -1, :] = 0.0
    T[live, -1, :nvar] = cost
    held = basis[live] < nvar
    held[held] = np.abs(cost[basis[live][held]]) > 0.0
    for j, i in zip(*np.nonzero(held)):
        T[live[j], -1, :] -= cost[basis[live[j], i]] * T[live[j], i, :]
    bounded = _run_phases(T, basis, live, ncols, allowed)

    full = np.zeros((live.size, ncols))
    full[np.arange(live.size)[:, None], basis[live]] = T[live, :-1, -1]
    z = full[:, :n] - full[:, n:2 * n]
    for l, zl, ok in zip(live, z, bounded):
        results[l] = (LPResult(OPTIMAL, zl, float(c @ zl)) if ok
                      else LPResult(UNBOUNDED, None, None))
    return results


def solve_lp(c, A, b):
    """Maximize c.z s.t. A z <= b, z free.  Returns an LPResult.

    The returned z is a vertex solution; value is c.z at the optimum.
    """
    c = np.asarray(c, dtype=float)
    return _solve(c, [np.asarray(A, dtype=float)], [np.asarray(b, dtype=float)])[0]


def solve_lps(c, As, bs):
    """``solve_lp(c, A, b)`` for every pair of As and bs, in one lockstep loop.

    The LPs share c, and so their column count, and may differ in rows.
    Each iteration takes one Bland pivot on every LP still running, so a
    batch costs about as many iterations as its longest LP needs.  Every
    pivot does ``solve_lp``'s elementwise arithmetic, so each result equals
    ``solve_lp``'s bit for bit.
    """
    c = np.asarray(c, dtype=float)
    As = [np.asarray(A, dtype=float) for A in As]
    bs = [np.asarray(b, dtype=float) for b in bs]
    if len(As) != len(bs):
        raise ValueError("need one rhs per constraint matrix")
    if not As:
        return []
    rows = max(b.shape[0] for b in bs)
    step = max(1, _STACK_ENTRIES // ((rows + 1) * (2 * (c.shape[0] + rows) + 1)))
    return [res for s in range(0, len(As), step)
            for res in _solve(c, As[s:s + step], bs[s:s + step])]
