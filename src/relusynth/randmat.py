"""Monte Carlo rank statistics for unit-sphere row ensembles.

Rows are drawn uniformly from the unit sphere (normalized Gaussians);
full rank fails only on a measure-zero set, so the estimated probability
of full rank is 1 up to near-singular samples, whose count is reported
separately because the numeric rank conservatively marks them deficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RANK_TOL

_BATCH = 20000    # samples per batched SVD of rank_probability


@dataclass(frozen=True)
class SphereSampler:
    dim: int
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("sphere sampling needs dimension at least 2")


def _unit_rows(rng, m, n):
    rows = rng.normal(size=(m, n))
    norms = np.linalg.norm(rows, axis=1)
    while (norms < 1e-12).any():
        bad = norms < 1e-12
        rows[bad] = rng.normal(size=(int(bad.sum()), n))
        norms = np.linalg.norm(rows, axis=1)
    return rows / norms[:, None]


def sample_matrix(sampler, m):
    """m independent uniform unit vectors of dimension ``sampler.dim`` as
    rows; deterministic per seed."""
    if m < 1:
        raise ValueError("need at least one row")
    rng = np.random.default_rng(sampler.seed)
    return _unit_rows(rng, m, sampler.dim)


def rank_probability(sampler, m, trials=100000, tol=RANK_TOL):
    """Monte Carlo estimate of P(numeric rank == n) for m-row samples of
    dimension n = ``sampler.dim``.

    Returns a dict with the full-rank fraction, the count of near-singular
    samples (smallest singular value at or below tol relative to the
    largest; these are what the numeric rank counts as deficient), and
    summary statistics of the smallest singular value.  ``tol`` must be
    finite and above 0.
    """
    n = sampler.dim
    if m < 1:
        raise ValueError("need at least one row")
    if trials < 1:
        raise ValueError("need at least one trial")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    rng = np.random.default_rng(sampler.seed)
    full = 0
    near_singular = 0
    smallest = []
    done = 0
    while done < trials:
        count = min(_BATCH, trials - done)
        W = _unit_rows(rng, count * m, n).reshape(count, m, n)
        s = np.linalg.svd(W, compute_uv=False)
        s_min = s[:, min(m, n) - 1]
        s_max = s[:, 0]
        if m >= n:
            deficient = s_min <= tol * s_max
            full += int((~deficient).sum())
            near_singular += int(deficient.sum())
        smallest.append(s_min)
        done += count
    s_all = np.concatenate(smallest)
    return {
        "trials": trials,
        "rows": m,
        "cols": n,
        "tol": tol,
        "full_rank_fraction": (full / trials) if m >= n else 0.0,
        "near_singular_count": near_singular,
        "min_singular_value": {
            "min": float(s_all.min()),
            "max": float(s_all.max()),
            "mean": float(s_all.mean()),
            "q01": float(np.quantile(s_all, 0.01)),
            "median": float(np.median(s_all)),
        },
        "seed": sampler.seed,
    }
