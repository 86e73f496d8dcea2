import numpy as np
import pytest
from scipy.stats import chi2

from relusynth.core import numeric_rank
from relusynth.randmat import SphereSampler, rank_probability, sample_matrix


def test_rows_have_unit_norm():
    M = sample_matrix(SphereSampler(3, seed=1), 50)
    assert np.abs(np.linalg.norm(M, axis=1) - 1.0).max() <= 1e-12


def test_fixed_seed_is_bit_identical():
    a = sample_matrix(SphereSampler(4, seed=99), 7)
    b = sample_matrix(SphereSampler(4, seed=99), 7)
    assert a.tobytes() == b.tobytes()


def test_dimension_validation():
    with pytest.raises(ValueError):
        SphereSampler(1)
    with pytest.raises(ValueError):
        sample_matrix(SphereSampler(3), 0)


def test_planar_angles_uniform():
    # chi-square goodness of fit over 16 bins of the planar angle
    M = sample_matrix(SphereSampler(2, seed=5), 100000)
    angles = np.arctan2(M[:, 1], M[:, 0]) % (2 * np.pi)
    counts, _ = np.histogram(angles, bins=16, range=(0, 2 * np.pi))
    expected = len(angles) / 16
    stat = float(np.sum((counts - expected) ** 2 / expected))
    p = chi2.sf(stat, df=15)
    assert p > 0.01


def test_full_rank_fraction_square_case():
    stats = rank_probability(SphereSampler(2, seed=3), 2, trials=20000)
    assert stats["full_rank_fraction"] == 1.0
    assert stats["near_singular_count"] == 0
    assert stats["min_singular_value"]["min"] > 0


def test_rank_deficient_when_too_few_rows():
    stats = rank_probability(SphereSampler(3, seed=3), 1, trials=100)
    assert stats["full_rank_fraction"] == 0.0


def test_planted_singular_matrix_detected():
    M = sample_matrix(SphereSampler(3, seed=8), 3)
    M[2] = M[0]  # duplicated row
    assert numeric_rank(M) == 2


def test_reproducible_statistics():
    a = rank_probability(SphereSampler(3, seed=21), 5, trials=5000)
    b = rank_probability(SphereSampler(3, seed=21), 5, trials=5000)
    assert a == b
