import numpy as np
import pytest

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
