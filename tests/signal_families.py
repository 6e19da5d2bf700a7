"""Hypothesis strategies for hostile but valid signals.

Every sample is finite, yet the Gram matrices these signals give are
degenerate: an impulse, a constant plus or minus an impulse, and a short
pattern tiled to length (a constant when the pattern has one value).  At
K = 2 an impulse makes G's diagonal constant, so one eigenvector is exactly
[1, 1] / sqrt(2), whose pearson profile is zero.
"""

import numpy as np
from hypothesis import strategies as st


def _spike(n: int, at: int, height: float, base: float) -> list[float]:
    x = np.full(n, base)
    x[at % n] += height
    return x.tolist()


def hostile_valid_samples(max_magnitude: float, min_size: int = 12,
                          max_size: int = 64) -> st.SearchStrategy[list[float]]:
    """Sample lists of the three families, each value of magnitude at most
    ``max_magnitude``, so that a constant plus an impulse stays finite."""
    value = st.floats(-max_magnitude, max_magnitude)
    n = st.integers(min_size, max_size)
    at = st.integers(0, max_size - 1)
    return st.one_of(
        st.builds(_spike, n, at, value, st.just(0.0)),
        st.builds(_spike, n, at, value, value),
        st.builds(lambda n, pattern: np.resize(pattern, n).tolist(),
                  n, st.lists(value, min_size=1, max_size=4)),
    )
