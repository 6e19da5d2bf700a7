"""Dense references that share no code with the library."""

import numpy as np


def oracle_diagonal_average(m: np.ndarray) -> np.ndarray:
    """Anti-diagonal means of any L x K matrix via numpy diagonals; independent of
    the library, whose averager only takes rank-1 projections of a Hankel matrix."""
    flipped = np.fliplr(m)
    L, K = m.shape
    return np.array([
        np.diagonal(flipped, offset=off).mean()
        for off in range(K - 1, -L, -1)
    ])
