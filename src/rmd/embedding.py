"""Phase-space embedding: window-length selection, Hankel trajectory matrices
and their diagonal-averaging inverse."""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .signals import TimeSeries, dominant_frequency, periodogram


class SignalTooShortError(ValueError):
    """Signal too short to build a usable embedding."""


MIN_EMBEDDING_DIM = 4
# the fewest samples with room for K >= MIN_EMBEDDING_DIM at K <= N/3
MIN_SAMPLES = 3 * MIN_EMBEDDING_DIM


def embedding_dim_from_peak(f_max: float | None, sample_rate: float, n: int) -> int:
    """Window length from the dominant frequency: about 1.2 sample periods.

    With no usable peak (absent, or below 1e-3 of the sample rate) the
    fallback is N/3.  The result is clamped to [4, floor(N/3)].
    """
    upper = n // 3
    if f_max is None or f_max / sample_rate < 1e-3:
        k = upper
    else:
        # scaled exactly by 2**-s, so 1.2 * rate cannot overflow; the same quotient
        s = math.frexp(sample_rate)[1]
        k = int(math.floor(1.2 * math.ldexp(sample_rate, -s) / math.ldexp(f_max, -s) + 0.5))
    return min(max(k, MIN_EMBEDDING_DIM), upper)


def select_embedding_dimension(x: TimeSeries) -> int:
    """Pick the embedding dimension for a series of at least ``MIN_SAMPLES``
    samples from its spectral peak."""
    f_max = dominant_frequency(periodogram(x))
    return embedding_dim_from_peak(f_max, x.sample_rate, len(x))


def build_trajectory_matrix(x: TimeSeries, K: int) -> np.ndarray:
    """The L x K Hankel embedding of the signal, L = N - K + 1: row i is
    ``x[i : i + K]``, so every anti-diagonal is constant.  The result is a
    read-only strided view of the samples (no copy)."""
    n = len(x)
    if not 2 <= K <= n - 1:
        raise ValueError(f"embedding dimension must satisfy 2 <= K <= N-1, got K={K}, N={n}")
    return sliding_window_view(x.samples, K)


def hankel_series(X: np.ndarray) -> np.ndarray:
    """The N samples a Hankel matrix embeds: its first column, then the rest
    of its last row."""
    return np.concatenate([X[:, 0], X[-1, 1:]])


def diagonal_average(m: np.ndarray, n_samples: int) -> np.ndarray:
    """Average the anti-diagonals of an L x K matrix back into a series.

    Anti-diagonal k (i + j = k) has min(k+1, L, K, N-k) entries; its mean
    becomes output sample k.  The map is linear and inverts the Hankel
    embedding exactly.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    L, K = m.shape
    if L + K - 1 != n_samples:
        raise ValueError(f"shape {L}x{K} does not flatten to {n_samples} samples")
    idx = (np.arange(L)[:, None] + np.arange(K)[None, :]).ravel()
    sums = np.zeros(n_samples)
    np.add.at(sums, idx, m.ravel())
    counts = np.bincount(idx, minlength=n_samples)
    return sums / counts
