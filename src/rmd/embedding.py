"""Phase-space embedding: window-length selection, Hankel trajectory matrices
and their diagonal-averaging inverse."""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .signals import TimeSeries, dominant_frequency, periodogram, unit_scaled


class SignalTooShortError(ValueError):
    """Signal too short to build a usable embedding."""


MIN_EMBEDDING_DIM = 4
# the fewest samples with room for K >= MIN_EMBEDDING_DIM at K <= N/3
MIN_SAMPLES = 3 * MIN_EMBEDDING_DIM


def embedding_dim_from_peak(f_max: float | None, sample_rate: float, n: int) -> int:
    """Window length from the dominant frequency: about 1.2 sample periods.

    With no usable peak (absent, or below 1e-3 of the sample rate) the
    fallback is N/3, capped at 1200, the largest K the peak rule gives
    (1.2 / 1e-3).  The result is clamped to [4, floor(N/3)].
    """
    upper = n // 3
    if f_max is None or f_max / sample_rate < 1e-3:
        k = min(upper, 1200)
    else:
        # scaled exactly by 2**-s, so 1.2 * rate cannot overflow; the same quotient
        s = math.frexp(sample_rate)[1]
        k = int(math.floor(1.2 * math.ldexp(sample_rate, -s) / math.ldexp(f_max, -s) + 0.5))
    return min(max(k, MIN_EMBEDDING_DIM), upper)


def select_embedding_dimension(x: TimeSeries) -> tuple[int, float | None]:
    """The embedding dimension for a series of at least ``MIN_SAMPLES`` samples
    and the spectral peak it is picked from, taken on the ``unit_scaled``
    samples, whose power no finite magnitude pushes past the float64 range."""
    f_max = dominant_frequency(periodogram(x.with_samples(unit_scaled(x.samples)[0])))
    return embedding_dim_from_peak(f_max, x.sample_rate, len(x)), f_max


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


def diagonal_average(X: np.ndarray, V: np.ndarray, gains, groups) -> np.ndarray:
    """Diagonal average of ``sum_{m in g} gains[m] * X v_m v_m^T`` for each list g
    of column indices in ``groups``, one row each; X is the L x K Hankel matrix.
    With V = I_K, unit gains and one group of all K columns the sum is X itself,
    and the row is the series X embeds.

    Anti-diagonal k of the rank-1 matrix u v^T sums u[i] * v[k - i], sample k
    of the full convolution u * v.  One projection X V serves every group: its
    column u = X v is the correlation of the series with v, taken by DFT; a
    group's convolutions are summed as products of zero-padded DFTs, and the
    anti-diagonal counts finish the average without forming any L x K matrix
    (after Korobeynikov, arXiv:0911.4498).
    """
    cols = [m for g in groups for m in g]
    L, K = X.shape
    n = L + K - 1
    nfft = 1 << (n - 1).bit_length()  # >= n, the length of u * v, so nothing wraps
    FW = np.fft.rfft(V[:, cols], nfft, axis=0)
    # u[i] = sum_j x[i + j] v[j]: lags i < L never meet the wrapped negative lags
    XW = np.fft.irfft(np.fft.rfft(hankel_series(X), nfft)[:, None] * FW.conj(), nfft, axis=0)[:L]
    spec = np.fft.rfft(XW * gains[cols], nfft, axis=0) * FW
    owner = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    sums = np.fft.irfft(spec @ (owner[:, None] == np.arange(len(groups))), nfft, axis=0)[:n]
    k = np.arange(n)
    counts = np.minimum(np.minimum(k + 1, n - k), min(L, K))
    return sums.T / counts
