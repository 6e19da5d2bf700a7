import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_diagonal_average

from rmd.embedding import (
    MIN_SAMPLES,
    SignalTooShortError,
    build_trajectory_matrix,
    diagonal_average,
    embedding_dim_from_peak,
    hankel_series,
    select_embedding_dimension,
)
from rmd.signals import SineComponent, TimeSeries, gen_sinusoid_mixture


class TestEmbeddingDimension:
    def test_benchmark_low_tone(self):
        # round(1.2 * 200 / 2) = 120 for a 2 Hz dominant tone at 200 Hz
        mixture, _ = gen_sinusoid_mixture([SineComponent(2.0, 1.0)], 200.0, 10.0)
        assert select_embedding_dimension(mixture) == (120, 2.0)

    def test_low_peak_falls_back_to_third_of_length(self):
        assert embedding_dim_from_peak(0.1, 1000.0, 300) == 100
        assert embedding_dim_from_peak(None, 1000.0, 300) == 100
        assert embedding_dim_from_peak(None, 100.0, 3599) == 1199  # below the cap

    @pytest.mark.parametrize("n", [3603, 30_000, 300_000])
    def test_fallback_capped_at_the_peak_rules_largest_k(self, n):
        # the peak rule gives at most round(1.2 / 1e-3) = 1200; N/3 alone passes it from N = 3603
        assert embedding_dim_from_peak(None, 100.0, n) == 1200
        assert embedding_dim_from_peak(0.05, 100.0, n) == 1200  # a peak below 1e-3 of the rate
        assert embedding_dim_from_peak(0.1, 100.0, n) == 1200  # the peak rule's own largest

    def test_high_tone_clamps_to_minimum(self):
        # raw round(1.2 * 200 / 95) = 3, clamped up to 4
        assert embedding_dim_from_peak(95.0, 200.0, 2000) == 4

    def test_upper_clamp(self):
        assert embedding_dim_from_peak(0.5, 200.0, 90) == 30

    def test_dc_only_signal_uses_fallback(self):
        x = TimeSeries(np.ones(300), 100.0)
        assert select_embedding_dimension(x) == (100, None)

    @pytest.mark.parametrize("n", [3, 8, MIN_SAMPLES - 1])
    def test_too_short_for_a_suggestion(self, n):
        # 3, 8 and 11 samples once gave K = 1, 2 and 3, below MIN_EMBEDDING_DIM
        x = TimeSeries(np.sin(np.arange(n) / 2.0), 10.0)
        with pytest.raises(SignalTooShortError, match=f"suggestion \\({n} samples\\)"):
            select_embedding_dimension(x)

    def test_heuristic_on_mid_tone(self):
        mixture, _ = gen_sinusoid_mixture([SineComponent(5.0, 1.0)], 200.0, 10.0)
        assert select_embedding_dimension(mixture) == (48, 5.0)


class TestBuildTrajectoryMatrix:
    def test_five_sample_example(self):
        x = TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0], 1.0)
        tm = build_trajectory_matrix(x, 3)
        np.testing.assert_array_equal(tm, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])
        assert tm.shape == (3, 3)

    def test_three_sample_example(self):
        tm = build_trajectory_matrix(TimeSeries([1.0, 2.0, 3.0], 1.0), 2)
        np.testing.assert_array_equal(tm, [[1, 2], [2, 3]])

    def test_constant_signal_rank_one(self):
        tm = build_trajectory_matrix(TimeSeries(np.full(20, 7.0), 1.0), 6)
        assert np.all(tm == 7.0)
        assert np.linalg.matrix_rank(tm) == 1

    def test_k_out_of_range(self):
        x = TimeSeries(np.arange(10, dtype=float), 1.0)
        for bad in (1, 10, 11):
            with pytest.raises(ValueError):
                build_trajectory_matrix(x, bad)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(8, 64), seed=st.integers(0, 2**31), frac=st.floats(0.1, 0.9))
    def test_anti_diagonals_constant(self, n, seed, frac):
        k = min(max(2, int(frac * n)), n - 1)
        x = TimeSeries(np.random.default_rng(seed).standard_normal(n), 1.0)
        m = build_trajectory_matrix(x, k)
        flipped = np.fliplr(m)
        for off in range(-m.shape[0] + 1, m.shape[1]):
            d = np.diagonal(flipped, offset=off)
            assert np.all(d == d[0])

    def test_data_is_a_read_only_view_of_the_samples(self):
        x = TimeSeries(np.arange(10.0), 1.0)
        tm = build_trajectory_matrix(x, 4)
        assert np.shares_memory(tm, x.samples)
        assert not tm.flags.writeable
        np.testing.assert_array_equal(hankel_series(tm), x.samples)


def average_all(X: np.ndarray) -> np.ndarray:
    """The live averager with V = I_K, unit gains and one group of all K columns,
    whose projections sum to X: the series X embeds."""
    K = X.shape[1]
    return diagonal_average(X, np.eye(K), np.ones(K), [list(range(K))])[0]


class TestDiagonalAverage:
    def test_exact_hankel_inversion(self):
        out = average_all(np.array([[1.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_allclose(out, [1.0, 2.0, 3.0], atol=1e-15)

    def test_middle_antidiagonal_mean(self):
        # X e_2 e_2^T = [[0, 2], [0, 3]]: the middle anti-diagonal's mean is (2 + 0) / 2
        X = np.array([[1.0, 2.0], [2.0, 3.0]])
        out = diagonal_average(X, np.eye(2), np.ones(2), [[1]])[0]
        np.testing.assert_allclose(out, [0.0, 1.0, 3.0], atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 96), seed=st.integers(0, 2**31), frac=st.floats(0.0, 1.0))
    def test_round_trip(self, n, seed, frac):
        k = min(max(2, int(2 + frac * (n - 3))), n - 1)
        x = np.random.default_rng(seed).standard_normal(n)
        tm = build_trajectory_matrix(TimeSeries(x, 1.0), k)
        np.testing.assert_allclose(average_all(tm), x, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_linearity(self, seed):
        # a group's row is the sum of its members' rows, each their dense average
        rng = np.random.default_rng(seed)
        X = build_trajectory_matrix(TimeSeries(rng.standard_normal(11), 1.0), 5)
        V, gains = rng.standard_normal((5, 3)), rng.uniform(0.1, 2.0, 3)
        rows = diagonal_average(X, V, gains, [[0, 2], [0], [2], [1]])
        np.testing.assert_allclose(rows[0], rows[1] + rows[2], atol=1e-12)
        for row, m in zip(rows[1:], (0, 2, 1)):
            dense = gains[m] * np.outer(X @ V[:, m], V[:, m])
            np.testing.assert_allclose(row, oracle_diagonal_average(dense), atol=1e-12)
