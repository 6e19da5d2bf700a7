import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmd.eigen import (
    AugmentedMatrix,
    EigenBasis,
    EigenSolverError,
    GramMatrix,
    NumericalError,
    augmented,
    diff_operator,
    gram,
    smoothing_matrix,
    solve_generalized,
)
from rmd.embedding import build_trajectory_matrix
from rmd.signals import TimeSeries


def random_psd(rng, k):
    w = rng.standard_normal((k + 5, k))
    return GramMatrix(w.T @ w)


def solve_for(G, alpha, order=1, K=None):
    K = K or G.dim
    D = diff_operator(order, K)
    return solve_generalized(G, augmented(smoothing_matrix(D), alpha), D)


class TestGram:
    def test_identity_trajectory(self):
        tm = build_trajectory_matrix(TimeSeries([1.0, 0.0, 1.0], 1.0), 2)
        # hand product of [[1,0],[0,1]] with itself
        np.testing.assert_array_equal(gram(tm).matrix, np.eye(2))

    def test_constant_signal(self):
        c, n, k = 3.0, 8, 2
        tm = build_trajectory_matrix(TimeSeries(np.full(n, c), 1.0), k)
        L = n - k + 1
        np.testing.assert_allclose(gram(tm).matrix, c * c * L * np.ones((2, 2)), rtol=1e-12)
        assert np.linalg.matrix_rank(gram(tm).matrix) == 1

    def test_eigenvalues_match_singular_values(self, rng):
        # independent SVD oracle
        x = TimeSeries(rng.standard_normal(60), 1.0)
        tm = build_trajectory_matrix(x, 12)
        evals = np.sort(np.linalg.eigvalsh(gram(tm).matrix))[::-1]
        svals = np.linalg.svd(tm.data, compute_uv=False) ** 2
        np.testing.assert_allclose(evals, svals, rtol=1e-8)

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            GramMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), data=st.data())
    def test_lag_recurrence_matches_dense_product(self, seed, data):
        # K up to N - 1, so windows shorter than the embedding (L < K) are covered
        n = data.draw(st.integers(12, 300))
        K = data.draw(st.integers(2, n - 1))
        x = TimeSeries(np.random.default_rng(seed).standard_normal(n), 1.0)
        tm = build_trajectory_matrix(x, K)
        G = gram(tm).matrix
        dense = tm.data.T @ tm.data
        assert np.abs(G - dense).max() <= 1e-13 * np.abs(dense).max()
        assert np.array_equal(G, G.T)

    def test_overflow_raises_numerical_error(self):
        tm = build_trajectory_matrix(TimeSeries(1e200 * np.sin(np.arange(50.0)), 1.0), 10)
        with pytest.raises(NumericalError, match="1e\\+200"):
            gram(tm)


class TestDiffOperator:
    def test_order1_k3(self):
        D = diff_operator(1, 3)
        np.testing.assert_array_equal(D.matrix, [[-1, 1, 0], [0, -1, 1]])

    def test_order2_k4(self):
        D = diff_operator(2, 4)
        np.testing.assert_array_equal(D.matrix, [[1, -2, 1, 0], [0, 1, -2, 1]])

    def test_constant_annihilated(self):
        D = diff_operator(1, 3)
        np.testing.assert_array_equal(D.matrix @ np.array([5.0, 5.0, 5.0]), [0.0, 0.0])

    def test_order2_annihilates_affine(self):
        D = diff_operator(2, 6)
        v = 3.0 * np.arange(6) + 1.5
        np.testing.assert_allclose(D.matrix @ v, 0.0, atol=1e-12)

    def test_rows_sum_to_zero(self):
        for order in (1, 2):
            D = diff_operator(order, 9)
            np.testing.assert_allclose(D.matrix.sum(axis=1), 0.0, atol=1e-15)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            diff_operator(2, 2)
        with pytest.raises(ValueError):
            diff_operator(3, 5)


class TestSmoothingMatrix:
    def test_order1_k3_hand_product(self):
        R = smoothing_matrix(diff_operator(1, 3))
        np.testing.assert_array_equal(R, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_constant_null_space(self):
        R = smoothing_matrix(diff_operator(1, 7))
        np.testing.assert_allclose(R @ np.ones(7), 0.0, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), order=st.sampled_from([1, 2]))
    def test_quadratic_form_equals_diff_norm(self, seed, order):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(order + 1, 16))
        v = rng.standard_normal(K)
        D = diff_operator(order, K)
        R = smoothing_matrix(D)
        assert v @ R @ v == pytest.approx(np.linalg.norm(D.matrix @ v) ** 2, abs=1e-12)

    def test_psd(self, rng):
        for order in (1, 2):
            R = smoothing_matrix(diff_operator(order, 12))
            assert np.min(np.linalg.eigvalsh(R)) >= -1e-12

    @pytest.mark.parametrize("order", [1, 2])
    def test_bit_identical_to_dense_product(self, order):
        for K in [*range(order + 1, 41), 200, 682]:
            D = diff_operator(order, K)
            assert np.array_equal(smoothing_matrix(D), D.matrix.T @ D.matrix)


class TestAugmented:
    def test_alpha_zero_is_exactly_identity(self):
        R = smoothing_matrix(diff_operator(1, 5))
        M = augmented(R, 0.0)
        assert np.array_equal(M.matrix, np.eye(5))

    def test_k2_alpha1(self):
        R = smoothing_matrix(diff_operator(1, 2))
        M = augmented(R, 1.0)
        np.testing.assert_array_equal(M.matrix, [[2, -1], [-1, 2]])

    def test_min_eigenvalue_at_least_one(self, rng):
        R = smoothing_matrix(diff_operator(1, 10))
        for alpha in (0.0, 0.3, 2.0, 50.0):
            M = augmented(R, alpha)
            assert np.min(np.linalg.eigvalsh(M.matrix)) >= 1.0 - 1e-10

    def test_bad_alpha(self):
        R = smoothing_matrix(diff_operator(1, 3))
        with pytest.raises(ValueError):
            augmented(R, -0.1)
        with pytest.raises(ValueError):
            augmented(R, math.nan)


class TestSolveGeneralized:
    def test_diagonal_standard_problem(self):
        G = GramMatrix(np.diag([4.0, 1.0]))
        basis = solve_for(G, alpha=0.0)
        np.testing.assert_allclose(basis.gammas, [4.0, 1.0], rtol=1e-12)
        np.testing.assert_allclose(np.abs(basis.vectors[:, 0]), [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(basis.vectors[:, 1]), [0.0, 1.0], atol=1e-12)

    def test_closed_form_2x2(self):
        # G = 2I with M = [[2,-1],[-1,2]]: M(1,1)^T = (1,1)^T so gamma = 2,
        # M(1,-1)^T = 3(1,-1)^T so gamma = 2/3
        G = GramMatrix(2.0 * np.eye(2))
        D = diff_operator(1, 2)
        basis = solve_generalized(G, augmented(smoothing_matrix(D), 1.0), D)
        np.testing.assert_allclose(basis.gammas, [2.0, 2.0 / 3.0], rtol=1e-12)
        s = 1 / math.sqrt(2)
        got = np.abs(basis.vectors)
        np.testing.assert_allclose(got[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(got[:, 1], [s, s], atol=1e-12)
        assert basis.vectors[0, 0] * basis.vectors[1, 0] > 0
        assert basis.vectors[0, 1] * basis.vectors[1, 1] < 0

    def test_alpha_zero_matches_standard_eigh(self, rng):
        # independent oracle: plain symmetric eigensolver on G
        G = random_psd(rng, 12)
        basis = solve_for(G, alpha=0.0)
        expected = np.sort(np.linalg.eigvalsh(G.matrix))[::-1]
        np.testing.assert_allclose(basis.gammas, expected, rtol=1e-8)

    def test_unit_norm_and_sorted(self, rng):
        G = random_psd(rng, 16)
        basis = solve_for(G, alpha=0.7)
        for v in basis.vectors.T:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
        g = basis.gammas
        assert np.all(g[:-1] >= g[1:] - 1e-12)

    def test_rayleigh_identity(self, rng):
        # gamma * (1 + alpha*mu) == v^T G v for unit-norm eigenvectors
        for alpha in (0.0, 0.1, 1.0, 10.0):
            G = random_psd(rng, 10)
            basis = solve_for(G, alpha=alpha)
            V = basis.vectors
            energies = np.einsum("ki,ki->i", V, G.matrix @ V)
            for gamma, mu, energy in zip(basis.gammas, basis.mu, energies):
                assert gamma * (1 + alpha * mu) == pytest.approx(energy, rel=1e-8)

    @pytest.mark.parametrize("order", [1, 2])
    def test_mu_matches_quadratic_form(self, rng, order):
        # ||D v||^2 by differencing against the dense v^T R v
        for K in (order + 1, 30, 200):
            G = random_psd(rng, K)
            D = diff_operator(order, K)
            R = smoothing_matrix(D)
            basis = solve_generalized(G, augmented(R, 1.5), D)
            V = basis.vectors
            np.testing.assert_allclose(basis.mu, np.einsum("ki,ki->i", V, R @ V),
                                       rtol=0, atol=1e-12)

    def test_m_orthogonality(self, rng):
        G = random_psd(rng, 12)
        D = diff_operator(1, 12)
        M = augmented(smoothing_matrix(D), 2.5)
        basis = solve_generalized(G, M, D)
        V = basis.vectors
        MV = M.matrix @ V
        mnorms = np.sqrt(np.einsum("ki,ki->i", V, MV))
        cross = np.abs(V.T @ MV) / np.outer(mnorms, mnorms)
        np.fill_diagonal(cross, 0.0)
        assert cross.max() <= 1e-8

    def test_eigenvalues_nonincreasing_in_alpha(self, rng):
        G = random_psd(rng, 9)
        alphas = [0.0, 0.1, 1.0, 10.0]
        spectra = [solve_for(G, alpha=a).gammas for a in alphas]
        for lo, hi in zip(spectra[:-1], spectra[1:]):
            assert np.all(hi <= lo + 1e-9 * np.abs(lo))

    def test_rank1_roughness_identity(self, rng):
        # ||D (u v^T)^T||_F^2 == v^T R v for unit u, direct Frobenius oracle
        for order in (1, 2):
            K, L = 14, 20
            D = diff_operator(order, K)
            R = smoothing_matrix(D)
            for _ in range(10):
                u = rng.standard_normal(L)
                u /= np.linalg.norm(u)
                v = rng.standard_normal(K)
                Xi = np.outer(u, v)
                frob = np.linalg.norm(D.matrix @ Xi.T, "fro") ** 2
                assert frob == pytest.approx(v @ R @ v, rel=1e-10)

    def test_alpha_zero_vectors_match_svd(self, rng):
        # right singular vectors from an independent SVD, up to sign
        x = TimeSeries(rng.standard_normal(80), 1.0)
        tm = build_trajectory_matrix(x, 10)
        G = gram(tm)
        basis = solve_for(G, alpha=0.0)
        _, svals, Vt = np.linalg.svd(tm.data)
        np.testing.assert_allclose(basis.gammas, svals**2, rtol=1e-7)
        for i, v in enumerate(basis.vectors.T):
            err = min(
                np.abs(v - Vt[i]).max(), np.abs(v + Vt[i]).max()
            )
            assert err < 1e-7

    def test_negligible_flagging(self):
        G = GramMatrix(np.diag([1.0, 1e-20, 0.0]))
        basis = solve_for(G, alpha=0.0, K=3)
        assert basis.negligible.tolist() == [False, True, True]

    def test_shrink_weights(self, rng):
        G = random_psd(rng, 8)
        basis = solve_for(G, alpha=2.0)
        # the gain is computed where it is used, from the basis arrays
        gains = 1.0 / (1.0 + basis.alpha * basis.mu)
        for gain, mu in zip(gains, basis.mu):
            assert gain == pytest.approx(1.0 / (1.0 + 2.0 * mu), rel=1e-12)
            assert 0.0 < gain <= 1.0

    def test_cholesky_failure_surfaces(self):
        G = GramMatrix(np.eye(2))
        bad = AugmentedMatrix(matrix=np.array([[1.0, 2.0], [2.0, 1.0]]), alpha=1.0)
        with pytest.raises(EigenSolverError):
            solve_generalized(G, bad, diff_operator(1, 2))

    def test_basis_copies_its_arrays(self, rng):
        basis = solve_for(random_psd(rng, 6), alpha=0.5)
        V = np.array(basis.vectors)
        copy = EigenBasis(basis.gammas, V, basis.mu, basis.negligible, 0.5)
        V[0, 0] += 1.0
        assert copy.vectors[0, 0] == basis.vectors[0, 0]
        assert not copy.vectors.flags.writeable

    def test_dimension_mismatch(self):
        G = GramMatrix(np.eye(3))
        D = diff_operator(1, 2)
        with pytest.raises(ValueError):
            solve_generalized(G, augmented(smoothing_matrix(D), 1.0), D)
