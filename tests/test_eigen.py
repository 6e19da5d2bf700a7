import math
import sys
import types

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from rmd import eigen
from rmd.eigen import (
    EigenBasis,
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
    return w.T @ w


def solve_for(G, alpha, order=1):
    return solve_generalized(G, alpha, order)


# Test-local dense oracles: the library builds D, R and M in diagonal or band
# storage only.
def dense_D(order, K):
    return np.diff(np.eye(K), n=order, axis=0)


def dense_M(order, K, alpha):
    D = dense_D(order, K)
    return np.eye(K) + alpha * (D.T @ D)


def from_diagonals(Dd):
    """The dense (K - order) x K matrix whose D[i, i + p] is Dd[p, i]."""
    k, rows = Dd.shape[0] - 1, Dd.shape[1]
    D = np.zeros((rows, rows + k))
    for p in range(k + 1):
        D[np.arange(rows), np.arange(rows) + p] = Dd[p]
    return D


def from_band(band):
    """The dense symmetric matrix held in LAPACK upper band storage."""
    k, K = band.shape[0] - 1, band.shape[1]
    A = np.zeros((K, K))
    for d in range(k + 1):
        A[np.arange(K - d), np.arange(d, K)] = band[k - d, d:]
        A[np.arange(d, K), np.arange(K - d)] = band[k - d, d:]
    return A


def upper_band(A, k):
    """LAPACK upper band storage of the k-diagonal band of a dense matrix."""
    band = np.zeros((k + 1, A.shape[0]))
    for d in range(k + 1):
        band[k - d, d:] = A.diagonal(d)
    return band


class TestGram:
    def test_identity_trajectory(self):
        tm = build_trajectory_matrix(TimeSeries([1.0, 0.0, 1.0], 1.0), 2)
        # hand product of [[1,0],[0,1]] with itself
        np.testing.assert_array_equal(gram(tm), np.eye(2))

    def test_constant_signal(self):
        c, n, k = 3.0, 8, 2
        tm = build_trajectory_matrix(TimeSeries(np.full(n, c), 1.0), k)
        L = n - k + 1
        np.testing.assert_allclose(gram(tm), c * c * L * np.ones((2, 2)), rtol=1e-12)
        assert np.linalg.matrix_rank(gram(tm)) == 1

    def test_eigenvalues_match_singular_values(self, rng):
        # independent SVD oracle
        x = TimeSeries(rng.standard_normal(60), 1.0)
        tm = build_trajectory_matrix(x, 12)
        evals = np.sort(np.linalg.eigvalsh(gram(tm)))[::-1]
        svals = np.linalg.svd(tm, compute_uv=False) ** 2
        np.testing.assert_allclose(evals, svals, rtol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), data=st.data())
    def test_lag_recurrence_matches_dense_product(self, seed, data):
        # K up to N - 1, so windows shorter than the embedding (L < K) are covered
        n = data.draw(st.integers(12, 300))
        K = data.draw(st.integers(2, n - 1))
        x = TimeSeries(np.random.default_rng(seed).standard_normal(n), 1.0)
        tm = build_trajectory_matrix(x, K)
        G = gram(tm)
        dense = tm.T @ tm
        assert np.abs(G - dense).max() <= 1e-13 * np.abs(dense).max()
        assert np.array_equal(G, G.T)

    def test_result_is_frozen(self, rng):
        tm = build_trajectory_matrix(TimeSeries(rng.standard_normal(40), 1.0), 9)
        assert not gram(tm).flags.writeable


class TestDiffOperator:
    def test_order1_k3(self):
        D = from_diagonals(diff_operator(1, 3))
        np.testing.assert_array_equal(D, [[-1, 1, 0], [0, -1, 1]])

    def test_order2_k4(self):
        D = from_diagonals(diff_operator(2, 4))
        np.testing.assert_array_equal(D, [[1, -2, 1, 0], [0, 1, -2, 1]])

    def test_constant_annihilated(self):
        D = from_diagonals(diff_operator(1, 3))
        np.testing.assert_array_equal(D @ np.array([5.0, 5.0, 5.0]), [0.0, 0.0])

    def test_order2_annihilates_affine(self):
        D = from_diagonals(diff_operator(2, 6))
        v = 3.0 * np.arange(6) + 1.5
        np.testing.assert_allclose(D @ v, 0.0, atol=1e-12)

    def test_rows_sum_to_zero(self):
        for order in (1, 2):
            D = from_diagonals(diff_operator(order, 9))
            np.testing.assert_allclose(D.sum(axis=1), 0.0, atol=1e-15)


def dense_R(order, K):
    return from_band(smoothing_matrix(diff_operator(order, K)))


class TestSmoothingMatrix:
    def test_order1_k3_hand_product(self):
        R = dense_R(1, 3)
        np.testing.assert_array_equal(R, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_constant_null_space(self):
        R = dense_R(1, 7)
        np.testing.assert_allclose(R @ np.ones(7), 0.0, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), order=st.sampled_from([1, 2]))
    def test_quadratic_form_equals_diff_norm(self, seed, order):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(order + 1, 16))
        v = rng.standard_normal(K)
        D = dense_D(order, K)
        R = dense_R(order, K)
        assert v @ R @ v == pytest.approx(np.linalg.norm(D @ v) ** 2, abs=1e-12)

    def test_psd(self, rng):
        for order in (1, 2):
            R = dense_R(order, 12)
            assert np.min(np.linalg.eigvalsh(R)) >= -1e-12

    @pytest.mark.parametrize("order", [1, 2])
    def test_bit_identical_to_dense_product(self, order):
        for K in [*range(order + 1, 41), 200, 682]:
            D = dense_D(order, K)
            assert np.array_equal(dense_R(order, K), D.T @ D)


class TestAugmented:
    def test_alpha_zero_is_exactly_identity(self):
        R = smoothing_matrix(diff_operator(1, 5))
        M = from_band(augmented(R, 0.0))
        assert np.array_equal(M, np.eye(5))

    def test_k2_alpha1(self):
        R = smoothing_matrix(diff_operator(1, 2))
        M = from_band(augmented(R, 1.0))
        np.testing.assert_array_equal(M, [[2, -1], [-1, 2]])

    def test_min_eigenvalue_at_least_one(self, rng):
        R = smoothing_matrix(diff_operator(1, 10))
        for alpha in (0.0, 0.3, 2.0, 50.0):
            M = from_band(augmented(R, alpha))
            assert np.min(np.linalg.eigvalsh(M)) >= 1.0 - 1e-10


class TestClosedFormBand:
    """M's band, built without any K x K array, against a dense I + alpha D^T D."""

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 8.0])
    @pytest.mark.parametrize("order", [1, 2])
    def test_band_equals_dense_oracle(self, order, alpha):
        for K in range(order + 1, 41):
            band = augmented(smoothing_matrix(diff_operator(order, K)), alpha)
            assert band.shape == (order + 1, K) and not band.flags.writeable
            assert np.array_equal(band, upper_band(dense_M(order, K, alpha), order))

    def test_interior_stencils(self):
        np.testing.assert_array_equal(smoothing_matrix(diff_operator(1, 6)),
                                      [[0, -1, -1, -1, -1, -1], [1, 2, 2, 2, 2, 1]])
        np.testing.assert_array_equal(smoothing_matrix(diff_operator(2, 6)),
                                      [[0, 0, 1, 1, 1, 1], [0, -2, -4, -4, -4, -2],
                                       [1, 5, 6, 6, 5, 1]])

    @pytest.mark.parametrize("order", [1, 2])
    def test_overflowing_alpha_raises(self, order):
        R = smoothing_matrix(diff_operator(order, 8))
        with pytest.raises(NumericalError, match="overflows"):
            augmented(R, 1e308)
        with pytest.raises(NumericalError):
            solve_generalized(np.eye(8), 1e308, order)

    def test_overflow_bound_is_per_order(self):
        # alpha * 4 is finite, alpha * 16 is not
        assert np.isfinite(augmented(smoothing_matrix(diff_operator(1, 8)), 2e307)).all()
        with pytest.raises(NumericalError):
            augmented(smoothing_matrix(diff_operator(2, 8)), 2e307)


class TestSolveGeneralized:
    def test_diagonal_standard_problem(self):
        G = np.diag([4.0, 1.0])
        basis = solve_for(G, alpha=0.0)
        np.testing.assert_allclose(basis.gammas, [4.0, 1.0], rtol=1e-12)
        np.testing.assert_allclose(np.abs(basis.vectors[:, 0]), [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(basis.vectors[:, 1]), [0.0, 1.0], atol=1e-12)

    def test_closed_form_2x2(self):
        # G = 2I with M = [[2,-1],[-1,2]]: M(1,1)^T = (1,1)^T so gamma = 2,
        # M(1,-1)^T = 3(1,-1)^T so gamma = 2/3
        G = 2.0 * np.eye(2)
        basis = solve_generalized(G, 1.0, 1)
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
        expected = np.sort(np.linalg.eigvalsh(G))[::-1]
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
            energies = np.einsum("ki,ki->i", V, G @ V)
            for gamma, mu, energy in zip(basis.gammas, basis.mu, energies):
                assert gamma * (1 + alpha * mu) == pytest.approx(energy, rel=1e-8)

    @pytest.mark.parametrize("order", [1, 2])
    def test_mu_matches_quadratic_form(self, rng, order):
        # ||D v||^2 by differencing against the dense v^T R v
        for K in (order + 1, 30, 200):
            G = random_psd(rng, K)
            D = dense_D(order, K)
            R = D.T @ D
            basis = solve_generalized(G, 1.5, order)
            V = basis.vectors
            np.testing.assert_allclose(basis.mu, np.einsum("ki,ki->i", V, R @ V),
                                       rtol=0, atol=1e-12)

    def test_m_orthogonality(self, rng):
        G = random_psd(rng, 12)
        M = dense_M(1, 12, 2.5)
        basis = solve_generalized(G, 2.5, 1)
        V = basis.vectors
        MV = M @ V
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
            D = dense_D(order, K)
            R = D.T @ D
            for _ in range(10):
                u = rng.standard_normal(L)
                u /= np.linalg.norm(u)
                v = rng.standard_normal(K)
                Xi = np.outer(u, v)
                frob = np.linalg.norm(D @ Xi.T, "fro") ** 2
                assert frob == pytest.approx(v @ R @ v, rel=1e-10)

    def test_alpha_zero_vectors_match_svd(self, rng):
        # right singular vectors from an independent SVD, up to sign
        x = TimeSeries(rng.standard_normal(80), 1.0)
        tm = build_trajectory_matrix(x, 10)
        G = gram(tm)
        basis = solve_for(G, alpha=0.0)
        _, svals, Vt = np.linalg.svd(tm)
        np.testing.assert_allclose(basis.gammas, svals**2, rtol=1e-7)
        for i, v in enumerate(basis.vectors.T):
            err = min(
                np.abs(v - Vt[i]).max(), np.abs(v + Vt[i]).max()
            )
            assert err < 1e-7

    def test_negligible_flagging(self):
        G = np.diag([1.0, 1e-20, 0.0])
        basis = solve_for(G, alpha=0.0)
        assert basis.negligible.tolist() == [False, True, True]

    def test_eigen_floor_boundary(self):
        # at alpha = 0, M = I and the gammas of a diagonal G are exact: a gamma 1e-10
        # of the largest is kept, one 1e-13 of it falls below EIGEN_FLOOR
        basis = solve_for(np.diag([1.0, 1e-10, 1e-13]), alpha=0.0)
        assert basis.gammas.tolist() == [1.0, 1e-10, 1e-13]
        assert basis.negligible.tolist() == [False, False, True]

    def test_shrink_weights(self, rng):
        G = random_psd(rng, 8)
        basis = solve_for(G, alpha=2.0)
        # the gain is computed where it is used, from the config's alpha and basis.mu
        for gain in 1.0 / (1.0 + 2.0 * basis.mu):
            assert 0.0 < gain <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), order=st.sampled_from([1, 2]), data=st.data())
    def test_banded_reduction_matches_dense_oracle(self, seed, order, data):
        # the dense sygvd solve stays here only as an oracle
        K = data.draw(st.integers(order + 1, 80))
        alpha = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3, exclude_min=True)))
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((int(rng.integers(1, K + 6)), K))  # rank-deficient too
        G = w.T @ w
        M = dense_M(order, K, alpha)
        basis = solve_generalized(G, alpha, order)
        dense = sla.eigh(G, M, eigvals_only=True)[::-1]
        assert np.abs(basis.gammas - dense).max() <= 1e-10 * np.abs(dense).max()
        V = basis.vectors
        MV = M @ V
        mnorms = np.sqrt(np.einsum("ki,ki->i", V, MV))
        cross = np.abs(V.T @ MV) / np.outer(mnorms, mnorms)
        np.fill_diagonal(cross, 0.0)
        assert cross.max() <= 1e-8

    @pytest.mark.parametrize("K", [8, 200, 682])
    @pytest.mark.parametrize("alpha", [0.3, 8.0])
    def test_order1_matches_dct_oracle(self, K, alpha):
        # the orthonormal DCT-II Q diagonalizes the order-1 D^T D, with eigenvalues
        # 2 - 2 cos(pi k / K), so M^-1/2 = Q S Q^T with S = (I + alpha Lambda)^-1/2;
        # then the plain symmetric S Q^T G Q S y = gamma y solves G v = gamma M v, v = Q S y,
        # with no band Cholesky factor or triangular solve
        j, k = np.meshgrid(np.arange(K), np.arange(K), indexing="ij")
        Q = np.sqrt(np.where(k == 0, 1.0, 2.0) / K) * np.cos(np.pi * k * (2 * j + 1) / (2 * K))
        S = (1.0 + alpha * (2.0 - 2.0 * np.cos(np.pi * np.arange(K) / K))) ** -0.5
        rng = np.random.default_rng(K)
        w = rng.standard_normal((2 * K, K))  # well conditioned, so no gamma is near 0
        G = w.T @ w
        gammas, Y = np.linalg.eigh(S[:, None] * (Q.T @ G @ Q) * S)
        order = np.argsort(-gammas)
        V = Q @ (S[:, None] * Y[:, order])
        basis = solve_generalized(G, alpha, 1)
        np.testing.assert_allclose(basis.gammas, gammas[order], rtol=1e-12, atol=0)
        cos = np.abs(np.einsum("ki,ki->i", basis.vectors, V)) / np.linalg.norm(V, axis=0)
        assert cos.min() >= 1 - 1e-12

    def test_cholesky_failure_surfaces(self):
        # 1 + alpha rounds to alpha, so M = I + alpha R is the singular alpha R in
        # float64; a power of 4 makes the last Cholesky pivot exactly 0
        G = np.eye(2)
        with pytest.raises(NumericalError, match="eigensolver failed"):
            solve_generalized(G, 2.0**1000, 1)


class TestTruncatedSolve:
    """``n_pairs=m`` returns the top m pairs of the full solve, by either driver."""

    @staticmethod
    def solve_spy(monkeypatch):
        # syevr comes through the module's own f2py call, syevd through numpy's eigh
        drivers = []
        syevr, np_eigh = eigen._syevr, np.linalg.eigh

        def spy(*args, **kwargs):
            drivers.append("evr")
            return syevr(*args, **kwargs)

        def np_spy(*args, **kwargs):
            drivers.append("evd")
            return np_eigh(*args, **kwargs)

        monkeypatch.setattr(eigen, "_syevr", spy)
        monkeypatch.setattr(np.linalg, "eigh", np_spy)
        return drivers

    # syevr runs when 8 m <= K, syevd (then the top m are kept) otherwise
    @pytest.mark.parametrize("K, m, driver", [
        (200, 25, "evr"), (200, 26, "evd"), (200, 32, "evd"), (682, 32, "evr"),
        (40, 5, "evr"), (40, 6, "evd"), (9, 1, "evr"), (9, 2, "evd"),
    ])
    @pytest.mark.parametrize("order", [1, 2])
    def test_subset_equals_top_of_full_solve(self, rng, monkeypatch, K, m, driver, order):
        G = random_psd(rng, K)
        full = solve_generalized(G, 1.5, order)
        drivers = self.solve_spy(monkeypatch)
        top = solve_generalized(G, 1.5, order, n_pairs=m)
        assert drivers == [driver]
        assert top.vectors.shape == (K, m) and len(top) == m
        assert np.abs(top.gammas - full.gammas[:m]).max() <= 1e-12 * full.gammas[0]
        cos = np.abs(np.einsum("ki,ki->i", top.vectors, full.vectors[:, :m]))
        assert cos.min() >= 1 - 1e-10
        np.testing.assert_allclose(top.mu, full.mu[:m], rtol=1e-8, atol=1e-12)
        assert np.array_equal(top.negligible, full.negligible[:m])

    # syevd runs through numpy's eigh, which releases the GIL; scipy's
    # driver="evd" is the reference.  Both wrap LAPACK syevd, but their BLAS
    # builds may differ, so no bits are pinned.
    @pytest.mark.parametrize("K", [8, 24, 50, 200, 300])
    @pytest.mark.parametrize("order", [1, 2])
    def test_evd_branch_matches_scipy_evd(self, rng, monkeypatch, K, order):
        G = random_psd(rng, K)
        for n_pairs in (None, K // 8 + 1):  # all pairs, and the fewest that take syevd
            basis = solve_generalized(G, 1.5, order, n_pairs=n_pairs)
            calls = []
            monkeypatch.setattr(np.linalg, "eigh",
                                lambda a: calls.append(a) or sla.eigh(a, driver="evd"))
            ref = solve_generalized(G, 1.5, order, n_pairs=n_pairs)
            monkeypatch.undo()
            assert len(calls) == 1
            assert basis.vectors.shape == ref.vectors.shape
            assert np.abs(basis.gammas - ref.gammas).max() <= 1e-12 * ref.gammas[0]
            cos = np.abs(np.einsum("ki,ki->i", basis.vectors, ref.vectors))
            assert cos.min() >= 1 - 1e-12

    @pytest.mark.parametrize("K, m", [(200, 16), (200, 64)])
    def test_contracts_hold_on_the_returned_pairs(self, rng, K, m):
        G = random_psd(rng, K)
        M = dense_M(1, K, 2.5)
        basis = solve_generalized(G, 2.5, 1, n_pairs=m)
        V = basis.vectors
        MV = M @ V
        mnorms = np.sqrt(np.einsum("ki,ki->i", V, MV))
        cross = np.abs(V.T @ MV) / np.outer(mnorms, mnorms)
        np.fill_diagonal(cross, 0.0)
        assert cross.max() <= 1e-8
        energies = np.einsum("ki,ki->i", V, G @ V)
        np.testing.assert_allclose(basis.gammas * (1 + 2.5 * basis.mu), energies, rtol=1e-8)
        np.testing.assert_allclose(np.linalg.norm(V, axis=0), 1.0, atol=1e-12)
        assert np.all(np.diff(basis.gammas) <= 0)

    def test_m_at_least_k_is_the_full_basis(self, rng):
        G = random_psd(rng, 12)
        full = solve_generalized(G, 0.7, 2)
        for m in (12, 13, 100):
            basis = solve_generalized(G, 0.7, 2, n_pairs=m)
            for name in ("gammas", "vectors", "mu", "negligible"):
                assert np.array_equal(getattr(basis, name), getattr(full, name))

    def test_basis_of_m_columns(self, rng):
        basis = solve_for(random_psd(rng, 6), alpha=0.5)
        sub = EigenBasis(basis.gammas[:2], basis.vectors[:, :2], basis.mu[:2],
                         basis.negligible[:2])
        assert len(sub) == 2 and sub.vectors.shape == (6, 2)


class TestLapackCalls:
    """The calls to scipy's _flapack give scipy.linalg's cholesky_banded,
    lapack.dtbtrs and eigh results bit for bit; scipy.linalg is the oracle."""

    @pytest.mark.parametrize("K, order", [
        (K, order) for K in (2, 3, 9, 40, 200, 682) for order in (1, 2) if K > order])
    @pytest.mark.parametrize("alpha", [0.0, 1e-3, 1.5, 1e6])
    def test_bit_identical_to_scipy_linalg(self, K, order, alpha):
        rng = np.random.default_rng(K)
        G = random_psd(rng, K)
        G.setflags(write=False)
        band = augmented(smoothing_matrix(diff_operator(order, K)), alpha)
        U = eigen._band_cholesky(band)
        assert np.array_equal(U, sla.cholesky_banded(band))
        H = eigen._band_solve(U, G.T, "T")
        assert np.array_equal(H, sla.lapack.dtbtrs(U, G.T, trans="T")[0])
        C = eigen._band_solve(U, H.T, "T")
        assert np.array_equal(C, sla.lapack.dtbtrs(U, H.T, trans="T")[0])
        for top in sorted({1, max(1, K // 8), K if K <= 200 else 1}):
            ref_w, ref_Y = sla.eigh(C, driver="evr", subset_by_index=[K - top, K - 1])
            w, Y = eigen._syevr(np.array(C, order="F"), top)
            assert np.array_equal(w, ref_w) and np.array_equal(Y, ref_Y)
            V = eigen._band_solve(U, Y)
            assert np.array_equal(V, sla.lapack.dtbtrs(U, Y, trans="N")[0])

    def test_inputs_are_not_written(self, rng):
        band = augmented(smoothing_matrix(diff_operator(2, 30)), 1.5)
        B = rng.standard_normal((30, 4))
        band_copy, B_copy = band.copy(), B.copy()
        U = eigen._band_cholesky(band)
        eigen._band_solve(U, B)
        assert np.array_equal(band, band_copy) and np.array_equal(B, B_copy)

    # a stand-in routine returns the info of an illegal argument: every nonzero
    # info raises, not only the positive ones real inputs can reach
    @pytest.mark.parametrize("routine, call, message", [
        ("dpbtrf", lambda: eigen._band_cholesky(np.ones((2, 5))),
         "generalized eigensolver failed: LAPACK dpbtrf info -3"),
        ("dtbtrs", lambda: eigen._band_solve(np.ones((2, 5)), np.ones((5, 1))),
         "banded triangular solve failed: LAPACK dtbtrs info -3"),
        ("dsyevr", lambda: eigen._syevr(np.eye(5, order="F"), 2),
         "generalized eigensolver failed: LAPACK dsyevr info -3"),
    ])
    def test_negative_info_raises(self, monkeypatch, routine, call, message):
        monkeypatch.setattr(eigen._LAPACK, routine, lambda *args, **options: (None, -3))
        with pytest.raises(NumericalError, match=message):
            call()

    def test_singular_triangle_raises(self):
        U = np.ones((2, 5))
        U[1, 2] = 0.0  # a zero on U's diagonal
        with pytest.raises(NumericalError,
                           match="banded triangular solve failed: LAPACK dtbtrs info 3"):
            eigen._band_solve(U, np.ones((5, 1)))

    def test_loaded_module_is_reused(self, monkeypatch):
        # a module already in sys.modules is used as it is, not loaded again
        module = types.SimpleNamespace()
        monkeypatch.setitem(sys.modules, "scipy.linalg._flapack", module)
        assert eigen._lapack_module() is module

    def test_missing_module_raises_import_error(self, monkeypatch):
        # a scipy whose linalg directory has no _flapack: an ImportError naming the
        # module and scipy's version, not an AttributeError from a None spec
        import importlib.machinery
        import scipy

        name = "scipy.linalg._flapack"
        find_spec = importlib.machinery.PathFinder.find_spec

        def missing(fullname, path=None, target=None):
            return None if fullname == name else find_spec(fullname, path, target)

        monkeypatch.delitem(sys.modules, name)  # put back when the test ends
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", missing)
        with pytest.raises(ImportError, match=f"{name}.*scipy {scipy.__version__}") as info:
            eigen._lapack_module()
        assert info.value.name == name
        assert name not in sys.modules
