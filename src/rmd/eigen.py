"""Regularized spectral core.

The decomposition rests on the symmetric-definite generalized eigenproblem
``G v = gamma (I + alpha R) v`` where G is the trajectory Gram matrix and
R = D^T D penalizes rough eigenvectors through a finite-difference stencil D.
M = I + alpha R is positive definite and banded, so it is factored in its band
(M = U^T U) and the problem reduced to the standard one U^-T G U^-1 y = gamma y
by banded triangular solves.  One symmetric eigensolve of that matrix returns
the top m eigenpairs, held as arrays: ``rmd_decompose`` asks for
m = min(K, 8 n_modes), since clustering reads only the leading pairs.  LAPACK
syevr computes just those m when 8 m <= K; otherwise syevd computes all K and
the top m are kept, which is faster when m is a large share of K.  Either
driver's tridiagonalization is the only O(K^3) step: G, R, the reduction,
the back-substitution and each ||D v||^2 use the Hankel and stencil
structure and cost O(K^2) or O(K m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .embedding import TrajectoryMatrix


class EigenSolverError(RuntimeError):
    """Numerical failure inside the generalized eigensolver."""


class NumericalError(ArithmeticError):
    """A decomposition met numbers it cannot use, or failed an internal check."""


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric positive semi-definite K x K Gram matrix X^T X."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("Gram matrix must be square")
        scale = float(np.abs(m).max()) or 1.0
        # transpose by copy first: numpy subtracts a transposed view slowly
        if np.abs(m.T.copy() - m).max() > 1e-10 * scale:
            raise ValueError("Gram matrix must be symmetric")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """The top m of the K generalized eigenpairs as arrays, sorted by
    descending eigenvalue (m = K for the full basis).

    gammas      generalized eigenvalues, shape (m,)
    vectors     eigenvectors as columns, each of unit Euclidean norm, (K, m)
    mu          roughness v^T R v = ||D v||^2; v^T G v = gamma (1 + alpha mu), (m,)
    negligible  True where gamma falls below the numerical floor, shape (m,)

    The optional reconstruction gain of column i is 1 / (1 + alpha * mu[i]).
    """

    gammas: np.ndarray
    vectors: np.ndarray
    mu: np.ndarray
    negligible: np.ndarray

    def __post_init__(self):
        for name in ("gammas", "vectors", "mu", "negligible"):
            dtype = bool if name == "negligible" else np.float64
            a = np.array(getattr(self, name), dtype=dtype)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        m = self.gammas.size
        if self.vectors.ndim != 2 or self.vectors.shape[1] != m or not (
            self.mu.shape == self.negligible.shape == (m,)
        ):
            raise ValueError("eigenbasis arrays must hold m values and K x m vectors")

    def __len__(self) -> int:
        return self.gammas.size


def gram(X: TrajectoryMatrix) -> GramMatrix:
    """X^T X by the Hankel lag recurrence: O(K^2) after one O(LK) first row.

    Row i of X is x[i : i + K], so G[i+1, j+1] = G[i, j] + x[L+i] x[L+j] - x[i] x[j]
    (Korobeynikov, arXiv:0911.4498).  Both triangles read the same running
    sums, so G is exactly symmetric.  Overflow raises NumericalError.
    """
    L, K = X.data.shape
    x = np.concatenate([X.data[:, 0], X.data[-1, 1:], np.zeros(K)])
    W = sliding_window_view(x, K)  # W[t, d] = x[t + d], zero past the signal
    H = np.empty((K, K))  # H[i, d] = G[i, i + d] wherever i + d < K
    with np.errstate(over="ignore", invalid="ignore"):
        H[0] = x[:L] @ X.data
        np.multiply(x[L:L + K - 1, None], W[L:L + K - 1], out=H[1:])
        H[1:] -= x[:K - 1, None] * W[:K - 1]
        np.cumsum(H, axis=0, out=H)
    U = as_strided(H, shape=(K, K), strides=(H.strides[0] - H.strides[1], H.strides[1]))
    g = np.where(np.arange(K)[:, None] <= np.arange(K), U, U.T.copy())
    if not np.isfinite(g).all():
        raise NumericalError(f"Gram matrix overflows for signal magnitude {np.abs(x).max():.3g}")
    g.setflags(write=False)  # new and exactly symmetric: skip __post_init__'s copy and scan
    G = object.__new__(GramMatrix)
    object.__setattr__(G, "matrix", g)
    return G


def diff_operator(order: int, K: int) -> np.ndarray:
    """The read-only (K - order) x K finite-difference stencil matrix D.

    Order 1 rows are [-1, 1] shifts, order 2 rows are [1, -2, 1]; every row
    sums to zero, so constants (and affine vectors, for order 2) are
    annihilated.  The order is D's column count minus its row count.
    """
    if order not in (1, 2):
        raise ValueError("difference order must be 1 or 2")
    if K < order + 1:
        raise ValueError(f"need K >= {order + 1} for order {order}, got K={K}")
    D = np.diff(np.eye(K), n=order, axis=0)
    D.setflags(write=False)
    return D


def _order(D: np.ndarray) -> int:
    return D.shape[1] - D.shape[0]


def smoothing_matrix(D: np.ndarray) -> np.ndarray:
    """R = D^T D, the PSD roughness form: D's columns differenced by the adjoint
    of D, (-1)^order * diff(pad(.)), in O(K^2) and bit-identical to the product."""
    k = _order(D)
    return (-1) ** k * np.diff(np.pad(D, ((k, k), (0, 0))), n=k, axis=0)


def augmented(R: np.ndarray, alpha: float) -> np.ndarray:
    """The read-only M = I + alpha * R.  alpha = 0 yields the identity exactly.

    R is positive semi-definite, so the smallest eigenvalue of M is >= 1
    for every alpha >= 0.  An alpha so large that M overflows raises
    NumericalError.
    """
    if not math.isfinite(alpha) or alpha < 0:
        raise ValueError("alpha must be finite and >= 0")
    R = np.asarray(R, dtype=np.float64)  # finite, so 0 * R adds only zeros
    with np.errstate(over="ignore"):
        M = np.eye(R.shape[0]) + alpha * R
    if not np.isfinite(M).all():
        raise NumericalError(f"M = I + alpha R overflows for alpha={alpha:.3g}")
    M.setflags(write=False)
    return M


EIGEN_FLOOR_DEFAULT = 1e-12


def _band_solve(U: np.ndarray, B: np.ndarray, trans: str = "N") -> np.ndarray:
    """U^-1 B (``trans="N"``) or U^-T B (``"T"``) for U in upper band storage."""
    X, info = sla.lapack.dtbtrs(U, B, trans=trans)
    if info != 0:
        raise EigenSolverError(f"banded triangular solve failed: LAPACK info {info}")
    return X


def solve_generalized(
    G: GramMatrix,
    M: np.ndarray,
    D: np.ndarray,
    eigen_floor: float = EIGEN_FLOOR_DEFAULT,
    n_pairs: int | None = None,
) -> EigenBasis:
    """Solve ``G v = gamma M v`` for the top ``n_pairs`` eigenpairs (all K if None).

    M must lie in the band of R = D^T D (ValueError otherwise).  Its band
    Cholesky factor, M = U^T U, reduces the problem to the symmetric
    C = U^-T G U^-1 by two banded triangular solves in O(K^2 order), and
    v = U^-1 y (Golub & Van Loan, Matrix Computations, 8.7).  With
    m = min(K, n_pairs), C y = gamma y is solved for its m largest pairs by
    syevr when 8 m <= K and otherwise by syevd, keeping the top m of its K
    pairs; both return the same pairs, and the cheaper driver is picked.
    Each vector is rescaled to unit Euclidean norm (reconstruction assumes
    v^T v = 1); columns come back sorted by descending gamma, ties kept in
    solver order.  A factorization or convergence failure raises
    EigenSolverError.  Each roughness mu = ||D v||^2 is taken by
    differencing v, in O(K m).

    Eigenvalues below ``eigen_floor * max(gamma)`` are flagged negligible;
    downstream they route to the residual instead of seeding modes.
    """
    K, k = G.dim, _order(D)
    m = np.asarray(M, dtype=np.float64)
    if m.shape != (K, K) or D.shape[1] != K:
        raise ValueError("G, M and D must share one dimension")
    if np.count_nonzero(m) != sum(np.count_nonzero(m.diagonal(d)) for d in range(-k, k + 1)):
        raise ValueError(f"M has entries outside the band of an order-{k} stencil")
    if n_pairs is not None and n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    top = K if n_pairs is None else min(K, n_pairs)
    band = np.zeros((k + 1, K))  # LAPACK upper band storage: band[k - d, d:] = diagonal d
    for d in range(k + 1):
        band[k - d, d:] = m.diagonal(d)
    try:
        U = sla.cholesky_banded(band)
        # G is symmetric, so G.T is the same matrix in the Fortran order LAPACK reads;
        # C = U^-T (U^-T G)^T = U^-T G U^-1
        C = _band_solve(U, _band_solve(U, G.matrix.T, "T").T, "T")
        # syevr pays per pair computed; below K/8 pairs it beats syevd's full solve
        if 8 * top <= K:
            w, Y = sla.eigh(C, driver="evr", subset_by_index=[K - top, K - 1],
                            overwrite_a=True)
        else:
            w, Y = sla.eigh(C, driver="evd", overwrite_a=True)
    except sla.LinAlgError as exc:
        raise EigenSolverError(f"generalized eigensolver failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")[:top]
    w = w[order]
    V = _band_solve(U, Y[:, order])
    V /= np.linalg.norm(V, axis=0, keepdims=True)

    gmax = float(w[0])
    floor = eigen_floor * gmax if gmax > 0 else math.inf
    return EigenBasis(
        gammas=w,
        vectors=V,
        mu=np.sum(np.diff(V, n=k, axis=0) ** 2, axis=0),
        negligible=w < floor,
    )
