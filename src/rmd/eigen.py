"""Regularized spectral core.

The decomposition rests on the symmetric-definite generalized eigenproblem
``G v = gamma (I + alpha R) v`` where G is the trajectory Gram matrix and
R = D^T D penalizes rough eigenvectors through a finite-difference stencil D.
M = I + alpha R is positive definite, so one LAPACK call (sygvd through
``scipy.linalg.eigh(G, M)``) returns the whole eigenbasis, held as arrays.
It is the only O(K^3) step: G, R and each ||D v||^2 use the Hankel and stencil structure.
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
class DifferenceOperator:
    """First- or second-order finite-difference stencil matrix.

    Order 1 rows are [-1, 1] shifts, order 2 rows are [1, -2, 1]; every row
    sums to zero, so constants (and affine vectors, for order 2) are
    annihilated.
    """

    order: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


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
class AugmentedMatrix:
    """M = I + alpha * R: the symmetric positive-definite right-hand matrix.

    R is positive semi-definite, so the smallest eigenvalue of M is >= 1
    for every alpha >= 0.
    """

    matrix: np.ndarray
    alpha: float

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """All K generalized eigenpairs as arrays, sorted by descending eigenvalue.

    gammas      generalized eigenvalues, shape (K,)
    vectors     eigenvectors as columns, each of unit Euclidean norm, (K, K)
    mu          roughness v^T R v = ||D v||^2; v^T G v = gamma (1 + alpha mu), (K,)
    negligible  True where gamma falls below the numerical floor, shape (K,)
    alpha       the regularization weight of M

    The optional reconstruction gain of column i is 1 / (1 + alpha * mu[i]).
    """

    gammas: np.ndarray
    vectors: np.ndarray
    mu: np.ndarray
    negligible: np.ndarray
    alpha: float

    def __post_init__(self):
        for name in ("gammas", "vectors", "mu", "negligible"):
            dtype = bool if name == "negligible" else np.float64
            a = np.array(getattr(self, name), dtype=dtype)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        K = self.gammas.size
        if self.vectors.shape != (K, K) or not (
            self.mu.shape == self.negligible.shape == (K,)
        ):
            raise ValueError("eigenbasis arrays must hold K values and K x K vectors")

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
    return GramMatrix(g)


def diff_operator(order: int, K: int) -> DifferenceOperator:
    """The (K - order) x K finite-difference stencil matrix."""
    if order not in (1, 2):
        raise ValueError("difference order must be 1 or 2")
    if K < order + 1:
        raise ValueError(f"need K >= {order + 1} for order {order}, got K={K}")
    return DifferenceOperator(order=order, matrix=np.diff(np.eye(K), n=order, axis=0))


def smoothing_matrix(D: DifferenceOperator) -> np.ndarray:
    """R = D^T D, the PSD roughness form: D's columns differenced by the adjoint
    of D, (-1)^order * diff(pad(.)), in O(K^2) and bit-identical to the product."""
    k = D.order
    return (-1) ** k * np.diff(np.pad(D.matrix, ((k, k), (0, 0))), n=k, axis=0)


def augmented(R: np.ndarray, alpha: float) -> AugmentedMatrix:
    """M = I + alpha * R.  alpha = 0 yields the identity exactly."""
    if not math.isfinite(alpha) or alpha < 0:
        raise ValueError("alpha must be finite and >= 0")
    R = np.asarray(R, dtype=np.float64)  # finite, so 0 * R adds only zeros
    return AugmentedMatrix(matrix=np.eye(R.shape[0]) + alpha * R, alpha=alpha)


EIGEN_FLOOR_DEFAULT = 1e-12


def solve_generalized(
    G: GramMatrix,
    M: AugmentedMatrix,
    D: DifferenceOperator,
    eigen_floor: float = EIGEN_FLOOR_DEFAULT,
) -> EigenBasis:
    """Solve ``G v = gamma M v`` for the full eigenbasis.

    One call to ``scipy.linalg.eigh(G, M)`` (LAPACK sygvd) factors M, solves
    the reduced symmetric problem and maps the eigenvectors back.  Each
    vector is rescaled to unit Euclidean norm (reconstruction assumes
    v^T v = 1); columns come back sorted by descending gamma, ties kept in
    solver order.  A factorization or convergence failure raises
    EigenSolverError.  D is the stencil of M's R = D^T D: each roughness
    mu = ||D v||^2 is taken by differencing v, in O(K^2).

    Eigenvalues below ``eigen_floor * max(gamma)`` are flagged negligible;
    downstream they route to the residual instead of seeding modes.
    """
    K = G.dim
    if M.dim != K or D.dim != K:
        raise ValueError("G, M and D must share one dimension")
    try:
        w, V = sla.eigh(G.matrix, M.matrix)
    except sla.LinAlgError as exc:
        raise EigenSolverError(f"generalized eigensolver failed: {exc}") from exc

    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    V /= np.linalg.norm(V, axis=0, keepdims=True)

    gmax = float(w[0])
    floor = eigen_floor * gmax if gmax > 0 else math.inf
    return EigenBasis(
        gammas=w,
        vectors=V,
        mu=np.sum(np.diff(V, n=D.order, axis=0) ** 2, axis=0),
        negligible=w < floor,
        alpha=M.alpha,
    )
