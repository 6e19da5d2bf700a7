"""Regularized spectral core.

The decomposition rests on the symmetric-definite generalized eigenproblem
``G v = gamma (I + alpha R) v`` where G is the trajectory Gram matrix and
R = D^T D penalizes rough eigenvectors through a finite-difference stencil D.
M = I + alpha R is positive definite, so one LAPACK call (sygvd through
``scipy.linalg.eigh(G, M)``) returns the whole eigenbasis, held as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .embedding import TrajectoryMatrix


class EigenSolverError(RuntimeError):
    """Numerical failure inside the generalized eigensolver."""


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
        if np.abs(m - m.T).max() > 1e-10 * scale:
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
    mu          roughness quadratics v^T R v (clamped at 0), shape (K,)
    energy      v^T G v; equals gamma * (1 + alpha * mu), shape (K,)
    negligible  True where gamma falls below the numerical floor, shape (K,)
    alpha       the regularization weight of M

    The optional reconstruction gain of column i is 1 / (1 + alpha * mu[i]).
    """

    gammas: np.ndarray
    vectors: np.ndarray
    mu: np.ndarray
    energy: np.ndarray
    negligible: np.ndarray
    alpha: float

    def __post_init__(self):
        for name in ("gammas", "vectors", "mu", "energy", "negligible"):
            dtype = bool if name == "negligible" else np.float64
            a = np.array(getattr(self, name), dtype=dtype)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        K = self.gammas.size
        if self.vectors.shape != (K, K) or not (
            self.mu.shape == self.energy.shape == self.negligible.shape == (K,)
        ):
            raise ValueError("eigenbasis arrays must hold K values and K x K vectors")

    def __len__(self) -> int:
        return self.gammas.size


def gram(X: TrajectoryMatrix) -> GramMatrix:
    """X^T X, symmetrized as (G + G^T) / 2 to kill rounding asymmetry."""
    g = X.data.T @ X.data
    return GramMatrix((g + g.T) / 2.0)


def diff_operator(order: int, K: int) -> DifferenceOperator:
    """The (K - order) x K finite-difference stencil matrix."""
    if order not in (1, 2):
        raise ValueError("difference order must be 1 or 2")
    if K < order + 1:
        raise ValueError(f"need K >= {order + 1} for order {order}, got K={K}")
    rows = K - order
    D = np.zeros((rows, K))
    if order == 1:
        idx = np.arange(rows)
        D[idx, idx] = -1.0
        D[idx, idx + 1] = 1.0
    else:
        idx = np.arange(rows)
        D[idx, idx] = 1.0
        D[idx, idx + 1] = -2.0
        D[idx, idx + 2] = 1.0
    return DifferenceOperator(order=order, matrix=D)


def smoothing_matrix(D: DifferenceOperator) -> np.ndarray:
    """R = D^T D, the positive semi-definite roughness quadratic form."""
    return D.matrix.T @ D.matrix


def augmented(R: np.ndarray, alpha: float) -> AugmentedMatrix:
    """M = I + alpha * R.  alpha = 0 yields the identity exactly."""
    if not math.isfinite(alpha) or alpha < 0:
        raise ValueError("alpha must be finite and >= 0")
    R = np.asarray(R, dtype=np.float64)
    if alpha == 0.0:
        M = np.eye(R.shape[0])
    else:
        M = np.eye(R.shape[0]) + alpha * R
    return AugmentedMatrix(matrix=M, alpha=alpha)


EIGEN_FLOOR_DEFAULT = 1e-12


def solve_generalized(
    G: GramMatrix,
    M: AugmentedMatrix,
    R: np.ndarray,
    eigen_floor: float = EIGEN_FLOOR_DEFAULT,
) -> EigenBasis:
    """Solve ``G v = gamma M v`` for the full eigenbasis.

    One call to ``scipy.linalg.eigh(G, M)`` (LAPACK sygvd) factors M, solves
    the reduced symmetric problem and maps the eigenvectors back.  Each
    vector is rescaled to unit Euclidean norm (reconstruction assumes
    v^T v = 1); columns come back sorted by descending gamma, ties kept in
    solver order.  A factorization or convergence failure raises
    EigenSolverError.

    Eigenvalues below ``eigen_floor * max(gamma)`` are flagged negligible;
    downstream they route to the residual instead of seeding modes.
    """
    K = G.dim
    if M.dim != K or np.asarray(R).shape != (K, K):
        raise ValueError("G, M and R must share one dimension")
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
    Rm = np.asarray(R, dtype=np.float64)
    return EigenBasis(
        gammas=w,
        vectors=V,
        mu=np.maximum(np.einsum("ki,ki->i", V, Rm @ V), 0.0),  # R is PSD
        energy=np.einsum("ki,ki->i", V, G.matrix @ V),
        negligible=w < floor,
        alpha=M.alpha,
    )
