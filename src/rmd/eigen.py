"""Regularized spectral core.

The decomposition rests on the symmetric-definite generalized eigenproblem
``G v = gamma (I + alpha R) v`` where G is the trajectory Gram matrix and
R = D^T D penalizes rough eigenvectors through a finite-difference stencil D.
No K x K copy of D, R or M = I + alpha R is formed: D is built in diagonal
storage and R and M, which are banded, in LAPACK band storage.  M is factored
in its band (M = U^T U, LAPACK dpbtrf) and the problem reduced to the standard
one C y = gamma y, C = U^-T G U^-1, by blocks of 16 rows: the inverse of each
diagonal block of U^T, from one small banded triangular solve (dtbtrs), takes
that block in one matrix product (numpy.matmul, BLAS level 3).  G, U^-T G and
the lower trapezoid of C, built in the Fortran order the eigensolvers read,
are the only K x K arrays.  One symmetric eigensolve returns the top m
eigenpairs, held as arrays: ``rmd_decompose`` asks for m = min(K, 8 n_modes),
since clustering reads only the leading pairs.  LAPACK dsyevr computes just
those m when 8 m <= K; otherwise syevd, called through numpy.linalg.eigh,
computes all K and the top m are kept.  Either driver's tridiagonalization is
the only O(K^3) step; G, the reduction and each ||D v||^2 cost O(K^2) or O(K m).

dpbtrf, dtbtrs and dsyevr are called through scipy's f2py wrappers in
scipy.linalg._flapack, the module behind scipy.linalg.lapack.  It is loaded
without scipy.linalg's costly package init, and a later ``import scipy.linalg``
reuses it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass

import numpy as np

from .embedding import hankel_series


class NumericalError(ArithmeticError):
    """A decomposition met numbers it cannot use, or its solver or a check failed."""


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

    def __len__(self) -> int:
        return self.gammas.size


def gram(X: np.ndarray) -> np.ndarray:
    """X^T X of an L x K Hankel matrix by the lag recurrence: O(K^2) after one
    O(LK) first row.

    Row i of X is x[i : i + K], so G[i+1, j+1] = G[i, j] + x[L+i] x[L+j] - x[i] x[j]
    (Korobeynikov, arXiv:0911.4498).  Row 0 is the correlation of x with x[:L];
    each later row is written whole from the one above, its first entry taken
    from row 0, so G is exactly symmetric.  The result is read-only.
    ``rmd_decompose`` passes unit-scaled samples (max|x| < 1): no entry exceeds L.
    """
    L, K = X.shape
    x = hankel_series(X)
    g = np.empty((K, K))
    g[0] = np.correlate(x, x[:L], "valid")
    g[1:, 0] = g[0, 1:]
    for s in range(1, K, 64):  # the updates of 64 rows at a time, then one add per row
        e = min(K, s + 64)
        delta = np.multiply.outer(x[L + s - 1:L + e - 1], x[L:L + K - 1])
        delta -= np.multiply.outer(x[s - 1:e - 1], x[:K - 1])
        for i in range(s, e):
            np.add(g[i - 1, :-1], delta[i - s], out=g[i, 1:])
    g.setflags(write=False)
    return g


def diff_operator(order: int, K: int) -> np.ndarray:
    """The (K - order) x K stencil D in diagonal storage: row p of the read-only
    (order + 1) x (K - order) result holds D[i, i + p].  D's rows are [-1, 1]
    (order 1) or [1, -2, 1] (order 2) shifts, so they annihilate constants.
    K >= order + 1, as ``DecompositionConfig`` and the K heuristic ensure."""
    D = np.repeat(np.diff(np.eye(order + 1), n=order, axis=0).T, K - order, axis=1)
    D.setflags(write=False)
    return D


def smoothing_matrix(D: np.ndarray) -> np.ndarray:
    """R = D^T D in LAPACK upper band storage (R[j - d, j] at [order - d, j]).

    R[i, i + d] sums the stencil products D[p] D[p + d] over the rows i - p
    of D: order 1 gives [1, 2, ..., 2, 1] and -1, order 2 [1, 5, 6, ..., 6, 5, 1],
    [-2, -4, ..., -4, -2] and 1.  The entries are small integers, so exact.
    """
    k, rows = D.shape[0] - 1, D.shape[1]
    R = np.zeros((k + 1, rows + k))
    for d in range(k + 1):
        for p in range(k + 1 - d):
            R[k - d, d + p:d + p + rows] += D[p] * D[p + d]
    return R


def augmented(R: np.ndarray, alpha: float) -> np.ndarray:
    """The read-only M = I + alpha * R in upper band storage, from R's band;
    alpha >= 0, so alpha = 0 yields the identity exactly and M's eigenvalues are >= 1.  No
    entry of R exceeds 4**order, so alpha * 4**order overflowing raises
    NumericalError."""
    if not math.isfinite(alpha * 4.0 ** (R.shape[0] - 1)):
        raise NumericalError(f"M = I + alpha R overflows for alpha={alpha:.3g}")
    M = alpha * R
    M[-1] += 1.0
    M.setflags(write=False)
    return M


# pairs whose gamma falls below this share of the largest are negligible
EIGEN_FLOOR = 1e-12


def _lapack_module():
    """scipy.linalg._flapack from ``sys.modules``, or loaded and put there under its name."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        # scipy.linalg's directory, found without running its package init
        linalg = importlib.util.find_spec("scipy.linalg").submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(name, linalg)
        if spec is None:  # finding scipy.linalg imported scipy
            version = sys.modules["scipy"].__version__
            raise ImportError(f"rmd needs {name}, which scipy {version} lacks", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


_LAPACK = _lapack_module()


def _lapack(routine: str, failure: str, *args, **options) -> list:
    """``_LAPACK.routine(*args, **options)`` but its trailing info; an info other
    than 0 raises NumericalError, its message led by ``failure``."""
    *results, info = getattr(_LAPACK, routine)(*args, **options)
    if info != 0:
        raise NumericalError(f"{failure} failed: LAPACK {routine} info {info}")
    return results


def _band_cholesky(band: np.ndarray) -> np.ndarray:
    """U with M = U^T U, in upper band storage, for M in upper band storage."""
    (U,) = _lapack("dpbtrf", "generalized eigensolver", band)
    return U


def _band_solve(U: np.ndarray, B: np.ndarray, trans: str = "N") -> np.ndarray:
    """U^-1 B (``trans="N"``) or U^-T B (``"T"``) for U as ``_band_cholesky``
    returns it; B is not written."""
    (X,) = _lapack("dtbtrs", "banded triangular solve", U, B, trans=trans)
    return X


# rows per block of the reduction: each block's triangle is inverted whole
_BLOCK = 16


def _reduce(G: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The lower trapezoid of C = U^-T G U^-1, Fortran-ordered, for G symmetric and
    U as ``_band_cholesky`` returns it; C's entries above the diagonal blocks are 0.

    The rows are split into blocks [s, e) of ``_BLOCK``, and T_s, the inverse of
    U^T[s:e, s:e], comes from one small ``_band_solve`` on U's column slice, which
    is that diagonal block in band storage.  U^T is lower triangular with ``order``
    subdiagonals, so block s of X = U^-T B is T_s (B[s:e] - coupling), the
    coupling reaching only the block's first ``order`` rows: row s + r less
    U[s - k + c, s + r] X[s - k + c] for c >= r, k = order.  Y = U^-T G is solved
    whole, then C^T = U^-T Y^T on the columns s: of each block of rows, the lower
    trapezoid the eigensolvers read; each block is one matrix product.  A C that
    is not finite there raises NumericalError.
    """
    K, k = G.shape[0], U.shape[0] - 1
    blocks = [(s, min(K, s + _BLOCK)) for s in range(0, K, _BLOCK)]
    inverses = [_band_solve(U[:, s:e], np.eye(e - s), "T") for s, e in blocks]

    def solve(B: np.ndarray, trapezoid: bool) -> np.ndarray:
        X = np.zeros((K, K))
        for (s, e), T in zip(blocks, inverses):
            lo = s if trapezoid else 0
            rows = B[s:e, lo:]
            if s:
                rows = rows.copy()
                for r in range(min(k, e - s)):
                    rows[r] -= U[:k - r, s + r] @ X[s - k + r:s, lo:]
            np.matmul(T, rows, out=X[s:e, lo:])
        return X

    with np.errstate(invalid="ignore", over="ignore"):  # the check below reports them
        Ct = solve(solve(G, False).T, True)
    if not np.isfinite(Ct).all():
        raise NumericalError("generalized eigensolver failed: the reduced matrix is not finite")
    return Ct.T


def _syevr(C: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``top`` largest eigenvalues, ascending, and their eigenvectors of the
    symmetric K x K C by dsyevr on its lower triangle, with the workspace sized as
    ``scipy.linalg.eigh`` sizes it.  A Fortran-ordered C is overwritten."""
    K = C.shape[0]
    work, iwork = _lapack("dsyevr_lwork", "generalized eigensolver", K, lower=1)
    w, Y, m, _ = _lapack("dsyevr", "generalized eigensolver", C, range="I", lower=1,
                         il=K - top + 1, iu=K, lwork=int(work), liwork=iwork, overwrite_a=1)
    return w[:m], Y[:, :m]


def solve_generalized(
    G: np.ndarray,
    alpha: float,
    order: int,
    n_pairs: int | None = None,
) -> EigenBasis:
    """Solve ``G v = gamma M v``, M = I + alpha D^T D with D the order-``order``
    stencil, for the top ``n_pairs`` eigenpairs (all K if None).  G is the
    symmetric K x K Gram matrix, as ``gram`` returns it.

    M is built in its band, and its band Cholesky factor, M = U^T U, reduces
    the problem to the symmetric C = U^-T G U^-1, and v = U^-1 y (Golub & Van
    Loan, Matrix Computations, 8.7).  ``_reduce`` forms the lower triangle of
    C from the inverses of U's 16 x 16 diagonal blocks in two passes of
    matrix products, O(16 K^2); G, U^-T G and C are the only K x K arrays.
    With m = min(K, n_pairs), C y = gamma y is solved for its m
    largest pairs by LAPACK dsyevr when 8 m <= K and otherwise by syevd through
    ``numpy.linalg.eigh``, keeping the top m of its K pairs; both return the
    same pairs, and the cheaper driver is picked.  Each vector is rescaled to
    unit Euclidean norm (reconstruction assumes v^T v = 1); columns come back
    sorted by descending gamma, ties kept in solver order.  A factorization or
    convergence failure, or a non-finite C, raises NumericalError.  Each
    roughness mu = ||D v||^2 is taken by differencing v, in O(K m).

    Eigenvalues below ``EIGEN_FLOOR * max(gamma)`` are flagged negligible;
    downstream they route to the residual instead of seeding modes.
    """
    K = G.shape[0]
    top = K if n_pairs is None else min(K, n_pairs)
    U = _band_cholesky(augmented(smoothing_matrix(diff_operator(order, K)), alpha))
    C = _reduce(G, U)
    try:
        # syevr pays per pair computed; below K/8 pairs it beats syevd's full solve;
        # both read C's lower triangle only
        w, Y = _syevr(C, top) if 8 * top <= K else np.linalg.eigh(C)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"generalized eigensolver failed: {exc}") from exc
    idx = np.argsort(-w, kind="stable")[:top]
    w = w[idx]
    V = _band_solve(U, Y[:, idx])
    V /= np.linalg.norm(V, axis=0, keepdims=True)

    gmax = float(w[0])
    floor = EIGEN_FLOOR * gmax if gmax > 0 else math.inf
    return EigenBasis(
        gammas=w,
        vectors=V,
        mu=np.sum(np.diff(V, n=order, axis=0) ** 2, axis=0),
        negligible=w < floor,
    )
