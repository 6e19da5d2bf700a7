"""The decomposition pipeline: eigenvector similarity, greedy clustering and
merging, mode reconstruction, residual extraction, and the plain SVD baseline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embedding import (
    SignalTooShortError,
    TrajectoryMatrix,
    build_trajectory_matrix,
    diagonal_average,  # noqa: F401  re-exported as rmd.modes.diagonal_average
    select_embedding_dimension,
)
from .eigen import (
    EIGEN_FLOOR_DEFAULT,
    EigenBasis,
    augmented,
    diff_operator,
    gram,
    smoothing_matrix,
    solve_generalized,
)
from .signals import TimeSeries, dominant_frequency, periodogram, write_timeseries_csv

SIMILARITY_MEASURES = ("cosine", "pearson", "normalized-euclidean", "spectral")


@dataclass(frozen=True)
class DecompositionConfig:
    """Knobs of one decomposition run.

    n_modes         target number of merged modes (r)
    merge_threshold similarity above which eigenvectors join a cluster;
                    values above 1 disable merging entirely
    alpha           bandwidth regularization weight
    diff_order      1 or 2, the finite-difference penalty order
    similarity      one of cosine | pearson | normalized-euclidean | spectral
    K_override      fixed embedding dimension instead of the spectral heuristic
    shrinkage       apply per-eigenvector gains 1/(1 + alpha*mu) at reconstruction
    eigen_floor     relative eigenvalue floor below which pairs go to the residual
    """

    n_modes: int
    merge_threshold: float = 0.85
    alpha: float = 0.3
    diff_order: int = 1
    similarity: str = "spectral"
    K_override: int | None = None
    shrinkage: bool = False
    eigen_floor: float = EIGEN_FLOOR_DEFAULT

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if not 0.0 < self.merge_threshold <= 1.01:
            raise ValueError("merge_threshold must lie in (0, 1.01]")
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError("alpha must be finite and >= 0")
        if self.diff_order not in (1, 2):
            raise ValueError("diff_order must be 1 or 2")
        if self.similarity not in SIMILARITY_MEASURES:
            raise ValueError(f"unknown similarity measure {self.similarity!r}")
        if self.K_override is not None and self.K_override < 2:
            raise ValueError("K_override must be >= 2")
        if self.eigen_floor < 0:
            raise ValueError("eigen_floor must be >= 0")


@dataclass(frozen=True)
class ModeReport:
    """Per-mode bookkeeping: merged eigenvalue mass, roughness, energy."""

    gamma: float
    mu: float
    energy: float
    members: int
    peak_frequency_hz: float | None


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Ordered reconstructed modes plus the residual.

    The modes are sorted by descending merged eigenvalue mass and, together
    with the residual, sum back to the input to within rounding.
    """

    modes: tuple[TimeSeries, ...]
    residual: TimeSeries
    report: tuple[ModeReport, ...]
    config: DecompositionConfig
    embedding_dim: int
    method: str = "rmd"
    warnings: tuple[str, ...] = field(default=())

    def reconstruct(self) -> TimeSeries:
        total = self.residual.samples.copy()
        for m in self.modes:
            total += m.samples
        return self.residual.with_samples(total)


def _profile(V: np.ndarray, measure: str) -> np.ndarray:
    """What a product measure compares: the raw, centred or |rfft| columns."""
    if measure == "cosine":
        return V
    if measure == "pearson":
        return V - V.mean(axis=0)
    if measure == "spectral":
        return np.abs(np.fft.rfft(V, axis=0))
    raise ValueError(f"unknown similarity measure {measure!r}")


def similarity(
    a: np.ndarray,
    b: np.ndarray,
    measure: str,
    coord_scale: np.ndarray | None = None,
) -> float | np.ndarray:
    """Similarity of vector ``a`` to ``b`` in [0, 1] under the chosen measure.

    ``b`` is one vector of a's length, giving a float, or a matrix whose
    columns are each compared with ``a``, giving one value per column.
    cosine and pearson are reported as absolute values (eigenvector sign is
    meaningless).  normalized-euclidean is the per-coordinate sigma-scaled
    distance mapped through 1/(1+d); ``coord_scale`` supplies the sigmas and
    defaults to the per-coordinate standard deviation of ``a`` and ``b``
    together.  spectral compares DFT magnitude profiles, which makes
    quadrature pairs of the same frequency nearly identical.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim not in (1, 2) or b.shape[0] != a.size:
        raise ValueError("a must be 1-D and b a vector or columns of a's length")
    B = b if b.ndim == 2 else b[:, None]
    if measure == "normalized-euclidean":
        if coord_scale is None:
            coord_scale = np.std(np.column_stack([a, B]), axis=1)
        keep = coord_scale > 0
        # zero-variance coordinates are skipped; none left means identical
        scaled = (B[keep] - a[keep, None]) / coord_scale[keep, None]
        sims = 1.0 / (1.0 + np.sqrt(np.sum(scaled**2, axis=0)))
    else:
        fa, FB = _profile(a, measure), _profile(B, measure)
        with np.errstate(invalid="ignore"):
            sims = np.abs(FB.T @ fa) / (np.linalg.norm(FB, axis=0) * np.linalg.norm(fa))
        if np.isnan(sims).any():
            what = "zero-variance" if measure == "pearson" else "zero-norm"
            raise ValueError(f"{measure} similarity undefined for {what} input")
    return float(sims[0]) if b.ndim == 1 else sims


@dataclass(frozen=True, eq=False)
class MergedMode:
    """A cluster of eigenvectors collapsed to one representative direction."""

    vector: np.ndarray           # eigenvalue-weighted mean, unit norm
    gamma_total: float           # sum of member eigenvalues
    member_indices: tuple[int, ...]  # indices into the sorted eigenbasis


def cluster_and_merge(
    basis: EigenBasis, config: DecompositionConfig
) -> tuple[list[MergedMode], list[np.ndarray]]:
    """Greedy similarity clustering over the descending eigenbasis.

    Each still-unconsumed eigenvector seeds a cluster and absorbs every
    later unconsumed vector whose similarity to the seed exceeds the merge
    threshold; one ``similarity`` call compares the seed with all of them
    (normalized-euclidean scales coordinates by their spread over the whole
    basis).  Members are sign-aligned to the seed and combined by an
    eigenvalue-weighted mean, renormalized to unit norm.  Clustering stops
    after ``n_modes`` clusters or when all vectors are spent; leftovers
    (including the numerically negligible pairs, which never join clusters)
    are returned as the residual set.
    """
    K = len(basis)
    if K == 0:
        raise ValueError("empty eigenbasis")
    V = basis.vectors
    coord_scale = None
    if config.similarity == "normalized-euclidean":
        coord_scale = np.std(V, axis=1)

    consumed = basis.negligible.copy()
    merged: list[MergedMode] = []
    for i in range(K):
        if len(merged) >= config.n_modes:
            break
        if consumed[i]:
            continue
        consumed[i] = True
        others = i + 1 + np.flatnonzero(~consumed[i + 1:])
        sims = similarity(V[:, i], V[:, others], config.similarity, coord_scale)
        joined = others[sims > config.merge_threshold]
        consumed[joined] = True
        members = [i, *joined.tolist()]

        W = V[:, members]
        W = W * np.where(W.T @ W[:, 0] < 0, -1.0, 1.0)
        gammas = basis.gammas[members]
        total = float(sum(gammas))
        # all-zero eigenvalues (possible with eigen_floor=0): equal weights
        vec = W @ gammas / total if total > 0 else W.mean(axis=1)
        vec = vec / np.linalg.norm(vec)
        merged.append(
            MergedMode(vector=vec, gamma_total=total, member_indices=tuple(members))
        )
    leftovers = [V[:, i] for i in range(K) if not consumed[i]]
    leftovers += [V[:, i] for i in np.flatnonzero(basis.negligible)]
    return merged, leftovers


def _anti_diagonal_average(X: TrajectoryMatrix, V: np.ndarray, gains=1.0) -> np.ndarray:
    """Diagonal average of ``sum_m gains[m] * X v_m v_m^T`` over the columns of V.

    Anti-diagonal k of the rank-1 matrix u v^T sums u[i] * v[k - i], which is
    sample k of the full convolution u * v; dividing by the anti-diagonal
    counts finishes the average without forming any L x K matrix.
    """
    U = (X.data @ V) * gains
    sums = np.zeros(X.n_samples)
    for m in range(V.shape[1]):
        sums += np.convolve(U[:, m], V[:, m])
    n = X.n_samples
    k = np.arange(n)
    counts = np.minimum(np.minimum(k + 1, n - k), min(X.n_windows, X.embedding_dim))
    return sums / counts


def reconstruct_mode(
    X: TrajectoryMatrix, v: np.ndarray, g: float = 1.0, sample_rate: float = 1.0
) -> TimeSeries:
    """Diagonal-average the rank-1 projection ``g * X v v^T`` back to a series.

    ``g`` is 1 unless shrinkage is on, in which case it is the eigenvector's
    gain 1/(1 + alpha*mu).  The trajectory matrix does not know its sample
    rate, so pass one if the result should carry it.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (X.embedding_dim,):
        raise ValueError("eigenvector length must equal the embedding dimension")
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("eigenvector must have unit Euclidean norm")
    if not 0.0 < g <= 1.0:
        raise ValueError("shrinkage weight must lie in (0, 1]")
    return TimeSeries(_anti_diagonal_average(X, v[:, None], g), sample_rate)


def rmd_decompose(x: TimeSeries, config: DecompositionConfig) -> ModeSet:
    """Run the full bandwidth-regularized decomposition pipeline.

    Embedding -> Gram matrix -> regularized generalized eigensolve ->
    similarity clustering -> per-cluster reconstruction -> residual.  Each
    cluster is the diagonal average of its members' rank-1 projections
    X v v^T (the additive form the shrinkage gains are defined for); the
    merged mean vector stays the cluster's reported representative.  The
    residual is the input minus the modes, so modes + residual reproduce
    the input.
    """
    n = len(x)
    if n < 12:
        raise SignalTooShortError(f"need at least 12 samples to decompose, got {n}")
    if config.K_override is not None:
        K = config.K_override
        if not 2 <= K <= n - 1:
            raise ValueError(f"K_override={K} out of range for N={n}")
    else:
        K = select_embedding_dimension(x)

    X = build_trajectory_matrix(x, K)
    G = gram(X)
    D = diff_operator(config.diff_order, K)
    R = smoothing_matrix(D)
    M = augmented(R, config.alpha)
    basis = solve_generalized(G, M, R, eigen_floor=config.eigen_floor)

    clusters, _ = cluster_and_merge(basis, config)

    gains = 1.0 / (1.0 + basis.alpha * basis.mu) if config.shrinkage else np.ones(K)
    entries = []
    for c in clusters:
        idx = list(c.member_indices)
        series = x.with_samples(_anti_diagonal_average(X, basis.vectors[:, idx], gains[idx]))
        mu = max(float(c.vector @ R @ c.vector), 0.0)
        energy = float(c.vector @ G.matrix @ c.vector)
        peak = dominant_frequency(periodogram(series)) if np.any(series.samples) else None
        entries.append((c.gamma_total, series, ModeReport(
            gamma=c.gamma_total,
            mu=mu,
            energy=energy,
            members=len(c.member_indices),
            peak_frequency_hz=peak,
        )))

    entries.sort(key=lambda e: -e[0])
    modes = tuple(e[1] for e in entries)
    report = tuple(e[2] for e in entries)
    residual = x.with_samples(x.samples - sum(m.samples for m in modes))

    warnings = ()
    if len(modes) < config.n_modes:
        warnings = (
            f"requested {config.n_modes} modes but only {len(modes)} "
            f"cluster(s) were available",
        )

    _verify_completeness(x, modes, residual)
    _verify_variance_ratio(report, config.alpha)
    return ModeSet(
        modes=modes,
        residual=residual,
        report=report,
        config=config,
        embedding_dim=K,
        method="rmd",
        warnings=warnings,
    )


def _verify_completeness(x: TimeSeries, modes, residual, rel_tol: float = 1e-9) -> None:
    # The residual is x - sum(modes), so this holds by construction up to the
    # rounding of that sum; it cannot catch a wrongly reconstructed mode (the
    # outer-product oracles in tests/test_modes.py do that).
    total = residual.samples.copy()
    for m in modes:
        total += m.samples
    scale = float(np.abs(x.samples).max())
    err = float(np.abs(total - x.samples).max())
    if err > rel_tol * max(scale, 1e-300):
        raise AssertionError(
            f"mode completeness violated: |sum(modes)+residual - x| = {err:.3e}"
        )


def _verify_variance_ratio(report, alpha: float) -> None:
    # mean of 1/(1+alpha*mu)^2 over modes can never exceed 1 for mu >= 0
    if not report:
        return
    # square the gain, not the denominator: 1 + alpha*mu may be near overflow
    ratio = float(np.mean([(1.0 / (1.0 + alpha * e.mu)) ** 2 for e in report]))
    if ratio > 1.0 + 1e-12:
        raise AssertionError(f"variance-ratio bound violated: {ratio}")


def ssa_decompose(x: TimeSeries, K: int, r: int) -> ModeSet:
    """Plain SVD trajectory-matrix baseline (the alpha = 0 special case).

    Component i is the diagonal average of ``sigma_i u_i v_i^T = X v_i v_i^T``,
    reconstructed like an RMD mode; the top r components are returned
    together with the residual of everything else.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    X = build_trajectory_matrix(x, K)
    _, s, Vt = np.linalg.svd(X.data, full_matrices=False)
    warnings = ()
    if r > s.size:
        warnings = (f"requested {r} components but rank is at most {s.size}",)
        r = s.size

    modes = []
    report = []
    for i in range(r):
        v = Vt[i]
        series = x.with_samples(_anti_diagonal_average(X, v[:, None]))
        mu = float(np.sum(np.diff(v) ** 2))
        peak = dominant_frequency(periodogram(series)) if np.any(series.samples) else None
        modes.append(series)
        report.append(ModeReport(
            gamma=float(s[i] ** 2),
            mu=mu,
            energy=float(s[i] ** 2),
            members=1,
            peak_frequency_hz=peak,
        ))
    residual = x.with_samples(x.samples - sum(m.samples for m in modes))
    config = DecompositionConfig(
        n_modes=r, merge_threshold=1.01, alpha=0.0, diff_order=1,
        similarity="cosine", K_override=K,
    )
    modeset = ModeSet(
        modes=tuple(modes),
        residual=residual,
        report=tuple(report),
        config=config,
        embedding_dim=K,
        method="ssa",
        warnings=warnings,
    )
    _verify_completeness(x, modeset.modes, modeset.residual)
    return modeset


# ---------------------------------------------------------------------------
# serialization: one JSON report plus one CSV per mode and residual


def write_modeset(ms: ModeSet, out_dir: str | Path) -> Path:
    """Write ``mode_01.csv`` .. ``residual.csv`` and ``decomposition.json``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, mode in enumerate(ms.modes, start=1):
        write_timeseries_csv(mode, out / f"mode_{i:02d}.csv")
    write_timeseries_csv(ms.residual, out / "residual.csv")

    cfg = ms.config
    doc = {
        "method": ms.method,
        "sample_rate_hz": ms.residual.sample_rate,
        "n_samples": len(ms.residual),
        "embedding_dim": ms.embedding_dim,
        "config": {
            "n_modes": cfg.n_modes,
            "merge_threshold": cfg.merge_threshold,
            "alpha": cfg.alpha,
            "diff_order": cfg.diff_order,
            "similarity": cfg.similarity,
            "K_override": cfg.K_override,
            "shrinkage": cfg.shrinkage,
            "eigen_floor": cfg.eigen_floor,
        },
        "modes": [
            {
                "file": f"mode_{i:02d}.csv",
                "gamma": e.gamma,
                "mu": e.mu,
                "energy": e.energy,
                "members": e.members,
                "peak_frequency_hz": e.peak_frequency_hz,
            }
            for i, e in enumerate(ms.report, start=1)
        ],
        "residual_file": "residual.csv",
        "warnings": list(ms.warnings),
    }
    path = out / "decomposition.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path
