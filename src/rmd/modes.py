"""The decomposition pipeline: eigenvector similarity, greedy clustering and
merging, mode reconstruction, residual extraction, and the plain SVD baseline.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .embedding import (
    MIN_SAMPLES,
    SignalTooShortError,
    build_trajectory_matrix,
    diagonal_average,
    select_embedding_dimension,
)
from .eigen import (  # noqa: F401  the band builders are re-exported as rmd.modes.*
    EigenBasis,
    NumericalError,
    augmented,
    diff_operator,
    gram,
    smoothing_matrix,
    solve_generalized,
)
from .signals import periodogram  # noqa: F401  re-exported as rmd.modes.periodogram
from .signals import TimeSeries, checked, periodogram_power, row_peaks, unit_scaled
from .signals import write_text, write_timeseries_csv

SIMILARITY_MEASURES = ("cosine", "pearson", "normalized-euclidean", "spectral")

# rmd_decompose solves for the top PAIRS_PER_MODE * n_modes eigenpairs only.
# Clusters draw from the leading pairs: on the bundled specs no full-basis
# cluster had a member past index 41 of 64 (n_modes=8) or 16 of 32 (n_modes=4).
PAIRS_PER_MODE = 8


@dataclass(frozen=True)
class DecompositionConfig:
    """Knobs of one decomposition run.

    n_modes         target number of merged modes (r)
    merge_threshold similarity above which eigenvectors join a cluster;
                    values above 1 disable merging entirely
    alpha           bandwidth regularization weight
    diff_order      1 or 2, the finite-difference penalty order
    similarity      one of cosine | pearson | normalized-euclidean | spectral
    K_override      fixed embedding dimension, >= diff_order + 1, instead of the heuristic
    shrinkage       apply per-eigenvector gains 1/(1 + alpha*mu) at reconstruction
    """

    n_modes: int
    merge_threshold: float = 0.85
    alpha: float = 0.3
    diff_order: int = 1
    similarity: str = "spectral"
    K_override: int | None = None
    shrinkage: bool = False

    def __post_init__(self):
        if checked("n_modes", self.n_modes, "integer") < 1:
            raise ValueError("n_modes must be >= 1")
        if not 0.0 < checked("merge_threshold", self.merge_threshold, "number") <= 1.01:
            raise ValueError("merge_threshold must lie in (0, 1.01]")
        if not math.isfinite(checked("alpha", self.alpha, "number")) or self.alpha < 0:
            raise ValueError("alpha must be finite and >= 0")
        if checked("diff_order", self.diff_order, "integer") not in (1, 2):
            raise ValueError("diff_order must be 1 or 2")
        if self.similarity not in SIMILARITY_MEASURES:
            raise ValueError(f"unknown similarity measure {self.similarity!r}")
        checked("shrinkage", self.shrinkage, "flag")
        k = self.K_override
        if k is not None and checked("K_override", k, "integer") < self.diff_order + 1:
            raise ValueError(f"K_override must be >= {self.diff_order + 1} "
                             f"for diff_order {self.diff_order}")


@dataclass(frozen=True)
class ModeReport:
    """Per-mode statistics of the member eigenpairs: their gamma sum, gamma-weighted
    mean mu, energy sum v^T G v = gamma (1 + alpha mu) (>= gamma, equal at alpha = 0)
    and count, the mode's peak, and the members' ranks in the descending basis
    (``member_indices``, in memory only: ``write_modeset`` writes the count)."""

    gamma: float
    mu: float
    energy: float
    members: int
    peak_frequency_hz: float | None
    member_indices: tuple[int, ...] = ()


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


def similarity(V: np.ndarray, measure: str) -> np.ndarray:
    """Similarities in [0, 1] of every pair of V's columns, as an (m, m) matrix.

    cosine, pearson and spectral are the absolute cosine (eigenvector sign is
    meaningless) of the raw, centred or DFT-magnitude columns; spectral makes
    quadrature pairs of the same frequency nearly identical.  A zero-norm
    profile, such as a constant vector's pearson one, is similar to nothing
    (0).  normalized-euclidean maps the distance d between columns through
    1/(1+d), each coordinate scaled by its standard deviation over the columns
    (zero-variance coordinates are skipped; none left means identical).
    """
    if measure == "normalized-euclidean":
        scale = np.std(V, axis=1)
        keep = scale > 0
        W = V[keep] / scale[keep, None]
        sq = np.einsum("ij,ij->j", W, W)
        # |w_i - w_j|^2 by the Gram identity, clipped at the rounding below 0
        d2 = np.maximum(sq[:, None] + sq - 2.0 * (W.T @ W), 0.0)
        return 1.0 / (1.0 + np.sqrt(d2))
    if measure == "cosine":
        P = V
    elif measure == "pearson":
        P = V - V.mean(axis=0)
    else:  # spectral
        P = np.abs(np.fft.rfft(V, axis=0))
    norms = np.linalg.norm(P, axis=0)
    with np.errstate(invalid="ignore"):
        S = np.abs(P.T @ P) / np.outer(norms, norms)
    S[np.isnan(S)] = 0.0  # 0 / 0: a zero-norm profile
    return S


def cluster_and_merge(
    basis: EigenBasis, config: DecompositionConfig
) -> tuple[list[ModeReport], list[np.ndarray]]:
    """Greedy similarity clustering over the descending eigenbasis.

    Each still-unconsumed eigenvector seeds a cluster and absorbs every
    later unconsumed vector whose similarity to the seed exceeds the merge
    threshold; one ``similarity`` call per basis gives every pair's value
    (normalized-euclidean scales coordinates by their spread over the basis's
    columns, only the top m pairs when the solve was truncated).  A cluster's
    statistics are sums and gamma-weighted means over its members, so no basis
    the solver picks inside a near-degenerate pair moves them; each cluster is a
    ``ModeReport`` on the basis's scale, members listed from the seed, no peak yet.
    Clustering stops after ``n_modes`` clusters or when all vectors are spent;
    leftovers (including the numerically negligible pairs, which never join
    clusters) are returned as the residual set.
    """
    m = len(basis)
    V = basis.vectors
    S = similarity(V, config.similarity)

    consumed = basis.negligible.copy()
    merged: list[ModeReport] = []
    for i in range(m):
        if len(merged) >= config.n_modes:
            break
        if consumed[i]:
            continue
        consumed[i] = True
        others = i + 1 + np.flatnonzero(~consumed[i + 1:])
        joined = others[S[i, others] > config.merge_threshold]
        consumed[joined] = True
        members = [i, *joined.tolist()]

        gammas, mus = basis.gammas[members], basis.mu[members]
        total = float(sum(gammas))
        # zero gammas pass the floor when EIGEN_FLOOR * gmax underflows: equal weights
        weights = gammas / total if total > 0 else np.full(len(members), 1 / len(members))
        merged.append(ModeReport(gamma=total, mu=float(weights @ mus),
                                 energy=float(sum(gammas * (1.0 + config.alpha * mus))),
                                 members=len(members), peak_frequency_hz=None,
                                 member_indices=tuple(members)))
    leftovers = [V[:, i] for i in range(m) if not consumed[i]]
    leftovers += [V[:, i] for i in np.flatnonzero(basis.negligible)]
    return merged, leftovers


def _modes_from_basis(x: TimeSeries, xs: TimeSeries, shift: int, X: np.ndarray,
                      basis: EigenBasis, config: DecompositionConfig, method: str) -> ModeSet:
    """The ``ModeSet`` of x from ``basis``, an eigenbasis of X, the trajectory matrix
    of xs = x / 2**shift, as ``rmd_decompose`` and ``ssa_decompose`` both build it:
    clusters, modes by descending gamma, and a warning for fewer than n_modes.

    The residual xs - sum(modes) is taken on xs, where nothing overflows, and the
    peaks are read there from one periodogram of the stacked modes.  Samples then
    scale back by 2**shift, gamma and energy by 4**shift; power-of-two scaling is
    exact, so the decomposition is scale-equivariant, except that scaling down
    (shift <= 0) rounds samples below 2**-1022: there the residual is taken as x
    minus the scaled-back modes, so that they still sum back to x.  A gamma or
    energy past the float64 range reads inf; a sample past it raises NumericalError.
    """
    clusters, _ = cluster_and_merge(basis, config)
    with np.errstate(over="ignore"):  # alpha * mu past the float64 range: gain 0
        gains = (1.0 / (1.0 + config.alpha * basis.mu) if config.shrinkage
                 else np.ones(len(basis)))
    parts = diagonal_average(X, basis.vectors, gains, [list(c.member_indices) for c in clusters])
    order = sorted(range(len(clusters)), key=lambda i: -clusters[i].gamma)
    parts, clusters = parts[order], [clusters[i] for i in order]
    residual = xs.samples - sum(parts)
    freqs = np.fft.rfftfreq(len(x), d=1.0 / x.sample_rate)
    # a mode whose 0 Hz bin is its strongest reports a 0.0 Hz peak
    peaks = row_peaks(periodogram_power(parts), freqs, dc=True)
    with np.errstate(over="ignore"):
        scaled = np.ldexp([[c.gamma, c.energy] for c in clusters], 2 * shift).tolist()
        out = np.ldexp(np.vstack([*parts, residual]), shift)
    report = tuple(replace(c, gamma=g, energy=e, peak_frequency_hz=p)
                   for c, (g, e), p in zip(clusters, scaled, peaks))
    if shift <= 0:
        out[-1] = x.samples - sum(out[:-1])
    if not np.isfinite(out).all():
        raise NumericalError("a mode or the residual exceeds the float64 range")
    warnings = () if len(report) >= config.n_modes else (
        f"requested {config.n_modes} modes but only {len(report)} cluster(s) were available",)
    return ModeSet(modes=tuple(x.with_samples(m) for m in out[:-1]),
                   residual=x.with_samples(out[-1]), report=report, config=config,
                   embedding_dim=X.shape[1], method=method, warnings=warnings)


def rmd_decompose(x: TimeSeries, config: DecompositionConfig) -> ModeSet:
    """Run the full bandwidth-regularized decomposition pipeline.

    Embedding -> Gram matrix -> regularized generalized eigensolve for the
    top min(K, 8 n_modes) pairs -> similarity clustering -> per-cluster
    reconstruction -> residual.  Pairs past the top m are never computed,
    so they join no cluster and stay in the residual.  Each
    cluster is the diagonal average of its members' rank-1 projections
    X v v^T (the additive form the shrinkage gains are defined for), and its
    ``ModeReport`` holds its members' statistics.  The residual is the input
    minus the modes, so modes + residual reproduce the input.

    The pipeline runs on x / 2**s, with max|x| / 2**s in [0.5, 1), and
    ``_modes_from_basis`` returns its results to the scale of x exactly.  Before any
    work, N < ``MIN_SAMPLES`` (12) raises SignalTooShortError and a ``K_override`` above N - 1
    ValueError; any later failure is a NumericalError.
    """
    n = len(x)
    if n < MIN_SAMPLES:
        raise SignalTooShortError(f"need at least {MIN_SAMPLES} samples to decompose, got {n}")
    samples, shift = unit_scaled(x.samples)
    xs = x.with_samples(samples)
    K = config.K_override if config.K_override is not None else select_embedding_dimension(xs)[0]
    X = build_trajectory_matrix(xs, K)  # the one check on the caller's K: K <= N - 1
    basis = solve_generalized(gram(X), config.alpha, config.diff_order,
                              n_pairs=PAIRS_PER_MODE * config.n_modes)
    return _modes_from_basis(x, xs, shift, X, basis, config, "rmd")


def ssa_decompose(x: TimeSeries, K: int, r: int) -> ModeSet:
    """Plain SVD trajectory-matrix baseline (the alpha = 0 special case).

    Component i is the diagonal average of ``sigma_i u_i v_i^T = X v_i v_i^T``,
    reconstructed like an RMD mode; the top r components are returned
    together with the residual of everything else.  Like ``rmd_decompose``
    it runs on x / 2**s and scales the results back exactly.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    samples, shift = unit_scaled(x.samples)
    xs = x.with_samples(samples)
    X = build_trajectory_matrix(xs, K)
    _, s, Vt = np.linalg.svd(X, full_matrices=False)
    Vt = Vt[:r]  # the top r pairs, all of them past the rank; theta 1.01: one cluster each
    basis = EigenBasis(gammas=s[:r] ** 2, vectors=Vt.T, mu=np.sum(np.diff(Vt, axis=1) ** 2, axis=1),
                       negligible=np.zeros(len(Vt), dtype=bool))
    config = DecompositionConfig(n_modes=r, merge_threshold=1.01, alpha=0.0, diff_order=1,
                                 similarity="cosine", K_override=K)
    return _modes_from_basis(x, xs, shift, X, basis, config, "ssa")


# ---------------------------------------------------------------------------
# serialization: one JSON report plus one CSV per mode and residual


def _json_number(v: float) -> float | None:
    # strict JSON has no Infinity; a gamma or energy past the float64 range is null
    return v if math.isfinite(v) else None


def write_modeset(ms: ModeSet, out_dir: str | Path) -> Path:
    """Write ``mode_01.csv`` .. ``residual.csv`` and ``decomposition.json``."""
    out = Path(out_dir)
    for i, mode in enumerate(ms.modes, start=1):
        write_timeseries_csv(mode, out / f"mode_{i:02d}.csv")
    write_timeseries_csv(ms.residual, out / "residual.csv")

    doc = {
        "method": ms.method,
        "sample_rate_hz": ms.residual.sample_rate,
        "n_samples": len(ms.residual),
        "embedding_dim": ms.embedding_dim,
        "config": asdict(ms.config),
        "modes": [
            {
                "file": f"mode_{i:02d}.csv",
                "gamma": _json_number(e.gamma),
                "mu": e.mu,
                "energy": _json_number(e.energy),
                "members": e.members,
                "peak_frequency_hz": e.peak_frequency_hz,
            }
            for i, e in enumerate(ms.report, start=1)
        ],
        "residual_file": "residual.csv",
        "warnings": list(ms.warnings),
    }
    path = out / "decomposition.json"
    write_text(path, json.dumps(doc, indent=2) + "\n")
    return path
