"""Bandwidth-regularized trajectory-matrix mode decomposition.

Decomposes a noisy 1-D signal into narrowband oscillatory modes by solving
a roughness-penalized generalized eigenproblem on the Hankel trajectory
Gram matrix, then clustering and merging the eigenvectors before
reconstruction.  The plain SVD baseline (``ssa_decompose``) is the
unregularized special case.
"""

from .bench import (
    CellResult,
    ComponentScore,
    ExperimentReport,
    ExperimentSpec,
    RunConfig,
    load_signal_csv,
    run_experiment,
    run_file_experiment,
    run_nonlinear_experiment,
    run_sine_snr_experiment,
    write_report,
)
from .embedding import (
    SignalTooShortError,
    TrajectoryMatrix,
    build_trajectory_matrix,
    diagonal_average,
    select_embedding_dimension,
)
from .eigen import (
    AugmentedMatrix,
    DifferenceOperator,
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
from .modes import (
    DecompositionConfig,
    MergedMode,
    ModeReport,
    ModeSet,
    cluster_and_merge,
    reconstruct_mode,
    rmd_decompose,
    similarity,
    ssa_decompose,
    write_modeset,
)
from .signals import (
    CsvFormatError,
    ModeMetrics,
    SineComponent,
    Spectrum,
    TimeSeries,
    add_noise_at_snr,
    dominant_frequency,
    gen_am_mixture,
    gen_sinusoid_mixture,
    periodogram,
    read_timeseries_csv,
    score_mode,
    write_timeseries_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedMatrix",
    "CellResult",
    "ComponentScore",
    "CsvFormatError",
    "DecompositionConfig",
    "DifferenceOperator",
    "EigenBasis",
    "EigenSolverError",
    "ExperimentReport",
    "ExperimentSpec",
    "GramMatrix",
    "MergedMode",
    "ModeMetrics",
    "ModeReport",
    "ModeSet",
    "NumericalError",
    "RunConfig",
    "SignalTooShortError",
    "SineComponent",
    "Spectrum",
    "TimeSeries",
    "TrajectoryMatrix",
    "add_noise_at_snr",
    "augmented",
    "build_trajectory_matrix",
    "cluster_and_merge",
    "diagonal_average",
    "diff_operator",
    "dominant_frequency",
    "gen_am_mixture",
    "gen_sinusoid_mixture",
    "gram",
    "load_signal_csv",
    "periodogram",
    "read_timeseries_csv",
    "reconstruct_mode",
    "rmd_decompose",
    "run_experiment",
    "run_file_experiment",
    "run_nonlinear_experiment",
    "run_sine_snr_experiment",
    "score_mode",
    "select_embedding_dimension",
    "similarity",
    "smoothing_matrix",
    "solve_generalized",
    "ssa_decompose",
    "write_modeset",
    "write_report",
    "write_timeseries_csv",
]
