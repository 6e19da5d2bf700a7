"""Bandwidth-regularized trajectory-matrix mode decomposition.

Decomposes a noisy 1-D signal into narrowband oscillatory modes by solving
a roughness-penalized generalized eigenproblem on the Hankel trajectory
Gram matrix, then clustering and merging the eigenvectors before
reconstruction.  The plain SVD baseline (``ssa_decompose``) is the
unregularized special case.

``__all__`` is the public API; the submodules' other names may change.
"""

from .bench import ExperimentReport, ExperimentSpec, run_experiment, write_report
from .eigen import NumericalError
from .embedding import SignalTooShortError
from .modes import (
    DecompositionConfig,
    ModeReport,
    ModeSet,
    rmd_decompose,
    ssa_decompose,
    write_modeset,
)
from .signals import (
    CsvFormatError,
    SineComponent,
    TimeSeries,
    add_noise_at_snr,
    gen_am_mixture,
    gen_sinusoid_mixture,
    periodogram,
    read_timeseries_csv,
    score_mode,
    write_timeseries_csv,
)

__version__ = "0.1.0"

__all__ = [
    # decomposition
    "DecompositionConfig",
    "ModeReport",
    "ModeSet",
    "rmd_decompose",
    "ssa_decompose",
    "write_modeset",
    # signals and scoring
    "TimeSeries",
    "SineComponent",
    "gen_sinusoid_mixture",
    "gen_am_mixture",
    "add_noise_at_snr",
    "periodogram",
    "score_mode",
    # CSV I/O
    "read_timeseries_csv",
    "write_timeseries_csv",
    "CsvFormatError",
    # experiments
    "ExperimentSpec",
    "ExperimentReport",
    "run_experiment",
    "write_report",
    # errors
    "NumericalError",
    "SignalTooShortError",
]
