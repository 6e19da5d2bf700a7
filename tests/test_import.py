import os
import subprocess
import sys


def run_fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this checkout's rmd."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.strip()


# a decomposition that takes the syevr path (K = 200 >= 8 * 24 pairs)
DECOMPOSE = (
    "import numpy as np; "
    "x = rmd.TimeSeries(np.sin(np.arange(1000) * 0.3) + np.cos(np.arange(1000) * 0.05), 1.0); "
    "ms = rmd.rmd_decompose(x, rmd.DecompositionConfig(n_modes=3, K_override=200)); "
)


def test_import_loads_no_heavy_scipy_subpackage():
    # of scipy.linalg only the compiled _flapack module is loaded, not the
    # package: its init, like scipy.fft's, scipy.sparse's and scipy.signal's, adds
    # to startup time
    code = (
        "import sys, rmd; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'linalg'], ['scipy', 'fft'], ['scipy', 'sparse'], ['scipy', 'signal'])))"
    )
    assert run_fresh(code) == "['scipy.linalg._flapack']"


def test_scipy_linalg_imported_later_reuses_the_module():
    code = (
        "import importlib, sys, rmd; "
        "m = sys.modules['scipy.linalg._flapack']; "
        "import scipy.linalg._flapack as a; "
        "from scipy.linalg import _flapack as b; "
        "import scipy.linalg; "
        "c = importlib.import_module('scipy.linalg._flapack'); "
        + DECOMPOSE +
        "print(a is m, b is m, c is m, sys.modules['scipy.linalg._flapack'] is m, "
        "scipy.linalg.lapack.dtbtrs is m.dtbtrs, "
        "scipy.linalg.cholesky_banded(np.array([[4.0, 9.0]]))[0, 1], len(ms.modes) > 0)"
    )
    assert run_fresh(code) == "True True True True True 3.0 True"


def test_scipy_linalg_imported_first():
    code = (
        "import sys, scipy.linalg; "
        "m = sys.modules['scipy.linalg._flapack']; "
        "import rmd; "
        + DECOMPOSE +
        "print(sys.modules['scipy.linalg._flapack'] is m, rmd.eigen._LAPACK is m, "
        "scipy.linalg.lapack.dtbtrs is m.dtbtrs, len(ms.modes) > 0)"
    )
    assert run_fresh(code) == "True True True True"


# the API README documents; everything else in the submodules may change
PUBLIC_API = [
    "DecompositionConfig", "ModeReport", "ModeSet", "rmd_decompose", "ssa_decompose",
    "write_modeset",
    "TimeSeries", "SineComponent", "gen_sinusoid_mixture", "gen_am_mixture",
    "add_noise_at_snr", "periodogram", "score_mode",
    "read_timeseries_csv", "write_timeseries_csv", "CsvFormatError",
    "ExperimentSpec", "ExperimentReport", "run_experiment", "write_report",
    "NumericalError", "SignalTooShortError",
]


def test_all_is_the_documented_public_api():
    import rmd

    assert rmd.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(rmd, name).__name__ == name
