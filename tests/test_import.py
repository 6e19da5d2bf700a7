import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np


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


def _perfbench_workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded by path; its dataclasses look their
    module up in ``sys.modules``, so it is registered there first."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_perfbench_wrapped_names_exist(monkeypatch):
    # the traced benchmark wraps these by name; a rename would show only in its smoke test
    workloads = _perfbench_workloads(monkeypatch)
    missing = [(mod, attr) for mod, attr, _, _ in workloads.WRAPS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert workloads.WRAPS and missing == []

    from rmd.eigen import gram, solve_generalized
    from rmd.embedding import build_trajectory_matrix
    from rmd.modes import DecompositionConfig, cluster_and_merge
    from rmd.signals import TimeSeries

    t = np.arange(400)
    x = TimeSeries(np.sin(0.3 * t) + np.cos(0.05 * t), 1.0)
    config = DecompositionConfig(n_modes=2, alpha=1.0)
    X = build_trajectory_matrix(x, 40)
    G = gram(X)
    basis = solve_generalized(G, config.alpha, config.diff_order, n_pairs=16)
    merged = cluster_and_merge(basis, config)
    infos = [workloads._hankel_info((x, 40), {}, X),
             workloads._solve_info((G, config.alpha, config.diff_order), {"n_pairs": 16}, basis),
             workloads._cluster_info((basis, config), {}, merged)]
    values = [v for info in infos for v in info.values()]
    assert len(values) == 5 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
