import os
import subprocess
import sys


def test_import_loads_no_heavy_scipy_subpackage():
    # only scipy.linalg belongs on the import path; the others add to startup time
    code = (
        "import sys, rmd; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['scipy', 'fft'], ['scipy', 'sparse'], ['scipy', 'signal'])))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


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
