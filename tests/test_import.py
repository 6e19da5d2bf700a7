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
