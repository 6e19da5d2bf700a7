#!/usr/bin/env python3
"""Mutation check of the tier-1 tests.

Each mutant is one small source edit that the tests must notice.  For each,
``src/``, ``tests/`` and ``specs/`` are copied to a temporary directory, the
edit is applied there (the working tree is never touched), and the tests run
with ``pytest -x``: first the test file most likely to fail, then, if it
passes, the whole suite.  A mutant is killed when a test fails and survives
when every test passes.  The unmutated copy must pass first.

Usage: python scripts/mutants.py

Prints one line per mutant and exits 1 if any mutant survives, 2 if the
unmutated tests fail or an edit no longer applies to the source.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/rmd, text, mutated text, test file to run first)
MUTANTS = [
    ("merge at equal similarity", "modes.py",
     "others[S[i, others] > config.merge_threshold]",
     "others[S[i, others] >= config.merge_threshold]", "test_modes.py"),
    ("4 pairs per mode", "modes.py",
     "PAIRS_PER_MODE = 8", "PAIRS_PER_MODE = 4", "test_bench.py"),
    ("eigen floor 1e-8", "eigen.py",
     "EIGEN_FLOOR = 1e-12", "EIGEN_FLOOR = 1e-8", "test_eigen.py"),
    ("peak tolerance strict", "bench.py",
     "abs(m.peak_frequency - freq) <= spec.peak_tol_hz",
     "abs(m.peak_frequency - freq) < spec.peak_tol_hz", "test_bench.py"),
    ("eigenvectors not normalized", "eigen.py",
     "V /= np.linalg.norm(V, axis=0, keepdims=True)", "V /= 1.0", "test_eigen.py"),
    ("eigenpairs ascending", "eigen.py",
     'idx = np.argsort(-w, kind="stable")[:top]',
     'idx = np.argsort(w, kind="stable")[:top]', "test_eigen.py"),
    ("roughness of order 1 only", "eigen.py",
     "np.diff(V, n=order, axis=0)", "np.diff(V, n=1, axis=0)", "test_eigen.py"),
    ("shrinkage ignores alpha", "modes.py",
     "1.0 / (1.0 + config.alpha * basis.mu)", "1.0 / (1.0 + basis.mu)", "test_modes.py"),
    ("modes by ascending gamma", "modes.py",
     "key=lambda i: -clusters[i].gamma_total", "key=lambda i: clusters[i].gamma_total",
     "test_modes.py"),
    ("anti-diagonal counts unclipped", "embedding.py",
     "np.minimum(np.minimum(k + 1, n - k), min(L, K))", "np.minimum(k + 1, n - k)",
     "test_embedding.py"),
    ("window of 1.5 periods", "embedding.py",
     "1.2 * math.ldexp(sample_rate, -s)", "1.5 * math.ldexp(sample_rate, -s)",
     "test_embedding.py"),
    ("noise amplitude from 20 dB per decade", "signals.py",
     "power / 10.0 ** (snr_db / 10.0)", "power / 10.0 ** (snr_db / 20.0)", "test_signals.py"),
    # the one type rule for values read from outside
    ("a bool passes as a number", "signals.py",
     'kind in ("integer", "number") and isinstance(value, bool)',
     'kind == "integer" and isinstance(value, bool)', "test_modes.py"),
    ("shrinkage unchecked", "modes.py",
     '        checked("shrinkage", self.shrinkage, "flag")\n', "", "test_modes.py"),
    ("input_path of any type", "bench.py",
     "elif not isinstance(self.input_path, str) or not self.input_path:",
     "elif not self.input_path:", "test_bench.py"),
    # the CLI's exit-code table
    ("I/O and usage rows swapped", "cli.py",
     "    ((OSError, CsvFormatError), EXIT_IO),\n"
     "    ((ValueError, TypeError, OverflowError), EXIT_USAGE),\n",
     "    ((ValueError, TypeError, OverflowError), EXIT_USAGE),\n"
     "    ((OSError, CsvFormatError), EXIT_IO),\n", "test_cli.py"),
    ("SignalTooShortError unmapped", "cli.py",
     "((SignalTooShortError, NumericalError), EXIT_NUMERIC)",
     "((NumericalError,), EXIT_NUMERIC)", "test_cli.py"),
    ("TypeError unmapped", "cli.py",
     "((ValueError, TypeError, OverflowError), EXIT_USAGE)",
     "((ValueError, OverflowError), EXIT_USAGE)", "test_cli.py"),
]


def _tests_pass(work: Path, env: dict, *paths: str) -> bool:
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *paths],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory(prefix="rmd-mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "specs"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        if not _tests_pass(work, env, "tests"):
            print("the unmutated tests fail")
            return 2
        for name, file, old, new, first in MUTANTS:
            path = work / "src" / "rmd" / file
            source = path.read_text()
            if source.count(old) != 1:
                print(f"{name}: the edit does not apply to src/rmd/{file}")
                return 2
            path.write_text(source.replace(old, new))
            t0 = time.perf_counter()
            try:
                killed = not (_tests_pass(work, env, f"tests/{first}")
                              and _tests_pass(work, env, "tests"))
            finally:
                path.write_text(source)
            print(f"{'killed  ' if killed else 'SURVIVED'} {time.perf_counter() - t0:5.1f} s  "
                  f"{file}: {name}", flush=True)
            if not killed:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
