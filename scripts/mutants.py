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
     "key=lambda i: -clusters[i].gamma", "key=lambda i: clusters[i].gamma",
     "test_modes.py"),
    ("no-peak fallback K uncapped", "embedding.py",
     "k = min(upper, 1200)", "k = upper", "test_embedding.py"),
    ("DFT rounding peaks", "signals.py",
     "some = (best > 0) & (best >= floor)", "some = best > 0", "test_signals.py"),
    ("anti-diagonal counts unclipped", "embedding.py",
     "np.minimum(np.minimum(k + 1, n - k), min(L, K))", "np.minimum(k + 1, n - k)",
     "test_embedding.py"),
    ("window of 1.5 periods", "embedding.py",
     "1.2 * math.ldexp(sample_rate, -s)", "1.5 * math.ldexp(sample_rate, -s)",
     "test_embedding.py"),
    ("noise amplitude from 20 dB per decade", "signals.py",
     "power / 10.0 ** (snr_db / 10.0)", "power / 10.0 ** (snr_db / 20.0)", "test_signals.py"),
    # the LAPACK calls through scipy's _flapack
    # info != 0 -> info > 0 for one routine at a time
    *((f"{routine}: negative info passes", "eigen.py", "    if info != 0:",
       f"    if info > 0 or info and routine != {routine!r}:", "test_eigen.py")
      for routine in ("dpbtrf", "dtbtrs", "dsyevr")),
    ("_flapack in sys.modules not reused", "eigen.py",
     "    module = sys.modules.get(name)\n", "    module = None\n", "test_eigen.py"),
    ("missing _flapack unchecked", "eigen.py",
     "        if spec is None:", "        if False:", "test_eigen.py"),
    ("dsyevr reads the upper triangle", "eigen.py",
     'range="I", lower=1,', 'range="I", lower=0,', "test_eigen.py"),
    ("default dsyevr workspace", "eigen.py",
     " lwork=int(work), liwork=iwork,", "", "test_eigen.py"),
    # the reduction to C = U^-T G U^-1 by blocks
    ("block coupling dropped", "eigen.py",
     "                    rows[r] -= U[:k - r, s + r] @ X[s - k + r:s, lo:]\n",
     "                    pass\n", "test_eigen.py"),
    ("second pass a row short of the block", "eigen.py",
     "            lo = s if trapezoid else 0", "            lo = s + 1 if trapezoid else 0",
     "test_eigen.py"),
    ("reduced matrix unchecked", "eigen.py",
     "    if not np.isfinite(Ct).all():", "    if False:", "test_eigen.py"),
    # the one type rule for values read from outside
    ("a bool passes as a number", "signals.py",
     'kind in ("integer", "number") and isinstance(value, bool)',
     'kind == "integer" and isinstance(value, bool)', "test_modes.py"),
    ("shrinkage unchecked", "modes.py",
     '        checked("shrinkage", self.shrinkage, "flag")\n', "", "test_modes.py"),
    ("input_path of any type", "bench.py",
     "elif not isinstance(self.input_path, str) or not self.input_path:",
     "elif not self.input_path:", "test_bench.py"),
    ("a whole number past the float64 range passes", "signals.py",
     "isinstance(value, int) and abs(value) > sys.float_info.max",
     "isinstance(value, int) and False", "test_cli.py"),
    ("non-finite snr_db accepted", "bench.py",
     "            if not np.isfinite(snr):", "            if False:", "test_cli.py"),
    ("negative seed in a spec accepted", "bench.py",
     'if checked(name, v, "integer") < 0:', 'if checked(name, v, "integer") < -1:',
     "test_bench.py"),
    ("negative synth seed accepted", "cli.py",
     "    if args.seed < 0:", "    if args.seed < -1:", "test_cli.py"),
    # each input rule in the one library function every front end calls
    ("a collapsed frequency grid read", "signals.py",
     "        if not math.isfinite(len(self) * (1.0 / self.sample_rate)):", "        if False:",
     "test_signals.py"),
    ("zero noise accepted", "signals.py",
     "    if not 0 < sigma < math.inf:", "    if not sigma < math.inf:", "test_signals.py"),
    ("K suggested for a short series", "embedding.py",
     "    if len(x) < MIN_SAMPLES:", "    if False:", "test_embedding.py"),
    # the sample rate of a file, from the flag, the spec or the sidecar
    ("the reader ignores the sidecar", "signals.py",
     "rate = read_sample_rate_sidecar(path) if sample_rate_hz is None",
     "rate = None if sample_rate_hz is None", "test_signals.py"),
    ("a file spec without a rate runs at 200 Hz", "bench.py",
     '            doc.setdefault("sample_rate_hz", None)\n', "            pass\n", "test_cli.py"),
    ("a synthetic spec's null rate accepted", "bench.py",
     'sidecar_rate = self.generator == "file" and self.sample_rate_hz is None',
     "sidecar_rate = self.sample_rate_hz is None", "test_bench.py"),
    ("the report keeps a file spec's null rate", "bench.py",
     "        spec = replace(spec, sample_rate_hz=clean.sample_rate)\n", "        pass\n",
     "test_bench.py"),
    # a negative value after a flag is the flag's
    ("negative values read as flags", "cli.py",
     '        tokens.append(f"{tokens.pop()}={token}" if bind else token)',
     "        tokens.append(token)", "test_cli.py"),
    # statements that only these tests reach
    ("file-run summary rows dropped", "bench.py",
     "        elif cell.success:", "        elif False:", "test_bench.py"),
    ("respiration band edges exclusive", "bench.py",
     "RESPIRATION_BAND[0] <= peak <= RESPIRATION_BAND[1]",
     "RESPIRATION_BAND[0] < peak < RESPIRATION_BAND[1]", "test_bench.py"),
    ("heartbeat band edges exclusive", "bench.py",
     "HEARTBEAT_BAND[0] <= peak <= HEARTBEAT_BAND[1]",
     "HEARTBEAT_BAND[0] < peak < HEARTBEAT_BAND[1]", "test_bench.py"),
    ("a peakless mode compared with the bands", "bench.py",
     '    if peak is None:\n        return ""\n', "", "test_bench.py"),
    ("one core without an affinity call", "bench.py",
     "        return os.cpu_count() or 1", "        return 1", "test_bench.py"),
    ("a config that is not an object unnamed", "bench.py",
     "    if not isinstance(doc, dict):", "    if False:", "test_cli.py"),
    ("negative frequency accepted", "signals.py",
     "        if self.frequency < 0:", "        if False:", "test_cli.py"),
    ("negative amplitude accepted", "signals.py",
     "        if self.amplitude < 0:", "        if False:", "test_cli.py"),
    ("a series compared with another type", "signals.py",
     "        if not isinstance(other, TimeSeries):\n            return NotImplemented\n",
     "", "test_signals.py"),
    ("a bad number list read as empty", "cli.py",
     "    except ValueError:\n        raise argparse.ArgumentTypeError",
     "    except ValueError:\n        return []\n        raise argparse.ArgumentTypeError",
     "test_cli.py"),
    ("ssa with no components", "modes.py", "    if r < 1:", "    if r < 0:", "test_modes.py"),
    ("a mode past the float64 range returned", "modes.py",
     "    if not np.isfinite(out).all():", "    if False:", "test_modes.py"),
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
