#!/usr/bin/env python3
"""End-to-end timings of the fixed performance cases, as medians of warm runs.

Cases:
  minus5db     three-tone 2/5/19 Hz mixture at -5 dB, N=2000, K=200, r=4
  minus15db    the same mixture at -15 dB, K=200, r=8, theta=0.6
  long_window  0.3 + 1.2 Hz tones in 0 dB noise, N=2048, K=682, r=4
  solve_200    solve_generalized alone on the Gram matrix of the minus5db
               series at K=200: alpha 8, order 1, the 32 pairs r=4 asks for
  solve_682    the same on the long_window series at K=682, alpha 2
  sine_snr     specs/sine_snr.json through run_experiment and write_report
  nonlinear    specs/nonlinear.json through run_experiment and write_report
  cli_file     rmd.cli.main(["decompose", f, "-r", "3", "--out", d]), stdout
               captured, on a 1.5 + 3.75 Hz two-tone file in 0 dB noise, N=2500
               at 100 Hz, with its sample-rate sidecar
  cli_file_read   read_timeseries_csv of that file
  cli_file_write  write_modeset of its decomposition (mode and residual CSVs, JSON)
  cold_cli     the same decompose as cli_file, as a fresh `python -m rmd`
               process: interpreter start-up and `import rmd` included
  import_rmd   a fresh `python -c "import rmd"`, from its start until the import
               returns (the child's CLOCK_MONOTONIC stamp), without its exit: the
               setup_s of perfbench/run.py

It times whichever ``rmd`` package the interpreter imports, so the same script
measures any checkout:

  PYTHONPATH=src python scripts/perf.py --label change --out BENCH_8.json
  PYTHONPATH=../parent/src python scripts/perf.py --label parent --out BENCH_8.json

Each call appends one run (label, BLAS vendor, thread setting, core count and
per-case median, quartiles and sample count, in ms) to the ``runs`` list of
the output file, creating it if needed.  Each case also records
``peak_alloc_mb``, the ``tracemalloc`` peak of one extra untimed run (NumPy
reports its array buffers to tracemalloc); it is null for cold_cli and
import_rmd, whose work is done in a child process.  BLAS is pinned to one thread
unless OPENBLAS_NUM_THREADS is already set.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

SPECS = Path(__file__).resolve().parent.parent / "specs"
WARMUP = 2  # untimed runs per case, so caches and lazy imports are settled


def _cases(out: Path):
    import numpy as np

    from rmd.bench import ExperimentSpec, run_experiment, write_report
    from rmd.cli import main
    from rmd.eigen import gram, solve_generalized
    from rmd.embedding import build_trajectory_matrix
    from rmd.modes import DecompositionConfig, rmd_decompose, write_modeset
    from rmd.signals import (
        SineComponent,
        TimeSeries,
        add_noise_at_snr,
        gen_sinusoid_mixture,
        read_timeseries_csv,
    )

    mixture, _ = gen_sinusoid_mixture(
        [SineComponent(2.0, 3.0), SineComponent(5.0, 0.5), SineComponent(19.0, 4.0)],
        200.0, 10.0)
    m5 = add_noise_at_snr(mixture, -5.0, 0)[0]
    m15 = add_noise_at_snr(mixture, -15.0, 0)[0]
    t = np.arange(2048) / 100.0
    tones = np.sin(2 * np.pi * 0.3 * t + 1.0) + 0.5 * np.sin(2 * np.pi * 1.2 * t + 2.0)
    radar = add_noise_at_snr(TimeSeries(tones, 100.0), 0.0, 0)[0]
    cfg5 = DecompositionConfig(n_modes=4, alpha=8.0, K_override=200)
    cfg15 = DecompositionConfig(n_modes=8, alpha=10.0, merge_threshold=0.6, K_override=200)
    cfg_long = DecompositionConfig(n_modes=4, alpha=2.0, K_override=682)
    G200 = gram(build_trajectory_matrix(m5, 200))
    G682 = gram(build_trajectory_matrix(radar, 682))
    specs = {name: ExperimentSpec.from_dict(json.loads((SPECS / f"{name}.json").read_text()))
             for name in ("sine_snr", "nonlinear")}

    def sweep(name):
        return lambda: write_report(run_experiment(specs[name]), out / name)

    # written as plain text, so every version under test reads the same bytes
    t = np.arange(2500) / 100.0
    tones = np.sin(2 * np.pi * 1.5 * t + 0.5) + 0.7 * np.sin(2 * np.pi * 3.75 * t + 1.5)
    signal = add_noise_at_snr(TimeSeries(tones, 100.0), 0.0, 1)[0]
    csv = out / "cli_file.csv"
    csv.write_text("value\n" + "".join(f"{v!r}\n" for v in signal.samples.tolist()))
    csv.with_suffix(".json").write_text(json.dumps({"sample_rate_hz": 100.0}) + "\n")
    argv = ["decompose", str(csv), "-r", "3", "--out", str(out / "cli_file_out")]
    modeset = rmd_decompose(read_timeseries_csv(csv, 100.0), DecompositionConfig(n_modes=3))

    def cli_file():
        with contextlib.redirect_stdout(io.StringIO()):
            if main(argv) != 0:
                raise RuntimeError(f"rmd {' '.join(argv)} failed")

    # the child imports the same rmd as this interpreter
    import rmd

    src = str(Path(rmd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    def cold_cli():
        subprocess.run([sys.executable, "-m", "rmd", *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)

    def import_rmd():
        code = "import time, rmd; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        child = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True, timeout=60)
        return (float(child.stdout) - t0) * 1e3

    return {
        "minus5db": (lambda: rmd_decompose(m5, cfg5), 15),
        "minus15db": (lambda: rmd_decompose(m15, cfg15), 15),
        "long_window": (lambda: rmd_decompose(radar, cfg_long), 15),
        "solve_200": (lambda: solve_generalized(G200, 8.0, 1, n_pairs=32), 25),
        "solve_682": (lambda: solve_generalized(G682, 2.0, 1, n_pairs=32), 15),
        "sine_snr": (sweep("sine_snr"), 7),
        "nonlinear": (sweep("nonlinear"), 7),
        "cli_file": (cli_file, 25),
        "cli_file_read": (lambda: read_timeseries_csv(csv, 100.0), 25),
        "cli_file_write": (lambda: write_modeset(modeset, out / "cli_file_write"), 25),
        "cold_cli": (cold_cli, 7),
        "import_rmd": (import_rmd, 15),
    }


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        return "unknown"


def measure() -> dict:
    import numpy as np
    import scipy

    cases = {}
    with tempfile.TemporaryDirectory(prefix="rmd-perf-") as tmp:
        for name, (run, repeats) in _cases(Path(tmp)).items():
            for _ in range(WARMUP):
                run()
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                took = run()
                # import_rmd returns its own ms: the child's, without the child's exit
                times.append(took if name == "import_rmd" else (time.perf_counter() - t0) * 1e3)
            q1, med, q3 = np.percentile(times, [25, 50, 75])
            peak = None
            if name not in ("cold_cli", "import_rmd"):
                tracemalloc.start()
                try:
                    run()
                    peak = round(tracemalloc.get_traced_memory()[1] / 1e6, 2)
                finally:
                    tracemalloc.stop()
            cases[name] = {"median_ms": round(float(med), 2), "q1_ms": round(float(q1), 2),
                           "q3_ms": round(float(q3), 2), "n": repeats, "peak_alloc_mb": peak}
    return {
        "blas": _blas(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "cases": cases,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of the measured version")
    ap.add_argument("--out", type=Path, help="JSON file to append the run to")
    args = ap.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads BLAS
    run = {"label": args.label, **measure()}
    print(json.dumps(run, indent=2))
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
        doc["runs"].append(run)
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
