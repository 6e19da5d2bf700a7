"""Benchmark of the rmd package: one workload per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it alternates traced and untraced passes and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans and the full record of the
run go under ``.perfbench/`` in the checkout.  See README.md for the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
SETUP_REPEATS = 5
P90_MIN_SAMPLES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "match_ratio": "ratio",
    "mean_corr": "ratio",
}


@dataclass
class PassResult:
    wall_s: float
    latencies_s: list[float]
    tracer: object = None
    failed: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    checks: Counter = field(default_factory=Counter)
    fingerprints: list = field(default_factory=list)
    tones: list = field(default_factory=list)


def _no_span(name: str):
    return contextlib.nullcontext(SimpleNamespace())


def run_pass(workload, reference: PassResult | None = None, tracer=None) -> PassResult:
    """Send every request of the workload once, then check the outputs.

    Checks run after the pass, so the pass wall time holds requests only.
    """
    span = tracer.span if tracer is not None else _no_span
    results, errors, latencies = [], [], []
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        t_pass = time.perf_counter()
        for i in range(len(workload)):
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter()
            try:
                results.append(workload.request(i, span))
                errors.append(None)
            except Exception as exc:  # a failed request is data, not a crash
                results.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - t_pass
    out = PassResult(wall, latencies, tracer)
    for i, (result, error) in enumerate(zip(results, errors)):
        problems = []
        if error is not None:
            problems.append(f"raised {error}")
            out.fingerprints.append(None)
        else:
            try:
                checked = workload.check(i, result)
            except Exception as exc:  # output the checks cannot read is a failure
                checked = SimpleNamespace(
                    fingerprint=None, ran=[], tones=[],
                    problems=[f"check raised {type(exc).__name__}: {exc}"])
            out.fingerprints.append(checked.fingerprint)
            out.tones.extend(checked.tones)
            out.checks.update(checked.ran)
            problems += checked.problems
            if not problems and reference is not None:
                out.checks["identical_to_reference"] += 1
                if checked.fingerprint != reference.fingerprints[i]:
                    problems.append("output differs from the reference pass")
        if problems:
            out.failed.add(i)
            out.problems += [f"{workload.name}[{i}]: {p}" for p in problems]
    return out


def measure_setup(repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import rmd`` returns."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import time, rmd, sys; sys.stdout.write(repr(time.clock_gettime("
            "time.CLOCK_MONOTONIC)) + ' ' + rmd.__file__)")
    times = []
    for k in range(repeats + 1):  # the first one only fills the bytecode cache
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        stamp, path = proc.stdout.split(" ", 1)
        if not Path(path).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"fresh interpreter imported rmd from {path}")
        if k:
            times.append(float(stamp) - t0)
    return times


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "blas": _blas_libraries(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": "unknown",
    }
    if (ROOT / ".git").exists():
        try:
            env["commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def _blas_libraries() -> list[dict]:
    """Each OpenBLAS loaded into this process, with its config and live thread count."""
    import ctypes

    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("openblas_", "scipy_openblas_"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    entry["config"] = config().decode()
                    entry["threads"] = threads()
        found.append(entry)
    return found


def quality(tones: list) -> tuple[float, float | None]:
    matched = [corr for ok, corr in tones if ok]
    ratio = len(matched) / len(tones) if tones else 0.0
    return ratio, (statistics.fmean(matched) if matched else None)


def _outcome(passes: list[PassResult], workload) -> dict:
    attempted = len(workload) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    return {"attempted": attempted, "failed": failed,
            "problems": [x for p in passes for x in p.problems],
            "checks": sum((p.checks for p in passes), Counter())}


def _room_for_another(t_start: float, t_last: float, seconds: float, done: list) -> bool:
    """Whether to start another round: always the first, then only while one as
    long as the last would still end within ``seconds``."""
    now = time.perf_counter()
    return not done or (now - t_start) + (now - t_last) <= seconds


def end_to_end(workload, seconds: float, setup_repeats: int) -> dict:
    setup = measure_setup(setup_repeats)
    reference = run_pass(workload)  # warms caches; later passes must match it
    passes = []
    t_start = t_last = time.perf_counter()
    while _room_for_another(t_start, t_last, seconds, passes):
        t_last = time.perf_counter()
        passes.append(run_pass(workload, reference))
    latencies = [x * 1e3 for p in passes for x in p.latencies_s]
    # Median over the distinct requests of each one's median over passes.  A
    # sweep pass holds two requests of very different cost, and the median of
    # their pooled latencies would be the gap between two extreme samples.
    per_request = [statistics.median(p.latencies_s[i] for p in passes) * 1e3
                   for i in range(len(workload))]
    match_ratio, mean_corr = quality(reference.tones)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "latency_ms_p50": statistics.median(per_request),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "match_ratio": match_ratio,
        "mean_corr": mean_corr,
    }
    run = _outcome([reference] + passes, workload)
    extra = {
        "requests_timed": (len(latencies), "count"),
        "passes_timed": (len(passes), "count"),
        "tones_scored": (len(reference.tones), "count"),
        "setup_runs": (len(setup), "count"),
    }
    run["series"] = {"setup_s": setup, "pass_wall_s": [p.wall_s for p in passes]}
    if len(latencies) >= P90_MIN_SAMPLES:
        extra["latency_ms_p90"] = (statistics.quantiles(latencies, n=10)[-1], "ms")
    return {**run, "metrics": metrics, "units": END_TO_END_UNITS, "extra": extra,
            "spans": []}


def traced(workload, seconds: float) -> dict:
    from layers import layer_metrics
    from tracing import Tracer
    from workloads import WRAPS

    reference = run_pass(workload)
    traced_passes, plain_passes = [], []
    t_start = t_last = time.perf_counter()
    while _room_for_another(t_start, t_last, seconds, traced_passes):
        t_last = time.perf_counter()
        traced_passes.append(run_pass(workload, reference, Tracer(WRAPS)))
        plain_passes.append(run_pass(workload, reference))
    per_pass = [layer_metrics(p.tracer, p.wall_s) for p in traced_passes]
    metrics, units = {}, {}
    for name, (_, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        units[name] = unit
        metrics[name] = None if None in values else statistics.median(values)
    traced_wall = statistics.median(p.wall_s for p in traced_passes)
    plain_wall = statistics.median(p.wall_s for p in plain_passes)
    metrics["trace.overhead_pct"] = (traced_wall / plain_wall - 1.0) * 100.0
    units["trace.overhead_pct"] = "%"
    run = _outcome([reference] + traced_passes + plain_passes, workload)
    extra = {
        "traced_passes": (len(traced_passes), "count"),
        "traced_wall_s": (traced_wall, "s"),
        "untraced_wall_s": (plain_wall, "s"),
    }
    missing = traced_passes[0].tracer.missing
    if missing:
        extra["wrapped_names_missing"] = (len(missing), "count")
    return {**run, "metrics": metrics, "units": units, "extra": extra,
            "missing": missing, "spans": traced_passes[-1].tracer.spans}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "long_window", "cli_files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few small requests (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    needed = [ROOT / "src" / "rmd" / "__init__.py"]
    if args.workload == "sweep":
        needed += [ROOT / "specs" / name for name in ("sine_snr.json", "nonlinear.json")]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"perfbench: not a source checkout, missing {', '.join(absent)}",
              file=sys.stderr)
        return 2

    # BLAS is pinned before NumPy loads it; see README.md for the measured reason.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import rmd

    if not Path(rmd.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported rmd from {rmd.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from tracing import write_spans
    from workloads import WORKLOADS

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](ROOT, work, args.seed, args.tiny)
    env = environment()
    if args.trace:
        run = traced(workload, args.seconds)
    else:
        run = end_to_end(workload, args.seconds, 3 if args.tiny else SETUP_REPEATS)

    run["extra"]["fail_ratio"] = (run["failed"] / run["attempted"], "ratio")
    absent = sorted(k for k, v in run["metrics"].items() if v is None)
    metrics = {k: {"value": v, "unit": run["units"][k]}
               for k, v in run["metrics"].items() if v is not None}
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"requests={run['attempted']} failed={run['failed']}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    for name, (value, unit) in run["extra"].items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    for name in absent:
        print(f"  {name:<28} {'absent':>16}")
    checks = " ".join(f"{k}={v}" for k, v in sorted(run["checks"].items()))
    print(f"checks run: {checks}; {len(run['problems'])} problem(s)")
    for problem in run["problems"][:10]:
        print(f"  problem: {problem}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "metrics": metrics, "absent": absent,
              "extra": {k: {"value": v, "unit": u} for k, (v, u) in run["extra"].items()},
              "checks_run": dict(run["checks"]),
              "series": run.get("series", {}),
              "missing_wrapped_names": run.get("missing", []),
              "problems": run["problems"]}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if run["spans"]:
        write_spans(run["spans"], work / "spans.tsv.gz")
    print(json.dumps({"correct": not run["problems"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
