"""Command-line front end.

Subcommands: ``decompose`` a signal file, ``synth`` test signals, ``bench``
an experiment spec, ``spectrum`` inspection.  Exit codes: 0 success, 2 bad
flags or parameters, 3 I/O or file-format trouble, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import bench as bench_mod
from .embedding import SignalTooShortError, embedding_dim_from_peak
from .eigen import EigenSolverError
from .modes import (
    SIMILARITY_MEASURES,
    DecompositionConfig,
    rmd_decompose,
    write_modeset,
)
from .signals import (
    CsvFormatError,
    SineComponent,
    add_noise_at_snr,
    dominant_frequency,
    gen_am_mixture,
    gen_sinusoid_mixture,
    periodogram,
    read_sample_rate_sidecar,
    write_sample_rate_sidecar,
    write_spectrum_csv,
    write_timeseries_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _float_list(text: str) -> list[float]:
    try:
        return [float(f) for f in text.split(",") if f.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmd",
        description="Bandwidth-regularized trajectory-matrix mode decomposition.",
        epilog="exit codes: 0 ok, 2 bad flags, 3 I/O error, 4 numerical failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser(
        "decompose", formatter_class=fmt,
        help="decompose a signal CSV into modes plus residual",
    )
    p.add_argument("input", help="signal CSV file")
    p.add_argument("--sample-rate", type=float, default=None,
                   help="sample rate in Hz (falls back to the <input>.json sidecar)")
    p.add_argument("-r", "--modes", type=int, required=True, help="number of modes")
    p.add_argument("--alpha", type=float, default=0.3, help="regularization factor")
    p.add_argument("--order", type=int, choices=(1, 2), default=1,
                   help="difference operator order")
    p.add_argument("--theta", type=float, default=0.85, help="similarity merge threshold")
    p.add_argument("--measure", choices=SIMILARITY_MEASURES, default="spectral",
                   help="eigenvector similarity measure")
    p.add_argument("-K", "--embedding-dim", type=int, default=None,
                   help="embedding dimension (default: spectral-peak heuristic)")
    p.add_argument("--shrinkage", action="store_true",
                   help="apply per-eigenvector reconstruction gains")
    p.add_argument("--out", required=True, help="output directory for mode CSVs and report")

    p = sub.add_parser(
        "synth", formatter_class=fmt,
        help="write a synthetic test signal (plus ground-truth components)",
    )
    p.add_argument("kind", choices=("sine3", "am"), help="signal family")
    p.add_argument("--sample-rate", type=float, default=200.0, help="sample rate in Hz")
    p.add_argument("--duration", type=float, default=10.0, help="duration in seconds")
    p.add_argument("--freqs", type=_float_list, default=[2.0, 5.0, 19.0],
                   help="sine3: component frequencies in Hz (comma-separated)")
    p.add_argument("--amps", type=_float_list, default=[3.0, 0.5, 4.0],
                   help="sine3: component amplitudes (comma-separated)")
    p.add_argument("--phases", type=_float_list, default=None,
                   help="sine3: component phases in radians (default all 0)")
    p.add_argument("--f1", type=float, default=3.0, help="am: modulated carrier Hz")
    p.add_argument("--f2", type=float, default=8.0, help="am: sine carrier Hz")
    p.add_argument("--f3", type=float, default=31.0, help="am: cosine carrier Hz")
    p.add_argument("--f-mod", type=float, default=0.5, help="am: modulation frequency Hz")
    p.add_argument("--snr", type=float, default=None,
                   help="add white noise at this SNR in dB")
    p.add_argument("--seed", type=int, default=0, help="noise generator seed")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser(
        "bench", formatter_class=fmt,
        help="run an experiment spec and write its report",
    )
    p.add_argument("spec", help="experiment spec JSON file")
    p.add_argument("--out", required=True, help="output directory for report artifacts")

    p = sub.add_parser(
        "spectrum", formatter_class=fmt,
        help="write the periodogram of a signal and print its dominant frequency",
    )
    p.add_argument("input", help="signal CSV file")
    p.add_argument("--sample-rate", type=float, default=None,
                   help="sample rate in Hz (falls back to the <input>.json sidecar)")
    p.add_argument("--out", default=None, help="output CSV path for the spectrum")
    return parser


def _resolve_sample_rate(flag_value: float | None, input_path: str) -> float:
    if flag_value is not None:
        if not (math.isfinite(flag_value) and flag_value > 0):
            raise _CliError(EXIT_USAGE, "--sample-rate must be finite and positive")
        return flag_value
    rate = read_sample_rate_sidecar(input_path)
    if rate is None:
        raise _CliError(
            EXIT_USAGE,
            f"no --sample-rate given and no usable sidecar {Path(input_path).with_suffix('.json')}",
        )
    return rate


def _load_series(path: str, sample_rate: float | None):
    rate = _resolve_sample_rate(sample_rate, path)
    try:
        return bench_mod.load_signal_csv(path, rate)
    except FileNotFoundError:
        raise _CliError(EXIT_IO, f"input file not found: {path}")
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {path}: {exc}")
    except CsvFormatError as exc:
        raise _CliError(EXIT_IO, f"{path}: {exc}")


def _cmd_decompose(args) -> int:
    if args.alpha < 0:
        raise _CliError(EXIT_USAGE, "--alpha must be >= 0")
    if args.modes < 1:
        raise _CliError(EXIT_USAGE, "--modes must be >= 1")
    if not 0 < args.theta <= 1.01:
        raise _CliError(EXIT_USAGE, "--theta must lie in (0, 1.01]")
    x = _load_series(args.input, args.sample_rate)
    try:
        config = DecompositionConfig(
            n_modes=args.modes,
            merge_threshold=args.theta,
            alpha=args.alpha,
            diff_order=args.order,
            similarity=args.measure,
            K_override=args.embedding_dim,
            shrinkage=args.shrinkage,
        )
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    try:
        ms = rmd_decompose(x, config)
    except (SignalTooShortError, EigenSolverError, FloatingPointError) as exc:
        raise _CliError(EXIT_NUMERIC, str(exc))
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    try:
        write_modeset(ms, args.out)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {args.out}: {exc}")
    for i, entry in enumerate(ms.report, start=1):
        peak = "none" if entry.peak_frequency_hz is None else f"{entry.peak_frequency_hz:.4g} Hz"
        print(f"mode {i:02d}: gamma={entry.gamma:.6g} mu={entry.mu:.6g} peak={peak}")
    for w in ms.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {len(ms.modes)} mode(s) + residual to {args.out}")
    return EXIT_OK


def _write_signal_with_sidecar(series, path: Path) -> None:
    write_timeseries_csv(series, path)
    write_sample_rate_sidecar(path, series.sample_rate)


def _cmd_synth(args) -> int:
    try:
        if args.kind == "sine3":
            phases = args.phases or [0.0] * len(args.freqs)
            if not (len(args.freqs) == len(args.amps) == len(phases)):
                raise ValueError("--freqs, --amps and --phases must have equal length")
            components = [
                SineComponent(f, a, p) for f, a, p in zip(args.freqs, args.amps, phases)
            ]
            mixture, truths = gen_sinusoid_mixture(components, args.sample_rate, args.duration)
        else:
            mixture, truths = gen_am_mixture(
                args.f1, args.f2, args.f3, args.f_mod, args.sample_rate, args.duration
            )
        out_signal = mixture
        if args.snr is not None:
            out_signal, _ = add_noise_at_snr(mixture, args.snr, args.seed)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))

    out = Path(args.out)
    try:
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        _write_signal_with_sidecar(out_signal, out)
        if args.snr is not None:
            for i, truth in enumerate(truths, start=1):
                _write_signal_with_sidecar(
                    truth, out.with_name(f"{out.stem}_truth_{i:02d}.csv")
                )
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {args.out}: {exc}")
    n_truth = len(truths) if args.snr is not None else 0
    print(f"wrote {out} ({len(out_signal)} samples at {out_signal.sample_rate:g} Hz"
          + (f", {n_truth} truth component files" if n_truth else "") + ")")
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        text = Path(args.spec).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise _CliError(EXIT_IO, f"spec file not found: {args.spec}")
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {args.spec}: {exc}")
    try:
        spec = bench_mod.ExperimentSpec.from_dict(json.loads(text))
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise _CliError(EXIT_USAGE, f"bad experiment spec: {exc}")
    try:
        report = bench_mod.run_experiment(spec)
    except (OSError, CsvFormatError) as exc:
        raise _CliError(EXIT_IO, f"cannot run spec: {exc}")
    try:
        bench_mod.write_report(report, args.out)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {args.out}: {exc}")

    n_failed = sum(1 for c in report.cells if not c.success)
    print(f"{len(report.cells)} cell(s), {n_failed} failed; artifacts in {args.out}")
    aggs = report.aggregates()
    if aggs:
        print("snr_db  alpha  order  true_hz  matched  mean_corr  mean|dpeak|")
        for a in aggs:
            corr = "-" if a["mean_correlation"] is None else f"{a['mean_correlation']:.3f}"
            dpk = "-" if a["mean_abs_peak_err_hz"] is None else f"{a['mean_abs_peak_err_hz']:.3f}"
            snr = "-" if a["snr_db"] is None else f"{a['snr_db']:g}"
            print(f"{snr:>6}  {a['alpha']:>5g}  {a['diff_order']:>5}  "
                  f"{a['true_freq_hz']:>7g}  {a['n_matched']:>3}/{a['n_cells']:<3}  "
                  f"{corr:>9}  {dpk:>11}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    x = _load_series(args.input, args.sample_rate)
    spec = periodogram(x)
    peak = dominant_frequency(spec)
    if len(x) < 12:
        raise _CliError(
            EXIT_NUMERIC,
            f"signal too short for an embedding-dimension suggestion ({len(x)} samples)",
        )
    k = embedding_dim_from_peak(peak, x.sample_rate, len(x))
    if peak is None:
        print(f"no dominant frequency (DC-only spectrum); suggested K={k}")
    else:
        print(f"dominant frequency: {peak:g} Hz; suggested K={k}")
    if args.out is not None:
        try:
            write_spectrum_csv(spec, args.out)
        except OSError as exc:
            raise _CliError(EXIT_IO, f"cannot write {args.out}: {exc}")
        print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "decompose": _cmd_decompose,
    "synth": _cmd_synth,
    "bench": _cmd_bench,
    "spectrum": _cmd_spectrum,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"rmd {args.command}: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
