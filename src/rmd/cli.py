"""Command-line front end.

Subcommands: ``decompose`` a signal file, ``synth`` test signals, ``bench``
an experiment spec, ``spectrum`` inspection.  Exit codes: 0 success, 2 bad
flags or parameters, 3 I/O or file-format trouble, 4 numerical failure; the
commands raise the library's errors and ``_EXIT_CODES`` maps them in ``main``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from pathlib import Path

from . import bench as bench_mod
from .embedding import SignalTooShortError, select_embedding_dimension
from .eigen import NumericalError
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
    gen_am_mixture,
    gen_sinusoid_mixture,
    periodogram,
    read_timeseries_csv,
    write_sample_rate_sidecar,
    write_spectrum_csv,
    write_timeseries_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# the first row that matches an error gives its exit code; SignalTooShortError and
# CsvFormatError are ValueErrors, so their rows come before the usage row
_EXIT_CODES = (
    ((SignalTooShortError, NumericalError), EXIT_NUMERIC),
    ((OSError, CsvFormatError), EXIT_IO),
    ((ValueError, TypeError, OverflowError), EXIT_USAGE),
)
_MAPPED = tuple(t for types, _ in _EXIT_CODES for t in types)

# argparse takes a negative value not shaped like -5 or -0.5 (-1e1, -inf, -1,5,19) for a flag
_FLAG, _NEGATIVE = re.compile(r"--?[A-Za-z][\w-]*"), re.compile(r"-(\d|\.\d|inf|nan)", re.I)


def _float_list(text: str) -> list[float]:
    try:
        return [float(f) for f in text.split(",") if f.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


@functools.cache  # parse_args mutates neither the parser nor its default lists
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
    default = {f.name: f.default for f in dataclasses.fields(DecompositionConfig)}
    p.add_argument("--alpha", type=float, default=default["alpha"],
                   help="regularization factor")
    p.add_argument("--order", type=int, choices=(1, 2), default=default["diff_order"],
                   help="difference operator order")
    p.add_argument("--theta", type=float, default=default["merge_threshold"],
                   help="similarity merge threshold")
    p.add_argument("--measure", choices=SIMILARITY_MEASURES, default=default["similarity"],
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
                   help="add white noise at this SNR in dB, such as 10, -5 or -1e1")
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


def _load_series(path: str, rate: float | None):
    # the flag checked first, so a bad --sample-rate exits 2 ahead of a missing file's 3
    if rate is not None and not (math.isfinite(rate) and rate > 0):
        raise ValueError("--sample-rate must be finite and positive")
    return read_timeseries_csv(path, rate)  # no flag: the sidecar's rate


def _cmd_decompose(args) -> int:
    # the config first, so a bad flag exits 2 ahead of a missing file's 3
    config = DecompositionConfig(
        n_modes=args.modes,
        merge_threshold=args.theta,
        alpha=args.alpha,
        diff_order=args.order,
        similarity=args.measure,
        K_override=args.embedding_dim,
        shrinkage=args.shrinkage,
    )
    ms = rmd_decompose(_load_series(args.input, args.sample_rate), config)
    write_modeset(ms, args.out)
    for i, entry in enumerate(ms.report, start=1):
        peak = "none" if entry.peak_frequency_hz is None else f"{entry.peak_frequency_hz:.4g} Hz"
        print(f"mode {i:02d}: gamma={entry.gamma:.6g} mu={entry.mu:.6g} peak={peak}")
    for w in ms.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {len(ms.modes)} mode(s) + residual to {args.out}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    if args.seed < 0:  # numpy's generators take no negative seed
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.kind == "sine3":
        phases = args.phases or [0.0] * len(args.freqs)
        if not (len(args.freqs) == len(args.amps) == len(phases)):
            raise ValueError("--freqs, --amps and --phases must have equal length")
        components = [SineComponent(f, a, p) for f, a, p in zip(args.freqs, args.amps, phases)]
        mixture, truths = gen_sinusoid_mixture(components, args.sample_rate, args.duration)
    else:
        mixture, truths = gen_am_mixture(
            args.f1, args.f2, args.f3, args.f_mod, args.sample_rate, args.duration
        )
    out_signal = mixture if args.snr is None else add_noise_at_snr(mixture, args.snr, args.seed)[0]

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    files = [(out_signal, out)] + [(t, out.with_name(f"{out.stem}_truth_{i:02d}.csv"))
                                   for i, t in enumerate(truths, start=1) if args.snr is not None]
    for series, path in files:
        write_timeseries_csv(series, path)
        write_sample_rate_sidecar(path, series.sample_rate)
    n_truth = len(files) - 1
    print(f"wrote {out} ({len(out_signal)} samples at {out_signal.sample_rate:g} Hz"
          + (f", {n_truth} truth component files" if n_truth else "") + ")")
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:  # not UTF-8 is a ValueError; RecursionError: nested too deep to parse
        spec = bench_mod.ExperimentSpec.from_dict(
            json.loads(Path(args.spec).read_text(encoding="utf-8-sig")))
    except (ValueError, TypeError, RecursionError) as exc:
        raise ValueError(f"bad experiment spec: {exc}") from exc
    report = bench_mod.run_experiment(spec)
    bench_mod.write_report(report, args.out)

    n_failed = sum(1 for c in report.cells if not c.success)
    print(f"{len(report.cells)} cell(s), {n_failed} failed; artifacts in {args.out}")
    aggs = report.aggregates()
    if aggs:
        print("snr_db  alpha  order  modes  shrink  true_hz  matched  mean_corr  mean|dpeak|")
        for a in aggs:
            corr = "-" if a["mean_correlation"] is None else f"{a['mean_correlation']:.3f}"
            dpk = "-" if a["mean_abs_peak_err_hz"] is None else f"{a['mean_abs_peak_err_hz']:.3f}"
            snr = "-" if a["snr_db"] is None else f"{a['snr_db']:g}"
            print(f"{snr:>6}  {a['alpha']:>5g}  {a['diff_order']:>5}  {a['n_modes']:>5}  "
                  f"{'yes' if a['shrinkage'] else 'no':>6}  "
                  f"{a['true_freq_hz']:>7g}  {a['n_matched']:>3}/{a['n_cells']:<3}  "
                  f"{corr:>9}  {dpk:>11}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    x = _load_series(args.input, args.sample_rate)
    k, peak = select_embedding_dimension(x)  # rmd decompose's K, from the scaled samples
    if peak is None:
        print(f"no dominant frequency (DC-only spectrum); suggested K={k}")
    else:
        print(f"dominant frequency: {peak:g} Hz; suggested K={k}")
    if args.out is not None:
        write_spectrum_csv(periodogram(x), args.out)  # the raw power
        print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "decompose": _cmd_decompose,
    "synth": _cmd_synth,
    "bench": _cmd_bench,
    "spectrum": _cmd_spectrum,
}


def main(argv: list[str] | None = None) -> int:
    tokens: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        bind = tokens and _FLAG.fullmatch(tokens[-1]) and _NEGATIVE.match(token)
        tokens.append(f"{tokens.pop()}={token}" if bind else token)
    args = _build_parser().parse_args(tokens)
    try:
        return _COMMANDS[args.command](args)
    except _MAPPED as exc:
        print(f"rmd {args.command}: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
