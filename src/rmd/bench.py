"""Experiment harness: synthetic SNR sweeps, the modulated-signal experiment,
file runs, mode-to-truth scoring and report emission.

Sweep cells run independently, on a thread pool of one worker per usable
core; a failed decomposition is recorded in its cell, never aborts the sweep.
"""

from __future__ import annotations

import contextvars
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .modes import DecompositionConfig, ModeSet, rmd_decompose
from .signals import (
    SineComponent,
    TimeSeries,
    add_noise_at_snr,
    checked,
    dominant_frequency,
    gen_am_mixture,
    gen_sinusoid_mixture,
    periodogram,
    read_timeseries_csv,
    score_mode,  # noqa: F401  the one-pair case of score_rows, kept as rmd.bench.score_mode
    score_rows,
    unit_scaled,
)

SCHEMA_VERSION = 1

GENERATORS = ("sine-mixture", "am-mixture", "file")

# report annotation bands for physiological file runs, in Hz
RESPIRATION_BAND = (0.1, 0.5)
HEARTBEAT_BAND = (0.8, 2.0)


# the spec keys of one configuration, in the order they are written, and the
# DecompositionConfig field each one sets; alpha is required
SPEC_CONFIG_KEYS = {
    "alpha": "alpha",
    "diff_order": "diff_order",
    "theta": "merge_threshold",
    "n_modes": "n_modes",
    "measure": "similarity",
    "shrinkage": "shrinkage",
}


def _config_from_dict(doc: dict) -> DecompositionConfig:
    if not isinstance(doc, dict):
        raise TypeError(f"a config must be an object, got {doc!r}")
    unknown = sorted(set(doc) - set(SPEC_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown}; allowed: {list(SPEC_CONFIG_KEYS)}")
    if "alpha" not in doc:
        raise ValueError("every config needs 'alpha'")
    return DecompositionConfig(**{"n_modes": 3, **{SPEC_CONFIG_KEYS[k]: v for k, v in doc.items()}})


def _listed(name: str, values, item=lambda key, v: checked(key, v, "number")) -> tuple:
    """The list field ``name`` as a tuple, each value checked by ``item`` as ``name[i]``."""
    return tuple(item(f"{name}[{i}]", v) for i, v in enumerate(checked(name, values, "list")))


def _seed(name: str, v) -> int:
    # beyond the integer rule, an integral float (3.0) or a numpy integer names a seed
    if isinstance(v, np.integer) or isinstance(v, float) and v.is_integer():
        v = int(v)
    if checked(name, v, "integer") < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
    return v


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment sweep.

    Synthetic generators draw a fresh noise realization per (snr, seed) and
    decompose it once per configuration.  ``file`` runs skip noise injection
    and scoring and decompose the file as read, at its sidecar's rate where
    ``sample_rate_hz`` is None.  Every configuration is stored with
    ``embedding_dim`` as its ``K_override``, so one that the config rejects
    is rejected here, before any cell runs.
    """

    generator: str
    snr_db: tuple[float, ...] = ()
    seeds: tuple[int, ...] = ()
    configs: tuple[DecompositionConfig, ...] = ()
    sample_rate_hz: float | None = 200.0
    duration_s: float = 10.0
    embedding_dim: int | None = 200
    # sine-mixture parameters
    frequencies_hz: tuple[float, ...] = (2.0, 5.0, 19.0)
    amplitudes: tuple[float, ...] = (3.0, 0.5, 4.0)
    phases: tuple[float, ...] | None = None
    # am-mixture parameters
    f1_hz: float = 3.0
    f2_hz: float = 8.0
    f3_hz: float = 31.0
    f_mod_hz: float = 0.5
    # file parameters
    input_path: str | None = None
    # scoring tolerance for the per-component "within tolerance" flag
    peak_tol_hz: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "snr_db", tuple(map(float, _listed("snr_db", self.snr_db))))
        for i, snr in enumerate(self.snr_db):
            if not np.isfinite(snr):
                raise ValueError(f"snr_db[{i}] must be finite, got {snr!r}")
        object.__setattr__(self, "seeds", _listed("seeds", self.seeds, _seed))
        try:
            object.__setattr__(self, "configs", tuple(
                replace(c, K_override=self.embedding_dim) for c in self.configs))
        except ValueError as exc:  # name the spec's key, not the config field it sets
            raise ValueError(str(exc).replace("K_override", "embedding_dim")) from None
        object.__setattr__(self, "frequencies_hz", _listed("frequencies_hz", self.frequencies_hz))
        object.__setattr__(self, "amplitudes", _listed("amplitudes", self.amplitudes))
        if self.phases is not None:
            object.__setattr__(self, "phases", _listed("phases", self.phases))
        sidecar_rate = self.generator == "file" and self.sample_rate_hz is None
        for name in ("sample_rate_hz", "duration_s", "f1_hz", "f2_hz", "f3_hz", "f_mod_hz"):
            if not (sidecar_rate and name == "sample_rate_hz"):
                checked(name, getattr(self, name), "number")
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if not self.configs:
            raise ValueError("at least one decomposition configuration is required")
        if self.generator != "file":
            if not self.snr_db or not self.seeds:
                raise ValueError("synthetic runs need non-empty snr_db and seeds lists")
        elif not isinstance(self.input_path, str) or not self.input_path:
            raise ValueError(f"file runs need input_path as a string, got {self.input_path!r}")
        if self.generator == "sine-mixture" and not (
            len(self.frequencies_hz) == len(self.amplitudes)
            == len(self.phases or self.frequencies_hz)
        ):
            raise ValueError("frequencies_hz, amplitudes and phases must have equal length")
        if not 0 <= checked("peak_tol_hz", self.peak_tol_hz, "number") < np.inf:
            raise ValueError(f"peak_tol_hz must be a finite number >= 0, got {self.peak_tol_hz!r}")

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentSpec":
        """Build a spec from parsed JSON: the spec's fields, with ``configs`` a
        list of dicts of the ``SPEC_CONFIG_KEYS``.  A missing ``configs``, an
        unknown config key, or a value of the wrong type or out of range raises
        ValueError; an unknown spec key or a config that is not an object, TypeError.
        """
        doc = dict(doc)
        if doc.get("generator") == "file":  # no rate: the reader takes the sidecar's
            doc.setdefault("sample_rate_hz", None)
        configs = checked("configs", doc.pop("configs", None), "list")
        return ExperimentSpec(configs=tuple(map(_config_from_dict, configs)), **doc)

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["configs"] = [
            {key: getattr(c, name) for key, name in SPEC_CONFIG_KEYS.items()} for c in self.configs
        ]
        return doc


@dataclass(frozen=True)
class ComponentScore:
    """Scores of one ground-truth component within one cell."""

    true_freq_hz: float
    matched: bool
    mode_index: int | None
    peak_freq_hz: float | None
    correlation: float | None
    rmse: float | None
    within_peak_tol: bool | None
    sidebands_present: bool | None = None


@dataclass(frozen=True)
class CellResult:
    """Outcome of one (snr, seed, configuration) sweep cell."""

    snr_db: float | None
    seed: int | None
    alpha: float
    diff_order: int
    theta: float
    n_modes: int
    measure: str
    success: bool
    error: str | None
    wall_ms: float
    shrinkage: bool = False  # absent from a v1 report.json
    mode_peaks_hz: tuple[float | None, ...] = ()
    scores: tuple[ComponentScore, ...] = ()
    band_labels: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    cells: tuple[CellResult, ...]
    schema_version: int = SCHEMA_VERSION

    def aggregates(self) -> list[dict]:
        """Per (snr, configuration, true component) summary, recomputed
        from the cells on every call."""
        groups: dict[tuple, list[ComponentScore]] = {}
        for cell in self.cells:
            if not cell.success:
                continue
            for score in cell.scores:
                # n_modes and shrinkage last: configs that differ in neither keep their order
                key = (cell.snr_db, cell.alpha, cell.diff_order, cell.theta,
                       cell.measure, score.true_freq_hz, cell.n_modes, cell.shrinkage)
                groups.setdefault(key, []).append(score)
        out = []
        for key in sorted(groups, key=lambda k: tuple(str(p) for p in k)):
            snr, alpha, order, theta, measure, freq, n_modes, shrinkage = key
            scores = groups[key]
            matched = [s for s in scores if s.matched]
            corrs = [s.correlation for s in matched if s.correlation is not None]
            errs = [
                abs(s.peak_freq_hz - freq)
                for s in matched
                if s.peak_freq_hz is not None
            ]
            out.append({
                "snr_db": snr,
                "alpha": alpha,
                "diff_order": order,
                "theta": theta,
                "measure": measure,
                "n_modes": n_modes,
                "shrinkage": shrinkage,
                "true_freq_hz": freq,
                "n_cells": len(scores),
                "n_matched": len(matched),
                "mean_correlation": float(np.mean(corrs)) if corrs else None,
                "min_correlation": float(np.min(corrs)) if corrs else None,
                "mean_abs_peak_err_hz": float(np.mean(errs)) if errs else None,
                "max_abs_peak_err_hz": float(np.max(errs)) if errs else None,
            })
        return out

    def to_json(self) -> str:
        doc = {
            "schema_version": self.schema_version,
            "spec": self.spec.to_dict(),
            # each cell's fields, as asdict gives them without its deep copy
            "cells": [{**vars(c), "scores": [vars(s) for s in c.scores]} for c in self.cells],
            "aggregates": self.aggregates(),
        }
        return json.dumps(doc, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "ExperimentReport":
        doc = json.loads(text)
        spec = ExperimentSpec.from_dict(doc["spec"])
        cells = []
        for c in doc["cells"]:
            c = dict(c)
            c["scores"] = tuple(ComponentScore(**s) for s in c["scores"])
            c["mode_peaks_hz"] = tuple(c["mode_peaks_hz"])
            c["band_labels"] = tuple(c["band_labels"])
            cells.append(CellResult(**c))
        return ExperimentReport(
            spec=spec, cells=tuple(cells), schema_version=doc["schema_version"]
        )


def _truth_profile(truths: list[TimeSeries]) -> tuple[list[float | None], np.ndarray]:
    """Each truth's spectral peak, and the truth indices in descending RMS
    order.  Both are taken on the truths divided by one exact power of two
    (``unit_scaled``), which keeps their peaks and RMS order and lets no
    power overflow.  The truths are fixed for a spec, so this runs once per spec."""
    scaled, _ = unit_scaled(np.stack([t.samples for t in truths]))
    peaks = [dominant_frequency(periodogram(t.with_samples(s))) for t, s in zip(truths, scaled)]
    order = np.argsort([-float(np.sqrt(np.mean(s**2))) for s in scaled], kind="stable")
    return peaks, order


def match_modes_to_truths(
    ms: ModeSet, truth_peaks: list[float | None], truth_order: np.ndarray
) -> dict[int, int]:
    """Injective greedy matching: truth -> mode index.

    Truths are visited in ``truth_order`` (descending RMS, from
    ``_truth_profile``); each claims the unclaimed mode whose spectral peak is
    nearest its own.  Peakless modes never match.
    """
    mode_peaks = [e.peak_frequency_hz for e in ms.report]
    available = {i for i, p in enumerate(mode_peaks) if p is not None}
    assignment: dict[int, int] = {}
    for ti in truth_order:
        if not available or truth_peaks[ti] is None:
            continue
        best = min(available, key=lambda mi: abs(mode_peaks[mi] - truth_peaks[ti]))
        assignment[int(ti)] = best
        available.discard(best)
    return assignment


def _sideband_presence(power: np.ndarray, truth: TimeSeries, spec: ExperimentSpec) -> bool:
    """True when both sidebands at ``spec.f1_hz`` +- ``spec.f_mod_hz`` clear the
    floor (median) of a mode's power, on the grid of the truth it matched."""
    freqs = np.fft.rfftfreq(len(truth), d=1.0 / truth.sample_rate)
    floor = np.median(power)
    return all(power[np.argmin(np.abs(freqs - f))] > floor
               for f in (spec.f1_hz - spec.f_mod_hz, spec.f1_hz + spec.f_mod_hz))


def _score_cell(
    spec: ExperimentSpec,
    ms: ModeSet,
    truths: list[TimeSeries],
    profile: tuple[list[float | None], np.ndarray],
) -> tuple[ComponentScore, ...]:
    """One score per truth; the matched (mode, truth) pairs are scored in one
    ``score_rows`` pass, whose power rows give the AM sidebands."""
    assignment = match_modes_to_truths(ms, *profile)
    matched = sorted(assignment)
    if matched:
        metrics, power = score_rows(np.stack([ms.modes[assignment[t]].samples for t in matched]),
                                    np.stack([truths[t].samples for t in matched]),
                                    truths[0].sample_rate)
    scores = []
    for ti, f in enumerate(profile[0]):
        freq = f if f is not None else 0.0
        if ti not in assignment:
            scores.append(ComponentScore(freq, False, None, None, None, None, None))
            continue
        row = matched.index(ti)
        m = metrics[row]
        sidebands = (_sideband_presence(power[row], truths[ti], spec)
                     if spec.generator == "am-mixture" and ti == 0 else None)
        scores.append(ComponentScore(
            true_freq_hz=freq, matched=True, mode_index=assignment[ti],
            peak_freq_hz=m.peak_frequency, correlation=m.correlation, rmse=m.rmse,
            within_peak_tol=(abs(m.peak_frequency - freq) <= spec.peak_tol_hz
                             if m.peak_frequency is not None else False),
            sidebands_present=sidebands,
        ))
    return tuple(scores)


def _band_label(peak: float | None) -> str:
    if peak is None:
        return ""
    if RESPIRATION_BAND[0] <= peak <= RESPIRATION_BAND[1]:
        return "respiration"
    if HEARTBEAT_BAND[0] <= peak <= HEARTBEAT_BAND[1]:
        return "heartbeat"
    return ""


def _source(spec: ExperimentSpec) -> tuple[TimeSeries, list[TimeSeries] | None]:
    """The signal a spec decomposes and its ground-truth components (None for files)."""
    if spec.generator == "sine-mixture":
        phases = spec.phases or (0.0,) * len(spec.frequencies_hz)
        components = [
            SineComponent(f, a, p)
            for f, a, p in zip(spec.frequencies_hz, spec.amplitudes, phases)
        ]
        return gen_sinusoid_mixture(components, spec.sample_rate_hz, spec.duration_s)
    if spec.generator == "am-mixture":
        return gen_am_mixture(
            spec.f1_hz, spec.f2_hz, spec.f3_hz, spec.f_mod_hz,
            spec.sample_rate_hz, spec.duration_s,
        )
    return read_timeseries_csv(spec.input_path, spec.sample_rate_hz), None


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Decompose every (snr, seed, configuration) cell of a spec.

    Synthetic generators draw one noise realization per (snr, seed) and score
    the modes against the ground truth; the AM component additionally gets a
    sideband-presence check.  A file is decomposed as read, once per
    configuration, and its cells carry the per-mode peaks and physiological
    band annotations only; a file spec without a rate is reported with the rate
    the reader resolved.  A failed decomposition is recorded in its cell.

    The noise draws and the truths' profile are made first, in the caller;
    the cells then run on a thread pool with one worker per usable core (at
    most one per cell), each in a copy of the caller's context.  Cells come
    back in grid order; each ``wall_ms`` times its own cell, waits included.
    An exception in the caller, such as KeyboardInterrupt, cancels the cells
    not yet started.
    """
    clean, truths = _source(spec)
    if spec.sample_rate_hz is None:  # the report records the rate the sidecar gave
        spec = replace(spec, sample_rate_hz=clean.sample_rate)
    if truths is None:
        draws, profile = [(None, None, clean)], None
    else:
        draws = [(snr, seed, add_noise_at_snr(clean, snr, seed)[0])
                 for snr in spec.snr_db for seed in spec.seeds]
        profile = _truth_profile(truths)

    def run_cell(snr: float | None, seed: int | None, x: TimeSeries,
                 config: DecompositionConfig) -> CellResult:
        t0 = time.perf_counter()
        try:
            ms = rmd_decompose(x, config)
            peaks = tuple(e.peak_frequency_hz for e in ms.report)
            if truths is None:
                outcome = dict(band_labels=tuple(_band_label(p) for p in peaks))
            else:
                outcome = dict(scores=_score_cell(spec, ms, truths, profile))
            outcome.update(mode_peaks_hz=peaks, success=True, error=None)
        except Exception as exc:  # cell failures are data
            outcome = dict(success=False, error=f"{type(exc).__name__}: {exc}")
        return CellResult(
            snr_db=snr, seed=seed, wall_ms=(time.perf_counter() - t0) * 1e3, **outcome,
            **{key: getattr(config, name) for key, name in SPEC_CONFIG_KEYS.items()},
        )

    cells = [(snr, seed, x, config) for snr, seed, x in draws for config in spec.configs]
    pool = ThreadPoolExecutor(max_workers=min(len(cells), _usable_cores()))
    try:
        futures = [pool.submit(contextvars.copy_context().run, run_cell, *cell)
                   for cell in cells]
        return ExperimentReport(spec=spec, cells=tuple(f.result() for f in futures))
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# artifacts


def _csv_field(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


SUMMARY_COLUMNS = (
    "snr_db", "seed", "alpha", "diff_order", "measure", "true_freq_hz",
    "matched", "peak_freq_hz", "correlation", "rmse", "wall_ms",
)


def write_report(report: ExperimentReport, out_dir: str | Path) -> dict[str, Path]:
    """Emit ``report.json``, ``summary.csv`` and plot-ready per-component CSVs.

    summary.csv holds one row per (cell, true component); file runs, which
    have no truths, get one row per recovered mode with the truth columns
    left blank.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"report": out / "report.json"}
    paths["report"].write_text(report.to_json(), encoding="utf-8")

    rows = []
    per_component: dict[float, list] = {}
    for cell in report.cells:
        base = (cell.snr_db, cell.seed, cell.alpha, cell.diff_order, cell.measure)
        if cell.scores:
            for s in cell.scores:
                rows.append(base + (s.true_freq_hz, s.matched, s.peak_freq_hz,
                                    s.correlation, s.rmse, cell.wall_ms))
                # the summary row without measure, true_freq_hz and wall_ms
                per_component.setdefault(s.true_freq_hz, []).append(rows[-1][:4] + rows[-1][6:10])
        elif cell.success:
            for peak in cell.mode_peaks_hz:
                rows.append(base + (None, None, peak, None, None, cell.wall_ms))
        else:
            rows.append(base + (None, None, None, None, None, cell.wall_ms))

    with open(out / "summary.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_csv_field(v) for v in row) + "\n")
    paths["summary"] = out / "summary.csv"

    for freq, entries in sorted(per_component.items()):
        name = f"component_{freq:g}hz.csv"
        with open(out / name, "w", encoding="utf-8") as fh:
            fh.write("snr_db,seed,alpha,diff_order,matched,peak_freq_hz,correlation,rmse\n")
            for e in entries:
                fh.write(",".join(_csv_field(v) for v in e) + "\n")
        paths[name] = out / name
    return paths
