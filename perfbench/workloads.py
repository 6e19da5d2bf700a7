"""The three benchmark workloads.

Each workload makes its inputs from the seed before anything is timed, and
the program sees only those inputs.  A pass sends every request of the
workload once, in order, from one caller in one process (a closed loop):
the next request goes out only after the previous one returned.

``request`` is the timed call into the package's public API.  ``check`` runs
afterwards, untimed, and returns a fingerprint of the outputs (compared
against the reference pass, so reruns and traced runs must match it), a list
of problems (any problem fails the request), and the tone scores that feed
``match_ratio`` and ``mean_corr``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import rmd.bench
import rmd.cli
import rmd.modes
from rmd.modes import DecompositionConfig
from rmd.signals import TimeSeries

# modes plus residual must give back the input to this share of max |x|
COMPLETENESS_RTOL = 1e-9


@dataclass
class Checked:
    fingerprint: Any
    ran: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    tones: list[tuple[bool, float | None]] = field(default_factory=list)


def _noisy(clean: np.ndarray, snr_db: float, rng) -> np.ndarray:
    sigma = np.sqrt(np.mean(clean**2) / 10.0 ** (snr_db / 10.0))
    return clean + sigma * rng.standard_normal(clean.size)


def _completeness(x: np.ndarray, parts: list[np.ndarray]) -> str | None:
    err = float(np.abs(np.sum(parts, axis=0) - x).max())
    scale = float(np.abs(x).max())
    if err > COMPLETENESS_RTOL * scale:
        return f"modes + residual differ from the input by {err:.3e} (max |x| {scale:.3e})"
    return None


def _corr(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    return abs(float(a @ b)) / float(np.linalg.norm(a) * np.linalg.norm(b))


def _score_tones(peaks: list[float | None], modes: list[np.ndarray],
                 truths: list[tuple[float, np.ndarray]], tol_hz: float):
    """Match each true tone to the mode whose peak is nearest, within ``tol_hz``."""
    scores = []
    for f, clean in truths:
        near = [(abs(p - f), i) for i, p in enumerate(peaks) if p is not None]
        if near and min(near)[0] <= tol_hz:
            scores.append((True, _corr(modes[min(near)[1]], clean)))
        else:
            scores.append((False, None))
    return scores


# Readers of what a wrapped call did.  They reach into the package's types,
# which a refactor may change; the tracer turns a failed read into an absent
# metric.
def _solve_info(args, kwargs, basis):
    G = args[0] if args else kwargs["G"]
    k = getattr(G, "matrix", G).shape[0]
    return {"k": k, "k3": float(k) ** 3, "negligible": _negligible(basis)}


def _negligible(basis) -> int | None:
    # the array-native basis planned for the spectral core keeps a flag array;
    # the current one keeps a flag per EigenPair
    flags = getattr(basis, "negligible", None)
    if flags is None:
        pairs = getattr(basis, "pairs", None)
        if pairs is None:
            return None
        flags = [p.negligible for p in pairs]
    return int(np.sum(flags))


def _hankel_info(args, kwargs, X):
    return {"k": args[1] if len(args) > 1 else kwargs["K"]}


def _cluster_info(args, kwargs, result):
    merged = result[0]
    return {"absorbed": sum(len(m.member_indices) - 1 for m in merged)}


def _read_info(args, kwargs, result):
    return {"bytes": Path(args[0] if args else kwargs["path"]).stat().st_size}


def _write_info(args, kwargs, result):
    out = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
    return {"bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file())}


# (module, attribute, span name, info reader) for every function the traced
# run wraps.  Spans named after the layer metrics they feed.
WRAPS = [
    ("rmd.modes", "select_embedding_dimension", "embedding.select_k", None),
    ("rmd.modes", "build_trajectory_matrix", "embedding.hankel", _hankel_info),
    ("rmd.modes", "gram", "eigen.gram", None),
    ("rmd.modes", "diff_operator", "eigen.operator", None),
    ("rmd.modes", "smoothing_matrix", "eigen.operator", None),
    ("rmd.modes", "augmented", "eigen.operator", None),
    ("rmd.modes", "solve_generalized", "eigen.solve", _solve_info),
    ("rmd.modes", "cluster_and_merge", "modes.cluster", _cluster_info),
    ("rmd.modes", "similarity", "modes.similarity", None),
    ("rmd.modes", "diagonal_average", "embedding.diag_avg", None),
    ("rmd.modes", "periodogram", "signals.periodogram", None),
    ("rmd.bench", "periodogram", "signals.periodogram", None),
    ("rmd.bench", "rmd_decompose", "modes.decompose", None),
    ("rmd.bench", "score_mode", "signals.score", None),
    ("rmd.bench", "match_modes_to_truths", "bench.match", None),
    ("rmd.bench", "add_noise_at_snr", "signals.noise", None),
    ("rmd.cli", "_load_series", "signals.csv_read", _read_info),
    ("rmd.cli", "rmd_decompose", "modes.decompose", None),
    ("rmd.cli", "write_modeset", "modes.write", _write_info),
]


class Sweep:
    """The two bundled specs, each through run_experiment then write_report.

    Every cell shares K=200 and uses spectral similarity with r=4 or r=8.
    One request is one spec; the noise seeds of its cells come from the
    benchmark seed.
    """

    name = "sweep"
    SPECS = ("sine_snr.json", "nonlinear.json")

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool):
        self.specs = []
        for name in self.SPECS:
            doc = json.loads((root / "specs" / name).read_text(encoding="utf-8"))
            n_seeds = 1 if tiny else len(doc["seeds"])
            doc["seeds"] = [seed * 1000 + i for i in range(n_seeds)]
            self.specs.append(rmd.bench.ExperimentSpec.from_dict(doc))
        self.outs = [work / "sweep" / Path(name).stem for name in self.SPECS]

    def __len__(self) -> int:
        return len(self.specs)

    def request(self, i: int, span):
        with span("bench.run_experiment") as s:
            report = rmd.bench.run_experiment(self.specs[i])
        s.info = {"failed_cells": sum(not c.success for c in report.cells)}
        with span("bench.write_report") as s:
            paths = rmd.bench.write_report(report, self.outs[i])
        s.info = {"bytes": sum(Path(p).stat().st_size for p in paths.values())}
        return report

    def check(self, i: int, report) -> Checked:
        text = (self.outs[i] / "report.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        for cell in doc["cells"]:
            cell.pop("wall_ms")
        out = Checked(fingerprint=doc, ran=["report_read_back", "no_failed_cells"])
        if rmd.bench.ExperimentReport.from_json(text) != report:
            out.problems.append("report.json does not read back as the in-memory report")
        failed = [c["error"] for c in doc["cells"] if not c["success"]]
        if failed:
            out.problems.append(f"{len(failed)} failed cell(s), first: {failed[0]}")
        for cell in doc["cells"]:
            for s in cell["scores"]:
                out.tones.append((bool(s["within_peak_tol"]),
                                  s["correlation"] if s["within_peak_tol"] else None))
        return out


class LongWindow:
    """The criterion-11 radar signal at K=682: the O(K^3) case.

    0.3 Hz (amplitude 1) and 1.2 Hz (amplitude 0.5) tones with random
    phases, N=2048 at 100 Hz, 0 dB white noise; one noise draw per request.
    """

    name = "long_window"
    FS = 100.0
    TONES = ((0.3, 1.0), (1.2, 0.5))
    TOL_HZ = 0.1

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 1])
        n, k, count = (512, 170, 2) if tiny else (2048, 682, 8)
        self.config = DecompositionConfig(n_modes=4, K_override=k, alpha=2.0)
        self.inputs, self.truths = [], []
        t = np.arange(n) / self.FS
        for _ in range(count):
            truths = [(f, a * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi)))
                      for f, a in self.TONES]
            clean = sum(c for _, c in truths)
            self.inputs.append(TimeSeries(_noisy(clean, 0.0, rng), self.FS))
            self.truths.append(truths)

    def __len__(self) -> int:
        return len(self.inputs)

    def request(self, i: int, span):
        with span("modes.decompose"):
            return rmd.modes.rmd_decompose(self.inputs[i], self.config)

    def check(self, i: int, ms) -> Checked:
        parts = [m.samples for m in ms.modes] + [ms.residual.samples]
        digest = hashlib.sha256()
        for p in parts:
            digest.update(np.ascontiguousarray(p).tobytes())
        out = Checked(fingerprint=digest.hexdigest(), ran=["completeness"])
        problem = _completeness(self.inputs[i].samples, parts)
        if problem:
            out.problems.append(problem)
        peaks = [e.peak_frequency_hz for e in ms.report]
        out.tones = _score_tones(peaks, parts[:-1], self.truths[i], self.TOL_HZ)
        return out


class CliFiles:
    """In-process ``rmd decompose f -r 3 --out d`` over CSV files with sidecars.

    Each file holds two tones in 0 dB noise at 100 Hz.  N is spread over
    1000-4000 and the dominant tone over 0.7-15 Hz, so the default K
    heuristic (no -K) lands between about 8 and 170 and differs per file.
    The files are written before anything is timed.
    """

    name = "cli_files"
    FS = 100.0
    K_RANGE = (8, 170)
    N_RANGE = (1000, 4000)
    SECOND = (2.5, 0.7)  # second tone: frequency ratio to the first, amplitude

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 2])
        count = 3 if tiny else 24
        # Stratified K and N in a fixed pairing, so every seed asks for the same
        # spread of work; the seed jitters them and orders the files.
        ks = np.geomspace(*self.K_RANGE, count) * rng.uniform(0.97, 1.03, count)
        ns = np.linspace(*self.N_RANGE, count).astype(int)[::-1] + rng.integers(0, 50, count)
        order = rng.permutation(count)
        ks, ns = ks[order], ns[order]
        src = work / "cli" / "in"
        src.mkdir(parents=True)
        self.files, self.outs, self.inputs, self.truths, self.tol_hz = [], [], [], [], []
        for j, (k, n) in enumerate(zip(ks, ns)):
            f1 = 1.2 * self.FS / k
            self.tol_hz.append(max(0.1 * f1, 2 * self.FS / n))  # 10% or two bins
            t = np.arange(n) / self.FS
            truths = [(f, a * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi)))
                      for f, a in ((f1, 1.0), (f1 * self.SECOND[0], self.SECOND[1]))]
            x = _noisy(sum(c for _, c in truths), 0.0, rng)
            path = src / f"signal_{j:02d}.csv"
            path.write_text("value\n" + "".join(f"{v!r}\n" for v in x.tolist()),
                            encoding="utf-8")
            path.with_suffix(".json").write_text(
                json.dumps({"sample_rate_hz": self.FS}) + "\n", encoding="utf-8")
            self.files.append(path)
            self.outs.append(work / "cli" / "out" / path.stem)
            self.inputs.append(x)
            self.truths.append(truths)
        self.captured = io.StringIO()

    def __len__(self) -> int:
        return len(self.files)

    def request(self, i: int, span):
        argv = ["decompose", str(self.files[i]), "-r", "3", "--out", str(self.outs[i])]
        self.captured.seek(0)
        self.captured.truncate()
        with contextlib.redirect_stdout(self.captured), \
                contextlib.redirect_stderr(self.captured):
            with span("cli.main") as s:
                code = rmd.cli.main(argv)
        s.info = {"nonzero": int(code != 0)}
        return code

    def check(self, i: int, code) -> Checked:
        out = self.outs[i]
        digest = hashlib.sha256()
        checked = Checked(fingerprint=None, ran=["exit_code"])
        if code != 0:
            checked.problems.append(f"exit code {code}: {self.captured.getvalue().strip()}")
            return checked
        try:
            doc_text = (out / "decomposition.json").read_text(encoding="utf-8")
            doc = json.loads(doc_text)
            names = [m["file"] for m in doc["modes"]] + [doc["residual_file"]]
            parts = []
            digest.update(doc_text.encode())
            for name in names:
                text = (out / name).read_text(encoding="utf-8")
                digest.update(text.encode())
                parts.append(np.array(text.split()[1:], dtype=np.float64))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            checked.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
            return checked
        checked.fingerprint = digest.hexdigest()
        checked.ran += ["decomposition_json", "completeness"]
        problem = _completeness(self.inputs[i], parts)
        if problem:
            checked.problems.append(problem)
        peaks = [m["peak_frequency_hz"] for m in doc["modes"]]
        checked.tones = _score_tones(peaks, parts[:-1], self.truths[i], self.tol_hz[i])
        return checked


WORKLOADS = {w.name: w for w in (Sweep, LongWindow, CliFiles)}
