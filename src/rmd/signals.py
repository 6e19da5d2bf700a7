"""Signal containers, synthetic generators, noise injection and spectral scoring.

Everything here operates on uniformly sampled real-valued series. All
functions are pure; returned arrays are read-only so values can be shared
across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class CsvFormatError(ValueError):
    """Raised when a signal CSV file cannot be parsed."""


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A uniformly sampled real-valued signal.

    Parameters
    ----------
    samples : array_like
        The sample values. At least two are required and all must be finite.
    sample_rate : float
        Sampling frequency in Hz, strictly positive and finite.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen(np.atleast_1d(self.samples)))
        object.__setattr__(self, "sample_rate", float(self.sample_rate))
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise ValueError("a time series needs at least 2 samples")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("time series samples must all be finite")
        if not math.isfinite(self.sample_rate) or self.sample_rate <= 0:
            raise ValueError("sample_rate must be finite and positive")

    def __len__(self) -> int:
        return self.samples.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self.sample_rate == other.sample_rate and np.array_equal(
            self.samples, other.samples
        )

    @property
    def duration(self) -> float:
        """Signal duration in seconds (N / sample_rate)."""
        return self.samples.size / self.sample_rate

    @property
    def times(self) -> np.ndarray:
        """Sample instants n / sample_rate."""
        return np.arange(self.samples.size) / self.sample_rate

    def with_samples(self, samples: np.ndarray) -> "TimeSeries":
        """A new series with the same rate and different samples."""
        return TimeSeries(samples, self.sample_rate)


@dataclass(frozen=True)
class SineComponent:
    """One sinusoidal constituent: amplitude * sin(2*pi*frequency*t + phase)."""

    frequency: float
    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if self.frequency < 0:
            raise ValueError("frequency must be >= 0")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One-sided power spectrum on the grid 0..Nyquist.

    ``power`` holds mean-square power per bin: interior bins carry the
    doubled (one-sided) contribution, so ``power.sum()`` equals the mean
    squared sample of the originating signal.  The scaling convention is
    echoed in ``convention`` so emitted files are self-describing.
    """

    frequencies: np.ndarray
    power: np.ndarray
    convention: str = field(
        default="one-sided periodogram; interior bins doubled; "
        "sum of power equals mean squared sample"
    )

    def __post_init__(self):
        object.__setattr__(self, "frequencies", _frozen(self.frequencies))
        object.__setattr__(self, "power", _frozen(self.power))
        if self.frequencies.size != self.power.size or self.frequencies.size == 0:
            raise ValueError("frequencies and power must be equal-length, non-empty")
        if self.frequencies[0] != 0.0 or np.any(np.diff(self.frequencies) <= 0):
            raise ValueError("frequency grid must increase strictly from 0")
        if np.any(self.power < 0):
            raise ValueError("power must be nonnegative")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return np.array_equal(self.frequencies, other.frequencies) and np.array_equal(
            self.power, other.power
        )


@dataclass(frozen=True)
class ModeMetrics:
    """Scores of a recovered mode against a reference component."""

    peak_frequency: float | None
    correlation: float
    rmse: float

    def __post_init__(self):
        if not -1.0 <= self.correlation <= 1.0:
            raise ValueError("correlation must lie in [-1, 1]")
        if self.rmse < 0:
            raise ValueError("rmse must be >= 0")


def _n_samples(sample_rate: float, duration: float) -> int:
    if duration <= 0 or sample_rate <= 0:
        raise ValueError("duration and sample_rate must be positive")
    n = int(round(duration * sample_rate))
    if n < 2:
        raise ValueError("duration * sample_rate must be at least 2 samples")
    return n


def gen_sinusoid_mixture(
    components: list[SineComponent] | tuple[SineComponent, ...],
    sample_rate: float,
    duration: float,
) -> tuple[TimeSeries, list[TimeSeries]]:
    """Sum of sinusoids plus the individual ground-truth components.

    The mixture is ``sum_k A_k sin(2 pi f_k n / Fs + phi_k)`` sampled at
    n = 0..N-1.  The returned component list preserves input order and the
    mixture equals their element-wise sum exactly.
    """
    if not components:
        raise ValueError("at least one component is required")
    n = _n_samples(sample_rate, duration)
    t = np.arange(n) / sample_rate
    parts = [
        TimeSeries(c.amplitude * np.sin(2 * np.pi * c.frequency * t + c.phase), sample_rate)
        for c in components
    ]
    total = np.zeros(n)
    for p in parts:
        total = total + p.samples
    return TimeSeries(total, sample_rate), parts


def gen_am_mixture(
    f1: float,
    f2: float,
    f3: float,
    f_mod: float,
    sample_rate: float,
    duration: float,
) -> tuple[TimeSeries, list[TimeSeries]]:
    """Amplitude-modulated test mixture with two plain carriers.

    Components, in order: ``2 sin(2 pi f1 t) (1 + 0.5 sin(2 pi f_mod t))``,
    ``sin(2 pi f2 t)`` and ``cos(2 pi f3 t)``.  The mixture is their sum.
    """
    n = _n_samples(sample_rate, duration)
    t = np.arange(n) / sample_rate
    am = 2.0 * np.sin(2 * np.pi * f1 * t) * (1.0 + 0.5 * np.sin(2 * np.pi * f_mod * t))
    carrier2 = np.sin(2 * np.pi * f2 * t)
    carrier3 = np.cos(2 * np.pi * f3 * t)
    parts = [TimeSeries(p, sample_rate) for p in (am, carrier2, carrier3)]
    return TimeSeries(am + carrier2 + carrier3, sample_rate), parts


def add_noise_at_snr(
    x: TimeSeries, snr_db: float, seed: int
) -> tuple[TimeSeries, TimeSeries]:
    """Add zero-mean Gaussian white noise at a target SNR.

    The noise variance is ``mean(x**2) / 10**(snr_db / 10)``.  Samples are
    drawn from numpy's PCG64 generator (``numpy.random.default_rng(seed)``),
    so a fixed seed reproduces the noise bit for bit.

    Returns
    -------
    (noisy, noise) : tuple of TimeSeries
        ``noisy = x + noise`` element-wise.
    """
    power = float(np.mean(x.samples**2))
    if power == 0.0:
        raise ValueError("signal has zero power; SNR is undefined")
    sigma = math.sqrt(power / 10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(seed)
    noise = sigma * rng.standard_normal(len(x))
    return x.with_samples(x.samples + noise), x.with_samples(noise)


def periodogram(x: TimeSeries) -> Spectrum:
    """Plain (unwindowed, unpadded) one-sided periodogram.

    Power per bin is ``|DFT|**2 / N**2`` with interior bins doubled, so the
    bin powers sum to the signal's mean squared sample (Parseval).  An
    on-grid sinusoid of amplitude A therefore shows a single bin of power
    A**2 / 2, and a bin whose power exceeds the float64 range reads inf.
    """
    n = len(x)
    spec = np.fft.rfft(x.samples)
    with np.errstate(over="ignore"):
        power = (spec.real**2 + spec.imag**2) / (n * n)
        # double every bin that has a negative-frequency twin
        power[1:] *= 2.0
    if n % 2 == 0:
        power[-1] /= 2.0  # Nyquist bin is its own twin
    freqs = np.fft.rfftfreq(n, d=1.0 / x.sample_rate)
    return Spectrum(freqs, power)


def dominant_frequency(s: Spectrum) -> float | None:
    """Frequency of the strongest non-DC bin, or None if there is none.

    Ties break toward the lower frequency; the 0 Hz bin never wins.
    """
    if s.power.size < 2:
        return None
    body = s.power[1:]
    if not np.any(body > 0):
        return None
    return float(s.frequencies[1 + int(np.argmax(body))])


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation coefficient of two equal-length sequences."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    da = a - a.mean()
    db = b - b.mean()
    na = np.linalg.norm(da)
    nb = np.linalg.norm(db)
    if na == 0 or nb == 0:
        raise ValueError("zero-variance input; correlation undefined")
    return float(da @ db / (na * nb))


def score_mode(candidate: TimeSeries, truth: TimeSeries) -> ModeMetrics:
    """Score a recovered mode against its ground-truth component.

    Eigenvector sign is arbitrary, so the candidate's sign is chosen to
    maximize the Pearson correlation; the correlation is reported as an
    absolute value and the RMSE is computed after that alignment.
    """
    if len(candidate) != len(truth) or candidate.sample_rate != truth.sample_rate:
        raise ValueError("candidate and truth must share length and sample rate")
    # rounding can push a perfect correlation a ULP past 1
    r = max(-1.0, min(1.0, pearson(candidate.samples, truth.samples)))
    sign = -1.0 if r < 0 else 1.0
    aligned = sign * candidate.samples
    rmse = float(np.sqrt(np.mean((aligned - truth.samples) ** 2)))
    peak = dominant_frequency(periodogram(candidate))
    return ModeMetrics(peak_frequency=peak, correlation=abs(r), rmse=rmse)


# ---------------------------------------------------------------------------
# CSV format: optional header; either one value per line or two columns
# `time,value` (the time column is only validated for uniform spacing).
# The sample rate travels out of band: a flag, or a sidecar JSON file
# `{"sample_rate_hz": <number>}`.


def _parse_float(token: str, lineno: int) -> float:
    try:
        v = float(token)
    except ValueError:
        raise CsvFormatError(f"line {lineno}: cannot parse {token!r} as a number") from None
    if not math.isfinite(v):
        raise CsvFormatError(f"line {lineno}: non-finite value {token!r}")
    return v


def read_timeseries_csv(path: str | Path, sample_rate_hz: float) -> TimeSeries:
    """Read a signal CSV file.

    Raises
    ------
    CsvFormatError
        On unparsable or non-finite values (with the offending line number),
        inconsistent column counts, non-uniform time spacing, or an empty file.
    OSError
        If the file cannot be read.
    """
    path = Path(path)
    rows: list[tuple[int, list[str]]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            rows.append((lineno, [f.strip() for f in line.split(",")]))
    if not rows:
        raise CsvFormatError(f"{path}: empty file")

    # an unparsable first row is treated as a header
    first_fields = rows[0][1]
    try:
        [float(f) for f in first_fields]
    except ValueError:
        rows = rows[1:]
        if not rows:
            raise CsvFormatError(f"{path}: no data rows after header")

    ncols = len(rows[0][1])
    if ncols not in (1, 2):
        raise CsvFormatError(f"line {rows[0][0]}: expected 1 or 2 columns, got {ncols}")
    times = []
    values = []
    for lineno, fields in rows:
        if len(fields) != ncols:
            raise CsvFormatError(
                f"line {lineno}: expected {ncols} column(s), got {len(fields)}"
            )
        if ncols == 2:
            times.append(_parse_float(fields[0], lineno))
            values.append(_parse_float(fields[1], lineno))
        else:
            values.append(_parse_float(fields[0], lineno))

    if len(values) < 2:
        raise CsvFormatError(f"{path}: need at least 2 samples, got {len(values)}")
    if ncols == 2:
        dt = np.diff(np.asarray(times))
        ref = float(np.mean(dt))
        if ref <= 0 or np.max(np.abs(dt - ref)) > 1e-6 * abs(ref):
            raise CsvFormatError(f"{path}: time column is not uniformly spaced")
    return TimeSeries(np.asarray(values), sample_rate_hz)


def write_timeseries_csv(x: TimeSeries, path: str | Path, header: bool = True) -> None:
    """Write one value per line, shortest round-trip decimal representation."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write("value\n")
        for v in x.samples:
            fh.write(repr(float(v)) + "\n")


def sidecar_path(csv_path: str | Path) -> Path:
    """The sample-rate sidecar for ``foo.csv`` is ``foo.json``."""
    return Path(csv_path).with_suffix(".json")


def write_sample_rate_sidecar(csv_path: str | Path, sample_rate_hz: float) -> Path:
    p = sidecar_path(csv_path)
    p.write_text(json.dumps({"sample_rate_hz": sample_rate_hz}) + "\n", encoding="utf-8")
    return p


def read_sample_rate_sidecar(csv_path: str | Path) -> float | None:
    """Sample rate from the sidecar JSON, or None if absent/invalid."""
    p = sidecar_path(csv_path)
    if not p.is_file():
        return None
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
        rate = float(doc["sample_rate_hz"])
    except (ValueError, KeyError, TypeError, json.JSONDecodeError):
        return None
    return rate if math.isfinite(rate) and rate > 0 else None


def write_spectrum_csv(s: Spectrum, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("frequency_hz,power\n")
        for f, p in zip(s.frequencies, s.power):
            fh.write(f"{float(f)!r},{float(p)!r}\n")
