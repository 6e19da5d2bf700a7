"""Signal containers, synthetic generators, noise injection and spectral scoring.

Everything here operates on uniformly sampled real-valued series. All
functions are pure; returned arrays are read-only so values can be shared
across threads.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np


class CsvFormatError(ValueError):
    """Raised when a signal CSV file cannot be parsed."""


# each kind of value read from outside: the types it admits, and the words that name it
_KINDS = {"integer": (int, "an integer"), "number": (numbers.Real, "a number"),
          "flag": (bool, "true or false"), "list": ((list, tuple), "a list")}


def checked(name: str, value, kind: str):
    """``value`` if it is of ``kind``, one of ``_KINDS``, else a ValueError that
    names ``name``.  A bool is a flag only, never an integer or a number; an
    integer past the float64 range is not a number."""
    types, noun = _KINDS[kind]
    if not isinstance(value, types) or kind in ("integer", "number") and isinstance(value, bool):
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    if kind == "number" and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{name} must be a number in the float64 range")
    return value


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
        rate = float(checked("sample_rate", self.sample_rate, "number"))
        object.__setattr__(self, "sample_rate", rate)
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
    squared sample of the originating signal.
    """

    frequencies: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frequencies", _frozen(self.frequencies))
        object.__setattr__(self, "power", _frozen(self.power))


@dataclass(frozen=True)
class ModeMetrics:
    """Scores of a recovered mode against a reference component."""

    peak_frequency: float | None
    correlation: float
    rmse: float


# the most samples a generator makes: 500 times the paper's N=2000, at 8 MB a
# series, where rate x duration can otherwise ask for any amount of memory
MAX_GENERATED_SAMPLES = 1_000_000


def _n_samples(sample_rate: float, duration: float) -> int:
    if not (duration > 0 and sample_rate > 0):
        raise ValueError("duration and sample_rate must be positive")
    if duration * sample_rate > MAX_GENERATED_SAMPLES:
        raise ValueError(f"duration * sample_rate = {duration * sample_rate:.3g} samples; "
                         f"at most {MAX_GENERATED_SAMPLES} can be generated")
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
    with np.errstate(over="ignore", invalid="ignore"):  # TimeSeries rejects inf and nan
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
    with np.errstate(over="ignore", invalid="ignore"):  # TimeSeries rejects inf and nan
        am = 2.0 * np.sin(2 * np.pi * f1 * t) * (1.0 + 0.5 * np.sin(2 * np.pi * f_mod * t))
        carrier2 = np.sin(2 * np.pi * f2 * t)
        carrier3 = np.cos(2 * np.pi * f3 * t)
    parts = [TimeSeries(p, sample_rate) for p in (am, carrier2, carrier3)]
    return TimeSeries(am + carrier2 + carrier3, sample_rate), parts


def unit_scaled(samples: np.ndarray) -> tuple[np.ndarray, int]:
    """samples / 2**s with max|samples| / 2**s in [0.5, 1) (s = 0 for zeros), and s.
    The scaling is exact, so powers taken on the result cannot overflow and
    scale back exactly."""
    shift = math.frexp(float(np.abs(samples).max()))[1]
    return np.ldexp(samples, -shift), shift


def add_noise_at_snr(
    x: TimeSeries, snr_db: float, seed: int
) -> tuple[TimeSeries, TimeSeries]:
    """Add zero-mean Gaussian white noise at a target SNR.

    The noise variance is ``mean(x**2) / 10**(snr_db / 10)``.  Samples are
    drawn from numpy's PCG64 generator (``numpy.random.default_rng(seed)``),
    so a fixed seed reproduces the noise bit for bit.  The power is taken on
    x / 2**s with max|x| / 2**s in [0.5, 1) and sigma scaled back by 2**s,
    which is exact, so no finite signal overflows in it.  An SNR whose noise
    leaves the float64 range or rounds to 0 (as at +inf dB) raises ValueError.

    Returns
    -------
    (noisy, noise) : tuple of TimeSeries
        ``noisy = x + noise`` element-wise.
    """
    scaled, shift = unit_scaled(x.samples)
    power = float(np.mean(scaled**2))
    if power == 0.0:
        raise ValueError("signal has zero power; SNR is undefined")
    try:  # past about +-3080 dB, 10**(snr/10) or sigma leaves the float64 range
        sigma = math.ldexp(math.sqrt(power / 10.0 ** (snr_db / 10.0)), shift)
    except (OverflowError, ZeroDivisionError):
        sigma = math.inf
    if not 0 < sigma < math.inf:
        raise ValueError(f"noise at snr_db={snr_db:g} is outside the float64 range")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # an inf sample is rejected by TimeSeries
        noise = sigma * rng.standard_normal(len(x))
        return x.with_samples(x.samples + noise), x.with_samples(noise)


def periodogram_power(rows: np.ndarray) -> np.ndarray:
    """The one-sided periodogram power of each row of a 2-D array, by one ``rfft``.
    Power per bin is ``|DFT|**2 / N**2`` with interior bins doubled, so the
    bin powers sum to the row's mean squared sample (Parseval).  An on-grid
    sinusoid of amplitude A therefore shows a single bin of power A**2 / 2,
    and a bin whose power exceeds the float64 range reads inf.
    """
    n = rows.shape[-1]
    spec = np.fft.rfft(rows, axis=-1)
    with np.errstate(over="ignore"):
        power = (spec.real**2 + spec.imag**2) / (n * n)
        # double every bin that has a negative-frequency twin
        power[:, 1:] *= 2.0
    if n % 2 == 0:
        power[:, -1] /= 2.0  # Nyquist bin is its own twin
    return power


def periodogram(x: TimeSeries) -> Spectrum:
    """Plain (unwindowed, unpadded) periodogram: one row of ``periodogram_power``."""
    return Spectrum(np.fft.rfftfreq(len(x), d=1.0 / x.sample_rate),
                    periodogram_power(x.samples[None])[0])


def row_peaks(power: np.ndarray, freqs: np.ndarray, dc: bool = False) -> list[float | None]:
    """``dominant_frequency`` of each row of ``power`` (at least 2 bins) on the
    grid ``freqs``; with ``dc``, a row whose positive 0 Hz bin is its strongest
    peaks at 0.0 instead.  A strongest non-DC bin below eps**2 * bins times the
    row's total power is DFT rounding, as a constant row's are: no peak."""
    body = power[:, 1:]
    k = np.argmax(body, axis=1)
    best = body[np.arange(k.size), k]
    with np.errstate(over="ignore"):  # a total past the float64 range: only inf bins peak
        floor = np.finfo(float).eps ** 2 * power.shape[1] * power.sum(axis=1)
    some = (best > 0) & (best >= floor)
    at_dc = dc & (power[:, 0] > 0) & (power[:, 0] >= power.max(axis=1))
    return [0.0 if z else float(freqs[1 + j]) if s else None
            for z, s, j in zip(at_dc.tolist(), some.tolist(), k.tolist())]


def dominant_frequency(s: Spectrum) -> float | None:
    """Frequency of the strongest non-DC bin (ties break low), or None if there is none."""
    return row_peaks(s.power[None], s.frequencies)[0] if s.power.size >= 2 else None


def score_rows(candidates: np.ndarray, truths: np.ndarray,
               sample_rate: float) -> tuple[list[ModeMetrics], np.ndarray]:
    """``score_mode`` of each row pair of two (p, N) arrays in one pass, and each candidate's
    power on its pair's ``unit_scaled`` scale; a zero-variance row raises ValueError."""
    pairs = np.stack([candidates, truths], axis=1)
    shift = np.frexp(np.abs(pairs).max(axis=(1, 2)))[1]
    a, b = np.moveaxis(np.ldexp(pairs, -shift[:, None, None]), 1, 0)
    # each centred row on its own unit scale, where no square underflows
    da, db = (np.ldexp(d, -np.frexp(np.abs(d).max(axis=1, keepdims=True))[1])
              for d in (a - a.mean(axis=1, keepdims=True), b - b.mean(axis=1, keepdims=True)))
    # one BLAS dot per row and product, each rounding as da[i] @ db[i] does
    ab, aa, bb = np.matmul(np.stack([da, da, db])[:, :, None],
                           np.stack([db, da, db])[..., None])[..., 0, 0]
    if not (np.all(aa > 0) and np.all(bb > 0)):
        raise ValueError("zero-variance input; correlation undefined")
    # rounding can push a perfect correlation a ULP past 1
    r = np.clip(ab / (np.sqrt(aa) * np.sqrt(bb)), -1.0, 1.0)
    sign = np.where(r < 0, -1.0, 1.0)[:, None]
    with np.errstate(over="ignore"):  # an RMSE past the float64 range reads inf
        rmse = np.ldexp(np.sqrt(np.mean((sign * a - b) ** 2, axis=1)), shift)
    power = periodogram_power(a)
    peaks = row_peaks(power, np.fft.rfftfreq(a.shape[1], d=1.0 / sample_rate))
    return [ModeMetrics(p, abs(c), e) for p, c, e in zip(peaks, r.tolist(), rmse.tolist())], power


def score_mode(candidate: TimeSeries, truth: TimeSeries) -> ModeMetrics:
    """Score a recovered mode against its ground-truth component.

    Eigenvector sign is arbitrary, so the candidate's sign is chosen to
    maximize the Pearson correlation; the correlation is reported as an
    absolute value and the RMSE is computed after that alignment.  Both are
    scored on the pair's ``unit_scaled`` samples and the RMSE scaled back, so
    any finite magnitude scores without overflow: the one-pair ``score_rows``.
    """
    if len(candidate) != len(truth) or candidate.sample_rate != truth.sample_rate:
        raise ValueError("candidate and truth must share length and sample rate")
    return score_rows(candidate.samples[None], truth.samples[None], truth.sample_rate)[0][0]


# ---------------------------------------------------------------------------
# CSV format: optional header; either one value per line or two columns
# `time,value` (the time column is only validated for uniform spacing).
# The sample rate travels out of band: a flag, or a sidecar JSON file
# `{"sample_rate_hz": <number>}`.


def _parse_rows(rows: list[str], ncols: int) -> np.ndarray | None:
    """The stripped, non-blank ``rows`` as an (n, ncols) array of finite
    floats, or None when a row has another column count, a field that does
    not parse, or a non-finite value."""
    if ncols not in (1, 2):
        return None
    if ncols == 1:
        fields = rows  # a comma makes ``float`` fail: the walk names it
    elif any(row.count(",") != 1 for row in rows):
        return None
    else:
        fields = map(str.strip, ",".join(rows).split(","))
    try:
        table = np.array(list(map(float, fields)), dtype=np.float64)
    except ValueError:
        return None
    return table.reshape(-1, ncols) if np.isfinite(table).all() else None


def _raise_at_bad_line(path: Path, lines: list[str], skip: int, ncols: int) -> NoReturn:
    """Raise the ``CsvFormatError`` naming ``path`` and its first malformed data
    line: the non-blank lines of ``lines`` after the first ``skip``, 1-based."""
    numbered = [(n, line) for n, line in enumerate(map(str.strip, lines), start=1) if line]
    for lineno, line in numbered[skip:]:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != ncols or ncols not in (1, 2):
            expected = f"{ncols} column(s)" if ncols in (1, 2) else "1 or 2 columns"
            raise CsvFormatError(f"{path}: line {lineno}: expected {expected}, "
                                 f"got {len(fields)}")
        for token in fields:
            try:
                value = float(token)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: line {lineno}: cannot parse {token!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise CsvFormatError(f"{path}: line {lineno}: non-finite value {token!r}")
    raise AssertionError("no malformed line to report")


def read_timeseries_csv(path: str | Path, sample_rate_hz: float) -> TimeSeries:
    """Read a signal CSV file.

    The file is read and split once, and every field parsed in one pass;
    only a malformed file is walked line by line, to name the line.

    Raises
    ------
    CsvFormatError
        On unparsable or non-finite values (with the offending line number),
        inconsistent column counts, non-uniform time spacing, text that is not
        UTF-8, or an empty file; every message starts with the path.
    OSError
        If the file cannot be read.
    ValueError
        If the rate is not finite and positive, or so small that 1 / rate or
        N / rate leaves the float64 range and every frequency bin reads 0 Hz.
    """
    path = Path(path)
    try:
        # a leading byte-order mark is dropped; \r\n and \r read as \n
        lines = path.read_text(encoding="utf-8-sig").split("\n")
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text: {exc.reason}") from None
    rows = [line for line in map(str.strip, lines) if line]
    if not rows:
        raise CsvFormatError(f"{path}: empty file")

    # an unparsable first row is treated as a header
    skip = 0
    try:
        [float(f.strip()) for f in rows[0].split(",")]
    except ValueError:
        skip = 1
        rows = rows[1:]
        if not rows:
            raise CsvFormatError(f"{path}: no data rows after header")

    ncols = rows[0].count(",") + 1
    table = _parse_rows(rows, ncols)
    if table is None:
        _raise_at_bad_line(path, lines, skip, ncols)

    if len(table) < 2:
        raise CsvFormatError(f"{path}: need at least 2 samples, got {len(table)}")
    if ncols == 2:
        dt = np.diff(table[:, 0])
        ref = float(np.mean(dt))
        if ref <= 0 or np.max(np.abs(dt - ref)) > 1e-6 * abs(ref):
            raise CsvFormatError(f"{path}: time column is not uniformly spaced")
    x = TimeSeries(table[:, -1], sample_rate_hz)
    if not (np.diff(np.fft.rfftfreq(len(x), 1.0 / x.sample_rate)) > 0).all():
        raise ValueError(f"sample rate {x.sample_rate:g} Hz collapses the frequency grid "
                         f"of {len(x)} samples")
    return x


def write_timeseries_csv(x: TimeSeries, path: str | Path) -> None:
    """Write a ``value`` header, then one value per line, shortest round-trip
    decimal representation."""
    Path(path).write_text(
        "value\n" + "\n".join(map(repr, x.samples.tolist())) + "\n", encoding="utf-8"
    )


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
        doc = json.loads(p.read_text(encoding="utf-8-sig"))
        rate = float(checked("sample_rate_hz", doc["sample_rate_hz"], "number"))
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
        return None
    return rate if math.isfinite(rate) and rate > 0 else None


def write_spectrum_csv(s: Spectrum, path: str | Path) -> None:
    rows = zip(s.frequencies.tolist(), s.power.tolist())
    Path(path).write_text(
        "frequency_hz,power\n" + "".join(f"{f!r},{p!r}\n" for f, p in rows), encoding="utf-8"
    )
