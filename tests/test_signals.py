import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmd.signals import (
    MAX_GENERATED_SAMPLES,
    CsvFormatError,
    SineComponent,
    Spectrum,
    TimeSeries,
    add_noise_at_snr,
    dominant_frequency,
    gen_am_mixture,
    gen_sinusoid_mixture,
    periodogram,
    periodogram_power,
    read_sample_rate_sidecar,
    read_timeseries_csv,
    row_peaks,
    score_mode,
    score_rows,
    unit_scaled,
    write_spectrum_csv,
    write_timeseries_csv,
)

SQRT2_2 = 0.7071067811865476  # sin(pi/4), evaluated by hand


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0], 10.0)
        with pytest.raises(ValueError):
            TimeSeries([1.0, np.nan], 10.0)
        with pytest.raises(ValueError):
            TimeSeries([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            TimeSeries([1.0, 2.0], math.inf)

    @pytest.mark.parametrize("rate", [True, "100", None, [100.0]])
    def test_sample_rate_must_be_a_number(self, rate):
        with pytest.raises(ValueError, match="^sample_rate must be a number"):
            TimeSeries([1.0, 2.0], rate)

    def test_samples_read_only(self):
        x = TimeSeries([1.0, 2.0, 3.0], 10.0)
        with pytest.raises(ValueError):
            x.samples[0] = 9.0

    def test_equality(self):
        a = TimeSeries([1.0, 2.0], 10.0)
        assert a == TimeSeries([1.0, 2.0], 10.0)
        assert a != TimeSeries([1.0, 2.0], 20.0)

    def test_not_equal_to_other_types(self):
        assert (TimeSeries([1.0, 2.0], 10.0) == 5) is False

    def test_rate_that_collapses_the_frequency_grid_rejected(self):
        # 1 / rate overflows, so every frequency bin would read 0 Hz
        with pytest.raises(ValueError, match="collapses the frequency grid of 4 samples"):
            TimeSeries(np.ones(4), 1e-310)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 2000, 2048, 65537, 10**6])
    def test_grid_rule_matches_rfftfreq(self, n):
        # rates up to 12 ULPs either side of the one where N * (1 / rate) overflows, of
        # that rate times 1 -+ 1e-12, 1/2 and 2, subnormal rates, and the largest rates
        edge = n / sys.float_info.max
        rates = {edge, 5e-324, 1e-320, 1e-310, sys.float_info.min, 1.7e308, sys.float_info.max}
        for r in (edge, edge * (1 - 1e-12), edge * (1 + 1e-12), edge / 2, edge * 2):
            rates.update(float(r + step * np.spacing(r)) for step in range(-12, 13))
        samples = np.zeros(n)
        outcomes = set()
        for rate in sorted(rates):
            grid = bool((np.diff(np.fft.rfftfreq(n, 1.0 / rate)) > 0).all())
            try:
                TimeSeries(samples, rate)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == grid, rate
            outcomes.add(grid)
        assert outcomes == {True, False}


class TestSinusoidMixture:
    def test_benchmark_mixture_shape(self, three_tone):
        mixture, truths = three_tone
        assert len(mixture) == 2000
        assert len(truths) == 3
        assert mixture.sample_rate == 200.0

    def test_zero_amplitude_gives_zero_series(self):
        mixture, _ = gen_sinusoid_mixture([SineComponent(1.0, 0.0)], 10.0, 1.0)
        assert np.all(mixture.samples == 0.0)

    def test_unit_tone_hand_values(self):
        # sin(2*pi*n/8) for n = 0..7, evaluated by hand
        expected = [0.0, SQRT2_2, 1.0, SQRT2_2, 0.0, -SQRT2_2, -1.0, -SQRT2_2]
        mixture, _ = gen_sinusoid_mixture([SineComponent(1.0, 1.0, 0.0)], 8.0, 1.0)
        np.testing.assert_allclose(mixture.samples, expected, atol=1e-12)

    def test_mixture_is_exact_sum_of_components(self, three_tone):
        mixture, truths = three_tone
        total = sum(t.samples for t in truths)
        assert np.array_equal(mixture.samples, total) or np.max(
            np.abs(mixture.samples - total)
        ) == 0.0

    def test_empty_components_rejected(self):
        with pytest.raises(ValueError):
            gen_sinusoid_mixture([], 10.0, 1.0)
        with pytest.raises(ValueError):
            gen_sinusoid_mixture([SineComponent(1.0, 1.0)], 10.0, 0.0)

    def test_length_capped(self):
        # rate x duration past the cap is refused before anything is allocated
        cap = MAX_GENERATED_SAMPLES
        assert len(gen_sinusoid_mixture([SineComponent(1.0, 1.0)], float(cap), 1.0)[0]) == cap
        for rate, duration in ((cap + 1.0, 1.0), (1e12, 1000.0), (1e308, 1e308)):
            with pytest.raises(ValueError, match="at most"):
                gen_sinusoid_mixture([SineComponent(1.0, 1.0)], rate, duration)
            with pytest.raises(ValueError, match="at most"):
                gen_am_mixture(3.0, 8.0, 31.0, 0.5, rate, duration)


class TestAmMixture:
    def test_first_sample_is_one(self):
        # at t=0: 2 sin(0)(1 + ...) + sin(0) + cos(0) = 1
        mixture, _ = gen_am_mixture(3.0, 8.0, 31.0, 0.5, 200.0, 10.0)
        assert mixture.samples[0] == pytest.approx(1.0, abs=1e-15)

    def test_zero_modulation_reduces_to_plain_sine(self):
        _, truths = gen_am_mixture(3.0, 8.0, 31.0, 0.0, 200.0, 2.0)
        t = np.arange(400) / 200.0
        np.testing.assert_allclose(truths[0].samples, 2.0 * np.sin(2 * np.pi * 3.0 * t), atol=1e-12)

    def test_mixture_sums_components(self):
        mixture, truths = gen_am_mixture(3.0, 8.0, 31.0, 0.5, 200.0, 1.0)
        np.testing.assert_array_equal(
            mixture.samples, truths[0].samples + truths[1].samples + truths[2].samples
        )


class TestAddNoise:
    def test_zero_db_noise_power_near_signal_power(self, three_tone):
        mixture, _ = three_tone
        powers = []
        for seed in range(10):
            _, noise = add_noise_at_snr(mixture, 0.0, seed)
            powers.append(np.mean(noise.samples**2))
        assert np.mean(powers) == pytest.approx(np.mean(mixture.samples**2), rel=0.05)

    def test_minus15_db_variance_ratio(self):
        # 10**(15/10) = 31.6228: noise power ~ 31.6x signal power, 5% over 1e4 samples
        mixture, _ = gen_sinusoid_mixture(
            [SineComponent(2.0, 3.0), SineComponent(5.0, 0.5), SineComponent(19.0, 4.0)],
            1000.0,
            10.0,
        )
        assert len(mixture) == 10_000
        _, noise = add_noise_at_snr(mixture, -15.0, seed=7)
        ratio = np.mean(noise.samples**2) / np.mean(mixture.samples**2)
        assert ratio == pytest.approx(10 ** 1.5, rel=0.05)

    def test_deterministic_for_fixed_seed(self, three_tone):
        mixture, _ = three_tone
        a, na = add_noise_at_snr(mixture, -5.0, seed=3)
        b, nb = add_noise_at_snr(mixture, -5.0, seed=3)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(na.samples, nb.samples)

    def test_noisy_is_elementwise_sum(self, three_tone):
        mixture, _ = three_tone
        noisy, noise = add_noise_at_snr(mixture, -5.0, seed=0)
        np.testing.assert_array_equal(noisy.samples, mixture.samples + noise.samples)

    def test_huge_amplitude_is_scale_equivariant(self, three_tone):
        # squaring 2**660 (~5e198) overflows; any RuntimeWarning fails tier-1
        mixture, _ = three_tone
        c = 2.0 ** 660
        _, unit = add_noise_at_snr(mixture, -5.0, seed=3)
        _, noise = add_noise_at_snr(mixture.with_samples(c * mixture.samples), -5.0, seed=3)
        assert np.array_equal(noise.samples, c * unit.samples)

    @pytest.mark.parametrize("snr", [-4000.0, -3100.0, 4000.0, -1e4, 1e4, -math.inf, math.inf,
                                     math.nan])
    def test_snr_past_float_range_rejected(self, three_tone, snr):
        # 10 ** (snr / 10) underflows to 0 (a ZeroDivisionError) or overflows; at
        # -3100 dB sigma is inf, at +inf dB it is 0 and the noisy series would be x
        with pytest.raises(ValueError, match="snr_db"):
            add_noise_at_snr(three_tone[0], snr, 0)

    def test_overflowing_noise_rejected(self):
        # sigma is finite, but x + noise leaves the float64 range: no RuntimeWarning
        x = TimeSeries([1.5e308, -1.5e308, 1.5e308, -1.5e308], 10.0)
        with pytest.raises(ValueError, match="finite"):
            add_noise_at_snr(x, 0.0, 0)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            add_noise_at_snr(TimeSeries([0.0, 0.0, 0.0], 10.0), 0.0, 0)

    def test_empirical_snr_within_half_db(self, three_tone):
        mixture, _ = three_tone
        snrs = []
        for seed in range(10):
            _, noise = add_noise_at_snr(mixture, -5.0, seed)
            snrs.append(10 * np.log10(np.mean(mixture.samples**2) / np.mean(noise.samples**2)))
        assert abs(np.mean(snrs) - (-5.0)) <= 0.5


class TestPeriodogram:
    def test_constant_series_is_pure_dc(self):
        s = periodogram(TimeSeries(np.full(64, 2.5), 10.0))
        assert s.power[0] == pytest.approx(6.25, rel=1e-12)
        assert np.all(s.power[1:] < 1e-20)

    def test_on_grid_sine_single_bin(self):
        # unit sine at 5 Hz, exactly on the 64-point grid at 64 Hz
        t = np.arange(64) / 64.0
        s = periodogram(TimeSeries(np.sin(2 * np.pi * 5 * t), 64.0))
        k = int(np.argmax(s.power))
        assert s.frequencies[k] == 5.0
        # one-sided power of a unit on-grid sine is A^2/2
        assert s.power[k] == pytest.approx(0.5, rel=1e-12)
        others = np.delete(s.power, k)
        assert np.all(others < 1e-20)

    def test_benchmark_peaks_against_direct_dft(self, three_tone):
        mixture, _ = three_tone
        x = mixture.samples
        n = len(x)
        # independent oracle: direct single-bin DFT sums at 2, 5, 19 Hz
        oracle = {}
        for f in (2.0, 5.0, 19.0):
            k = int(round(f * n / mixture.sample_rate))
            w = np.exp(-2j * np.pi * k * np.arange(n) / n)
            oracle[f] = abs(np.sum(x * w)) ** 2
        assert oracle[2.0] / oracle[19.0] == pytest.approx(9.0 / 16.0, rel=1e-9)
        assert oracle[5.0] / oracle[19.0] == pytest.approx(0.25 / 16.0, rel=1e-9)

        s = periodogram(mixture)
        powers = {f: s.power[np.argmin(np.abs(s.frequencies - f))] for f in oracle}
        assert powers[2.0] / powers[19.0] == pytest.approx(9.0 / 16.0, rel=1e-9)
        assert powers[5.0] / powers[19.0] == pytest.approx(0.25 / 16.0, rel=1e-9)
        top3 = s.frequencies[np.argsort(s.power)[-3:]]
        assert sorted(top3) == [2.0, 5.0, 19.0]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=16, max_value=4096), seed=st.integers(0, 2**31))
    def test_parseval(self, n, seed):
        x = np.random.default_rng(seed).standard_normal(n)
        s = periodogram(TimeSeries(x, 50.0))
        assert np.sum(s.power) == pytest.approx(np.sum(x**2) / n, rel=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0], 10.0)


class TestDominantFrequency:
    def test_benchmark_dominant_is_19(self, three_tone):
        mixture, _ = three_tone
        assert dominant_frequency(periodogram(mixture)) == 19.0

    def test_pure_tone(self):
        t = np.arange(400) / 200.0
        x = TimeSeries(np.sin(2 * np.pi * 5 * t), 200.0)
        assert dominant_frequency(periodogram(x)) == 5.0

    def test_dc_only_has_no_dominant_frequency(self):
        assert dominant_frequency(periodogram(TimeSeries(np.ones(32), 8.0))) is None

    @pytest.mark.parametrize("n", [65, 1000, 2000, 5000, 65537])
    def test_constants_of_any_length_have_no_dominant_frequency(self, n):
        # the non-DC bins of a constant hold DFT rounding only, below the floor
        for c in (1.0, -3.7, 1e150, 1e-150):
            assert dominant_frequency(periodogram(TimeSeries(np.full(n, c), 100.0))) is None
        # a tone 1e-6 of the constant is no rounding
        t = np.arange(n) / 100.0
        x = TimeSeries(1.0 + 1e-6 * np.cos(2 * np.pi * (100.0 * 7 / n) * t), 100.0)
        assert dominant_frequency(periodogram(x)) == pytest.approx(100.0 * 7 / n, rel=1e-12)

    def test_on_grid_tone_exact(self):
        for f in (1.0, 3.0, 12.0):
            t = np.arange(256) / 64.0
            x = TimeSeries(np.sin(2 * np.pi * f * t), 64.0)
            assert dominant_frequency(periodogram(x)) == f

    def test_tie_breaks_low(self):
        s = Spectrum(np.array([0.0, 1.0, 2.0]), np.array([0.0, 3.0, 3.0]))
        assert dominant_frequency(s) == 1.0


class TestScoreMode:
    def test_identical(self, three_tone):
        _, truths = three_tone
        m = score_mode(truths[0], truths[0])
        assert m.correlation == pytest.approx(1.0, abs=1e-12)
        assert m.rmse == 0.0
        assert m.peak_frequency == 2.0

    def test_sign_flip_aligned(self, three_tone):
        _, truths = three_tone
        flipped = truths[0].with_samples(-truths[0].samples)
        m = score_mode(flipped, truths[0])
        assert m.correlation == pytest.approx(1.0, abs=1e-12)
        assert m.rmse == pytest.approx(0.0, abs=1e-12)

    def test_zero_db_noise_correlation_near_inv_sqrt2(self, three_tone):
        # corr = 1/sqrt(1 + 1/SNR_lin) = 1/sqrt(2) at 0 dB
        _, truths = three_tone
        truth = truths[2]
        corrs = []
        for seed in range(10):
            noisy, _ = add_noise_at_snr(truth, 0.0, seed)
            corrs.append(score_mode(noisy, truth).correlation)
        assert np.mean(corrs) == pytest.approx(1 / math.sqrt(2), abs=0.05)

    def test_length_mismatch(self, three_tone):
        _, truths = three_tone
        stub = TimeSeries(truths[0].samples[:100], truths[0].sample_rate)
        with pytest.raises(ValueError):
            score_mode(stub, truths[0])

    def test_zero_variance_rejected(self, three_tone):
        _, truths = three_tone
        const = truths[0].with_samples(np.ones(len(truths[0])))
        with pytest.raises(ValueError):
            score_mode(const, truths[0])


def reference_peak(spec, dc):
    """One spectrum's peak by the per-spectrum rules: the strongest non-DC bin,
    None if no bin past 0 Hz is positive or the strongest is below the rounding
    floor eps**2 * bins * total power; with ``dc``, 0.0 where a positive 0 Hz
    bin is the strongest."""
    p = spec.power
    if dc and 0.0 < p[0] >= p.max():
        return 0.0
    with np.errstate(over="ignore"):
        floor = np.finfo(float).eps ** 2 * p.size * p.sum()
    best = p[1:].max()
    return float(spec.frequencies[1 + int(np.argmax(p[1:]))]) if 0 < best >= floor else None


def reference_score(candidate, truth):
    """(peak, correlation, rmse) of one pair: Pearson correlation and the
    sign-aligned RMSE on the pair's unit-scaled samples, one pair at a time."""
    (a, b), shift = unit_scaled(np.stack([candidate.samples, truth.samples]))
    da, db = a - a.mean(), b - b.mean()
    na, nb = np.linalg.norm(da), np.linalg.norm(db)
    if na == 0 or nb == 0:
        raise ValueError("zero-variance input; correlation undefined")
    r = max(-1.0, min(1.0, float(da @ db / (na * nb))))
    sign = -1.0 if r < 0 else 1.0
    rmse = float(np.ldexp(np.sqrt(np.mean((sign * a - b) ** 2)), shift))
    return reference_peak(periodogram(candidate.with_samples(a)), dc=False), abs(r), rmse


class TestStackedSpectra:
    @pytest.mark.parametrize("n", [64, 65])
    def test_rows_match_one_row_periodograms(self, n, rng):
        t = np.arange(n) / 16.0
        tone = np.sin(2 * np.pi * 3.0 * t)
        rows = np.stack([
            rng.standard_normal(n),
            np.zeros(n),
            tone,
            np.ldexp(rng.standard_normal(n), 600),  # its powers overflow to inf
            np.ldexp(rng.standard_normal(n), -600),
            1.0 + 0.1 * tone,  # a DC-dominated row
            np.ones(n),  # power at 0 Hz only
        ])
        power = periodogram_power(rows)
        specs = [periodogram(TimeSeries(row, 16.0)) for row in rows]
        for p, spec in zip(power, specs):
            assert np.array_equal(p, spec.power)
        for dc in (False, True):
            peaks = row_peaks(power, specs[0].frequencies, dc=dc)
            assert peaks == [reference_peak(spec, dc) for spec in specs]
        assert row_peaks(power, specs[0].frequencies, dc=True)[5:] == [0.0, 0.0]
        assert dominant_frequency(specs[1]) is None
        assert dominant_frequency(specs[2]) == pytest.approx(3.0, abs=16.0 / n)

    @pytest.mark.parametrize("n", [200, 201])
    def test_scores_match_pair_reference(self, n, rng):
        t = np.arange(n) / 50.0
        truths = np.stack([np.sin(2 * np.pi * f * t + f) for f in (1.0, 4.0, 9.0, 12.0)])
        candidates = truths + 0.5 * rng.standard_normal(truths.shape)
        candidates[1] *= -1.0  # sign alignment
        candidates[2], truths[2] = np.ldexp(candidates[2], 700), np.ldexp(truths[2], 700)
        truths[3] = np.ldexp(truths[3], -400)  # the pair's rows 2**400 apart
        metrics, power = score_rows(candidates, truths, 50.0)
        for i, m in enumerate(metrics):
            pair = TimeSeries(candidates[i], 50.0), TimeSeries(truths[i], 50.0)
            peak, corr, rmse = reference_score(*pair)
            assert m.peak_frequency == peak
            assert m.correlation == pytest.approx(corr, rel=1e-12, abs=0)
            assert m.rmse == pytest.approx(rmse, rel=1e-12, abs=0)
            assert score_mode(*pair) == m
            # the power is the candidate's on the pair's unit scale
            scaled = unit_scaled(np.stack([candidates[i], truths[i]]))[0][0]
            assert np.array_equal(power[i], periodogram(TimeSeries(scaled, 50.0)).power)
        # a negated candidate scores as the candidate itself
        unflipped, _ = score_rows(-candidates[1:2], truths[1:2], 50.0)
        assert (metrics[1].correlation, metrics[1].rmse) == \
            (unflipped[0].correlation, unflipped[0].rmse)

    def test_rows_far_apart_in_magnitude(self, rng):
        # 2**700 apart, the smaller row's squares underflow on the pair's unit
        # scale; each centred row is normed on its own scale instead, so the
        # correlation keeps its scale invariance
        candidates = rng.standard_normal((2, 64))
        truths = candidates + rng.standard_normal((2, 64))
        base, _ = score_rows(candidates, truths, 1.0)
        far, _ = score_rows(np.ldexp(candidates, [[700], [0]]),
                            np.ldexp(truths, [[0], [700]]), 1.0)
        assert [m.correlation for m in far] == pytest.approx([m.correlation for m in base],
                                                             rel=1e-12)
        assert [m.peak_frequency for m in far[:1]] == [m.peak_frequency for m in base[:1]]
        assert all(math.isfinite(m.rmse) and m.rmse > 2.0**690 for m in far)

    def test_zero_variance_pair_rejected(self, rng):
        candidates = rng.standard_normal((3, 40))
        candidates[1] = 0.25
        truths = rng.standard_normal((3, 40))
        with pytest.raises(ValueError, match="zero-variance"):
            reference_score(TimeSeries(candidates[1], 1.0), TimeSeries(truths[1], 1.0))
        with pytest.raises(ValueError, match="zero-variance"):
            score_rows(candidates, truths, 1.0)
        with pytest.raises(ValueError, match="zero-variance"):
            score_rows(truths, candidates, 1.0)


class TestCsvRoundTrip:
    def test_single_column_with_header(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("value\n1.0\n2.5\n-3.0\n")
        x = read_timeseries_csv(p, 100.0)
        np.testing.assert_array_equal(x.samples, [1.0, 2.5, -3.0])
        assert x.sample_rate == 100.0

    def test_two_column_time_value(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("time,value\n0.0,1.0\n0.01,2.0\n0.02,3.0\n")
        x = read_timeseries_csv(p, 100.0)
        np.testing.assert_array_equal(x.samples, [1.0, 2.0, 3.0])

    def test_nonuniform_time_rejected(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("0.0,1.0\n0.01,2.0\n0.5,3.0\n")
        with pytest.raises(CsvFormatError, match="uniform"):
            read_timeseries_csv(p, 100.0)

    def test_nan_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("1.0\n2.0\nNaN\n4.0\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            read_timeseries_csv(p, 100.0)

    def test_garbage_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("value\n1.0\npotato\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            read_timeseries_csv(p, 100.0)

    @pytest.mark.parametrize("text, samples", [
        ("1.0\n2.0\n3.0\n4.0\n", [1.0, 2.0, 3.0, 4.0]),
        ("0.0,1.0\n0.5,2.0\n1.0,3.0\n", [1.0, 2.0, 3.0]),
    ], ids=["one-column", "two-column"])
    def test_byte_order_mark_keeps_first_sample(self, tmp_path, text, samples):
        p = tmp_path / "sig.csv"
        p.write_bytes(b"\xef\xbb\xbf" + text.encode())
        np.testing.assert_array_equal(read_timeseries_csv(p, 100.0).samples, samples)

    def test_sidecar_with_byte_order_mark(self, tmp_path):
        csv = tmp_path / "sig.csv"
        csv.with_suffix(".json").write_bytes(b'\xef\xbb\xbf{"sample_rate_hz": 250.0}\n')
        assert read_sample_rate_sidecar(csv) == 250.0

    @pytest.mark.parametrize("rate", ["true", '"250"', "null"])
    def test_sidecar_rate_that_is_not_a_number_is_unusable(self, tmp_path, rate):
        csv = tmp_path / "sig.csv"
        csv.with_suffix(".json").write_text(f'{{"sample_rate_hz": {rate}}}\n')
        assert read_sample_rate_sidecar(csv) is None

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_rate_from_the_sidecar(self, tmp_path, bom):
        p = tmp_path / "sig.csv"
        p.write_text("1.0\n2.0\n3.0\n")
        p.with_suffix(".json").write_bytes(bom + b'{"sample_rate_hz": 250.0}\n')
        assert read_timeseries_csv(p) == TimeSeries([1.0, 2.0, 3.0], 250.0)
        assert read_timeseries_csv(p, 100.0).sample_rate == 100.0  # a given rate wins

    @pytest.mark.parametrize("sidecar", [None, '{"sample_rate_hz": 0}\n'], ids=["none", "zero"])
    def test_no_rate_and_no_usable_sidecar_rejected(self, tmp_path, sidecar):
        p = tmp_path / "sig.csv"
        p.write_text("1.0\n2.0\n3.0\n")
        if sidecar is not None:
            p.with_suffix(".json").write_text(sidecar)
        with pytest.raises(ValueError,
                           match="^no sample rate given and no usable sidecar .*sig.json"):
            read_timeseries_csv(p)

    @pytest.mark.parametrize("rate", [1e-310, 5e-324])
    def test_rate_that_collapses_the_frequency_grid_rejected(self, tmp_path, rate):
        # 1 / rate overflows, so every frequency bin would read 0 Hz
        p = tmp_path / "sig.csv"
        p.write_text("1.0\n2.0\n3.0\n4.0\n")
        with pytest.raises(ValueError, match="collapses the frequency grid of 4 samples"):
            read_timeseries_csv(p, rate)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            read_timeseries_csv(p, 100.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_write_read_round_trip(self, tmp_path_factory, seed):
        x = TimeSeries(np.random.default_rng(seed).standard_normal(32), 64.0)
        p = tmp_path_factory.mktemp("csv") / "x.csv"
        write_timeseries_csv(x, p)
        assert read_timeseries_csv(p, 64.0) == x


def reference_read_csv(path, sample_rate_hz):
    """The per-line reader that ``read_timeseries_csv`` replaced, kept as the
    oracle for its samples and its error messages."""

    def parse(token, lineno):
        try:
            v = float(token)
        except ValueError:
            raise CsvFormatError(f"{path}: line {lineno}: cannot parse {token!r} as a number"
                                 ) from None
        if not math.isfinite(v):
            raise CsvFormatError(f"{path}: line {lineno}: non-finite value {token!r}")
        return v

    path = Path(path)
    rows = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                rows.append((lineno, [f.strip() for f in line.split(",")]))
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if not rows:
        raise CsvFormatError(f"{path}: empty file")
    try:
        [float(f) for f in rows[0][1]]
    except ValueError:
        rows = rows[1:]
        if not rows:
            raise CsvFormatError(f"{path}: no data rows after header")
    ncols = len(rows[0][1])
    if ncols not in (1, 2):
        raise CsvFormatError(f"{path}: line {rows[0][0]}: expected 1 or 2 columns, got {ncols}")
    times, values = [], []
    for lineno, fields in rows:
        if len(fields) != ncols:
            raise CsvFormatError(
                f"{path}: line {lineno}: expected {ncols} column(s), got {len(fields)}")
        if ncols == 2:
            times.append(parse(fields[0], lineno))
            values.append(parse(fields[1], lineno))
        else:
            values.append(parse(fields[0], lineno))
    if len(values) < 2:
        raise CsvFormatError(f"{path}: need at least 2 samples, got {len(values)}")
    if ncols == 2:
        dt = np.diff(np.asarray(times))
        ref = float(np.mean(dt))
        if ref <= 0 or np.max(np.abs(dt - ref)) > 1e-6 * abs(ref):
            raise CsvFormatError(f"{path}: time column is not uniformly spaced")
    return TimeSeries(np.asarray(values), sample_rate_hz)


def _outcome(reader, path):
    try:
        x = reader(path, 10.0)
    except Exception as exc:  # the type and message are the outcome
        return type(exc).__name__, str(exc)
    return "ok", x.samples.tobytes(), x.sample_rate


# pieces of a hostile CSV: every field kind float() accepts or rejects,
# whitespace float() does not strip (\x1c) and some it does (\u2028)
_finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_token = st.one_of(
    _finite, st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_0", "nan", "NaN", "-inf", "inf", "1e400", "0x10", "potato", "",
                     " 2.5 ", "\ufeff1.0", "\u0661\u0662", "1\x1c", "\u20283", "+.5", "1,"]),
)
_row = st.one_of(
    _token, st.builds("{},{}".format, _token, _token),
    st.builds("{} , {}".format, _token, _token),
    st.builds("{},{},{}".format, _token, _token, _token),
    st.sampled_from(["", "   ", "\t", ","]),
)
_newline = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _uniform_two_column(draw):
    dt = draw(st.sampled_from([0.01, 0.5, 1.0, 1e-300, -0.1, 0.0]))
    values = draw(st.lists(_finite, min_size=1, max_size=8))
    sep = draw(st.sampled_from([",", " , ", "\x1c,", ",\x1c", "\u2028,\t"]))
    return ["time,value"] * draw(st.booleans()) + [
        f"{i * dt!r}{sep}{v}" for i, v in enumerate(values)]


@st.composite
def _csv_bytes(draw):
    lines = draw(st.one_of(st.lists(_row, max_size=8), _uniform_two_column()))
    header = draw(st.sampled_from(["", "value", "time,value", "\ufeffvalue", "a,b,c"]))
    lines = ([header] if header else []) + lines
    text = "".join(line + draw(_newline) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline at the end
    data = draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode("utf-8")
    if draw(st.integers(0, 4)) == 0:  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\x80"]))
        data = data[:at] + bad + data[at:]
    return data


class TestBulkCsvIo:
    @settings(max_examples=400, deadline=None)
    @given(data=_csv_bytes())
    def test_reader_matches_per_line_reference(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.csv"
            path.write_bytes(data)
            assert _outcome(read_timeseries_csv, path) == _outcome(reference_read_csv, path)

    @pytest.mark.parametrize("text, message", [
        ("value\n1.0\n2,3\nfoo\n", "line 3: expected 1 column(s), got 2"),
        ("0,1\n1,2\n2,inf\n", "line 3: non-finite value 'inf'"),
        ("0,1\nx,y\n", "line 2: cannot parse 'x' as a number"),
        ("t,v\n\n0,1,2\n", "line 3: expected 1 or 2 columns, got 3"),
        ("1\n\r\n\n 1_0 \n0x10\n", "line 5: cannot parse '0x10' as a number"),
    ])
    def test_errors_name_the_line(self, tmp_path, text, message):
        p = tmp_path / "sig.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(CsvFormatError) as exc:
            read_timeseries_csv(p, 10.0)
        assert str(exc.value) == f"{p}: {message}"

    def test_writer_bytes(self, tmp_path):
        values = [-0.0, 5e-324, 1e308, 3.0, 0.1 + 0.2, -1.5e-7]
        x = TimeSeries(values, 10.0)
        p = tmp_path / "x.csv"
        write_timeseries_csv(x, p)
        expected = "value\n" + "".join(repr(float(v)) + "\n" for v in x.samples)
        assert p.read_bytes() == expected.encode("utf-8")
        assert p.read_bytes() == (
            b"value\n-0.0\n5e-324\n1e+308\n3.0\n0.30000000000000004\n-1.5e-07\n")
        y = read_timeseries_csv(p, 10.0)
        assert y == x and np.signbit(y.samples[0])

    def test_spectrum_writer_bytes(self, tmp_path):
        s = Spectrum([0.0, 0.5, 1.0], [0.0, math.inf, 0.1 + 0.2])
        p = tmp_path / "s.csv"
        write_spectrum_csv(s, p)
        expected = "frequency_hz,power\n" + "".join(
            f"{float(f)!r},{float(w)!r}\n" for f, w in zip(s.frequencies, s.power))
        assert p.read_bytes() == expected.encode("utf-8")
        assert p.read_text() == "frequency_hz,power\n0.0,0.0\n0.5,inf\n1.0,0.30000000000000004\n"
