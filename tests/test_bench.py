import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rmd.bench
from rmd.bench import (
    CellResult,
    ExperimentReport,
    ExperimentSpec,
    _band_label,
    _source,
    _truth_profile,
    run_experiment,
    write_report,
)
from rmd.eigen import gram, solve_generalized
from rmd.embedding import build_trajectory_matrix
from rmd.modes import PAIRS_PER_MODE, DecompositionConfig, cluster_and_merge, rmd_decompose
from rmd.signals import (
    CsvFormatError,
    SineComponent,
    add_noise_at_snr,
    gen_sinusoid_mixture,
    read_timeseries_csv,
    unit_scaled,
    write_timeseries_csv,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"


def sine_spec(**overrides):
    base = dict(
        generator="sine-mixture",
        snr_db=(60.0,),
        seeds=(0, 1),
        configs=(DecompositionConfig(alpha=0.3, n_modes=3),),
        embedding_dim=200,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            sine_spec(seeds=())

    def test_empty_snr_rejected(self):
        with pytest.raises(ValueError):
            sine_spec(snr_db=())

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            sine_spec(generator="chirp")

    def test_configs_required(self):
        with pytest.raises(ValueError):
            sine_spec(configs=())

    def test_file_needs_path(self):
        with pytest.raises(ValueError):
            ExperimentSpec(generator="file", configs=(DecompositionConfig(alpha=1.0, n_modes=3),))

    @pytest.mark.parametrize("grid", [{"n_modes": 2.5}, {"diff_orders": [1.0]}])
    def test_grid_keys_rejected(self, grid):
        # configurations come only from "configs": grid keys are rejected with or without it
        doc = {"generator": "sine-mixture", "snr_db": [-5], "seeds": [0], "alphas": [1.0]}
        with pytest.raises(ValueError, match="configs"):
            ExperimentSpec.from_dict({**doc, **grid})
        with pytest.raises(TypeError, match="alphas"):
            ExperimentSpec.from_dict({**doc, **grid, "configs": [{"alpha": 1.0}]})

    def test_from_dict_explicit_configs(self):
        spec = ExperimentSpec.from_dict({
            "generator": "am-mixture",
            "snr_db": [0],
            "seeds": [0, 1],
            "configs": [{"alpha": 2.0, "theta": 0.9, "n_modes": 5}],
        })
        assert spec.configs[0].alpha == 2.0
        assert spec.configs[0].n_modes == 5

    def test_round_trip_dict(self):
        spec = sine_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("fields", [
        {"seeds": (1.5, True)}, {"seeds": (True,)}, {"seeds": ("3",)}, {"seeds": (math.inf,)},
        {"snr_db": (True,)}, {"snr_db": ("0",)}, {"snr_db": (None,)},
    ])
    def test_bad_seed_or_snr_rejected(self, fields):
        with pytest.raises(ValueError, match="seeds|snr_db"):
            sine_spec(**fields)

    @pytest.mark.parametrize("seed", [-1, -1.0, np.int64(-1), -2**70])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=r"^seeds\[1\] must be a non-negative integer"):
            sine_spec(seeds=(0, seed))

    @pytest.mark.parametrize("value", [True, "1", None])
    @pytest.mark.parametrize("field", ["sample_rate_hz", "duration_s", "f1_hz", "f2_hz",
                                       "f3_hz", "f_mod_hz", "peak_tol_hz"])
    def test_number_fields_take_numbers_only(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a number"):
            sine_spec(**{field: value})

    @pytest.mark.parametrize("field", ["snr_db", "seeds", "frequencies_hz", "amplitudes",
                                       "phases"])
    def test_list_fields_take_lists_only(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be a list"):
            sine_spec(**{field: 5})
        with pytest.raises(ValueError, match=rf"^{field}\[1\] must be (a number|an integer)"):
            sine_spec(**{field: (2, "3", 4)})

    @pytest.mark.parametrize("path", ["", 5, ["a.csv"]])
    def test_file_needs_path_as_a_string(self, path):
        with pytest.raises(ValueError, match="input_path"):
            ExperimentSpec(generator="file", input_path=path,
                           configs=(DecompositionConfig(alpha=1.0, n_modes=3),))

    def test_integral_numbers_accepted(self):
        spec = sine_spec(seeds=(3.0, np.int64(4), 2**70), snr_db=(-5, np.float32(2.5)))
        assert spec.seeds == (3, 4, 2**70) and all(type(s) is int for s in spec.seeds)
        assert spec.snr_db == (-5.0, 2.5) and all(type(s) is float for s in spec.snr_db)


class TestSineExperiment:
    def test_near_noiseless_sanity(self):
        report = run_experiment(sine_spec())
        assert len(report.cells) == 2
        for cell in report.cells:
            assert cell.success
            assert len(cell.scores) == 3
            for s in cell.scores:
                assert s.matched
                assert s.correlation >= 0.99
                assert s.within_peak_tol

    def test_zero_peak_tolerance_accepts_an_exact_peak(self):
        # a near-noiseless 5 Hz tone on the 0.1 Hz grid peaks in its own bin
        spec = sine_spec(frequencies_hz=(5.0,), amplitudes=(1.0,), seeds=(0,),
                         configs=(DecompositionConfig(alpha=0.3, n_modes=1),), peak_tol_hz=0.0)
        [score] = run_experiment(spec).cells[0].scores
        assert score.peak_freq_hz == 5.0 and score.within_peak_tol is True

    def test_matching_is_injective(self):
        report = run_experiment(sine_spec(snr_db=(-15.0,), seeds=(0,)))
        for cell in report.cells:
            indices = [s.mode_index for s in cell.scores if s.matched]
            assert len(indices) == len(set(indices))

    def test_cells_enumerate_grid(self):
        spec = sine_spec(snr_db=(60.0, 40.0), seeds=(0, 1, 2))
        report = run_experiment(spec)
        assert len(report.cells) == 6
        keys = {(c.snr_db, c.seed) for c in report.cells}
        assert len(keys) == 6

    def test_determinism_modulo_wall_time(self):
        spec = sine_spec(seeds=(3,))
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a.spec == b.spec
        assert [replace(c, wall_ms=0.0) for c in a.cells] == [
            replace(c, wall_ms=0.0) for c in b.cells]

    def test_truth_periodograms_once_per_spec(self, monkeypatch):
        # the truths are fixed for a spec: their peaks are taken once, not per cell
        calls = []
        real = rmd.bench.periodogram
        monkeypatch.setattr(rmd.bench, "periodogram", lambda x: calls.append(x) or real(x))
        spec = ExperimentSpec.from_dict(json.loads((SPECS / "sine_snr.json").read_text()))
        report = run_experiment(spec)
        assert len(report.cells) == 40 and all(c.success for c in report.cells)
        assert len(calls) == 3

    # why run_experiment has no failure path for the truths' profile: the truths
    # are finite series of at least 2 samples, and the profile reads their
    # unit_scaled copies, where no power overflows (an overflow would raise here)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_truth_profile_of_any_finite_amplitudes_returns(self):
        amplitudes = (0.0, 5e-324, 1e-300, 1e300)
        _, truths = gen_sinusoid_mixture(
            [SineComponent(f, a) for f, a in zip((2.0, 5.0, 19.0, 31.0), amplitudes)],
            200.0, 2.0)
        peaks, order = _truth_profile(truths)
        # beside 1e300 the others scale to zero: no peak, and their RMS ties keep their order
        assert peaks == [None, None, None, 31.0]
        assert order.tolist() == [3, 0, 1, 2]

    # runs under the suite's error::RuntimeWarning filter: an overflow in the
    # scoring would fail the cell
    def test_huge_amplitudes_score_like_unit_ones(self):
        kw = dict(frequencies_hz=(2.0, 19.0), snr_db=(0.0,), seeds=(0,), embedding_dim=40,
                  configs=(DecompositionConfig(alpha=1.0, n_modes=2),))
        huge = run_experiment(sine_spec(amplitudes=(1e200, 3e200), **kw)).cells[0]
        assert huge.success, huge.error
        assert [s.true_freq_hz for s in huge.scores] == [2.0, 19.0]
        assert all(s.peak_freq_hz == s.true_freq_hz and s.within_peak_tol for s in huge.scores)
        assert all(0 < s.rmse < np.inf for s in huge.scores)
        # a power-of-two amplitude scales every input exactly: scores are equal,
        # and the RMSE scales back bit for bit
        c = 2.0**660
        unit = run_experiment(sine_spec(amplitudes=(1.0, 3.0), **kw)).cells[0]
        scaled = run_experiment(sine_spec(amplitudes=(c, 3 * c), **kw)).cells[0]
        assert scaled.mode_peaks_hz == unit.mode_peaks_hz
        for s, u in zip(scaled.scores, unit.scores):
            assert (s.true_freq_hz, s.mode_index, s.peak_freq_hz, s.correlation) == (
                u.true_freq_hz, u.mode_index, u.peak_freq_hz, u.correlation)
            assert s.rmse == c * u.rmse


class TestConcurrentCells:
    """Cells run on a thread pool sized by the usable cores; the report must not
    depend on how many there are."""

    @staticmethod
    def cells_without_timing(report):
        return [replace(c, wall_ms=0.0) for c in report.cells]

    @pytest.mark.parametrize("name", ["sine_snr.json", "nonlinear.json"])
    def test_worker_count_changes_nothing(self, monkeypatch, name):
        spec = ExperimentSpec.from_dict(json.loads((SPECS / name).read_text()))
        runs = []
        interval = sys.getswitchinterval()
        for cores in (1, 4):
            monkeypatch.setattr(rmd.bench, "_usable_cores", lambda: cores)
            sys.setswitchinterval(1e-5)  # interleave the cells' Python code finely
            try:
                runs.append(self.cells_without_timing(run_experiment(spec)))
            finally:
                sys.setswitchinterval(interval)
        assert runs[0] == runs[1]
        assert [(c.snr_db, c.seed, c.alpha) for c in runs[0]] == [
            (snr, seed, config.alpha)
            for snr in spec.snr_db for seed in spec.seeds for config in spec.configs]

    def test_failed_cell_recorded_in_place(self, monkeypatch):
        spec = sine_spec(seeds=(0, 1, 2, 3), configs=(
            DecompositionConfig(alpha=0.3, n_modes=3), DecompositionConfig(alpha=1.0, n_modes=3)))
        clean, _ = _source(spec)
        bad = add_noise_at_snr(clean, 60.0, 2)[0]
        real = rmd.bench.rmd_decompose

        def decompose(x, config):
            if x == bad:
                raise RuntimeError("injected")
            return real(x, config)

        monkeypatch.setattr(rmd.bench, "_usable_cores", lambda: 4)
        monkeypatch.setattr(rmd.bench, "rmd_decompose", decompose)
        cells = run_experiment(spec).cells
        assert [(c.seed, c.alpha) for c in cells] == [
            (seed, alpha) for seed in range(4) for alpha in (0.3, 1.0)]
        assert [c.error for c in cells if c.seed == 2] == ["RuntimeError: injected"] * 2
        assert all(c.success and len(c.scores) == 3 for c in cells if c.seed != 2)

    def test_interrupt_cancels_pending_cells(self, monkeypatch):
        # an exception that is not a cell failure reaches the caller, and the
        # cells not yet started never run
        calls = []
        real = rmd.bench.rmd_decompose

        def decompose(x, config):
            calls.append(x)
            if len(calls) == 2:
                raise KeyboardInterrupt
            if len(calls) > 2:
                time.sleep(0.2)  # the caller cancels the queue meanwhile
            return real(x, config)

        monkeypatch.setattr(rmd.bench, "_usable_cores", lambda: 1)
        monkeypatch.setattr(rmd.bench, "rmd_decompose", decompose)
        spec = sine_spec(seeds=tuple(range(12)), embedding_dim=20)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(spec)
        assert len(calls) < 12

    @pytest.mark.parametrize("count, cores", [(3, 3), (None, 1)])
    def test_cores_without_an_affinity_call(self, monkeypatch, count, cores):
        monkeypatch.delattr(rmd.bench.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(rmd.bench.os, "cpu_count", lambda: count)
        assert rmd.bench._usable_cores() == cores


class TestNonlinearExperiment:
    def test_effectively_noiseless_run(self, am_mixture):
        spec = ExperimentSpec(
            generator="am-mixture",
            snr_db=(80.0,),
            seeds=(0,),
            configs=(DecompositionConfig(alpha=0.3, n_modes=3),),
            embedding_dim=200,
        )
        report = run_experiment(spec)
        cell = report.cells[0]
        assert cell.success
        for s in cell.scores:
            assert s.matched
            assert s.correlation >= 0.95
        am_score = cell.scores[0]
        assert am_score.sidebands_present is True
        assert all(s.sidebands_present is None for s in cell.scores[1:])

    def test_alpha_zero_degradation_recorded_not_asserted(self):
        spec = ExperimentSpec(
            generator="am-mixture",
            snr_db=(0.0,),
            seeds=(0,),
            configs=(DecompositionConfig(alpha=0.0, n_modes=3),),
            embedding_dim=200,
        )
        report = run_experiment(spec)
        # the unregularized run may separate poorly; it must still be recorded
        assert len(report.cells) == 1
        assert report.cells[0].success


class TestFileExperiment:
    def test_band_annotation(self, tmp_path):
        # synthetic stand-in shaped like a physiological capture; the window
        # must cover at least one full cycle of the slowest component
        mixture, _ = gen_sinusoid_mixture(
            [SineComponent(0.4, 1.0), SineComponent(1.5, 0.4)], 100.0, 20.48
        )
        assert len(mixture) == 2048
        path = tmp_path / "capture.csv"
        write_timeseries_csv(mixture, path)
        spec = ExperimentSpec(
            generator="file",
            input_path=str(path),
            sample_rate_hz=100.0,
            configs=(DecompositionConfig(alpha=2.0, n_modes=3),),
            embedding_dim=500,
        )
        report = run_experiment(spec)
        cell = report.cells[0]
        assert cell.success
        assert "respiration" in cell.band_labels
        assert "heartbeat" in cell.band_labels

    @pytest.mark.parametrize("peak, label", [
        (None, ""), (0.05, ""), (0.1, "respiration"), (0.5, "respiration"), (0.65, ""),
        (0.8, "heartbeat"), (2.0, "heartbeat"), (2.5, ""),
    ])
    def test_band_edges_are_inclusive(self, peak, label):
        assert _band_label(peak) == label

    def test_failed_cell_is_data_not_crash(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("1.0\n2.0\n3.0\n4.0\n5.0\n6.0\n7.0\n8.0\n9.0\n10.0\n11.0\n12.0\n")
        spec = ExperimentSpec(
            generator="file",
            input_path=str(path),
            sample_rate_hz=10.0,
            configs=(DecompositionConfig(alpha=1.0, n_modes=2), DecompositionConfig(alpha=1.0, n_modes=2, diff_order=2)),
            embedding_dim=64,  # out of range for N=12
        )
        report = run_experiment(spec)
        assert len(report.cells) == 2
        assert all(not c.success and c.error for c in report.cells)


class TestLoadSignalCsv:
    def test_radar_scale_file(self, tmp_path):
        values = np.sin(np.arange(2048) / 7.0)
        path = tmp_path / "radar.csv"
        write_timeseries_csv(
            __import__("rmd").TimeSeries(values, 100.0), path
        )
        x = read_timeseries_csv(path, 100.0)
        assert len(x) == 2048
        assert x.sample_rate == 100.0

    def test_header_and_three_rows(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("value\n1.0\n2.0\n3.0\n")
        assert len(read_timeseries_csv(path, 10.0)) == 3

    def test_nan_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\nNaN\n3.0\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            read_timeseries_csv(path, 10.0)


class TestReportArtifacts:
    def test_json_round_trip(self):
        report = run_experiment(sine_spec())
        again = ExperimentReport.from_json(report.to_json())
        assert again == report

    def test_aggregates_recomputed_from_cells(self):
        report = run_experiment(sine_spec())
        assert report.aggregates() == report.aggregates()
        again = ExperimentReport.from_json(report.to_json())
        assert again.aggregates() == report.aggregates()

    def test_aggregates_keep_configs_apart(self):
        # three configs that differ only in n_modes or shrinkage: 3 x 3 rows of 2 cells
        configs = (DecompositionConfig(alpha=8.0, n_modes=4),
                   DecompositionConfig(alpha=8.0, n_modes=8),
                   DecompositionConfig(alpha=8.0, n_modes=4, shrinkage=True))
        rows = run_experiment(sine_spec(snr_db=(-5.0,), configs=configs)).aggregates()
        assert len(rows) == 9 and all(r["n_cells"] == 2 for r in rows)
        assert {(r["n_modes"], r["shrinkage"]) for r in rows} == {
            (4, False), (8, False), (4, True)}

    def test_v1_cells_read_back(self):
        # a v1 report.json has no shrinkage in its cells
        doc = json.loads(run_experiment(sine_spec()).to_json())
        for cell in doc["cells"]:
            del cell["shrinkage"]
        again = ExperimentReport.from_json(json.dumps(doc))
        assert [c.shrinkage for c in again.cells] == [False, False]

    def test_write_report_artifacts(self, tmp_path):
        spec = sine_spec(snr_db=(60.0, 40.0), seeds=(0, 1, 2))
        report = run_experiment(spec)
        paths = write_report(report, tmp_path)
        doc = json.loads(paths["report"].read_text())
        assert doc["schema_version"] == 1
        assert len(doc["cells"]) == 6

        lines = paths["summary"].read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "snr_db", "seed", "alpha", "diff_order", "measure", "true_freq_hz",
            "matched", "peak_freq_hz", "correlation", "rmse", "wall_ms",
        ]
        # one row per (cell, true component): 6 cells x 3 components
        assert len(lines) - 1 == 18

        for freq in (2, 5, 19):
            assert (tmp_path / f"component_{freq}hz.csv").is_file()

    def test_file_run_summary_has_one_row_per_mode(self, tmp_path):
        spec = ExperimentSpec(generator="file", input_path="capture.csv",
                              configs=(DecompositionConfig(alpha=2.0, n_modes=3),))
        cells = (
            CellResult(snr_db=None, seed=None, alpha=2.0, diff_order=1, theta=0.85,
                       n_modes=3, measure="spectral", success=True, error=None,
                       wall_ms=1.5, mode_peaks_hz=(0.25, 1.5, None),
                       band_labels=("respiration", "heartbeat", "")),
            CellResult(snr_db=None, seed=None, alpha=2.0, diff_order=2, theta=0.85,
                       n_modes=3, measure="spectral", success=False,
                       error="NumericalError: synthetic failure", wall_ms=0.5),
        )
        paths = write_report(ExperimentReport(spec=spec, cells=cells), tmp_path)
        # the truth columns of a file run are blank; a failed cell gets one blank row
        assert paths["summary"].read_text().splitlines()[1:] == [
            ",,2.0,1,spectral,,,0.25,,,1.5",
            ",,2.0,1,spectral,,,1.5,,,1.5",
            ",,2.0,1,spectral,,,,,,1.5",
            ",,2.0,2,spectral,,,,,,0.5",
        ]
        assert set(paths) == {"report", "summary"}

    def test_empty_cells_valid_report(self, tmp_path):
        spec = sine_spec()
        report = ExperimentReport(spec=spec, cells=())
        paths = write_report(report, tmp_path)
        doc = json.loads(paths["report"].read_text())
        assert doc["cells"] == []
        assert ExperimentReport.from_json(report.to_json()) == report

    def test_failed_cell_round_trips(self):
        cell = CellResult(
            snr_db=-5.0, seed=1, alpha=1.0, diff_order=1, theta=0.85,
            n_modes=3, measure="spectral", success=False,
            error="NumericalError: synthetic failure", wall_ms=1.25,
        )
        report = ExperimentReport(spec=sine_spec(), cells=(cell,))
        assert ExperimentReport.from_json(report.to_json()) == report


class TestTruncatedBasisOnBundledSpecs:
    """rmd_decompose clusters only the top PAIRS_PER_MODE * n_modes eigenpairs.  On
    every cell of the bundled specs that must give the clusters the full basis gives."""

    @staticmethod
    def clusters(xs, config, K, n_pairs):
        tm = build_trajectory_matrix(xs, K)
        basis = solve_generalized(gram(tm), config.alpha, config.diff_order, n_pairs=n_pairs)
        return cluster_and_merge(basis, config)[0]

    @pytest.mark.parametrize("name", ["sine_snr.json", "nonlinear.json"])
    def test_cluster_members_match_full_basis(self, name):
        spec = ExperimentSpec.from_dict(json.loads((SPECS / name).read_text()))
        assert spec.seeds == tuple(range(10))
        clean, _ = _source(spec)
        cells = 0
        for snr in spec.snr_db:
            for seed in spec.seeds:
                noisy, _ = add_noise_at_snr(clean, snr, seed)
                xs = noisy.with_samples(unit_scaled(noisy.samples)[0])
                for config in spec.configs:
                    full = self.clusters(xs, config, spec.embedding_dim, None)
                    top = self.clusters(xs, config, spec.embedding_dim,
                                        PAIRS_PER_MODE * config.n_modes)
                    assert ([c.member_indices for c in top]
                            == [c.member_indices for c in full]), (snr, seed, config)
                    # rmd_decompose's modes are these clusters, by descending gamma
                    sizes = [len(c.member_indices)
                             for c in sorted(top, key=lambda c: -c.gamma)]
                    ms = rmd_decompose(noisy, config)
                    assert [e.members for e in ms.report] == sizes, (snr, seed, config)
                    cells += 1
        assert cells == len(spec.snr_db) * len(spec.seeds) * len(spec.configs)
