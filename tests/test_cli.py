import json

import numpy as np
import pytest

from rmd.cli import main
from rmd.signals import TimeSeries, read_timeseries_csv, write_timeseries_csv


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def tone_file(tmp_path):
    """A clean 5 Hz tone with its sample-rate sidecar."""
    path = tmp_path / "tone.csv"
    assert run_cli(
        "synth", "sine3", "--freqs", "5", "--amps", "1", "--out", str(path)
    ) == 0
    return path


class TestHelp:
    @pytest.mark.parametrize("cmd", ["decompose", "synth", "bench", "spectrum"])
    def test_help_exits_zero(self, cmd, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(cmd, "--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "usage" in out.lower()
        assert list(tmp_path.iterdir()) == []  # --help must not touch the filesystem

    def test_decompose_help_shows_defaults(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("decompose", "--help")
        out = capsys.readouterr().out
        assert "0.85" in out  # merge threshold
        assert "0.3" in out  # regularization factor
        assert "default: 1" in out  # difference order

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2


class TestSynth:
    def test_sine3_defaults(self, tmp_path, capsys):
        out = tmp_path / "mix.csv"
        assert run_cli("synth", "sine3", "--out", str(out)) == 0
        x = read_timeseries_csv(out, 200.0)
        assert len(x) == 2000
        sidecar = json.loads((tmp_path / "mix.json").read_text())
        assert sidecar["sample_rate_hz"] == 200.0

    def test_am_defaults(self, tmp_path):
        out = tmp_path / "am.csv"
        assert run_cli("synth", "am", "--out", str(out)) == 0
        x = read_timeseries_csv(out, 200.0)
        assert len(x) == 2000
        assert x.samples[0] == pytest.approx(1.0, abs=1e-12)

    def test_snr_writes_truth_components(self, tmp_path):
        out = tmp_path / "noisy.csv"
        assert run_cli("synth", "sine3", "--snr", "-5", "--seed", "7", "--out", str(out)) == 0
        for i in (1, 2, 3):
            assert (tmp_path / f"noisy_truth_{i:02d}.csv").is_file()
            assert (tmp_path / f"noisy_truth_{i:02d}.json").is_file()

    def test_zero_duration_exits_2(self, tmp_path, capsys):
        code = run_cli("synth", "sine3", "--duration", "0", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert capsys.readouterr().err != ""

    def test_mismatched_params_exit_2(self, tmp_path):
        code = run_cli(
            "synth", "sine3", "--freqs", "1,2", "--amps", "1", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2


class TestDecompose:
    def test_single_tone(self, tone_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = run_cli("decompose", str(tone_file), "-r", "1", "--out", str(out_dir))
        assert code == 0
        stdout = capsys.readouterr().out
        assert "peak=5 Hz" in stdout
        assert (out_dir / "mode_01.csv").is_file()
        assert (out_dir / "residual.csv").is_file()
        doc = json.loads((out_dir / "decomposition.json").read_text())
        assert doc["modes"][0]["peak_frequency_hz"] == 5.0

    def test_sample_rate_flag_overrides_sidecar(self, tone_file, tmp_path):
        out_dir = tmp_path / "out2"
        code = run_cli(
            "decompose", str(tone_file), "--sample-rate", "200",
            "-r", "1", "--out", str(out_dir),
        )
        assert code == 0

    def test_missing_file_exits_3(self, tmp_path, capsys):
        code = run_cli(
            "decompose", str(tmp_path / "nope.csv"), "--sample-rate", "100",
            "-r", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 3
        assert "nope.csv" in capsys.readouterr().err

    def test_negative_alpha_exits_2(self, tone_file, tmp_path, capsys):
        code = run_cli(
            "decompose", str(tone_file), "-r", "1", "--alpha", "-1",
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_no_sample_rate_anywhere_exits_2(self, tmp_path):
        path = tmp_path / "bare.csv"
        write_timeseries_csv(TimeSeries(np.sin(np.arange(100) / 3.0), 50.0), path)
        code = run_cli("decompose", str(path), "-r", "1", "--out", str(tmp_path / "o"))
        assert code == 2

    def test_k_override_out_of_range_exits_2(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("value\n" + "".join(f"{v}\n" for v in range(13)))
        code = run_cli(
            "decompose", str(path), "--sample-rate", "10", "-r", "1",
            "-K", "64", "--out", str(tmp_path / "o"),
        )
        assert code == 2  # K_override out of range is a parameter error
        code = run_cli(
            "decompose", str(path), "--sample-rate", "10",
            "-r", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 0  # 13 samples is enough for the heuristic

    def test_too_short_signal_exits_4(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("value\n" + "".join(f"{float(v)}\n" for v in range(8)))
        code = run_cli(
            "decompose", str(path), "--sample-rate", "10", "-r", "1",
            "--out", str(tmp_path / "o"),
        )
        assert code == 4
        assert "12 samples" in capsys.readouterr().err


    def test_huge_alpha_exits_cleanly(self, tone_file, tmp_path, capsys):
        code = run_cli(
            "decompose", str(tone_file), "-r", "2", "--alpha", "1e300",
            "--out", str(tmp_path / "o"),
        )
        assert code in (0, 4)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("check", ["_verify_completeness", "_verify_variance_ratio"])
    def test_failed_internal_check_exits_4(self, tone_file, tmp_path, capsys, monkeypatch,
                                           check):
        import rmd.modes as modes

        real = getattr(modes, check)
        # the real check, handed a bound that no decomposition meets
        forced = {
            "_verify_completeness": lambda x, ms, res: real(x, ms, res, rel_tol=-1.0),
            "_verify_variance_ratio": lambda report, alpha: real(report, -0.5),
        }[check]
        monkeypatch.setattr(modes, check, forced)
        code = run_cli("decompose", str(tone_file), "-r", "1", "--out", str(tmp_path / "o"))
        assert code == 4
        err = capsys.readouterr().err
        assert "violated" in err and "Traceback" not in err

    def test_overflowing_amplitude_exits_4(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        write_timeseries_csv(TimeSeries(1e200 * np.sin(np.arange(400) / 3.0), 50.0), path)
        code = run_cli(
            "decompose", str(path), "--sample-rate", "50", "-r", "1",
            "--out", str(tmp_path / "o"),
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "1e+200" in err and "Traceback" not in err

    @pytest.mark.parametrize("source", ["flag-nan", "flag-inf", "sidecar-1e400"])
    def test_non_finite_sample_rate_exits_2(self, tone_file, tmp_path, capsys, source):
        argv = ["decompose", str(tone_file), "-r", "1", "--out", str(tmp_path / "o")]
        if source == "sidecar-1e400":
            # 1e400 parses to inf
            tone_file.with_suffix(".json").write_text('{"sample_rate_hz": 1e400}\n')
        else:
            argv += ["--sample-rate", source.removeprefix("flag-")]
        code = run_cli(*argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "sample" in err and "Traceback" not in err


class TestSpectrum:
    def test_five_hz_tone(self, tone_file, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code = run_cli("spectrum", str(tone_file), "--out", str(out))
        assert code == 0
        stdout = capsys.readouterr().out
        assert "dominant frequency: 5 Hz" in stdout
        assert "K=48" in stdout
        header, first = out.read_text().splitlines()[:2]
        assert header == "frequency_hz,power"

    def test_constant_signal(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        write_timeseries_csv(TimeSeries(np.ones(300), 100.0), path)
        code = run_cli("spectrum", str(path), "--sample-rate", "100")
        assert code == 0
        stdout = capsys.readouterr().out
        assert "no dominant frequency" in stdout
        assert "K=100" in stdout  # floor(300 / 3)

    def test_two_sample_file_exits_4(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        path.write_text("1.0\n2.0\n")
        code = run_cli("spectrum", str(path), "--sample-rate", "10")
        assert code == 4
        assert "short" in capsys.readouterr().err

    def test_missing_file_exits_3(self, tmp_path):
        code = run_cli("spectrum", str(tmp_path / "gone.csv"), "--sample-rate", "10")
        assert code == 3


class TestBench:
    @pytest.fixture()
    def mini_spec(self, tmp_path):
        doc = {
            "generator": "sine-mixture",
            "snr_db": [60.0],
            "seeds": [0, 1],
            "embedding_dim": 200,
            "configs": [{"alpha": 0.3, "n_modes": 3}],
        }
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(doc))
        return path

    def test_mini_sweep(self, mini_spec, tmp_path, capsys):
        out = tmp_path / "bench_out"
        assert run_cli("bench", str(mini_spec), "--out", str(out)) == 0
        assert (out / "report.json").is_file()
        assert (out / "summary.csv").is_file()
        stdout = capsys.readouterr().out
        assert "2 cell(s), 0 failed" in stdout

    def test_empty_seeds_exits_2(self, tmp_path, capsys):
        doc = {
            "generator": "sine-mixture",
            "snr_db": [0.0],
            "seeds": [],
            "configs": [{"alpha": 1.0}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2
        assert "spec" in capsys.readouterr().err

    def test_missing_spec_exits_3(self, tmp_path):
        assert run_cli("bench", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")) == 3

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2

    def test_rerun_identical_modulo_timing(self, mini_spec, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert run_cli("bench", str(mini_spec), "--out", str(out1)) == 0
        assert run_cli("bench", str(mini_spec), "--out", str(out2)) == 0
        a = json.loads((out1 / "report.json").read_text())
        b = json.loads((out2 / "report.json").read_text())
        for doc in (a, b):
            for cell in doc["cells"]:
                cell.pop("wall_ms")
        assert a == b
