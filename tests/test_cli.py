import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from signal_families import hostile_valid_samples

import rmd
from rmd.cli import _build_parser, main
from rmd.eigen import NumericalError
from rmd.embedding import SignalTooShortError
from rmd.modes import SIMILARITY_MEASURES
from rmd.signals import (
    CsvFormatError,
    SineComponent,
    TimeSeries,
    add_noise_at_snr,
    gen_sinusoid_mixture,
    read_timeseries_csv,
    write_timeseries_csv,
)


def run_cli(*argv):
    return main(list(argv))


# JSON nested far past the parser's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def _reject_non_finite(token):
    raise ValueError(f"non-standard JSON constant {token}")


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


class TestParserReuse:
    """One parser serves every ``main`` call of a process."""

    @staticmethod
    def _in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _fresh_process(argv):
        env = dict(os.environ, COLUMNS="80")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(rmd.__file__).parents[1]), env.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-m", "rmd", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        return done.returncode, done.stdout, done.stderr

    @staticmethod
    def _files(out_dir):
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    def test_sequence_matches_fresh_processes(self, tone_file, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        out_dir = tmp_path / "out"
        sequence = [
            ["decompose", str(tone_file), "-r", "2", "--alpha", "nope", "--out", str(out_dir)],
            ["decompose", str(tone_file), "-r", "2", "--out", str(out_dir)],
            ["decompose", "--help"],
        ]
        fresh = []
        for argv in sequence:
            fresh.append(self._fresh_process(argv))
        fresh_files = self._files(out_dir)
        assert [r[0] for r in fresh] == [2, 0, 0]

        parser = _build_parser()
        in_process = [self._in_process(argv) for argv in sequence]
        assert in_process == fresh
        assert self._files(out_dir) == fresh_files
        assert _build_parser() is parser


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

    @pytest.mark.parametrize("snr", ["-4000", "4000", "inf", "1e999"])
    def test_snr_past_float_range_exits_2(self, tmp_path, capsys, snr):
        # at +inf dB the noise is 0, and the file was once the clean mixture
        out = tmp_path / "x.csv"
        assert run_cli("synth", "sine3", "--snr", snr, "--out", str(out)) == 2
        assert "snr_db" in capsys.readouterr().err and not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli("synth", "sine3", "--snr", "0", "--seed", "-1", "--out", str(out)) == 2
        assert "--seed" in capsys.readouterr().err and not out.exists()

    def test_zero_duration_exits_2(self, tmp_path, capsys):
        code = run_cli("synth", "sine3", "--duration", "0", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert capsys.readouterr().err != ""

    @pytest.mark.parametrize("flag", ["--freqs=-1,5,19", "--amps=3,-0.5,4"])
    def test_negative_frequency_or_amplitude_exits_2(self, tmp_path, capsys, flag):
        out = tmp_path / "x.csv"
        assert run_cli("synth", "sine3", flag, "--out", str(out)) == 2
        assert "must be >= 0" in capsys.readouterr().err and not out.exists()

    def test_unparsable_number_list_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "sine3", "--freqs", "1,x", "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 2
        assert "expected comma-separated numbers, got '1,x'" in capsys.readouterr().err

    def test_mismatched_params_exit_2(self, tmp_path):
        code = run_cli(
            "synth", "sine3", "--freqs", "1,2", "--amps", "1", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2

    @pytest.mark.parametrize("kind", ["sine3", "am"])
    @pytest.mark.parametrize("rate, duration", [("1e12", "1000"), ("1e308", "1e308")])
    def test_length_past_the_cap_exits_2(self, tmp_path, capsys, kind, rate, duration):
        out = tmp_path / "x.csv"
        code = run_cli("synth", kind, "--sample-rate", rate, "--duration", duration,
                       "--out", str(out))
        assert code == 2
        assert "at most" in capsys.readouterr().err and not out.exists()


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

    @pytest.mark.parametrize("text", ["", "value\n1.0\nfoo\n"], ids=["empty", "bad-line"])
    def test_format_error_names_the_path_once(self, tmp_path, capsys, text):
        path = tmp_path / "sig.csv"
        path.write_text(text)
        code = run_cli("decompose", str(path), "--sample-rate", "10", "-r", "1",
                       "--out", str(tmp_path / "o"))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"rmd decompose: {path}: ") and err.count(str(path)) == 1

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

    def test_failed_internal_check_exits_4(self, tone_file, tmp_path, capsys):
        # alpha * 4**(K - 1) overflows, so the solver's own check raises NumericalError
        code = run_cli("decompose", str(tone_file), "-r", "1", "--alpha", "1e308",
                       "--out", str(tmp_path / "o"))
        assert code == 4
        err = capsys.readouterr().err
        assert "M = I + alpha R overflows" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_huge_amplitude_decomposes(self, tmp_path, capsys):
        # decomposition is scale-equivariant: a 1e200 tone peaks where the unit tone does
        tone = np.sin(np.arange(400) / 3.0)
        peaks = {}
        for name, scale in (("unit", 1.0), ("huge", 1e200)):
            path = tmp_path / f"{name}.csv"
            write_timeseries_csv(TimeSeries(scale * tone, 50.0), path)
            code = run_cli(
                "decompose", str(path), "--sample-rate", "50", "-r", "1",
                "--out", str(tmp_path / name),
            )
            assert code == 0
            text = (tmp_path / name / "decomposition.json").read_text()
            doc = json.loads(text, parse_constant=_reject_non_finite)  # strict JSON
            peaks[name] = [m["peak_frequency_hz"] for m in doc["modes"]]
        assert "Traceback" not in capsys.readouterr().err
        assert peaks["huge"] == peaks["unit"]
        # gamma and energy of the 1e200 tone are past the float64 range: null
        assert all(m["gamma"] is None and m["energy"] is None for m in doc["modes"])

    def test_mode_past_the_float_range_exits_4(self, tmp_path, capsys):
        # the fundamental of a square wave is 4 / pi times its height: at 1.7e308
        # the mode leaves the float64 range, though every sample is finite
        t = np.arange(2000) / 100.0
        path = tmp_path / "square.csv"
        write_timeseries_csv(TimeSeries(np.where(np.sin(2 * np.pi * t + 0.1) > 0, 1.7e308,
                                                 -1.7e308), 100.0), path)
        code = run_cli("decompose", str(path), "--sample-rate", "100", "-r", "1",
                       "--out", str(tmp_path / "o"))
        assert code == 4
        err = capsys.readouterr().err
        assert "exceeds the float64 range" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,value,name", [
        ("--theta", "2", "merge_threshold"), ("--alpha", "-1", "alpha"),
        ("-r", "0", "n_modes"), ("-K", "1", "K_override"),
    ])
    def test_bad_flag_exits_2_before_missing_file(self, tmp_path, capsys, flag, value, name):
        argv = ["decompose", str(tmp_path / "nope.csv"), "--sample-rate", "100",
                "-r", "1", flag, value, "--out", str(tmp_path / "o")]
        assert run_cli(*argv) == 2
        assert name in capsys.readouterr().err

    def test_k_below_the_stencil_exits_2_before_missing_file(self, tmp_path, capsys):
        # -K 2 cannot hold the order-2 stencil whatever the input holds
        argv = ["decompose", str(tmp_path / "nope.csv"), "--sample-rate", "100",
                "-r", "1", "-K", "2", "--order", "2", "--out", str(tmp_path / "o")]
        assert run_cli(*argv) == 2
        assert "K_override must be >= 3" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["decompose", "spectrum"])
    def test_deeply_nested_sidecar_is_unusable(self, tone_file, tmp_path, capsys, command):
        # the JSON parser recurses once per level and gives up deep inside
        tone_file.with_suffix(".json").write_text(DEEP_JSON)
        argv = [command, str(tone_file), "--out", str(tmp_path / "o")]
        argv += ["-r", "1"] if command == "decompose" else []
        assert run_cli(*argv) == 2
        assert "no usable sidecar" in capsys.readouterr().err


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

    @pytest.mark.parametrize("n, k", [(1000, 333), (2000, 666), (5000, 1200)])
    def test_longer_constants_have_no_dominant_frequency(self, tmp_path, capsys, n, k):
        # their non-DC bins hold FFT rounding only, ~1e-34 against a DC power of 1
        path = tmp_path / "const.csv"
        write_timeseries_csv(TimeSeries(np.ones(n), 100.0), path)
        assert run_cli("spectrum", str(path), "--sample-rate", "100") == 0
        assert capsys.readouterr().out == \
            f"no dominant frequency (DC-only spectrum); suggested K={k}\n"

    def test_ramp_suggests_at_most_the_peak_rules_largest_k(self, tmp_path, capsys):
        # a ramp's strongest bin is its lowest, far below 1e-3 of the rate: the N/3
        # fallback, capped at 1200, not 10000 (rmd decompose would solve a 10000 x 10000 G)
        path = tmp_path / "ramp.csv"
        write_timeseries_csv(TimeSeries(np.arange(30_000.0), 100.0), path)
        assert run_cli("spectrum", str(path), "--sample-rate", "100") == 0
        assert "suggested K=1200" in capsys.readouterr().out

    def test_two_sample_file_exits_4(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        path.write_text("1.0\n2.0\n")
        code = run_cli("spectrum", str(path), "--sample-rate", "10")
        assert code == 4
        assert "short" in capsys.readouterr().err

    def test_missing_file_exits_3(self, tmp_path):
        code = run_cli("spectrum", str(tmp_path / "gone.csv"), "--sample-rate", "10")
        assert code == 3

    @pytest.mark.parametrize("k", [-1000, -560, 0, 560, 1000])
    def test_peak_and_k_do_not_depend_on_magnitude(self, tmp_path, capsys, k):
        # the raw power of x * 2**k underflows to 0 or overflows at |k| >= 560; the peak
        # and K come from the unit-scaled samples, as rmd decompose's K does
        mix, _ = gen_sinusoid_mixture([SineComponent(1.5, 2.0), SineComponent(7.0, 1.0)],
                                      100.0, 30.0)
        x, _ = add_noise_at_snr(mix, 0.0, seed=3)
        path = tmp_path / "x.csv"
        write_timeseries_csv(x.with_samples(np.ldexp(x.samples, k)), path)
        assert run_cli("spectrum", str(path), "--sample-rate", "100") == 0
        assert "dominant frequency: 1.5 Hz; suggested K=80" in capsys.readouterr().out
        out = tmp_path / "o"
        assert run_cli("decompose", str(path), "--sample-rate", "100", "-r", "2",
                       "--out", str(out)) == 0
        assert json.loads((out / "decomposition.json").read_text())["embedding_dim"] == 80

    @pytest.mark.parametrize("command", ["spectrum", "decompose"])
    def test_largest_sample_rates_suggest_the_unit_k(self, tone_file, tmp_path, capsys,
                                                       command):
        # 1.2 * rate overflows past about 1.5e308; the K heuristic must not
        ks = []
        for rate in ("200", "1.7e308", "1.7976931348623157e308"):
            argv = [command, str(tone_file), "--sample-rate", rate]
            out = tmp_path / rate
            argv += ["-r", "2", "--out", str(out)] if command == "decompose" else []
            assert run_cli(*argv) == 0
            if command == "decompose":
                ks.append(json.loads((out / "decomposition.json").read_text())["embedding_dim"])
            else:
                ks.append(capsys.readouterr().out.split("suggested K=")[1].split()[0])
        assert ks[1:] == ks[:1] * 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectrum", "decompose"])
    def test_subnormal_sample_rate_exits_2(self, tone_file, tmp_path, capsys, command):
        # 1 / 1e-320 overflows, so every frequency bin reads 0 Hz
        argv = [command, str(tone_file), "--sample-rate", "1e-320", "--out",
                str(tmp_path / "o")]
        argv += ["-r", "1"] if command == "decompose" else []
        assert run_cli(*argv) == 2
        assert "frequency grid" in capsys.readouterr().err


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
        assert "order  modes  shrink  true_hz" in stdout  # the aggregate key's config columns

    def test_spec_with_byte_order_mark_runs(self, tmp_path, capsys):
        doc = {"generator": "sine-mixture", "snr_db": [60.0], "seeds": [0],
               "duration_s": 1.0, "embedding_dim": 20, "configs": [{"alpha": 0.3}]}
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(doc).encode("utf-8"))
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 0
        assert "1 cell(s), 0 failed" in capsys.readouterr().out

    @pytest.mark.parametrize("rate", [1e-310, 5e-324])
    def test_file_spec_at_a_subnormal_rate_exits_2(self, tone_file, tmp_path, capsys, rate):
        # 1 / rate overflows, so every mode once reported 0 Hz and the command exited 0
        doc = {"generator": "file", "input_path": str(tone_file), "sample_rate_hz": rate,
               "configs": [{"alpha": 1.0}]}
        path = tmp_path / "file.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2
        assert "frequency grid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("config", [
        {"alpha": -1},
        {"alpha": float("inf")},
        {"alpha": 1.0, "theta": 2.0},
        {"alpha": 1.0, "n_modes": 0},
        {"alpha": 1.0, "diff_order": 3},
        {"alpha": 1.0, "measure": "manhattan"},
        {"alpha": "1"},
        {"n_modes": 3},
        {"alpha": 1.0, "merge_threshold": 0.5},
        {"alpha": 1.0, "eigen_floor": 0.0},
        {"alpha": 1.0, "K_override": 50},
        {"alpha": 1.0, "n_modes": float("nan")},
        {"alpha": 1.0, "n_modes": 2.5},
        {"alpha": 1.0, "n_modes": True},
        {"alpha": 1.0, "diff_order": 1.0},
    ])
    def test_bad_config_exits_2(self, tmp_path, capsys, config):
        # configs are checked when the spec is read, before any cell runs
        doc = {"generator": "sine-mixture", "snr_db": [0.0], "seeds": [0], "configs": [config]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2
        assert "bad experiment spec" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        doc = {"generator": "sine-mixture", "snr_db": [0.0], "seeds": [0], "configs": [5]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            "rmd bench: bad experiment spec: a config must be an object, got 5\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fields", [
        {"seeds": [1.5, True]},
        {"seeds": [True]},
        {"seeds": ["3"]},
        {"snr_db": [True]},
        {"snr_db": ["0"]},
    ])
    def test_bad_seed_or_snr_exits_2(self, tmp_path, capsys, fields):
        doc = {"generator": "sine-mixture", "snr_db": [0.0], "seeds": [0],
               "configs": [{"alpha": 1.0}], **fields}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2
        assert "bad experiment spec" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        doc = {"generator": "sine-mixture", "snr_db": [0.0], "seeds": [-1],
               "configs": [{"alpha": 1.0}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2
        assert "bad experiment spec: seeds[0]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_length_past_the_cap_exits_2(self, tmp_path, capsys):
        doc = {"generator": "sine-mixture", "snr_db": [0.0], "seeds": [0],
               "sample_rate_hz": 1e12, "duration_s": 1000, "configs": [{"alpha": 1.0}]}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2
        assert "at most" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fields", [
        {"sample_rate_hz": "100"},
        {"duration_s": None},
        {"amplitudes": ["1", "2", "3"]},
        {"generator": "am-mixture", "f1_hz": None},
        {"generator": "file", "input_path": 5},
        {"configs": 5},
        {"snr_db": 5},
        {"phases": ["0"]},
    ])
    def test_wrongly_typed_signal_field_exits_2(self, tmp_path, capsys, fields):
        # the spec checks each field's type when it is read, and names the key at fault
        doc = {"generator": "sine-mixture", "snr_db": [0.0], "seeds": [0],
               "configs": [{"alpha": 1.0}], **fields}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("rmd bench: ")
        assert next(key for key in fields if key != "generator") in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fields, key", [
        ({"configs": [{"alpha": 10**400}]}, "alpha"),
        ({"snr_db": [0.0, 10**400]}, "snr_db[1]"),
        ({"duration_s": -10**400}, "duration_s"),
    ])
    def test_integer_past_the_float_range_exits_2(self, tmp_path, capsys, fields, key):
        # JSON reads 1 followed by 400 zeros as a Python int, which float() cannot hold
        doc = {"generator": "sine-mixture", "snr_db": [0.0], "seeds": [0],
               "configs": [{"alpha": 1.0}], **fields}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"rmd bench: bad experiment spec: {key} ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("snr", ["1e999", "-1e999", "NaN"])
    def test_non_finite_snr_exits_2(self, tmp_path, capsys, snr):
        # JSON reads 1e999 as inf: every cell once ran noise-free and the command exited 0
        path = tmp_path / "spec.json"
        path.write_text('{"generator": "sine-mixture", "snr_db": [0.0, %s], "seeds": [0], '
                        '"duration_s": 2.0, "configs": [{"alpha": 1.0}]}' % snr)
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith(
            "rmd bench: bad experiment spec: snr_db[1] must be finite")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("shrinkage", ["false", 1, 0, None])
    def test_shrinkage_that_is_not_true_or_false_exits_2(self, tmp_path, capsys, shrinkage):
        # "false" once ran with shrinkage on, and 0 and 1 as off and on
        doc = {"generator": "sine-mixture", "snr_db": [0.0], "seeds": [0],
               "configs": [{"alpha": 1.0, "shrinkage": shrinkage}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2
        assert "shrinkage" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_spec_exits_3(self, tmp_path):
        assert run_cli("bench", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")) == 3

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("text", [DEEP_JSON.encode(), b'{"generator": "\xff"}'],
                             ids=["deeply-nested", "not-utf8"])
    def test_unparsable_spec_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "spec.json"
        path.write_bytes(text)
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2
        assert "bad experiment spec" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [
        {"alphas": [1.0, 2.0], "diff_orders": [1, 2]},
        {"alphas": [1.0], "configs": [{"alpha": 1.0}]},
        {"configs": [{"alpha": 1.0}], "theta": 0.7},
    ])
    def test_grid_spec_exits_2(self, tmp_path, capsys, grid):
        doc = {"generator": "sine-mixture", "snr_db": [0.0], "seeds": [0], **grid}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2
        assert "bad experiment spec" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fields", [
        {"embedding_dim": 1},
        {"embedding_dim": 2, "configs": [{"alpha": 1.0, "diff_order": 2}]},
        {"phases": [0.1]},  # three frequencies, one phase
        {"peak_tol_hz": None},
        {"peak_tol_hz": "0.5"},
        {"peak_tol_hz": True},
        {"peak_tol_hz": float("nan")},
        {"peak_tol_hz": float("inf")},
        {"peak_tol_hz": -0.1},
    ])
    def test_spec_rejected_before_any_cell_exits_2(self, tmp_path, capsys, fields):
        doc = {"generator": "sine-mixture", "snr_db": [0.0], "seeds": [0],
               "configs": [{"alpha": 1.0}], **fields}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        # the message names the spec key at fault, not the config field it sets
        assert "bad experiment spec" in err
        named = next((key for key in ("phases", "peak_tol_hz") if key in fields), None)
        assert (named or "embedding_dim must be >=") in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("snr", [-4000.0, 4000.0, -1e4, 1e4, float("-inf")])
    def test_snr_past_float_range_exits_2(self, tmp_path, capsys, snr):
        # 10 ** (snr / 10) underflows to 0 or overflows
        doc = {"generator": "sine-mixture", "snr_db": [snr], "seeds": [0],
               "duration_s": 1.0, "embedding_dim": 20, "configs": [{"alpha": 1.0}]}
        path = tmp_path / "snr.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bench", str(path), "--out", str(tmp_path / "o")) == 2
        assert "snr_db" in capsys.readouterr().err

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


# ---------------------------------------------------------------------------
# the exit-code contract over hostile input: 0 ok, 2 usage, 3 I/O, 4 numerical,
# and no other exception


def _exit_code(argv: list[str]) -> int:
    """main's return value, or the code argparse exits with."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


_numbers = st.one_of(
    st.integers(), st.floats(),
    st.sampled_from([0, -1, 1e308, -1e308, 5e-324, 1e400, 10**400]),
)
_garbage = st.text(st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",)),
                   max_size=6)
_hostile = st.one_of(_numbers.map(repr), st.sampled_from(["nan", "inf", "-inf", "1e999"]),
                     _garbage)
_valid_flags = st.fixed_dictionaries(
    {"--modes": st.integers(1, 6)},
    optional={
        "--alpha": st.floats(0, 50), "--theta": st.floats(0.05, 1.01),
        "--embedding-dim": st.integers(2, 40), "--sample-rate": st.floats(0.1, 1000),
        "--order": st.sampled_from([1, 2]), "--measure": st.sampled_from(SIMILARITY_MEASURES),
    },
).map(lambda flags: {k: v if isinstance(v, str) else repr(v) for k, v in flags.items()})
_row = st.one_of(
    st.floats().map(repr), st.integers(-1000, 1000).map(str), st.just("nan"), st.just(""),
    _garbage, st.tuples(st.floats(0, 100), st.floats()).map(lambda t: f"{t[0]!r},{t[1]!r}"),
)


def _csv(header: str, rows) -> bytes:
    return (header + "".join(f"{r}\n" for r in rows)).encode("utf-8")


# a header, and finite samples of any magnitude or a hostile but valid family
_valid_body = st.tuples(st.sampled_from(["", "value\n"]), st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=12, max_size=64),
    hostile_valid_samples(1e300)))
_hostile_body = st.builds(_csv, st.sampled_from(["", "value\n", "time,value\n"]),
                          st.lists(_row, max_size=64)) | st.binary(max_size=64)
_rate_doc = st.floats(0.1, 1000).map(lambda v: json.dumps({"sample_rate_hz": v}))
_hostile_sidecar = st.one_of(
    st.none(), _garbage,
    st.one_of(_numbers, st.text(max_size=4), st.none()).map(
        lambda v: json.dumps({"sample_rate_hz": v})),
)
# at most one hostile part per run, so that the others get past their checks
_fault = st.one_of(
    st.none(),
    st.tuples(st.just("flag"), st.sampled_from(
        ["--modes", "--alpha", "--theta", "--embedding-dim", "--sample-rate", "--order",
         "--measure"]), _hostile),
    st.tuples(st.just("body"), _hostile_body),
    st.tuples(st.just("sidecar"), _hostile_sidecar),
)
# one spec config, tagged True when drawn from the valid strategy
_config = st.one_of(
    st.tuples(st.just(True), st.fixed_dictionaries({"alpha": st.floats(0, 20)}, optional={
        "diff_order": st.integers(1, 2), "theta": st.floats(0.05, 1.01),
        "n_modes": st.integers(1, 5), "measure": st.sampled_from(SIMILARITY_MEASURES),
        "shrinkage": st.booleans(),
    })),
    st.tuples(st.just(False), st.dictionaries(
        st.sampled_from(["alpha", "diff_order", "theta", "n_modes", "measure", "shrinkage",
                         "merge_threshold", "eigen_floor", "K_override"]),
        st.one_of(_numbers, st.integers(0, 4), st.booleans(), st.none(), _garbage,
                  st.sampled_from(SIMILARITY_MEASURES)),
        max_size=6,
    )),
)
# the spec's other fields, hostile or not; a rate of at most 200 Hz over at most
# 1 s keeps every signal at 200 samples or fewer
_spec_fields = st.fixed_dictionaries({}, optional={
    "generator": st.sampled_from(["sine-mixture", "am-mixture", "file", "chirp"]),
    "snr_db": st.lists(st.one_of(st.floats(-40, 60), st.sampled_from(
        [1e4, -1e4, 4000.0, -4000.0, math.inf, -math.inf, math.nan])), max_size=2),
    "seeds": st.lists(st.one_of(st.integers(0, 3), st.sampled_from([-1, 2**70, 1.5])),
                      max_size=2),
    "sample_rate_hz": st.one_of(st.floats(10, 200), st.sampled_from(
        [0.0, -100.0, 5e-324, 1e-320, math.inf, math.nan])),
    "duration_s": st.one_of(st.floats(0, 1), st.sampled_from(
        [-1.0, 5e-324, math.inf, math.nan])),
    "amplitudes": st.lists(st.one_of(st.floats(0, 5), st.sampled_from(
        [-1.0, 1e300, 1.7e308, math.inf, math.nan])), max_size=3),
    "frequencies_hz": st.lists(st.one_of(st.floats(0, 100), st.sampled_from(
        [-1.0, 1e308, math.inf, math.nan])), max_size=3),
    **{key: st.one_of(st.floats(0, 100), st.sampled_from([-1.0, 1e308, math.inf, math.nan]))
       for key in ("f1_hz", "f2_hz", "f3_hz", "f_mod_hz")},
})
_contract = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestExitCodeContract:
    @pytest.mark.parametrize("error, code", [
        (NumericalError("e"), 4), (SignalTooShortError("e"), 4), (CsvFormatError("e"), 3),
        (FileNotFoundError("e"), 3), (ValueError("e"), 2), (TypeError("e"), 2),
        (OverflowError("e"), 2),
    ])
    def test_each_row_of_the_table(self, monkeypatch, capsys, error, code):
        # every row, also those no known input reaches: the spec's type rule
        # leaves no TypeError to the usage row
        def fail(args):
            raise error

        monkeypatch.setitem(rmd.cli._COMMANDS, "spectrum", fail)
        assert main(["spectrum", "in.csv"]) == code
        assert capsys.readouterr().err == "rmd spectrum: e\n"

    @_contract
    @given(flags=_valid_flags, body=_valid_body, sidecar=_rate_doc, fault=_fault)
    # an impulse at K=2 gives the eigenvector [1, 1] / sqrt(2), whose pearson
    # profile is zero: it must seed its own cluster, not fail the run
    @example(flags={"--modes": "3", "--alpha": "5", "--embedding-dim": "2",
                    "--sample-rate": "10", "--measure": "pearson"},
             body=("", [0.0] * 20 + [1.0] + [0.0] * 43), sidecar=None, fault=None)
    def test_decompose(self, flags, body, sidecar, fault):
        # with no hostile part, exit 2 if and only if -K cannot embed N samples
        # at the drawn order, and otherwise 0 or 4
        flags = dict(flags)
        header, samples = body
        K, order = int(flags.get("--embedding-dim", 0)), int(flags.get("--order", 1))
        expected = (2,) if K and not order + 1 <= K <= len(samples) - 1 else (0, 4)
        body = _csv(header, map(repr, samples))
        if fault is not None:
            expected = (0, 2, 3, 4)
            kind, *value = fault
            if kind == "flag":
                flags[value[0]] = value[1]
            elif kind == "body":
                body = value[0]
            else:
                sidecar = value[0]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.csv"
            path.write_bytes(body)
            if sidecar is not None:
                path.with_suffix(".json").write_text(sidecar, encoding="utf-8")
            argv = ["decompose", str(path), "--out", str(Path(tmp) / "out")]
            argv += [f"{flag}={value}" for flag, value in flags.items()]
            assert _exit_code(argv) in expected

    @settings(_contract, max_examples=200)
    @given(configs=st.lists(_config, max_size=3),
           embedding_dim=st.one_of(st.none(), st.integers(-2, 60)),
           fields=st.one_of(st.just({}), _spec_fields))
    def test_bench(self, configs, embedding_dim, fields):
        # with no hostile field or config, exit 2 if and only if there is no config
        # or embedding_dim is below a config's stencil, and otherwise 0: at N = 50
        # an embedding_dim above 49 fails each cell, which the report records
        expected = (0, 2, 3, 4)
        if not fields and all(valid for valid, _ in configs):
            stencil = max((c.get("diff_order", 1) + 1 for _, c in configs), default=0)
            too_small = embedding_dim is not None and embedding_dim < stencil
            expected = (2,) if not configs or too_small else (0,)
        doc = {
            "generator": "sine-mixture", "snr_db": [20.0], "seeds": [0],
            "sample_rate_hz": 100.0, "duration_s": 0.5, "embedding_dim": embedding_dim,
            "frequencies_hz": [5.0, 20.0], "amplitudes": [1.0, 0.5],
            "configs": [c for _, c in configs], **fields,
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert _exit_code(["bench", str(path), "--out", str(Path(tmp) / "out")]) in expected
