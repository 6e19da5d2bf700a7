"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Run as ``pytest tests/test_acceptance.py -v`` (the PASS/FAIL lines bypass
output capture so they are always visible).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from rmd.bench import ExperimentSpec, RunConfig, run_experiment
from rmd.cli import main as cli_main
from rmd.eigen import (
    GramMatrix,
    augmented,
    diff_operator,
    smoothing_matrix,
    solve_generalized,
)
from rmd.embedding import build_trajectory_matrix, diagonal_average
from rmd.modes import DecompositionConfig, rmd_decompose
from rmd.signals import (
    SineComponent,
    TimeSeries,
    add_noise_at_snr,
    gen_am_mixture,
    gen_sinusoid_mixture,
    read_timeseries_csv,
    score_mode,
)

REPO = Path(__file__).resolve().parent.parent
SPECS = REPO / "specs"

SEEDS = tuple(range(10))


def report(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def oracle_diagonal_average(m: np.ndarray) -> np.ndarray:
    """Anti-diagonal means via numpy diagonals; independent of the library."""
    flipped = np.fliplr(m)
    L, K = m.shape
    return np.array([
        np.diagonal(flipped, offset=off).mean()
        for off in range(K - 1, -L, -1)
    ])


def benchmark_mixture():
    components = [SineComponent(2.0, 3.0), SineComponent(5.0, 0.5), SineComponent(19.0, 4.0)]
    return gen_sinusoid_mixture(components, 200.0, 10.0)


def check_decomposition_bounds(ms, x) -> tuple[float, float]:
    """Returns (completeness relative error, variance ratio) of a ModeSet."""
    total = ms.residual.samples.copy()
    for m in ms.modes:
        total = total + m.samples
    scale = max(float(np.abs(x.samples).max()), 1e-300)
    rel = float(np.abs(total - x.samples).max()) / scale
    if ms.report:
        ratio = float(np.mean([1.0 / (1.0 + ms.config.alpha * e.mu) ** 2 for e in ms.report]))
    else:
        ratio = 0.0
    return rel, ratio


def test_criterion_01_hankel_round_trip(capsys):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(8, 513))
        k = int(rng.integers(2, n))
        x = rng.standard_normal(n)
        tm = build_trajectory_matrix(TimeSeries(x, 1.0), k)
        err = float(np.abs(diagonal_average(tm.data, n) - x).max())
        worst = max(worst, err)
    report(capsys, 1, "hankel-round-trip", worst <= 1e-12, f"max abs err {worst:.2e} over 200 cases")


def test_criterion_02_alpha_zero_equals_ssa(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(40, 141))
        k = int(rng.integers(4, min(17, n // 3 + 1)))
        x = TimeSeries(rng.standard_normal(n), 50.0)
        cfg = DecompositionConfig(
            n_modes=k, merge_threshold=1.01, alpha=0.0, K_override=k,
            similarity="cosine",
        )
        ms = rmd_decompose(x, cfg)
        tm = build_trajectory_matrix(x, k)
        U, s, Vt = np.linalg.svd(tm.data, full_matrices=False)
        assert len(ms.modes) == k
        scale = max(1.0, float(np.abs(x.samples).max()))
        for i in range(k):
            oracle = oracle_diagonal_average(s[i] * np.outer(U[:, i], Vt[i]))
            err = min(
                float(np.abs(ms.modes[i].samples - oracle).max()),
                float(np.abs(ms.modes[i].samples + oracle).max()),
            ) / scale
            worst = max(worst, err)
    report(capsys, 2, "alpha0-equals-ssa", worst <= 1e-7, f"max component err {worst:.2e}, 50 signals")


def test_criterion_03_generalized_eigen_contracts(capsys):
    rng = np.random.default_rng(11)
    alphas = (0.0, 0.1, 1.0, 10.0)
    worst_orth = worst_rayleigh = 0.0
    monotone = True
    for _ in range(100):
        k = int(rng.integers(4, 65))
        w = rng.standard_normal((k + 3, k))
        G = GramMatrix(w.T @ w)
        D = diff_operator(1, k)
        R = smoothing_matrix(D)
        prev = None
        for alpha in alphas:
            M = augmented(R, alpha)
            basis = solve_generalized(G, M, D)
            V = basis.vectors
            MV = M.matrix @ V
            mnorm = np.sqrt(np.einsum("ki,ki->i", V, MV))
            cross = np.abs(V.T @ MV) / np.outer(mnorm, mnorm)
            np.fill_diagonal(cross, 0.0)
            worst_orth = max(worst_orth, float(cross.max()))
            energies = np.einsum("ki,ki->i", V, G.matrix @ V)
            for gamma, mu, energy in zip(basis.gammas, basis.mu, energies):
                denom = max(abs(energy), 1e-300)
                worst_rayleigh = max(
                    worst_rayleigh, abs(gamma * (1 + alpha * mu) - energy) / denom
                )
            g = basis.gammas
            if prev is not None:
                monotone = monotone and bool(np.all(g <= prev + 1e-9 * np.abs(prev)))
            prev = g
    ok = worst_orth <= 1e-8 and worst_rayleigh <= 1e-8 and monotone
    report(capsys, 3, "generalized-eigen-contracts", ok,
           f"orth {worst_orth:.2e}, rayleigh {worst_rayleigh:.2e}, monotone {monotone}")


def test_criterion_04_rank1_roughness_identity(capsys):
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        order = int(rng.integers(1, 3))
        k = int(rng.integers(order + 2, 40))
        L = int(rng.integers(3, 40))
        u = rng.standard_normal(L)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(k)
        D = diff_operator(order, k)
        R = smoothing_matrix(D)
        frob = float(np.linalg.norm(D.matrix @ np.outer(u, v).T, "fro") ** 2)
        quad = float(v @ R @ v)
        worst = max(worst, abs(frob - quad) / max(abs(quad), 1e-300))
    report(capsys, 4, "rank1-roughness-identity", worst <= 1e-10, f"max rel err {worst:.2e}, 100 cases")


def suite_decompositions():
    """A spread of decompositions standing in for 'every decomposition in
    the suite' for the two always-on bounds."""
    mixture, _ = benchmark_mixture()
    am, _ = gen_am_mixture(3.0, 8.0, 31.0, 0.5, 200.0, 10.0)
    tone, _ = gen_sinusoid_mixture([SineComponent(5.0, 1.0)], 200.0, 10.0)
    runs = [(mixture, DecompositionConfig(n_modes=3, K_override=200)),
            (tone, DecompositionConfig(n_modes=1)),
            (am, DecompositionConfig(n_modes=3, K_override=200, alpha=2.0))]
    for seed, alpha, order, shrink in (
        (0, 8.0, 1, False), (1, 10.0, 1, False), (2, 0.45, 2, False),
        (3, 2.0, 1, True), (4, 0.0, 1, False),
    ):
        noisy, _ = add_noise_at_snr(mixture, -5.0, seed)
        runs.append((noisy, DecompositionConfig(
            n_modes=4, K_override=200, alpha=alpha, diff_order=order, shrinkage=shrink,
        )))
    return runs


def test_criterion_05_and_06_bounds_on_every_decomposition(capsys):
    worst_ratio = 0.0
    worst_rel = 0.0
    for x, cfg in suite_decompositions():
        ms = rmd_decompose(x, cfg)
        rel, ratio = check_decomposition_bounds(ms, x)
        worst_rel = max(worst_rel, rel)
        worst_ratio = max(worst_ratio, ratio)
    report(capsys, 5, "variance-ratio-bound", worst_ratio <= 1.0 + 1e-12,
           f"max mean shrink ratio {worst_ratio:.6f} over {len(suite_decompositions())} runs")
    report(capsys, 6, "mode-completeness", worst_rel <= 1e-9,
           f"max relative reconstruction err {worst_rel:.2e}")


def test_criterion_07_noiseless_separation(capsys):
    mixture, truths = benchmark_mixture()
    ms = rmd_decompose(mixture, DecompositionConfig(n_modes=3, K_override=200))
    peaks = sorted(e.peak_frequency_hz for e in ms.report)
    # 0.1 Hz grid resolution at N=2000, Fs=200
    peaks_ok = peaks == [2.0, 5.0, 19.0]
    min_corr = 1.0
    for mode in ms.modes:
        best = max(score_mode(mode, t).correlation for t in truths)
        min_corr = min(min_corr, best)
    report(capsys, 7, "noiseless-separation", peaks_ok and min_corr >= 0.99,
           f"peaks {peaks}, min corr {min_corr:.4f}")


def run_sine_bench(snr_db: float, config: RunConfig):
    spec = ExperimentSpec(
        generator="sine-mixture", snr_db=(snr_db,), seeds=SEEDS,
        configs=(config,), embedding_dim=200,
    )
    return run_experiment(spec)


def scores_by_freq(cells, freq):
    return [s for c in cells if c.success for s in c.scores if s.true_freq_hz == freq]


def test_criterion_08_minus5db_reproduction(capsys):
    t0 = time.perf_counter()
    rep = run_sine_bench(-5.0, RunConfig(alpha=8.0, diff_order=1, theta=0.85, n_modes=4))
    elapsed = time.perf_counter() - t0
    all_matched = all(s.matched for c in rep.cells for s in c.scores)
    errs = [abs(s.peak_freq_hz - s.true_freq_hz)
            for c in rep.cells for s in c.scores if s.matched]
    mean_err = float(np.mean(errs))
    corr2 = float(np.mean([s.correlation for s in scores_by_freq(rep.cells, 2.0)]))
    corr19 = float(np.mean([s.correlation for s in scores_by_freq(rep.cells, 19.0)]))
    ok = (all_matched and mean_err <= 0.5 and corr2 >= 0.7 and corr19 >= 0.7
          and elapsed <= 60.0)
    report(capsys, 8, "minus5db-reproduction", ok,
           f"matched {all_matched}, mean|dpeak| {mean_err:.3f} Hz, "
           f"corr2 {corr2:.3f}, corr19 {corr19:.3f}, {elapsed:.1f}s")


def test_criterion_09_minus15db_reproduction(capsys):
    t0 = time.perf_counter()
    rep = run_sine_bench(-15.0, RunConfig(alpha=10.0, diff_order=1, theta=0.6, n_modes=8))
    elapsed = time.perf_counter() - t0
    hit2 = sum(
        1 for s in scores_by_freq(rep.cells, 2.0)
        if s.peak_freq_hz is not None and abs(s.peak_freq_hz - 2.0) <= 0.3
    )
    hit19 = sum(
        1 for s in scores_by_freq(rep.cells, 19.0)
        if s.peak_freq_hz is not None and abs(s.peak_freq_hz - 19.0) <= 0.3
    )
    third = sum(
        1 for s in scores_by_freq(rep.cells, 5.0)
        if s.peak_freq_hz is not None and 3.0 <= s.peak_freq_hz <= 7.0
    )
    ok = hit2 >= 8 and hit19 >= 8 and third >= 6 and elapsed <= 60.0
    report(capsys, 9, "minus15db-reproduction", ok,
           f"2Hz {hit2}/10, 19Hz {hit19}/10, low-freq third {third}/10, {elapsed:.1f}s")


def test_criterion_10_nonlinear_reproduction(capsys):
    spec = ExperimentSpec(
        generator="am-mixture", snr_db=(0.0,), seeds=SEEDS,
        configs=(RunConfig(alpha=2.0, diff_order=1, theta=0.85, n_modes=4),),
        embedding_dim=200,
    )
    rep = run_experiment(spec)
    both_low = 0
    got31 = 0
    for cell in rep.cells:
        peaks = [p for p in cell.mode_peaks_hz if p is not None]
        has3 = any(abs(p - 3.0) <= 0.5 for p in peaks)
        has8 = any(abs(p - 8.0) <= 0.5 for p in peaks)
        if has3 and has8:
            both_low += 1
        if any(abs(p - 31.0) <= 0.5 for p in peaks):
            got31 += 1
    ok = both_low >= 8 and got31 >= 9
    report(capsys, 10, "nonlinear-reproduction", ok, f"3&8Hz {both_low}/10, 31Hz {got31}/10")


def test_criterion_11_performance(capsys):
    mixture, _ = benchmark_mixture()
    noisy, _ = add_noise_at_snr(mixture, -5.0, 0)
    t0 = time.perf_counter()
    rmd_decompose(noisy, DecompositionConfig(n_modes=3, K_override=200, alpha=8.0))
    t_bench = time.perf_counter() - t0

    slow, _ = gen_sinusoid_mixture(
        [SineComponent(0.3, 1.0), SineComponent(1.2, 0.5)], 100.0, 20.48
    )
    radar, _ = add_noise_at_snr(slow, 0.0, 1)
    assert len(radar) == 2048
    t0 = time.perf_counter()
    rmd_decompose(radar, DecompositionConfig(n_modes=4, K_override=682, alpha=2.0))
    t_radar = time.perf_counter() - t0
    ok = t_bench <= 10.0 and t_radar <= 120.0
    report(capsys, 11, "performance", ok, f"N=2000/K=200 {t_bench:.2f}s, N=2048/K=682 {t_radar:.2f}s")


# --- criterion 12: CLI round trip on the bundled specs -----------------------


def run_cli(*argv):
    code = cli_main(list(argv))
    assert code == 0, f"cli {' '.join(argv)} exited {code}"


def strip_wall(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    for cell in doc["cells"]:
        cell.pop("wall_ms")
    return doc


def summary_without_wall(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def assert_tree_byte_stable(a: Path, b: Path):
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    assert names_a == names_b
    for name in names_a:
        if name == "report.json":
            ra = strip_wall(json.loads((a / name).read_text()))
            rb = strip_wall(json.loads((b / name).read_text()))
            assert ra == rb, "report.json differs beyond wall time"
        elif name == "summary.csv":
            assert summary_without_wall(a / name) == summary_without_wall(b / name)
        else:
            assert (a / name).read_bytes() == (b / name).read_bytes(), f"{name} not byte-stable"


def test_criterion_12_cli_round_trip(capsys, tmp_path):
    # synth -> decompose round trip of the noiseless benchmark (criterion 7)
    mix_csv = tmp_path / "mix.csv"
    run_cli("synth", "sine3", "--out", str(mix_csv))
    dec1, dec2 = tmp_path / "dec1", tmp_path / "dec2"
    for out in (dec1, dec2):
        run_cli("decompose", str(mix_csv), "-r", "3", "-K", "200", "--out", str(out))
    names = sorted(p.name for p in dec1.iterdir())
    byte_stable = all(
        (dec1 / n).read_bytes() == (dec2 / n).read_bytes() for n in names
    )

    doc = json.loads((dec1 / "decomposition.json").read_text())
    peaks = sorted(m["peak_frequency_hz"] for m in doc["modes"])
    _, truths = benchmark_mixture()
    min_corr = 1.0
    for i in range(1, 4):
        mode = read_timeseries_csv(dec1 / f"mode_{i:02d}.csv", 200.0)
        min_corr = min(min_corr, max(score_mode(mode, t).correlation for t in truths))
    crit7_ok = peaks == [2.0, 5.0, 19.0] and min_corr >= 0.99

    # bundled sine spec reproduces criteria 8 and 9
    sine1, sine2 = tmp_path / "sine1", tmp_path / "sine2"
    for out in (sine1, sine2):
        run_cli("bench", str(SPECS / "sine_snr.json"), "--out", str(out))
    assert_tree_byte_stable(sine1, sine2)
    rep = json.loads((sine1 / "report.json").read_text())
    c8 = [c for c in rep["cells"] if c["snr_db"] == -5.0 and c["alpha"] == 8.0]
    c9 = [c for c in rep["cells"] if c["snr_db"] == -15.0 and c["alpha"] == 10.0]
    assert len(c8) == 10 and len(c9) == 10

    def cell_scores(cells, freq):
        return [s for c in cells for s in c["scores"] if s["true_freq_hz"] == freq]

    errs = [abs(s["peak_freq_hz"] - s["true_freq_hz"])
            for c in c8 for s in c["scores"] if s["matched"]]
    corr2 = np.mean([s["correlation"] for s in cell_scores(c8, 2.0)])
    corr19 = np.mean([s["correlation"] for s in cell_scores(c8, 19.0)])
    crit8_ok = (all(s["matched"] for c in c8 for s in c["scores"])
                and np.mean(errs) <= 0.5 and corr2 >= 0.7 and corr19 >= 0.7)

    hit2 = sum(1 for s in cell_scores(c9, 2.0)
               if s["peak_freq_hz"] is not None and abs(s["peak_freq_hz"] - 2.0) <= 0.3)
    hit19 = sum(1 for s in cell_scores(c9, 19.0)
                if s["peak_freq_hz"] is not None and abs(s["peak_freq_hz"] - 19.0) <= 0.3)
    third = sum(1 for s in cell_scores(c9, 5.0)
                if s["peak_freq_hz"] is not None and 3.0 <= s["peak_freq_hz"] <= 7.0)
    crit9_ok = hit2 >= 8 and hit19 >= 8 and third >= 6

    # bundled nonlinear spec reproduces criterion 10
    am1, am2 = tmp_path / "am1", tmp_path / "am2"
    for out in (am1, am2):
        run_cli("bench", str(SPECS / "nonlinear.json"), "--out", str(out))
    assert_tree_byte_stable(am1, am2)
    rep = json.loads((am1 / "report.json").read_text())
    both_low = got31 = 0
    for cell in rep["cells"]:
        peaks = [p for p in cell["mode_peaks_hz"] if p is not None]
        if any(abs(p - 3.0) <= 0.5 for p in peaks) and any(abs(p - 8.0) <= 0.5 for p in peaks):
            both_low += 1
        if any(abs(p - 31.0) <= 0.5 for p in peaks):
            got31 += 1
    crit10_ok = both_low >= 8 and got31 >= 9

    ok = byte_stable and crit7_ok and crit8_ok and crit9_ok and crit10_ok
    report(capsys, 12, "cli-round-trip", ok,
           f"byte-stable {byte_stable}, c7 {crit7_ok}, c8 {crit8_ok}, "
           f"c9 {crit9_ok}, c10 {crit10_ok}")
