import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmd.eigen import (
    EigenBasis,
    augmented,
    diff_operator,
    gram,
    smoothing_matrix,
    solve_generalized,
)
from rmd.embedding import TrajectoryMatrix, build_trajectory_matrix, diagonal_average
from rmd.modes import (
    SIMILARITY_MEASURES,
    DecompositionConfig,
    cluster_and_merge,
    reconstruct_mode,
    rmd_decompose,
    similarity,
    ssa_decompose,
    write_modeset,
)
from rmd.signals import (
    SineComponent,
    TimeSeries,
    add_noise_at_snr,
    gen_sinusoid_mixture,
    score_mode,
)


def make_basis(vectors, gammas, alpha=0.0):
    V = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
    V = V / np.linalg.norm(V, axis=0)
    k = len(gammas)
    return EigenBasis(
        gammas=np.asarray(gammas, dtype=float), vectors=V, mu=np.zeros(k),
        negligible=np.zeros(k, dtype=bool), alpha=alpha,
    )


class TestConfig:
    def test_defaults(self):
        cfg = DecompositionConfig(n_modes=3)
        assert cfg.merge_threshold == 0.85
        assert cfg.alpha == 0.3
        assert cfg.diff_order == 1
        assert cfg.similarity == "spectral"
        assert cfg.shrinkage is False

    def test_validation(self):
        with pytest.raises(ValueError):
            DecompositionConfig(n_modes=0)
        with pytest.raises(ValueError):
            DecompositionConfig(n_modes=1, merge_threshold=1.02)
        with pytest.raises(ValueError):
            DecompositionConfig(n_modes=1, merge_threshold=0.0)
        with pytest.raises(ValueError):
            DecompositionConfig(n_modes=1, alpha=-1.0)
        with pytest.raises(ValueError):
            DecompositionConfig(n_modes=1, diff_order=3)
        with pytest.raises(ValueError):
            DecompositionConfig(n_modes=1, similarity="taxicab")


class TestSimilarity:
    def test_identity(self, rng):
        v = rng.standard_normal(16)
        assert similarity(v, v, "cosine") == pytest.approx(1.0)
        assert similarity(v, v, "pearson") == pytest.approx(1.0)
        assert similarity(v, v, "normalized-euclidean") == pytest.approx(1.0)
        assert similarity(v, v, "spectral") == pytest.approx(1.0)

    def test_sign_invariance_of_cosine(self, rng):
        v = rng.standard_normal(16)
        assert similarity(v, -v, "cosine") == pytest.approx(1.0)
        assert similarity(v, -v, "pearson") == pytest.approx(1.0)

    def test_quadrature_pair_spectral_vs_cosine(self):
        n = np.arange(32)
        a = np.sin(2 * np.pi * 4 * n / 32)
        b = np.cos(2 * np.pi * 4 * n / 32)
        assert similarity(a, b, "cosine") < 0.05
        assert similarity(a, b, "spectral") > 0.999

    def test_zero_norm_rejected(self):
        z = np.zeros(8)
        v = np.ones(8)
        for measure in ("cosine", "spectral"):
            with pytest.raises(ValueError):
                similarity(z, v, measure)
        with pytest.raises(ValueError):
            similarity(np.full(8, 2.0), v, "pearson")

    def test_normalized_euclidean_in_unit_interval(self, rng):
        a = rng.standard_normal(12)
        b = rng.standard_normal(12)
        s = similarity(a, b, "normalized-euclidean")
        assert 0.0 < s <= 1.0

    @pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
    def test_columns_match_one_call_per_vector(self, rng, measure):
        a = rng.standard_normal(12)
        B = rng.standard_normal((12, 5))
        scale = np.std(np.column_stack([a, B]), axis=1)
        sims = similarity(a, B, measure, scale)
        assert sims.shape == (5,)
        for j in range(5):
            assert sims[j] == pytest.approx(similarity(a, B[:, j], measure, scale), rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            similarity(np.ones(8), np.ones(7), "cosine")
        with pytest.raises(ValueError):
            similarity(np.ones((8, 2)), np.ones(8), "cosine")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, 10))
        for m in ("cosine", "pearson", "spectral"):
            assert similarity(a, b, m) == pytest.approx(similarity(b, a, m), rel=1e-12)


class TestClusterAndMerge:
    def test_orthogonal_vectors_stay_singletons(self):
        basis = make_basis(np.eye(4), [4.0, 3.0, 2.0, 1.0])
        cfg = DecompositionConfig(n_modes=4, similarity="cosine")
        clusters, leftovers = cluster_and_merge(basis, cfg)
        assert [c.member_indices for c in clusters] == [(0,), (1,), (2,), (3,)]
        assert leftovers == []

    def test_duplicate_pair_merges(self):
        e1 = [1.0, 0.0, 0.0]
        e2 = [0.0, 1.0, 0.0]
        basis = make_basis([e1, e1, e2], [3.0, 2.0, 1.0])
        cfg = DecompositionConfig(n_modes=2, similarity="cosine")
        clusters, leftovers = cluster_and_merge(basis, cfg)
        assert clusters[0].member_indices == (0, 1)
        np.testing.assert_allclose(clusters[0].vector, e1, atol=1e-12)
        assert clusters[0].gamma_total == 5.0
        assert clusters[1].member_indices == (2,)
        assert leftovers == []

    def test_sign_flipped_duplicate_merges_cleanly(self):
        e1 = np.array([1.0, 0.0, 0.0])
        basis = make_basis([e1, -e1, [0, 1, 0]], [3.0, 2.0, 1.0])
        cfg = DecompositionConfig(n_modes=2, similarity="cosine")
        clusters, _ = cluster_and_merge(basis, cfg)
        # without sign alignment the weighted mean would nearly cancel
        np.testing.assert_allclose(np.abs(clusters[0].vector), e1, atol=1e-12)

    def test_quadrature_pair_of_tone_merges_with_spectral(self):
        tone, _ = gen_sinusoid_mixture([SineComponent(5.0, 1.0)], 200.0, 10.0)
        tm = build_trajectory_matrix(tone, 48)
        D = diff_operator(1, 48)
        basis = solve_generalized(gram(tm), augmented(smoothing_matrix(D), 0.3), D)
        cfg = DecompositionConfig(n_modes=1, similarity="spectral")
        clusters, _ = cluster_and_merge(basis, cfg)
        assert len(clusters) == 1
        assert clusters[0].member_indices == (0, 1)

    def test_stops_at_n_modes(self):
        basis = make_basis(np.eye(5), [5.0, 4.0, 3.0, 2.0, 1.0])
        cfg = DecompositionConfig(n_modes=2, similarity="cosine")
        clusters, leftovers = cluster_and_merge(basis, cfg)
        assert len(clusters) == 2
        assert len(leftovers) == 3

    def test_empty_basis_rejected(self):
        empty = EigenBasis(gammas=np.empty(0), vectors=np.empty((0, 0)), mu=np.empty(0),
                           negligible=np.empty(0, dtype=bool), alpha=0.0)
        with pytest.raises(ValueError):
            cluster_and_merge(empty, DecompositionConfig(n_modes=1))

    def test_zero_eigenvalue_cluster_with_no_floor(self):
        # eigen_floor=0 admits zero-gamma pairs; merging must not divide by 0
        x = TimeSeries(np.full(20, 2.0), 5.0)  # rank-1 trajectory, rest zeros
        cfg = DecompositionConfig(
            n_modes=4, K_override=5, similarity="cosine", alpha=0.0, eigen_floor=0.0
        )
        ms = rmd_decompose(x, cfg)
        assert all(np.all(np.isfinite(m.samples)) for m in ms.modes)
        recon = ms.reconstruct()
        np.testing.assert_allclose(recon.samples, x.samples, atol=1e-9)


class TestReconstructMode:
    def test_rank_one_exact(self):
        # geometric signal gives a rank-1 trajectory matrix
        x = TimeSeries(0.9 ** np.arange(12), 1.0)
        tm = build_trajectory_matrix(x, 4)
        v = 0.9 ** np.arange(4)
        v /= np.linalg.norm(v)
        out = reconstruct_mode(tm, v)
        np.testing.assert_allclose(out.samples, diagonal_average(tm.data, 12), atol=1e-12)

    def test_orthogonal_vector_gives_zero(self):
        x = TimeSeries(np.full(10, 3.0), 1.0)
        tm = build_trajectory_matrix(x, 3)
        v = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        out = reconstruct_mode(tm, v)
        np.testing.assert_allclose(out.samples, 0.0, atol=1e-12)

    def test_top_merged_mode_of_pure_tone(self):
        # the pair-sum reconstruction of a clean tone is essentially exact
        tone, _ = gen_sinusoid_mixture([SineComponent(5.0, 1.0)], 200.0, 10.0)
        ms = rmd_decompose(tone, DecompositionConfig(n_modes=1))
        metrics = score_mode(ms.modes[0], tone)
        assert metrics.correlation >= 0.999
        assert metrics.peak_frequency == 5.0

    def test_validation(self):
        x = TimeSeries(np.arange(8, dtype=float), 1.0)
        tm = build_trajectory_matrix(x, 3)
        with pytest.raises(ValueError):
            reconstruct_mode(tm, np.ones(3))  # not unit norm
        with pytest.raises(ValueError):
            reconstruct_mode(tm, np.array([1.0, 0.0]))
        v = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            reconstruct_mode(tm, v, g=0.0)
        with pytest.raises(ValueError):
            reconstruct_mode(tm, v, g=1.5)


class TestRmdDecompose:
    def test_zero_signal(self):
        x = TimeSeries(np.zeros(64), 10.0)
        ms = rmd_decompose(x, DecompositionConfig(n_modes=3, K_override=16))
        for mode in ms.modes:
            assert np.all(mode.samples == 0.0)
        assert np.all(ms.residual.samples == 0.0)
        assert ms.warnings  # fewer clusters than requested

    def test_noiseless_three_tone_separation(self, three_tone):
        mixture, truths = three_tone
        cfg = DecompositionConfig(n_modes=3, K_override=200)
        ms = rmd_decompose(mixture, cfg)
        assert len(ms.modes) == 3
        peaks = sorted(e.peak_frequency_hz for e in ms.report)
        assert peaks == [2.0, 5.0, 19.0]
        for mode in ms.modes:
            best = max(score_mode(mode, t).correlation for t in truths)
            assert best >= 0.99

    def test_alpha_zero_without_merging_matches_ssa_oracle(self, rng):
        x = TimeSeries(rng.standard_normal(90), 50.0)
        K = 12
        cfg = DecompositionConfig(
            n_modes=K, merge_threshold=1.01, alpha=0.0, K_override=K,
            similarity="cosine",
        )
        ms = rmd_decompose(x, cfg)
        # independent oracle: SVD components, diagonal-averaged by explicit loops
        tm = build_trajectory_matrix(x, K)
        U, s, Vt = np.linalg.svd(tm.data, full_matrices=False)
        assert len(ms.modes) == K
        for i in range(K):
            Z = s[i] * np.outer(U[:, i], Vt[i])
            L, Kd = Z.shape
            oracle = np.zeros(len(x))
            counts = np.zeros(len(x))
            for a in range(L):
                for b in range(Kd):
                    oracle[a + b] += Z[a, b]
                    counts[a + b] += 1
            oracle /= counts
            err = min(
                np.abs(ms.modes[i].samples - oracle).max(),
                np.abs(ms.modes[i].samples + oracle).max(),
            )
            assert err < 1e-7

    def test_completeness(self, three_tone, rng):
        mixture, _ = three_tone
        noisy, _ = add_noise_at_snr(mixture, -5.0, 0)
        ms = rmd_decompose(noisy, DecompositionConfig(n_modes=3, K_override=200))
        recon = ms.reconstruct()
        scale = np.abs(noisy.samples).max()
        assert np.abs(recon.samples - noisy.samples).max() <= 1e-9 * scale

    def test_deterministic(self, three_tone):
        mixture, _ = three_tone
        noisy, _ = add_noise_at_snr(mixture, -5.0, 1)
        cfg = DecompositionConfig(n_modes=3, K_override=200, alpha=8.0)
        a = rmd_decompose(noisy, cfg)
        b = rmd_decompose(noisy, cfg)
        for ma, mb in zip(a.modes, b.modes):
            assert np.array_equal(ma.samples, mb.samples)
        assert np.array_equal(a.residual.samples, b.residual.samples)
        assert a.report == b.report

    def test_energy_ordering(self, three_tone):
        mixture, _ = three_tone
        noisy, _ = add_noise_at_snr(mixture, -5.0, 2)
        ms = rmd_decompose(noisy, DecompositionConfig(n_modes=5, K_override=200, alpha=8.0))
        gammas = [e.gamma for e in ms.report]
        assert gammas == sorted(gammas, reverse=True)

    def test_mean_roughness_nonincreasing_in_alpha(self, three_tone):
        # stronger regularization prefers smoother eigenvectors
        mixture, _ = three_tone
        alphas = (0.0, 0.3, 3.0, 10.0)
        mean_mu = {a: [] for a in alphas}
        for seed in range(5):
            noisy, _ = add_noise_at_snr(mixture, -5.0, seed)
            for a in alphas:
                cfg = DecompositionConfig(n_modes=3, K_override=200, alpha=a)
                ms = rmd_decompose(noisy, cfg)
                mean_mu[a].append(np.mean([e.mu for e in ms.report[:3]]))
        curve = [np.mean(mean_mu[a]) for a in alphas]
        assert all(hi <= lo + 1e-12 for lo, hi in zip(curve[:-1], curve[1:]))

    def test_shrinkage_still_complete(self, three_tone):
        mixture, _ = three_tone
        noisy, _ = add_noise_at_snr(mixture, 0.0, 3)
        cfg = DecompositionConfig(n_modes=3, K_override=200, alpha=2.0, shrinkage=True)
        ms = rmd_decompose(noisy, cfg)
        recon = ms.reconstruct()
        scale = np.abs(noisy.samples).max()
        assert np.abs(recon.samples - noisy.samples).max() <= 1e-9 * scale
        # shrinkage attenuates: each mode has no more energy than unshrunk
        unshrunk = rmd_decompose(
            noisy, DecompositionConfig(n_modes=3, K_override=200, alpha=2.0)
        )
        for a, b in zip(ms.modes, unshrunk.modes):
            assert np.linalg.norm(a.samples) <= np.linalg.norm(b.samples) + 1e-9

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            rmd_decompose(TimeSeries(np.arange(8, dtype=float), 1.0),
                          DecompositionConfig(n_modes=1))

    def test_k_override_out_of_range(self):
        x = TimeSeries(np.arange(20, dtype=float), 1.0)
        with pytest.raises(ValueError):
            rmd_decompose(x, DecompositionConfig(n_modes=1, K_override=20))


def solve_basis(x, K, alpha, order):
    tm = build_trajectory_matrix(x, K)
    D = diff_operator(order, K)
    return tm, solve_generalized(gram(tm), augmented(smoothing_matrix(D), alpha), D)


def naive_clusters(basis, cfg):
    """Greedy clustering by one similarity() call per pair, the reference loop."""
    V = basis.vectors
    scale = np.std(V, axis=1) if cfg.similarity == "normalized-euclidean" else None
    consumed = basis.negligible.tolist()
    clusters = []
    for i in range(len(basis)):
        if len(clusters) >= cfg.n_modes:
            break
        if consumed[i]:
            continue
        consumed[i] = True
        members = [i]
        for j in range(i + 1, len(basis)):
            if consumed[j]:
                continue
            if similarity(V[:, i], V[:, j], cfg.similarity, scale) > cfg.merge_threshold:
                consumed[j] = True
                members.append(j)
        clusters.append(tuple(members))
    return clusters


class TestArrayPathOracles:
    """The array-native pipeline against the direct matrix forms it replaces."""

    @pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), order=st.sampled_from([1, 2]),
           shrinkage=st.booleans())
    def test_modes_and_residual_match_outer_product_oracle(self, measure, seed, order,
                                                            shrinkage):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 80))
        K = int(rng.integers(order + 1, n))
        x = TimeSeries(rng.standard_normal(n), 10.0)
        cfg = DecompositionConfig(
            n_modes=int(rng.integers(1, K + 1)), merge_threshold=float(rng.uniform(0.3, 1.0)),
            alpha=float(rng.uniform(0.0, 5.0)), diff_order=order, similarity=measure,
            K_override=K, shrinkage=shrinkage,
        )
        ms = rmd_decompose(x, cfg)
        tm, basis = solve_basis(x, K, cfg.alpha, order)
        clusters, _ = cluster_and_merge(basis, cfg)
        Zs = []
        for c in sorted(clusters, key=lambda c: -c.gamma_total):
            Z = np.zeros_like(tm.data)
            for m in c.member_indices:
                v = basis.vectors[:, m]
                g = 1.0 / (1.0 + cfg.alpha * basis.mu[m]) if shrinkage else 1.0
                Z += g * np.outer(tm.data @ v, v)
            Zs.append(Z)
        assert len(ms.modes) == len(Zs)
        scale = np.abs(x.samples).max()
        for mode, Z in zip(ms.modes, Zs):
            oracle = diagonal_average(Z, n)
            assert np.abs(mode.samples - oracle).max() <= 1e-12 * scale
        oracle = diagonal_average(tm.data - sum(Zs), n)
        assert np.abs(ms.residual.samples - oracle).max() <= 1e-12 * scale

    def test_reconstruct_mode_matches_outer_product_oracle(self, rng):
        x = TimeSeries(rng.standard_normal(40), 1.0)
        tm = build_trajectory_matrix(x, 9)
        v = rng.standard_normal(9)
        v /= np.linalg.norm(v)
        out = reconstruct_mode(tm, v, g=0.4)
        oracle = diagonal_average(0.4 * np.outer(tm.data @ v, v), 40)
        assert np.abs(out.samples - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
    @pytest.mark.parametrize("order", [1, 2])
    def test_clusters_match_pairwise_greedy_loop(self, measure, order):
        rng = np.random.default_rng(5 + order)
        merged_any = False
        for _ in range(8):
            n = int(rng.integers(30, 90))
            K = int(rng.integers(order + 3, 16))
            x = TimeSeries(rng.standard_normal(n), 1.0)
            _, basis = solve_basis(x, K, float(rng.uniform(0.0, 3.0)), order)
            # threshold halfway between two distinct pairwise similarities near the
            # upper quartile, so that members merge and no pair sits on the threshold
            V = basis.vectors
            scale = np.std(V, axis=1) if measure == "normalized-euclidean" else None
            sims = np.unique([similarity(V[:, i], V[:, j], measure, scale)
                              for i in range(K) for j in range(i + 1, K)])
            q = int(0.75 * (len(sims) - 1))
            theta = float(sims[q] + sims[q + 1]) / 2
            cfg = DecompositionConfig(n_modes=K, merge_threshold=theta, similarity=measure)
            clusters, _ = cluster_and_merge(basis, cfg)
            expected = naive_clusters(basis, cfg)
            assert [c.member_indices for c in clusters] == expected
            merged_any |= any(len(m) > 1 for m in expected)
        assert merged_any


class TestSsaDecompose:
    def test_pure_tone_pair_sum(self):
        tone, _ = gen_sinusoid_mixture([SineComponent(5.0, 1.0)], 200.0, 10.0)
        ms = ssa_decompose(tone, K=48, r=2)
        pair_sum = tone.with_samples(ms.modes[0].samples + ms.modes[1].samples)
        assert score_mode(pair_sum, tone).correlation >= 0.999

    def test_full_rank_completeness(self, rng):
        x = TimeSeries(rng.standard_normal(40), 10.0)
        K = 8
        ms = ssa_decompose(x, K=K, r=K)
        total = sum(m.samples for m in ms.modes)
        np.testing.assert_allclose(total, x.samples, atol=1e-10)
        np.testing.assert_allclose(ms.residual.samples, 0.0, atol=1e-10)

    def test_constant_signal_single_component(self):
        x = TimeSeries(np.full(24, 4.2), 5.0)
        ms = ssa_decompose(x, K=6, r=1)
        np.testing.assert_allclose(ms.modes[0].samples, 4.2, rtol=1e-10)

    def test_r_capped_at_rank_with_warning(self, rng):
        x = TimeSeries(rng.standard_normal(20), 10.0)
        ms = ssa_decompose(x, K=4, r=10)
        assert len(ms.modes) == 4
        assert ms.warnings

    def test_gamma_matches_singular_values(self, rng):
        x = TimeSeries(rng.standard_normal(50), 10.0)
        tm = build_trajectory_matrix(x, 10)
        svals = np.linalg.svd(tm.data, compute_uv=False)
        ms = ssa_decompose(x, K=10, r=4)
        for e, s in zip(ms.report, svals):
            assert e.gamma == pytest.approx(s**2, rel=1e-10)


class TestModeSetSerialization:
    def test_write_modeset_artifacts(self, tmp_path, three_tone):
        mixture, _ = three_tone
        ms = rmd_decompose(mixture, DecompositionConfig(n_modes=3, K_override=200))
        write_modeset(ms, tmp_path)
        assert (tmp_path / "mode_01.csv").is_file()
        assert (tmp_path / "mode_03.csv").is_file()
        assert (tmp_path / "residual.csv").is_file()
        doc = json.loads((tmp_path / "decomposition.json").read_text())
        assert doc["method"] == "rmd"
        assert doc["config"]["alpha"] == 0.3
        assert len(doc["modes"]) == 3
        for entry in doc["modes"]:
            assert {"gamma", "mu", "energy", "members", "peak_frequency_hz"} <= set(entry)
        peaks = sorted(m["peak_frequency_hz"] for m in doc["modes"])
        assert peaks == [2.0, 5.0, 19.0]
