import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import oracle_diagonal_average
from signal_families import hostile_valid_samples

import rmd.modes
from rmd.bench import _usable_cores
from rmd.eigen import EigenBasis, NumericalError, gram, solve_generalized
from rmd.embedding import SignalTooShortError, build_trajectory_matrix
from rmd.modes import (
    SIMILARITY_MEASURES,
    DecompositionConfig,
    cluster_and_merge,
    diagonal_average,
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


def make_basis(vectors, gammas):
    V = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
    V = V / np.linalg.norm(V, axis=0)
    k = len(gammas)
    return EigenBasis(
        gammas=np.asarray(gammas, dtype=float), vectors=V,
        mu=np.sum(np.diff(V, axis=0) ** 2, axis=0),
        negligible=np.zeros(k, dtype=bool),
    )


def reconstruct_one(tm, v, g=1.0):
    """The diagonal average of g * X v v^T, by the pipeline's reconstruction."""
    return diagonal_average(tm, np.asarray(v)[:, None], np.array([g]), [[0]])[0]


def total(ms):
    """The sum of a decomposition's modes and residual."""
    return sum((m.samples for m in ms.modes), ms.residual.samples)


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

    @pytest.mark.parametrize("order", [1, 2])
    def test_k_override_below_the_stencil_rejected(self, order):
        # D has K - order rows: the config refuses a K it cannot build, before any data
        with pytest.raises(ValueError, match=f"K_override must be >= {order + 1}"):
            DecompositionConfig(n_modes=1, diff_order=order, K_override=order)
        assert DecompositionConfig(n_modes=1, diff_order=order, K_override=order + 1)

    @pytest.mark.parametrize("field, value", [
        ("n_modes", float("nan")), ("n_modes", 2.5), ("n_modes", True),
        ("diff_order", 1.0), ("K_override", 50.0), ("K_override", False),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            DecompositionConfig(**{"n_modes": 3, field: value})

    @pytest.mark.parametrize("field, value, kind", [
        ("alpha", True, "a number"), ("merge_threshold", True, "a number"),
        ("alpha", "1", "a number"), ("merge_threshold", None, "a number"),
        ("shrinkage", "false", "true or false"), ("shrinkage", 1, "true or false"),
        ("shrinkage", None, "true or false"),
    ])
    def test_values_of_the_wrong_type_rejected(self, field, value, kind):
        with pytest.raises(ValueError, match=f"^{field} must be {kind}"):
            DecompositionConfig(**{"n_modes": 3, field: value})


def pair_similarity(a, b, measure, scale):
    """One pair's similarity from the definitions, the reference for the matrix;
    ``scale`` holds normalized-euclidean's per-coordinate sigmas.
    """
    if measure == "normalized-euclidean":
        keep = scale > 0
        return 1.0 / (1.0 + np.linalg.norm((a[keep] - b[keep]) / scale[keep]))
    profile = {"cosine": lambda v: v, "pearson": lambda v: v - v.mean(),
               "spectral": lambda v: np.abs(np.fft.rfft(v))}[measure]
    pa, pb = profile(a), profile(b)
    norms = np.linalg.norm(pa) * np.linalg.norm(pb)
    return 0.0 if norms == 0 else abs(pa @ pb) / norms


def pair(a, b, measure):
    return similarity(np.column_stack([a, b]), measure)[0, 1]


class TestSimilarity:
    def test_identity(self, rng):
        v = rng.standard_normal(16)
        for measure in SIMILARITY_MEASURES:
            assert pair(v, v, measure) == pytest.approx(1.0)

    def test_sign_invariance_of_cosine(self, rng):
        v = rng.standard_normal(16)
        assert pair(v, -v, "cosine") == pytest.approx(1.0)
        assert pair(v, -v, "pearson") == pytest.approx(1.0)

    def test_quadrature_pair_spectral_vs_cosine(self):
        n = np.arange(32)
        a = np.sin(2 * np.pi * 4 * n / 32)
        b = np.cos(2 * np.pi * 4 * n / 32)
        assert pair(a, b, "cosine") < 0.05
        assert pair(a, b, "spectral") > 0.999

    def test_zero_norm_is_similar_to_nothing(self):
        # a constant eigenvector's pearson profile is zero: it must join no cluster
        z = np.zeros(8)
        v = np.arange(8.0)
        for measure in ("cosine", "pearson", "spectral"):
            S = similarity(np.column_stack([z, v]), measure)
            assert S[0, 1] == S[1, 0] == S[0, 0] == 0.0
        S = similarity(np.column_stack([np.full(8, 2.0), v, np.ones(8)]), "pearson")
        assert S[1].tolist() == [0.0, 1.0, 0.0]

    def test_normalized_euclidean_in_unit_interval(self, rng):
        S = similarity(rng.standard_normal((12, 5)), "normalized-euclidean")
        assert S.shape == (5, 5)
        assert np.all((0.0 < S) & (S <= 1.0))

    @pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
    def test_entries_match_pair_reference(self, rng, measure):
        V = rng.standard_normal((12, 6))
        S = similarity(V, measure)
        scale = np.std(V, axis=1)  # the sigmas span every column, not one pair
        for i in range(6):
            for j in range(i + 1, 6):  # the diagonal is never a merge test
                ref = pair_similarity(V[:, i], V[:, j], measure, scale)
                assert S[i, j] == pytest.approx(ref, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), measure=st.sampled_from(SIMILARITY_MEASURES))
    def test_symmetric(self, seed, measure):
        rng = np.random.default_rng(seed)
        S = similarity(rng.standard_normal((10, int(rng.integers(1, 12)))), measure)
        assert np.array_equal(S, S.T)


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
        basis = replace(make_basis([e1, e1, e2], [3.0, 2.0, 1.0]), mu=np.array([0.5, 2.0, 1.0]))
        cfg = DecompositionConfig(n_modes=2, similarity="cosine", alpha=0.25)
        clusters, leftovers = cluster_and_merge(basis, cfg)
        assert [c.member_indices for c in clusters] == [(0, 1), (2,)]
        assert leftovers == []
        # the members' statistics: gamma summed, mu gamma-weighted, energy sum gamma (1 + alpha mu)
        assert clusters[0].gamma == 5.0
        assert clusters[0].mu == pytest.approx((3.0 * 0.5 + 2.0 * 2.0) / 5.0, rel=1e-15)
        assert clusters[0].energy == 3.0 * 1.125 + 2.0 * 1.5
        # one member: its own mu, exactly
        assert (clusters[1].gamma, clusters[1].mu, clusters[1].energy) == (1.0, 1.0, 1.25)

    def test_sign_flipped_duplicate_merges_cleanly(self):
        e1 = np.array([1.0, 0.0, 0.0])
        mu = np.array([0.5, 2.0, 1.0])
        cfg = DecompositionConfig(n_modes=2, similarity="cosine")
        flipped, _ = cluster_and_merge(
            replace(make_basis([e1, -e1, [0, 1, 0]], [3.0, 2.0, 1.0]), mu=mu), cfg)
        same, _ = cluster_and_merge(
            replace(make_basis([e1, e1, [0, 1, 0]], [3.0, 2.0, 1.0]), mu=mu), cfg)
        # a member's sign changes nothing a cluster reports
        assert [(c.member_indices, c.gamma, c.mu, c.energy) for c in flipped] == \
            [(c.member_indices, c.gamma, c.mu, c.energy) for c in same]
        assert flipped[0].member_indices == (0, 1)

    def test_quadrature_pair_of_tone_merges_with_spectral(self):
        tone, _ = gen_sinusoid_mixture([SineComponent(5.0, 1.0)], 200.0, 10.0)
        tm = build_trajectory_matrix(tone, 48)
        basis = solve_generalized(gram(tm), 0.3, 1)
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

    def test_zero_eigenvalue_cluster_with_no_floor(self):
        # the negligible floor underflows to 0 when the top gamma is below about
        # 5e-312, so zero-gamma pairs can reach a cluster; merging must not divide by 0
        basis = make_basis([[1.0, 0.0, 0.0], [1.0, 1e-3, 0.0], [0.0, 0.0, 1.0]],
                           [0.0, 0.0, 0.0])
        clusters, leftovers = cluster_and_merge(
            basis, DecompositionConfig(n_modes=2, similarity="cosine"))
        assert [c.member_indices for c in clusters] == [(0, 1), (2,)]
        assert leftovers == [] and clusters[0].gamma == 0.0
        assert clusters[0].energy == 0.0
        mu = np.sum(np.diff(basis.vectors[:, :2], axis=0) ** 2, axis=0)
        # zero weights: the members' plain mean
        assert clusters[0].mu == pytest.approx(mu.mean(), rel=1e-15) and clusters[0].mu > 0

    def test_similarity_equal_to_the_threshold_does_not_merge(self):
        # a vector joins a cluster only when its similarity exceeds the threshold
        basis = make_basis([[1.0, 0.0, 0.0, 0.0], [0.6, 0.8, 0.0, 0.0]], [2.0, 1.0])
        assert similarity(basis.vectors, "cosine")[0, 1] == 0.6
        cfg = DecompositionConfig(n_modes=2, similarity="cosine", merge_threshold=0.6)
        clusters, _ = cluster_and_merge(basis, cfg)
        assert [c.member_indices for c in clusters] == [(0,), (1,)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reports_ignore_the_basis_within_degenerate_pairs(self, seed):
        # An exact 2 + 5 Hz pair at 200 Hz, with L = 2000 and K = 200 multiples of
        # both periods: at alpha = 0 each tone's eigenpair is degenerate to rounding,
        # so any rotation inside it is as valid a basis as the one LAPACK returns.
        t = np.arange(2199) / 200.0
        x = TimeSeries(3.0 * np.sin(2 * np.pi * 2.0 * t + 0.3)
                       + np.sin(2 * np.pi * 5.0 * t + 1.1), 200.0)
        cfg = DecompositionConfig(n_modes=2, alpha=0.0, K_override=200)
        rng = np.random.default_rng(seed)

        def rotated(*args, **kwargs):
            basis = solve_generalized(*args, **kwargs)
            V, g = basis.vectors.copy(), basis.gammas
            pairs = [i for i in range(len(g) - 1) if not basis.negligible[i + 1]
                     and g[i] - g[i + 1] <= 1e-9 * g[i]]
            assert len(pairs) == 2
            for i in pairs:
                a = rng.uniform(0, 2 * np.pi)
                V[:, i:i + 2] = V[:, i:i + 2] @ np.array([[np.cos(a), -np.sin(a)],
                                                          [np.sin(a), np.cos(a)]])
            return replace(basis, vectors=V, mu=np.sum(np.diff(V, axis=0) ** 2, axis=0))

        ref = rmd_decompose(x, cfg).report
        with mock.patch.object(rmd.modes, "solve_generalized", rotated):
            got = rmd_decompose(x, cfg).report
        assert [(r.members, r.peak_frequency_hz) for r in got] == \
            [(r.members, r.peak_frequency_hz) for r in ref]
        assert [(r.members, round(r.peak_frequency_hz)) for r in ref] == [(2, 2), (2, 5)]
        for a, b in zip(got, ref):
            np.testing.assert_allclose([a.gamma, a.mu, a.energy], [b.gamma, b.mu, b.energy],
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(8))
    def test_reports_carry_the_cluster_members(self, seed):
        # each report's member_indices are one cluster's, its members their count
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 600))
        x = TimeSeries(rng.standard_normal(n) * 10.0 ** rng.uniform(-20, 20), 50.0)
        K = None if seed % 2 else int(rng.integers(3, n // 2))
        cfg = DecompositionConfig(
            n_modes=int(rng.integers(1, 9)), merge_threshold=float(rng.uniform(0.3, 1.0)),
            alpha=float(rng.uniform(0.0, 5.0)), diff_order=int(rng.integers(1, 3)),
            similarity=SIMILARITY_MEASURES[seed % 4], K_override=K)
        seen = []

        def recorded(*args):
            clusters, leftovers = cluster_and_merge(*args)
            seen.append(clusters)
            return clusters, leftovers

        with mock.patch.object(rmd.modes, "cluster_and_merge", recorded):
            ms = rmd_decompose(x, cfg)
        (clusters,) = seen
        assert len(ms.report) == len(clusters) >= 1
        assert all(r.members == len(r.member_indices) for r in ms.report)
        assert sorted(i for r in ms.report for i in r.member_indices) == \
            sorted(i for c in clusters for i in c.member_indices)
        assert {r.member_indices for r in ms.report} == {c.member_indices for c in clusters}


class TestReconstructMode:
    def test_rank_one_exact(self):
        # geometric signal gives a rank-1 trajectory matrix
        x = TimeSeries(0.9 ** np.arange(12), 1.0)
        tm = build_trajectory_matrix(x, 4)
        v = 0.9 ** np.arange(4)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(reconstruct_one(tm, v), oracle_diagonal_average(tm), atol=1e-12)

    def test_orthogonal_vector_gives_zero(self):
        x = TimeSeries(np.full(10, 3.0), 1.0)
        tm = build_trajectory_matrix(x, 3)
        v = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        np.testing.assert_allclose(reconstruct_one(tm, v), 0.0, atol=1e-12)

    def test_top_merged_mode_of_pure_tone(self):
        # the pair-sum reconstruction of a clean tone is essentially exact
        tone, _ = gen_sinusoid_mixture([SineComponent(5.0, 1.0)], 200.0, 10.0)
        ms = rmd_decompose(tone, DecompositionConfig(n_modes=1))
        metrics = score_mode(ms.modes[0], tone)
        assert metrics.correlation >= 0.999
        assert metrics.peak_frequency == 5.0


class TestRmdDecompose:
    @pytest.mark.parametrize("height", [5e-324, 1e-320])
    def test_subnormal_impulse_sums_back(self, height):
        # the modes, scaled back below 2**-1022, round; the residual takes up the rounding
        x = TimeSeries(np.where(np.arange(64) == 20, height, 0.0), 1.0)
        ms = rmd_decompose(x, DecompositionConfig(n_modes=3, K_override=8))
        assert np.array_equal(total(ms), x.samples)

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
        U, s, Vt = np.linalg.svd(tm, full_matrices=False)
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
        scale = np.abs(noisy.samples).max()
        assert np.abs(total(ms) - noisy.samples).max() <= 1e-9 * scale

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
        scale = np.abs(noisy.samples).max()
        assert np.abs(total(ms) - noisy.samples).max() <= 1e-9 * scale
        # shrinkage attenuates: each mode has no more energy than unshrunk
        unshrunk = rmd_decompose(
            noisy, DecompositionConfig(n_modes=3, K_override=200, alpha=2.0)
        )
        for a, b in zip(ms.modes, unshrunk.modes):
            assert np.linalg.norm(a.samples) <= np.linalg.norm(b.samples) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), s=st.integers(-600, 1000), order=st.sampled_from([1, 2]),
           shrinkage=st.booleans(), heuristic_k=st.booleans())
    def test_power_of_two_scaling_is_exact(self, seed, s, order, shrinkage, heuristic_k):
        # up to 2**1000 the samples stay finite while their squares do not
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 80))
        x = TimeSeries(rng.standard_normal(n), 10.0)
        cfg = DecompositionConfig(
            n_modes=int(rng.integers(1, 6)), merge_threshold=float(rng.uniform(0.3, 1.0)),
            alpha=float(rng.uniform(0.0, 5.0)), diff_order=order, shrinkage=shrinkage,
            K_override=None if heuristic_k else int(rng.integers(order + 1, n)),
        )
        a = rmd_decompose(x, cfg)
        b = rmd_decompose(x.with_samples(np.ldexp(x.samples, s)), cfg)
        assert b.embedding_dim == a.embedding_dim and len(b.modes) == len(a.modes)
        for ma, mb in zip(a.modes, b.modes):
            assert np.array_equal(mb.samples, np.ldexp(ma.samples, s))
        assert np.array_equal(b.residual.samples, np.ldexp(a.residual.samples, s))
        for ra, rb in zip(a.report, b.report):
            with np.errstate(over="ignore"):  # gamma * 4**s may exceed the float64 range
                assert [rb.gamma, rb.energy] == np.ldexp([ra.gamma, ra.energy], 2 * s).tolist()
            assert (rb.mu, rb.members, rb.peak_frequency_hz) == (
                ra.mu, ra.members, ra.peak_frequency_hz)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), c=st.floats(1e-150, 1e250), sign=st.sampled_from([-1, 1]),
           order=st.sampled_from([1, 2]))
    def test_any_finite_scale(self, seed, c, sign, order):
        # two separated tones over weak noise, so no merge decision sits near the threshold
        rng = np.random.default_rng(seed)
        n = int(rng.integers(120, 240))
        t = np.arange(n)
        x = TimeSeries(3.0 * np.sin(0.3 * t + rng.uniform(0, 6)) + np.sin(1.4 * t)
                       + 0.05 * rng.standard_normal(n), 10.0)
        cfg = DecompositionConfig(n_modes=2, alpha=float(rng.uniform(0.0, 2.0)),
                                  diff_order=order, K_override=int(rng.integers(12, 30)))
        c *= sign
        a = rmd_decompose(x, cfg)
        b = rmd_decompose(x.with_samples(c * x.samples), cfg)
        tol = 1e-9 * abs(c) * np.abs(x.samples).max()
        assert len(b.modes) == len(a.modes) == 2
        for ma, mb in zip([*a.modes, a.residual], [*b.modes, b.residual]):
            assert np.abs(mb.samples - c * ma.samples).max() <= tol
        for ra, rb in zip(a.report, b.report):
            assert rb.gamma == pytest.approx(c * (c * ra.gamma), rel=1e-9)  # inf past 1e308
            assert rb.peak_frequency_hz == ra.peak_frequency_hz

    @pytest.mark.parametrize("order", [1, 2])
    def test_peak_allocation_at_k682(self, order):
        # G, the reduction's intermediate and C are the only K x K arrays: the
        # traced peak of one N=2048, K=682 decompose stays within 4 K^2 doubles
        t = np.arange(2048) / 100.0
        tones = np.sin(2 * np.pi * 0.3 * t + 1.0) + 0.5 * np.sin(2 * np.pi * 1.2 * t + 2.0)
        x = add_noise_at_snr(TimeSeries(tones, 100.0), 0.0, 0)[0]
        cfg = DecompositionConfig(n_modes=4, alpha=2.0, diff_order=order, K_override=682)
        rmd_decompose(x, cfg)  # settle lazy imports and caches first
        tracemalloc.start()
        try:
            rmd_decompose(x, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 682**2 * 8, f"peak {peak / (682**2 * 8):.2f} K^2 doubles"

    def test_dc_dominated_mode_peaks_at_zero(self):
        # a constant offset under a 5 Hz tone: the offset's mode reports 0.0 Hz,
        # while the K heuristic still reads the strongest non-DC bin
        t = np.arange(400) / 50.0
        x = TimeSeries(4.0 + np.sin(2 * np.pi * 5.0 * t), 50.0)
        ms = rmd_decompose(x, DecompositionConfig(n_modes=2, alpha=0.1, merge_threshold=0.5))
        assert ms.embedding_dim == 12  # round(1.2 * 50 / 5)
        assert sorted(e.peak_frequency_hz for e in ms.report) == [0.0, 5.0]
        constant = rmd_decompose(x.with_samples(np.full(400, 3.0)),
                                 DecompositionConfig(n_modes=1, K_override=10))
        assert [e.peak_frequency_hz for e in constant.report] == [0.0]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            rmd_decompose(TimeSeries(np.arange(8, dtype=float), 1.0),
                          DecompositionConfig(n_modes=1))

    @settings(max_examples=120, deadline=None)
    @given(samples=hostile_valid_samples(1e150), k=st.integers(0, 64),
           order=st.sampled_from([1, 2]), measure=st.sampled_from(SIMILARITY_MEASURES),
           alpha=st.floats(0, 100), theta=st.floats(0.05, 1.01), n_modes=st.integers(1, 6),
           shrinkage=st.booleans())
    @example(samples=[0.0] * 20 + [1.0] + [0.0] * 43, k=2, order=1, measure="pearson",
             alpha=5.0, theta=0.85, n_modes=3, shrinkage=False)
    def test_hostile_but_valid_input(self, samples, k, order, measure, alpha, theta,
                                     n_modes, shrinkage):
        # k = 0 takes the heuristic K; any other k is folded into [order + 1, N - 1]
        # (k itself when it lies there)
        n = len(samples)
        x = TimeSeries(samples, 10.0)
        cfg = DecompositionConfig(
            n_modes=n_modes, merge_threshold=theta, alpha=alpha, diff_order=order,
            similarity=measure, shrinkage=shrinkage,
            K_override=order + 1 + (k - order - 1) % (n - order - 1) if k else None,
        )
        bases = []

        def spy(*args, **kwargs):
            bases.append(solve_generalized(*args, **kwargs))
            return bases[-1]

        with mock.patch.object(rmd.modes, "solve_generalized", spy):
            try:
                ms = rmd_decompose(x, cfg)
            except (NumericalError, SignalTooShortError):
                return
        scale = np.abs(x.samples).max()
        assert np.abs(total(ms) - x.samples).max() <= 1e-9 * scale
        # eigenvectors are M-orthogonal, M = I + alpha D^T D
        V = bases[0].vectors
        D = np.diff(np.eye(ms.embedding_dim), n=order, axis=0)
        MV = V + alpha * (D.T @ (D @ V))
        mnorms = np.sqrt(np.einsum("ki,ki->i", V, MV))
        cross = np.abs(V.T @ MV) / np.outer(mnorms, mnorms)
        np.fill_diagonal(cross, 0.0)
        assert cross.max(initial=0.0) <= 1e-8
        for e in ms.report:  # a zero mode has no peak
            assert all(map(math.isfinite, (e.gamma, e.mu, e.energy))) and e.members >= 1
            assert e.peak_frequency_hz is None or math.isfinite(e.peak_frequency_hz)

    @pytest.mark.parametrize("cfg", [
        DecompositionConfig(n_modes=4, alpha=8.0),
        DecompositionConfig(n_modes=8, alpha=10.0, merge_threshold=0.6, diff_order=2,
                            similarity="pearson", K_override=60),
        DecompositionConfig(n_modes=3, alpha=2.0, diff_order=2, shrinkage=True,
                            similarity="normalized-euclidean", K_override=40),
    ])
    def test_negated_input_negates_modes_bit_for_bit(self, cfg):
        # every step is sign-symmetric: G(-x) = G(x), and the reconstruction is
        # linear in x with round-to-nearest arithmetic
        mixture, _ = gen_sinusoid_mixture(
            [SineComponent(2.0, 3.0), SineComponent(5.0, 0.5), SineComponent(19.0, 4.0)],
            200.0, 2.0)
        for snr in (-5.0, 10.0):
            for seed in range(10):
                x, _ = add_noise_at_snr(mixture, snr, seed)
                a = rmd_decompose(x, cfg)
                b = rmd_decompose(x.with_samples(-x.samples), cfg)
                assert b.embedding_dim == a.embedding_dim and len(b.modes) == len(a.modes)
                for ma, mb in zip([*a.modes, a.residual], [*b.modes, b.residual]):
                    assert np.array_equal(mb.samples, -ma.samples)
                assert b.report == a.report and b.warnings == a.warnings

    @pytest.mark.parametrize("cfg", [
        DecompositionConfig(n_modes=4, alpha=8.0),
        DecompositionConfig(n_modes=8, alpha=10.0, merge_threshold=0.6, diff_order=2,
                            similarity="pearson", K_override=60),
        DecompositionConfig(n_modes=3, alpha=2.0, merge_threshold=0.3, shrinkage=True,
                            similarity="normalized-euclidean", K_override=120),
        DecompositionConfig(n_modes=4, alpha=0.5, merge_threshold=0.5, diff_order=2,
                            similarity="cosine", K_override=40),
    ])
    def test_reversed_input_reverses_modes(self, cfg):
        # reversing x flips the Hankel matrix's rows and columns, J X J; the
        # penalty D^T D commutes with the flip J, so each eigenvector v becomes
        # J v, and every measure is invariant under J: the same clusters form
        mixture, _ = gen_sinusoid_mixture(
            [SineComponent(2.0, 3.0), SineComponent(5.0, 0.5), SineComponent(19.0, 4.0)],
            200.0, 2.0)
        for snr in (-5.0, 10.0):
            for seed in range(10):
                x, _ = add_noise_at_snr(mixture, snr, seed)
                a = rmd_decompose(x, cfg)
                b = rmd_decompose(x.with_samples(x.samples[::-1]), cfg)
                assert b.embedding_dim == a.embedding_dim
                assert [e.members for e in b.report] == [e.members for e in a.report]
                tol = 1e-12 * np.abs(x.samples).max()
                for ma, mb in zip([*a.modes, a.residual], [*b.modes, b.residual]):
                    assert np.abs(mb.samples - ma.samples[::-1]).max() <= tol

    def test_mode_past_the_float_range_raises(self):
        # the fundamental of a square wave is 4 / pi times its 1.7e308 height
        t = np.arange(2000) / 100.0
        x = TimeSeries(np.where(np.sin(2 * np.pi * t + 0.1) > 0, 1.7e308, -1.7e308), 100.0)
        with pytest.raises(NumericalError, match="exceeds the float64 range"):
            rmd_decompose(x, DecompositionConfig(n_modes=1))

    def test_k_override_out_of_range(self):
        x = TimeSeries(np.arange(20, dtype=float), 1.0)
        with pytest.raises(ValueError):
            rmd_decompose(x, DecompositionConfig(n_modes=1, K_override=20))


class TestLargeAlphaOracle:
    """As alpha grows, the leading eigenvectors tend to the null space of D: the
    constants for order 1, constants and ramps for order 2.  The leading mode(s)
    then tend to the diagonal average of X Q Q^T, with Q an orthonormal basis of
    that null space, and their distance falls as 1 / alpha."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_leading_modes_tend_to_the_null_space_projection(self, order):
        # trend + tone + noise; at alpha = 1e8 the error reads 2.1e-7 (order 1) and
        # 3.6e-7 (order 2) of max|x|
        n, K = 600, 60
        t = np.arange(n) / 100.0
        noise = np.random.default_rng(0).standard_normal(n)
        x = TimeSeries(2.0 * t + np.sin(2 * np.pi * 10.0 * t) + 0.2 * noise, 100.0)
        # theta above 1 keeps each null-space vector a mode of its own
        cfg = DecompositionConfig(n_modes=order, merge_threshold=1.01, alpha=1e8,
                                  diff_order=order, K_override=K)
        ms = rmd_decompose(x, cfg)
        Q, _ = np.linalg.qr(np.vander(np.arange(K, dtype=float), order, increasing=True))
        X = build_trajectory_matrix(x, K)
        oracle = oracle_diagonal_average(X @ Q @ Q.T)
        leading = sum(m.samples for m in ms.modes[:order])
        assert np.abs(leading - oracle).max() <= 1e-6 * np.abs(x.samples).max()


def solve_basis(x, K, alpha, order, n_pairs=None):
    tm = build_trajectory_matrix(x, K)
    return tm, solve_generalized(gram(tm), alpha, order, n_pairs=n_pairs)


def naive_clusters(basis, cfg):
    """Greedy clustering by one pair_similarity() call per pair, the reference loop."""
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
            if pair_similarity(V[:, i], V[:, j], cfg.similarity, scale) > cfg.merge_threshold:
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
        # rmd_decompose clusters only the top m = min(K, 8 n_modes) pairs
        tm, basis = solve_basis(x, K, cfg.alpha, order, n_pairs=8 * cfg.n_modes)
        clusters, _ = cluster_and_merge(basis, cfg)
        Zs = []
        for c in sorted(clusters, key=lambda c: -c.gamma):
            Z = np.zeros_like(tm)
            for m in c.member_indices:
                v = basis.vectors[:, m]
                g = 1.0 / (1.0 + cfg.alpha * basis.mu[m]) if shrinkage else 1.0
                Z += g * np.outer(tm @ v, v)
            Zs.append(Z)
        assert len(ms.modes) == len(Zs)
        scale = np.abs(x.samples).max()
        for mode, Z in zip(ms.modes, Zs):
            oracle = oracle_diagonal_average(Z)
            assert np.abs(mode.samples - oracle).max() <= 1e-12 * scale
        oracle = oracle_diagonal_average(tm - sum(Zs))
        assert np.abs(ms.residual.samples - oracle).max() <= 1e-12 * scale

    def test_reconstruct_mode_matches_outer_product_oracle(self, rng):
        x = TimeSeries(rng.standard_normal(40), 1.0)
        tm = build_trajectory_matrix(x, 9)
        v = rng.standard_normal(9)
        v /= np.linalg.norm(v)
        out = reconstruct_one(tm, v, g=0.4)
        oracle = oracle_diagonal_average(0.4 * np.outer(tm @ v, v))
        assert np.abs(out - oracle).max() <= 1e-12 * np.abs(oracle).max()

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
            sims = np.unique([pair_similarity(V[:, i], V[:, j], measure, scale)
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

    def test_no_components_rejected(self, rng):
        with pytest.raises(ValueError, match="r must be >= 1"):
            ssa_decompose(TimeSeries(rng.standard_normal(40), 10.0), K=8, r=0)

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

    def test_r_above_rank_warns_like_rmd(self, rng):
        # the shared tail words the warning, in RMD's words, from the requested r
        x = TimeSeries(rng.standard_normal(20), 10.0)
        ms = ssa_decompose(x, K=4, r=10)
        assert ms.warnings == ("requested 10 modes but only 4 cluster(s) were available",)
        assert ssa_decompose(x, K=4, r=4).warnings == ()

    @pytest.mark.parametrize("c", [1e-300, 1e-305])
    def test_tiny_amplitude_sums_back_exactly(self, c):
        # x / 2**s scales up (shift <= 0): the modes scaled back round below
        # 2**-1022, so the residual is x minus their sum, and they sum back to x
        t = np.arange(400)
        tone = TimeSeries(np.sin(t / 3.0) + 0.3 * np.sin(t / 7.0), 50.0)
        unit = ssa_decompose(tone, K=40, r=4)
        tiny = ssa_decompose(tone.with_samples(c * tone.samples), K=40, r=4)
        assert np.array_equal(sum(m.samples for m in tiny.modes) + tiny.residual.samples,
                              c * tone.samples)
        assert [e.peak_frequency_hz for e in tiny.report] == [
            e.peak_frequency_hz for e in unit.report]
        for m, ref in zip(tiny.modes, unit.modes):
            expected = c * ref.samples
            assert np.abs(m.samples - expected).max() <= 1e-9 * np.abs(expected).max()

    def test_gamma_matches_singular_values(self, rng):
        x = TimeSeries(rng.standard_normal(50), 10.0)
        tm = build_trajectory_matrix(x, 10)
        svals = np.linalg.svd(tm, compute_uv=False)
        ms = ssa_decompose(x, K=10, r=4)
        for e, s in zip(ms.report, svals):
            assert e.gamma == pytest.approx(s**2, rel=1e-10)
        assert [(e.members, e.member_indices) for e in ms.report] == [(1, (i,)) for i in range(4)]

    def test_huge_amplitude_is_scale_equivariant(self):
        # gamma and energy of a 1e200 sine overflow: they read inf, with no
        # RuntimeWarning, and the modes are the unit modes times the scale
        c = 1e200
        tone = TimeSeries(np.sin(np.arange(400) / 3.0), 50.0)
        unit = ssa_decompose(tone, K=40, r=2)
        huge = ssa_decompose(tone.with_samples(c * tone.samples), K=40, r=2)
        assert all(e.gamma == e.energy == np.inf for e in huge.report)
        assert [e.peak_frequency_hz for e in huge.report] == [
            e.peak_frequency_hz for e in unit.report
        ]
        for m, ref in zip(huge.modes, unit.modes):
            expected = c * ref.samples
            assert np.abs(m.samples - expected).max() <= 1e-9 * np.abs(expected).max()


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


# A fixed decomposition set, run in a subprocess under one BLAS thread count:
# pickles (K, cluster member tuples, peaks, modes + residual) per case.
BLAS_CASES = """
import pickle, sys
import numpy as np
import rmd.modes
from rmd.modes import DecompositionConfig, rmd_decompose
from rmd.signals import TimeSeries, add_noise_at_snr

members, cluster_and_merge = [], rmd.modes.cluster_and_merge
def recorded(*args):
    clusters, leftovers = cluster_and_merge(*args)
    members.append([c.member_indices for c in clusters])
    return clusters, leftovers
rmd.modes.cluster_and_merge = recorded
t = np.arange(2048) / 100.0
x = TimeSeries(np.sin(2 * np.pi * 0.3 * t + 1.0) + 0.5 * np.sin(2 * np.pi * 1.2 * t + 2.0), 100.0)
x = add_noise_at_snr(x, 0.0, 0)[0]
out = []
for order, K in [(1, 682), (2, 682), (1, None), (2, 200)]:
    ms = rmd_decompose(x, DecompositionConfig(n_modes=4, alpha=2.0, diff_order=order, K_override=K))
    out.append((ms.embedding_dim, members[-1], [r.peak_frequency_hz for r in ms.report],
                np.vstack([*(m.samples for m in ms.modes), ms.residual.samples])))
pickle.dump((out, float(np.abs(x.samples).max())), sys.stdout.buffer)
"""


def _blas_is_openblas() -> bool:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return "openblas" in deps["blas"]["name"].lower()
    except Exception:  # numpy too old to report its BLAS as a dict
        return False


class TestBlasThreadCount:
    """Reruns are byte-identical only at a fixed BLAS thread count.  On the
    same G and C, numpy's syevd returns other rounding on 2 OpenBLAS threads
    than on 1 at K = 410 and 682 (not at 200), so the modes move by rounding;
    K, the clusters and the peaks must not."""

    def test_one_and_two_threads_agree_to_rounding(self):
        if not _blas_is_openblas():
            pytest.skip("numpy does not report OpenBLAS as its BLAS")
        if _usable_cores() < 2:
            pytest.skip("fewer than 2 usable cores")
        path = os.pathsep.join(p for p in sys.path if p)
        runs = [subprocess.Popen([sys.executable, "-c", BLAS_CASES], stdout=subprocess.PIPE,
                                 env={**os.environ, "PYTHONPATH": path,
                                      "OPENBLAS_NUM_THREADS": str(n)})
                for n in (1, 2)]
        outputs = [r.communicate(timeout=120)[0] for r in runs]
        assert [r.returncode for r in runs] == [0, 0]
        (one, scale), (two, _) = map(pickle.loads, outputs)
        for a, b in zip(one, two):
            assert a[:3] == b[:3]  # K, member tuples, peaks
            assert np.abs(a[3] - b[3]).max() <= 1e-12 * scale
