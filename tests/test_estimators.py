"""Noise-level estimation, thresholding, and the MSE metric."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from usvt import (
    DEFAULT_ETA,
    estimate_sigma,
    mse,
    signal_matrix,
    singular_values,
    usvt_adaptive,
    usvt_denoise,
)


def embedded_diag(values, m, n):
    a = np.zeros((m, n))
    for i, v in enumerate(values):
        a[i, i] = v
    return a


def planted(spikes, m, n, seed=16):
    """(x, tau): x = U diag(s) V^T in random frames, whose top singular values
    are `spikes` times the threshold tau that sigma_hat of x gives; a fixed
    bulk below them sets the median."""
    bulk = np.linspace(0.3, 0.2, min(m, n) - len(spikes))
    _, report = usvt_adaptive(embedded_diag(np.concatenate([[1e3] * len(spikes), bulk]), m, n))
    tau = report.threshold
    rng = np.random.default_rng(seed)
    k = min(m, n)
    u = np.linalg.qr(rng.standard_normal((m, k)))[0]
    v = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return (u * np.concatenate([tau * np.asarray(spikes), bulk])) @ v.T, tau


def spy_linalg(monkeypatch):
    """Record numpy's spectral calls: "values" for a values-only SVD, "svd"
    for one with vectors, "eigh" for the Gram eigensolve."""
    calls = []
    svd, eigh = np.linalg.svd, np.linalg.eigh

    def counted_svd(*args, **kwargs):
        calls.append("svd" if kwargs.get("compute_uv", True) else "values")
        return svd(*args, **kwargs)

    def counted_eigh(*args, **kwargs):
        calls.append("eigh")
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    return calls


class TestEstimateSigma:
    def test_zero_matrix(self):
        assert estimate_sigma(np.zeros((4, 6))) == 0.0

    def test_scale_equivariance(self):
        x = np.random.default_rng(0).standard_normal((12, 30))
        ratio = estimate_sigma(2.0 * x) / estimate_sigma(x)
        assert ratio == pytest.approx(2.0, abs=1e-9)

    def test_pure_noise_concentration(self):
        # M = 0, sigma = 1, 200 x 1000: within 3% in at least 95 of 100 seeds
        hits = 0
        for s in range(100):
            x = np.random.default_rng(2000 + s).standard_normal((200, 1000))
            hits += 0.97 <= estimate_sigma(x) <= 1.03
        assert hits >= 95

    def test_orientation_invariant(self):
        x = np.random.default_rng(1).standard_normal((9, 21))
        assert estimate_sigma(x) == estimate_sigma(x.T)


class TestUsvtDenoise:
    def test_sigma_zero_returns_input(self):
        x = np.random.default_rng(2).standard_normal((5, 8))
        denoised, report = usvt_denoise(x, 0.0)
        assert np.array_equal(denoised, x)
        assert report.kept_rank == 5
        assert report.kept_indices == tuple(range(1, 6))
        assert report.threshold == 0.0
        assert report.degenerate_sigma

    def test_huge_sigma_returns_zero(self):
        x = np.random.default_rng(3).standard_normal((6, 10))
        sigma = 10.0 * singular_values(x)[0] / np.sqrt(10)
        denoised, report = usvt_denoise(x, sigma)
        assert np.array_equal(denoised, np.zeros_like(x))
        assert report.kept_rank == 0
        assert report.kept_indices == ()
        assert not report.degenerate_sigma

    def test_tie_at_threshold_is_kept(self):
        # eta = 1, sigma = 1/2, n = 4: threshold = 3 * 0.5 * 2 = 3.0 exactly
        x = embedded_diag([5.0, 3.0, 1.0], 3, 4)
        _, report = usvt_denoise(x, 0.5, eta=1.0)
        assert report.threshold == 3.0
        assert report.kept_rank == 2
        assert report.kept_indices == (1, 2)

    def test_threshold_dichotomy(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.standard_normal((8, 14))
            sigma = float(rng.uniform(0.05, 0.6))
            _, report = usvt_denoise(x, sigma)
            values = singular_values(x)
            kept = np.array(report.kept_indices, dtype=int) - 1
            omitted = np.setdiff1d(np.arange(len(values)), kept)
            assert np.all(values[kept] >= report.threshold)
            assert np.all(values[omitted] < report.threshold)

    def test_spike_recovery(self):
        rng = np.random.default_rng(11)
        m, n, sigma = 60, 100, 0.5
        u = rng.standard_normal(m)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        signal = 10.0 * sigma * np.sqrt(n) * np.outer(u, v)
        x = signal + sigma * rng.standard_normal((m, n))
        denoised, report = usvt_denoise(x, sigma)
        assert report.kept_rank == 1
        assert mse(denoised, signal) < 0.1 * mse(x, signal)

    def test_eta_monotonicity(self):
        x = np.random.default_rng(5).standard_normal((20, 35))
        ranks = [usvt_denoise(x, 0.12, eta)[1].kept_rank
                 for eta in (0.02, 0.1, 0.5, 1.0)]
        assert ranks == sorted(ranks, reverse=True)

    def test_idempotent_on_retained_space(self):
        x = np.random.default_rng(6).standard_normal((30, 50))
        sigma = 0.4  # cuts the spectrum mid-bulk
        first, r1 = usvt_denoise(x, sigma)
        second, r2 = usvt_denoise(first, sigma)
        assert 0 < r1.kept_rank < 30
        assert r2.kept_rank == r1.kept_rank
        assert np.abs(second - first).max() <= 1e-8

    def test_wide_and_tall_agree(self):
        x = np.random.default_rng(7).standard_normal((25, 10))
        d1, r1 = usvt_denoise(x, 0.3)
        d2, r2 = usvt_denoise(x.T, 0.3)
        assert_allclose(d1, d2.T, atol=1e-12)
        assert (r1.m, r1.n) == (25, 10)
        assert (r2.m, r2.n) == (10, 25)
        assert r1.threshold == r2.threshold
        assert r1.kept_rank == r2.kept_rank

    @pytest.mark.parametrize("eta", [0.0, -0.5, 1.0001, float("nan")])
    def test_rejects_bad_eta(self, eta):
        with pytest.raises(ValueError):
            usvt_denoise(np.ones((2, 2)), 1.0, eta)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            usvt_denoise(np.ones((2, 2)), -1.0)

    @pytest.mark.parametrize("known", [True, False], ids=["known", "estimated"])
    @pytest.mark.parametrize("spikes, solver",
                             [([3.0, 2.0, 0.8], "eigh"), ([3.0, 1.001, 0.999], "svd")],
                             ids=["resolved_gap", "near_tie"])
    def test_values_pass_then_gram_or_svd(self, monkeypatch, known, spikes, solver):
        # one values-only pass decides k; the full SVD runs only when the
        # relative squared gap at k is below GRAM_MIN_GAP
        x, tau = planted(spikes, 20, 30)
        calls = spy_linalg(monkeypatch)
        sigma = tau / (2.0 + DEFAULT_ETA) / np.sqrt(30) if known else None
        _, report = usvt_denoise(x, sigma)
        assert report.kept_rank == 2
        assert calls == ["values", solver]

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 1e308])
    def test_rejects_non_finite_sigma_or_threshold(self, sigma):
        with pytest.raises(ValueError):
            usvt_denoise(np.ones((2, 2)), sigma)


class TestUsvtAdaptive:
    def test_zero_input(self):
        denoised, report = usvt_adaptive(np.zeros((3, 7)))
        assert np.array_equal(denoised, np.zeros((3, 7)))
        assert report.sigma_used == 0.0
        assert report.degenerate_sigma
        assert report.kept_rank == 3

    def test_matches_denoise_with_estimated_sigma(self):
        x = np.random.default_rng(8).standard_normal((15, 24))
        expected, _ = usvt_denoise(x, estimate_sigma(x))
        actual, report = usvt_adaptive(x)
        assert np.array_equal(actual, expected)
        assert report.sigma_used == estimate_sigma(x)

    def test_scale_equivariance(self):
        x = np.random.default_rng(9).standard_normal((14, 22))
        base, _ = usvt_adaptive(x)
        scaled, _ = usvt_adaptive(5.0 * x)
        assert np.abs(scaled - 5.0 * base).max() <= 1e-8

    def test_kept_zero_skips_singular_vectors(self, monkeypatch):
        # the published setting keeps nothing: one values-only pass, no
        # vectors from either route
        rng = np.random.default_rng(13)
        x = signal_matrix(50, 200, 1000, rng) + rng.standard_normal((200, 1000))
        _, expected = usvt_denoise(x, estimate_sigma(x))
        calls = spy_linalg(monkeypatch)
        denoised, report = usvt_adaptive(x)
        assert report == expected and report.kept_rank == 0
        assert np.array_equal(denoised, np.zeros_like(x))
        assert calls == ["values"]

    def test_estimated_threshold_tie_is_kept(self):
        # lambda_1 set to the float threshold the median of the rest yields
        values = [2.0, 1.0, 1.0, 1.0, 1.0]
        _, first = usvt_adaptive(embedded_diag(values, 5, 8))
        values[0] = first.threshold
        denoised, report = usvt_adaptive(embedded_diag(values, 5, 8))
        assert report.threshold == first.threshold == values[0]
        assert report.kept_rank == 1
        assert np.array_equal(denoised, embedded_diag(values[:1], 5, 8))

    @pytest.mark.parametrize("shape", [(30, 50), (50, 30)])
    def test_kept_rank_matrix_matches_full_svd_truncation(self, shape):
        # reference: truncate numpy's SVD of the wide orientation; the Gram
        # eigensolve agrees with it to rounding, not bit for bit
        rng = np.random.default_rng(14)
        x = 0.1 * rng.standard_normal(shape)
        x[:3, :3] += np.diag([20.0, 15.0, 10.0])
        denoised, report = usvt_adaptive(x)
        wide = x.T if shape[0] > shape[1] else x
        u, s, vt = np.linalg.svd(wide, full_matrices=False)
        k = int(np.count_nonzero(s >= report.threshold))
        top = (u[:, :k] * s[:k]) @ vt[:k]
        assert report.kept_rank == k == 3
        expected = top.T if shape[0] > shape[1] else top
        assert np.linalg.norm(denoised - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("shape", [(20, 30), (30, 20)])
    def test_near_tie_output_is_the_svd_truncation(self, shape):
        # a relative squared gap below GRAM_MIN_GAP: bit for bit numpy's truncation
        x, _ = planted([3.0, 1.001, 0.999], *shape)
        denoised, report = usvt_adaptive(x)
        wide = x.T if shape[0] > shape[1] else x
        u, s, vt = np.linalg.svd(wide, full_matrices=False)
        top = (u[:, :2] * s[:2]) @ vt[:2]
        assert report.kept_rank == 2
        assert np.array_equal(denoised, top.T if shape[0] > shape[1] else top)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scale_output_is_the_svd_truncation(self, scale):
        # W W^T is formed at the binade of max|W|, so any scale takes the Gram
        # route; norms are taken at unit scale, where squares do not
        # under- or overflow
        x, _ = planted([3.0, 2.0, 0.8], 20, 30)
        denoised, report = usvt_adaptive(scale * x)
        u, s, vt = np.linalg.svd(scale * x, full_matrices=False)
        expected = (u[:, :2] * s[:2]) @ vt[:2] / scale
        assert report.kept_rank == 2
        assert np.linalg.norm(denoised / scale - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_beats_identity_in_signal_regime(self):
        # the published setting: M_50 at 200 x 1000, sigma = 1, eta = 0.02
        rng = np.random.default_rng(12)
        signal = signal_matrix(50, 200, 1000, rng)
        x = signal + rng.standard_normal((200, 1000))
        denoised, _ = usvt_adaptive(x, 0.02)
        assert mse(denoised, signal) < mse(x, signal)


class TestMse:
    def test_equal_inputs(self):
        x = np.random.default_rng(10).standard_normal((4, 4))
        assert mse(x, x) == 0.0

    def test_hand_value(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        assert mse(a, b) == 12.5
        assert mse(b, a) == 12.5

    def test_matches_frobenius(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 9))
        b = rng.standard_normal((6, 9))
        expected = np.linalg.norm(a - b) ** 2 / 54
        assert mse(a, b) == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.ones((2, 3)), np.ones((3, 2)))
