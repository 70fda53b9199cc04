"""Noise-level estimation, thresholding, and the MSE metric."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from usvt import (
    DEFAULT_ETA,
    MPLaw,
    estimate_sigma,
    mse,
    signal_matrix,
    singular_values,
    usvt_adaptive,
    usvt_denoise,
)
from usvt.estimators import _decide
from usvt.spectral import GRAM_MAX_SPREAD, _Held, _SpectralPass


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


    @pytest.mark.parametrize("shape", [(4, 6), (5, 5), (7, 3), (1, 4), (2, 2)])
    def test_median_is_numpys(self, shape):
        # of the values the spectral pass gives
        x = np.random.default_rng(sum(shape)).standard_normal(shape)
        lo, hi = min(shape), max(shape)
        values = _SpectralPass(x).values
        values = [values[i] for i in range(lo)]
        expected = float(np.median(values)) / math.sqrt(hi * MPLaw(lo / hi).median)
        assert estimate_sigma(x) == expected

    def test_even_median_of_huge_values_is_finite(self):
        # (s_1 + s_2) / 2 overflows although both values are finite
        x = np.diag([1e308, 1e308])
        assert estimate_sigma(x) == pytest.approx(1e308 / math.sqrt(2 * MPLaw(1.0).median))
        with pytest.raises(ValueError, match="overflows"):
            usvt_denoise(x)


class TestDecide:
    def test_value_at_threshold_kept_next_below_dropped(self):
        shape, sigma = (3, 7), 0.3
        tau = _decide(_Held(np.zeros(3)), shape, sigma, DEFAULT_ETA).threshold
        assert tau == (2.0 + DEFAULT_ETA) * sigma * math.sqrt(7)
        for top, kept in ((tau, 1), (np.nextafter(tau, 0.0), 0)):
            report = _decide(_Held(np.array([top, tau / 2, 0.0])), shape, sigma, DEFAULT_ETA)
            assert report.threshold == tau
            assert (report.kept_rank, report.kept_indices) == (kept, tuple(range(1, kept + 1)))

    def test_no_values_at_sigma_zero_keeps_all(self):
        report = _decide(None, (3, 5), 0.0, DEFAULT_ETA)
        assert report.threshold == 0.0
        assert (report.kept_rank, report.kept_indices) == (3, (1, 2, 3))
        assert report.degenerate_sigma

    @pytest.mark.parametrize("sigma", [1e308, None])
    def test_overflowing_threshold_raises(self, sigma):
        # sigma_hat of these values is finite, its threshold is not
        with pytest.raises(ValueError, match="overflows"):
            _decide(_Held(np.array([1e308, 1e308])), (2, 2), sigma, DEFAULT_ETA)


class TestUsvtDenoise:
    def test_sigma_zero_returns_input(self):
        x = np.random.default_rng(2).standard_normal((5, 8))
        denoised, report = usvt_denoise(x, 0.0)
        assert np.array_equal(denoised, x)
        assert report.kept_rank == 5
        assert report.kept_indices == tuple(range(1, 6))
        assert report.threshold == 0.0
        assert report.degenerate_sigma

    def test_known_sigma_zero_calls_no_linalg(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg was called at sigma 0")

        for name in dir(np.linalg):
            routine = getattr(np.linalg, name)
            if not name.startswith("_") and callable(routine) and not isinstance(routine, type):
                monkeypatch.setattr(np.linalg, name, forbidden)
        x = np.random.default_rng(2).standard_normal((5, 8))
        denoised, report = usvt_denoise(x, 0.0)
        assert denoised.tobytes() == x.tobytes()
        assert report.kept_rank == 5

    def test_negative_zero_sigma_is_reported_as_zero(self):
        x = np.random.default_rng(2).standard_normal((5, 8))
        denoised, report = usvt_denoise(x, -0.0)
        assert denoised.tobytes() == x.tobytes()
        assert math.copysign(1.0, report.sigma_used) == 1.0
        assert math.copysign(1.0, report.threshold) == 1.0

    @pytest.mark.parametrize("shape", [(20, 30), (30, 20)], ids=["wide", "tall"])
    def test_keeping_every_component_returns_the_input(self, spectral_calls, shape):
        # a threshold below s_min keeps all min(m, n): the rank-min(m, n)
        # truncation is x itself, so no eigenvectors or singular vectors are
        # computed
        x = np.random.default_rng(5).standard_normal(shape)
        sigma = singular_values(x)[-1] / 2 / (2.0 + DEFAULT_ETA) / math.sqrt(max(shape))
        calls = spectral_calls()
        denoised, report = usvt_denoise(x, sigma)
        assert report.kept_rank == min(shape) and report.threshold > 0.0
        assert denoised.tobytes() == x.tobytes()
        assert calls == ["sytrd"]

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

    @pytest.mark.parametrize("layout", ["C", "F", "int"])
    @pytest.mark.parametrize("shape", [(6, 9), (9, 6), (7, 7)], ids=["wide", "tall", "square"])
    @pytest.mark.parametrize("case", ["kept_0", "kept_some", "kept_all", "sigma_0"])
    def test_result_is_a_fresh_c_ordered_float64_matrix(self, case, shape, layout):
        # one planted component well above integer noise, so every case's
        # kept rank is the one its sigma is chosen for
        rng = np.random.default_rng(33)
        ints = rng.integers(-3, 4, shape) + 20 * np.outer(rng.integers(1, 4, shape[0]),
                                                          rng.integers(1, 4, shape[1]))
        x = {"C": ints.astype(np.float64), "F": np.asfortranarray(ints, dtype=np.float64),
             "int": ints}[layout]
        s, lo = singular_values(ints), min(shape)
        tau, kept = {"kept_0": (2.0 * s[0], 0), "kept_some": (math.sqrt(s[0] * s[1]), 1),
                     "kept_all": (s[-1] / 2.0, lo), "sigma_0": (0.0, lo)}[case]
        denoised, report = usvt_denoise(x, tau / (2.0 + DEFAULT_ETA) / math.sqrt(max(shape)))
        assert report.kept_rank == kept
        assert denoised.dtype == np.float64 and denoised.shape == shape
        assert denoised.flags.c_contiguous and not np.shares_memory(denoised, x)

    @pytest.mark.parametrize("eta", [0.0, -0.5, 1.0001, float("nan"),
                                     True, "0.5", None, 0.5j])
    def test_rejects_bad_eta(self, eta):
        with pytest.raises(ValueError):
            usvt_denoise(np.ones((2, 2)), 1.0, eta)

    def test_rejects_negative_sigma(self):
        # and every non-number, by the rule eta follows
        for sigma in (-1.0, True, "1", 1 + 0j):
            with pytest.raises(ValueError):
                usvt_denoise(np.ones((2, 2)), sigma)

    @pytest.mark.parametrize("known", [True, False], ids=["known", "estimated"])
    @pytest.mark.parametrize("spikes, solver",
                             [([3.0, 2.0, 0.8], ["top_vectors"]),
                              ([3.0, 1.001, 0.999], ["_svd_part", "svd"])],
                             ids=["resolved_gap", "near_tie"])
    def test_values_pass_then_gram_or_svd(self, spectral_calls, known, spikes, solver):
        # the Gram values decide k; the same W W^T gives the kept part, and
        # the full SVD runs only when the relative squared gap at k is below
        # GRAM_MIN_GAP
        x, tau = planted(spikes, 20, 30)
        calls = spectral_calls()
        sigma = tau / (2.0 + DEFAULT_ETA) / np.sqrt(30) if known else None
        _, report = usvt_denoise(x, sigma)
        assert report.kept_rank == 2
        assert calls == ["sytrd", *solver]

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

    def test_kept_zero_skips_singular_vectors(self, spectral_calls):
        # the published setting keeps nothing: one tridiagonal reduction of
        # W W^T, no values-only eigensolve of it, no vectors from either route
        rng = np.random.default_rng(13)
        x = signal_matrix(50, 200, 1000, rng) + rng.standard_normal((200, 1000))
        _, expected = usvt_denoise(x, estimate_sigma(x))
        calls = spectral_calls()
        denoised, report = usvt_adaptive(x)
        assert report == expected and report.kept_rank == 0
        assert np.array_equal(denoised, np.zeros_like(x))
        assert calls == ["sytrd"]

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


class TestGramValuesRoute:
    """The Gram eigenvalues decide unless their spread or the decision's
    margin refuses them; the kept rank is always gesdd's."""

    @staticmethod
    def gesdd_report(x, sigma, eta=DEFAULT_ETA):
        return _decide(_Held(np.linalg.svd(x, compute_uv=False)), x.shape, sigma, eta)

    def test_exactly_low_rank_runs_gesdd(self, spectral_calls):
        # the spread guard: a median at the rounding level is gesdd's, and
        # sigma_hat meets test_sigma_hat_is_calibrated_median's floor
        rng = np.random.default_rng(50)
        x = rng.standard_normal((14, 2)) @ rng.standard_normal((2, 23))
        values = np.linalg.svd(x, compute_uv=False)
        lo, hi = min(x.shape), max(x.shape)
        calibration = math.sqrt(hi * MPLaw(lo / hi).median)
        calls = spectral_calls()
        _, report = usvt_adaptive(x)
        assert calls[:2] == ["sytrd", "svd"]
        expected = float(np.median(values)) / calibration
        assert abs(report.sigma_used - expected) <= max(1e-12 * expected,
                                                        1e-12 * values[0] / calibration)

    @pytest.mark.parametrize("shape", [(20, 30), (30, 20)])
    def test_value_inside_the_band_runs_gesdd(self, spectral_calls, shape):
        # a known sigma whose threshold is gesdd's s_2: the Gram lambda_2
        # lies within the band of tau^2, so gesdd decides
        x, _ = planted([3.0, 2.0, 0.8], *shape)
        s = np.linalg.svd(x, compute_uv=False)
        sigma = s[1] / (2.0 + DEFAULT_ETA) / math.sqrt(max(shape))
        calls = spectral_calls()
        _, report = usvt_denoise(x, sigma)
        assert calls[:2] == ["sytrd", "svd"]
        assert report == self.gesdd_report(x, sigma)
        assert report.kept_rank == int(np.count_nonzero(s >= report.threshold))

    def test_value_at_the_estimated_threshold_runs_gesdd(self, spectral_calls):
        # s_1 set to the Gram route's own tau_hat, which the median fixes
        x, _ = planted([3.0, 2.0, 0.8], 20, 30)
        tau = _decide(_SpectralPass(x).values, x.shape, None, DEFAULT_ETA).threshold
        u, s, vt = np.linalg.svd(x, full_matrices=False)
        s[0] = tau
        x = (u * s) @ vt
        calls = spectral_calls()
        _, report = usvt_adaptive(x)
        assert calls[:2] == ["sytrd", "svd"]
        assert report == self.gesdd_report(x, None)

    def test_band_is_widened_by_the_error_of_tau_hat(self, spectral_calls):
        # s_1^2 = tau_hat^2 / (1 - 3 tol): outside the band tol s_1^2 of a
        # known tau, inside the band widened by tau_hat^2's error, about
        # (1 + tau_hat^2 / s_med^2) tol s_1^2 with tau_hat / s_med about 2.3
        rng = np.random.default_rng(52)
        u, v = (np.linalg.qr(rng.standard_normal((d, 20)))[0] for d in (20, 30))
        s = np.concatenate([[1.0], np.linspace(0.3, 0.2, 19)])
        spectrum = _SpectralPass((u * s) @ v.T)
        tol = spectrum.values.tol
        s[0] = _decide(spectrum.values, (20, 30), None, DEFAULT_ETA).threshold
        s[0] /= math.sqrt(1.0 - 3.0 * tol)
        x = (u * s) @ v.T
        calls = spectral_calls()
        _, report = usvt_adaptive(x)
        assert calls[:2] == ["sytrd", "svd"]
        assert report == self.gesdd_report(x, None)
        calls.clear()
        usvt_denoise(x, report.sigma_used)
        assert calls == ["sytrd", "top_vectors"]

    def test_estimate_sigma_is_denoises_but_at_the_margin(self):
        # estimate_sigma makes no keep/drop decision: it keeps the Gram
        # route's sigma_hat where the margin sends denoise to gesdd's values
        x, _ = planted([3.0, 2.0, 0.8], 30, 20)
        assert estimate_sigma(x) == usvt_adaptive(x)[1].sigma_used
        tau = _decide(_SpectralPass(x).values, x.shape, None, DEFAULT_ETA).threshold
        u, s, vt = np.linalg.svd(x, full_matrices=False)
        s[0] = tau
        x = (u * s) @ vt
        sigma = usvt_adaptive(x)[1].sigma_used
        assert abs(estimate_sigma(x) - sigma) <= 3e-13 * sigma

    def test_corpus_agrees_with_gesdd_where_admitted(self):
        # noise plus spikes in mixed shapes and scales, spreads up to and
        # beyond GRAM_MAX_SPREAD; wherever the route is admitted, sigma_hat is
        # numpy's SVD median to 2.5e-13 and the kept rank gesdd's, for
        # estimated and known sigma
        rng = np.random.default_rng(51)
        admitted = 0
        for _ in range(240):
            m, n = (int(d) for d in rng.choice([1, 2, 3, 8, 17, 40, 64], 2))
            lo, hi = min(m, n), max(m, n)
            x = rng.standard_normal((m, n))
            spikes = int(rng.integers(0, lo // 2 + 1))
            if spikes:
                spread = 2.0 ** rng.uniform(0.0, 11.0)
                u = np.linalg.qr(rng.standard_normal((m, spikes)))[0]
                v = np.linalg.qr(rng.standard_normal((n, spikes)))[0]
                s = np.median(np.linalg.svd(x, compute_uv=False)) * math.sqrt(spread)
                x += (u * s * rng.uniform(0.5, 1.0, spikes)) @ v.T
            x *= 10.0 ** rng.uniform(-5.0, 5.0)
            spectrum = _SpectralPass(x)
            if spectrum.values.tol is None:
                continue
            values = spectrum.values
            admitted += 1
            assert values[0] ** 2 <= GRAM_MAX_SPREAD * values[lo // 2] ** 2 * (1 + 1e-12)
            reference = np.linalg.svd(x, compute_uv=False)
            expected = float(np.median(reference)) / math.sqrt(hi * MPLaw(lo / hi).median)
            assert abs(estimate_sigma(x) - expected) <= 2.5e-13 * expected
            eta = float(rng.uniform(0.01, 1.0))
            known = float(rng.uniform(0.3, 3.0)) * expected
            for sigma in (None, known):
                _, report = usvt_denoise(x, sigma, eta)
                assert report.kept_rank == self.gesdd_report(x, sigma, eta).kept_rank
        assert admitted >= 200

    @staticmethod
    def route_case(route, shape):
        """(x, sigma, the routines that fail, the solves expected) of a
        denoise of shape `shape` taking `route`: a failed tridiagonal
        reduction leaves the rank-k part to the thin SVD (`_svd_part`), and
        a failed gesdd leaves the values to all Gram eigenvalues."""
        spikes = [40.0, 30.0, 0.8] if route == "spread_refused" else [3.0, 2.0, 0.8]
        x, _ = planted(spikes, *shape)
        s = np.linalg.svd(x, compute_uv=False)
        sigma = s[1] / (2.0 + DEFAULT_ETA) / math.sqrt(max(shape))  # tau = s_2
        if route == "margin_estimated":
            u, s, vt = np.linalg.svd(x, full_matrices=False)
            s[0] = _decide(_SpectralPass(x).values, shape, None, DEFAULT_ETA).threshold
            return (u * s) @ vt, None, (), ["sytrd", "svd", "top_vectors"]
        return {
            "admitted": (x, None, (), ["sytrd", "top_vectors"]),
            "spread_refused": (x, None, (), ["sytrd", "svd", "top_vectors"]),
            "margin_known": (x, sigma, (), ["sytrd", "svd", "top_vectors"]),
            "margin_gesdd_fails": (x, sigma, ("svd",), ["sytrd", "svd", "sterf", "top_vectors"]),
            "sytrd_fails": (x, None, ("sytrd",), ["sytrd", "svd", "_svd_part", "svd"]),
        }[route]

    @pytest.mark.parametrize("shape", [(20, 30), (30, 20)])
    def test_one_gram_per_denoise(self, monkeypatch, spectral_calls, shape):
        # on every route W and W W^T are formed once, from the wide W, W W^T
        # is reduced to tridiagonal form once and all its eigenvalues are
        # computed only where gesdd fails, the input is validated only at the
        # entry point, the rank is gesdd's 2 and the kept part numpy's
        # truncation
        formed = ("_wide", "_gram", "as_matrix")
        for route in ("admitted", "spread_refused", "margin_known", "margin_estimated",
                      "margin_gesdd_fails", "sytrd_fails"):
            x, sigma, failing, expected = self.route_case(route, shape)
            u, s, vt = np.linalg.svd(x, full_matrices=False)
            top = (u[:, :2] * s[:2]) @ vt[:2]
            calls = spectral_calls(*formed, "sytrd", "sterf", "top_vectors", "svd", "_svd_part",
                                   "eigvalsh", "eigh", fail=failing)
            denoised, report = usvt_denoise(x, sigma)
            monkeypatch.undo()
            assert [c for c in calls if c not in formed] == expected, route
            assert [calls.count(n) for n in formed] == [1, 1, 1], route
            assert [gram.shape for gram, _ in calls.returned["_gram"]] == [(20, 20)], route
            assert report.kept_rank == 2, route
            assert np.linalg.norm(denoised - top) <= 1e-12 * np.linalg.norm(top), route

    @pytest.mark.parametrize("shape", [(20, 30), (30, 20)], ids=["wide", "tall"])
    def test_one_count_and_one_sigma_hat_per_decision(self, spectral_calls, shape):
        # the band check and the count at tau^2 are one Sturm count pair,
        # made only where tau <= 2 s_1, and sigma_hat is computed once per
        # set of values decided on: twice where gesdd's values take over
        x, _ = planted([3.0, 2.0, 0.8], *shape)
        s = np.linalg.svd(x, compute_uv=False)
        per_tau = 1.0 / (2.0 + DEFAULT_ETA) / math.sqrt(max(shape))  # sigma per unit tau
        u, s_at_tau, vt = np.linalg.svd(x, full_matrices=False)
        s_at_tau[0] = _decide(_SpectralPass(x).values, shape, None, DEFAULT_ETA).threshold
        noise = np.random.default_rng(53).standard_normal(shape)
        cases = [  # (x, sigma, kept, Sturm count pairs, sigma_hat computations)
            (noise, None, 0, 1, 1),
            (x, None, 2, 1, 1),
            (x, (s[1] + s[2]) / 2 * per_tau, 2, 1, 0),
            (x, 1.5 * s[0] * per_tau, 0, 1, 0),
            (x, 2.5 * s[0] * per_tau, 0, 0, 0),
            ((u * s_at_tau) @ vt, None, 2, 1, 2),
        ]
        calls = spectral_calls("laebz", "_sigma_hat")
        for y, sigma, kept, pairs, estimates in cases:
            calls.clear()
            _, report = usvt_denoise(y, sigma)
            assert report.kept_rank == kept, (sigma, kept)
            assert (calls.count("laebz"), calls.count("_sigma_hat")) == (pairs, estimates), \
                (sigma, kept)

    @pytest.mark.parametrize("sigma, kept", [(1.0, 3), (2.7e307, 1), (5e307, 0)])
    def test_margin_check_of_huge_values_does_not_overflow(self, sigma, kept):
        # s_1 near the largest float64: the check works relative to s_1
        x = np.diag([1e308, 0.9e308, 0.8e308])
        with np.errstate(over="raise"):
            denoised, report = usvt_denoise(x, sigma)
        assert report.kept_rank == self.gesdd_report(x, sigma).kept_rank
        assert report.kept_rank == kept

    @pytest.mark.parametrize("j", [-300, 7, 300])
    def test_power_of_two_scaling_is_exact(self, spectral_calls, j):
        x, tau = planted([3.0, 2.0, 0.8], 20, 30)
        sigma = tau / (2.0 + DEFAULT_ETA) / math.sqrt(30)
        calls = spectral_calls()
        for known in (None, sigma):
            a, ra = usvt_denoise(x, known)
            calls.clear()
            b, rb = usvt_denoise(np.ldexp(x, j), None if known is None else math.ldexp(known, j))
            assert calls == ["sytrd", "top_vectors"] and ra.kept_rank == 2
            assert b.tobytes() == np.ldexp(a, j).tobytes()
            assert (rb.sigma_used, rb.threshold) == \
                (math.ldexp(ra.sigma_used, j), math.ldexp(ra.threshold, j))


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
