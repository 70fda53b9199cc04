"""Spectral primitives: rank-k truncation, singular values, nuclear norm, KS; the public API."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import usvt
from usvt import MPLaw, SvdConvergenceError, ks_distance, nuclear_norm, singular_values
from usvt.spectral import GRAM_MAX_SPREAD, GRAM_MIN_GAP, _gram_route, as_matrix, rank_k_part

MU_02 = 0.9329154766004399


def embedded_diag(values, m, n):
    a = np.zeros((m, n))
    for i, v in enumerate(values):
        a[i, i] = v
    return a


def exploding(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


def planted(values, m, n, seed=30):
    """U diag(values) V^T in random frames, len(values) = min(m, n)."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((d, min(m, n))))[0] for d in (m, n))
    return (u * values) @ v.T


def truncation(x, k):
    """numpy's rank-k SVD truncation of x, computed in the wide orientation."""
    wide = x.T if x.shape[0] > x.shape[1] else x
    u, s, vt = np.linalg.svd(wide, full_matrices=False)
    top = (u[:, :k] * s[:k]) @ vt[:k]
    return top.T if x.shape[0] > x.shape[1] else top


class TestAsMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros(3))
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 0)))

    def test_rejects_non_finite(self):
        bad = np.ones((2, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            as_matrix(bad)


class TestSvd:
    """rank_k_part, the rank-k SVD truncation."""

    def test_contract_on_random_shapes(self):
        # at k = min(m, n) the truncation is x itself, by either route
        rng = np.random.default_rng(100)
        for _ in range(200):
            m = int(rng.integers(1, 65))
            n = int(rng.integers(1, 65))
            x = rng.standard_normal((m, n))
            top = rank_k_part(x, singular_values(x), min(m, n))
            assert top.shape == x.shape
            assert np.linalg.norm(top - x) <= 1e-10 * max(1.0, np.linalg.norm(x))

    def test_convergence_failure_is_explicit(self, monkeypatch):
        # the values pass raises only once its W W^T fallback fails too
        monkeypatch.setattr(np.linalg, "svd", exploding)
        monkeypatch.setattr(np.linalg, "eigvalsh", exploding)
        with pytest.raises(SvdConvergenceError):
            singular_values(np.ones((3, 3)))


class TestVectorFallback:
    """rank_k_part when the LAPACK route it chose does not converge."""

    SPECTRA = {"resolved_gap": [3.0, 2.0, 0.8], "near_tie": [3.0, 1.001, 0.999]}

    def spectrum(self, gap):
        # k = 2 with (s_2^2 - s_3^2) / s_1^2 well above or below GRAM_MIN_GAP
        values = np.concatenate([self.SPECTRA[gap], np.linspace(0.3, 0.1, 17)])
        assert ((values[1] ** 2 - values[2] ** 2) / values[0] ** 2 >= GRAM_MIN_GAP) \
            == (gap == "resolved_gap")
        return values

    @pytest.mark.parametrize("shape", [(20, 30), (30, 20)])
    def test_failed_eigh_takes_the_svd(self, monkeypatch, shape):
        x = planted(self.spectrum("resolved_gap"), *shape)
        values = singular_values(x)
        monkeypatch.setattr(np.linalg, "eigh", exploding)
        top = rank_k_part(x, values, 2)
        assert np.linalg.norm(top - truncation(x, 2)) <= 1e-12 * np.linalg.norm(top)

    @pytest.mark.parametrize("shape", [(20, 30), (30, 20)])
    def test_failed_svd_at_a_near_tie_takes_the_gram(self, monkeypatch, shape):
        x = planted(self.spectrum("near_tie"), *shape)
        values, expected = singular_values(x), truncation(x, 2)
        monkeypatch.setattr(np.linalg, "svd", exploding)
        top = rank_k_part(x, values, 2)
        # a relative squared gap of 4e-4 leaves the Gram route about 1e-11 off
        assert np.linalg.norm(top - expected) <= 1e-9 * np.linalg.norm(expected)

    @pytest.mark.parametrize("gap", ["resolved_gap", "near_tie"])
    def test_both_failing_is_explicit(self, monkeypatch, gap):
        x = planted(self.spectrum(gap), 20, 30)
        values = singular_values(x)
        monkeypatch.setattr(np.linalg, "svd", exploding)
        monkeypatch.setattr(np.linalg, "eigh", exploding)
        with pytest.raises(SvdConvergenceError, match="rank-2"):
            rank_k_part(x, values, 2)


class TestValuesFallback:
    """singular_values when LAPACK's SVD does not converge."""

    @pytest.fixture
    def no_svd(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", exploding)

    @pytest.mark.parametrize("shape", [(12, 20), (20, 12), (15, 15), (1, 6)])
    def test_gram_eigenvalues_stand_in(self, monkeypatch, shape):
        x = np.random.default_rng(20).standard_normal(shape)
        expected = np.linalg.svd(x, compute_uv=False)
        monkeypatch.setattr(np.linalg, "svd", exploding)
        values = singular_values(x)
        assert values.shape == expected.shape
        assert np.all(np.diff(values) <= 0) and np.all(values >= 0)
        # W W^T eigenvalues are accurate relative to s_1^2, so small values
        # only to about sqrt(eps) * s_1
        assert_allclose(values, expected, rtol=0, atol=1e-7 * expected[0])

    def test_rank_deficient_values_clip_at_zero(self, no_svd):
        values = singular_values(np.outer([1.0, 2.0, 3.0], [1.0, -1.0, 0.5, 2.0]))
        assert values[0] == pytest.approx(np.sqrt(14.0 * 6.25), rel=1e-13)
        assert np.all(values[1:] >= 0.0) and np.all(values[1:] <= 1e-6)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scales_are_rescaled(self, monkeypatch, scale):
        # W W^T is formed at the binade of max|W|: no over- or underflow
        x = scale * np.random.default_rng(21).standard_normal((12, 20))
        expected = np.linalg.svd(x, compute_uv=False)
        monkeypatch.setattr(np.linalg, "svd", exploding)
        assert_allclose(singular_values(x), expected, rtol=0, atol=1e-7 * expected[0])

    def test_overflowing_gram_is_explicit(self, no_svd):
        # s_1 = sqrt(12) * 1.5e308 is not a float64
        with pytest.raises(ValueError, match="overflows float64"):
            singular_values(np.full((3, 4), 1.5e308))


class TestGramRoute:
    """_gram_route: the eigenvalues of W W^T, or gesdd's values where refused."""

    @staticmethod
    def counted(monkeypatch, name, fail=False):
        calls, routine = [], getattr(np.linalg, name)

        def spy(*args, **kwargs):
            calls.append(name)
            if fail:
                raise np.linalg.LinAlgError("did not converge")
            return routine(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
        return calls

    @pytest.mark.parametrize("shape", [(1, 9), (12, 20), (20, 12), (15, 15)])
    def test_admitted_values_are_the_gram_eigenvalues(self, shape):
        x = np.random.default_rng(40).standard_normal(shape)
        values, gram, tol = _gram_route(x)
        # W / 2^e in C order, 2^e the binade of max|x|
        e = np.frexp(np.abs(x).max())[1]
        v = np.ldexp(np.ascontiguousarray(x if shape[0] <= shape[1] else x.T), -e)
        assert np.array_equal(gram, v @ v.T)
        assert values.tobytes() == np.ldexp(np.sqrt(np.linalg.eigvalsh(gram)[::-1]), e).tobytes()
        expected = np.linalg.svd(x, compute_uv=False)
        assert 0.0 < tol < 1e-12
        assert np.abs(values**2 - expected**2).max() <= tol * expected[0] ** 2

    def test_transpose_gives_the_same_bytes(self):
        x = np.random.default_rng(41).standard_normal((9, 17))
        assert _gram_route(x)[0].tobytes() == _gram_route(x.T)[0].tobytes()

    @pytest.mark.parametrize("spread, admitted", [
        (GRAM_MAX_SPREAD, True), (GRAM_MAX_SPREAD * (1 + 1e-9), False), (1e8, False)])
    def test_spread_guard(self, spread, admitted):
        # lambda_1 / lambda_med at and beyond the bound; gesdd's values when refused
        s = np.concatenate([[np.sqrt(spread)], np.ones(8)])
        x = planted(s, 9, 14, seed=42)
        values, gram, tol = _gram_route(x)
        assert (gram is not None) == (tol is not None) == admitted
        if not admitted:
            assert values.tobytes() == singular_values(x).tobytes()

    def test_exactly_low_rank_runs_gesdd(self, monkeypatch):
        # the median value is at the rounding level: lambda_med <= 0 or a
        # spread far beyond the bound
        x = np.outer(np.arange(1.0, 7.0), np.arange(1.0, 11.0))
        expected = singular_values(x)
        eig, svd = self.counted(monkeypatch, "eigvalsh"), self.counted(monkeypatch, "svd")
        values, gram, tol = _gram_route(x)
        assert gram is None and tol is None
        assert values.tobytes() == expected.tobytes()
        assert (eig, svd) == (["eigvalsh"], ["svd"])

    def test_failed_eigvalsh_runs_gesdd(self, monkeypatch):
        x = np.random.default_rng(43).standard_normal((12, 20))
        expected = singular_values(x)
        eig = self.counted(monkeypatch, "eigvalsh", fail=True)
        values, gram, tol = _gram_route(x)
        assert values.tobytes() == expected.tobytes() and gram is None and tol is None
        assert eig == ["eigvalsh"]

    def test_both_failing_is_explicit_and_runs_eigvalsh_once(self, monkeypatch):
        x = np.random.default_rng(44).standard_normal((12, 20))
        eig = self.counted(monkeypatch, "eigvalsh", fail=True)
        svd = self.counted(monkeypatch, "svd", fail=True)
        with pytest.raises(SvdConvergenceError, match="did not converge"):
            _gram_route(x)
        assert (eig, svd) == (["eigvalsh"], ["svd"])

    def test_refused_values_stand_in_when_gesdd_fails(self, monkeypatch):
        # beyond the spread bound gesdd runs; where it does not converge, the
        # W W^T values already computed are the fallback, as in singular_values
        x = planted(np.concatenate([[1e4], np.ones(8)]), 9, 14, seed=45)
        eig = self.counted(monkeypatch, "eigvalsh")
        self.counted(monkeypatch, "svd", fail=True)
        values, gram, _ = _gram_route(x)
        assert gram is None and eig == ["eigvalsh"]
        assert values.tobytes() == singular_values(x).tobytes()
        assert eig == ["eigvalsh"] * 2

    def test_overflowing_values_are_explicit(self, monkeypatch):
        x = 1.5e308 * np.random.default_rng(22).uniform(-1.0, 1.0, (20, 40))
        with pytest.raises(ValueError, match="overflows float64"):
            _gram_route(x)
        self.counted(monkeypatch, "svd", fail=True)
        with pytest.raises(ValueError, match="overflows float64"):
            _gram_route(x)


class TestSingularValues:
    def test_zero_matrix(self):
        assert singular_values(np.zeros((4, 6))).tolist() == [0.0] * 4

    def test_rank_one(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0, 0.0])
        s = singular_values(-7.0 * np.outer(u, v))
        assert_allclose(s, [7.0, 0.0, 0.0], atol=1e-14)

    def test_overflowing_values_are_explicit(self):
        x = 1.5e308 * np.random.default_rng(22).uniform(-1.0, 1.0, (20, 40))
        with pytest.raises(ValueError, match="overflows float64"):
            singular_values(x)

    def test_transpose_invariance(self):
        x = np.random.default_rng(1).standard_normal((9, 17))
        assert np.array_equal(singular_values(x), singular_values(x.T))

    @pytest.mark.parametrize("c", [-2.0, 0.5])
    def test_scale_equivariance(self, c):
        x = np.random.default_rng(2).standard_normal((10, 6))
        assert_allclose(singular_values(c * x), abs(c) * singular_values(x),
                        rtol=1e-13, atol=1e-14)


class TestMedianSingularValue:
    def test_odd_count(self):
        assert np.median(singular_values(np.diag([5.0, 3.0, 1.0]))) == 3.0

    def test_even_count_averages(self):
        x = embedded_diag([4.0, 3.0, 2.0, 1.0], 4, 5)
        assert np.median(singular_values(x)) == 2.5

    def test_gaussian_concentrates_at_mp_median(self):
        # med(lambda_i) ~ sqrt(n * mu_gamma) for pure noise; 2% band at this size
        target = np.sqrt(1000 * MU_02)
        for s in range(50):
            x = np.random.default_rng(1000 + s).standard_normal((200, 1000))
            assert abs(np.median(singular_values(x)) / target - 1.0) < 0.02


class TestNorms:
    def test_zero(self):
        z = np.zeros((3, 2))
        assert nuclear_norm(z) == 0.0

    def test_diagonal(self):
        assert nuclear_norm(np.diag([3.0, 2.0, 1.0])) == pytest.approx(6.0, abs=1e-12)
        assert nuclear_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-12)

    def test_nuclear_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((8, 11))
            b = rng.standard_normal((8, 11))
            assert nuclear_norm(a + b) <= nuclear_norm(a) + nuclear_norm(b) + 1e-9

    def test_norm_inequality_chain(self):
        # ||X||_2 <= ||X||_F <= ||X||_* <= sqrt(rank) ||X||_F
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.standard_normal((7, 13))
            rank = min(x.shape)
            operator, frobenius = np.linalg.norm(x, 2), np.linalg.norm(x)
            assert operator <= frobenius + 1e-12
            assert frobenius <= nuclear_norm(x) + 1e-12
            assert nuclear_norm(x) <= np.sqrt(rank) * frobenius + 1e-12


class TestKsDistance:
    def test_mass_beyond_support_gives_one(self):
        law = MPLaw(0.5)
        m, n = 3, 6
        c = np.sqrt(n * (law.gamma_plus + 1.0))
        x = embedded_diag([c, c, c], m, n)
        assert ks_distance(singular_values(x), x.shape) == pytest.approx(1.0, abs=1e-12)

    def test_mass_below_support_gives_one(self):
        # every eigenvalue 0 <= gamma_minus: F_n jumps to 1 where F_gamma is 0
        assert ks_distance(singular_values(np.zeros((3, 6))), (3, 6)) == 1.0

    def test_deterministic(self):
        # x.T has the same eigenvalues of X X^T / n, so the same distance
        x = np.random.default_rng(9).standard_normal((40, 80))
        d = ks_distance(singular_values(x), x.shape)
        assert d == ks_distance(singular_values(x), x.shape) == \
            ks_distance(singular_values(x.T), x.T.shape)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            x = rng.standard_normal((20, 30))
            assert 0.0 <= ks_distance(singular_values(x), x.shape) <= 1.0

    def test_large_gaussian_close_to_limit(self):
        x = np.random.default_rng(500).standard_normal((1000, 2000))
        assert ks_distance(singular_values(x), x.shape) <= 0.05

    def test_values_in_any_order(self):
        # the values are sorted first, and a tail of them is a valid input
        x = np.random.default_rng(11).standard_normal((20, 30))
        values = singular_values(x)
        shuffled = np.random.default_rng(12).permutation(values)
        assert ks_distance(shuffled, x.shape) == ks_distance(values, x.shape)
        assert 0.0 <= ks_distance(values[5:], x.shape) <= 1.0

    def test_huge_values_do_not_overflow(self):
        # s^2 of 1e308 is beyond float64: the distance is the one of any
        # value past the support, with no overflow warning (an error here)
        assert ks_distance(np.array([1e308, 1e308]), (2, 2)) == 1.0
        values = singular_values(np.random.default_rng(13).standard_normal((20, 40)))
        beyond = np.sqrt(40 * (MPLaw(0.5).gamma_plus + 1.0))
        huge, past = values.copy(), values.copy()
        huge[:2], past[:2] = (1e308, -1e200), (beyond, beyond)
        assert ks_distance(huge, (20, 40)) == ks_distance(past, (20, 40))

    @pytest.mark.parametrize("values", [
        [1.0, float("nan")], [1.0, float("inf")], [[1.0, 0.5]], [], [1.0] * 5,
    ], ids=["nan", "inf", "2d", "empty", "too_many"])
    def test_rejects_bad_values(self, values):
        with pytest.raises(ValueError):
            ks_distance(values, (2, 4))


class TestPublicApi:
    def test_all_is_pinned_and_resolves(self):
        assert sorted(usvt.__all__) == [
            "DEFAULT_ETA", "DenoiseReport", "ExperimentConfig", "ExperimentRecord",
            "MPLaw", "NOISE_KINDS", "PRESETS", "SummaryRow", "SvdConvergenceError",
            "aggregate", "cell_rng", "estimate_sigma", "haar_frame", "ks_distance",
            "mse", "noise_matrix", "nuclear_norm", "preset_config", "run_cell",
            "run_experiment", "signal_matrix", "signal_spectrum", "singular_values",
            "usvt_adaptive", "usvt_denoise",
        ]
        for name in usvt.__all__:
            assert hasattr(usvt, name), name
