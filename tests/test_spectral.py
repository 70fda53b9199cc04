"""Spectral primitives: rank-k truncation, singular values, nuclear norm, KS; the public API."""

import contextlib
import gc
import pickle
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import usvt
from usvt import (
    ExperimentConfig,
    MPLaw,
    SvdConvergenceError,
    ks_distance,
    nuclear_norm,
    run_experiment,
    singular_values,
)
from usvt import _host, simulate
from usvt.spectral import (
    _EPS,
    GRAM_MAX_SPREAD,
    GRAM_MIN_GAP,
    _Bisected,
    _gram,
    _Held,
    _SpectralPass,
    as_matrix,
)

MU_02 = 0.9329154766004399


def embedded_diag(values, m, n):
    a = np.zeros((m, n))
    for i, v in enumerate(values):
        a[i, i] = v
    return a


def planted(values, m, n, seed=30):
    """U diag(values) V^T in random frames, len(values) = min(m, n)."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((d, min(m, n))))[0] for d in (m, n))
    return (u * values) @ v.T


def read(values):
    """Every value of a spectral pass's values, as an array."""
    return np.array([values[i] for i in range(len(values))])


def truncation(x, k):
    """numpy's rank-k SVD truncation of x, computed in the wide orientation."""
    wide = x.T if x.shape[0] > x.shape[1] else x
    u, s, vt = np.linalg.svd(wide, full_matrices=False)
    top = (u[:, :k] * s[:k]) @ vt[:k]
    return top.T if x.shape[0] > x.shape[1] else top


# Entries that a float64 cast would parse, take as numbers or drop the
# imaginary part of; the first column holds one, for ks_distance.
NON_REAL = {
    "str": [["1", "2", "3"], ["4", "5", "7"]],
    "bytes": np.array([[b"1", b"2", b"3"], [b"4", b"5", b"7"]]),
    "bool": [[True, False, False], [False, True, True]],
    "datetime64": np.array([[1, 2, 3], [4, 5, 7]], dtype="datetime64[D]"),
    "timedelta64": np.array([[1, 2, 3], [4, 5, 7]], dtype="timedelta64[s]"),
    "complex": np.array([[1 + 5j, 2, 3], [3, 4j, 5]]),
    "complex_object": np.array([[1 + 1j, 2.0, 3.0], [4.0, 5.0, 7.0]], dtype=object),
}

# Each public function of a matrix, as a function of one m x n (m <= n)
# matrix; ks_distance takes its first column as the values.
MATRIX_FUNCTIONS = {
    "estimate_sigma": usvt.estimate_sigma,
    "usvt_denoise": usvt.usvt_denoise,
    "usvt_denoise_sigma_0": lambda x: usvt.usvt_denoise(x, 0.0),  # no spectral pass
    "usvt_adaptive": usvt.usvt_adaptive,
    "singular_values": singular_values,
    "nuclear_norm": nuclear_norm,
    "mse": lambda x: usvt.mse(np.ones(np.shape(x)), x),
    "ks_distance": lambda x: ks_distance(np.asarray(x)[:, 0], np.shape(x)),
}


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

    @pytest.mark.parametrize("kind", NON_REAL)
    @pytest.mark.parametrize("function", MATRIX_FUNCTIONS)
    def test_rejects_non_real_input(self, function, kind):
        # only integer, unsigned and float entries are numbers; the error
        # names the dtype
        x = NON_REAL[kind]
        named = re.escape(f"must be real numbers, got dtype {np.asarray(x).dtype}")
        with pytest.raises(ValueError, match=named):
            MATRIX_FUNCTIONS[function](x)
        if kind == "complex":  # as a list, and with the imaginary parts all zero
            for bad in (x.tolist(), x.real + 0j):
                with pytest.raises(ValueError, match="must be real numbers"):
                    MATRIX_FUNCTIONS[function](bad)

    @pytest.mark.parametrize("function", MATRIX_FUNCTIONS)
    def test_integer_input_gives_its_float64_casts_result(self, function):
        ints = np.array([[3, -1, 4, 1], [5, 9, -2, 6], [5, 3, 5, 8]])
        for x in (ints, ints.tolist(), np.abs(ints).astype(np.uint8)):
            expected = MATRIX_FUNCTIONS[function](np.asarray(x, dtype=np.float64))
            assert pickle.dumps(MATRIX_FUNCTIONS[function](x)) == pickle.dumps(expected), x
        # and a float64 array is taken as it is, not copied
        x = ints.astype(np.float64)
        assert as_matrix(x) is x


class TestSvd:
    """_SpectralPass.rank_k_part, the rank-k SVD truncation."""

    def test_contract_on_random_shapes(self):
        # at k = min(m, n) the truncation is x itself, by either route
        rng = np.random.default_rng(100)
        for _ in range(200):
            m = int(rng.integers(1, 65))
            n = int(rng.integers(1, 65))
            x = rng.standard_normal((m, n))
            top = _SpectralPass(x).rank_k_part(min(m, n))
            assert top.shape == x.shape
            assert np.linalg.norm(top - x) <= 1e-10 * max(1.0, np.linalg.norm(x))

    def test_convergence_failure_is_explicit(self, spectral_calls):
        # the values pass raises only once its W W^T fallback fails too
        spectral_calls(fail=("svd", "eigvalsh"))
        with pytest.raises(SvdConvergenceError):
            singular_values(np.ones((3, 3)))


class TestVectorFallback:
    """_SpectralPass.rank_k_part when the LAPACK route it chose does not
    converge."""

    SPECTRA = {"resolved_gap": [3.0, 2.0, 0.8], "near_tie": [3.0, 1.001, 0.999]}

    def spectrum(self, gap):
        # k = 2 with (s_2^2 - s_3^2) / s_1^2 well above or below GRAM_MIN_GAP
        values = np.concatenate([self.SPECTRA[gap], np.linspace(0.3, 0.1, 17)])
        assert ((values[1] ** 2 - values[2] ** 2) / values[0] ** 2 >= GRAM_MIN_GAP) \
            == (gap == "resolved_gap")
        return values

    @pytest.mark.parametrize("shape", [(20, 30), (30, 20)])
    def test_failed_eigh_takes_the_svd(self, spectral_calls, shape):
        x = planted(self.spectrum("resolved_gap"), *shape)
        spectrum = _SpectralPass(x)
        spectral_calls(fail=("top_vectors", "eigh"))
        top = spectrum.rank_k_part(2)
        assert np.linalg.norm(top - truncation(x, 2)) <= 1e-12 * np.linalg.norm(top)

    def test_a_gap_that_cannot_be_read_takes_the_svd(self, spectral_calls):
        # s_2 and s_3 are bisected where first read; where that fails, the
        # thin SVD, which needs no gap, gives the part
        x = planted(self.spectrum("resolved_gap"), 20, 30)
        spectrum = _SpectralPass(x)
        calls = spectral_calls("top_vectors", "_svd_part", "svd", fail=("stebz",))
        top = spectrum.rank_k_part(2)
        assert calls == ["stebz", "_svd_part", "svd"]
        assert np.linalg.norm(top - truncation(x, 2)) <= 1e-12 * np.linalg.norm(top)

    @pytest.mark.parametrize("shape", [(20, 30), (30, 20)])
    def test_failed_svd_at_a_near_tie_takes_the_gram(self, spectral_calls, shape):
        x = planted(self.spectrum("near_tie"), *shape)
        spectrum, expected = _SpectralPass(x), truncation(x, 2)
        spectral_calls(fail=("svd",))
        top = spectrum.rank_k_part(2)
        # a relative squared gap of 4e-4 leaves the Gram route about 1e-11 off
        assert np.linalg.norm(top - expected) <= 1e-9 * np.linalg.norm(expected)

    @pytest.mark.parametrize("gap", ["resolved_gap", "near_tie"])
    def test_both_failing_is_explicit(self, spectral_calls, gap):
        x = planted(self.spectrum(gap), 20, 30)
        spectrum = _SpectralPass(x)
        spectral_calls(fail=("svd", "top_vectors", "eigh"))
        with pytest.raises(SvdConvergenceError, match="rank-2"):
            spectrum.rank_k_part(2)


class TestValuesFallback:
    """singular_values when LAPACK's SVD does not converge."""

    @pytest.fixture
    def no_svd(self, spectral_calls):
        spectral_calls(fail=("svd",))

    @pytest.mark.parametrize("shape", [(12, 20), (20, 12), (15, 15), (1, 6)])
    def test_gram_eigenvalues_stand_in(self, spectral_calls, shape):
        x = np.random.default_rng(20).standard_normal(shape)
        expected = np.linalg.svd(x, compute_uv=False)
        spectral_calls(fail=("svd",))
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
    def test_extreme_scales_are_rescaled(self, spectral_calls, scale):
        # W W^T is formed at the binade of max|W|: no over- or underflow
        x = scale * np.random.default_rng(21).standard_normal((12, 20))
        expected = np.linalg.svd(x, compute_uv=False)
        spectral_calls(fail=("svd",))
        assert_allclose(singular_values(x), expected, rtol=0, atol=1e-7 * expected[0])

    def test_overflowing_gram_is_explicit(self, no_svd):
        # s_1 = sqrt(12) * 1.5e308 is not a float64
        with pytest.raises(ValueError, match="overflows float64"):
            singular_values(np.full((3, 4), 1.5e308))


class TestGramRoute:
    """_SpectralPass: the eigenvalues of W W^T, or gesdd's values where refused."""

    @pytest.mark.parametrize("shape", [(1, 9), (12, 20), (20, 12), (15, 15)])
    def test_admitted_values_are_the_gram_eigenvalues(self, shape):
        x = np.random.default_rng(40).standard_normal(shape)
        spectrum = _SpectralPass(x)
        values, gram = spectrum.values, _gram(spectrum.w)[0]
        tol = values.tol
        # W / 2^e in C order, 2^e the binade of max|x|
        e = np.frexp(np.abs(x).max())[1]
        v = np.ldexp(np.ascontiguousarray(x if shape[0] <= shape[1] else x.T), -e)
        assert np.array_equal(gram, v @ v.T) and values.e == e
        # each bisected from W W^T's tridiagonal form, not all computed:
        # numpy's eigenvalues to rounding, not bit for bit
        lam = np.linalg.eigvalsh(gram)[::-1]
        assert isinstance(values, _Bisected)
        assert np.abs(np.ldexp(read(values), -e) ** 2 - lam).max() <= tol * lam[0]
        expected = np.linalg.svd(x, compute_uv=False)
        assert 0.0 < tol < 1e-12
        assert np.abs(read(values) ** 2 - expected**2).max() <= tol * expected[0] ** 2

    def test_transpose_gives_the_same_bytes(self, spectral_calls):
        # against x.T and the C-order copy a file of x.T reads as: admitted,
        # spread-refused, a rank-2 part by thin SVD, and with the Gram route's
        # tridiagonal reduction failed
        near_tie = np.concatenate([[3.0, 1.001, 0.999], np.linspace(0.3, 0.1, 6)])
        cases = [np.random.default_rng(41).standard_normal((9, 17)),
                 planted(np.concatenate([[1e4], np.ones(8)]), 9, 14, seed=42),
                 planted(near_tie, 9, 14, seed=47)]
        for fail in (False, True):
            if fail:
                spectral_calls(fail=("sytrd",))
            for x, refused in zip(cases, (fail, True, fail)):
                spectrum = _SpectralPass(x)
                assert (spectrum.values.tol is None) == refused
                top = spectrum.rank_k_part(2).T.tobytes()
                for tall in (x.T, np.ascontiguousarray(x.T)):
                    other = _SpectralPass(tall)
                    assert read(other.values).tobytes() == read(spectrum.values).tobytes()
                    assert other.rank_k_part(2).tobytes() == top

    def test_tall_input_is_viewed_not_copied(self):
        # W is x.T itself; the pass's peak is W / 2^e in C order plus W W^T,
        # a quarter of x's bytes at 400 x 100
        x = np.random.default_rng(48).standard_normal((400, 100))
        tracemalloc.start()
        try:
            spectrum = _SpectralPass(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(spectrum.w, x)
        assert peak < 1.5 * x.nbytes

    @pytest.mark.parametrize("spread, admitted", [
        (GRAM_MAX_SPREAD, True), (GRAM_MAX_SPREAD * (1 + 1e-9), False), (1e8, False)])
    def test_spread_guard(self, spread, admitted):
        # lambda_1 / lambda_med at and beyond the bound; gesdd's values when refused
        s = np.concatenate([[np.sqrt(spread)], np.ones(8)])
        x = planted(s, 9, 14, seed=42)
        spectrum = _SpectralPass(x)
        assert (spectrum.values.tol is not None) == admitted
        if not admitted:
            assert spectrum.values.array.tobytes() == singular_values(x).tobytes()

    def test_exactly_low_rank_runs_gesdd(self, spectral_calls):
        # the median value is at the rounding level: lambda_med <= 0 or a
        # spread far beyond the bound
        x = np.outer(np.arange(1.0, 7.0), np.arange(1.0, 11.0))
        expected = singular_values(x)
        calls = spectral_calls("sytrd", "svd")
        spectrum = _SpectralPass(x)
        assert spectrum.values.tol is None
        assert spectrum.values.array.tobytes() == expected.tobytes()
        assert calls == ["sytrd", "svd"]

    def test_failed_eigvalsh_runs_gesdd(self, spectral_calls):
        x = np.random.default_rng(43).standard_normal((12, 20))
        expected = singular_values(x)
        calls = spectral_calls("svd", fail=("sytrd",))
        spectrum = _SpectralPass(x)
        values = spectrum.values
        assert values.array.tobytes() == expected.tobytes() and values.tol is None
        assert calls == ["sytrd", "svd"]

    def test_both_failing_is_explicit_and_runs_eigvalsh_once(self, spectral_calls):
        x = np.random.default_rng(44).standard_normal((12, 20))
        calls = spectral_calls(fail=("sytrd", "svd"))
        with pytest.raises(SvdConvergenceError, match="did not converge"):
            _SpectralPass(x)
        assert calls == ["sytrd", "svd"]

    def test_exact_after_failed_eigvalsh_has_no_fallback(self, spectral_calls):
        # a pass whose Gram route failed has no eigenvalues for exact() to
        # fall back on, so a later gesdd failure is explicit
        x = np.random.default_rng(44).standard_normal((12, 20))
        calls = spectral_calls("svd", fail=("sytrd",))
        spectrum = _SpectralPass(x)
        spectral_calls(fail=("svd",))
        with pytest.raises(SvdConvergenceError, match="neither the eigenvalues"):
            spectrum.exact()
        assert calls == ["sytrd", "svd"]

    def test_refused_values_stand_in_when_gesdd_fails(self, spectral_calls):
        # beyond the spread bound gesdd runs; where it does not converge, all
        # W W^T values are the fallback, from the same tridiagonal form by
        # dsterf: singular_values' fallback, numpy's eigvalsh of its W W^T,
        # has the same bytes
        x = planted(np.concatenate([[1e4], np.ones(8)]), 9, 14, seed=45)
        calls = spectral_calls(fail=("svd",))
        spectrum = _SpectralPass(x)
        assert spectrum.values.tol is None and calls == ["sytrd", "svd", "sterf"]
        fallback = singular_values(x)
        assert spectrum.values.array.tobytes() == fallback.tobytes()
        assert calls[3:] == ["svd", "eigvalsh"]

    def test_overflowing_values_are_explicit(self, spectral_calls):
        x = 1.5e308 * np.random.default_rng(22).uniform(-1.0, 1.0, (20, 40))
        with pytest.raises(ValueError, match="overflows float64"):
            _SpectralPass(x)
        spectral_calls(fail=("svd",))
        with pytest.raises(ValueError, match="overflows float64"):
            _SpectralPass(x)


def sturm_count(values, x):
    """The number of a bisected pass's lambda_i >= (x / 2^e)^2, by one Sturm
    count with no band: the number of values >= x but for lambda_i within
    rounding of (x / 2^e)^2."""
    y = np.ldexp(x, -values.e)
    return values.d.size - _host.laebz(values.d, values.f, y * y, y * y)[0]


def decision_reads(x):
    """What a decision reads of x's spectral pass: s_1, the median pair,
    s_k and s_{k+1} at k = lo // 4 + 1, the Sturm count of values at least
    s_{lo // 4}, and the banded count at the x whose (x / s_1)^2 is the
    midpoint of (s_2 / s_1)^2 and (s_3 / s_1)^2."""
    values = _SpectralPass(x).values
    lo = len(values)
    k = lo // 4 + 1
    reads = [values[i] for i in (0, (lo - 1) // 2, lo // 2, k - 1, min(k, lo - 1))]
    t = ((values[min(1, lo - 1)] / values[0]) ** 2 + (values[min(2, lo - 1)] / values[0]) ** 2) / 2
    return (reads, sturm_count(values, values[lo // 4]),
            values.at_least(values[0] * np.sqrt(t), 1e-13))


def kept_part(x, k=5):
    """The bytes of the rank-k part of x's spectral pass."""
    return _SpectralPass(x).rank_k_part(k).tobytes()


class TestBisection:
    """The Gram route: W W^T reduced once to tridiagonal form
    (`_host.sytrd`), the values read bisected (`_host.stebz`), the counts
    by Sturm sequences (`_host.laebz`) and the kept part's eigenvectors
    taken from the same form (`_host.top_vectors`), with the GIL
    released."""

    SHAPES = ((1, 1), (2, 3), (7, 20), (400, 200), (200, 400), (600, 1200))

    @pytest.mark.parametrize("held", [False, True], ids=["default_threads", "one_blas_thread"])
    def test_values_read_are_within_tol_of_gesdd(self, held):
        rng = np.random.default_rng(63)
        with _host.one_blas_thread() if held else contextlib.nullcontext():
            for shape in self.SHAPES:
                x = rng.standard_normal(shape)
                spectrum = _SpectralPass(x)
                values, lo = spectrum.values, min(shape)
                assert isinstance(values, _Bisected), shape
                expected = np.linalg.svd(x, compute_uv=False)
                k = lo // 4 + 1
                for i in {0, (lo - 1) // 2, lo // 2, k - 1, min(k, lo - 1)}:
                    assert abs(values[i] ** 2 - expected[i] ** 2) <= \
                        spectrum.values.tol * expected[0] ** 2, (shape, i)

    def test_counts_match_eigvalsh_outside_the_band(self):
        # thresholds midway between numpy's values and beyond both ends:
        # where the banded count is returned, it is the plain count and
        # numpy's; at each of numpy's values it is never returned
        rng = np.random.default_rng(64)
        for shape in self.SHAPES[:5]:
            spectrum = _SpectralPass(rng.standard_normal(shape))
            values = spectrum.values
            s = np.ldexp(np.sqrt(np.maximum(np.linalg.eigvalsh(_gram(spectrum.w)[0])[::-1], 0.0)),
                         values.e)
            cuts = np.concatenate([[1.5 * s[0]], (s[:-1] + s[1:]) / 2, [s[-1] / 2]])
            clear = 0
            for tau in cuts:
                kept = values.at_least(tau, values.tol)
                if kept is not None:
                    clear += 1
                    assert kept == sturm_count(values, tau) == np.count_nonzero(s >= tau), \
                        (shape, tau)
            assert clear >= 0.9 * cuts.size, shape
            for value in s:
                assert values.at_least(value, values.tol) is None, shape

    def test_a_value_tied_at_tau_goes_to_gesdd(self, spectral_calls):
        # tau on a value the pass read, known or estimated: the banded count
        # is never returned, so gesdd's values decide, as they do for a tie;
        # the values hold their band, so no decision or count is made
        # without it
        from usvt import DEFAULT_ETA, usvt_denoise
        from usvt.estimators import _decide

        x = planted(np.concatenate([[3.0, 2.0], np.linspace(0.9, 0.5, 18)]), 20, 30, seed=65)
        values = _SpectralPass(x).values
        with pytest.raises(TypeError):
            values.at_least(values[0])
        for i in range(len(values)):
            assert values.at_least(values[i], values.tol) is None
            sigma = values[i] / (2.0 + DEFAULT_ETA) / np.sqrt(30)
            assert _decide(values, x.shape, sigma, DEFAULT_ETA) is None
        # s_1 on the estimated threshold: the band, widened by tau_hat's
        # error, holds it
        u, s, vt = np.linalg.svd(x, full_matrices=False)
        s[0] = _decide(values, x.shape, None, DEFAULT_ETA).threshold
        planted_tau = _SpectralPass((u * s) @ vt)
        assert _decide(planted_tau.values, x.shape, None, DEFAULT_ETA) is None
        sigma = values[1] / (2.0 + DEFAULT_ETA) / np.sqrt(30)
        calls = spectral_calls("svd")
        _, report = usvt_denoise(x, sigma)
        assert calls == ["svd"]
        assert report.kept_rank == np.count_nonzero(singular_values(x) >= report.threshold)

    @pytest.mark.parametrize("held", [False, True], ids=["default_threads", "one_blas_thread"])
    def test_threads_at_once_get_the_serial_results(self, held, spectral_calls):
        # the values read, bisected within the spread bound, and the rank-5
        # part, whose eigenvectors come from the tridiagonal form: the gap
        # at 5 is far above GRAM_MIN_GAP
        rng = np.random.default_rng(66)
        spikes = np.array([12.0, 11.0, 10.0, 9.0, 8.0])
        xs = [planted(np.concatenate([spikes, rng.uniform(0.5, 1.0, 145)]), 150, 300, seed=66 + i)
              for i in range(2)]
        assert all(isinstance(_SpectralPass(x).values, _Bisected) for x in xs)
        calls = spectral_calls()
        results, barrier = [None, None], threading.Barrier(2)

        def solve(i):
            barrier.wait(timeout=60)
            results[i] = [(decision_reads(xs[i]), kept_part(xs[i])) for _ in range(8)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switching as often as it can
        try:
            with _host.one_blas_thread() if held else contextlib.nullcontext():
                expected = [(decision_reads(x), kept_part(x)) for x in xs]
                threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[expected[0]] * 8, [expected[1]] * 8]
        assert calls.count("top_vectors") == 18 and not {"eigh", "sterf", "eigvalsh"} & set(calls)

    @pytest.mark.parametrize("held", [False, True], ids=["default_threads", "one_blas_thread"])
    def test_top_vectors_are_eigenvectors(self, held):
        # of the scaled W W^T a spectral pass forms, from 1 x 1 to 600 x
        # 1200: orthonormal to MRRR's O(n eps) (measured up to 3.8 n eps at
        # k = n), with residuals at the rounding level of lambda_1, and
        # spanning numpy's eigh's top eigenvector where lambda_1 stands apart
        rng = np.random.default_rng(60)
        with _host.one_blas_thread() if held else contextlib.nullcontext():
            for shape in ((1, 1), (2, 3), (7, 20), (200, 400), (600, 1200)):
                x = rng.standard_normal(shape)
                x[0] *= 10.0  # lambda_1 far above the rest
                gram, n = _gram(x)[0], shape[0]
                lam, v = np.linalg.eigh(gram)
                for k in {1, min(3, n), n}:
                    q = _host.top_vectors(*_host.sytrd(gram), k)
                    assert q.shape == (n, k), shape
                    assert np.abs(q.T @ q - np.eye(k)).max() <= 8 * n * _EPS, shape
                    assert np.abs(gram @ q - q * lam[-k:]).max() <= n * _EPS * lam[-1], shape
                top = _host.top_vectors(*_host.sytrd(gram), 1)
                assert abs(abs(float(top[:, 0] @ v[:, -1])) - 1.0) <= n * _EPS, shape

    def test_the_gram_is_reduced_in_place(self, spectral_calls):
        # W W^T's transpose is W W^T, column-major, so dsytrd reduces it in
        # place: the reflectors take its storage and no copy of it is made;
        # the kept part is still numpy's truncation
        calls = spectral_calls("_gram", "sytrd")
        x = planted(np.concatenate([[3.0, 2.0], np.linspace(0.9, 0.5, 18)]), 30, 20, seed=70)
        spectrum = _SpectralPass(x)
        (formed, _), = calls.returned["_gram"]
        (_, _, reflectors, _), = calls.returned["sytrd"]
        assert calls == ["_gram", "sytrd"] and np.shares_memory(reflectors, formed)
        top = spectrum.rank_k_part(2)
        assert np.linalg.norm(top - truncation(x, 2)) <= 1e-12 * np.linalg.norm(top)

    def test_without_the_library_the_values_are_held_and_the_ranks_kept(self, monkeypatch,
                                                                        spectral_calls):
        from usvt import DEFAULT_ETA, usvt_denoise

        rng = np.random.default_rng(67)
        cases = [(planted(np.concatenate([[5.0, 4.0, 3.0], np.linspace(1.0, 0.5, 17)]),
                          *shape, seed=68), sigma)
                 for shape in ((20, 30), (30, 20)) for sigma in (None, 0.05, 0.2)]
        cases += [(rng.standard_normal((40, 90)), sigma) for sigma in (None, 0.5, 0.9)]
        bound = [usvt_denoise(x, sigma)[1] for x, sigma in cases]
        monkeypatch.setattr(_host, "_openblas", lambda: None)
        assert isinstance(_SpectralPass(cases[0][0]).values, _Held)
        unbound = [usvt_denoise(x, sigma)[1] for x, sigma in cases]
        assert [r.kept_rank for r in unbound] == [r.kept_rank for r in bound]
        assert any(r.kept_rank for r in bound) and not all(r.kept_rank for r in bound)
        assert_allclose([r.sigma_used for r in unbound], [r.sigma_used for r in bound],
                        rtol=1e-14)
        # a known tau on a held value: the band refuses the count, and
        # gesdd's values decide
        x = cases[0][0]
        values = _SpectralPass(x).values
        assert values.at_least(values[1], values.tol) is None
        calls = spectral_calls()
        _, report = usvt_denoise(x, values[1] / (2.0 + DEFAULT_ETA) / np.sqrt(30))
        assert calls[:2] == ["eigvalsh", "svd"]
        assert report.kept_rank == np.count_nonzero(singular_values(x) >= report.threshold)

    def test_sturm_counts_take_an_exactly_zero_pivot_once(self):
        # a pivot of exactly 0 counts its eigenvalue once; unguarded, the
        # next pivot would be 0 / 0 over a zero subdiagonal entry, which no
        # count takes, and -e^2 / 0 = -inf over a nonzero one, counted twice
        assert _host.laebz(np.array([1.0, 0.5, 0.2]), np.zeros(2), 1.0, 1.0) == (3, 3)
        # [[1, .5], [.5, 1]]: eigenvalues 0.5 and 1.5, one of them <= 1
        assert _host.laebz(np.ones(2), np.array([0.5]), 1.0, 1.0) == (1, 1)
        assert _host.laebz(np.ones(2), np.array([0.5]), 0.4, 1.6) == (0, 2)
        # a diagonal W W^T has a zero subdiagonal, and its count at one of
        # its values meets a pivot of exactly 0
        x = embedded_diag([1.0, 0.8, 0.5, 0.3, 0.1], 5, 7)
        values = _SpectralPass(x).values
        d, f = _host.sytrd(_gram(x)[0])[:2]
        assert not f.any() and d[0] == d.max()
        assert _host.laebz(d, f, d[0], d[0]) == (5, 5)
        for i in range(5):
            assert sturm_count(values, values[i]) in (i, i + 1)
            # the banded count at each value is refused, and between values
            # it is the number above
            assert values.at_least(values[i], 1e-13) is None
            below = values[i + 1] if i < 4 else 0.0
            assert values.at_least((values[i] + below) / 2, 1e-13) == i + 1

    @pytest.mark.parametrize("eta, sigma", [(0.5, 0.2), (1.0, 1.0 / 6.0)])
    def test_a_threshold_on_a_zero_pivot_keeps_gesdds_rank(self, eta, sigma):
        # tau = 1 exactly, and W W^T = [[1, .5], [.5, 1]] is tridiagonal with
        # d = (1, 1): the count at tau^2 meets a pivot of exactly 0 before a
        # nonzero subdiagonal entry, far from the eigenvalues 0.5 and 1.5
        from usvt import usvt_denoise

        x = np.array([[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, -0.5]])
        d, f = _host.sytrd(_gram(x)[0])[:2]
        assert d.tolist() == [1.0, 1.0] and abs(f[0]) == 0.5
        _, report = usvt_denoise(x, sigma, eta)
        assert report.threshold == 1.0
        assert report.kept_rank == np.count_nonzero(singular_values(x) >= 1.0) == 1

    def test_a_pass_is_freed_without_the_cycle_collector(self):
        # a reference cycle through a pass would hold its W W^T until the
        # collector ran, and a study's memory would grow with its cells
        cases = [np.random.default_rng(69).standard_normal((30, 50)),
                 planted(np.concatenate([[1e4], np.ones(8)]), 9, 14, seed=42)]
        gc.disable()
        try:
            for x in cases:
                spectrum = _SpectralPass(x)
                spectrum.rank_k_part(2)
                freed = weakref.ref(spectrum)
                del spectrum
                assert freed() is None
        finally:
            gc.enable()

    def test_sytrd_refuses_a_non_square_matrix(self):
        with pytest.raises(ValueError):
            _host.sytrd(np.ones((2, 3)))

    def test_without_the_library_numpy_runs_and_the_study_is_serial(self, monkeypatch):
        x = np.random.default_rng(62).standard_normal((30, 50))
        cfg = ExperimentConfig(m=30, n=60, ranks=(1, 4, 12), sigmas=(0.01, 0.3),
                               replications=2, seed=13)
        monkeypatch.setattr(_host, "usable_cpus", lambda: 4)

        def outputs():
            spectrum = _SpectralPass(x)
            return read(spectrum.values), spectrum.rank_k_part(3), run_experiment(cfg)

        bound = outputs()
        run, threads = simulate.run_cell, set()

        def spy(*args):
            threads.add(threading.get_ident())
            return run(*args)

        monkeypatch.setattr(_host, "_openblas", lambda: None)
        monkeypatch.setattr(simulate, "run_cell", spy)
        with _host.one_blas_thread() as held:
            assert not held
        unbound = outputs()
        # numpy's eigenvalues, held whole, in place of the bisected ones, and
        # numpy's eigh in place of the vectors from the tridiagonal form: the
        # values, the rank-3 part, sigma_hat and the squared errors to
        # rounding, and the same kept ranks
        assert_allclose(unbound[0], bound[0], rtol=0, atol=1e-14 * bound[0][0])
        assert np.linalg.norm(unbound[1] - bound[1]) <= 1e-12 * np.linalg.norm(bound[1])
        assert [(r.rank, r.sigma, r.rep, r.kept_rank) for r in unbound[2]] == \
            [(r.rank, r.sigma, r.rep, r.kept_rank) for r in bound[2]]
        for field in ("sigma_hat", "mse_matrix"):
            assert_allclose([getattr(r, field) for r in unbound[2]],
                            [getattr(r, field) for r in bound[2]], rtol=1e-12)
        assert any(rec.kept_rank for rec in unbound[2])
        assert threads == {threading.get_ident()}


def solved(gram, k=5):
    """The bytes of all eigenvalues and of the top-k eigenvectors of gram,
    from one `_host.sytrd` reduction of a copy of it."""
    d, e, z, tau = _host.sytrd(gram.copy())
    return _host.sterf(d, e).tobytes(), _host.top_vectors(d, e, z, tau, k).tobytes()


class TestSyevd:
    """The Gram eigensolves that a dsyevd call once served, now taken from
    one dsytrd reduction: all values (`_host.sterf`) and the top
    eigenvectors (`_host.top_vectors`), with the GIL released."""

    @pytest.mark.parametrize("held", [False, True], ids=["default_threads", "one_blas_thread"])
    def test_all_values_are_eigvalshs_bytes(self, held):
        # numpy's eigvalsh runs dsytrd and then dsterf: W W^T and W^T W of
        # wide matrices, full rank and rank-deficient, at scales 1e-5 to 1e4
        rng = np.random.default_rng(69)
        with _host.one_blas_thread() if held else contextlib.nullcontext():
            for shape in ((1, 1), (1, 5), (2, 3), (7, 20), (33, 79), (200, 400)):
                x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5.0, 4.0)
                low = rng.standard_normal((shape[0], 1)) @ rng.standard_normal((1, shape[1]))
                for gram in (_gram(w)[0] for w in (x, x.T, low)):
                    d, e = _host.sytrd(gram.copy())[:2]
                    assert _host.sterf(d, e).tobytes() == np.linalg.eigvalsh(gram).tobytes(), shape

    @pytest.mark.parametrize("held", [False, True], ids=["default_threads", "one_blas_thread"])
    def test_threads_at_once_get_the_serial_bytes(self, held):
        rng = np.random.default_rng(61)
        grams = [_gram(rng.standard_normal((150, 300)))[0] for _ in range(2)]
        results, barrier = [None, None], threading.Barrier(2)

        def solve(i):
            barrier.wait(timeout=60)
            results[i] = [solved(grams[i]) for _ in range(8)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switching as often as it can
        try:
            with _host.one_blas_thread() if held else contextlib.nullcontext():
                expected = [solved(gram) for gram in grams]
                threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[expected[0]] * 8, [expected[1]] * 8]

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 2)])
    def test_a_non_square_matrix_is_refused(self, shape):
        # dsytrd would read past the end of a 2 x 3 buffer
        with pytest.raises(ValueError):
            _host.sytrd(np.ones(shape))


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

    @pytest.mark.parametrize("shape", [
        (2.5, 4), (2.0, 4.0), (True, 4), (2, False), ("2", 4), (0, 4), (2, -4), (2,), (2, 3, 4),
        5, None,
    ])
    def test_rejects_a_shape_that_is_not_two_positive_integers(self, shape):
        with pytest.raises(ValueError, match="shape must be two positive integers"):
            ks_distance([1.0], shape)

    def test_takes_numpy_integers_as_the_shape(self):
        assert ks_distance([1.0], (np.int64(2), np.uint8(4))) == ks_distance([1.0], (2, 4))


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
