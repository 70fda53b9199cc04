"""Monte Carlo harness: Haar draws, signal/noise generators, seeded cells."""

import contextlib
import math
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from usvt import (
    ExperimentConfig,
    aggregate,
    cell_rng,
    haar_frame,
    mse,
    noise_matrix,
    nuclear_norm,
    preset_config,
    run_cell,
    run_experiment,
    signal_matrix,
    signal_spectrum,
    singular_values,
    usvt_adaptive,
)
from usvt import _host, simulate
from usvt.estimators import _denoise
from usvt.simulate import ConfigError, _bartlett_noise


class TestExperimentConfig:
    def test_valid(self):
        cfg = ExperimentConfig(m=10, n=20, ranks=[2, 4], sigmas=[0.5], seed=3)
        assert cfg.ranks == (2, 4)
        assert cfg.sigmas == (0.5,)
        assert cfg.replications == 100

    @pytest.mark.parametrize("kwargs", [
        dict(m=0, n=5, ranks=(1,), sigmas=(1.0,)),
        dict(m=5, n=5, ranks=(), sigmas=(1.0,)),
        dict(m=5, n=5, ranks=(6,), sigmas=(1.0,)),
        dict(m=5, n=5, ranks=(0,), sigmas=(1.0,)),
        dict(m=5, n=5, ranks=(1,), sigmas=()),
        dict(m=5, n=5, ranks=(1,), sigmas=(0.0,)),
        dict(m=5, n=5, ranks=(1,), sigmas=(-1.0,)),
        dict(m=5, n=5, ranks=(1,), sigmas=(1.0,), replications=0),
        dict(m=5, n=5, ranks=(1,), sigmas=(1.0,), eta=0.0),
        dict(m=5, n=5, ranks=(1,), sigmas=(1.0,), eta=1.5),
        dict(m=5, n=5, ranks=(1,), sigmas=(1.0,), noise_kind="cauchy"),
        dict(m=5, n=5, ranks=(1,), sigmas=(1.0,), seed=-1),
        dict(m=5, n=5, ranks=(1,), sigmas=(1.0,), seed=2**64),
        dict(m=5, n=5, ranks=(1,), sigmas=(float("nan"),)),
        dict(m=5, n=5, ranks=(1,), sigmas=(1.0, float("inf"))),
        dict(m=5, n=5, ranks=(1,), sigmas=(1.0,), eta=float("nan")),
        dict(m=5, n=5, ranks=(1.7,), sigmas=(1.0,)),
        dict(m=6.5, n=5, ranks=(1,), sigmas=(1.0,)),
        dict(m=5, n=5, ranks=(1,), sigmas=(1.0,), replications=1.5),
        dict(m=5, n=5, ranks=(1,), sigmas=(1.0,), seed=2.5),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("field", ["m", "n", "ranks", "sigmas", "replications", "eta", "seed"])
    def test_rejects_bools(self, field):
        # and every other non-number: a string, a complex, None
        for bad in (True, "0.5", "abc", 1 + 0j, None):
            kwargs = {"m": 5, "n": 5, "ranks": (1,), "sigmas": (1.0,), "replications": 2,
                      "seed": 1, field: (bad,) if field in ("ranks", "sigmas") else bad}
            with pytest.raises(ConfigError) as info:
                ExperimentConfig(**kwargs)
            assert info.value.field == field, bad

    def test_integer_fields_are_ints(self):
        cfg = ExperimentConfig(m=np.int64(5), n=np.uint8(7), ranks=(np.int32(2),),
                               sigmas=(1.0,), replications=np.int16(3), seed=np.uint64(2**63))
        assert [type(v) for v in (cfg.m, cfg.n, *cfg.ranks, cfg.replications, cfg.seed)] == [int] * 5
        assert (cfg.m, cfg.n, cfg.ranks, cfg.replications, cfg.seed) == (5, 7, (2,), 3, 2**63)

    def test_float_fields_are_floats(self):
        cfg = ExperimentConfig(m=5, n=5, ranks=(1,), sigmas=(np.float32(0.5), 2),
                               eta=np.float16(0.5))
        assert [type(v) for v in (*cfg.sigmas, cfg.eta)] == [float] * 3
        assert (cfg.sigmas, cfg.eta) == ((0.5, 2.0), 0.5)

    @pytest.mark.parametrize("field, grid", [("ranks", (2, 1, 2)), ("sigmas", (0.5, 0.50))])
    def test_rejects_repeated_grid_value(self, field, grid):
        # a repeat would write records whose (rank, sigma, rep) keys collide
        kwargs = {"m": 5, "n": 5, "ranks": (1,), "sigmas": (1.0,), field: grid}
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(**kwargs)
        assert info.value.field == field


class TestHaarOrthogonal:
    """The square case: haar_frame(dim, dim) is a Haar orthogonal matrix."""

    def test_dim_one_is_sign(self):
        rng = np.random.default_rng(0)
        values = {float(haar_frame(1, 1, rng)[0, 0]) for _ in range(50)}
        assert values <= {-1.0, 1.0}
        assert len(values) == 2

    @pytest.mark.parametrize("dim", [1, 2, 5, 40])
    def test_orthogonality(self, dim):
        q = haar_frame(dim, dim, np.random.default_rng(dim))
        assert np.linalg.norm(q.T @ q - np.eye(dim)) <= 1e-10

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            haar_frame(0, 0, np.random.default_rng(0))

    def test_first_entry_matches_uniform_angle_law(self):
        stats = pytest.importorskip("scipy.stats")
        # Q[0, 0] of a Haar 2 x 2 orthogonal matrix is cos(theta) with theta
        # uniform; compare against a brute-force uniform-angle sample
        rng = np.random.default_rng(42)
        q11 = np.array([haar_frame(2, 2, rng)[0, 0] for _ in range(5000)])
        angles = np.random.default_rng(43).uniform(0.0, 2.0 * np.pi, size=5000)
        ks = stats.ks_2samp(q11, np.cos(angles)).statistic
        assert ks <= 0.05


class TestHaarFrame:
    @pytest.mark.parametrize("dim,k", [(1, 1), (2, 1), (7, 3), (40, 5),
                                       (60, 59), (30, 30)])
    def test_is_leading_columns_of_full_draw(self, dim, k):
        # Gram-Schmidt on column j sees only columns 1..j, so the sign-fixed
        # thin QR of G[:, :k] is the first k columns of the sign-fixed full
        # QR of G: the frame has the law of k columns of a Haar matrix
        g = np.random.default_rng(dim * 100 + k).standard_normal((dim, dim))

        class Replay:
            def standard_normal(self, shape):
                return g[:, :shape[1]]

        full = haar_frame(dim, dim, Replay())
        thin = haar_frame(dim, k, Replay())
        assert_allclose(thin, full[:, :k], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim,k", [(1, 1), (9, 2), (200, 50), (1000, 50)])
    def test_shape_and_orthonormal_columns(self, dim, k):
        q = haar_frame(dim, k, np.random.default_rng(dim + k))
        assert q.shape == (dim, k)
        assert np.max(np.abs(q.T @ q - np.eye(k))) <= 1e-12

    @pytest.mark.parametrize("dim,k", [(0, 1), (-3, 1), (5, 0), (5, -1), (5, 6),
                                       (1, 2)])
    def test_rejects_bad_shape(self, dim, k):
        with pytest.raises(ValueError):
            haar_frame(dim, k, np.random.default_rng(0))

    def test_signal_matrix_draws_only_the_columns_it_uses(self, monkeypatch):
        from usvt import simulate

        asked = []

        def spy(dim, k, rng):
            asked.append((dim, k))
            return haar_frame(dim, k, rng)

        monkeypatch.setattr(simulate, "haar_frame", spy)
        simulate.signal_matrix(4, 20, 50, np.random.default_rng(0))
        assert asked == [(20, 4), (50, 4)]


class TestSignalMatrix:
    def test_spectrum_values(self):
        lam = signal_spectrum(3)
        assert lam[0] == pytest.approx(math.exp(3.0), abs=1e-12)
        assert lam[1] == pytest.approx(math.exp(3.0 - 1.0 / 50.0), abs=1e-12)
        assert len(signal_spectrum(200)) == 200

    def test_rank_one_top_value(self):
        m = signal_matrix(1, 7, 9, np.random.default_rng(1))
        s = singular_values(m)
        assert s[0] == pytest.approx(math.exp(3.0), abs=1e-8)
        assert np.all(s[1:] <= 1e-10)

    def test_spectrum_is_haar_invariant(self):
        # singular values equal the prescribed spectrum whatever the draws
        for seed in (3, 4, 5):
            m = signal_matrix(5, 20, 30, np.random.default_rng(seed))
            assert_allclose(singular_values(m)[:5], signal_spectrum(5), atol=1e-8)
            assert np.all(singular_values(m)[5:] <= 1e-8)

    def test_nuclear_norm_is_spectrum_sum(self):
        m = signal_matrix(8, 12, 25, np.random.default_rng(6))
        assert nuclear_norm(m) == pytest.approx(signal_spectrum(8).sum(), abs=1e-8)

    @pytest.mark.parametrize("r", [0, 13])
    def test_rejects_bad_rank(self, r):
        with pytest.raises(ValueError):
            signal_matrix(r, 12, 20, np.random.default_rng(0))


class TestNoiseMatrix:
    def test_rademacher_support(self):
        a = noise_matrix(40, 50, "rademacher", np.random.default_rng(7))
        assert set(np.unique(a)) == {-1.0, 1.0}

    def test_uniform_support_and_variance(self):
        a = noise_matrix(1000, 1000, "uniform", np.random.default_rng(8))
        half = math.sqrt(3.0)
        assert a.min() >= -half and a.max() <= half
        assert abs(a.var() - 1.0) <= 0.01
        assert abs(a.mean()) <= 0.01

    def test_gaussian_moments(self):
        a = noise_matrix(200, 1000, "gaussian", np.random.default_rng(9))
        assert abs(a.mean()) <= 0.01
        assert abs(a.var() - 1.0) <= 0.02

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            noise_matrix(2, 2, "lognormal", np.random.default_rng(0))


class TestRunExperiment:
    def test_strong_signal_single_record(self):
        cfg = ExperimentConfig(m=20, n=20, ranks=(1,), sigmas=(0.001,),
                               replications=1, seed=5)
        records = run_experiment(cfg)
        assert len(records) == 1
        rec = records[0]
        assert rec.kept_rank == 1
        # rebuild the cell's draws from its named substream: a Gaussian cell
        # draws only its reduced noise and takes the diagonal signal E D_r E^T
        noise = _bartlett_noise(20, 20, 1, cell_rng(5, 0, 0, 0))
        signal = np.zeros((20, 20))
        signal[0, 0] = signal_spectrum(1)[0]
        x = signal + 0.001 * noise
        assert rec.mse_matrix < mse(x, signal)
        assert rec.sq_err_sigma == (rec.sigma_hat - 0.001) ** 2

    def test_deterministic(self):
        cfg = ExperimentConfig(m=8, n=12, ranks=(1, 2), sigmas=(0.1, 0.4),
                               replications=2, seed=11)
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_pinned_stream(self):
        # the values this version's random stream gives; a change to the
        # draws (their shapes, order or generator) must update these on purpose
        cfg = ExperimentConfig(m=20, n=40, ranks=(2, 5), sigmas=(0.1, 1.0),
                               replications=1, seed=3)
        expected = [
            (2, 0.1, 0.10010141476991771, 0.001344158111831457, 2),
            (2, 1.0, 1.0455115184287098, 0.22390547731933017, 2),
            (5, 0.1, 0.11058107328635122, 0.0033435725409467374, 5),
            (5, 1.0, 1.0420063940683602, 0.37919033336267427, 5),
        ]
        records = run_experiment(cfg)
        assert [(r.rank, r.sigma, r.kept_rank) for r in records] == \
               [(rank, sigma, kept) for rank, sigma, _, _, kept in expected]
        for rec, (_, _, sigma_hat, mse_matrix, _) in zip(records, expected):
            assert rec.sigma_hat == pytest.approx(sigma_hat, rel=1e-12)
            assert rec.mse_matrix == pytest.approx(mse_matrix, rel=1e-12)

    @pytest.mark.parametrize("kind, expected", [
        ("rademacher", [
            (2, 0.1, 0.1027812399925312, 0.0014085372748520147, 2),
            (2, 1.0, 1.041512662217017, 0.16918834645487726, 2),
            (5, 0.1, 0.11077475672350892, 0.0038855593036239322, 5),
            (5, 1.0, 1.175317950460863, 0.3850642854280548, 5),
        ]),
        ("uniform", [
            (2, 0.1, 0.10413334100988403, 0.0018652553619236672, 2),
            (2, 1.0, 1.04800498163416, 0.15668717799524104, 2),
            (5, 0.1, 0.1141027329637026, 0.003364925680051265, 5),
            (5, 1.0, 1.1059309070168992, 0.43050522480371517, 5),
        ]),
    ])
    def test_pinned_stream_non_gaussian(self, kind, expected):
        # as test_pinned_stream, for the noise kinds drawn by other rng calls
        cfg = ExperimentConfig(m=20, n=40, ranks=(2, 5), sigmas=(0.1, 1.0),
                               replications=1, seed=3, noise_kind=kind)
        records = run_experiment(cfg)
        assert [(r.rank, r.sigma, r.kept_rank) for r in records] == \
               [(rank, sigma, kept) for rank, sigma, _, _, kept in expected]
        for rec, (_, _, sigma_hat, mse_matrix, _) in zip(records, expected):
            assert rec.sigma_hat == pytest.approx(sigma_hat, rel=1e-12)
            assert rec.mse_matrix == pytest.approx(mse_matrix, rel=1e-12)

    @pytest.mark.parametrize("kind, frames", [
        ("gaussian", 0), ("rademacher", 2), ("uniform", 2)])
    def test_haar_frames_only_for_kinds_that_need_them(self, monkeypatch,
                                                       kind, frames):
        from usvt import simulate

        asked = []

        def spy(dim, k, rng):
            asked.append((dim, k))
            return haar_frame(dim, k, rng)

        monkeypatch.setattr(simulate, "haar_frame", spy)
        cfg = ExperimentConfig(m=20, n=40, ranks=(3,), sigmas=(0.5,),
                               replications=1, seed=2, noise_kind=kind)
        run_cell(cfg, 0, 0, 0)
        assert len(asked) == frames

    def test_diagonal_gaussian_cell_has_the_haar_law(self):
        stats = pytest.importorskip("scipy.stats")
        # U D_r V^T + sigma A and E D_r E^T + sigma A give records with one
        # joint law for Gaussian A; compare 600 Haar-frame cells, built as
        # before, with 600 cells of run_cell's diagonal construction
        m, n, r, sigma, cells = 40, 80, 5, 1.1, 600
        cfg = ExperimentConfig(m=m, n=n, ranks=(r,), sigmas=(sigma,),
                               replications=cells, eta=0.02, seed=17)
        diagonal = run_experiment(cfg)
        haar = []
        for rep in range(cells):
            rng = np.random.default_rng([29, rep])
            signal = signal_matrix(r, m, n, rng)
            observed = signal + sigma * noise_matrix(m, n, "gaussian", rng)
            denoised, report = usvt_adaptive(observed, 0.02)
            haar.append((report.sigma_used, mse(denoised, signal),
                         report.kept_rank))
        ks = stats.ks_2samp([rec.sigma_hat for rec in diagonal],
                            [sigma_hat for sigma_hat, _, _ in haar])
        assert ks.pvalue > 0.01
        # at kept 0 mse is the atom ||M||^2/(mn), exact only for the diagonal
        # signal: rounding to 1e-12 merges the Haar cells' copies of it
        ks = stats.ks_2samp([round(rec.mse_matrix, 12) for rec in diagonal],
                            [round(err, 12) for _, err, _ in haar])
        assert ks.pvalue > 0.01
        counts = [Counter(rec.kept_rank for rec in diagonal),
                  Counter(kept for _, _, kept in haar)]
        table = [[c[k] for k in sorted(counts[0] | counts[1])] for c in counts]
        assert stats.chi2_contingency(table).pvalue > 0.01

    def test_record_count_and_order(self):
        cfg = ExperimentConfig(m=6, n=9, ranks=(1, 3), sigmas=(0.2, 0.5, 1.0),
                               replications=2, seed=1)
        records = run_experiment(cfg)
        assert len(records) == 2 * 3 * 2
        keys = [(r.rank, r.sigma, r.rep) for r in records]
        assert keys == [(r, s, i) for r in (1, 3) for s in (0.2, 0.5, 1.0)
                        for i in range(2)]

    def test_schedule_independence(self):
        cfg = ExperimentConfig(m=8, n=15, ranks=(2, 4), sigmas=(0.3, 0.8),
                               replications=3, seed=21)
        serial = run_experiment(cfg)
        cells = [(i, j, rep) for i in range(2) for j in range(2)
                 for rep in range(3)]
        reversed_records = {c: run_cell(cfg, *c) for c in reversed(cells)}
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda c: run_cell(cfg, *c), cells))
        expected = {(i, j, rep): rec for (i, j, rep), rec in
                    zip(cells, serial)}
        assert reversed_records == expected
        assert parallel == serial

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
    def test_each_cell_reduces_its_gram_once(self, spectral_calls, kind):
        # reduced and full draws, wide and tall, kept 0 and kept k: one
        # tridiagonal reduction per cell, a kept part's eigenvectors taken
        # from it, and no solve for all eigenvalues
        calls, records = spectral_calls(), []
        for m, n in ((20, 30), (30, 20)):
            records += run_experiment(ExperimentConfig(
                m=m, n=n, ranks=(2, 5), sigmas=(0.01, 5.0), replications=2,
                noise_kind=kind, seed=3))
        kept = sum(rec.kept_rank > 0 for rec in records)
        assert 0 < kept < len(records)
        assert calls.count("sytrd") == len(records) and calls.count("top_vectors") == kept
        assert not {"eigh", "sterf", "eigvalsh"} & set(calls)

    def test_svd_failure_carries_cell_identity(self, spectral_calls):
        # the values pass takes the eigenvalues of W W^T, so their
        # tridiagonal reduction has to fail as well
        spectral_calls(fail=("svd", "sytrd"))
        from usvt import SvdConvergenceError
        cfg = ExperimentConfig(m=4, n=6, ranks=(2,), sigmas=(0.7,),
                               replications=1, seed=0)
        with pytest.raises(SvdConvergenceError, match="rank=2 sigma=0.7 rep=0"):
            run_experiment(cfg)

    @pytest.mark.parametrize("kind, overflow", [("gaussian", "a value"),
                                                 ("uniform", "the largest singular value")],
                             ids=["gaussian", "uniform"])
    def test_an_overflowing_draw_carries_cell_identity(self, kind, overflow):
        # at 1e308 the scaled Gaussian draw overflows, and the uniform one's
        # s_1 does: either way the cell is named, with no warning
        cfg = ExperimentConfig(m=4, n=6, ranks=(2,), sigmas=(1e308,), replications=1,
                               noise_kind=kind, seed=0)
        with pytest.raises(ValueError) as failed:
            run_experiment(cfg)
        assert str(failed.value) == f"cell rank=2 sigma=1e+308 rep=0: {overflow} overflows float64"

    def test_vector_pass_failure_carries_cell_identity(self, spectral_calls):
        # the values pass succeeds; the Gram's eigenvectors and the thin SVD
        # both fail
        spectral_calls(fail=("top_vectors", "eigh", "_svd_part"))
        from usvt import SvdConvergenceError
        cfg = ExperimentConfig(m=10, n=15, ranks=(2,), sigmas=(0.01,),
                               replications=1, seed=0)
        with pytest.raises(SvdConvergenceError, match="cell rank=2 sigma=0.01 rep=0: .*rank-"):
            run_experiment(cfg)

    @pytest.mark.parametrize("kind, m, n", [
        ("rademacher", 60, 40), ("uniform", 60, 40), ("rademacher", 40, 60)])
    def test_full_draw_cell_is_signal_plus_noise(self, kind, m, n):
        # bit for bit, with the squared error summed over the rows of the
        # difference, on wide and tall cells
        cfg = ExperimentConfig(m=m, n=n, ranks=(3,), sigmas=(0.05,),
                               replications=8, noise_kind=kind, seed=12)
        for rep, rec in enumerate(run_experiment(cfg)):
            rng = cell_rng(12, 0, 0, rep)
            signal = signal_matrix(3, m, n, rng)
            x = signal + 0.05 * noise_matrix(m, n, kind, rng)
            denoised, report = _denoise(x, (m, n), None, cfg.eta)
            assert rec.kept_rank == report.kept_rank == 3
            assert (rec.sigma_hat, rec.mse_matrix) == \
                (report.sigma_used, float(np.sum((denoised - signal) ** 2)) / (m * n))

    def test_observed_matrix_mse_estimates_sigma_squared(self):
        # mse(X, M) concentrates at sigma^2 on the CLT scale 5 sigma^2/sqrt(mn)
        m, n = 200, 1000
        band = 5.0 / math.sqrt(m * n)
        for s in range(20):
            rng = np.random.default_rng(700 + s)
            signal = signal_matrix(50, m, n, rng)
            noise = noise_matrix(m, n, "gaussian", rng)
            for sigma in (1.0,):
                dev = abs(mse(signal + sigma * noise, signal) - sigma**2)
                assert dev <= band * sigma**2


def blas_threads() -> int | None:
    """numpy's OpenBLAS thread count, or None where it cannot be read."""
    blas = _host._openblas()
    return blas and blas[0]()


@pytest.fixture
def blas_at_three():
    """numpy's OpenBLAS at 3 threads, a count no study leaves behind, and
    at its former count afterwards."""
    if _host._openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    get, set_, _ = _host._openblas()
    saved = get()
    set_(3)
    yield
    set_(saved)


class TestCellThreads:
    """run_experiment runs its cells on every usable CPU, with OpenBLAS held
    at one thread: its records are those of the loop, on any CPU count and
    any OpenBLAS thread count."""

    @pytest.mark.parametrize("kind, m, n", [
        ("gaussian", 30, 60), ("rademacher", 60, 30), ("uniform", 40, 40)])
    def test_records_do_not_depend_on_the_worker_count(self, monkeypatch, kind, m, n):
        cfg = ExperimentConfig(m=m, n=n, ranks=(1, 4, 12), sigmas=(0.01, 0.3, 2.0),
                               replications=3, noise_kind=kind, seed=13)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more workers than cores, switching often
        try:
            for cpus in (1, 4):
                monkeypatch.setattr(_host, "usable_cpus", lambda: cpus)
                runs.append(run_experiment(cfg))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1]
        assert {rec.kept_rank for rec in runs[0]} > {0}

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_first_failing_cell_in_loop_order_is_raised(self, monkeypatch, cpus):
        # at 1e200 and 1e250 (sigma_hat - sigma)^2 is not a float64; on 4
        # workers the 1e200 cell starts late, so it fails second
        monkeypatch.setattr(_host, "usable_cpus", lambda: cpus)
        run = simulate.run_cell

        def late_first_failure(config, i, j, rep):
            if j == 1:
                time.sleep(0.1)
            return run(config, i, j, rep)

        monkeypatch.setattr(simulate, "run_cell", late_first_failure)
        cfg = ExperimentConfig(m=8, n=12, ranks=(2,), sigmas=(0.5, 1e200, 1.0, 1e250),
                               replications=1, seed=3)
        before = blas_threads()
        with pytest.raises(ValueError) as failed:
            run_experiment(cfg)
        assert str(failed.value) == "cell rank=2 sigma=1e+200 rep=0: a value overflows float64"
        assert blas_threads() == before

    def test_no_cell_is_taken_after_a_failure(self, monkeypatch):
        monkeypatch.setattr(_host, "usable_cpus", lambda: 4)
        taken = []

        def spy(config, i, j, rep):
            taken.append((i, j, rep))
            if (i, j, rep) == (0, 0, 0):
                raise ValueError("first")
            time.sleep(0.05)  # the failure is recorded while the others run

        monkeypatch.setattr(simulate, "run_cell", spy)
        cfg = ExperimentConfig(m=8, n=12, ranks=(2,), sigmas=(0.5,), replications=40)
        with pytest.raises(ValueError, match="^first$"):
            run_experiment(cfg)
        assert 1 <= len(taken) <= 4

    @pytest.mark.parametrize("raised", [None, ValueError, KeyboardInterrupt])
    def test_blas_is_held_at_one_thread_and_restored(self, monkeypatch, blas_at_three,
                                                     raised):
        monkeypatch.setattr(_host, "usable_cpus", lambda: 2)
        run, seen = simulate.run_cell, []

        def spy(config, i, j, rep):
            seen.append(blas_threads())
            if raised and rep == 3:
                raise raised("stop")
            return run(config, i, j, rep)

        monkeypatch.setattr(simulate, "run_cell", spy)
        cfg = ExperimentConfig(m=8, n=12, ranks=(2,), sigmas=(0.5,), replications=6)
        with contextlib.nullcontext() if raised is None else pytest.raises(raised):
            run_experiment(cfg)
        assert blas_threads() == 3
        assert set(seen) == {1}

    def test_files_do_not_depend_on_the_blas_thread_count(self, tmp_path, child_env):
        outputs = []
        for threads in ("1", "2"):
            out, summary = tmp_path / f"r{threads}.csv", tmp_path / f"s{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "usvt", "simulate", "--m", "300", "--n", "600",
                 "--ranks", "75,150", "--sigmas", "0.1,1", "--reps", "1",
                 "--out", str(out), "--summary", str(summary)],
                capture_output=True, env=dict(child_env, OPENBLAS_NUM_THREADS=threads),
                timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append((out.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]


class TestReducedGaussianCell:
    """A Gaussian cell is drawn in reduced Bartlett form, lo x (r + p) with
    p = min(lo, hi - r), and decided and scored as the lo x hi cell it
    stands for."""

    @pytest.mark.parametrize("sigma, kept", [(4.0, 0), (0.05, 4)])
    def test_lq_factor_gives_the_same_cell(self, sigma, kept):
        # [S + sigma A_1 | sigma G] and [S + sigma A_1 | sigma L], G = L Q,
        # differ by an orthogonal map fixing the signal's columns: same
        # singular values, kept rank and squared error
        lo, hi, r = 30, 90, 4
        rng = np.random.default_rng(31)
        a1 = rng.standard_normal((lo, r))
        g = rng.standard_normal((lo, hi - r))
        lower = np.linalg.qr(g.T)[1].T
        head = np.zeros((lo, r))
        head[np.arange(r), np.arange(r)] = signal_spectrum(r)
        errors = []
        for rest in (g, lower):
            signal = np.hstack([head, np.zeros_like(rest)])
            observed = signal + sigma * np.hstack([a1, rest])
            denoised, report = _denoise(observed, (lo, hi), None, 0.02)
            assert report.kept_rank == kept
            errors.append((singular_values(observed), np.sum((denoised - signal) ** 2)))
        (full_values, full_err), (lq_values, lq_err) = errors
        assert_allclose(lq_values, full_values, rtol=1e-12, atol=0)
        assert lq_err == pytest.approx(full_err, rel=1e-12)

    @pytest.mark.parametrize("m, n, r, sigma", [
        (40, 200, 5, 0.72), (40, 200, 5, 0.3), (25, 30, 10, 0.4), (20, 20, 20, 0.5),
    ], ids=["0.72", "0.3", "trapezoidal", "no-trapezoid"])
    def test_reduced_cell_has_the_law_of_the_full_cell(self, m, n, r, sigma):
        stats = pytest.importorskip("scipy.stats")
        # 600 reduced run_experiment cells against 600 full-draw m x n
        # diagonal cells built here: sigma_hat, mse_matrix and kept rank.
        # lo + r >= hi at 25 x 30 (T is 25 x 20) and 20 x 20 (p = 0)
        cells = 600
        cfg = ExperimentConfig(m=m, n=n, ranks=(r,), sigmas=(sigma,),
                               replications=cells, eta=0.02, seed=19)
        reduced = run_experiment(cfg)
        signal = np.zeros((m, n))
        signal[np.arange(r), np.arange(r)] = signal_spectrum(r)
        full = []
        for rep in range(cells):
            noise = np.random.default_rng([37, rep]).standard_normal((m, n))
            denoised, report = usvt_adaptive(signal + sigma * noise, 0.02)
            full.append((report.sigma_used, mse(denoised, signal), report.kept_rank))
        ks = stats.ks_2samp([rec.sigma_hat for rec in reduced],
                            [sigma_hat for sigma_hat, _, _ in full])
        assert ks.pvalue > 0.01
        # the kept-0 atom ||M||^2/(mn) is summed over different zeros on
        # each side; rounding to 1e-12 merges its copies
        ks = stats.ks_2samp([round(rec.mse_matrix, 12) for rec in reduced],
                            [round(err, 12) for _, err, _ in full])
        assert ks.pvalue > 0.01
        counts = [Counter(rec.kept_rank for rec in reduced),
                  Counter(kept for _, _, kept in full)]
        table = [[c[k] for k in sorted(counts[0] | counts[1])] for c in counts]
        assert len(table[0]) == 1 or stats.chi2_contingency(table).pvalue > 0.01

    def test_bartlett_factor_has_the_wishart_mean(self):
        # [A_1 | T] with T T^T ~ G G^T, G lo x (hi - r) Gaussian: E[T T^T] is
        # (hi - r) I; a chi-square degree off by one moves a diagonal mean by 1.
        # T is triangular at 3 x 10, trapezoidal (4 x 3) at 4 x 5, empty at 3 x 3
        rng = np.random.default_rng(23)
        for lo, hi, r in ((3, 10, 2), (4, 5, 2), (3, 3, 3)):
            noise = np.array([_bartlett_noise(lo, hi, r, rng) for _ in range(4000)])
            t = noise[:, :, r:]
            assert t.shape[2] == min(lo, hi - r)
            assert np.all(np.triu(t, 1) == 0.0) and np.all(np.diagonal(t, axis1=1, axis2=2) > 0)
            assert_allclose(np.mean(t @ t.transpose(0, 2, 1), axis=0),
                            (hi - r) * np.eye(lo), rtol=0, atol=0.3, err_msg=f"{lo} x {hi}")
            assert abs(noise[:, :, :r].mean()) <= 0.05
            assert abs(noise[:, :, :r].var() - 1.0) <= 0.05

    @pytest.mark.parametrize("m, n, r", [(20, 40, 20), (40, 20, 20), (25, 25, 3)])
    def test_cell_is_the_bartlett_draw(self, m, n, r):
        # lo + r >= hi as well: the cell is the diagonal signal plus the
        # reduced draw of its substream, bit for bit, decided as m x n
        cfg = ExperimentConfig(m=m, n=n, ranks=(r,), sigmas=(0.3,),
                               replications=1, seed=6)
        lo, hi = min(m, n), max(m, n)
        noise = _bartlett_noise(lo, hi, r, cell_rng(6, 0, 0, 0))
        # the documented order, one draw at a time: A_1 row by row, T's
        # strictly lower entries row by row, then T's diagonal
        rng, p = cell_rng(6, 0, 0, 0), min(lo, hi - r)
        a1, t = rng.standard_normal((lo, r)), np.zeros((lo, p))
        for i in range(lo):
            for j in range(min(i, p)):
                t[i, j] = rng.standard_normal()
        for i in range(p):
            t[i, i] = math.sqrt(rng.chisquare(hi - r - i))
        assert np.array_equal(noise, np.hstack([a1, t]))
        signal = np.zeros(noise.shape)
        signal[np.arange(r), np.arange(r)] = signal_spectrum(r)
        denoised, report = _denoise(signal + 0.3 * noise, (m, n), None, cfg.eta)
        rec = run_cell(cfg, 0, 0, 0)
        assert (rec.sigma_hat, rec.mse_matrix, rec.kept_rank) == \
            (report.sigma_used, float(np.sum((denoised - signal) ** 2)) / (m * n),
             report.kept_rank)

    def test_tall_cell_is_the_wide_cell(self):
        # both orientations reduce to the same lo x (r + p) draw
        wide, tall = (ExperimentConfig(m=m, n=n, ranks=(3,), sigmas=(0.4,),
                                       replications=2, seed=8)
                      for m, n in ((20, 50), (50, 20)))
        assert run_experiment(wide) == run_experiment(tall)

    @pytest.mark.parametrize("m, n, r, seen", [
        (20, 40, 3, (20, 23)), (40, 20, 3, (20, 23)),
        (20, 40, 20, (20, 40)), (40, 20, 20, (20, 40)), (30, 30, 1, (30, 30)),
    ])
    def test_values_pass_shape(self, monkeypatch, m, n, r, seen):
        from usvt import estimators

        shapes = []
        spectral_pass = estimators._SpectralPass

        def spy(x):
            shapes.append(x.shape)
            return spectral_pass(x)

        monkeypatch.setattr(estimators, "_SpectralPass", spy)
        cfg = ExperimentConfig(m=m, n=n, ranks=(r,), sigmas=(8.0,),
                               replications=1, seed=4)
        rec = run_cell(cfg, 0, 0, 0)
        assert shapes == [seen]
        # kept 0: the squared error is ||D_r||^2, over the cell's m n entries
        assert rec.kept_rank == 0
        assert rec.mse_matrix == pytest.approx(
            np.sum(signal_spectrum(r) ** 2) / (m * n), rel=1e-12)


class TestPaperPresetRegime:
    def test_sigma_hat_accuracy_at_low_rank_small_sigma(self):
        # nuclear norm well below n: sigma_hat error stays under 1e-3
        cfg = preset_config("paper-fig1", replications=10, seed=1)
        records = [run_cell(cfg, 0, 0, rep) for rep in range(10)]
        assert all(r.rank == 50 and r.sigma == 0.5 for r in records)
        assert np.mean([r.sq_err_sigma for r in records]) < 1e-3


class TestAggregate:
    def _record(self, rank, sigma, rep, sq, err):
        from usvt import ExperimentRecord
        return ExperimentRecord(rank=rank, sigma=sigma, rep=rep, sigma_hat=0.0,
                                sq_err_sigma=sq, mse_matrix=err, kept_rank=0)

    def test_single_record(self):
        rows = aggregate([self._record(2, 0.5, 0, 1.5, 2.5)])
        assert len(rows) == 1
        row = rows[0]
        assert (row.rank, row.sigma, row.count) == (2, 0.5, 1)
        assert row.mean_sq_err_sigma == 1.5
        assert row.mean_mse_matrix == 2.5

    def test_two_record_mean(self):
        rows = aggregate([self._record(1, 1.0, 0, 1.0, 3.0),
                          self._record(1, 1.0, 1, 3.0, 1.0)])
        assert rows[0].mean_sq_err_sigma == 2.0
        assert rows[0].mean_mse_matrix == 2.0
        assert rows[0].count == 2

    def test_permutation_insensitive(self):
        rng = np.random.default_rng(13)
        records = [self._record(int(r), float(s), i, float(rng.uniform()),
                                float(rng.uniform()))
                   for r in (1, 2) for s in (0.5, 1.0) for i in range(5)]
        base = aggregate(records)
        shuffled = records.copy()
        rng.shuffle(shuffled)
        other = aggregate(shuffled)
        assert [(a.rank, a.sigma, a.count) for a in base] == \
               [(b.rank, b.sigma, b.count) for b in other]
        for a, b in zip(base, other):
            assert a.mean_sq_err_sigma == pytest.approx(b.mean_sq_err_sigma, abs=1e-12)
            assert a.mean_mse_matrix == pytest.approx(b.mean_mse_matrix, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestPresets:
    def test_paper_fig1_fields(self):
        cfg = preset_config("paper-fig1")
        assert (cfg.m, cfg.n) == (200, 1000)
        assert cfg.ranks == (50, 100, 150, 200)
        assert cfg.sigmas == (0.5, 1.0, 2.0, 4.0)
        assert cfg.replications == 100
        assert cfg.eta == 0.02
        assert cfg.noise_kind == "gaussian"

    def test_overrides(self):
        cfg = preset_config("paper-fig1", replications=2, seed=7)
        assert cfg.replications == 2
        assert cfg.seed == 7
        assert cfg.ranks == (50, 100, 150, 200)

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="paper-fig1"):
            preset_config("fig-nope")
