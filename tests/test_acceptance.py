"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with `pytest tests/test_acceptance.py -v` for a pass/fail line per
criterion.  The published figure's numeric curves are not recoverable, so
calibration rests on the four published nuclear norms plus property-based
Monte Carlo suites with frozen seeds.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from usvt import (
    MPLaw,
    cell_rng,
    estimate_sigma,
    ks_distance,
    mse,
    noise_matrix,
    nuclear_norm,
    preset_config,
    run_cell,
    run_experiment,
    signal_matrix,
    singular_values,
    usvt_adaptive,
    usvt_denoise,
)
from usvt.cli import main

# Published nuclear norms of the rank-r signal at 200 x 1000.
CAPTION_NORMS = {50: 641.193, 100: 877.0753, 150: 963.851, 200: 995.775}


def geometric_series_norm(r):
    """Independent re-derivation: sum_{i=1}^r e^{3-(i-1)/50} in closed form."""
    q = math.exp(-1.0 / 50.0)
    return math.exp(3.0) * (1.0 - q**r) / (1.0 - q)


def quarter_circle_cdf(x):
    s = math.sqrt(x)
    return (s * math.sqrt(4.0 - s * s) / 2.0 + 2.0 * math.asin(s / 2.0)) / math.pi


def test_criterion_1_nuclear_norm_calibration():
    rng = np.random.default_rng(2024)
    for r, published in CAPTION_NORMS.items():
        assert geometric_series_norm(r) == pytest.approx(published, abs=1e-3)
        realized = nuclear_norm(signal_matrix(r, 200, 1000, rng))
        assert realized == pytest.approx(published, abs=1e-3)


def test_criterion_2_mp_law_self_consistency():
    quad = pytest.importorskip("scipy.integrate").quad
    for gamma in (0.04, 0.1, 0.2, 0.5, 1.0):
        law = MPLaw(gamma)
        # normalization and unit mean through the implementation's density,
        # integrated by test-local quadrature under the edge substitution
        span = law.gamma_plus - law.gamma_minus

        def transported(theta, moment):
            x = law.gamma_minus + span * math.sin(theta) ** 2
            jacobian = span * math.sin(2.0 * theta)
            return x**moment * law.density(x) * jacobian

        mass, _ = quad(transported, 0.0, math.pi / 2.0, args=(0,),
                       epsabs=1e-12, epsrel=1e-12, limit=200)
        mean, _ = quad(transported, 0.0, math.pi / 2.0, args=(1,),
                       epsabs=1e-12, epsrel=1e-12, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert mean == pytest.approx(1.0, abs=1e-8)
        for p in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            assert law.cdf(law.quantile(p)) == pytest.approx(p, abs=1e-8)
    law1 = MPLaw(1.0)
    for x in (0.5, 1.0, 2.0, 3.0):
        assert law1.cdf(x) == pytest.approx(quarter_circle_cdf(x), abs=1e-8)


def test_criterion_3_sigma_hat_mse_decays_with_n():
    def mc_mse(n, seed_base):
        m = int(round(0.2 * n))
        errors = []
        for s in range(50):
            x = np.random.default_rng(seed_base + s).standard_normal((m, n))
            errors.append((estimate_sigma(x) - 1.0) ** 2)
        return float(np.mean(errors))

    small = mc_mse(250, 31000)
    large = mc_mse(2000, 37000)
    assert large <= 0.5 * small


def test_criterion_4_spectral_law_convergence():
    hits = 0
    for s in range(20):
        x = np.random.default_rng(500 + s).standard_normal((1000, 2000))
        hits += ks_distance(singular_values(x), x.shape) <= 0.05
    assert hits >= 19  # >= 95% of 20 draws


def test_criterion_5_denoising_efficacy():
    config = preset_config("paper-fig1", sigmas=(1.0,), replications=10, seed=0)
    per_rank_mhat = {r: [] for r in config.ranks}
    per_rank_identity = {r: [] for r in config.ranks}
    agreement = 0
    cells = 0
    for i, r in enumerate(config.ranks):
        for rep in range(config.replications):
            rng = cell_rng(config.seed, i, 0, rep)
            signal = signal_matrix(r, config.m, config.n, rng)
            noise = noise_matrix(config.m, config.n, config.noise_kind, rng)
            observed = signal + 1.0 * noise
            denoised, adaptive_report = usvt_adaptive(observed, config.eta)
            _, known_report = usvt_denoise(observed, 1.0, config.eta)
            per_rank_mhat[r].append(mse(denoised, signal))
            per_rank_identity[r].append(mse(observed, signal))
            agreement += adaptive_report.kept_rank == known_report.kept_rank
            cells += 1
    for r in config.ranks:
        assert np.mean(per_rank_mhat[r]) < np.mean(per_rank_identity[r])
    assert agreement / cells >= 0.95


def test_criterion_6_determinism(tmp_path):
    args = ["simulate", "--preset", "paper-fig1", "--reps", "2", "--seed", "7"]
    first = tmp_path / "r1.csv"
    second = tmp_path / "r2.csv"
    assert main(args + ["--out", str(first),
                        "--summary", str(tmp_path / "s1.csv")]) == 0
    assert main(args + ["--out", str(second),
                        "--summary", str(tmp_path / "s2.csv")]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
    assert len(first.read_text().splitlines()) == 1 + 4 * 4 * 2

    # parallel and serial schedules agree cell by cell
    config = preset_config("paper-fig1", replications=2, seed=7)
    serial = run_experiment(config)
    cells = [(i, j, rep)
             for i in range(len(config.ranks))
             for j in range(len(config.sigmas))
             for rep in range(config.replications)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda c: run_cell(config, *c), cells))
    assert parallel == serial


def weyl_cells(seed=8):
    """(r, sigma, signal, noise) of one full Gaussian draw per paper-fig1
    rank and sigma in {0.05, 0.1, 0.2, 0.5, 1}, from the study's substreams."""
    config = preset_config("paper-fig1", sigmas=(0.05, 0.1, 0.2, 0.5, 1.0), seed=seed)
    for i, r in enumerate(config.ranks):
        for j, sigma in enumerate(config.sigmas):
            rng = cell_rng(config.seed, i, j, 0)
            signal = signal_matrix(r, config.m, config.n, rng)
            yield r, sigma, signal, sigma * noise_matrix(config.m, config.n, "gaussian", rng)


def test_criterion_7_weyl_bounds_hold_cell_by_cell():
    # X = M + E with rank(M) = r.  M_hat - M has rank at most k + r and
    # operator norm at most s_{k+1}(X) + ||E|| < tau + ||E||, so
    # mse_matrix <= (k + r)(tau + ||E||)^2 / (m n), at estimated and known
    # sigma.  By Weyl, s_{i+r}(E) <= s_i(X) <= s_{i-r}(E) (0-based, s_j(E)
    # read as 0 past the end and +inf before the start), so sigma_hat lies
    # between E's median pair shifted by +r and by -r over sqrt(n mu_gamma),
    # up to the error of the values it is read from.
    m, n = 200, 1000
    calibration = math.sqrt(n * MPLaw(m / n).median)
    for r, sigma, signal, noise in weyl_cells():
        x = signal + noise
        e = singular_values(noise)
        for known in (None, sigma):
            denoised, report = usvt_denoise(x, known)
            bound = (report.kept_rank + r) * (report.threshold + e[0]) ** 2 / (m * n)
            assert mse(denoised, signal) <= bound * (1.0 + 1e-9), (r, sigma, known)

        def pair(shift):
            at = [i + shift for i in ((m - 1) // 2, m // 2)]
            return sum(math.inf if i < 0 else e[i] if i < m else 0.0 for i in at) / 2 / calibration

        slack = 1e-11 * (math.exp(3.0) + 2.0 * e[0]) / calibration  # s_1(X) <= e^3 + ||E||
        assert pair(r) - slack <= estimate_sigma(x) <= pair(-r) + slack, (r, sigma)
