"""Seeded Monte Carlo study of the adaptive denoiser.

The study's signal is U D_r V^T with fresh Haar-random r-column frames
(the first r columns of Haar orthogonal matrices, drawn by a thin QR) and
the geometric spectrum lambda_i = exp(3 - (i - 1)/50); noise is i.i.d.
with mean zero and unit variance.  Rademacher and uniform cells draw the
frames.  Gaussian noise is orthogonally invariant, so a Gaussian cell uses
E D_r E^T, E = [I_r; 0], draws only its noise, and gives records with the
same joint law: sigma_hat and the kept rank depend only on singular values,
and thresholding is orthogonally equivariant.

A Gaussian cell with lo + r < hi, lo = min(m, n), hi = max(m, n), goes
further and is drawn in reduced Bartlett form.  In the wide orientation
its matrix is [D_r (+) 0 + sigma A_1 | sigma G]: the signal and the lo x r
noise A_1 fill the first r columns, and G is lo x (hi - r) pure noise.
By Bartlett's decomposition G = T H, with T lo x lo lower triangular,
T_ii = sqrt(chi2(hi - r - i + 1)), N(0, 1) below the diagonal, H with
orthonormal rows, and T independent of A_1.  Right-multiplying by an
orthogonal matrix that fixes the first r columns changes neither the
singular values nor ||T(X) - M||_F, so the lo x (lo + r) matrix
[D_r (+) 0 + sigma A_1 | sigma T] gives records with the law of the m x n
cell.  It is decided with the m x n shape (sigma_hat, the threshold) and
its squared error is divided by m n.  Its draws, in order: A_1 row by row
(lo r normals), T's strictly lower entries row by row (lo (lo - 1)/2
normals), then T's diagonal top to bottom (lo chi-squares).  A Gaussian
cell with lo + r >= hi draws the full m x n noise, as the other kinds do.

Each (rank, sigma, replication) cell draws from its own named substream,
so results are independent of execution order and may be computed in
parallel.  Same-seed Gaussian outputs with lo + r < hi differ from versions
that drew the full noise for them, all Gaussian outputs differ from
versions that drew Haar frames for them, and all outputs differ from
versions that drew square Haar matrices; the law of every record does not.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .estimators import DEFAULT_ETA, _check_eta, _denoise
from .spectral import SvdConvergenceError

SPECTRUM_LOG_PEAK = 3.0
SPECTRUM_DECAY = 50.0

# Noise kind -> sampler of an i.i.d. mean-zero unit-variance matrix.
_NOISE = {
    "gaussian": lambda rng, shape: rng.standard_normal(shape),
    "rademacher": lambda rng, shape:
        rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0,
    "uniform": lambda rng, shape: rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=shape),
}
NOISE_KINDS = tuple(_NOISE)
# Kinds whose noise matrix A has the law of O1 A O2 for fixed orthogonal O1,
# O2: their cells take E D_r E^T as the signal, draw no Haar frame and, when
# lo + r < hi, are drawn in reduced Bartlett form, which leaves the law of
# every record unchanged (see the module docstring).
_ORTHOGONALLY_INVARIANT = frozenset({"gaussian"})


def _is_integer(value) -> bool:
    # bool is an Integral, but True is no dimension, rank or seed
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class ConfigError(ValueError):
    """An ExperimentConfig field is invalid; `field` names it."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one Monte Carlo study."""

    m: int
    n: int
    ranks: tuple[int, ...]
    sigmas: tuple[float, ...]
    replications: int = 100
    eta: float = DEFAULT_ETA
    noise_kind: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        for name in ("m", "n", "replications", "seed"):
            if not _is_integer(getattr(self, name)):
                raise ConfigError(name, f"{name} must be an integer")
            object.__setattr__(self, name, int(getattr(self, name)))
        ranks = tuple(self.ranks)
        if not all(_is_integer(r) for r in ranks):
            raise ConfigError("ranks", "ranks must be integers")
        object.__setattr__(self, "ranks", tuple(int(r) for r in ranks))
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))
        for dim in ("m", "n"):
            if getattr(self, dim) < 1:
                raise ConfigError(dim, "matrix dimensions must be positive")
        if not self.ranks:
            raise ConfigError("ranks", "ranks must be nonempty")
        k = min(self.m, self.n)
        for r in self.ranks:
            if not 1 <= r <= k:
                raise ConfigError("ranks", f"rank {r} outside [1, {k}]")
        if not self.sigmas or not all(0.0 < s < math.inf for s in self.sigmas):
            raise ConfigError(
                "sigmas", "sigmas must be nonempty, finite and strictly positive")
        for name in ("ranks", "sigmas"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ConfigError(name, f"{name} must not repeat a value")
        if self.replications < 1:
            raise ConfigError("replications", "replications must be >= 1")
        try:
            _check_eta(self.eta)
        except ValueError as exc:
            raise ConfigError("eta", str(exc)) from None
        if self.noise_kind not in NOISE_KINDS:
            raise ConfigError(
                "noise_kind",
                f"noise_kind must be one of {NOISE_KINDS}, got {self.noise_kind!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed", "seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class ExperimentRecord:
    """Metrics of a single replication cell."""

    rank: int
    sigma: float
    rep: int
    sigma_hat: float
    sq_err_sigma: float
    mse_matrix: float
    kept_rank: int


@dataclass(frozen=True)
class SummaryRow:
    rank: int
    sigma: float
    mean_sq_err_sigma: float
    mean_mse_matrix: float
    count: int


def haar_frame(dim: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """First k columns of a Haar-distributed dim x dim orthogonal matrix.

    Thin QR of a dim x k i.i.d. standard Gaussian matrix, with each Q column
    flipped by the sign of the matching R diagonal entry; without that
    correction the columns are not Haar distributed.  Column j of Q depends
    only on the first j columns of the draw, so this is the first k columns
    of the same construction on a dim x dim draw; k = dim gives a Haar
    orthogonal matrix.
    """
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= dim, got dim={dim}, k={k}")
    q, r = np.linalg.qr(rng.standard_normal((dim, k)))
    return q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)


def signal_spectrum(r: int) -> np.ndarray:
    """Prescribed singular values exp(3 - (i - 1)/50) for i = 1..r."""
    return np.exp(SPECTRUM_LOG_PEAK - np.arange(r) / SPECTRUM_DECAY)


def signal_matrix(r: int, m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """m x n signal U D_r V^T with fresh r-column Haar frames and the geometric spectrum."""
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} outside [1, {min(m, n)}]")
    return (haar_frame(m, r, rng) * signal_spectrum(r)) @ haar_frame(n, r, rng).T


def noise_matrix(m: int, n: int, kind: str, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. mean-zero unit-variance noise of the requested kind."""
    if kind not in NOISE_KINDS:
        raise ValueError(f"noise kind must be one of {NOISE_KINDS}, got {kind!r}")
    return _NOISE[kind](rng, (m, n))


def cell_rng(seed: int, rank_index: int, sigma_index: int, rep: int) -> np.random.Generator:
    """Independent named substream for one experiment cell.

    Streams are keyed by cell coordinates, not draw order, so any execution
    schedule (serial, permuted, parallel) produces identical results.
    """
    ss = np.random.SeedSequence(entropy=seed,
                                spawn_key=(rank_index, sigma_index, rep))
    return np.random.default_rng(ss)


def _bartlett_noise(lo: int, hi: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """The reduced noise [A_1 | T], lo x (lo + r), of a wide lo x hi
    Gaussian cell of rank r, drawn in the order the module docstring gives."""
    noise = np.zeros((lo, lo + r))
    noise[:, :r] = rng.standard_normal((lo, r))
    t = noise[:, r:]
    t[np.tril_indices(lo, -1)] = rng.standard_normal(lo * (lo - 1) // 2)
    t[np.diag_indices(lo)] = np.sqrt(rng.chisquare(hi - r - np.arange(lo)))
    return noise


def run_cell(config: ExperimentConfig, rank_index: int, sigma_index: int,
             rep: int) -> ExperimentRecord:
    """Draw one (signal, noise) pair, denoise adaptively, record metrics."""
    m, n = config.m, config.n
    r = config.ranks[rank_index]
    sigma = config.sigmas[sigma_index]
    rng = cell_rng(config.seed, rank_index, sigma_index, rep)
    if config.noise_kind in _ORTHOGONALLY_INVARIANT:
        lo, hi = min(m, n), max(m, n)
        if lo + r < hi:
            noise = _bartlett_noise(lo, hi, r, rng)
        else:
            noise = noise_matrix(m, n, config.noise_kind, rng)
        signal = np.zeros(noise.shape)
        signal[np.arange(r), np.arange(r)] = signal_spectrum(r)
    else:
        signal = signal_matrix(r, m, n, rng)
        noise = noise_matrix(m, n, config.noise_kind, rng)
    cell = f"cell rank={r} sigma={sigma} rep={rep}"
    try:
        # an overflow would write inf or nan into the records as a result
        with np.errstate(over="raise"):
            # decided and scored as the m x n cell, also in reduced form
            denoised, report = _denoise(signal + sigma * noise, (m, n), None, config.eta)
            sq_err_sigma = (report.sigma_used - sigma) ** 2
            mse_matrix = float(np.sum((denoised - signal) ** 2)) / (m * n)
    except ArithmeticError as exc:
        raise ValueError(f"{cell}: a value overflows float64") from exc
    except (ValueError, SvdConvergenceError) as exc:
        raise type(exc)(f"{cell}: {exc}") from exc
    return ExperimentRecord(
        rank=r, sigma=sigma, rep=rep, sigma_hat=report.sigma_used,
        sq_err_sigma=sq_err_sigma, mse_matrix=mse_matrix,
        kept_rank=report.kept_rank,
    )


def run_experiment(config: ExperimentConfig) -> list[ExperimentRecord]:
    """One record per (rank, sigma, replication), in that loop order."""
    return [
        run_cell(config, i, j, rep)
        for i in range(len(config.ranks))
        for j in range(len(config.sigmas))
        for rep in range(config.replications)
    ]


def aggregate(records) -> list[SummaryRow]:
    """Per (rank, sigma) means, accumulated sequentially in record order."""
    records = list(records)
    if not records:
        raise ValueError("cannot aggregate zero records")
    sums: dict[tuple[int, float], list[float]] = {}
    for rec in records:
        acc = sums.setdefault((rec.rank, rec.sigma), [0.0, 0.0, 0])
        acc[0] += rec.sq_err_sigma
        acc[1] += rec.mse_matrix
        acc[2] += 1
    return [
        SummaryRow(rank=rank, sigma=sigma,
                   mean_sq_err_sigma=s0 / count,
                   mean_mse_matrix=s1 / count,
                   count=count)
        for (rank, sigma), (s0, s1, count) in sorted(sums.items())
    ]


PRESETS = {
    # The published study: 200 x 1000, ranks 50..200, eta = 0.02, Gaussian
    # noise, 100 replications.  The sigma grid is this package's choice; the
    # source experiment varies sigma without listing the values.
    "paper-fig1": ExperimentConfig(
        m=200, n=1000,
        ranks=(50, 100, 150, 200),
        sigmas=(0.5, 1.0, 2.0, 4.0),
        replications=100,
        eta=0.02,
        noise_kind="gaussian",
        seed=0,
    ),
}


def preset_config(name: str, **overrides) -> ExperimentConfig:
    """Look up a preset and apply field overrides (reps, seed, ...)."""
    try:
        base = PRESETS[name]
    except KeyError:
        available = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r}; available: {available}") from None
    return replace(base, **overrides) if overrides else base
