"""The benchmark's workloads: seeded inputs, the CLI call of each op, and
the checks that decide whether an op's outputs are correct.

Inputs come from `SeedSequence` substreams of the run's seed, one per op,
so the same seed gives the same inputs and no two ops of a run read the
same file.  The checks are independent of the program's code paths except
for the Marchenko-Pastur median `MPLaw(gamma).median`, the calibration
constant the paper defines.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

ETA = 0.02  # the CLI default, which every op uses
SIGMA_RTOL = 1e-12
DENOISED_RTOL = 1e-10
MSE_RTOL = 1e-9

FIG1_M, FIG1_N = 200, 1000
FIG1_RANKS = (50, 100, 150, 200)
FIG1_SIGMAS = (0.5, 1.0, 2.0, 4.0)
RESULTS_HEADER = "rank,sigma,rep,sigma_hat,sq_err_sigma,mse_matrix,kept_rank"
SUMMARY_HEADER = "rank,sigma,mean_sq_err_sigma,mean_mse_matrix,count"


def op_rng(seed: int, workload_index: int, op: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(workload_index, op)))


def paper_spectrum(r: int) -> np.ndarray:
    """The paper's signal singular values exp(3 - (i - 1)/50), i = 1..r."""
    return np.exp(3.0 - np.arange(r) / 50.0)


def orthonormal_frame(rng, dim: int, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, k)))
    return q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)


def format_rows(x: np.ndarray) -> list[str]:
    """Comma-separated text rows with 17 significant digits, which parse
    back to exactly `x`."""
    row = ",".join(["%.17g"] * x.shape[1]) + "\n"
    return [row % tuple(values) for values in x.tolist()]


def strict_json(text: str):
    """Parse JSON, rejecting the NaN/Infinity extensions Python accepts."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def rel_close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


@dataclass
class Op:
    """One generated op: the CLI argv, its input and output files, and what
    the checks need to judge the outputs."""

    argv: list
    inputs: list
    outputs: list
    expect: dict


class Denoise:
    """`usvt denoise` with sigma estimated on m x n text matrices: a signal
    with singular values `spectrum` plus N(0, sigma^2) noise, built so that
    exactly `kept` components clear the threshold."""

    def __init__(self, m, n, spectrum, sigma, kept, warm_shape):
        self.m, self.n = m, n
        self.spectrum = np.asarray(spectrum, dtype=np.float64)
        self.sigma = sigma
        self.kept = kept
        self.warm_shape = warm_shape

    def entries_per_op(self) -> int:
        return self.m * self.n

    def cells_per_op(self) -> int:
        return 0

    def describe(self) -> str:
        return f"one {self.m}x{self.n} text matrix ({self.m * self.n} entries) per op"

    def source(self, rng, warm=False) -> "DenoiseSource":
        m, n = self.warm_shape if warm else (self.m, self.n)
        r = min(len(self.spectrum), m, n)
        signal = (orthonormal_frame(rng, m, r) * self.spectrum[:r]) \
            @ orthonormal_frame(rng, n, r).T
        return DenoiseSource(signal + self.sigma * rng.standard_normal((m, n)), self.kept)


class DenoiseSource:
    """One generated matrix X of a run and its reference results.

    Each op reads its own file holding the rows of X in a fresh random
    order.  Formatting 720k floats costs longer than the op itself, so ops
    permute pre-formatted rows instead; the files still differ in content,
    and P X has the singular values of X, sigma-hat of X and denoised
    matrix P * denoise(X), which the checks use.
    """

    rerun_identical = False  # outputs are large; byte stability is the simulate check

    def __init__(self, x: np.ndarray, kept: int):
        from usvt.mp_law import MPLaw

        self.x, self.kept = x, kept
        self.rows = format_rows(x)
        m, n = x.shape
        big = max(m, n)
        values = np.linalg.svd(x, compute_uv=False)
        self.sigma = float(np.median(values)) / math.sqrt(big * MPLaw(min(m, n) / big).median)
        self.above = int(np.count_nonzero(values >= (2.0 + ETA) * self.sigma * math.sqrt(big)))
        self.truncation = None
        if kept:
            u, s, vt = np.linalg.svd(x, full_matrices=False)
            self.truncation = (u[:, :kept] * s[:kept]) @ vt[:kept]

    def make(self, rng, workdir, tag) -> Op:
        source, out, report = (os.path.join(workdir, f"{tag}.{ext}")
                               for ext in ("in.txt", "out.txt", "report.json"))
        order = rng.permutation(len(self.rows))
        with open(source, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join([self.rows[i] for i in order]))
        argv = ["denoise", "--input", source, "--output", out, "--report", report]
        return Op(argv, [source], [out, report], {"order": order})

    def check(self, op: Op) -> list[str]:
        out_path, report_path = op.outputs
        m, n = self.x.shape
        kept = self.kept
        errors = []
        if self.above != kept:
            errors.append(f"generated input keeps {self.above} components, expected {kept}")
        try:
            with open(report_path, encoding="utf-8") as fh:
                report = strict_json(fh.read())
            if (report["m"], report["n"]) != (m, n):
                errors.append(f"report shape {report['m']}x{report['n']}, expected {m}x{n}")
            if not rel_close(float(report["sigma_used"]), self.sigma, SIGMA_RTOL):
                errors.append(f"sigma_used {report['sigma_used']!r}, independent {self.sigma!r}")
            if report["kept_rank"] != kept:
                errors.append(f"kept_rank {report['kept_rank']!r}, expected {kept}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors.append(f"report: {exc!r}")
        try:
            out = np.loadtxt(out_path, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            return errors + [f"denoised file: {exc!r}"]
        if out.shape != (m, n):
            return errors + [f"denoised shape {out.shape}, expected {(m, n)}"]
        if kept == 0:
            if np.count_nonzero(out):
                errors.append("denoised file is not all zeros")
        else:
            ref = self.truncation[op.expect["order"]]
            err = float(np.linalg.norm(out - ref) / np.linalg.norm(ref))
            if not err <= DENOISED_RTOL:
                errors.append(f"denoised file off the rank-{kept} truncation by {err:.3g} rel")
        return errors


class Simulate:
    """`usvt simulate --preset paper-fig1 --reps R`: each op runs the 16
    (rank, sigma) cells R times under its own base seed.  The warm-up op is
    one small cell of the same aspect ratio."""

    def __init__(self, reps: int):
        self.reps = reps

    def cells_per_op(self) -> int:
        return len(FIG1_RANKS) * len(FIG1_SIGMAS) * self.reps

    def entries_per_op(self) -> int:
        return self.cells_per_op() * FIG1_M * FIG1_N

    def describe(self) -> str:
        return (f"{self.cells_per_op()} cells of {FIG1_M}x{FIG1_N} "
                f"({self.entries_per_op()} entries) per op")

    def source(self, rng, warm=False) -> "SimulateSource":
        shape = ["--m", "40", "--n", "200", "--ranks", "5", "--sigmas", "1"] if warm else []
        return SimulateSource(["--reps", "1" if warm else str(self.reps)] + shape, self.reps)


@dataclass
class SimulateSource:
    flags: list
    reps: int
    rerun_identical = True  # a same-seed rerun must write byte-identical CSVs

    def make(self, rng, workdir, tag) -> Op:
        outputs = [os.path.join(workdir, f"{tag}.{ext}") for ext in ("results.csv", "summary.csv")]
        argv = ["simulate", "--preset", "paper-fig1", "--seed", str(int(rng.integers(0, 2**32))),
                "--out", outputs[0], "--summary", outputs[1]] + self.flags
        return Op(argv, [], outputs, {})

    def check(self, op: Op) -> list[str]:
        try:
            with open(op.outputs[0], encoding="utf-8") as fh:
                results = fh.read().splitlines()
            with open(op.outputs[1], encoding="utf-8") as fh:
                summary = fh.read().splitlines()
        except OSError as exc:
            return [f"output: {exc!r}"]
        return check_fig1_csvs(results, summary, self.reps)


def check_fig1_csvs(results: list[str], summary: list[str], reps: int) -> list[str]:
    """Row count, finite fields, kept_rank 0 and the closed-form matrix MSE.

    With nothing kept the denoised matrix is 0, so its MSE is
    ||M_r||_F^2 / (m n) = sum of the squared signal singular values / (m n),
    whatever the Haar draws were.
    """
    errors = []
    expected = {(r, s, rep) for r in FIG1_RANKS for s in FIG1_SIGMAS for rep in range(reps)}
    if not results or results[0] != RESULTS_HEADER:
        return ["results header missing or wrong"]
    if len(results) - 1 != len(expected):
        errors.append(f"{len(results) - 1} result rows, expected {len(expected)}")
    seen = set()
    sums: dict = {}
    for lineno, line in enumerate(results[1:], start=2):
        fields = line.split(",")
        try:
            rank, sigma, rep = int(fields[0]), float(fields[1]), int(fields[2])
            sigma_hat, sq_err, mse, kept = (float(f) for f in fields[3:7])
            if len(fields) != 7 or not all(map(math.isfinite, (sigma_hat, sq_err, mse))):
                raise ValueError("expected 7 finite fields")
        except (ValueError, IndexError) as exc:
            errors.append(f"results line {lineno}: {exc}")
            continue
        seen.add((rank, sigma, rep))
        if kept != 0:
            errors.append(f"results line {lineno}: kept_rank {fields[6]}, expected 0")
        if rank in FIG1_RANKS:
            want = float(np.sum(paper_spectrum(rank) ** 2)) / (FIG1_M * FIG1_N)
            if not rel_close(mse, want, MSE_RTOL):
                errors.append(f"results line {lineno}: mse_matrix {mse!r}, expected {want!r}")
        if not rel_close(sq_err, (sigma_hat - sigma) ** 2, MSE_RTOL):
            errors.append(f"results line {lineno}: sq_err_sigma inconsistent with sigma_hat")
        acc = sums.setdefault((rank, sigma), [0.0, 0])
        acc[0] += mse
        acc[1] += 1
    if seen != expected:
        errors.append("results rows do not cover the rank x sigma x rep grid once each")
    if not summary or summary[0] != SUMMARY_HEADER or len(summary) - 1 != len(sums):
        return errors + ["summary header or row count wrong"]
    for line in summary[1:]:
        fields = line.split(",")
        try:
            total, count = sums[int(fields[0]), float(fields[1])]
            agrees = int(fields[4]) == count and rel_close(float(fields[3]), total / count, MSE_RTOL)
        except (ValueError, IndexError, KeyError):
            agrees = False
        if not agrees:
            errors.append(f"summary row {line!r} disagrees with the results")
    return errors


WORKLOADS = {
    # Paper regime: kept_rank 0, so the second SVD's vectors are discarded.
    "denoise-kept0": Denoise(600, 1200, paper_spectrum(50), sigma=1.0, kept=0,
                             warm_shape=(60, 120)),
    # Tall input (transpose path), 16 components kept and written in full.
    "denoise-lowrank": Denoise(1200, 600, np.geomspace(40.0, 20.0, 16), sigma=0.05,
                               kept=16, warm_shape=(120, 60)),
    "simulate-fig1": Simulate(reps=1),
}


def self_test(workdir) -> list[str]:
    """Feed the checks outputs known to be wrong; return the ones they let
    through (empty when every wrong output is caught)."""
    source = WORKLOADS["denoise-lowrank"].source(np.random.default_rng(12345), warm=True)
    op = source.make(np.random.default_rng(1), workdir, "selftest")
    good = source.truncation[op.expect["order"]]
    m, n = good.shape
    report = {"m": m, "n": n, "sigma_used": source.sigma, "kept_rank": source.kept}

    def passes(matrix, rep) -> bool:
        with open(op.outputs[0], "w", encoding="utf-8") as fh:
            fh.write("".join(format_rows(matrix)))
        with open(op.outputs[1], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(rep))
        return not source.check(op)

    escaped = []
    if not passes(good, report):
        escaped.append("a correct denoise output was rejected")
    bad = good.copy()
    bad[3, 5] *= 1.0 + 1e-6
    if passes(bad, report):
        escaped.append("a perturbed denoised file passed")
    if passes(good, dict(report, kept_rank=source.kept - 1)):
        escaped.append("a wrong kept_rank passed")
    if passes(good, dict(report, sigma_used=math.nan)):
        escaped.append("a NaN sigma_used passed")
    for path in op.inputs + op.outputs:
        os.remove(path)

    mse = {r: float(np.sum(paper_spectrum(r) ** 2)) / (FIG1_M * FIG1_N) for r in FIG1_RANKS}
    results = [RESULTS_HEADER] + [f"{r},{sg!r},0,{sg!r},0.0,{mse[r]!r},0"
                                  for r in FIG1_RANKS for sg in FIG1_SIGMAS]
    summary = [SUMMARY_HEADER] + [f"{r},{sg!r},0.0,{mse[r]!r},1"
                                  for r in FIG1_RANKS for sg in FIG1_SIGMAS]
    if check_fig1_csvs(results, summary, 1):
        escaped.append("a correct simulate output was rejected")
    broken = results.copy()
    broken[5] = broken[5].replace(",0.0,", ",nan,", 1)
    if not check_fig1_csvs(broken, summary, 1):
        escaped.append("a non-finite CSV row passed")
    broken = results.copy()
    broken[2] = broken[2][:-1] + "1"
    if not check_fig1_csvs(broken, summary, 1):
        escaped.append("a nonzero kept_rank row passed")
    return escaped
