"""Per-layer metrics from the spans of a traced run.

A span's self time is its duration minus the durations of its direct
children (calls are nested on one thread, so children never overlap).
Unless a metric's description says otherwise, `*_s` metrics are seconds
per op summed over every call of the function inside the op (inclusive of
its children), and `*_calls` are calls per op; an op is one
`usvt.cli.main` call.  A layer that does not run on a workload reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import LAYERS

DENOISE_ENTRIES = ("estimators.usvt_adaptive", "estimators.usvt_denoise")

# (name, unit, better, description) of every per-layer metric.
METRICS = [
    ("cli.read_matrix_s", "s", "lower", "read_matrix time per op"),
    ("cli.read_mb_per_s", "MB/s", "higher", "input bytes parsed per second of read_matrix"),
    ("cli.bytes_read", "bytes", "lower", "matrix file bytes read per op"),
    ("cli.write_matrix_s", "s", "lower", "write_matrix time per op"),
    ("cli.write_mb_per_s", "MB/s", "higher", "matrix bytes written per second of write_matrix"),
    ("cli.bytes_written", "bytes", "lower", "matrix file bytes written per op"),
    ("cli.write_results_s", "s", "lower", "write_results (per-replication CSV) time per op"),
    ("estimators.estimate_sigma_s", "s", "lower", "estimate_sigma time per op"),
    ("estimators.usvt_denoise_self_s", "s", "lower",
     "usvt_denoise self time per op: reconstruction and validation outside the spectral calls"),
    ("estimators.mse_s", "s", "lower", "mse time per op"),
    ("spectral.svd_s", "s", "lower", "svd (with vectors) time per op"),
    ("spectral.svd_calls", "count", "lower", "svd calls per op"),
    ("spectral.singular_values_s", "s", "lower", "singular_values time per op"),
    ("spectral.singular_values_calls", "count", "lower", "singular_values calls per op"),
    ("spectral.passes_per_denoise", "count", "lower",
     "svd plus singular_values calls per top-level usvt_adaptive/usvt_denoise call"),
    ("spectral.vector_use_ratio", "ratio", "higher",
     "kept rank over singular vector pairs computed by svd; 1 when denoising computed none"),
    ("spectral.as_matrix_calls_per_op", "count", "lower",
     "as_matrix validation passes over the data per op"),
    ("mp_law.median_s", "s", "lower",
     "MPLaw.median time over the worker's life, set-up included"),
    ("mp_law.cdf_calls", "count", "lower", "MPLaw.cdf calls over the worker's life, set-up included"),
    ("simulate.haar_orthogonal_s", "s", "lower", "haar_orthogonal time per op"),
    ("simulate.haar_orthogonal_calls", "count", "lower", "haar_orthogonal calls per op"),
    ("simulate.haar_columns_used_ratio", "ratio", "higher",
     "signal columns used (2 r per signal_matrix) over Haar columns drawn"),
    ("simulate.noise_matrix_s", "s", "lower", "noise_matrix time per op"),
    ("simulate.run_cell_s", "s", "lower", "run_cell time per op"),
] + [
    (f"{layer}.self_s", "s", "lower", f"self time per op of all {layer} spans")
    for layer in LAYERS
] + [
    ("layer_coverage_ratio", "ratio", "higher",
     "summed layer self time over op wall time; at least 0.9 when no stage is untraced"),
    ("trace_overhead_ratio", "ratio", "lower",
     "traced over untraced loop time, same ops and inputs"),
]


def analyse(spans: list, op_seconds: dict) -> dict:
    """Per-layer metrics from `spans` ([name, start, end, parent, op, extra]).

    `op_seconds` maps each measured op id to its wall time; spans of other
    ops (the set-up warm-up) only count towards the worker-life metrics.
    """
    n_ops = len(op_seconds)
    duration = [s[2] - s[1] for s in spans]
    self_time = list(duration)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            self_time[span[3]] -= duration[i]

    total = defaultdict(float)
    calls = defaultdict(int)
    extra = defaultdict(float)
    self_by_name = defaultdict(float)
    life_total = defaultdict(float)
    life_calls = defaultdict(int)
    denoise_calls = 0
    for i, (name, _, _, parent, op, info) in enumerate(spans):
        life_total[name] += duration[i]
        life_calls[name] += 1
        if op not in op_seconds:
            continue
        total[name] += duration[i]
        calls[name] += 1
        self_by_name[name] += self_time[i]
        for key, value in (info or {}).items():
            extra[name, key] += value
        if name in DENOISE_ENTRIES and (parent < 0 or spans[parent][0] not in DENOISE_ENTRIES):
            denoise_calls += 1
            extra["denoise", "kept"] += info["kept"]

    def per_op(value):
        return value / n_ops

    def rate(name):
        seconds = total[name]
        return extra[name, "bytes"] / 1e6 / seconds if seconds else 0.0

    vectors = extra["spectral.svd", "vectors"]
    drawn = extra["simulate.haar_orthogonal", "dim"]
    m = {
        "cli.read_matrix_s": per_op(total["cli.read_matrix"]),
        "cli.read_mb_per_s": rate("cli.read_matrix"),
        "cli.bytes_read": per_op(extra["cli.read_matrix", "bytes"]),
        "cli.write_matrix_s": per_op(total["cli.write_matrix"]),
        "cli.write_mb_per_s": rate("cli.write_matrix"),
        "cli.bytes_written": per_op(extra["cli.write_matrix", "bytes"]),
        "cli.write_results_s": per_op(total["cli.write_results"]),
        "estimators.estimate_sigma_s": per_op(total["estimators.estimate_sigma"]),
        "estimators.usvt_denoise_self_s": per_op(self_by_name["estimators.usvt_denoise"]),
        "estimators.mse_s": per_op(total["estimators.mse"]),
        "spectral.svd_s": per_op(total["spectral.svd"]),
        "spectral.svd_calls": per_op(calls["spectral.svd"]),
        "spectral.singular_values_s": per_op(total["spectral.singular_values"]),
        "spectral.singular_values_calls": per_op(calls["spectral.singular_values"]),
        "spectral.passes_per_denoise":
            (calls["spectral.svd"] + calls["spectral.singular_values"]) / denoise_calls
            if denoise_calls else 0.0,
        "spectral.vector_use_ratio":
            extra["denoise", "kept"] / vectors if vectors else float(denoise_calls > 0),
        "spectral.as_matrix_calls_per_op": per_op(calls["spectral.as_matrix"]),
        "mp_law.median_s": life_total["mp_law.median"],
        "mp_law.cdf_calls": life_calls["mp_law.cdf"],
        "simulate.haar_orthogonal_s": per_op(total["simulate.haar_orthogonal"]),
        "simulate.haar_orthogonal_calls": per_op(calls["simulate.haar_orthogonal"]),
        "simulate.haar_columns_used_ratio":
            2 * extra["simulate.signal_matrix", "r"] / drawn if drawn else 0.0,
        "simulate.noise_matrix_s": per_op(total["simulate.noise_matrix"]),
        "simulate.run_cell_s": per_op(total["simulate.run_cell"]),
    }
    layer_self = defaultdict(float)
    for name, seconds in self_by_name.items():
        layer_self[name.split(".", 1)[0]] += seconds
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_op(layer_self[layer])
    m["layer_coverage_ratio"] = sum(layer_self.values()) / sum(op_seconds.values())
    return m
