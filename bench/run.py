"""End-to-end and per-layer benchmark of the `usvt` command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload denoise-kept0 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1   # every workload
    python3 bench/run.py --write-spec                        # (re)write BENCHMARK.json

Load model: a batch tool driven by one client in a closed loop.  Each run
starts fresh worker interpreters (`bench/worker.py`, with the checkout's
`src` first on `sys.path`) that call `usvt.cli.main(argv)` op after op.
This process makes every op's inputs from the seed before the op and
checks its outputs after it, while the worker is idle, so neither is timed.
BLAS threads are left at the machine default and recorded.

`--trace 0` measures the end-to-end metrics: set-up (worker start, import
and one warm-up op on a small input of the same shape family; the median of
several fresh workers), then ops until `--seconds` of op time is spent.
`--trace 1` runs each op in a plain worker and then in a worker whose
layers are wrapped by `bench/tracer.py`, until `--seconds` of op time is
spent, and reports the per-layer metrics of `bench/layers.py` plus the
tracing overhead.  Spans and
a results file with the environment go to `bench/out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUPS = 5
SOURCE, WARM = 2**31, 2**31 + 1  # substreams of the run's inputs, beyond any op index
OP_TIMEOUT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 25,
    "workloads": [
        {"name": "denoise-kept0",
         "why": "usvt denoise, sigma estimated, 600x1200 paper-spectrum files with kept_rank 0: "
                "read and spectral layers dominate and the SVD's vectors are discarded"},
        {"name": "denoise-lowrank",
         "why": "same command on tall 1200x600 files with kept_rank 16: transpose path, "
                "the vectors are used and the full-precision write is a large share"},
        {"name": "simulate-fig1",
         "why": "usvt simulate --preset paper-fig1 --reps 1: the Monte Carlo study, "
                "Haar draws and SVDs, no matrix-file I/O"},
    ],
    "end_to_end": [
        {"name": "entries_per_s", "unit": "entries/s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout; no result is printed."""


def environment() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    import scipy
    import usvt
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "usvt_file": usvt.__file__,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def require_checkout_usvt(path: str) -> None:
    """Abort unless `usvt` was imported from this checkout's `src`, so an
    installed copy is never measured."""
    if SRC.resolve() not in Path(path).resolve().parents:
        raise BenchError(f"usvt imported from {path}, not from {SRC}")


class Worker:
    """A fresh interpreter running bench/worker.py; see its protocol."""

    def __init__(self, trace: bool = False, spans_path: Path | None = None):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(SRC), str(int(trace)),
             str(spans_path or os.devnull)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            require_checkout_usvt(self._receive()["usvt_file"])
        except BaseException:
            self.__exit__()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()

    def _receive(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], OP_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("worker died or timed out (see its stderr above)")
        return json.loads(line)

    def run(self, op_id, argv) -> dict:
        self.proc.stdin.write(json.dumps({"op": op_id, "argv": argv}) + "\n")
        self.proc.stdin.flush()
        return self._receive()

    def close(self) -> float:
        """End the worker and return its peak RSS in MiB."""
        self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        return usage.ru_maxrss / 1024.0  # KiB on Linux


class Loop:
    """Makes, runs and checks the ops of one workload; counts the ops
    attempted and those that failed (exit code or output check)."""

    def __init__(self, name: str, seed: int, workdir: str):
        from workloads import WORKLOADS, op_rng

        self.name, self.workdir = name, workdir
        self.workload = WORKLOADS[name]
        index = list(WORKLOADS).index(name)
        self.rng = lambda k: op_rng(seed, index, k)
        self.source = self.workload.source(self.rng(SOURCE))
        self.warm_op = self.workload.source(self.rng(WARM), warm=True).make(
            self.rng(WARM + 1), workdir, "warm")
        self.attempted, self.failed = set(), set()

    @contextlib.contextmanager
    def worker(self, setups=None, **kwargs):
        """A fresh worker after its untimed warm-up op; appends the set-up
        time (start, import, warm-up) to `setups` if given."""
        t0 = time.perf_counter()
        with Worker(**kwargs) as worker:
            reply = worker.run("setup", self.warm_op.argv)
            if reply["rc"] != 0:
                raise BenchError(f"warm-up op exited with {reply['rc']}")
            if setups is not None:
                setups.append(time.perf_counter() - t0)
            yield worker

    def run_op(self, worker: Worker, k: int, tag: str):
        """Run op k, check it and remove its input; return (seconds, op)."""
        op = self.source.make(self.rng(k), self.workdir, tag)
        reply = worker.run(k, op.argv)
        errors = [f"exit code {reply['rc']}"] if reply["rc"] != 0 else self.source.check(op)
        self.record(k, errors)
        remove(op.inputs)
        return reply["seconds"], op

    def record(self, k: int, errors: list) -> None:
        self.attempted.add(k)
        if errors:
            self.failed.add(k)
            for e in errors:
                print(f"{self.name} op {k} FAILED: {e}", file=sys.stderr)

    def same_bytes(self, k: int, first, second) -> None:
        """Two calls with the same seed must write byte-identical files."""
        self.record(k, [f"{a} and {b} differ" for a, b in zip(first.outputs, second.outputs)
                        if not (os.path.exists(a) and os.path.exists(b)
                                and Path(a).read_bytes() == Path(b).read_bytes())])
        remove(first.outputs + second.outputs)


def remove(paths) -> None:
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def run_untraced(loop: Loop, seconds: float) -> dict:
    setups = []
    for _ in range(SETUPS - 1):
        with loop.worker(setups) as worker:
            worker.close()
    latencies = []
    with loop.worker(setups) as worker:
        while sum(latencies) < seconds:
            k = len(latencies)
            t, op = loop.run_op(worker, k, f"op{k}")
            latencies.append(t)
            if k == 0:
                first = op
            else:
                remove(op.outputs)
        if loop.source.rerun_identical:
            loop.same_bytes(0, first, loop.run_op(worker, 0, "op0-again")[1])
        remove(first.outputs)
        peak = worker.close()
    return {"setups": setups, "latencies": latencies, "peak_rss_mb": peak}


def run_traced(loop: Loop, seconds: float, spans_path: Path) -> dict:
    """Each op runs first in a plain worker, then in a traced one, until
    `seconds` of op time is spent; alternating keeps machine drift out of
    the tracing overhead."""
    from layers import analyse

    plain, traced = [], {}
    with loop.worker() as plain_worker, \
            loop.worker(trace=True, spans_path=spans_path) as traced_worker:
        while sum(plain) + sum(traced.values()) < seconds:
            k = len(plain)
            t, first = loop.run_op(plain_worker, k, f"plain{k}")
            plain.append(t)
            traced[k], op = loop.run_op(traced_worker, k, f"op{k}")
            if loop.source.rerun_identical:
                loop.same_bytes(k, first, op)
            remove(first.outputs + op.outputs)
        plain_worker.close()
        traced_worker.close()
    spans = json.loads(spans_path.read_text())
    metrics = analyse(spans, traced)
    metrics["trace_overhead_ratio"] = sum(traced.values()) / sum(plain)
    return {"metrics": metrics, "plain": plain, "traced": list(traced.values()),
            "spans_file": str(spans_path.relative_to(ROOT)), "spans": len(spans)}


def tail(latencies: list) -> tuple:
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value); None below 20 samples, where that percentile would
    fall under the median."""
    n = len(latencies)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def end_to_end(workload, raw: dict) -> tuple[dict, list]:
    lat = raw["latencies"]
    ops = len(lat)
    entries = workload.entries_per_op() * ops
    metrics = {
        "entries_per_s": entries / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(raw["setups"]),
    }
    lines = [
        ("entries_per_s", "entries/s", f"n={ops} ops, {workload.describe()}"),
        ("latency_p50_s", "s", f"median of n={ops} ops"),
        ("peak_rss_mb", "MiB", "max RSS of the measuring worker"),
        ("setup_s", "s", f"median of n={SETUPS} fresh workers: start, import usvt.cli, warm-up op"),
    ]
    t = tail(lat)
    if t is None:
        lines.append(("latency_tail_s", "s", f"undefined: n={ops} ops, a tail needs at least 20"))
    else:
        metrics["latency_tail_s"] = t[1]
        lines.append(("latency_tail_s", "s", f"p{t[0]:.0f} of n={ops} ops"))
    if workload.cells_per_op():
        metrics["cells_per_s"] = workload.cells_per_op() * ops / sum(lat)
        lines.append(("cells_per_s", "cells/s", f"n={ops} ops of {workload.cells_per_op()} cells"))
    return metrics, lines


def run_one(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="ops-", dir=OUT)
    try:
        loop = Loop(name, seed, workdir)
        if trace:
            raw = run_traced(loop, seconds, OUT / f"{name}-seed{seed}-spans.json")
            reported = raw["metrics"]
            from layers import METRICS
            lines = [(n, u, d) for n, u, _, d in METRICS]
        else:
            raw = run_untraced(loop, seconds)
            reported, lines = end_to_end(loop.workload, raw)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = len(loop.attempted), len(loop.failed)
    failed_ratio = failed / attempted
    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    for metric, unit, note in lines:
        print(f"  {metric:34s} {reported[metric]:>14.6g} {unit:10s} {note}"
              if metric in reported else f"  {metric:34s} {'-':>14s} {unit:10s} {note}")
    print(f"  {'failed_op_ratio':34s} {failed_ratio:>14.6g} {'ratio':10s} "
          f"{failed}/{attempted} ops failed a check or exited non-zero")
    if trace:
        print_layer_table(raw["metrics"], raw)
    keys = SPEC["end_to_end"] if not trace else per_layer_spec()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": reported[m["name"]], "unit": m["unit"]} for m in keys},
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds, "environment": env,
         "all_metrics": reported, "failed_op_ratio": failed_ratio,
         "raw": {k: v for k, v in raw.items() if k != "metrics"}, "result": result},
        indent=1))
    return result


def per_layer_spec() -> list:
    from layers import METRICS
    return [{"name": n, "unit": u, "better": b} for n, u, b, _ in METRICS]


def print_layer_table(m: dict, raw: dict) -> None:
    from tracer import LAYERS
    op_time = sum(raw["traced"]) / len(raw["traced"])
    print(f"  self time per op by layer (traced op wall {op_time:.4f} s, "
          f"n={len(raw['traced'])} ops, {raw['spans']} spans in {raw['spans_file']}):")
    for layer in LAYERS:
        s = m[f"{layer}.self_s"]
        print(f"    {layer:12s} {s:10.4f} s  {100 * s / op_time:5.1f} %")
    print(f"    {'covered':12s} {m['layer_coverage_ratio'] * op_time:10.4f} s  "
          f"{100 * m['layer_coverage_ratio']:5.1f} %   tracing overhead x{m['trace_overhead_ratio']:.3f}")
    if m["simulate.run_cell_s"]:
        print(f"    haar_orthogonal share of run_cell: "
              f"{100 * m['simulate.haar_orthogonal_s'] / m['simulate.run_cell_s']:.1f} %")
    if m["layer_coverage_ratio"] < 0.9:
        print("  WARNING: layer self times cover less than 90% of op time", file=sys.stderr)


def write_spec() -> None:
    spec = dict(SPEC, per_layer=per_layer_spec())
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        if not (SRC / "usvt" / "__init__.py").is_file():
            raise BenchError(f"no usvt package under {SRC}")
        sys.path.insert(0, str(SRC))
        env = environment()
        require_checkout_usvt(env["usvt_file"])
        print("environment: " + json.dumps(env))
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as scratch:
            from workloads import self_test
            escaped = self_test(scratch)
        if escaped:
            raise BenchError("output checks failed their self-test: " + "; ".join(escaped))
        print("self-test: the checks reject a perturbed denoised file, a wrong kept_rank, "
              "a NaN report and non-finite or wrong CSV rows")
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_one(n, args.seed, args.seconds, bool(args.trace), env) for n in names}
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
