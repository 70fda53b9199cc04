"""Command-line surface and file formats.

Matrix files are plain text: one row per line, comma-separated decimal
entries, no header.  Floats in all emitted files use the shortest
round-trip rendering (at most 17 significant digits) so outputs are
byte-stable.  Data goes to stdout, diagnostics to stderr; exit codes are
0 on success, 2 for usage errors, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .estimators import DEFAULT_ETA, _check_eta, _check_sigma, estimate_sigma, usvt_denoise
from .mp_law import MPLaw
from .simulate import (
    NOISE_KINDS,
    PRESETS,
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    SummaryRow,
    aggregate,
    preset_config,
    run_experiment,
)
from .spectral import SvdConvergenceError, singular_values


def _list_of(kind, noun: str):
    """argparse type: a comma-separated list of `kind` values, as a tuple."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(f) for f in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {noun} list: {text!r}") from None

    return parse


# ExperimentConfig field -> the `usvt simulate` flag that sets it and the
# flag's argparse options.  The flag's name is also its argparse dest.
_CONFIG_FLAGS = {
    "m": ("--m", dict(type=int, help="signal rows")),
    "n": ("--n", dict(type=int, help="signal columns")),
    "ranks": ("--ranks", dict(type=_list_of(int, "integer"),
                              help="comma-separated signal ranks")),
    "sigmas": ("--sigmas", dict(type=_list_of(float, "number"),
                                help="comma-separated noise levels")),
    "replications": ("--reps", dict(type=int, help="replications per (rank, sigma) cell")),
    "eta": ("--eta", dict(type=float, help="threshold margin in (0, 1]")),
    "noise_kind": ("--noise", dict(choices=NOISE_KINDS, help="noise distribution")),
    "seed": ("--seed", dict(type=int, help="base seed")),
}


class UsageError(Exception):
    """Bad flag values; maps to exit code 2."""


class MatrixFileError(ValueError):
    """Malformed matrix file; message carries the offending line number."""


def format_float(value: float) -> str:
    """Shortest decimal rendering that round-trips, <= 17 significant digits."""
    return repr(float(value))


def read_matrix(path) -> np.ndarray:
    """Parse a matrix file into a finite 2-d float64 array.

    The whole file is parsed in C by `np.loadtxt`.  Any file it rejects or
    could read differently (a skipped blank line, a non-finite entry, no
    data) is re-read by `_scan_matrix`, the line-by-line reference parser,
    which decides acceptance and names the offending line and field.
    """
    lines = 0

    def counted(fh):
        nonlocal lines
        for line in fh:
            lines += 1
            yield line

    try:
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            # "input contained no data": the scan reports an empty file.
            warnings.simplefilter("ignore", UserWarning)
            a = np.loadtxt(counted(fh), delimiter=",", comments=None, ndmin=2,
                           dtype=np.float64)
    except (OSError, ValueError):
        return _scan_matrix(path)
    if a.size and a.shape[0] == lines and np.isfinite(a).all():
        return a
    return _scan_matrix(path)


def _scan_matrix(path) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise MatrixFileError(f"{path}: cannot read: {exc.strerror}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.strip().split(",")
            if fields == [""]:
                raise MatrixFileError(f"{path}: line {lineno}: blank line")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise MatrixFileError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(fields)}")
            row = []
            for col, field in enumerate(fields, start=1):
                try:
                    value = float(field)
                except ValueError:
                    raise MatrixFileError(
                        f"{path}: line {lineno}: field {col}: "
                        f"not a number: {field!r}") from None
                if not np.isfinite(value):
                    raise MatrixFileError(
                        f"{path}: line {lineno}: field {col}: non-finite value")
                row.append(value)
            rows.append(row)
    if not rows:
        raise MatrixFileError(f"{path}: empty matrix file")
    return np.array(rows, dtype=np.float64)


# A matrix of at least this many entries is rendered on every usable CPU.
# Starting a helper interpreter costs about 11 ms, which rendering about
# 33k entries repays; below this, one process renders the whole matrix.
HELPER_MIN_ENTRIES = 2**17

# The helper: reads float64 rows of sys.argv[1] entries from stdin and
# writes them to stdout as `_write_rows` renders them.  It imports neither
# numpy nor usvt; run by the same interpreter, its repr is the same.
_HELPER = """\
import array, sys
ncols = int(sys.argv[1])
values = array.array("d", sys.stdin.buffer.read())
with open(sys.stdout.fileno(), "w", encoding="utf-8", newline="", closefd=False) as out:
    for i in range(0, len(values), ncols):
        out.write(",".join(map(repr, values[i:i + ncols])))
        out.write("\\n")
"""


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def write_matrix(path, matrix: np.ndarray) -> None:
    """Write a matrix file: each row on one line, each entry in
    format_float's rendering.

    The bytes are always those of rendering the rows one by one, in order.
    An all-+0.0 matrix (a kept-0 denoise) is one rendered row repeated.  A
    matrix of at least HELPER_MIN_ENTRIES entries is cut into contiguous
    row blocks, one per usable CPU: this process renders the first block
    while helper interpreters (`sys.executable -I -S`, no numpy) render the
    others from their raw float64 bytes into temporary files, which are
    then appended in order.  A block whose helper cannot start or does not
    exit 0 is rendered here instead.
    """
    a = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if a.size and not a.any() and not np.signbit(a).any():
            # every entry is +0.0 (a kept-0 denoise): all rows render alike
            line = ",".join(map(repr, a[0].tolist())) + "\n"
            for _ in range(len(a)):
                fh.write(line)
            return
        parts = min(_usable_cpus(), len(a)) if a.size >= HELPER_MIN_ENTRIES else 1
        first, *rest = np.array_split(a, parts)
        helpers = []
        try:
            for block in rest:
                helpers.append(_start_helper(block))
            _write_rows(fh, first)
            for block, helper in zip(rest, helpers):
                if helper is not None and helper[0].wait() == 0:
                    helper[1].seek(0)
                    fh.flush()
                    shutil.copyfileobj(helper[1], fh.buffer)
                else:
                    _write_rows(fh, block)
        finally:
            for proc, out in filter(None, helpers):
                proc.kill()  # a no-op once it has exited
                proc.wait()
                out.close()


def _write_rows(fh, rows: np.ndarray) -> None:
    for row in rows:
        # repr of a Python float is format_float's rendering; one row at a
        # time keeps the boxed floats small next to the matrix.
        fh.write(",".join(map(repr, row.tolist())))
        fh.write("\n")


def _start_helper(block: np.ndarray):
    """(process, output file) of a helper rendering `block`, or None when
    it cannot be started."""
    import subprocess  # a few ms of start-up that only large writes need

    if not sys.executable:
        return None
    try:
        with tempfile.TemporaryFile() as src:
            np.ascontiguousarray(block).tofile(src)
            src.seek(0)
            out = tempfile.TemporaryFile()
            try:
                proc = subprocess.Popen(
                    [sys.executable, "-I", "-S", "-c", _HELPER, str(block.shape[1])],
                    stdin=src, stdout=out, stderr=subprocess.DEVNULL)
            except BaseException:
                out.close()
                raise
    except OSError:
        return None
    return proc, out


def _write_csv(path, cls, rows) -> None:
    """CSV of dataclass `cls` rows: a header of its field names, then one
    line per row, floats by format_float and ints by str."""
    names = [f.name for f in dataclasses.fields(cls)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            values = (getattr(row, name) for name in names)
            fh.write(",".join(format_float(v) if isinstance(v, float) else str(v)
                              for v in values) + "\n")


def write_results(path, records) -> None:
    _write_csv(path, ExperimentRecord, records)


def write_summary(path, rows) -> None:
    _write_csv(path, SummaryRow, rows)


def write_report(path, report) -> None:
    # Rendered before the file is opened: a non-finite field raises here
    # instead of leaving a truncated or non-JSON report behind.
    _write_text(path, json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n")


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_all(*writes) -> None:
    """Run each (writer, path, data) in turn.  If one raises, the regular
    files the earlier ones wrote are removed, so a failed command leaves no
    output.  Each path is resolved before it is written: what is removed is
    the file a symlink named, never the link, a device or a pipe."""
    written = []
    try:
        for write, path, data in writes:
            target = Path(os.path.realpath(path))
            write(path, data)
            written.append(target)
    except BaseException:
        for target in written:
            if target.is_file():
                target.unlink(missing_ok=True)
        raise


def _check_distinct(*outputs) -> None:
    """Usage error when two (flag, path) outputs name the same file, whose
    later write would replace the earlier one's data.  A path of None is a
    flag not given."""
    outputs = [(flag, path) for flag, path in outputs if path is not None]
    for i, (flag, path) in enumerate(outputs):
        for other_flag, other in outputs[:i]:
            try:
                same = os.path.samefile(path, other)
            except OSError:  # one of them does not exist yet
                same = os.path.realpath(path) == os.path.realpath(other)
            if same:
                raise UsageError(f"{other_flag} and {flag} name the same file: {path}")


def plot_script(summary_path: str, ranks, image_name: str) -> str:
    """Self-contained gnuplot script: two panels over the summary CSV,
    one curve per rank (noise-level MSE left, matrix MSE right)."""

    def quoted(text: str) -> str:
        # gnuplot writes a quote inside a single-quoted string as ''
        return "'" + text.replace("'", "''") + "'"

    def panel(column: int) -> str:
        series = [
            f"{quoted(summary_path)} skip 1 using 2:($1=={r}?${column}:1/0) "
            f"with linespoints title 'r={r}'"
            for r in ranks
        ]
        return "plot " + ", \\\n     ".join(series)

    lines = [
        "# Render with:  gnuplot <this file>",
        f"# Reads: {summary_path}",
        "set datafile separator ','",
        "set terminal pngcairo size 1100,450",
        f"set output {quoted(image_name)}",
        "set multiplot layout 1,2",
        "set key top left",
        "set xlabel 'sigma'",
        "set title 'MSE of the noise-level estimate'",
        "set ylabel 'mean squared error'",
        panel(3),
        "set title 'MSE of the denoised matrix'",
        panel(4),
        "unset multiplot",
    ]
    return "\n".join(lines) + "\n"


def _checked(flag: str, check, value):
    """check(value), with its ValueError turned into a usage error naming flag."""
    try:
        return check(value)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _cmd_mp_quantile(args) -> int:
    law = _checked("--gamma", MPLaw, args.gamma)
    try:
        value = _checked("--p", law.quantile, args.p)
    except RuntimeError as exc:
        # a valid level whose quantile the bisection cannot certify (at
        # gamma below about 1e-9): a runtime failure, not a usage error
        raise ValueError(f"--gamma {args.gamma!r}: {exc}") from exc
    print(format_float(value))
    return 0


def _cmd_estimate_sigma(args) -> int:
    matrix = read_matrix(args.input)
    print(format_float(estimate_sigma(matrix)))
    return 0


def _cmd_spectrum(args) -> int:
    for value in singular_values(read_matrix(args.input)):
        print(format_float(value))
    return 0


def _cmd_denoise(args) -> int:
    _check_distinct(("--output", args.output), ("--report", args.report))
    _checked("--eta", _check_eta, args.eta)
    if args.sigma is not None:
        _checked("--sigma", _check_sigma, args.sigma)
    denoised, report = usvt_denoise(read_matrix(args.input), args.sigma, args.eta)
    _write_all((write_matrix, args.output, denoised), (write_report, args.report, report))
    return 0


def _simulate_config(args) -> ExperimentConfig:
    # Only the flags given reach the config; every default is the
    # preset's or ExperimentConfig's own.
    fields = {field: value for field, (flag, _) in _CONFIG_FLAGS.items()
              if (value := getattr(args, flag[2:])) is not None}
    try:
        if args.preset is not None:
            return preset_config(args.preset, **fields)
        missing = [_CONFIG_FLAGS[f][0] for f in ("m", "n", "ranks", "sigmas")
                   if f not in fields]
        if missing:
            raise UsageError(
                f"without --preset, {', '.join(missing)} are required")
        return ExperimentConfig(**fields)
    except ConfigError as exc:
        raise UsageError(f"{_CONFIG_FLAGS[exc.field][0]}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_simulate(args) -> int:
    _check_distinct(("--out", args.out), ("--summary", args.summary), ("--plot", args.plot))
    config = _simulate_config(args)
    records = run_experiment(config)
    writes = [(write_results, args.out, records),
              (write_summary, args.summary, aggregate(records))]
    if args.plot is not None:
        image = Path(args.plot).stem + ".png"
        writes.append((_write_text, args.plot, plot_script(str(args.summary), config.ranks, image)))
    _write_all(*writes)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usvt",
        description="Noise-level estimation and singular value thresholding "
                    "for dense matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mp-quantile",
                       help="Marchenko-Pastur quantile for aspect ratio gamma")
    p.add_argument("--gamma", type=float, required=True,
                   help="aspect ratio in (0, 1]")
    p.add_argument("--p", type=float, required=True,
                   help="quantile level in [0, 1]")
    p.set_defaults(func=_cmd_mp_quantile)

    p = sub.add_parser("estimate-sigma",
                       help="estimate the noise level of a matrix file")
    p.add_argument("--input", required=True, help="matrix file to read")
    p.set_defaults(func=_cmd_estimate_sigma)

    p = sub.add_parser("spectrum",
                       help="print singular values, one per line, descending")
    p.add_argument("--input", required=True, help="matrix file to read")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("denoise",
                       help="threshold the SVD of a matrix file")
    p.add_argument("--input", required=True, help="matrix file to read")
    p.add_argument("--eta", type=float, default=DEFAULT_ETA,
                   help="threshold margin in (0, 1] (default %(default)s)")
    p.add_argument("--sigma", type=float, default=None,
                   help="known noise level; omit to estimate it from the input")
    p.add_argument("--output", required=True, help="denoised matrix file to write")
    p.add_argument("--report", required=True, help="JSON run report to write")
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("simulate",
                       help="run a seeded Monte Carlo study and write CSVs")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="named study configuration")
    for flag, options in _CONFIG_FLAGS.values():
        p.add_argument(flag, **options)
    p.add_argument("--out", required=True, help="per-replication CSV to write")
    p.add_argument("--summary", required=True, help="per-cell summary CSV to write")
    p.add_argument("--plot", default=None,
                   help="optional gnuplot script to write")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reported usage or --help already
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usvt: error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, SvdConvergenceError) as exc:
        print(f"usvt: error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
