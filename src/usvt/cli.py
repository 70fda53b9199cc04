"""Command-line surface and file formats.

Matrix files are plain text: one row per line, comma-separated decimal
entries, no header.  Floats in all emitted files use the shortest
round-trip rendering (at most 17 significant digits) so outputs are
byte-stable.  Data goes to stdout, diagnostics to stderr; exit codes are
0 on success, 2 for usage errors, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import shutil
import stat
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import _helper
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

    The file is opened once and parsed in C by `np.loadtxt`.  A regular
    file of at least SPLIT_MIN_BYTES, with more than one usable CPU, is cut
    just after the first newline past SPLIT_AT of its bytes (a newline
    byte always ends a line): this process parses the head while a helper
    interpreter runs `_helper.parse` on the tail, read from the descriptor
    this process opened.  A helper that does not deliver (it cannot start,
    fails, or returns no rows or rows of another width) has its tail parsed
    here too.  Other files are read whole.  Bytes `np.loadtxt` rejects or
    could read differently (a skipped blank line, a non-finite entry, no
    data, a U+001C-U+001F separator, halves of different widths) go to
    `_scan_matrix`, which decides acceptance and names the bad field.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise MatrixFileError(f"{path}: cannot read: {exc.strerror}") from exc
    with fh, warnings.catch_warnings():
        # "input contained no data": the scan reports an empty file.
        warnings.simplefilter("ignore", UserWarning)
        cut, helper, rest = _split_point(fh), None, b""
        try:
            if cut is not None:
                helper = _start_helper("read", fh.fileno(), cut, pass_fds=(fh.fileno(),))
            data = fh.read(cut)
            a = _load_rows(data)
            if a is not None and cut is not None:
                tail = _tail_rows(helper, a.shape[1])
                if tail is None:
                    rest = fh.read()
                    tail = _load_rows(rest)
                a = None if tail is None else np.concatenate((a, tail))
        except ValueError:
            a = None
        finally:
            _stop_helpers([helper])
        if a is not None and np.isfinite(a).all():
            return a
        return _scan_matrix(path, data + rest + fh.read())


def _load_rows(data: bytes):
    """`np.loadtxt` of the text file `data`, or None when it read no data
    or fewer rows than there are lines (it skips blank ones).  A line
    holding U+001C-U+001F, which `np.loadtxt` reads as space and float()
    rejects, raises a ValueError."""
    lines = 0

    def counted():
        nonlocal lines
        for line in io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"):
            if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
                raise ValueError("a separator character: the scan decides")
            lines += 1
            yield line

    a = np.loadtxt(counted(), delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    return a if a.size and a.shape[0] == lines else None


def _scan_matrix(path, data: bytes) -> np.ndarray:
    """The matrix in the bytes `data` read from `path`, by `_helper.parse`;
    a MatrixFileError names the path and the first bad line and field."""
    try:
        width, values = _helper.parse(data)
    except ValueError as exc:
        raise MatrixFileError(f"{path}: {exc}") from None
    return np.frombuffer(values, dtype=np.float64).reshape(-1, width)


# A matrix of at least this many entries is rendered on every usable CPU.
# Starting a helper interpreter costs about 11 ms, which rendering about
# 33k entries repays; below this, one process renders the whole matrix.
HELPER_MIN_ENTRIES = 2**17
# A regular file of at least this many bytes is read on two CPUs, cut just
# after the first newline past SPLIT_AT of its bytes.  On a 2-CPU host a
# split read of a square matrix broke even with the serial one at about
# 2.4 MB, where the helper's start-up and the join cost what the split
# saves.  At SPLIT_AT the helper, which also pays its start-up, finished
# its 40 % of a 600 x 1200 file within about 0.04 s of this process's 60 %.
SPLIT_MIN_BYTES = 3 * 2**20
SPLIT_AT = 0.6


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split_point(fh):
    """The byte offset at which `read_matrix` cuts the binary file `fh`, or
    None to read it whole.  Leaves `fh` at its start."""
    info = os.fstat(fh.fileno())
    if not (stat.S_ISREG(info.st_mode) and info.st_size >= SPLIT_MIN_BYTES
            and _usable_cpus() > 1 and hasattr(os, "pread")):
        return None
    fh.seek(int(info.st_size * SPLIT_AT))
    fh.readline()
    cut = fh.tell()
    fh.seek(0)
    return cut if cut < info.st_size else None


def _tail_rows(helper, width: int):
    """The rows the tail reader `helper` delivered, or None when it did not:
    it was not started, did not exit 0, or returned no rows or rows not
    `width` wide."""
    out = _helper_output(helper)
    if out is None:
        return None
    data = out.read()
    rows = int.from_bytes(data[:8], "little")
    tail = np.frombuffer(data, dtype=np.float64, offset=8)
    return tail.reshape(rows, width) if rows and tail.size == rows * width else None


def write_matrix(path, matrix: np.ndarray) -> None:
    """Write a matrix file: each row on one line, as `_helper.line`
    renders it.

    The bytes are always those of rendering the rows one by one, in order.
    An all-+0.0 matrix (a kept-0 denoise) is one rendered row repeated.  A
    matrix of at least HELPER_MIN_ENTRIES entries is cut into contiguous
    row blocks, one per usable CPU: this process renders the first block
    while helper interpreters (`_helper.render`) render the others from
    their raw float64 bytes into temporary files, which are then appended
    in order.  A block whose helper cannot start or does not exit 0 is
    rendered here instead.
    """
    a = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if a.size and not a.any() and not np.signbit(a).any():
            # every entry is +0.0 (a kept-0 denoise): all rows render alike
            line = _helper.line(a[0].tolist())
            for _ in range(len(a)):
                fh.write(line)
            return
        parts = min(_usable_cpus(), len(a)) if a.size >= HELPER_MIN_ENTRIES else 1
        first, *rest = np.array_split(a, parts)
        helpers = []
        try:
            for block in rest:
                helpers.append(_start_helper("render", block.shape[1], stdin=block))
            for block, helper in zip((first, *rest), (None, *helpers)):
                out = _helper_output(helper)
                if out is None:
                    # one row at a time keeps the boxed floats small next to the matrix
                    fh.writelines(_helper.line(row.tolist()) for row in block)
                else:
                    fh.flush()
                    shutil.copyfileobj(out, fh.buffer)
        finally:
            _stop_helpers(helpers)


def _start_helper(job: str, *args: int, stdin: np.ndarray | None = None,
                  pass_fds: tuple[int, ...] = ()):
    """(process, output file) of a helper interpreter running `_helper`'s
    `job` with `args`, or None when it cannot be started.  Its stdin holds
    the raw float64 bytes of `stdin` (devnull if None), its stdout goes to
    the temporary output file, its stderr to devnull, and it inherits the
    descriptors in `pass_fds`."""
    import subprocess  # a few ms of start-up that only large reads and writes need

    if not sys.executable:
        return None
    try:
        with (contextlib.nullcontext(subprocess.DEVNULL) if stdin is None
              else tempfile.TemporaryFile()) as src:
            if stdin is not None:
                np.ascontiguousarray(stdin).tofile(src)
                src.seek(0)
            out = tempfile.TemporaryFile()
            try:
                proc = subprocess.Popen(
                    [sys.executable, "-I", "-S", _helper.__file__, job, *map(str, args)],
                    stdin=src, stdout=out, stderr=subprocess.DEVNULL, pass_fds=pass_fds)
            except BaseException:
                out.close()
                raise
    except OSError:
        return None
    return proc, out


def _helper_output(helper):
    """The rewound output file of a started helper that exited 0, else None."""
    if helper is None or helper[0].wait() != 0:
        return None
    helper[1].seek(0)
    return helper[1]


def _stop_helpers(helpers) -> None:
    """Kill, reap and close every started helper in `helpers`."""
    for proc, out in filter(None, helpers):
        proc.kill()  # a no-op once it has exited
        proc.wait()
        out.close()


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
    _write_text(path, json.dumps(dataclasses.asdict(report), indent=2, allow_nan=False) + "\n")


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_all(*writes) -> None:
    """Run each (writer, path, data) in turn, its output held open meanwhile.
    If one raises, the regular files opened so far are removed, its own
    partial file too, so a failed command leaves no output; a file that
    could not be opened is kept.  Each path is resolved first: what is
    removed is the file a symlink named, never the link, a device or a pipe."""
    written = []
    try:
        for write, path, data in writes:
            target = Path(os.path.realpath(path))
            with open(path, "wb"):  # from here on the file is this command's
                written.append(target)
                write(path, data)
    except BaseException:
        for target in written:
            if target.is_file():
                target.unlink(missing_ok=True)
        raise


def _check_distinct(*outputs) -> None:
    """Usage error when two (flag, path) outputs name the same regular file,
    or one not made yet, whose later write would replace the earlier one's
    data; a device or a pipe may take both.  A path of None is a flag not given."""
    outputs = [(flag, path) for flag, path in outputs if path is not None]
    for i, (flag, path) in enumerate(outputs):
        for other_flag, other in outputs[:i]:
            try:
                same = os.path.samefile(path, other) and os.path.isfile(path)
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
