"""Command-line surface and file formats.

Matrix files are plain text: one row per line, comma-separated decimal
entries, no header.  Floats in all emitted files use the shortest
round-trip rendering (at most 17 significant digits) so outputs are
byte-stable.  Data goes to stdout, diagnostics to stderr; exit codes are
0 on success, 2 for usage errors, 1 for runtime failures.

`_helper.parse` is the one matrix-file parser and `_helper.line` the one
row renderer.  A large file is read, and a large matrix written, by one
part rule (`_cuts`) and one gather loop (`_in_parts`): this process does
the first part, helpers on byte ranges of an open file the others.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import shutil
import stat
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import _helper, _host
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

    The file is opened once.  A regular file is cut into parts, each just
    after a newline, one per usable CPU but none under SPLIT_MIN_BYTES // 2
    (`_cuts`): this process parses the first part and helpers the others
    (`_in_parts`, `_helper.read`); a part whose helper does not deliver is
    parsed here (`_read_parts`).  A file in one part, and any other file, is
    one parse of the bytes read (`_scan_matrix`).  A MatrixFileError names
    the file's own bad line and field, from the one parse that meets it.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise MatrixFileError(f"{path}: cannot read: {exc.strerror}") from exc
    with fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            cuts = _cuts(info.st_size, SPLIT_MIN_BYTES // 2,
                         lambda at: fh.seek(at) + len(fh.readline()))  # just after a newline
            fh.seek(0)
            if len(cuts) > 2:
                try:
                    return _read_parts(fh.fileno(), cuts)
                except ValueError as exc:
                    raise MatrixFileError(f"{path}: {exc}") from None
        return _scan_matrix(path, fh.read())


def _scan_matrix(path, data: bytes) -> np.ndarray:
    """The matrix in the bytes `data` read from `path`, by `_helper.parse`;
    a MatrixFileError names the path and the first bad line and field."""
    try:
        width, values = _helper.parse(data)
    except ValueError as exc:
        raise MatrixFileError(f"{path}: {exc}") from None
    return np.frombuffer(values, dtype=np.float64).reshape(-1, width)


# A matrix of at least this many entries is rendered in parts, one per
# usable CPU but no more than rows.  A helper start (about 18 ms) is repaid
# by about 22k entries (0.8 us each); only 2-CPU hosts have timed the write,
# so a part has no larger floor.  Below this, one process renders it all.
HELPER_MIN_ENTRIES = 2**17
# A regular file of at least this many bytes is read in parts, one per
# usable CPU but none under half this size.  On a 2-CPU host a two-part
# read of a square %.17g matrix broke even with the serial parse between
# 4.0 and 6.0 MB in three of four runs (3.0 and 3.5 MB in the fourth): the
# helper's start-up and the parsers' contention for the host's cores cost
# what the split saves.  At 14.5 MB it took 0.53 of the serial time.
SPLIT_MIN_BYTES = 4 * 2**20


def _cuts(size: int, least: int, boundary) -> list[int]:
    """The offsets, from 0 to `size`, that cut `size` units into k parts: k
    is the number of usable CPUs, or fewer so that no part is under
    `least`, or 1 without os.pread, by which helpers read.  Cut i falls at
    `boundary(size * i // k)`, the first place at or past it where a part
    may end; cuts that coincide, or fall at the end, merge, so no part is
    empty."""
    parts = max(1, min(_host.usable_cpus() if hasattr(os, "pread") else 1, size // least))
    inner = (boundary(size * i // parts) for i in range(1, parts))
    return [0, *dict.fromkeys(cut for cut in inner if cut < size), size]


@contextlib.contextmanager
def _in_parts(job: str, fd: int, cuts, *args: int):
    """Start a helper on `_helper`'s `job` for each part after the first
    that `cuts` makes of the file open at `fd`, and yield an iterator of
    (start, end, out) over all parts, in order: `out` is the rewound output
    of the part's helper, waited for when its part is reached, if it exited
    0, else None.  On exit every helper is killed, reaped and closed."""
    parts = list(zip(cuts, cuts[1:]))
    helpers = []
    try:
        for start, end in parts[1:]:
            helpers.append(_start_helper(job, fd, start, end, *args))
        yield ((start, end, _helper_output(helper))
               for (start, end), helper in zip(parts, (None, *helpers)))
    finally:
        for proc, out in filter(None, helpers):
            proc.kill()  # a no-op once it has exited
            proc.wait()
            out.close()


def _start_helper(job: str, fd: int, *args: int):
    """(process, output file) of a helper interpreter running `_helper`'s
    `job` with `args` on the file open at `fd`, which it inherits, or None
    when it cannot start.  Its stdout is the file, stdin and stderr devnull."""
    import subprocess  # a few ms of start-up that only large reads and writes need

    if not sys.executable:
        return None
    try:
        out = tempfile.TemporaryFile()
        try:
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", _helper.__file__, job, *map(str, (fd, *args))],
                stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.DEVNULL,
                pass_fds=(fd,))
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


def _read_parts(fd: int, cuts) -> np.ndarray:
    """The matrix in the file open at `fd`, cut at the byte offsets `cuts`: a
    helper delivers its part's row count (8 bytes, little-endian) and rows
    as wide as the first part's, or the part is parsed here, at that width
    and from the line after the rows before it.  So a bad part raises, where
    it is met, the ValueError that a parse of the whole file raises."""
    width, values = 0, bytearray()
    with _in_parts("read", fd, cuts) as parts:
        for start, end, out in parts:
            data = memoryview(out.read()) if out else b""
            rows = int.from_bytes(data[:8], "little")
            if rows and len(data) == 8 + 8 * rows * width:
                values += data[8:]
                continue
            width, part = _helper.parse(_helper._pread(fd, start, end), width,
                                        len(values) // (8 * width or 1) + 1)
            values += part
    return np.frombuffer(values, dtype=np.float64).reshape(-1, width)


def write_matrix(path, matrix: np.ndarray) -> None:
    """Write a matrix file: each row on one line, as `_helper.line`
    renders it.

    The bytes are always those of rendering the rows one by one, in order.
    An all-+0.0 matrix (a kept-0 denoise) is one rendered row repeated.
    Any other of at least HELPER_MIN_ENTRIES entries is cut at row ends,
    one part per usable CPU, at most one per row (`_cuts`).  Cut, its
    float64 bytes are staged in a temporary file; this process renders the
    first part and helpers the others (`_in_parts`, `_helper.render`), or
    it does when a helper does not deliver; the parts are appended in order.
    """
    a = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if not a.view(np.uint64).any():
            # every entry is +0.0 (a kept-0 denoise), or there is none: all rows render alike
            for line in map(_helper.line, a[:1].tolist()):
                fh.writelines([line] * len(a))
            return
        row = 8 * a.shape[1]
        least = row if a.size >= HELPER_MIN_ENTRIES else a.nbytes
        cuts = _cuts(a.nbytes, least, lambda at: -(-at // row) * row)
        with contextlib.ExitStack() as stack:
            fd = -1
            if len(cuts) > 2:
                try:
                    staged = stack.enter_context(tempfile.TemporaryFile())
                    np.ascontiguousarray(a).tofile(staged)
                    fd = staged.fileno()
                except OSError:  # nowhere to stage the bytes: render them here
                    cuts = [0, a.nbytes]
            with _in_parts("render", fd, cuts, a.shape[1]) as parts:
                for start, end, out in parts:
                    if out is None:
                        # one row at a time keeps the boxed floats small next to the matrix
                        fh.writelines(_helper.line(r.tolist())
                                      for r in a[start // row:end // row])
                    else:
                        fh.flush()
                        shutil.copyfileobj(out, fh.buffer)


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


def _check_distinct(*files) -> None:
    """Usage error when two (flag, path) files, an input before the outputs,
    name the same regular file, or one not made yet, whose later write would
    replace the earlier one's data (an output opened for writing empties the
    input); a device or a pipe may take both.  A path of None is a flag not given."""
    files = [(flag, path) for flag, path in files if path is not None]
    for i, (flag, path) in enumerate(files):
        for other_flag, other in files[:i]:
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
    _check_distinct(("--input", args.input), ("--output", args.output), ("--report", args.report))
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
    if args.plot is not None:  # the script names the summary and the image on its lines
        for flag, path, named in (("--summary", args.summary, args.summary),
                                  ("--plot", args.plot, Path(args.plot).stem)):
            if "\n" in named or "\r" in named:
                raise UsageError(f"{flag}: a line break cannot go in the gnuplot script: {path!r}")
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
