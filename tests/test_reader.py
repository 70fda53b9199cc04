"""read_matrix (bulk parse) against _scan_matrix (line-by-line reference).

Both readers must accept the same bytes with bit-identical arrays and
reject the same bytes with the same error and message, whether
read_matrix reads a file whole, split between itself and a helper, or
from a pipe.
"""

import contextlib
import os
import signal
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from usvt import cli
from usvt.cli import MatrixFileError, _scan_matrix, read_matrix, write_matrix

BAD_FIELDS = ["nan", "inf", "-inf", "1e400", "-1e400", "1_0", " 1.5", "1.5 ",
              "\t2", "+1", "-0", "", "x", "0x10", "1;2", '"1"', "١٢", "1\x00",
              "\x0c", " ", "1 2", "infinity"]
# str.isspace() and np.loadtxt take these as space; float() does not
SEPARATORS = [b"\x1c", b"\x1d", b"\x1e", b"\x1f"]


def scan(path):
    return _scan_matrix(path, Path(path).read_bytes())


def outcome(reader, path):
    try:
        a = reader(path)
    except MatrixFileError as exc:
        return type(exc).__name__, str(exc)
    assert a.dtype == np.float64 and a.ndim == 2
    return a.shape, a.view(np.int64).tobytes()


def mutate(data: bytes, draw) -> bytes:
    lines = data.split(b"\n")[:-1]
    kind = draw(st.sampled_from([
        "none", "crlf", "cr", "no-final-newline", "blank-line", "space-line",
        "ragged", "field", "separator", "trailing-comma", "non-utf8", "empty-file",
        "cr-line"]))
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "cr":
        return data.replace(b"\n", b"\r")
    if kind == "no-final-newline":
        return data[:-1]
    if kind == "blank-line":
        lines.insert(at, b"")
    elif kind == "space-line":
        lines.insert(at, draw(st.sampled_from([b" ", b"\t", b"  \x0c"])))
    elif kind == "ragged":
        lines[at] = draw(st.sampled_from([lines[at] + b",1.0",
                                          lines[at].rpartition(b",")[0]]))
    elif kind == "field":
        fields = lines[at].split(b",")
        fields[draw(st.integers(0, len(fields) - 1))] = \
            draw(st.sampled_from(BAD_FIELDS)).encode("utf-8")
        lines[at] = b",".join(fields)
    elif kind == "separator":
        fields = lines[at].split(b",")
        fields[draw(st.integers(0, len(fields) - 1))] += draw(st.sampled_from(SEPARATORS))
        lines[at] = b",".join(fields)
    elif kind == "trailing-comma":
        lines[at] += b","
    elif kind == "non-utf8":
        lines[at] += b"\xff"
    elif kind == "empty-file":
        return b""
    elif kind == "cr-line":  # one line ended by a lone \r, the rest by \n
        lines[at] += b"\r" + (lines.pop(at + 1) if at + 1 < len(lines) else b"")
    return b"".join(line + b"\n" for line in lines)


matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
)


# Files of 2 to 8 rows: the cut past 60 % of the bytes leaves lines on
# both sides of it.
multirow_matrices = arrays(
    np.float64,
    st.tuples(st.integers(2, 8), st.integers(1, 5)),
    elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


@contextlib.contextmanager
def fifo_of(data: bytes, directory):
    """A named pipe in `directory` that a thread feeds `data` to once."""
    fifo = directory / "fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield fifo
    finally:
        writer.join(timeout=60)
        fifo.unlink()
    assert not writer.is_alive()


@contextlib.contextmanager
def split_reads():
    """read_matrix splits every regular file it can cut, as on two CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "SPLIT_MIN_BYTES", 0)
        mp.setattr(cli, "_usable_cpus", lambda: 2)
        yield mp


def matches_scan(workdir, x, draw):
    p = workdir / "m.txt"
    write_matrix(p, x)
    p.write_bytes(mutate(p.read_bytes(), draw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(read_matrix, p) == outcome(scan, p)


@settings(max_examples=300, deadline=None)
@given(x=matrices, data=st.data())
def test_bulk_reader_matches_scan(workdir, x, data):
    matches_scan(workdir, x, data.draw)


@settings(max_examples=150, deadline=None)
@given(x=multirow_matrices, data=st.data())
def test_split_reader_matches_scan(workdir, x, data):
    with split_reads():
        matches_scan(workdir, x, data.draw)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@settings(max_examples=40, deadline=None)
@given(x=matrices, data=st.data())
def test_a_fifo_reads_as_the_scan_of_its_bytes(workdir, x, data):
    # a pipe is read once: a rejected file's message comes from the bytes
    # read, not from reopening the name
    p = workdir / "m.txt"
    write_matrix(p, x)
    mutated = mutate(p.read_bytes(), data.draw)
    with fifo_of(mutated, workdir) as fifo, warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = outcome(lambda path: _scan_matrix(path, mutated), fifo)
        assert outcome(read_matrix, fifo) == expected


def forbidden(*args, **kwargs):
    raise AssertionError("not expected here")


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_a_cut_at_any_line_boundary_reads_the_serial_array(tmp_path, helpers, newline):
    x = np.random.default_rng(5).standard_normal((7, 3)) * 1e3
    x[2, 1] = -0.0
    p = tmp_path / "m.txt"
    p.write_bytes("".join(",".join(map(repr, row)) + newline
                          for row in x.tolist()).encode("utf-8"))
    serial = outcome(read_matrix, p)
    assert serial == outcome(scan, p) and helpers == []
    data = p.read_bytes()
    # not the end of the file: _split_point reads such a file whole, and a
    # tail reader that returns no rows counts as failed
    cuts = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")][:-1]
    with split_reads() as mp:
        mp.setattr(cli, "_scan_matrix", forbidden)  # the split read must accept
        for cut in cuts:
            mp.setattr(cli, "_split_point", lambda fh, cut=cut: cut)
            assert outcome(read_matrix, p) == serial, cut
    assert len(helpers) == len(cuts) and all(proc.returncode == 0 for proc, _ in helpers)


GOOD = "".join(f"{i}.5,{-i},1e-{i}\n" for i in range(10))


def with_lines(changed: dict) -> str:
    """GOOD with the lines numbered in `changed` replaced.  Split, GOOD's
    head is lines 1-7 and its tail lines 8-10."""
    lines = GOOD.splitlines(keepends=True)
    for lineno, text in changed.items():
        lines[lineno - 1] = text
    return "".join(lines)


# Helpers that do not deliver, and what each runs in place of `_helper`.
FAKE_HELPERS = {
    "exit-1": "raise SystemExit(1)",
    "exit-3": "raise SystemExit(3)",
    "killed": "import os, signal; os.kill(os.getpid(), signal.SIGKILL)",
    "no-rows": "import sys; sys.stdout.buffer.write(bytes(8))",
    # one row of two values: GOOD is three wide
    "wrong-width": "import sys; sys.stdout.buffer.write((1).to_bytes(8, 'little') + bytes(16))",
}


@pytest.mark.parametrize("how", ["split", "no-executable", "missing-executable",
                                 *FAKE_HELPERS])
@pytest.mark.parametrize("text, tail_exit", [
    (GOOD, 0),
    (with_lines({2: "abc,1,2\n"}), None),  # killed once the head is rejected, or done
    (with_lines({10: "1,2,abc\n"}), 1),
    (with_lines({9: "1,2\n"}), 1),
    (with_lines({9: "1,2,3,4\n", 10: "5,6\n"}), 1),  # as many values as two rows
    (with_lines({7: "\n"}), 1),  # shorter, so the cut moves up: the tail's first line
    (with_lines({8: "1,nan,2\n"}), 1),
], ids=["good", "head-field", "last-field", "tail-ragged", "tail-ragged-pair",
        "blank-at-cut", "tail-nan"])
def test_split_or_failed_helper_reads_as_serial(tmp_path, helpers, fake_helper, how, text,
                                                tail_exit):
    p = tmp_path / "m.txt"
    p.write_text(text, encoding="utf-8")
    serial = outcome(read_matrix, p)
    assert serial == outcome(scan, p) and helpers == []
    with split_reads() as mp:
        if text == GOOD:
            # a helper that does not deliver says nothing of the file: its
            # tail is parsed here, not by the slower scan
            mp.setattr(cli, "_scan_matrix", forbidden)
        if how == "no-executable":
            mp.setattr(sys, "executable", "")
        elif how == "missing-executable":
            mp.setattr(sys, "executable", str(tmp_path / "no-python"))
        elif how != "split":
            fake_helper(FAKE_HELPERS[how])
        assert outcome(read_matrix, p) == serial
    if how in ("no-executable", "missing-executable"):
        assert helpers == [None]
    else:
        assert len(helpers) == 1 and helpers[0] is not None
    if text == GOOD and how in FAKE_HELPERS:  # the fake ran in place of the helper
        assert helpers[0][0].returncode == {"exit-1": 1, "exit-3": 3,
                                            "killed": -signal.SIGKILL}.get(how, 0)
    if how == "split" and tail_exit is not None:
        # the real helper delivers a good tail and exits non-zero on a bad one
        assert (helpers[0][0].returncode != 0) == bool(tail_exit)


def test_a_rejected_tail_goes_to_the_scan(tmp_path, helpers):
    p = tmp_path / "m.txt"
    p.write_text(with_lines({10: "1,2,abc\n"}), encoding="utf-8")
    serial = outcome(read_matrix, p)
    assert serial == ("MatrixFileError", f"{p}: line 10: field 3: not a number: 'abc'")
    scans = []

    def spy(path, data):
        scans.append((path, data))
        return _scan_matrix(path, data)

    with split_reads() as mp:
        mp.setattr(cli, "_scan_matrix", spy)
        assert outcome(read_matrix, p) == serial
    assert scans == [(p, p.read_bytes())]
    assert len(helpers) == 1 and helpers[0][0].returncode != 0


def test_the_helper_reads_the_file_this_process_opened(tmp_path, helpers):
    # the file is replaced under its name after read_matrix opened it:
    # both halves are still the opened file's
    p = tmp_path / "m.txt"
    p.write_text(GOOD, encoding="utf-8")
    serial = outcome(read_matrix, p)
    split = cli._split_point

    def replace_then_cut(fh):
        q = tmp_path / "new.txt"
        q.write_text(GOOD.replace(".5,", ".25,"), encoding="utf-8")
        os.replace(q, p)
        return split(fh)

    with split_reads() as mp:
        mp.setattr(cli, "_split_point", replace_then_cut)
        mp.setattr(cli, "_scan_matrix", forbidden)
        assert outcome(read_matrix, p) == serial
    assert len(helpers) == 1 and helpers[0][0].returncode == 0


@pytest.mark.parametrize("name", ["/dev/stdin", "/proc/self/fd/0"])
def test_a_name_for_stdin_is_read_whole(tmp_path, helpers, name):
    # the name means another file in the helper, whose stdin is devnull
    if not os.path.exists(name):
        pytest.skip(f"no {name}")
    x = np.random.default_rng(7).standard_normal((40, 6))
    p = tmp_path / "m.txt"
    write_matrix(p, x)
    saved = os.dup(0)
    try:
        with open(p, "rb") as fh:
            os.dup2(fh.fileno(), 0)
        with split_reads() as mp:
            mp.setattr(cli, "_scan_matrix", forbidden)
            a = read_matrix(name)
    finally:
        os.dup2(saved, 0)
        os.close(saved)
    assert a.view(np.int64).tobytes() == x.view(np.int64).tobytes()
    assert len(helpers) == 1 and helpers[0][0].returncode == 0


BIG = 1.7976931348623157e308  # two of them are finite, their sum is not


@pytest.mark.parametrize("tail, expected", [
    (b"7.5,-7,1e-7\r\n8.5,-8,1e-8", [7.5, -7, 1e-7, 8.5, -8, 1e-8]),
    (b"7.5,-7,abc\n", None),
    (b"7.5,-7,1e-7\n8.5,-8\n", None),  # within the tail; against the head, the join checks
    (b"7.5,-7,1e-7\n\n", None),
    (b"7.5,-7,1e-7\xff\n", None),
    (b"7.5,-7,1e-7\n%r,%r,1\n" % (BIG, BIG), [7.5, -7, 1e-7, BIG, BIG, 1]),
], ids=["good", "field", "ragged", "blank", "non-utf8", "sum-overflows"])
def test_tail_reader_alone(tmp_path, helper_alone, tail, expected):
    # run as read_matrix runs it, from the descriptor at the cut; it
    # imports neither numpy nor usvt, nor array and the collections it imports
    p = tmp_path / "m.txt"
    p.write_bytes(b"1,2,3\n" + tail)
    with open(p, "rb") as fh:
        proc, imported = helper_alone("read", str(fh.fileno()), "6", pass_fds=(fh.fileno(),))
    assert not [m for m in imported
                if m.split(".")[0] in ("numpy", "usvt", "array", "collections")]
    if expected is None:
        assert proc.returncode != 0
    else:
        assert proc.returncode == 0, proc.stderr
        assert int.from_bytes(proc.stdout[:8], "little") == 2
        assert np.frombuffer(proc.stdout[8:]).tolist() == expected


def test_one_cpu_starts_no_helper(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text(GOOD, encoding="utf-8")
    with split_reads() as mp:
        mp.setattr(cli, "_usable_cpus", lambda: 1)
        mp.setattr(cli, "_start_helper", forbidden)
        assert outcome(read_matrix, p) == outcome(scan, p)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_fifo_is_read_whole_without_a_seek(tmp_path):
    x = np.random.default_rng(6).standard_normal((200, 100))
    p = tmp_path / "m.txt"
    write_matrix(p, x)
    data = p.read_bytes()
    with fifo_of(data, tmp_path) as fifo, split_reads() as mp:
        mp.setattr(cli, "_start_helper", forbidden)
        mp.setattr(cli, "_scan_matrix", forbidden)  # a seek on the pipe fails
        a = read_matrix(fifo)
    assert len(data) > 2**16 and a.view(np.int64).tobytes() == x.view(np.int64).tobytes()


@pytest.mark.parametrize("text", ["", "\n", " \n\n"])
def test_empty_file_warns_nothing(tmp_path, text):
    p = tmp_path / "empty.txt"
    p.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixFileError) as exc:
            read_matrix(p)
    assert str(exc.value) == outcome(scan, p)[1]


@pytest.mark.parametrize("sep", SEPARATORS)
def test_separator_after_a_number_is_rejected(tmp_path, sep):
    p = tmp_path / "m.txt"
    p.write_bytes(b"1" + sep + b",2\n3,4\n")
    assert outcome(read_matrix, p) == outcome(scan, p)
    with pytest.raises(MatrixFileError, match="line 1: field 1: not a number"):
        read_matrix(p)


@pytest.mark.parametrize("text, expected", [
    ("1_0,2\n", [[10.0, 2.0]]),
    ("١,2\n", [[1.0, 2.0]]),
    ("1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    (f"{BIG!r},{BIG!r}\n", [[BIG, BIG]]),
])
def test_python_float_syntax_accepted(tmp_path, text, expected):
    p = tmp_path / "m.txt"
    p.write_text(text, encoding="utf-8")
    assert read_matrix(p).tolist() == expected


@pytest.mark.parametrize("text, message", [
    ("1,2\n\n3,4\n", "line 2: blank line"),
    ("1,2\n3,4\n\n", "line 3: blank line"),
    ("1,2\n3,1e400\n", "line 2: field 2: non-finite value"),
    ("1,2,\n", "line 1: field 3: not a number: ''"),
])
def test_fallback_keeps_diagnostics(tmp_path, text, message):
    p = tmp_path / "m.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(MatrixFileError, match=message):
        read_matrix(p)


def test_non_utf8_byte_names_path_line_and_field(tmp_path):
    # decoded with surrogateescape, a bad byte is a field float() rejects
    p = tmp_path / "m.txt"
    p.write_bytes(b"1,2\n3,\xff\n")
    assert outcome(read_matrix, p) == outcome(scan, p)
    with pytest.raises(MatrixFileError) as exc:
        read_matrix(p)
    assert str(exc.value) == f"{p}: line 2: field 2: not a number: '\\udcff'"
