"""read_matrix against _scan_matrix, one parse of all the bytes read.

Both readers must accept the same bytes with bit-identical arrays and
reject the same bytes with the same error and message, whether
read_matrix reads a file whole, cut into parts between itself and
helpers, or from a pipe.  Cut, a bad part raises the file's own message
from the parse that meets it: no byte is parsed twice in this process.
"""

import contextlib
import itertools
import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from usvt import _helper, _host, cli
from usvt.cli import MatrixFileError, _scan_matrix, read_matrix, write_matrix

BAD_FIELDS = ["nan", "inf", "-inf", "1e400", "-1e400", "1_0", " 1.5", "1.5 ",
              "\t2", "+1", "-0", "", "x", "0x10", "1;2", '"1"', "١٢", "1\x00",
              "\x0c", " ", "1 2", "infinity"]
# str.isspace() takes these as space, so a line's strip() drops them at its
# ends, but float() rejects them within a field
SEPARATORS = [b"\x1c", b"\x1d", b"\x1e", b"\x1f"]
BIG = 1.7976931348623157e308  # two of them are finite, their sum is not


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


# Files of 2 to 8 rows: cut into 2 to 4 parts, they leave lines on both
# sides of a cut, and the shortest merge cuts.
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
def split_reads(cpus=2):
    """read_matrix splits every regular file it can cut, as on `cpus` CPUs:
    a part may be as small as one byte."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "SPLIT_MIN_BYTES", 2)
        mp.setattr(_host, "usable_cpus", lambda: cpus)
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


@pytest.mark.parametrize("cpus", [2, 3, 4])
@settings(max_examples=150, deadline=None)
@given(x=multirow_matrices, data=st.data())
def test_split_reader_matches_scan(workdir, cpus, x, data):
    with split_reads(cpus):
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


@pytest.mark.parametrize("parts", [2, 3, 4])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_a_cut_at_any_line_boundary_reads_the_serial_array(tmp_path, helpers, newline, parts):
    x = np.random.default_rng(5).standard_normal((7, 3)) * 1e3
    x[2, 1] = -0.0
    p = tmp_path / "m.txt"
    p.write_bytes("".join(",".join(map(repr, row)) + newline
                          for row in x.tolist()).encode("utf-8"))
    serial = outcome(read_matrix, p)
    assert serial == outcome(scan, p) and helpers == []
    data = p.read_bytes()
    # not the end of the file, which _cuts merges with the end
    lines = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")][:-1]
    cuts = list(itertools.combinations(lines, parts - 1))
    with split_reads(parts) as mp:
        mp.setattr(cli, "_scan_matrix", forbidden)  # the split read must accept
        for inner in cuts:
            mp.setattr(cli, "_cuts", lambda *args, inner=inner: [0, *inner, len(data)])
            assert outcome(read_matrix, p) == serial, inner
    assert len(helpers) == len(cuts) * (parts - 1)
    assert all(proc.returncode == 0 for proc, _ in helpers)


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


def parsed_here(mp) -> list:
    """The list that the length of every `data` given to `_helper.parse` in
    this process is appended to; the scan of a whole file is refused."""
    lengths, parse = [], _helper.parse

    def spy(data, *args):
        lengths.append(len(data))
        return parse(data, *args)

    mp.setattr(_helper, "parse", spy)
    mp.setattr(cli, "_scan_matrix", forbidden)
    return lengths


@pytest.mark.parametrize("parts", [2, 3])
def test_a_rejected_last_part_is_parsed_once(tmp_path, helpers, parts):
    # the last part's helper exits non-zero; that part is parsed here, from
    # its first line, 8, at the first part's width: its error is the file's
    p = tmp_path / "m.txt"
    p.write_text(with_lines({10: "1,2,abc\n"}), encoding="utf-8")
    serial = outcome(read_matrix, p)
    assert serial == ("MatrixFileError", f"{p}: line 10: field 3: not a number: 'abc'")
    with split_reads(parts) as mp:
        lengths = parsed_here(mp)
        assert outcome(read_matrix, p) == serial
    assert len(lengths) == 2 and sum(lengths) <= p.stat().st_size
    assert [proc.returncode for proc, _ in helpers] == [0] * (parts - 2) + [1]


@pytest.mark.parametrize("size, parts", [(98, 1), (100, 2), (148, 2), (150, 3), (400, 4)])
def test_a_part_is_no_smaller_than_half_the_split_threshold(tmp_path, monkeypatch, helpers,
                                                            size, parts):
    # on 4 CPUs a file of SPLIT_MIN_BYTES is read in 2 parts, and only a
    # file of twice that size in 4
    p = tmp_path / "m.txt"
    p.write_bytes(b"1\n" * (size // 2))
    monkeypatch.setattr(cli, "SPLIT_MIN_BYTES", 100)
    monkeypatch.setattr(_host, "usable_cpus", lambda: 4)
    assert read_matrix(p).tolist() == [[1.0]] * (size // 2)
    assert len(helpers) == parts - 1 and all(proc.returncode == 0 for proc, _ in helpers)


@contextlib.contextmanager
def three_parts():
    """read_matrix cuts every file it can in three, as on 3 CPUs; yields the
    list that the cuts it makes are appended to, and the monkeypatch."""
    made, cut = [], cli._cuts
    with split_reads(3) as mp:
        mp.setattr(cli, "_cuts", lambda *args: made.append(cut(*args)) or made[-1])
        yield made, mp


def test_a_failed_middle_helper_has_its_part_parsed_here(tmp_path, helpers, fake_helper):
    p = tmp_path / "m.txt"
    p.write_text(GOOD, encoding="utf-8")
    serial = outcome(read_matrix, p)
    # the middle part is the one whose helper stops before the end of the file
    fake_helper("import runpy, sys\n"
                f"if sys.argv[4] != '{len(GOOD)}':\n"
                "    raise SystemExit(1)\n"
                f"runpy.run_path({_helper.__file__!r}, run_name='__main__')\n")
    with three_parts() as (made, mp):
        mp.setattr(cli, "_scan_matrix", forbidden)
        assert outcome(read_matrix, p) == serial
    assert len(made) == 1 and len(made[0]) == 4
    assert [proc.returncode for proc, _ in helpers] == [1, 0]


@pytest.mark.parametrize("line", ["1,abc,2\n", "1,2\n", "\n"],
                         ids=["field", "ragged", "blank"])
def test_a_fault_in_the_middle_part_gives_the_serial_message(tmp_path, helpers, line):
    p = tmp_path / "m.txt"
    p.write_text(with_lines({6: line}), encoding="utf-8")
    serial = outcome(read_matrix, p)
    assert serial[0] == "MatrixFileError" and serial == outcome(scan, p)
    with three_parts() as (made, _):
        assert outcome(read_matrix, p) == serial
    assert len(made) == 1 and len(made[0]) == 4
    start, end = made[0][1:3]
    assert start <= GOOD.index("5.5,") < end  # line 6 is in the middle part
    assert len(helpers) == 2 and helpers[0][0].returncode == 1


@pytest.mark.parametrize("text, started", [
    # 4 CPUs: the first two cuts fall just after line 1, the third after line 4
    (f"{BIG!r},{-BIG!r},{BIG!r}\n" + "".join(f"{i},{i},{i}\n" for i in range(8)), 2),
    # every cut falls at the end: the file is read whole
    (f"1,2\n3,4\n{BIG!r},{-BIG!r}\n", 0),
], ids=["first-line-long", "last-line-long"])
def test_cuts_that_merge_read_as_serial(tmp_path, helpers, text, started):
    p = tmp_path / "m.txt"
    p.write_text(text, encoding="utf-8")
    serial = outcome(read_matrix, p)
    with split_reads(4) as mp:
        if started:
            mp.setattr(cli, "_scan_matrix", forbidden)
        assert outcome(read_matrix, p) == serial
    assert len(helpers) == started and all(proc.returncode == 0 for proc, _ in helpers)


def test_a_delivered_part_of_another_width_is_parsed_once(tmp_path, helpers):
    # the helper delivers the second part, one row of four, which holds as
    # many values as two rows of the first part's width; parsed here at
    # that width, its first line is the file's first bad one
    p = tmp_path / "m.txt"
    p.write_text("1.25,2.5\n3,4,5,6\n", encoding="utf-8")
    serial = outcome(read_matrix, p)
    assert serial == ("MatrixFileError", f"{p}: line 2: expected 2 fields, got 4")
    with split_reads() as mp:
        lengths = parsed_here(mp)
        assert outcome(read_matrix, p) == serial
    assert lengths == [9, 8] and sum(lengths) == p.stat().st_size
    assert len(helpers) == 1 and helpers[0][0].returncode == 0


def test_the_helper_reads_the_file_this_process_opened(tmp_path, helpers):
    # the file is replaced under its name after read_matrix opened it:
    # both parts are still the opened file's
    p = tmp_path / "m.txt"
    p.write_text(GOOD, encoding="utf-8")
    serial = outcome(read_matrix, p)
    split = cli._cuts

    def replace_then_cut(*args):
        q = tmp_path / "new.txt"
        q.write_text(GOOD.replace(".5,", ".25,"), encoding="utf-8")
        os.replace(q, p)
        return split(*args)

    with split_reads() as mp:
        mp.setattr(cli, "_cuts", replace_then_cut)
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


@pytest.mark.parametrize("tail, expected", [
    (b"7.5,-7,1e-7\r\n8.5,-8,1e-8", [7.5, -7, 1e-7, 8.5, -8, 1e-8]),
    (b"7.5,-7,abc\n", None),
    (b"7.5,-7,1e-7\n8.5,-8\n", None),  # within the tail; against the head, the join checks
    (b"7.5,-7,1e-7\n\n", None),
    (b"7.5,-7,1e-7\xff\n", None),
    (b"7.5,-7,1e-7\n%r,%r,1\n" % (BIG, BIG), [7.5, -7, 1e-7, BIG, BIG, 1]),
], ids=["good", "field", "ragged", "blank", "non-utf8", "sum-overflows"])
def test_tail_reader_alone(tmp_path, helper_alone, tail, expected):
    # run as read_matrix runs it, from the descriptor at the cut to the end;
    # it imports neither numpy nor usvt, nor array and the collections it imports
    p = tmp_path / "m.txt"
    p.write_bytes(b"1,2,3\n" + tail)
    with open(p, "rb") as fh:
        proc, imported = helper_alone("read", str(fh.fileno()), "6", str(6 + len(tail)),
                                      pass_fds=(fh.fileno(),))
    assert not [m for m in imported
                if m.split(".")[0] in ("numpy", "usvt", "array", "collections")]
    if expected is None:
        assert proc.returncode != 0
    else:
        assert proc.returncode == 0, proc.stderr
        assert int.from_bytes(proc.stdout[:8], "little") == 2
        assert np.frombuffer(proc.stdout[8:]).tolist() == expected


def test_part_reader_stops_at_its_end(tmp_path, helper_alone):
    # a part before the last: the bad line past END is the next part's
    p = tmp_path / "m.txt"
    p.write_bytes(b"1,2,3\n4,5,6\n7,8,9\n1,abc\n")
    with open(p, "rb") as fh:
        proc, _ = helper_alone("read", str(fh.fileno()), "6", "18", pass_fds=(fh.fileno(),))
    assert proc.returncode == 0, proc.stderr
    assert int.from_bytes(proc.stdout[:8], "little") == 2
    assert np.frombuffer(proc.stdout[8:]).tolist() == [4, 5, 6, 7, 8, 9]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs to pin to one")
def test_a_file_reads_alike_on_every_cpu_and_on_one(tmp_path, child_env):
    # at twice SPLIT_MIN_BYTES the file is cut into one part per usable CPU
    # up to four; pinned to one CPU before usvt is imported, the command
    # parses it whole.  OpenBLAS runs one thread in both runs: its thread
    # count, which the pinning would change, moves the last bits of the SVD
    p = tmp_path / "m.txt"
    write_matrix(p, np.random.default_rng(6).standard_normal((500, 900)))
    assert p.stat().st_size >= 2 * cli.SPLIT_MIN_BYTES
    env = dict(child_env, OPENBLAS_NUM_THREADS="1")
    pin = f"import os; os.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}}); "

    def outputs(name, prefix):
        out, rep = tmp_path / f"{name}.txt", tmp_path / f"{name}.json"
        stdout = []
        for argv in (["estimate-sigma"], ["spectrum"],
                     ["denoise", "--sigma", "0", "--output", str(out), "--report", str(rep)]):
            proc = subprocess.run(
                [sys.executable, "-c", prefix + "from usvt.cli import run; run()",
                 *argv, "--input", str(p)], capture_output=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            stdout.append(proc.stdout)
        return stdout, out.read_bytes(), rep.read_bytes()

    assert outputs("all", "") == outputs("one", pin)


def test_one_cpu_starts_no_helper(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text(GOOD, encoding="utf-8")
    with split_reads() as mp:
        mp.setattr(_host, "usable_cpus", lambda: 1)
        mp.setattr(cli, "_start_helper", forbidden)
        assert outcome(read_matrix, p) == outcome(scan, p)


def test_without_pread_no_helper_starts(tmp_path):
    # every helper job reads its byte range by os.pread
    x = np.random.default_rng(8).standard_normal((700, 300))
    p = tmp_path / "m.txt"
    with split_reads(4) as mp:
        mp.delattr(os, "pread")
        mp.setattr(cli, "_start_helper", forbidden)
        write_matrix(p, x)
        assert read_matrix(p).view(np.int64).tobytes() == x.view(np.int64).tobytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_fifo_is_read_whole_without_a_seek(tmp_path):
    x = np.random.default_rng(6).standard_normal((200, 100))
    p = tmp_path / "m.txt"
    write_matrix(p, x)
    data = p.read_bytes()
    scans = []

    def spy(path, data):
        scans.append(data)
        return _scan_matrix(path, data)

    with fifo_of(data, tmp_path) as fifo, split_reads() as mp:
        mp.setattr(cli, "_start_helper", forbidden)
        mp.setattr(cli, "_scan_matrix", spy)
        a = read_matrix(fifo)
    assert len(data) > 2**16 and a.view(np.int64).tobytes() == x.view(np.int64).tobytes()
    assert scans == [data]  # one parse of the bytes read


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
