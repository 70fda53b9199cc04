"""read_matrix (bulk parse) against _scan_matrix (line-by-line reference).

Both readers must accept the same files with bit-identical arrays and
reject the same files with the same error and message.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from usvt.cli import MatrixFileError, _scan_matrix, read_matrix, write_matrix

BAD_FIELDS = ["nan", "inf", "-inf", "1e400", "-1e400", "1_0", " 1.5", "1.5 ",
              "\t2", "+1", "-0", "", "x", "0x10", "1;2", '"1"', "١٢", "1\x00",
              "\x0c", " ", "1 2", "infinity"]


def outcome(reader, path):
    try:
        a = reader(path)
    except (MatrixFileError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)
    assert a.dtype == np.float64 and a.ndim == 2
    return a.shape, a.view(np.int64).tobytes()


def mutate(data: bytes, draw) -> bytes:
    lines = data.split(b"\n")[:-1]
    kind = draw(st.sampled_from([
        "none", "crlf", "cr", "no-final-newline", "blank-line", "space-line",
        "ragged", "field", "trailing-comma", "non-utf8", "empty-file"]))
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
    elif kind == "trailing-comma":
        lines[at] += b","
    elif kind == "non-utf8":
        lines[at] += b"\xff"
    elif kind == "empty-file":
        return b""
    return b"".join(line + b"\n" for line in lines)


matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


@settings(max_examples=300, deadline=None)
@given(x=matrices, data=st.data())
def test_bulk_reader_matches_scan(workdir, x, data):
    p = workdir / "m.txt"
    write_matrix(p, x)
    p.write_bytes(mutate(p.read_bytes(), data.draw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(read_matrix, p) == outcome(_scan_matrix, p)


@pytest.mark.parametrize("text", ["", "\n", " \n\n"])
def test_empty_file_warns_nothing(tmp_path, text):
    p = tmp_path / "empty.txt"
    p.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixFileError) as exc:
            read_matrix(p)
    assert str(exc.value) == outcome(_scan_matrix, p)[1]


@pytest.mark.parametrize("text, expected", [
    ("1_0,2\n", [[10.0, 2.0]]),
    ("١,2\n", [[1.0, 2.0]]),
    ("1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
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
