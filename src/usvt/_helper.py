"""The matrix-file format: how a row is rendered and how a file is parsed.

`cli` imports this module, and a helper interpreter runs it by path as
`python -I -S _helper.py read FD START END` or `... render FD START END
NCOLS`, on bytes START to END of the file the command holds open at FD.
It imports only the standard library, so a helper starts without numpy
or usvt, and its repr and float() are those of the command that started
it.  Any failure exits non-zero; the command then does the job itself.
"""

import io
import math
import os
import struct
import sys


def line(row) -> str:
    """A matrix file's line for a row of Python floats: each entry's repr
    (the shortest round-trip rendering), comma-separated."""
    return ",".join(map(repr, row)) + "\n"


def _pread(fd: int, start: int, end: int) -> bytes:
    """Bytes `start` to `end` of the file open at descriptor `fd`.  os.pread
    leaves the offset, which the command shares, alone."""
    chunks = []
    while start < end and (chunk := os.pread(fd, min(end - start, 1 << 26), start)):
        chunks.append(chunk)
        start += len(chunk)
    return b"".join(chunks)


def render(fd: int, start: int, end: int, ncols: int) -> None:
    """Write the float64 values in bytes `start` to `end` at `fd` to stdout, rows of `ncols`."""
    values = memoryview(_pread(fd, start, end)).cast("d")
    with open(sys.stdout.fileno(), "w", encoding="utf-8", newline="", closefd=False) as out:
        out.writelines(line(values[i:i + ncols]) for i in range(0, len(values), ncols))


def parse(data: bytes, width: int = 0, first: int = 1):
    """(width, float64 bytes) of the matrix file `data`, by its rules: UTF-8,
    universal newlines, no blank line, each line stripped and split on ",",
    every field finite by float(), one width (`width`, if given).  A
    ValueError names the first bad line, counted from `first`, and field;
    a byte that is not UTF-8 is a field float() rejects."""
    values = bytearray()
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    for lineno, text_line in enumerate(text, start=first):
        fields = text_line.strip().split(",")
        if fields == [""]:
            raise ValueError(f"line {lineno}: blank line")
        width = width or len(fields)
        if len(fields) != width:
            raise ValueError(f"line {lineno}: expected {width} fields, got {len(fields)}")
        try:
            row = list(map(float, fields))
            if not math.isfinite(sum(row)):
                raise ValueError
        except ValueError:  # name the bad field; a finite row whose sum overflows keeps `row`
            for col, field in enumerate(fields, start=1):
                try:
                    value = float(field)
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: field {col}: not a number: {field!r}") from None
                if not math.isfinite(value):
                    raise ValueError(f"line {lineno}: field {col}: non-finite value")
        values += struct.pack(f"{width}d", *row)
    if not width:
        raise ValueError("empty matrix file")
    return width, values


def read(fd: int, start: int, end: int) -> None:
    """`parse` bytes `start` to `end` of the file open at `fd`; write the row
    count (8 bytes, little-endian) and the float64 values to stdout."""
    width, values = parse(_pread(fd, start, end))
    sys.stdout.buffer.write((len(values) // (8 * width)).to_bytes(8, "little"))
    sys.stdout.buffer.write(values)


if __name__ == "__main__":
    job, *args = sys.argv[1:]
    {"render": render, "read": read}[job](*map(int, args))
