"""The rules that matrix files are rendered and parsed by on other CPUs.

`cli` imports this module, and a helper interpreter runs it by path as
`python -I -S _helper.py render NCOLS` or `... read FD OFFSET`.  It
imports only the standard library, so a helper starts without numpy or
usvt, and its repr and float() are those of the command that started it.
Any failure exits non-zero; the command then does the job itself.
"""

import array
import io
import os
import sys


def line(row) -> str:
    """A matrix file's line for a row of Python floats: each entry's repr
    (the shortest round-trip rendering), comma-separated."""
    return ",".join(map(repr, row)) + "\n"


def render(ncols: int) -> None:
    """Write the float64 values on stdin to stdout as rows of `ncols`."""
    values = array.array("d", sys.stdin.buffer.read())
    with open(sys.stdout.fileno(), "w", encoding="utf-8", newline="", closefd=False) as out:
        out.writelines(line(values[i:i + ncols]) for i in range(0, len(values), ncols))


def read(fd: int, at: int) -> None:
    """Parse the file open at descriptor `fd` from byte `at` on by the
    reference parser's rules (strict UTF-8, universal newlines, strip,
    split on ",", float()) and write the row count (8 bytes, little-endian)
    and the float64 values to stdout.  A ragged row, a blank line or a
    field float() rejects raises.  os.pread leaves the descriptor's offset,
    which it shares with the command, alone."""
    chunks = []
    while chunk := os.pread(fd, 1 << 26, at):
        chunks.append(chunk)
        at += len(chunk)
    rows, width, values = 0, None, array.array("d")
    for text in io.TextIOWrapper(io.BytesIO(b"".join(chunks)), encoding="utf-8"):
        fields = text.strip().split(",")
        if width not in (None, len(fields)):
            raise ValueError(f"row {rows + 1}: expected {width} fields, got {len(fields)}")
        width = len(fields)
        values.extend(map(float, fields))  # float("") rejects a blank line
        rows += 1
    sys.stdout.buffer.write(rows.to_bytes(8, "little"))
    values.tofile(sys.stdout.buffer)


if __name__ == "__main__":
    job, *args = sys.argv[1:]
    {"render": render, "read": read}[job](*map(int, args))
