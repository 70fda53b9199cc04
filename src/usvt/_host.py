"""What the host offers a run: its usable CPUs and the thread count of
numpy's bundled OpenBLAS.

Matrix files are read and written in one part per usable CPU, and the
Monte Carlo study runs its cells on as many threads.  The study holds
OpenBLAS at one thread: OpenBLAS's own threads serialise concurrent calls,
and their number moves the last bits of LAPACK's results, so a study's
bytes would depend on the host's thread count.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from pathlib import Path

import numpy as np

# One study at a time holds the process-wide count at one thread, so that
# each restores the count it found.
_ONE_BLAS_THREAD = threading.Lock()


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _openblas():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheels
    bundle in numpy.libs, or None where there is no such library."""
    import ctypes  # only a study needs it

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, for the whole process, and yield
    True; restore the count it had on exit.  Where that library is not
    found, yield False and change nothing."""
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, set_ = blas
    with _ONE_BLAS_THREAD:
        saved = get()
        set_(1)
        try:
            yield True
        finally:
            set_(saved)
