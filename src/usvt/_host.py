"""What the host offers a run: its usable CPUs, and numpy's bundled OpenBLAS
for its thread count and its symmetric eigensolver.

Matrix files are read and written in one part per usable CPU, and the
Monte Carlo study runs its cells on as many threads.  The study holds
OpenBLAS at one thread: OpenBLAS's own threads serialise concurrent calls,
and their number moves the last bits of LAPACK's results, so a study's
bytes would depend on the host's thread count.  Every Gram eigensolve runs
through `syevd`, LAPACK's dsyevd called as numpy calls it but through
ctypes, which releases the GIL, so that the cells' eigensolves overlap.
"""

from __future__ import annotations

import contextlib
import ctypes
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
    bundle in numpy.libs, and its ILP64 dsyevd; None where there is no such
    library or it lacks one of them."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
            dsyevd = lib.scipy_dsyevd_64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, and
        # the lengths of jobz and uplo that gfortran passes last
        dsyevd.argtypes = [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 9 + [ctypes.c_size_t] * 2
        dsyevd.restype = None
        return get, set_, dsyevd
    return None


def syevd(a: np.ndarray, vectors: bool = False):
    """np.linalg.eigvalsh(a), or np.linalg.eigh(a) where vectors is true, of
    the symmetric float64 matrix a, with the same bytes: numpy's own call of
    dsyevd (uplo 'L' on a column-major copy, the work sized by a query), made
    with the GIL released.  Where numpy's OpenBLAS is not found, numpy runs.
    Raises LinAlgError where dsyevd does not converge, and ValueError
    where a is not a square matrix."""
    blas = _openblas()
    if blas is None:
        return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)
    z = np.array(a, dtype=np.float64, order="F")  # dsyevd overwrites it with the vectors
    n = z.shape[0]
    if z.shape != (n, n):  # dsyevd would read n^2 values from the buffer
        raise ValueError(f"expected a square matrix, got shape {z.shape}")
    w = np.empty(n)
    jobz, dsyevd = (b"V" if vectors else b"N"), blas[2]

    def call(work, iwork, lwork, liwork):
        info = ctypes.c_int64()
        dsyevd(jobz, b"L", ctypes.byref(ctypes.c_int64(n)), z.ctypes.data,
               ctypes.byref(ctypes.c_int64(max(n, 1))), w.ctypes.data, work.ctypes.data,
               ctypes.byref(ctypes.c_int64(lwork)), iwork.ctypes.data,
               ctypes.byref(ctypes.c_int64(liwork)), ctypes.byref(info), 1, 1)
        if info.value:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    call(work, iwork, -1, -1)  # the query writes the sizes numpy would take
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), np.empty(liwork, dtype=np.int64), lwork, liwork)
    return (w, np.ascontiguousarray(z)) if vectors else w  # numpy's eigh gives C order


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, for the whole process, and yield
    True; restore the count it had on exit.  Where that library is not
    found, yield False and change nothing."""
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, set_, _ = blas
    with _ONE_BLAS_THREAD:
        saved = get()
        set_(1)
        try:
            yield True
        finally:
            set_(saved)
