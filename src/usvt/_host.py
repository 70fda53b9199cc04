"""What the host offers a run: its usable CPUs, and numpy's bundled OpenBLAS
for its thread count and its symmetric eigensolvers.

Matrix files are read and written in one part per usable CPU, and the
Monte Carlo study runs its cells on as many threads.  The study holds
OpenBLAS at one thread: OpenBLAS's own threads serialise concurrent calls,
and their number moves the last bits of LAPACK's results, so a study's
bytes would depend on the host's thread count.  Every LAPACK call on a
Gram is made here through ctypes, which releases the GIL, so that the
cells' eigensolves overlap: `sytrd` reduces it to tridiagonal form
(dsytrd, the first half of dsyevd), `stebz` bisects the eigenvalues a
decision reads from that form (dstebz) and `laebz` counts them by Sturm
sequences (dlaebz, the counts dstebz bisects by); `syevd` is dsyevd called
as numpy calls it, for all eigenvalues or eigenvectors.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
import types
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


# The LAPACK routines `_openblas` binds, each with its argument types: the
# arguments gfortran passes by reference, then the lengths of the character
# arguments it passes last.
_LAPACK = {
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info
    "dsyevd": [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 9 + [ctypes.c_size_t] * 2,
    # uplo, n, a, lda, d, e, tau, work, lwork, info
    "dsytrd": [ctypes.c_char_p] + [ctypes.c_void_p] * 9 + [ctypes.c_size_t],
    # range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w, iblock,
    # isplit, work, iwork, info
    "dstebz": [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 16 + [ctypes.c_size_t] * 2,
    # ijob, nitmax, n, mmax, minp, nbmin, abstol, reltol, pivmin, d, e, e2,
    # nval, ab, c, mout, nab, work, iwork, info
    "dlaebz": [ctypes.c_void_p] * 20,
}

# dstebz's most accurate tolerance, twice the underflow threshold
_ABSTOL = 2.0 * np.finfo(np.float64).tiny


@functools.lru_cache(maxsize=None)
def _openblas():
    """(get, set, lapack): get and set the thread count of the OpenBLAS that
    numpy's wheels bundle in numpy.libs, and lapack names its ILP64 dsyevd,
    dsytrd, dstebz and dlaebz; None where there is no such library or it
    lacks one of them."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
            lapack = types.SimpleNamespace(
                **{name: getattr(lib, f"scipy_{name}_64_") for name in _LAPACK})
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        for name, argtypes in _LAPACK.items():
            routine = getattr(lapack, name)
            routine.argtypes, routine.restype = argtypes, None
        return get, set_, lapack
    return None


def _ref(value, ctype=ctypes.c_int64):
    # a Fortran argument: a pointer to a copy of the scalar
    return ctypes.byref(ctype(value))


def _column_major(a: np.ndarray) -> np.ndarray:
    """A column-major float64 copy of the square matrix a, which LAPACK
    overwrites; ValueError where a is not square, since LAPACK would read
    n^2 values from the buffer."""
    z = np.array(a, dtype=np.float64, order="F")
    n = z.shape[0]
    if z.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {z.shape}")
    return z


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
    z = _column_major(a)  # dsyevd overwrites it with the vectors
    n = z.shape[0]
    w = np.empty(n)
    jobz, dsyevd = (b"V" if vectors else b"N"), blas[2].dsyevd

    def call(work, iwork, lwork, liwork):
        info = ctypes.c_int64()
        dsyevd(jobz, b"L", _ref(n), z.ctypes.data, _ref(max(n, 1)), w.ctypes.data,
               work.ctypes.data, _ref(lwork), iwork.ctypes.data, _ref(liwork),
               ctypes.byref(info), 1, 1)
        if info.value:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    call(work, iwork, -1, -1)  # the query writes the sizes numpy would take
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), np.empty(liwork, dtype=np.int64), lwork, liwork)
    return (w, np.ascontiguousarray(z)) if vectors else w  # numpy's eigh gives C order


@functools.lru_cache(maxsize=64)
def _sytrd_work(n: int) -> int:
    # dsytrd's work size for order n, by its query, which reads no matrix
    work, info = np.empty(1), ctypes.c_int64()
    _openblas()[2].dsytrd(b"L", _ref(n), work.ctypes.data, _ref(max(n, 1)), work.ctypes.data,
                          work.ctypes.data, work.ctypes.data, work.ctypes.data, _ref(-1),
                          ctypes.byref(info), 1)
    return max(int(work[0]), 1)


def sytrd(a: np.ndarray):
    """(d, e), the diagonal and subdiagonal of the symmetric tridiagonal
    matrix T = Q^T a Q that dsytrd reduces the symmetric float64 matrix a
    to, as dsyevd does before its eigenvalues: uplo 'L' on a column-major
    copy, with the GIL released.  T has a's eigenvalues.  Needs numpy's
    OpenBLAS (`_openblas()`); raises ValueError where a is not a square
    matrix, and LinAlgError where dsytrd reports an error."""
    z = _column_major(a)
    n = z.shape[0]
    d, e, tau = np.empty(n), np.empty(max(n - 1, 0)), np.empty(max(n - 1, 1))
    lwork = _sytrd_work(n)
    work, info = np.empty(lwork), ctypes.c_int64()
    _openblas()[2].dsytrd(b"L", _ref(n), z.ctypes.data, _ref(max(n, 1)), d.ctypes.data,
                          e.ctypes.data, tau.ctypes.data, work.ctypes.data, _ref(lwork),
                          ctypes.byref(info), 1)
    if info.value:
        raise np.linalg.LinAlgError(f"dsytrd failed: info {info.value}")
    return d, e


def stebz(d: np.ndarray, e: np.ndarray, il: int, iu: int) -> np.ndarray:
    """The il-th to iu-th smallest eigenvalues (1-based, il <= iu),
    ascending, of the symmetric tridiagonal matrix with diagonal d and
    subdiagonal e, float64: dstebz's bisection (RANGE 'I', ABSTOL twice the
    underflow threshold, to full accuracy), with the GIL released.  Needs
    numpy's OpenBLAS; raises LinAlgError where dstebz does not converge or
    does not return iu - il + 1 values."""
    n = d.size
    w, iblock, isplit = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    work, iwork = np.empty(4 * n), np.empty(3 * n, dtype=np.int64)
    found, nsplit, info = ctypes.c_int64(), ctypes.c_int64(), ctypes.c_int64()
    _openblas()[2].dstebz(b"I", b"E", _ref(n), _ref(0.0, ctypes.c_double),
                          _ref(0.0, ctypes.c_double), _ref(il), _ref(iu),
                          _ref(_ABSTOL, ctypes.c_double), d.ctypes.data, e.ctypes.data,
                          ctypes.byref(found), ctypes.byref(nsplit), w.ctypes.data,
                          iblock.ctypes.data, isplit.ctypes.data, work.ctypes.data,
                          iwork.ctypes.data, ctypes.byref(info), 1, 1)
    if info.value or found.value != iu - il + 1:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w[:found.value]


def laebz(d: np.ndarray, e: np.ndarray, lower: float, upper: float):
    """(number of eigenvalues <= lower, number <= upper) of the symmetric
    tridiagonal matrix with diagonal d and subdiagonal e, float64: dlaebz's
    Sturm counts (IJOB 1), with the GIL released.  As in dstebz, a pivot
    below PIVMIN = tiny * max(1, max e_i^2) in magnitude is taken as
    -PIVMIN, so that an exactly zero pivot counts once and never divides
    the next one by zero.  Needs numpy's OpenBLAS."""
    n = d.size
    e2 = e * e
    pivmin = np.finfo(np.float64).tiny * max(1.0, float(e2.max(initial=0.0)))
    ab, nab = np.array([lower, upper]), np.zeros(2, dtype=np.int64)  # one interval
    spare, spare_int = np.zeros(2), np.zeros(2, dtype=np.int64)  # not read at IJOB 1
    mout, info = ctypes.c_int64(), ctypes.c_int64()
    _openblas()[2].dlaebz(_ref(1), _ref(0), _ref(n), _ref(1), _ref(1), _ref(0),
                          _ref(0.0, ctypes.c_double), _ref(0.0, ctypes.c_double),
                          _ref(pivmin, ctypes.c_double), d.ctypes.data, e.ctypes.data,
                          e2.ctypes.data, spare_int.ctypes.data, ab.ctypes.data,
                          spare.ctypes.data, ctypes.byref(mout), nab.ctypes.data,
                          spare.ctypes.data, spare_int.ctypes.data, ctypes.byref(info))
    return int(nab[0]), int(nab[1])


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
