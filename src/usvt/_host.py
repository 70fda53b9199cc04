"""What the host offers a run: its usable CPUs, and numpy's bundled OpenBLAS
for its thread count and its symmetric tridiagonal routines.

Matrix files are read and written in one part per usable CPU, and the
Monte Carlo study runs its cells on as many threads.  The study holds
OpenBLAS at one thread: OpenBLAS's own threads serialise concurrent calls,
and their number moves the last bits of LAPACK's results, so a study's
bytes would depend on the host's thread count.  Every LAPACK call on a
Gram is made here through ctypes (`_call`), which releases the GIL, so
that the cells' eigensolves overlap: `sytrd` reduces it to tridiagonal
form once, keeping the reflectors (dsytrd), `stebz` bisects the few
eigenvalues a decision reads (dstebz), `laebz` counts them by the Sturm
sequences dstebz bisects by (dlaebz), `sterf` gives all of them, with
numpy's eigvalsh's bytes (dsterf), and `top_vectors` turns the form's top
eigenvectors (dstemr) into the Gram's by the reflectors (dormtr).
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


# dstebz's most accurate tolerance, twice the underflow threshold
_ABSTOL = 2.0 * np.finfo(np.float64).tiny


@functools.lru_cache(maxsize=None)
def _openblas():
    """(get, set, lapack): get and set the thread count of the OpenBLAS that
    numpy's wheels bundle in numpy.libs, and lapack its ILP64 routines below,
    by name; None where there is no such library or it lacks one of them."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
            lapack = types.SimpleNamespace(
                **{name: getattr(lib, f"scipy_{name}_64_")
                   for name in ("dlaebz", "dormtr", "dstebz", "dstemr", "dsterf", "dsytrd")})
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        for routine in vars(lapack).values():
            routine.restype = None
        return get, set_, lapack
    return None


def _call(name: str, *args) -> int:
    """Call the LAPACK routine `name` of numpy's ILP64 gfortran OpenBLAS
    with args and return the INFO it appends: bytes are a character, whose
    length goes after INFO, an array is passed by its data pointer, an int
    (also an 8-byte LOGICAL) as an int64, a float as a double, and a ctypes
    scalar, which the routine writes, by reference."""
    passed, lengths = [], []
    for arg in args:
        if isinstance(arg, bytes):
            passed.append(arg)
            lengths.append(ctypes.c_size_t(len(arg)))
        elif isinstance(arg, np.ndarray):
            passed.append(ctypes.c_void_p(arg.ctypes.data))
        elif isinstance(arg, int):
            passed.append(ctypes.byref(ctypes.c_int64(arg)))
        elif isinstance(arg, float):
            passed.append(ctypes.byref(ctypes.c_double(arg)))
        else:
            passed.append(ctypes.byref(arg))
    info = ctypes.c_int64()
    getattr(_openblas()[2], name)(*passed, ctypes.byref(info), *lengths)
    return info.value


def _sized(name: str, *args) -> int:
    """_call(name, *args, work, lwork), sized by the routine's query."""
    work = np.empty(1)
    _call(name, *args, work, -1)
    work = np.empty(max(int(work[0]), 1))
    return _call(name, *args, work, work.size)


def sytrd(a: np.ndarray):
    """(d, e, z, tau): the diagonal d and subdiagonal e of the symmetric
    tridiagonal matrix T = Q^T a Q that dsytrd reduces the symmetric float64
    matrix a to (uplo 'L', the work sized by a query), with the GIL
    released, and the reflectors whose product is Q: z, overwritten below
    its subdiagonal, and tau.  z is a itself where a is a writeable
    column-major float64 array, else a column-major copy.  T has a's
    eigenvalues.  Needs numpy's OpenBLAS (`_openblas()`); raises ValueError
    where a is not a square matrix, and LinAlgError where dsytrd reports an
    error."""
    z = np.require(a, np.float64, ("F", "W"))
    n = z.shape[0]
    if z.shape != (n, n):  # dsytrd would read n^2 values from the buffer
        raise ValueError(f"expected a square matrix, got shape {z.shape}")
    d, e, tau = np.empty(n), np.empty(max(n - 1, 0)), np.empty(max(n - 1, 1))
    info = _sized("dsytrd", b"L", n, z, max(n, 1), d, e, tau)
    if info:
        raise np.linalg.LinAlgError(f"dsytrd failed: info {info}")
    return d, e, z, tau


def top_vectors(d: np.ndarray, e: np.ndarray, z: np.ndarray, tau: np.ndarray,
                k: int) -> np.ndarray:
    """The eigenvectors of the k largest eigenvalues, 1 <= k <= n, of the
    matrix `sytrd` reduced to (d, e, z, tau), ascending, as the columns of
    an n x k array: dstemr's of T (RANGE 'I'), multiplied by Q (dormtr),
    with the GIL released.  Needs numpy's OpenBLAS; raises LinAlgError
    where either routine fails or dstemr does not return k vectors."""
    n = d.size
    w, q, isuppz = np.empty(n), np.empty((n, k), order="F"), np.empty(2 * k, dtype=np.int64)
    work, iwork = np.empty(max(18 * n, 1)), np.empty(max(10 * n, 1), dtype=np.int64)
    found = ctypes.c_int64()
    info = _call("dstemr", b"V", b"I", n, d.copy(), np.append(e, 0.0), 0.0, 0.0, n - k + 1,
                 n, found, w, q, n, k, isuppz, True, work, work.size, iwork, iwork.size)
    if info or found.value != k:
        raise np.linalg.LinAlgError(f"dstemr failed: info {info}")
    info = _sized("dormtr", b"L", b"L", b"N", n, k, z, n, tau, q, n)
    if info:
        raise np.linalg.LinAlgError(f"dormtr failed: info {info}")
    return q


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
    found, nsplit = ctypes.c_int64(), ctypes.c_int64()
    info = _call("dstebz", b"I", b"E", n, 0.0, 0.0, il, iu, _ABSTOL, d, e, found, nsplit, w,
                 iblock, isplit, work, iwork)
    if info or found.value != iu - il + 1:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w[:found.value]


def sterf(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """All eigenvalues, ascending, of the symmetric tridiagonal matrix with
    diagonal d and subdiagonal e, float64: dsterf's root-free QL/QR, on
    copies of d and e, which it overwrites, with the GIL released.  Needs
    numpy's OpenBLAS; raises LinAlgError where dsterf does not converge."""
    w = d.copy()
    if _call("dsterf", w.size, w, e.copy()):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


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
    _call("dlaebz", 1, 0, n, 1, 1, 0, 0.0, 0.0, pivmin, d, e, e2, spare_int, ab, spare,
          ctypes.c_int64(), nab, spare, spare_int)
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
