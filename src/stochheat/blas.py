"""The OpenBLAS that numpy loaded: its thread count and its LAPACK
banded solves.

OpenBLAS exports its thread-count functions and LAPACK from the library
numpy links; ctypes reaches them through numpy's core extension, so no
run loads a second BLAS (scipy's).  The solves are the banded Cholesky
factor and solve of the Crank-Nicolson step (``cholesky_band``,
``cho_solver``: LAPACK dpbtrf and dpbtrs) and the tridiagonal solve of
the mass and stiffness matrices (``tridiagonal_solve``: dptsv, which
scipy's ``solveh_banded`` calls for such a band).  A band is held in
LAPACK's upper form: row 0 the off-diagonal behind a leading 0, row 1
the diagonal.  Only the stepping, the solves and the Monte Carlo pass
(``one_thread``, ``cli._mc_rms``) import this module, so the start-up of
the CLI does not compile it.
"""

import contextlib
import ctypes
import sys

import numpy as np   # also loads the extension that _library() opens

__all__ = ["threads", "one_thread", "cholesky_band", "cho_solver",
           "tridiagonal_solve"]

# thread-count symbols of the OpenBLAS numpy may load; %s is get or set
_NAMES = ("scipy_openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads",
          "openblas_%s_num_threads64_", "openblas_%s_num_threads")

# LAPACK symbols of the same library, in the same order; %s is the
# routine, and its integers are 64-bit exactly for the 64_ suffix
_LAPACK = ("scipy_%s_64_", "scipy_%s_", "%s_64_", "%s_")


def _library():
    """numpy's core extension, loaded as ``numpy._core`` (numpy 2) or
    ``numpy.core`` (numpy 1), opened with ctypes (its symbols include
    those of the OpenBLAS it links), or None."""
    ext = (sys.modules.get("numpy._core._multiarray_umath")   # numpy 2
           or sys.modules.get("numpy.core._multiarray_umath"))   # numpy 1
    try:
        return ctypes.CDLL(ext.__file__)
    except (AttributeError, OSError):
        return None


def _symbols(patterns, *names):
    """(pattern, functions) for the first of ``patterns`` under which
    every one of ``names`` resolves in ``_library()``, or (None, None)."""
    lib = _library()
    for pattern in patterns:
        fns = [getattr(lib, pattern % name, None) for name in names]
        if None not in fns:
            return pattern, fns
    return None, None


def threads():
    """(get, set) of the OpenBLAS thread count, or None when numpy's
    core extension exports none of ``_NAMES``."""
    fns = _symbols(_NAMES, "get", "set")[1]
    if fns is None:
        return None
    get, put = fns
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _lapack(routine):
    """(function, integer type) of the LAPACK ``routine`` numpy's
    OpenBLAS exports; RuntimeError when none of ``_LAPACK`` resolves."""
    name, fns = _symbols(_LAPACK, routine)
    if name is None:
        raise RuntimeError("numpy's BLAS library exports no LAPACK " + routine)
    fns[0].restype = None
    return fns[0], ctypes.c_int64 if name.endswith("64_") else ctypes.c_int


def _ptr(a):
    """Address of an array's data, as a ctypes argument that keeps the
    array alive."""
    return a.ctypes.data_as(ctypes.c_void_p)


def cholesky_band(band):
    """Upper banded Cholesky factor U (U^T U = A) of the symmetric
    positive definite A whose upper band is ``band``, as a new Fortran
    array (LAPACK dpbtrf).  ValueError if the band is not finite or A is
    not positive definite."""
    if not np.isfinite(band).all():
        raise ValueError("the band is not finite")
    fn, int_t = _lapack("dpbtrf")
    chol = np.array(band, dtype=float, order="F")
    info = int_t()
    fn(b"U", ctypes.byref(int_t(chol.shape[1])),
       ctypes.byref(int_t(chol.shape[0] - 1)), _ptr(chol),
       ctypes.byref(int_t(chol.shape[0])), ctypes.byref(info),
       ctypes.c_size_t(1))
    if info.value:
        raise ValueError("banded Cholesky factor failed (info %d): the "
                         "matrix is not positive definite" % info.value)
    return chol


def cho_solver(chol, x):
    """A function of no arguments that overwrites the vector ``x`` with
    the solution of U^T U y = x, U the factor of ``cholesky_band``
    (LAPACK dpbtrs).  Its arguments are built here, once, so a call is
    one foreign call on the buffer ``x``, in place."""
    if (x.shape != chol.shape[1:] or x.dtype != float
            or not x.flags.c_contiguous):
        raise ValueError("the solve needs one contiguous float vector")
    fn, int_t = _lapack("dpbtrs")
    n, info = int_t(chol.shape[1]), int_t()
    args = (b"U", ctypes.byref(n), ctypes.byref(int_t(chol.shape[0] - 1)),
            ctypes.byref(int_t(1)), _ptr(chol),
            ctypes.byref(int_t(chol.shape[0])), _ptr(x), ctypes.byref(n),
            ctypes.byref(info), ctypes.c_size_t(1))

    def solve():
        fn(*args)
        if info.value:
            raise ValueError("banded Cholesky solve failed (info %d)"
                             % info.value)
    return solve


def tridiagonal_solve(band, rhs):
    """Solution of A x = rhs, A symmetric positive definite tridiagonal
    with upper band ``band`` and rhs one vector (LAPACK dptsv).
    ValueError if an input is not finite or A is not positive definite."""
    if not (np.isfinite(band).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    fn, int_t = _lapack("dptsv")
    d, e = band[1].copy(), band[0, 1:].copy()
    x = np.array(rhs, dtype=float)
    if x.shape != d.shape:
        raise ValueError("shapes of the band and the right-hand side differ")
    n, info = int_t(len(d)), int_t()
    fn(ctypes.byref(n), ctypes.byref(int_t(1)), _ptr(d), _ptr(e), _ptr(x),
       ctypes.byref(n), ctypes.byref(info))
    if info.value:
        raise ValueError("tridiagonal solve failed (info %d): the matrix "
                         "is not positive definite" % info.value)
    return x


@contextlib.contextmanager
def one_thread():
    """Hold OpenBLAS to one thread, restoring its count on exit.

    The Monte Carlo pass (``cli._mc_rms``) runs under it: the GEMMs of
    ``solvers.JointSampler``'s set-up round differently at other thread
    counts, so a sampled ``sdr`` study's bytes would follow the host's
    cores.  One thread gives every host the same bits.  A no-op without
    OpenBLAS.
    """
    blas = threads()
    if blas is None:
        yield
        return
    get, put = blas
    prev = get()
    put(1)
    try:
        yield
    finally:
        put(prev)

