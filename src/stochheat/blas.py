"""Thread count of the OpenBLAS that numpy loaded, and one worker thread
that forms the next item while the caller uses the one before it.

OpenBLAS exports its thread-count functions from the library numpy
links; ctypes reaches them through numpy's core extension.  Only the
draw-ahead passes (``ahead``: the Monte Carlo pass ``cli._mc_rms`` and
the sample path ``solvers.cn_fem_path``) import this module, so the
start-up of the CLI does not compile it.
"""

import contextlib
import ctypes
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy  # noqa: F401  (loads the extension that threads() opens)

__all__ = ["threads", "one_thread", "ahead"]

# thread-count symbols of the OpenBLAS numpy may load; %s is get or set
_NAMES = ("scipy_openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads",
          "openblas_%s_num_threads64_", "openblas_%s_num_threads")


def threads():
    """(get, set) of the OpenBLAS thread count, or None when numpy's
    core extension, loaded as ``numpy._core`` (numpy 2) or ``numpy.core``
    (numpy 1), exports none of ``_NAMES``."""
    ext = (sys.modules.get("numpy._core._multiarray_umath")   # numpy 2
           or sys.modules.get("numpy.core._multiarray_umath"))   # numpy 1
    try:
        lib = ctypes.CDLL(ext.__file__)
    except (AttributeError, OSError):
        return None
    for name in _NAMES:
        try:
            get, put = getattr(lib, name % "get"), getattr(lib, name % "set")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def one_thread():
    """Hold OpenBLAS to one thread, restoring its count on exit.

    Idle OpenBLAS workers spin on the other core after each GEMM, where
    the draw-ahead worker (``ahead``) runs.  A no-op without OpenBLAS.
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


@contextlib.contextmanager
def ahead(fn, items):
    """An iterator over fn(x) for x in ``items``, in order, each formed
    on one worker thread while the caller uses the one before it, with
    OpenBLAS held to one thread (``one_thread``).

    The worker also advances ``items``, so a generator of draws runs
    there.  An exception of ``fn`` or ``items`` reaches the caller where
    it asks for that item.  On exit, normal or by an exception on either
    side, an item not yet started is cancelled, the worker is joined and
    the BLAS thread count restored.
    """
    it = iter(items)

    def task():
        for x in it:
            return True, fn(x)
        return False, None

    def results(nxt):
        while True:
            more, out = nxt.result()
            if not more:
                return
            nxt = pool.submit(task)
            yield out

    with one_thread():
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            yield results(pool.submit(task))
        finally:
            pool.shutdown(cancel_futures=True)
