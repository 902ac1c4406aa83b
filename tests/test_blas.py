import sys

import numpy as np
import pytest

from stochheat import blas, deterministic, fem


def test_one_thread_holds_and_restores():
    get_set = blas.threads()
    if get_set is None:
        pytest.skip("numpy exports no OpenBLAS thread-count symbol")
    get, put = get_set
    prev = get()
    try:
        put(2)
        with blas.one_thread():
            assert get() == 1
        assert get() == 2
        with pytest.raises(KeyError):
            with blas.one_thread():
                assert get() == 1
                raise KeyError("inside")
        assert get() == 2
    finally:
        put(prev)


def test_one_thread_without_openblas_is_a_no_op(monkeypatch):
    get_set = blas.threads()   # the real symbols, if any
    before = get_set and get_set[0]()
    monkeypatch.setattr(blas, "_NAMES", ("no_such_%s_symbol",))
    assert blas.threads() is None
    with blas.one_thread():
        assert (get_set and get_set[0]()) == before
    assert (get_set and get_set[0]()) == before


def test_threads_finds_the_numpy_1_extension(monkeypatch):
    # numpy 1.x loads its core extension as numpy.core._multiarray_umath
    # and has no numpy._core
    get_set = blas.threads()
    if get_set is None:
        pytest.skip("numpy exports no OpenBLAS thread-count symbol")
    ext = (sys.modules.get("numpy._core._multiarray_umath")
           or sys.modules["numpy.core._multiarray_umath"])
    monkeypatch.delitem(sys.modules, "numpy._core._multiarray_umath",
                        raising=False)
    monkeypatch.setitem(sys.modules, "numpy.core._multiarray_umath", ext)
    found = blas.threads()
    assert found is not None and found[0]() == get_set[0]()
    monkeypatch.delitem(sys.modules, "numpy.core._multiarray_umath")
    assert blas.threads() is None


def test_lapack_without_a_symbol_raises_runtime_error(monkeypatch):
    # no scipy fallback: a BLAS without the LAPACK routine fails the
    # first solve
    system = fem.assemble(fem.Mesh(8))
    monkeypatch.setattr(blas, "_LAPACK", ("no_such_%s_symbol",))
    with pytest.raises(RuntimeError, match="dptsv"):
        system.mass_solve(np.ones(system.mesh.nu))
    with pytest.raises(RuntimeError, match="dpbtrf"):
        deterministic.cn_fem_stepper(system, 0.1)


def test_band_that_is_not_positive_definite_raises_value_error():
    system = fem.assemble(fem.Mesh(8))
    negative = -system.mass_band
    with pytest.raises(ValueError, match="positive definite"):
        blas.cholesky_band(negative)
    with pytest.raises(ValueError, match="positive definite"):
        blas.tridiagonal_solve(negative, np.ones(system.mesh.nu))
    with pytest.raises(ValueError, match="positive definite"):
        deterministic.cn_fem_stepper(system, -1.0)   # M - S/2 is not
    for bad in (np.inf, np.nan):
        band = system.mass_band.copy()
        band[1, 3] = bad
        with pytest.raises(ValueError, match="not finite"):
            blas.cholesky_band(band)
