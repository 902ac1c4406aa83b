import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stochheat import quadrature, spectral
from stochheat.spectral import SpectralField


def test_eigenfunctions_orthonormal():
    # check (e_k, e_l) = delta_kl by quadrature for a few pairs
    for k in (1, 2, 5):
        for l in (1, 3, 5):
            val = quadrature.composite_gauss(
                lambda x: SpectralField.basis(k, 5).evaluate(x)
                * SpectralField.basis(l, 5).evaluate(x))
            assert abs(val - (1.0 if k == l else 0.0)) < 1e-12


def test_field_norm_is_coefficient_norm():
    f = SpectralField(np.array([3.0, 4.0]))
    assert f.l2_norm() == 5.0
    val = quadrature.composite_gauss(lambda x: f.evaluate(x) ** 2)
    assert abs(val - 25.0) < 1e-10


def test_semigroup_decays_each_mode():
    f = SpectralField(np.array([1.0, 1.0, 1.0]))
    g = spectral.semigroup_apply(0.1, f)
    lam2 = (np.arange(1, 4) * math.pi) ** 2
    assert np.allclose(g.coeffs, np.exp(-0.1 * lam2))


def test_semigroup_law():
    f = SpectralField(np.linspace(1.0, 0.1, 6))
    one = spectral.semigroup_apply(0.3, spectral.semigroup_apply(0.2, f))
    two = spectral.semigroup_apply(0.5, f)
    assert np.allclose(one.coeffs, two.coeffs, rtol=1e-14)


def test_sin_pi_ratio_reduces_the_integer():
    n = 2048
    m = np.arange(-3 * n, 3 * n)
    base = spectral.sin_pi_ratio(m, n)
    # whole periods 2n added to m change no bit
    assert np.array_equal(spectral.sin_pi_ratio(m + 2 * n * 10**9, n), base)
    assert np.abs(base - np.sin(math.pi * m / n)).max() < 1e-12
    assert spectral.sin_pi_ratio(4 * n * 10**9 + 1, n) == math.sin(math.pi / n)


@settings(max_examples=300, deadline=None)
@given(m=st.lists(st.integers(-2 ** 60, 2 ** 60), min_size=1, max_size=8),
       n=st.integers(1, 2 ** 30))
@example(m=[-(2 ** 60), 2 ** 60, -1, 0, 3 * 999], n=999)
@example(m=[-7, 7, 13, -13, 14], n=7)
@example(m=[24 * 10 ** 9 + 5, -(48 * 10 ** 9) - 1], n=24)
def test_sin_pi_ratio_depends_only_on_m_mod_2n(m, n):
    # the per-mode factor tables gather sin_pi_ratio at m mod 2n, so the
    # two must agree bit for bit, for arrays and for scalars
    m = np.array(m, dtype=np.int64)
    assert spectral.sin_pi_ratio(m, n).tobytes() == \
        spectral.sin_pi_ratio(m % (2 * n), n).tobytes()
    assert np.float64(spectral.sin_pi_ratio(int(m[0]), n)).tobytes() == \
        np.float64(spectral.sin_pi_ratio(int(m[0]) % (2 * n), n)).tobytes()


def test_sin_pi_ratio_is_relatively_accurate_near_multiples_of_pi():
    # folded into [0, n/2] in integers, the float argument never sits
    # near pi or 2 pi, where sin would lose its relative accuracy
    mpmath = pytest.importorskip("mpmath")
    for n in (7, 2048):
        m = np.array([1, n - 1, n + 1, 2 * n - 1, 3 * n + 1, n // 2,
                      n // 2 + 1, 3 * n - 2, -1, -(n + 1)])
        got = spectral.sin_pi_ratio(m, n)
        with mpmath.workdps(30):
            exact = np.array([float(mpmath.sin(mpmath.pi * int(k) / n))
                              for k in m])
        assert np.all(np.abs(got - exact) <= 2.5e-16 * np.abs(exact)), n
    assert spectral.sin_pi_ratio(np.array([0, 2048, 4096]), 2048).tolist() \
        == [0.0, 0.0, 0.0]


def test_field_immutable():
    f = SpectralField(np.array([1.0]))
    with pytest.raises(AttributeError):
        f.coeffs = np.array([2.0])
