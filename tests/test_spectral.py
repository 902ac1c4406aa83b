import math

import numpy as np
import pytest

from stochheat import quadrature, spectral
from stochheat.spectral import SpectralField


def test_eigenfunctions_orthonormal():
    # check (e_k, e_l) = delta_kl by quadrature for a few pairs
    for k in (1, 2, 5):
        for l in (1, 3, 5):
            val = quadrature.composite_gauss(
                lambda x: spectral.eigenfunction_eval(k, x)
                * spectral.eigenfunction_eval(l, x))
            assert abs(val - (1.0 if k == l else 0.0)) < 1e-12


def test_eigenfunction_rejects_outside_domain():
    with pytest.raises(ValueError):
        spectral.eigenfunction_eval(1, np.array([-0.1]))


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


def test_green_kernel_partial_sum_integrates_semigroup():
    # int G_t(x, y) e_1(y) dy should approach e^{-pi^2 t} e_1(x)
    t, x = 0.05, 0.37
    val = quadrature.composite_gauss(
        lambda y: spectral.green_kernel_eval(t, x, y, 60)
        * spectral.eigenfunction_eval(1, y))
    expect = math.exp(-math.pi**2 * t) * spectral.eigenfunction_eval(1, x)
    assert abs(val - expect) < 1e-10


def test_green_kernel_needs_positive_time():
    with pytest.raises(ValueError):
        spectral.green_kernel_eval(0.0, 0.5, 0.5, 10)


def test_hdot_norm_scaling():
    f = SpectralField.basis(2, 2)
    lam = 2.0 * math.pi
    assert abs(spectral.hdot_norm(f, 1.0) - lam) < 1e-14
    assert abs(spectral.hdot_norm(f, -1.0) - 1.0 / lam) < 1e-14
    assert spectral.hdot_norm(f, 0.0) == f.l2_norm()


def test_elliptic_inverse_mode():
    # T_E applied to a mode divides by -lambda^2 (sign from -Laplacian inverse
    # acting on the forcing convention used throughout)
    f = SpectralField.basis(3, 3)
    g = spectral.elliptic_inverse(f)
    assert abs(g.coeffs[2] + 1.0 / (3 * math.pi) ** 2) < 1e-16


def test_elliptic_inverse_solves_poisson():
    # -(T_E f)'' = -f, checked weakly against a smooth test mode
    f = SpectralField(np.array([0.7, -0.3, 0.2]))
    g = spectral.elliptic_inverse(f)
    assert np.allclose(g.coeffs * (np.arange(1, 4) * math.pi) ** 2,
                       -f.coeffs)


def test_truncation_rule_matches_reference_count():
    K = spectral.truncation_for_tolerance(1.0 / (math.pi**2 * 100.0))
    assert K == 100


def test_truncation_rule_refuses_huge_counts():
    with pytest.raises(ValueError):
        spectral.truncation_for_tolerance(1e-300)


def test_sin_pi_ratio_reduces_the_integer():
    n = 2048
    m = np.arange(-3 * n, 3 * n)
    base = spectral.sin_pi_ratio(m, n)
    # whole periods 2n added to m change no bit
    assert np.array_equal(spectral.sin_pi_ratio(m + 2 * n * 10**9, n), base)
    assert np.abs(base - np.sin(math.pi * m / n)).max() < 1e-12
    assert spectral.sin_pi_ratio(4 * n * 10**9 + 1, n) == math.sin(math.pi / n)


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


def test_field_arithmetic():
    a = SpectralField(np.array([1.0, 2.0]))
    b = SpectralField(np.array([0.5, -1.0]))
    assert np.allclose((a + b).coeffs, [1.5, 1.0])
    assert np.allclose((a - b).coeffs, [0.5, 3.0])
    assert np.allclose((a * 2.0).coeffs, [2.0, 4.0])


def test_field_immutable():
    f = SpectralField(np.array([1.0]))
    with pytest.raises(AttributeError):
        f.coeffs = np.array([2.0])
