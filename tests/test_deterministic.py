import math

import numpy as np
import pytest

from stochheat import deterministic, fem
from stochheat.spectral import SpectralField, semigroup_apply


def test_amplification_bounded_and_exact():
    # |r_m| <= 1 for all mu >= 0, and the closed form matches recursion
    for mu in (0.0, 1.0, 40.0, 1e4, 1e8):
        for m in (1, 2, 7, 100):
            r = deterministic.amplification(mu, m, 0.01)
            assert abs(r) <= 1.0 + 1e-15
    mu, dtau = 37.0, 0.02
    rho = 0.5 * dtau * mu
    val = 1.0
    for m in range(1, 6):
        val = val / (1.0 + rho) if m == 1 else val * (1.0 - rho) / (1.0 + rho)
        assert abs(deterministic.amplification(mu, m, dtau) - val) < 1e-15


def test_step_factors_table():
    mus = np.array([2.0, 50.0])
    F = deterministic.step_factors(mus, 4, 0.1)
    for i, mu in enumerate(mus):
        for m in range(1, 5):
            assert abs(F[i, m - 1]
                       - deterministic.amplification(mu, m, 0.1)) < 1e-14


def test_spectral_scheme_first_step_damped():
    v0 = SpectralField(np.array([1.0]))
    traj = deterministic.modified_cn_spectral(v0, 3, 0.1)
    rho = 0.5 * 0.1 * math.pi**2
    assert abs(traj.states[1, 0] - 1.0 / (1.0 + rho)) < 1e-15
    assert abs(traj.states[2, 0]
               - (1.0 - rho) / (1.0 + rho) ** 2) < 1e-15


def test_spectral_scheme_converges_to_heat():
    # the damped first step costs one order, so the final-time error of
    # the modified scheme is O(dtau); check the asymptotic slope
    v0 = SpectralField(np.array([1.0, -0.5]))
    errs = []
    for M in (128, 256, 512, 1024):
        traj = deterministic.modified_cn_spectral(v0, M, 1.0 / M)
        exact = semigroup_apply(1.0, v0)
        errs.append(float(np.abs(traj.states[-1] - exact.coeffs).max()))
    slope = np.polyfit(np.log([1.0 / M for M in (128, 256, 512, 1024)]),
                       np.log(errs), 1)[0]
    assert 0.8 < slope < 1.2


def test_fem_scheme_matches_eigen_expansion():
    # step the FEM system directly and via its eigenbasis; same answer
    system = fem.assemble(fem.Mesh(10))
    eig = fem.generalized_eigen(system)
    v0 = SpectralField(np.array([1.0, 0.3, -0.2]))
    M, dtau = 12, 0.05
    traj = deterministic.modified_cn_fem(v0, system, M, dtau)
    c0 = eig.vectors.T @ system.mass_dense() @ fem.l2_project(v0, system)
    F = deterministic.step_factors(eig.values, M, dtau)
    nodal = eig.vectors @ (F[:, M - 1] * c0)
    assert np.max(np.abs(traj.states[-1] - nodal)) < 1e-9


def test_fem_energy_decay():
    system = fem.assemble(fem.Mesh(16))
    v0 = SpectralField(np.array([1.0, 1.0, 1.0, 1.0]))
    traj = deterministic.modified_cn_fem(v0, system, 20, 0.01)
    norms = [fem.nodal_l2_norm(traj.states[m], system) for m in range(21)]
    assert all(b <= a + 1e-13 for a, b in zip(norms, norms[1:]))


def test_h1_seminorm_decay():
    system = fem.assemble(fem.Mesh(16))
    v0 = SpectralField(np.array([0.5, 0.2, 0.7]))
    traj = deterministic.modified_cn_fem(v0, system, 15, 0.02)
    semis = [fem.h1_seminorm(traj.states[m], system) for m in range(16)]
    assert all(b <= a + 1e-13 for a, b in zip(semis, semis[1:]))


def test_l2t_error_rejects_mismatched_grids():
    v0 = SpectralField(np.array([1.0]))
    a = deterministic.modified_cn_spectral(v0, 4, 0.25)
    b = deterministic.modified_cn_spectral(v0, 8, 0.125)
    with pytest.raises(ValueError):
        deterministic.l2t_error(a, b)


def test_l2t_error_zero_on_identical():
    v0 = SpectralField(np.array([1.0, 2.0]))
    a = deterministic.modified_cn_spectral(v0, 6, 0.1)
    assert deterministic.l2t_error(a, a) == 0.0
    assert deterministic.l2t_error(a, a, "midpoint") == 0.0


def test_mixed_norm_consistent_with_interpolation():
    # spectral-vs-nodal distance should be close to a fine quadrature
    # of the difference of the two functions
    from stochheat import quadrature
    system = fem.assemble(fem.Mesh(8))
    v0 = SpectralField(np.array([1.0, -0.4]))
    M, dtau = 5, 0.02
    a = deterministic.modified_cn_spectral(v0, M, dtau)
    b = deterministic.modified_cn_fem(v0, system, M, dtau)
    err = deterministic.l2t_error(a, b, "endpoint", system)

    def diff_sq(m):
        return quadrature.composite_gauss(
            lambda x: (a.field(m).evaluate(x)
                       - fem.evaluate_nodal(b.states[m], system.mesh, x)) ** 2)
    direct = math.sqrt(dtau * sum(diff_sq(m) for m in range(1, M + 1)))
    assert abs(err - direct) < 1e-10
