import math

import numpy as np
import pytest

from stochheat import deterministic, fem, noise, solvers


def small_grid(seed=11, n=16, j=8):
    return noise.sample(n, j, 1.0, seed)


def test_interval_overlaps_partition_both_ways():
    V = solvers.interval_overlaps(6, 1.0 / 6.0, 16)
    assert np.allclose(V.sum(axis=0), 1.0 / 16.0)  # each noise cell covered
    assert np.allclose(V.sum(axis=1), 1.0 / 6.0)   # each step covered


def test_time_profile_paths_agree():
    # aligned fast paths must equal the dense fallback
    mus = np.array([1.0, 30.0, 900.0])
    for M, n_star in ((8, 32), (32, 8), (12, 16)):
        dtau = 1.0 / M
        fast = solvers.propagator_time_profile(mus, M, dtau, n_star)
        from stochheat.deterministic import step_factors
        dense = step_factors(mus, M, dtau)[:, ::-1] @ \
            solvers.interval_overlaps(M, dtau, n_star)
        assert np.allclose(fast, dense, rtol=1e-13, atol=1e-16)


def test_spectral_solver_matches_duhamel_map():
    g = small_grid()
    K, M = 10, 8
    traj = solvers.cn_time_discrete(g, K, M)
    m = solvers.map_cn_spectral(16, 8, 1.0, K, M, M)
    assert np.allclose(traj.states[-1], m.reconstruct(g), rtol=1e-12)
    mid = solvers.map_cn_spectral(16, 8, 1.0, K, M, 3)
    assert np.allclose(traj.states[3], mid.reconstruct(g), rtol=1e-12)


def test_fem_solver_matches_duhamel_map():
    g = small_grid(seed=2)
    system = fem.assemble(fem.Mesh(8))
    eig = fem.generalized_eigen(system)
    M = 8
    traj = solvers.cn_fem_spde(g, system, M)
    m = solvers.map_cn_fem(16, 8, 1.0, eig, M, M)
    nodal = eig.vectors @ m.reconstruct(g)
    assert np.allclose(traj.states[-1], nodal, rtol=1e-9, atol=1e-12)


def test_fem_stepper_superposes_initial_data_and_loads():
    # the one banded stepper serves both schemes; it is linear in (v0, L)
    g = small_grid(seed=17)
    system = fem.assemble(fem.Mesh(8))
    M = 8
    v0 = np.sin(math.pi * system.mesh.interior) + system.mesh.interior
    loads = solvers.stochastic_loads_fem(g, system, M)
    both = deterministic.cn_fem_steps(v0, system, M, 1.0 / M, loads).states
    parts = (deterministic.modified_cn_fem(v0, system, M, 1.0 / M).states
             + solvers.cn_fem_spde(g, system, M).states)
    np.testing.assert_allclose(both, parts, rtol=1e-12)


def test_regularized_matches_map():
    g = small_grid(seed=5)
    u = solvers.regularized_exact(g, 12, 1.0)
    m = solvers.map_regularized(16, 8, 1.0, 12, 1.0)
    assert np.allclose(u.coeffs, m.reconstruct(g), rtol=1e-13)


def test_solvers_linear_in_noise():
    g = small_grid(seed=7)
    doubled = noise.NoiseGrid(g.n_star, g.j_star, g.horizon, g.seed,
                              2.0 * g.increments)
    a = solvers.cn_time_discrete(g, 6, 8).states
    b = solvers.cn_time_discrete(doubled, 6, 8).states
    assert np.allclose(2.0 * a, b, rtol=1e-13)


def test_zero_noise_stays_zero():
    g = noise.NoiseGrid(8, 8, 1.0, 0, np.zeros((8, 8)))
    assert not solvers.cn_time_discrete(g, 5, 8).states.any()
    system = fem.assemble(fem.Mesh(6))
    assert not solvers.cn_fem_spde(g, system, 4).states.any()


def test_step_refinement_telescopes_loads():
    # refining dtau with the noise fixed preserves summed loads exactly
    g = small_grid(seed=13)
    for M in (4, 8, 16, 64):
        W = solvers.stochastic_loads_spectral(g, 6, M)
        total = W.sum(axis=1)
        if M == 4:
            ref = total
        else:
            assert np.allclose(total, ref, rtol=1e-13)


def test_second_moment_matches_direct_covariance():
    # brute force E||X||^2 from the exact N(0, dt dx) covariance
    n, j, K = 4, 4, 6
    m = solvers.map_regularized(n, j, 1.0, K, 1.0)
    direct = 0.0
    cell_var = (1.0 / n) * (1.0 / j)
    for nn in range(n):
        for jj in range(j):
            w = m.scale * m.time[:, nn] * m.space[:, jj]
            direct += cell_var * float(w @ w)
    assert abs(m.second_moment() - direct) < 1e-15 * direct


def test_cross_moment_same_basis_is_symmetric_and_cauchy_schwarz():
    a = solvers.map_regularized(8, 8, 1.0, 10, 1.0)
    b = solvers.map_cn_spectral(8, 8, 1.0, 10, 8, 8)
    ab = solvers.cross_moment(a, b)
    ba = solvers.cross_moment(b, a)
    assert abs(ab - ba) < 1e-15
    assert ab**2 <= a.second_moment() * b.second_moment() * (1.0 + 1e-14)


def test_cross_moment_cross_basis_matches_monte_carlo():
    n, j, K, M = 8, 8, 16, 8
    eig = fem.generalized_eigen(fem.assemble(fem.Mesh(8)))
    a = solvers.map_regularized(n, j, 1.0, K, 1.0)
    b = solvers.map_cn_fem(n, j, 1.0, eig, M, M)
    gram = solvers.spectral_fem_gram(K, eig)
    exact = solvers.cross_moment(a, b, gram)
    vals = []
    for s in range(400):
        g = noise.sample(n, j, 1.0, 5000 + s)
        vals.append(float(a.reconstruct(g) @ gram @ b.reconstruct(g)))
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - exact) < 3.5 * se


def test_map_rejects_foreign_grid():
    m = solvers.map_regularized(8, 8, 1.0, 4, 1.0)
    with pytest.raises(ValueError):
        m.reconstruct(noise.sample(8, 4, 1.0, 0))
    with pytest.raises(ValueError):
        m.reconstruct(noise.sample(8, 8, 2.0, 0))


def test_cross_moment_rejects_horizon_mismatch():
    a = solvers.map_regularized(8, 8, 1.0, 4, 1.0)
    b = solvers.map_regularized(8, 8, 2.0, 4, 1.0)
    with pytest.raises(ValueError):
        solvers.cross_moment(a, b)


def test_map_diff_requires_shared_space_factors():
    a = solvers.map_regularized(8, 8, 1.0, 4, 1.0)
    b = solvers.map_cn_spectral(8, 8, 1.0, 4, 8, 8)
    d = a.diff(b)
    g = small_grid(seed=3, n=8, j=8)
    assert np.allclose(d.reconstruct(g),
                       a.reconstruct(g) - b.reconstruct(g), rtol=1e-13)
    eig = fem.generalized_eigen(fem.assemble(fem.Mesh(4)))
    c = solvers.map_cn_fem(8, 8, 1.0, eig, 8, 8)
    with pytest.raises(ValueError):
        a.diff(c)
