import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochheat import deterministic, fem, noise, solvers
from stochheat.spectral import SpectralField


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


def _fem_schemes(g, M):
    system = fem.assemble(fem.Mesh(8))
    v0 = np.sin(math.pi * system.mesh.interior) + system.mesh.interior
    loads = solvers.stochastic_loads_fem(g, system, M)
    return (deterministic.cn_fem_steps(v0, system, M, 1.0 / M, loads),
            deterministic.modified_cn_fem(v0, system, M, 1.0 / M),
            solvers.cn_fem_spde(g, system, M))


def _spectral_schemes(g, M):
    K = 10
    v0 = np.linspace(1.0, -0.5, K)
    lam2 = (np.arange(1, K + 1) * math.pi) ** 2
    loads = solvers.stochastic_loads_spectral(g, K, M)
    return (deterministic.cn_spectral_steps(v0, lam2, M, 1.0 / M, loads),
            deterministic.modified_cn_spectral(SpectralField(v0), M, 1.0 / M),
            solvers.cn_time_discrete(g, K, M))


@pytest.mark.parametrize("schemes", [_fem_schemes, _spectral_schemes],
                         ids=["fem", "spectral"])
def test_cn_stepper_superposes_initial_data_and_loads(schemes):
    # one stepper per basis serves both schemes; it is linear in (v0, L)
    both, homogeneous, forced = schemes(small_grid(seed=17), 8)
    np.testing.assert_allclose(both.states,
                               homogeneous.states + forced.states, rtol=1e-12)


def test_regularized_matches_map():
    g = small_grid(seed=5)
    K = 12
    u = solvers.regularized_exact(g, K, 1.0)
    I = noise.time_overlaps(np.arange(1, K + 1), 1.0, g.n_star)
    P = noise.mode_cell_integrals(K, g.j_star) @ g.increments.T
    ref = np.einsum("kn,kn->k", I, P) / (g.dt * g.dx)
    assert np.allclose(u.coeffs, ref, rtol=1e-13)


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
    cell_var = (1.0 / n) * (1.0 / j)
    for t in (1.0, 0.0):
        m = solvers.map_regularized(n, j, 1.0, K, t)
        direct = 0.0
        for nn in range(n):
            for jj in range(j):
                w = m.scale * m.time.dense()[:, nn] * m.space()[:, jj]
                direct += cell_var * float(w @ w)
        assert abs(m.second_moment() - direct) <= 1e-15 * direct


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
    exact = solvers.cross_moment(a, b)
    gram = fem.sine_hat_inner_matrix(K, eig.system.mesh) @ eig.vectors
    vals = []
    for s in range(400):
        g = noise.sample(n, j, 1.0, 5000 + s)
        vals.append(float(a.reconstruct(g) @ gram @ b.reconstruct(g)))
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - exact) < 3.5 * se


@pytest.mark.parametrize("J, K", [(16, 7), (16, 16), (16, 32), (8, 200),
                                  (2, 9)])
def test_pairing_matches_dense_gram(J, K):
    # K < nu, K = J, K = 2J and K >> J; k = 0, J (mod 2J) meet no phi_p
    eig = fem.generalized_eigen(fem.assemble(fem.Mesh(J)))
    dense = fem.sine_hat_inner_matrix(K, eig.system.mesh) @ eig.vectors
    rows, g = solvers.spectral_fem_gram(K, eig)
    ks = np.arange(1, K + 1)
    zero = (ks % J) == 0
    assert np.all(g[zero] == 0.0) and np.all(rows[zero] == 0)
    assert np.all((0 <= rows) & (rows < J - 1))
    paired = np.zeros_like(dense)
    paired[np.arange(K), rows] = g
    assert np.abs(paired - dense).max() <= 1e-12 * np.abs(dense).max()


def test_cross_moment_rejects_unpaired_bases():
    # FEM maps on different meshes share no basis and have no pairing;
    # a FEM map meets a sine map only as the second map
    fem4, fem8 = [solvers.map_cn_fem(8, 8, 1.0, fem.generalized_eigen(
        fem.assemble(fem.Mesh(J))), 8, 8) for J in (4, 8)]
    sine = solvers.map_cn_spectral(8, 8, 1.0, 12, 8, 8)
    solvers.cross_moment(fem4, fem4)
    solvers.cross_moment(sine, fem8)
    for pair in ((fem4, fem8), (fem8, sine)):
        with pytest.raises(ValueError, match="do not pair"):
            solvers.cross_moment(*pair)


def test_map_rejects_foreign_grid():
    m = solvers.map_regularized(8, 8, 1.0, 4, 1.0)
    with pytest.raises(ValueError):
        m.reconstruct(noise.sample(8, 4, 1.0, 0))
    with pytest.raises(ValueError):
        m.reconstruct(noise.sample(8, 8, 2.0, 0))


@pytest.mark.parametrize("t", [-0.5, 1.5])
def test_map_regularized_rejects_time_outside_horizon(t):
    with pytest.raises(ValueError, match="time outside"):
        solvers.map_regularized(8, 8, 1.0, 4, t)
    with pytest.raises(ValueError, match="time outside"):
        solvers.regularized_exact(small_grid(), 4, t)


def test_cross_moment_rejects_horizon_mismatch():
    a = solvers.map_regularized(8, 8, 1.0, 4, 1.0)
    b = solvers.map_regularized(8, 8, 2.0, 4, 1.0)
    with pytest.raises(ValueError):
        solvers.cross_moment(a, b)


def test_sine_maps_share_one_space_factor():
    # the cell integrals depend only on (K, J*): one array per pair
    u = solvers.map_regularized(8, 8, 1.0, 6, 1.0)
    a = solvers.map_cn_spectral(8, 8, 1.0, 6, 4, 4)
    assert u.space() is a.space()
    assert not u.space().flags.writeable


# rho = dtau mu / 2 below 1, exactly 1 (q = 0), above 1, and stiff
_RHOS = st.lists(st.one_of(st.floats(1e-6, 0.999), st.just(1.0),
                           st.floats(1.001, 50.0), st.floats(1e2, 1e8)),
                 min_size=1, max_size=5)


def _dense_gram(a, b, rows):
    B = b.dense() if rows is None else b.dense()[rows]
    return (a.dense() * B).sum(1)


@settings(max_examples=60, deadline=None)
@given(M=st.integers(1, 32), p=st.integers(1, 6), e=st.integers(4, 6),
       data=st.data())
def test_time_gram_closed_forms_match_dense(M, p, e, data):
    # dtau = 2^-e keeps rho = dtau mu / 2 exact, so rho = 1 is hit exactly
    dtau = 2.0 ** -e
    horizon = M * dtau
    m = data.draw(st.integers(1, M))
    mus_a = 2.0 * np.array(data.draw(_RHOS)) / dtau
    mus_b = 2.0 * np.array(data.draw(_RHOS)) / dtau
    ks_a, ks_b = (data.draw(st.lists(st.integers(1, 256), min_size=n,
                                     max_size=n))
                  for n in (mus_a.size, mus_b.size))
    cn_a = solvers.PropagatorProfile(mus_a, m, dtau, M * p, horizon)
    cn_b = solvers.PropagatorProfile(mus_b, m, dtau, M * p, horizon)
    over = solvers.OverlapProfile(ks_a, m * dtau, M * p, horizon)
    over_b = solvers.OverlapProfile(ks_b, m * dtau, M * p, horizon)
    pairs = [(cn_a, cn_b), (cn_a, cn_a), (over, cn_b), (cn_b, over),
             (over, cn_a), (over, over), (over, over_b)]
    if M >= 2:
        # steps dtau and 2 dtau that end in the same noise cell
        mc = data.draw(st.integers(1, M // 2))
        fine = solvers.PropagatorProfile(mus_a, 2 * mc, dtau, M * p, horizon)
        coarse = solvers.PropagatorProfile(mus_b, mc, 2.0 * dtau, M * p,
                                           horizon)
        pairs += [(fine, coarse), (coarse, fine)]
    cases = []
    for a, b in pairs:
        paired = np.array(data.draw(st.lists(
            st.integers(0, b.shape[0] - 1), min_size=a.shape[0],
            max_size=a.shape[0])))
        cases += [(a, b, rows) for rows in (None, paired)
                  if rows is not None or a.shape[0] == b.shape[0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [solvers.time_gram(a, b, rows) for a, b, rows in cases]
    # every pair is aligned: the closed form builds no dense profile
    assert all(x._array is None for pair in pairs for x in pair)
    for (a, b, rows), g in zip(cases, got):
        ref = _dense_gram(a, b, rows)
        na = np.sqrt((a.dense() ** 2).sum(1))
        nb = np.sqrt((b.dense() ** 2).sum(1))
        scale = na * (nb if rows is None else nb[rows])
        assert g.shape == ref.shape
        assert np.all(np.abs(g - ref) <= 1e-12 * scale)
    sq = noise.time_overlap_sq_sum(ks_a, m * dtau, M * p, horizon)
    assert np.all(np.abs(solvers.time_gram(over, over) - sq) <= 1e-14 * sq)


@pytest.mark.parametrize("horizon, n_star, M", [(0.3, 24, 16), (1.0, 8, 16)])
def test_time_gram_falls_back_to_dense(horizon, n_star, M):
    # non-aligned steps, and steps finer than the noise cells
    K = 6
    ks = np.arange(1, K + 1)
    lam2 = (ks * math.pi) ** 2
    dtau = horizon / M
    eig = fem.generalized_eigen(fem.assemble(fem.Mesh(K + 1)))
    cn = solvers.PropagatorProfile(lam2, M, dtau, n_star, horizon)
    cn_h = solvers.PropagatorProfile(eig.values, M, dtau, n_star, horizon)
    over = solvers.OverlapProfile(ks, M * dtau, n_star, horizon)
    for a, b in ((cn, cn), (cn, cn_h), (over, cn), (over, cn_h)):
        for rows in (None, np.arange(K)[::-1]):
            assert np.array_equal(solvers.time_gram(a, b, rows),
                                  _dense_gram(a, b, rows))
