import itertools
import math
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stochheat import cli, deterministic, fem, noise, solvers
from stochheat.spectral import SpectralField, sin_pi_ratio


def small_grid(seed=11, n=16, j=8):
    return noise.sample(n, j, 1.0, seed)


def test_interval_overlaps_partition_both_ways():
    V = solvers.interval_overlaps(6, 1.0 / 6.0, 16)
    assert np.allclose(V.sum(axis=0), 1.0 / 16.0)  # each noise cell covered
    assert np.allclose(V.sum(axis=1), 1.0 / 6.0)   # each step covered


@pytest.mark.parametrize("horizon, n_star, M", [(0.3, 24, 16), (0.3, 24, 64),
                                                (1.0, 3000, 512)])
def test_interval_overlaps_match_rational_arithmetic(horizon, n_star, M):
    # within 1 ulp of the rational overlap, and exactly 0 where the step
    # and the cell share no more than an end point
    V = solvers.interval_overlaps(M, horizon / M, n_star, horizon)
    H = Fraction(horizon)
    ref = np.zeros((M, n_star))
    for l in range(M):
        lo, hi = H * l / M, H * (l + 1) / M
        for n in range(max(0, l * n_star // M - 1),
                       min(n_star, (l + 1) * n_star // M + 2)):
            width = min(hi, H * (n + 1) / n_star) - max(lo, H * n / n_star)
            ref[l, n] = float(max(width, 0))
    assert np.array_equal(V == 0.0, ref == 0.0)
    assert np.all(np.abs(V - ref) <= np.spacing(ref))


def test_interval_overlaps_peak_is_its_result():
    # 999 steps on 1000 cells, one period: the integer overlaps are formed
    # in the result's own buffer, with no full-size temporary beside it
    solvers.interval_overlaps(2, 0.5, 3)
    tracemalloc.start()
    try:
        V = solvers.interval_overlaps(999, 1.0 / 999, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert V.shape == (999, 1000)
    assert peak <= 1.1 * V.nbytes


def _spread(profile):
    """``steps()`` weights, each repeated over its p cells (cells past
    the last step weigh 0): the profile's dense form."""
    W, p = profile.steps()
    out = np.zeros(profile.shape)
    out[:, : W.shape[1] * p] = np.repeat(W, p, axis=1)
    return out


@pytest.mark.parametrize("N, M, horizon", [
    (64, 64, 1.0), (374, 374, 1.0), (24, 16, 0.3), (8, 16, 1.0),
    (48, 16, 1.0)], ids=["aligned", "aligned-374", "3-cells-per-2-steps",
                         "sub-cell", "3-cells-per-step"])
def test_steps_build_only_the_live_band_bit_for_bit(N, M, horizon):
    # the exponents that underflow (regularized, FEM and q < 0 rows at
    # rho = 3 and 1e8) leave 0 exactly where the dense oracle is 0, and a
    # window of runs has every bit of those runs of the whole, signed
    # zeros (amp < 0) included
    K = 3 * 256 + 5
    ks = np.arange(1, K + 1)
    dtau = horizon / M
    mus = np.concatenate([(ks * math.pi) ** 2, _FEM_VALUES,
                          2.0 * np.array([1.0, 0.5, 3.0, 1e8]) / dtau])
    profiles = [solvers.OverlapProfile(ks, t, N, horizon)
                for t in (horizon, horizon - 0.5 * horizon / N)]
    profiles += [solvers.PropagatorProfile(mus, m, dtau, N, horizon)
                 for m in (M, M - 1, 1)]
    for x in profiles:
        got, ref = _spread(x), x.dense()
        assert np.array_equal(got == 0.0, ref == 0.0)
        tol = 1e-13 * _abs_dense(x).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= tol)
        runs = x.geometric[4] // x.geometric[3]
        lo = runs // 3   # a window that starts past the first run
        assert x.columns(lo, runs).tobytes() == \
            np.ascontiguousarray(x.columns(0, runs)[:, lo:]).tobytes()


def test_time_profile_paths_agree():
    # an aligned CN profile (p whole cells per step) against the oracle
    mus = np.array([1.0, 30.0, 900.0, 1e5])
    for M, m, n_star in ((8, 8, 32), (8, 3, 32), (4, 4, 4), (16, 5, 64)):
        A = solvers.PropagatorProfile(mus, m, 1.0 / M, n_star, 1.0)
        assert A.geometric[3] == n_star // M
        assert np.array_equal(_spread(A), A.dense())   # dyadic: same bits
    # dt = 0.3/24 is no float: the two kernels round apart in the last bit
    lam2 = (np.arange(1, 1025) * math.pi) ** 2
    A = solvers.PropagatorProfile(lam2, 8, 0.3 / 8, 24, 0.3)
    assert A.geometric[3] == 3
    dense = A.dense()
    scale = np.abs(dense).max(axis=1, keepdims=True)
    assert np.all(np.abs(_spread(A) - dense) <= 1e-13 * scale)


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


@pytest.mark.parametrize("block", [1, 64], ids=["one-period", "two-pieces"])
@pytest.mark.parametrize("n_star, M, horizon", [
    (64, 64, 1.0), (24, 16, 0.3), (8, 16, 1.0), (3, 64, 1.0)],
    ids=["aligned", "3-cells-per-2-steps", "2-steps-per-cell",
         "one-period-is-the-grid"])
def test_cn_fem_spde_in_blocks_matches_one_pass(n_star, M, horizon, block,
                                                monkeypatch):
    # the streamed path in blocks of whole noise periods, and pieces of
    # states within a block (4 steps at nu = 15 with a budget of 64),
    # steps on from where the last one ended: each load is a fixed-order
    # sum over its own cells, so it has the bits of one pass of the
    # stepper on the whole grid's loads
    monkeypatch.setattr(solvers, "_PATH_BLOCK", block)
    system = fem.assemble(fem.Mesh(16))
    streamed = np.concatenate(list(solvers.cn_fem_path(n_star, 16, horizon,
                                                       3, system, M)))
    whole = solvers.cn_fem_spde(noise.sample(n_star, 16, horizon, 3),
                                system, M).states
    assert streamed.tobytes() == whole.tobytes()


def test_cn_fem_path_holds_one_block_of_loads(monkeypatch):
    # each block's loads are dropped once it is stepped: none is alive
    # when the next block's loads are formed
    monkeypatch.setattr(solvers, "_PATH_BLOCK", 16 * 16)
    cell_loads, formed, alive = solvers._cell_loads, [], []

    def watched(*args):
        alive.append(sum(ref() is not None for ref in formed))
        loads = cell_loads(*args)
        formed.append(weakref.ref(loads))
        return loads
    monkeypatch.setattr(solvers, "_cell_loads", watched)
    for _ in solvers.cn_fem_path(64, 16, 1.0, 0, fem.assemble(fem.Mesh(8)),
                                 64):
        pass
    assert alive == [0, 0, 0, 0]


@pytest.mark.parametrize("M", [0, -1, -2])
def test_cn_fem_spde_needs_a_step(M):
    # the solver and both load builders, before any states are allocated
    g = noise.sample(4, 8, 1.0, 0)
    system = fem.assemble(fem.Mesh(8))
    for build in (solvers.cn_fem_spde, solvers.stochastic_loads_fem):
        with pytest.raises(ValueError, match="at least one step"):
            build(g, system, M)
    with pytest.raises(ValueError, match="at least one step"):
        solvers.stochastic_loads_spectral(g, 8, M)


@pytest.mark.parametrize("budget", [64, None], ids=["small-blocks",
                                                  "default-blocks"])
@pytest.mark.parametrize("n_star, M", [(24, 16), (3, 4096)],
                         ids=["3-cells-per-2-steps", "one-period-is-the-grid"])
def test_cn_fem_path_draws_whole_periods(n_star, M, budget, monkeypatch):
    # 3 cells per 2 steps, and 3 cells per 4096 steps: a = 3 either way
    if budget:
        monkeypatch.setattr(solvers, "_PATH_BLOCK", budget)
    draw, asked = noise.sample_blocks, []

    def recorded(n_star, j_star, horizon, seed, rows):
        asked.append(rows)
        return draw(n_star, j_star, horizon, seed, rows)
    monkeypatch.setattr(noise, "sample_blocks", recorded)
    system = fem.assemble(fem.Mesh(16))
    steps = sum(len(s) for s in solvers.cn_fem_path(n_star, 16, 1.0, 3,
                                                     system, M))
    assert steps == M + 1
    assert len(asked) == 1 and asked[0] % 3 == 0 and asked[0] >= 3


def _fem_schemes(g, M):
    system = fem.assemble(fem.Mesh(8))
    x = system.mesh.nodes[1:-1]
    v0 = np.sin(math.pi * x) + x
    loads = solvers.stochastic_loads_fem(g, system, M)
    return (deterministic.modified_cn_fem(v0, system, M, 1.0 / M, loads),
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
    P = noise.mode_cell_integrals(K, g.j_star) @ g.increments.T
    # t = T, a cell end, inside a cell (the tail column), in the first cell
    for t in (1.0, 0.5, 0.61, 0.01):
        u = solvers.regularized_exact(g, K, t)
        I = noise.time_overlaps(np.arange(1, K + 1), t, g.n_star)
        ref = np.einsum("kn,kn->k", I, P) / (g.dt * g.dx)
        assert np.allclose(u.coeffs, ref, rtol=1e-13, atol=0)


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


@pytest.mark.parametrize("j_star, J, K", [(24, 16, 7), (24, 16, 83),
                                          (32, 16, 100), (16, 8, 16)])
def test_folded_cross_term_matches_dense_cell_integrals(j_star, J, K):
    # c (S beta^T)[alias, rows] against the K x J* cell integral rows of
    # each sine mode dotted with its FEM partner's row, where J divides
    # J* and where it does not
    eig = fem.generalized_eigen(fem.assemble(fem.Mesh(J)))
    a = solvers.map_regularized(16, j_star, 1.0, K, 1.0)
    b = solvers.map_cn_fem(16, j_star, 1.0, eig, 8, 8)
    rows, g, w = pairing = solvers._pairing(a, b)
    beta = b.space()
    space = np.einsum("kj,kj->k", noise.mode_cell_integrals(K, j_star),
                      beta[rows])
    dense = (a.cell_area * a.scale * b.scale * g
             * solvers.time_gram(a.time, b.time, rows) * space)
    folded = solvers._moment(a, b, pairing)
    assert np.abs(folded - dense).max() <= 1e-13 * np.abs(dense).max()


def _dense_cell_side(K, J, j_star):
    """The fold products the closed forms replace, beta = V^T O: per mode
    k, c_k (S beta^T)[alias_k, rows_k] and its Cauchy-Schwarz scale; per
    FEM row, (beta**2).sum(1) and the energy of |V|^T O as its scale."""
    eig = fem.generalized_eigen(fem.assemble(fem.Mesh(J)))
    rows, _ = solvers.spectral_fem_gram(K, eig)
    O = fem.hat_cell_overlap_matrix(eig.system.mesh, j_star)
    beta = eig.vectors.T @ O
    alias, c, S = noise.sine_cell_fold(K, j_star)
    energies = (beta ** 2).sum(1)
    scale = np.abs(c) * np.sqrt((S ** 2).sum(1)[alias] * energies[rows])
    return (eig, rows, c * (S @ beta.T)[alias, rows], scale, energies,
            ((np.abs(eig.vectors.T) @ O) ** 2).sum(1))


@pytest.mark.parametrize("j_star, J", [(64, 16), (16, 16), (24, 16), (12, 8),
                                       (8, 32), (6, 16)],
                         ids=["J|J*", "J=J*", "J~|J*", "J~|J*-2", "J>J*",
                              "J>J*-odd"])
@pytest.mark.parametrize("modes", [lambda js: js // 2 + 1, lambda js: 4 * js,
                                   lambda js: 13 * js + 5],
                         ids=["K<J*", "K=4J*", "K>12J*"])
def test_cell_side_closed_forms_match_dense_fold(j_star, J, modes):
    # every (k, rows_k) pair of the alias pairing, its dead modes (g_k = 0,
    # rows_k = 0) too, and every FEM row energy
    K = modes(j_star)
    eig, rows, cross, scale, energies, e_scale = _dense_cell_side(
        K, J, j_star)
    got = solvers.sine_fem_cell_cross(K, rows, eig, j_star)
    assert np.all(np.abs(got - cross) <= 1e-12 * scale)
    assert np.all(np.abs(fem.cell_energies(eig, j_star) - energies)
                  <= 1e-12 * e_scale)


@pytest.mark.parametrize("j_star, J", [(8, 4), (6, 4), (4, 8), (3, 4)])
def test_cell_side_closed_forms_match_mpmath(j_star, J):
    # cell integrals of phi_p split at the nodes, of e_k from the cosine
    # antiderivative, and their products summed, all at 30 digits
    mpmath = pytest.importorskip("mpmath")
    K = 4 * j_star + 3
    eig = fem.generalized_eigen(fem.assemble(fem.Mesh(J)))
    rows, _ = solvers.spectral_fem_gram(K, eig)
    with mpmath.workdps(30):
        pi = mpmath.pi

        def mp(x):
            return mpmath.mpf(x.numerator) / x.denominator

        def phi(p, x):    # the interpolant of c_p sin(p pi x_i) at x
            i = math.floor(x * J)
            t = mp(x * J - i)
            return mpmath.sqrt(6 / (2 + mpmath.cos(p * pi / J))) * (
                (1 - t) * mpmath.sin(p * pi * i / J)
                + t * mpmath.sin(p * pi * (i + 1) / J))

        def beta(p, j):   # midpoint rule on each linear piece of the cell
            lo, hi = Fraction(j, j_star), Fraction(j + 1, j_star)
            cuts = sorted({lo, hi} | {Fraction(i, J) for i in range(J)
                                      if lo < Fraction(i, J) < hi})
            return mpmath.fsum(mp(b - a) * phi(p, (a + b) / 2)
                               for a, b in zip(cuts, cuts[1:]))

        B = [[beta(p, j) for j in range(j_star)] for p in range(1, J)]
        cross = [float(mpmath.fsum(
            mpmath.sqrt(2) / (k * pi) * (mpmath.cos(k * pi * j / j_star)
                                        - mpmath.cos(k * pi * (j + 1)
                                                     / j_star)) * B[p][j]
            for j in range(j_star))) for k, p in zip(range(1, K + 1), rows)]
        energies = [float(mpmath.fsum(b * b for b in row)) for row in B]
    got = solvers.sine_fem_cell_cross(K, rows, eig, j_star)
    assert np.abs(got - cross).max() <= 1e-14 * np.abs(cross).max()
    got = fem.cell_energies(eig, j_star)
    assert np.abs(got - energies).max() <= 1e-14 * max(energies)


@pytest.mark.parametrize("horizon, n_star, M", [(1.0, 16, 16), (1.0, 64, 16),
                                                (0.3, 24, 16)])
def test_folded_reconstruct_matches_dense_maps(horizon, n_star, M):
    # p = 1 and p = 4 noise cells per step, and a non-aligned grid; sine
    # maps with K < J*, with K wrapping the period 4 J* of the cell
    # integrals, and on J* = 24, each at the last step, at step 5 and
    # regularized; FEM maps on meshes 4 and 8 at both steps
    for j_star, K in ((16, 5), (8, 37), (24, 50)):
        grid = noise.sample(n_star, j_star, horizon, 3)
        B = noise.mode_cell_integrals(K, j_star)
        maps = [(solvers.map_cn_spectral(n_star, j_star, horizon, K, M, step),
                 B) for step in (M, 5)]
        maps.append((solvers.map_regularized(n_star, j_star, horizon, K,
                                             horizon), B))
        for J in ((4, 8) if j_star == 8 else ()):
            eig = fem.generalized_eigen(fem.assemble(fem.Mesh(J)))
            maps += [(solvers.map_cn_fem(n_star, 8, horizon, eig, M, step),
                      None) for step in (M, 5)]
        for m, space in maps:
            if space is None:
                space = m.space()
            ref = m.scale * np.einsum("kn,kn->k", m.time.dense(),
                                      space @ grid.increments.T)
            got = m.reconstruct(grid)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


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


def _gram_per_mode(K, eigen):
    """``spectral_fem_gram`` with every factor evaluated per mode k."""
    J = eigen.system.mesh.intervals
    ks = np.arange(1, K + 1)
    r = ks % (2 * J)
    p = np.minimum(r, 2 * J - r)
    live = (p > 0) & (p < J)
    g = (np.where(r < J, 0.5, -0.5) * J * J * fem._eigen_scale(p, J)
         * math.sqrt(2.0) * 4.0 * sin_pi_ratio(r, 2 * J) ** 2
         / (ks * math.pi) ** 2)
    return np.where(live, p - 1, 0), np.where(live, g, 0.0)


def _cell_cross_per_mode(K, rows, eigen, j_star):
    """``sine_fem_cell_cross`` with every factor evaluated per mode k: the
    fold row r, the amplitude c_k, the tent sums a and b, c_p and the sines
    in p and r, each from k's own integers, summed in the same order."""
    J = eigen.system.mesh.intervals
    g = math.gcd(J, j_star)
    ks = np.arange(1, K + 1)
    quot, s = np.divmod(ks, 2 * j_star)
    r = np.where(s == 0, j_star, np.minimum(s, 2 * j_star - s))
    c = 2.0 * math.sqrt(2.0) * sin_pi_ratio(ks, 2 * j_star) / (ks * math.pi)
    c[quot % 2 == 1] *= -1.0
    p, n = np.asarray(rows) + 1, 2 * J * j_star
    total = (J // g) * fem._cos_pi_ratio(r * J, n) * (
        ((p - r) % (2 * J) == 0).astype(float) - ((p + r) % (2 * J) == 0))
    q = np.arange(2 * J)
    sines, cosines = sin_pi_ratio(q, J), fem._cos_pi_ratio(q, J)
    block = max(1, 2 ** 18 // K)
    for lo in range(1, J // g, block):
        i0 = np.arange(lo, min(lo + block, J // g))[:, None]
        e = i0 * j_star % J
        a = b = 0.0
        for l in (-1, 0, 1):
            w = fem._tent_overlaps(e, J, J * l, J * l + J) / float(2 * J * J)
            a = a - 2.0 * w * (sin_pi_ratio(r * (J * l + J - e), n)
                               * sin_pi_ratio(r * (J * l - e), n))
            b = b + w * sin_pi_ratio(r * (2 * J * l + J - 2 * e), n)
        for sign in (-1, 1):
            k = np.flatnonzero((p + sign * r) % (2 * g) == 0)
            m = (p[k] + sign * r[k]) * i0 % (2 * J)
            total[k] += np.sum(b[:, k] * sines[m] - sign * a[:, k]
                               * cosines[m], axis=0)
    return (c * (0.5 * g * J / j_star ** 2) * fem._eigen_scale(p, J)
            * (sin_pi_ratio(p, 2 * J) / sin_pi_ratio(r, 2 * j_star)) ** 2
            * total)


@pytest.mark.parametrize("J, j_star, K", [
    (8, 16, 10), (16, 24, 20),   # K < J*
    (16, 24, 1000),              # J does not divide J*; K wraps 2J and 4J*
    (32, 8, 1000),               # the mesh finer than the cells
    (12, 7, 1000), (12, 7, 5),   # a small coprime pair
    (64, 1024, 4100)])           # K just past 4J*, J dividing J*
def test_tabulated_factors_match_per_mode_formulas_bit_for_bit(J, j_star, K):
    # the residue tables gather the bits the per-mode formulas give
    eig = fem.generalized_eigen(fem.assemble(fem.Mesh(J)))
    rows, g = solvers.spectral_fem_gram(K, eig)
    rows_k, g_k = _gram_per_mode(K, eig)
    assert rows.tobytes() == rows_k.tobytes() and g.tobytes() == g_k.tobytes()
    w_k = 1.0 - np.bincount(rows_k, g_k * g_k, J - 1)
    s = solvers.map_regularized(4, j_star, 1.0, K, 1.0)
    h = solvers.map_cn_fem(4, j_star, 1.0, eig, 4, 4)
    assert solvers._pairing(s, h)[2].tobytes() == w_k.tobytes()
    ks = np.arange(1, K + 1)
    rem = ks % (2 * j_star)
    sq_k = (8.0 * sin_pi_ratio(rem, 2 * j_star) ** 2 / (ks * math.pi) ** 2
            * np.where(rem == j_star, j_star,
                       np.where(rem == 0, 0.0, 0.5 * j_star)))
    assert noise.mode_cell_sq_sums(ks, j_star).tobytes() == sq_k.tobytes()
    sub = ks[::-3]   # modes in any order, not from 1
    assert noise.mode_cell_sq_sums(sub, j_star).tobytes() == \
        sq_k[sub - 1].tobytes()
    # the pairing's rows, and every FEM row against every mode
    rng = np.random.default_rng(J * j_star + K)
    for rows in (rows, rng.integers(0, J - 1, K)):
        got = solvers.sine_fem_cell_cross(K, rows, eig, j_star)
        assert got.tobytes() == \
            _cell_cross_per_mode(K, rows, eig, j_star).tobytes()


def _sine_fem_maps(J, K, n=16, j=16, M=8):
    """CN-spectral, regularized and CN-FEM maps on one aligned grid."""
    eig = fem.generalized_eigen(fem.assemble(fem.Mesh(J)))
    return (solvers.map_cn_spectral(n, j, 1.0, K, M, M),
            solvers.map_regularized(n, j, 1.0, K, 1.0),
            solvers.map_cn_fem(n, j, 1.0, eig, M, M), eig)


_SINE_FEM = [(J, K) for J in (4, 8) for K in (8, 24, 64)]  # K < nu too


@pytest.mark.parametrize("J, K", _SINE_FEM)
def test_pairing_weight_is_fem_energy_above_K(J, K):
    # w_p = sum_{k > K} (e_k, phi_p)^2, against the dense Gram up to K'
    s, _, h, eig = _sine_fem_maps(J, K)
    _, _, w = solvers._pairing(s, h)
    Kp = 2 ** 14
    dense = fem.sine_hat_inner_matrix(Kp, eig.system.mesh) @ eig.vectors
    gap = w - (dense[K:] ** 2).sum(0)
    # |(e_k, phi_p)| <= 2 sqrt(2) J^2 c_p / (k pi)^2 with c_p^2 <= 6, so
    # the modes above K' add at most 16 J^4 / (pi^4 K'^3)
    assert np.all((-1e-14 <= gap) & (gap <= 16.0 * J**4 / (math.pi**4
                                                          * Kp**3) + 1e-14))


@pytest.mark.parametrize("J, K", _SINE_FEM)
def test_termwise_distance_moments_match_moment_sums(J, K):
    s, u, h, _ = _sine_fem_maps(J, K)
    for a in (s, u):
        x2, xy, gy2, wy2 = solvers.distance_moments(a, h)
        assert x2.shape == xy.shape == gy2.shape == (K,)
        ea, eb = a.second_moment(), h.second_moment()
        direct = ea - 2.0 * solvers.cross_moment(a, h) + eb
        termwise = float(np.sum(x2 - 2.0 * xy + gy2)) + wy2
        assert abs(termwise - direct) <= 1e-12 * (ea + eb)
        # the paired and the remainder parts of E ||Y||^2 add up to it
        assert abs(float(gy2.sum()) + wy2 - eb) <= 1e-14 * eb
    # one basis: every row with itself, no remainder
    x2, xy, gy2, wy2 = solvers.distance_moments(s, u)
    assert wy2 == 0.0 and np.array_equal(gy2, u.row_moments())
    assert np.array_equal(x2, s.row_moments())


@pytest.mark.parametrize("J, K", _SINE_FEM)
def test_squared_distance_matches_expanded_form(J, K):
    s, _, h, eig = _sine_fem_maps(J, K)
    f = solvers.squared_distance(s, h)
    rows, g = solvers.spectral_fem_gram(K, eig)
    rng = np.random.default_rng(100 * J + K)
    for _ in range(5):
        a, b = rng.normal(size=K), rng.normal(size=J - 1)
        ref = a @ a - 2.0 * (a @ (g * b[rows])) + b @ b
        assert abs(f(a, b) - ref) <= 1e-12 * (a @ a + b @ b)


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
    # the cell integrals depend only on (K, J*): one fold per pair
    u = solvers.map_regularized(8, 8, 1.0, 6, 1.0)
    a = solvers.map_cn_spectral(8, 8, 1.0, 6, 4, 4)
    assert u.fold() is a.fold()
    assert not any(v.flags.writeable for v in u.fold())


# rho = dtau mu / 2 below 1, exactly 1 (q = 0), above 1, and stiff
_RHOS = st.lists(st.one_of(st.floats(1e-6, 0.999), st.just(1.0),
                           st.floats(1.001, 50.0), st.floats(1e2, 1e8)),
                 min_size=1, max_size=5)


def _geometric_sum_where(log_abs, negative, n):
    """G(x, n) with 1 - x^m chosen per row by ``np.where``: the form the
    in-place ``solvers._geometric_sum`` must match bit for bit."""
    def one_minus_power(m):
        e = np.expm1(m * log_abs)
        return np.where(negative & (m % 2 == 1), 2.0 + e, -e)
    return one_minus_power(n) / one_minus_power(1) if n > 1 else float(n)


_LOG_ABS = st.one_of(st.floats(-800.0, 0.0, exclude_max=True),
                     st.just(-math.inf))
_MIXED = [(-math.inf, True), (-math.inf, False), (-1e-3, True),
          (-1e-3, False), (-40.0, True), (-5e-324, False)]


@settings(max_examples=300, deadline=None)
@given(n=st.one_of(st.integers(0, 3), st.integers(4, 2 ** 40)),
       rows=st.lists(st.tuples(_LOG_ABS, st.booleans()), min_size=1,
                     max_size=16))
@example(n=0, rows=_MIXED)
@example(n=1, rows=_MIXED)
@example(n=6, rows=_MIXED)
@example(n=7, rows=_MIXED)
def test_geometric_sum_matches_where_form_bit_for_bit(n, rows):
    # n in {0, 1, even, odd}; log|x| = -inf; x < 0 on any subset of rows
    log_abs = np.array([r[0] for r in rows])
    negative = np.array([r[1] for r in rows])
    got = solvers._geometric_sum(log_abs, negative, n)
    ref = _geometric_sum_where(log_abs, negative, n)
    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def _dense_gram(a, b, rows):
    return (a.dense() * b.dense()[rows]).sum(1)


@settings(max_examples=60, deadline=None)
@given(M=st.integers(1, 32), p=st.integers(1, 6), e=st.integers(4, 6),
       data=st.data())
def test_time_gram_closed_forms_match_dense(M, p, e, data,
                                            overlap_sq_sum_mp):
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
    # half a noise cell before the step end: a partial last cell
    t_in = m * dtau - 0.5 * (dtau / p)
    inner = solvers.OverlapProfile(ks_a, t_in, M * p, horizon)
    inner_b = solvers.OverlapProfile(ks_b, t_in, M * p, horizon)
    pairs = [(cn_a, cn_b), (cn_a, cn_a), (over, cn_b), (cn_b, over),
             (over, cn_a), (over, over), (over, over_b), (inner, inner_b)]
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
        # each row with itself (the default) needs equal row counts
        own = [slice(None)] if a.shape[0] == b.shape[0] else []
        cases += [(a, b, rows) for rows in own + [paired]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [solvers.time_gram(a, b, rows) for a, b, rows in cases]
    for (a, b, rows), g in zip(cases, got):
        ref = _dense_gram(a, b, rows)
        na = np.sqrt((a.dense() ** 2).sum(1))
        nb = np.sqrt((b.dense() ** 2).sum(1))
        scale = na * nb[rows]
        assert g.shape == ref.shape
        assert np.all(np.abs(g - ref) <= 1e-12 * scale)
    for o, t in ((over, m * dtau), (inner, t_in)):
        sq = np.array([overlap_sq_sum_mp(k, t, M * p, horizon)
                       for k in ks_a])
        assert np.all(np.abs(solvers.time_gram(o, o) - sq) <= 1e-14 * sq)


@pytest.mark.parametrize("horizon, n_star, t, exact", [
    (1.0, 8, 1.0, None),                 # t = T
    (1.0, 32, 0.5, None),                # a cell end inside the grid
    (1.0, 32, 0.61, None),               # inside a cell
    (1.0, 8, 0.01, None),                # inside the first cell
    (2.0, 6, 2.0, None),                 # dt = 1/3 is no float
    (2.0, 5, 3 * (2.0 / 5), Fraction(6, 5)),   # t/dt = 3 + 4e-16, snapped
    (2.0, 5, 1.0, None),                 # 2.5 cells of 2/5
    (2.0, 6, 1.5, None),                 # 4.5 cells of 1/3
])
def test_time_gram_of_overlaps_matches_mpmath(horizon, n_star, t, exact,
                                              overlap_sq_sum_mp):
    # sum_n I_{k,n}(t)^2 from the geometric profile, at every t
    ks = np.array([1, 5, 40, 194, 1000])
    o = solvers.OverlapProfile(ks, t, n_star, horizon)
    got = solvers.time_gram(o, o)
    ref = np.array([overlap_sq_sum_mp(k, t if exact is None else exact,
                                      n_star, horizon) for k in ks])
    assert np.all(np.abs(got - ref) <= 1e-14 * ref)


def test_reconstruct_leaves_no_dense_array_on_the_map():
    # reconstruct builds the per-step weights from the profile's
    # geometric tuple on each call: the map keeps no K x N array (32 MiB)
    g = noise.sample(1024, 1024, 1.0, 3)
    noise.sine_cell_fold(4096, 1024)     # kept by its cache, not the map
    tracemalloc.start()
    try:
        m = solvers.map_regularized(1024, 1024, 1.0, 4096, 1.0)
        m.reconstruct(g)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2 ** 20


@pytest.mark.parametrize("horizon, n_star, M", [(0.3, 24, 16), (1.0, 8, 16)])
def test_time_gram_non_aligned_matches_dense(horizon, n_star, M):
    # 3 cells per 2 steps (a period of 3 cells), and 2 steps per cell
    K = 6
    ks = np.arange(1, K + 1)
    lam2 = (ks * math.pi) ** 2
    dtau = horizon / M
    eig = fem.generalized_eigen(fem.assemble(fem.Mesh(K + 1)))
    cn = solvers.PropagatorProfile(lam2, M, dtau, n_star, horizon)
    cn_h = solvers.PropagatorProfile(eig.values, M, dtau, n_star, horizon)
    over = solvers.OverlapProfile(ks, M * dtau, n_star, horizon)
    for a, b in ((cn, cn), (cn, cn_h), (over, cn), (over, cn_h)):
        for rows in (slice(None), np.arange(K)[::-1]):
            ref = _dense_gram(a, b, rows)
            scale = np.sqrt((a.dense() ** 2).sum(1)
                            * (b.dense() ** 2).sum(1)[rows])
            assert np.all(np.abs(solvers.time_gram(a, b, rows) - ref)
                          <= 1e-12 * scale)


def _dense_cell_loads(space, grid, M):
    V = solvers.interval_overlaps(M, grid.horizon / M, grid.n_star,
                                  grid.horizon)
    return (space @ grid.increments.T) @ V.T / (grid.dt * grid.dx)


@pytest.mark.parametrize("n_star, M", [(64, 64), (1024, 1024), (64, 16),
                                       (1024, 256)])
def test_cell_loads_sum_whole_cells(n_star, M):
    # p = n_star/M cells per step.  p = 1 scales each cell's reading by
    # dt/(dt dx), bit for bit; p = 4 adds each step's cells, which is the
    # dense overlap product up to the order of its sum
    grid = noise.sample(n_star, 64, 1.0, 9)
    space = fem.hat_cell_overlap_matrix(fem.Mesh(32), 64)
    reads = grid.increments @ space.T
    loads = solvers._cell_loads(reads, grid.dt, grid.dx, 1.0 / M)
    dense = _dense_cell_loads(space, grid, M)
    if n_star == M:
        assert np.array_equal(loads, (reads * grid.dt / (grid.dt * grid.dx)).T)
    assert np.abs(loads - dense).max() <= 1e-14 * np.abs(dense).max()


def test_cell_loads_non_aligned_take_the_overlaps():
    grid = noise.sample(24, 16, 0.3, 4)
    space = noise.mode_cell_integrals(20, 16)
    loads = solvers._cell_loads(grid.increments @ space.T, grid.dt, grid.dx,
                                0.3 / 16)
    # each step load is the noise integrated over the step: the loads of
    # steps add up to the loads of the whole horizon
    whole = space @ grid.increments.sum(axis=0) / grid.dx
    assert np.allclose(loads.sum(axis=1), whole, rtol=1e-12, atol=1e-12)
    assert np.allclose(loads, _dense_cell_loads(space, grid, 16),
                       rtol=1e-13, atol=1e-13)


def _hat_antiderivative(i, J, x):
    """Integral of hat_i from 0 to x, exact for a rational x."""
    h = Fraction(1, J)
    rise = min(max(x, (i - 1) * h), i * h) - (i - 1) * h
    fall = min(max(x, i * h), (i + 1) * h) - i * h
    return (rise * rise + 2 * h * fall - fall * fall) / (2 * h)


@pytest.mark.parametrize("n_star, j_star, M, J, horizon", [
    (16, 16, 16, 8, 1.0), (16, 16, 4, 8, 1.0), (24, 16, 16, 8, 0.3),
    (8, 64, 8, 48, 1.0), (8, 16, 16, 8, 1.0)],
    ids=["aligned", "4-cells-per-step", "3-cells-per-2-steps", "mesh-48",
         "2-steps-per-cell"])
def test_fem_step_loads_match_rational_arithmetic(n_star, j_star, M, J,
                                                  horizon):
    # L[i, l] = sum over cells (n, j) of R[n, j] |Delta_l ^ T_n|/dt times
    # (hat_i, 1_Dj)/dx, each of its n nonzero terms an exact rational: the
    # banded fixed-order sums are within (n + 1) eps sum |terms| of it
    grid = noise.sample(n_star, j_star, horizon, 21)
    loads = solvers.stochastic_loads_fem(grid, fem.assemble(fem.Mesh(J)), M)
    R = [[Fraction(x) for x in row] for row in grid.increments.tolist()]
    F = Fraction
    steps = [{n: w for n in range(n_star) if (w := n_star * (
        min(F(l + 1, M), F(n + 1, n_star)) - max(F(l, M), F(n, n_star)))) > 0}
        for l in range(M)]
    hats = [{j: w for j in range(j_star) if (w := j_star * (
        _hat_antiderivative(i, J, F(j + 1, j_star))
        - _hat_antiderivative(i, J, F(j, j_star)))) > 0}
        for i in range(1, J)]
    for i, cells in enumerate(hats):
        for l, rows in enumerate(steps):
            terms = [R[n][j] * v * w for n, v in rows.items()
                     for j, w in cells.items()]
            bound = (len(terms) + 1) * np.finfo(float).eps * float(
                sum(abs(t) for t in terms))
            assert abs(F(loads[i, l]) - sum(terms)) <= bound, (i, l)


def test_fem_loads_read_the_hat_bands(monkeypatch):
    # the FEM step loads read the hats' bands, not the dense overlaps
    def dense(*args):
        raise AssertionError("dense hat-cell overlaps built")
    monkeypatch.setattr(fem, "hat_cell_overlap_matrix", dense)
    grid = noise.sample(24, 16, 0.3, 2)
    system = fem.assemble(fem.Mesh(8))
    assert solvers.stochastic_loads_fem(grid, system, 16).shape == (7, 16)
    assert solvers.cn_fem_spde(grid, system, 16).states.shape == (17, 7)


def test_time_factors_read_at_most_two_periods(monkeypatch):
    # a profile's pattern comes from the dense kernels on at most two
    # periods: interval_overlaps over more than 2b steps or 2a + 1 cells
    # (a cells per b steps of its own grid) fails, as does any call of
    # noise.time_overlaps
    overlaps = solvers.interval_overlaps

    def windowed(m, dtau, n_star, horizon=1.0):
        a, b = solvers._period(dtau, horizon / n_star)
        assert m <= 2 * b and n_star <= 2 * a + 1, (m, n_star, a, b)
        return overlaps(m, dtau, n_star, horizon)

    def dense(*args):
        raise AssertionError("dense regularized overlaps built")
    monkeypatch.setattr(solvers, "interval_overlaps", windowed)
    monkeypatch.setattr(noise, "time_overlaps", dense)
    # 3 cells per 2 steps at M = 16; tdr adds 3/4 and 3/8
    grids = {"horizon": "0.3", "seed": "0", "n_star": "24", "j_star": "16",
             "K": "32", "M": "16", "window": "2"}
    for study, key, levels in (("tdr", "dtau_levels", "4,5,6"),
                               ("sdr", "h_levels", "2,3,4"),
                               ("total", "h_levels", "2,3,4")):
        for samples in ("0", "3"):
            rep = cli.run_study(dict(grids, study=study, samples=samples,
                                     **{key: levels}))
            assert all(r["error_exact"] > 0.0 for r in rep.rows)
    # sub-cell steps: 2, 4 and 8 steps per noise cell
    rep = cli.run_study(dict(grids, study="tdr", horizon="1.0", n_star="8",
                             samples="3", dtau_levels="4,5,6"))
    assert all(r["error_mc"] > 0.0 for r in rep.rows)
    path = cli.run_sample_path({"horizon": "0.3", "seed": "1",
                                "n_star": "24", "j_star": "16", "M": "16",
                                "mesh": "8"})
    assert path.count("\n") == 17


def _abs_dense(profile):
    """The dense CN profile of |r_l|, the scale of the dense oracle's own
    rounding: where q is near -1 the steps of one cell cancel, and at
    rho = 1e8 the oracle is 4.5e-9 of a row's maximum from 40-digit
    mpmath while the closed form is exact.  Regularized rows are positive:
    their dense profile."""
    if isinstance(profile, solvers.OverlapProfile):
        return profile.dense()
    r = deterministic.step_factors(profile.mus, profile.m, profile.dtau)
    return np.abs(r)[:, ::-1] @ solvers.interval_overlaps(
        profile.m, profile.dtau, profile.n_star, profile.horizon)


_FEM_VALUES = fem.generalized_eigen(fem.assemble(fem.Mesh(6))).values


@settings(max_examples=80, deadline=None)
@given(N=st.integers(1, 48), M=st.integers(1, 48), m=st.integers(1, 48),
       rhos_a=_RHOS, rhos_b=_RHOS,
       ks=st.lists(st.integers(1, 256), min_size=1, max_size=5),
       picks=st.lists(st.integers(0, 59), min_size=5, max_size=5))
# q = 0 (rho = 1) with no whole period, m < b: sub-cell steps, and a
# partial period of 3 cells per 8 steps
@example(N=8, M=16, m=1, rhos_a=[1.0], rhos_b=[1.0, 1e8], ks=[3],
         picks=[1, 0, 0, 0, 0])
@example(N=24, M=64, m=5, rhos_a=[1.0, 1e8], rhos_b=[0.5], ks=[1, 7],
         picks=[0, 1, 2, 3, 4])
# t/dt = 45 * 23/47: the dense overlaps need t - n dt from the exact
# remainder, not from the rounded t/dt
@example(N=23, M=47, m=45, rhos_a=[1.0], rhos_b=[1.0], ks=[10],
         picks=[26, 17, 39, 24, 15])
def test_profiles_on_every_grid_ratio_match_dense(N, M, m, rhos_a, rhos_b,
                                                   ks, picks):
    # N noise cells and M steps: a/b = N/M in lowest terms, any pair
    m = 1 + (m - 1) % M
    dtau = 2.0 ** -6      # keeps rho = dtau mu / 2 exact, rho = 1 too
    horizon = M * dtau
    profiles = [solvers.OverlapProfile(ks, m * dtau, N, horizon)] + [
        solvers.PropagatorProfile(mus, m, dtau, N, horizon)
        for mus in (2.0 * np.array(rhos_a) / dtau,
                    2.0 * np.array(rhos_b) / dtau, _FEM_VALUES)]
    scales = [_abs_dense(x) for x in profiles]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, s in zip(profiles, scales):
            tol = 1e-13 * np.abs(s).max(axis=1, keepdims=True)
            assert np.all(np.abs(_spread(x) - x.dense()) <= tol)
        for (a, sa), (b, sb) in itertools.product(zip(profiles, scales),
                                                  repeat=2):
            paired = np.array(picks[: a.shape[0]]) % b.shape[0]
            own = [slice(None)] if a.shape[0] == b.shape[0] else []
            for rows in own + [paired]:
                got = solvers.time_gram(a, b, rows)
                scale = np.sqrt((sa ** 2).sum(1) * (sb ** 2).sum(1)[rows])
                assert np.all(np.abs(got - _dense_gram(a, b, rows))
                              <= 1e-12 * scale)


def _profiles_mp(k, m, M, N, horizon):
    """(regularized, CN) time profiles of mode k at t = m horizon/M on N
    cells, at 40 digits from the exact values of the float inputs."""
    mpmath = pytest.importorskip("mpmath")

    def mp(x):
        x = Fraction(x)
        return mpmath.mpf(x.numerator) / x.denominator
    with mpmath.workdps(40):
        T = Fraction(horizon)
        dtau, dt, t = T / M, T / N, m * T / M
        lam2 = mp((k * math.pi) ** 2)
        rho = mp(0.5 * (horizon / M)) * lam2   # the float product's inputs
        q = (1 - rho) / (1 + rho)
        reg, cn = [], []
        for n in range(N):
            lo, hi = n * dt, min((n + 1) * dt, t)
            reg.append((mpmath.exp(-lam2 * mp(t - hi)) - mpmath.exp(
                -lam2 * mp(t - lo))) / lam2 if hi > lo else mpmath.mpf(0))
            cn.append(sum((q ** (m - l) / (1 + rho) * mp(
                min(l * dtau, hi) - max((l - 1) * dtau, lo))
                for l in range(1, m + 1)
                if min(l * dtau, hi) > max((l - 1) * dtau, lo)),
                mpmath.mpf(0)))
        return reg, cn


@pytest.mark.parametrize("horizon, N, M, m", [
    (0.3, 24, 64, 64), (0.3, 24, 64, 21),   # 3 cells per 8 steps; a tail
    (1.0, 8, 64, 64), (1.0, 8, 64, 13)])    # 8 steps per cell; a tail
def test_time_grams_match_mpmath_off_aligned_grids(horizon, N, M, m):
    # uu, uc and cc of the tdr moments, mode by mode, to 1e-13 of the
    # Cauchy-Schwarz scale (rho up to 316: q near -1)
    ks = np.array([1, 2, 5, 17, 64])
    mpmath = pytest.importorskip("mpmath")
    lam2 = (ks * math.pi) ** 2
    dtau = horizon / M
    over = solvers.OverlapProfile(ks, m * dtau, N, horizon)
    cn = solvers.PropagatorProfile(lam2, m, dtau, N, horizon)
    got = [solvers.time_gram(x, y) for x, y in ((over, over), (over, cn),
                                                 (cn, cn))]
    for i, k in enumerate(ks):
        reg, cnk = _profiles_mp(int(k), m, M, N, horizon)
        with mpmath.workdps(40):
            ref = [float(mpmath.fsum(x * y for x, y in zip(u, v)))
                   for u, v in ((reg, reg), (reg, cnk), (cnk, cnk))]
        scale = math.sqrt(ref[0] * ref[2])
        assert abs(got[0][i] - ref[0]) <= 1e-13 * ref[0]
        assert abs(got[1][i] - ref[1]) <= 1e-13 * scale
        assert abs(got[2][i] - ref[2]) <= 1e-13 * ref[2]
