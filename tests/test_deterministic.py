import math

import numpy as np
import pytest

from stochheat import deterministic, fem
from stochheat.spectral import SpectralField, semigroup_apply


def _dense(band):
    """The symmetric tridiagonal matrix of an upper band (the oracle of
    the banded products and solves)."""
    off = band[0, 1:]
    return np.diag(band[1]) + np.diag(off, 1) + np.diag(off, -1)


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
    c0 = eig.vectors.T @ _dense(system.mass_band) @ fem.l2_project(v0, system)
    F = deterministic.step_factors(eig.values, M, dtau)
    nodal = eig.vectors @ (F[:, M - 1] * c0)
    assert np.max(np.abs(traj.states[-1] - nodal)) < 1e-9


def test_fem_energy_decay():
    system = fem.assemble(fem.Mesh(16))
    v0 = SpectralField(np.array([1.0, 1.0, 1.0, 1.0]))
    traj = deterministic.modified_cn_fem(v0, system, 20, 0.01)
    norms = [math.sqrt(v @ system.mass_apply(v)) for v in traj.states]
    assert all(b <= a + 1e-13 for a, b in zip(norms, norms[1:]))


def test_h1_seminorm_decay():
    system = fem.assemble(fem.Mesh(16))
    v0 = SpectralField(np.array([0.5, 0.2, 0.7]))
    traj = deterministic.modified_cn_fem(v0, system, 15, 0.02)
    semis = [fem.h1_seminorm(traj.states[m], system) for m in range(16)]
    assert all(b <= a + 1e-13 for a, b in zip(semis, semis[1:]))


@pytest.mark.parametrize("kind", ["Nodal", "spectal", "", None])
def test_trajectory_rejects_an_unknown_kind(kind):
    # a misspelled kind would pass on to l2t_error, which knows only two
    with pytest.raises(ValueError, match="unknown trajectory kind"):
        deterministic.Trajectory(0.1, np.zeros((3, 2)), kind)


def test_l2t_error_rejects_mismatched_grids():
    v0 = SpectralField(np.array([1.0]))
    a = deterministic.modified_cn_spectral(v0, 4, 0.25)
    b = deterministic.modified_cn_spectral(v0, 8, 0.125)
    with pytest.raises(ValueError):
        deterministic.l2t_error(a, b)


def test_l2t_error_rejects_mismatched_truncations():
    # zero padding would broadcast a K = 1 trajectory against K = 3
    a = deterministic.modified_cn_spectral(SpectralField([1.0]), 8, 0.125)
    b = deterministic.modified_cn_spectral(SpectralField([1.0, 0.0, 0.0]),
                                           8, 0.125)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="levels differ: K = [13] and"):
            deterministic.l2t_error(x, y)


def test_l2t_error_rejects_two_nodal_trajectories():
    system = fem.assemble(fem.Mesh(8))
    v0 = SpectralField(np.array([1.0, -0.4]))
    a = deterministic.modified_cn_fem(v0, system, 4, 0.25)
    for variant in ("endpoint", "midpoint"):
        with pytest.raises(ValueError, match="two nodal"):
            deterministic.l2t_error(a, a, variant, system)


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


def _cho_solve_banded_steps(v0, system, M, dtau, loads=None):
    """Oracle: the stepping loop written with scipy's cho_solve_banded."""
    from scipy.linalg import cho_solve_banded, cholesky_banded
    chol = cholesky_banded(system.mass_band + 0.5 * dtau * system.stiff_band)
    states = np.empty((M + 1, v0.size))
    states[0] = v0
    rhs = system.mass_apply(v0)
    for m in range(1, M + 1):
        if loads is not None:
            rhs = rhs + loads[:, m - 1]
        v = cho_solve_banded((chol, False), rhs)
        states[m] = v
        rhs = system.mass_apply(v) - 0.5 * dtau * system.stiff_apply(v)
    return states


@pytest.mark.parametrize("with_loads", [False, True])
def test_cn_fem_steps_match_cho_solve_banded_bit_for_bit(with_loads):
    rng = np.random.default_rng(7)
    system = fem.assemble(fem.Mesh(32))
    M, dtau = 60, 1.0 / 60
    v0 = rng.standard_normal(system.mesh.nu)
    loads = rng.standard_normal((system.mesh.nu, M)) if with_loads else None
    traj = deterministic.modified_cn_fem(v0, system, M, dtau, loads)
    assert np.array_equal(traj.states,
                          _cho_solve_banded_steps(v0, system, M, dtau, loads))


@pytest.mark.parametrize("with_loads", [False, True])
@pytest.mark.parametrize("system, M", [
    (fem.FemSystem.stack([fem.assemble(fem.Mesh(2 ** e))
                          for e in range(3, 8)]), 4096),
    (fem.assemble(fem.Mesh(512)), 1024)],
    ids=["stacked-default", "mesh-512"])
def test_fused_rhs_matches_mass_minus_stiffness_bit_for_bit(
        system, M, with_loads):
    # the stepper forms M v - (dtau/2) S v from one product of both bands'
    # windows, in mass_apply's order: the bits of the two band products,
    # the scale and the difference, on the stacked default deterministic
    # system and on a sample-path-size mesh
    rng = np.random.default_rng(3)
    nu, dtau = system.mass_band.shape[1], 1.0 / M
    v0 = rng.standard_normal(nu)
    loads = rng.standard_normal((nu, M)) if with_loads else None
    states = deterministic.modified_cn_fem(v0, system, M, dtau, loads).states
    ref = _cho_solve_banded_steps(v0, system, M, dtau, loads)
    assert states.tobytes() == ref.tobytes()


@pytest.mark.parametrize("bad", ["nan load", "inf load", "nan start"])
def test_cn_fem_steps_reject_non_finite_input(bad):
    system = fem.assemble(fem.Mesh(8))
    v0, loads = np.ones(system.mesh.nu), np.zeros((system.mesh.nu, 5))
    if bad == "nan load":
        loads[3, 2] = np.nan
    elif bad == "inf load":
        loads[0, 4] = np.inf
    else:
        v0[1] = np.nan
    with pytest.raises(ValueError):
        deterministic.modified_cn_fem(v0, system, 5, 0.2, loads)


@pytest.mark.parametrize("with_loads", [False, True])
def test_stepper_in_blocks_matches_one_pass_bit_for_bit(with_loads):
    # a path stepped block by block, each from the right-hand side the
    # block before returned, has the bits of one pass
    rng = np.random.default_rng(11)
    system = fem.assemble(fem.Mesh(16))
    M, dtau = 40, 1.0 / 40
    v0 = rng.standard_normal(system.mesh.nu)
    loads = rng.standard_normal((system.mesh.nu, M)) if with_loads else None
    whole = deterministic.modified_cn_fem(v0, system, M, dtau, loads).states
    advance = deterministic.cn_fem_stepper(system, dtau)
    rhs, out, lo = system.mass_apply(v0), np.empty((M, system.mesh.nu)), 0
    for hi in (1, 6, 23, M):
        rhs = advance(rhs, out[lo:hi],
                      None if loads is None else loads[:, lo:hi])
        lo = hi
    assert out.tobytes() == whole[1:].tobytes()


@pytest.mark.parametrize("with_loads", [False, True])
def test_stacked_systems_step_each_block_bit_for_bit(with_loads):
    # the joint off-diagonals are exactly 0: every block keeps its bits
    rng = np.random.default_rng(5)
    systems = [fem.assemble(fem.Mesh(J)) for J in (16, 4, 8, 2)]
    M, dtau = 40, 1.0 / 40
    v0 = [rng.standard_normal(s.mesh.nu) for s in systems]
    loads = [rng.standard_normal((s.mesh.nu, M)) if with_loads else None
             for s in systems]
    stacked = fem.FemSystem.stack(systems)
    traj = deterministic.modified_cn_fem(
        np.concatenate(v0), stacked, M, dtau,
        np.concatenate(loads) if with_loads else None)
    lo = 0
    for s, v, L in zip(systems, v0, loads):
        own = deterministic.modified_cn_fem(v, s, M, dtau, L).states
        assert traj.states[:, lo:lo + s.mesh.nu].tobytes() == own.tobytes()
        lo += s.mesh.nu
    assert lo == traj.states.shape[1]


def test_stacked_systems_reject_a_non_finite_block():
    systems = [fem.assemble(fem.Mesh(J)) for J in (4, 8)]
    v0 = np.ones(3 + 7)
    v0[5] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        deterministic.modified_cn_fem(v0, fem.FemSystem.stack(systems), 5, 0.2)


def _per_step_l2t(traj_a, traj_b, variant, system):
    """Oracle: the squared distance of each step, formed one step at a
    time and added to the sum in order."""
    if traj_a.kind == "nodal" and traj_b.kind == "spectral":
        traj_a, traj_b = traj_b, traj_a
    kinds = (traj_a.kind, traj_b.kind)
    if kinds == ("spectral", "nodal"):
        C = fem.sine_hat_inner_matrix(traj_a.states.shape[1], system.mesh)

    def dist(a, b):
        if kinds == ("spectral", "spectral"):
            return float(np.sum((a - b) ** 2))
        return (float(np.sum(a**2)) - 2.0 * float(a @ (C @ b))
                + float(b @ system.mass_apply(b)))

    A, B = traj_a.states, traj_b.states
    total = dist(A[1], B[1])
    for m in range(2, A.shape[0]):
        if variant == "endpoint":
            total += dist(A[m], B[m])
        else:
            total += dist(0.5 * (A[m] + A[m - 1]), 0.5 * (B[m] + B[m - 1]))
    return math.sqrt(traj_a.dtau * total)


@pytest.mark.parametrize("variant", ["endpoint", "midpoint"])
@pytest.mark.parametrize("pair", ["spectral", "mixed", "reversed"])
def test_l2t_error_matches_per_step_sum_bit_for_bit(variant, pair):
    # M = 1100 steps cross two blocks of 512; K = 200 modes make the row
    # sums pairwise
    rng = np.random.default_rng(3)
    M, dtau = 1100, 1.0 / 1100
    system = fem.assemble(fem.Mesh(16))
    K = 200 if pair == "spectral" else 3
    v0 = SpectralField(rng.standard_normal(K) / np.arange(1, K + 1))
    spec = deterministic.modified_cn_spectral(v0, M, dtau)
    nodal = deterministic.modified_cn_fem(v0, system, M, dtau)
    a, b = {
        "spectral": (spec, deterministic.exact_trajectory(v0, M, dtau)),
        "mixed": (spec, nodal),
        "reversed": (nodal, spec),
    }[pair]
    err = deterministic.l2t_error(a, b, variant, system)
    assert err == _per_step_l2t(a, b, variant, system)
    assert err > 0.0


@pytest.mark.parametrize("variant", ["endpoint", "midpoint"])
@pytest.mark.parametrize("intervals", [2, 8, 128])
def test_l2t_error_batched_dots_match_per_step_loop(variant, intervals):
    # nu = 1, 7, 127 interior nodes; M = 1000 ends on a partial block of
    # 512 steps.  Levels stepped as one stacked system, as the
    # deterministic-cn space study does: spectral/nodal on a level sliced
    # from it.
    M, dtau = 1000, 1.0 / 1000
    systems = [fem.assemble(fem.Mesh(n)) for n in (intervals, 4)]
    stacked = fem.FemSystem.stack(systems)
    nu = systems[0].mesh.nu
    v0 = SpectralField(np.array([1.0, -0.3, 0.2]))
    x0 = np.concatenate([fem.l2_project(v0, s) for s in systems])
    num = deterministic.modified_cn_fem(x0, stacked, M, dtau)
    level = deterministic.Trajectory(dtau, num.states[:, :nu], "nodal")
    for a, b, system in [
            (deterministic.modified_cn_spectral(v0, M, dtau), level,
             systems[0]),
            (level, deterministic.exact_trajectory(v0, M, dtau),
             systems[0])]:
        assert (deterministic.l2t_error(a, b, variant, system)
                == _per_step_l2t(a, b, variant, system))


def test_step_factors_match_mpmath():
    # rho = dtau mu/2 below 1, at 1 (q = 0) and above 1 (q < 0), m = 4096:
    # each row within 1e-13 of its largest entry, 1/(1 + rho)
    mpmath = pytest.importorskip("mpmath")
    dtau, m = 1.0 / 256, 4096
    mus = np.array([1e-3, 9.87, 200.0, 512.0, 700.0, 3e5])
    F = deterministic.step_factors(mus, m, dtau)
    assert F.shape == (mus.size, m)
    assert np.all(F[3, 1:] == 0.0)
    with mpmath.workdps(30):
        for i, mu in enumerate(mus):
            rho = mpmath.mpf(dtau) * mpmath.mpf(mu) / 2
            q = (1 - rho) / (1 + rho)
            r = 1 / (1 + rho)
            exact = np.empty(m)
            for l in range(m):
                exact[l] = float(r)
                r *= q
            assert np.abs(F[i] - exact).max() <= 1e-13 * abs(exact[0]), mu


def test_step_factors_reject_negative_eigenvalues():
    with pytest.raises(ValueError):
        deterministic.step_factors(np.array([1.0, -2.0]), 4, 0.1)
