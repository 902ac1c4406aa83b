import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg as sla

from stochheat import cli, fem, quadrature
from stochheat.spectral import SpectralField, sin_pi_ratio


def _dense(band):
    """The symmetric tridiagonal matrix of an upper band (the oracle of
    the banded products and solves)."""
    off = band[0, 1:]
    return np.diag(band[1]) + np.diag(off, 1) + np.diag(off, -1)


def hat(i, mesh, x):
    return np.maximum(0.0, 1.0 - np.abs(x - mesh.nodes[i]) / mesh.h)


def test_matrices_match_quadrature():
    mesh = fem.Mesh(5)
    system = fem.assemble(mesh)
    # mass entries
    for i, j in ((1, 1), (1, 2), (2, 4)):
        val = quadrature.composite_gauss(
            lambda x: hat(i, mesh, x) * hat(j, mesh, x), nsub=200)
        M = _dense(system.mass_band)
        assert abs(M[i - 1, j - 1] - val) < 1e-12
    assert np.allclose(_dense(system.stiff_band).sum(axis=1)[1:-1], 0.0)


def test_mass_solve_round_trip():
    system = fem.assemble(fem.Mesh(9))
    v = np.sin(np.arange(1, 9))
    assert np.allclose(system.mass_solve(system.mass_apply(v)), v)
    assert np.allclose(system.stiff_solve(system.stiff_apply(v)), v)


@pytest.mark.parametrize("nu", [2, 7, 243, 511])
def test_solves_match_scipy_solveh_banded_bit_for_bit(nu):
    # numpy's LAPACK dptsv, the routine solveh_banded calls for a
    # tridiagonal band
    system = fem.assemble(fem.Mesh(nu + 1))
    rhs = np.random.default_rng(nu).standard_normal(nu)
    assert (system.mass_solve(rhs).tobytes()
            == sla.solveh_banded(system.mass_band, rhs).tobytes())
    assert (system.stiff_solve(rhs).tobytes()
            == sla.solveh_banded(system.stiff_band, rhs).tobytes())


def test_stack_is_block_diagonal_bit_for_bit():
    # the bands end to end: each block's leading 0 is its zero coupling to
    # the block before, so the stack is block_diag of its parts, and its
    # products on a stack of vectors are each block's own products
    systems = [fem.assemble(fem.Mesh(J)) for J in (2, 3, 8)]
    stacked = fem.FemSystem.stack(systems)
    ends = np.cumsum([s.mesh.nu for s in systems])[:-1]
    v = np.random.default_rng(2).standard_normal((3, 1 + 2 + 7))
    for name in ("mass", "stiff"):
        dense = _dense(getattr(stacked, name + "_band"))
        parts = [_dense(getattr(s, name + "_band")) for s in systems]
        assert dense.tobytes() == sla.block_diag(*parts).tobytes()
        own = [getattr(s, name + "_apply")(w)
               for s, w in zip(systems, np.split(v, ends, axis=1))]
        assert (getattr(stacked, name + "_apply")(v).tobytes()
                == np.hstack(own).tobytes())


def test_one_node_mesh_solves_by_division():
    # Mesh(2) has one interior node, so each banded system is 1 x 1
    system = fem.assemble(fem.Mesh(2))
    rhs = np.array([0.3])
    assert system.mass_solve(rhs)[0] == 0.3 / _dense(system.mass_band)[0, 0]
    assert system.stiff_solve(rhs)[0] == 0.3 / _dense(system.stiff_band)[0, 0]
    v = fem.l2_project(SpectralField(np.array([1.0])), system)
    C = fem.sine_hat_inner_matrix(1, system.mesh)
    assert v.shape == (1,) and v[0] == C[0, 0] / _dense(system.mass_band)[0, 0]
    # -Lap_h v = 1 is nodally exact in 1D: v(1/2) = (x^2 - x)/2 = -1/8
    v = fem.elliptic_solve_discrete(lambda x: np.ones_like(x), system)
    assert np.allclose(v, [-0.125], rtol=1e-14, atol=0)


def test_sine_hat_inner_matches_quadrature():
    mesh = fem.Mesh(6)
    C = fem.sine_hat_inner_matrix(9, mesh)
    for k in (1, 4, 9):
        for i in (1, 3, 6 - 1):
            f = lambda x: math.sqrt(2.0) * np.sin(k * math.pi * x) \
                * hat(i, mesh, x)
            # integrate element by element so the kink sits on a boundary
            direct = quadrature.composite_gauss(
                f, mesh.nodes[i - 1], mesh.nodes[i], nsub=64) \
                + quadrature.composite_gauss(
                    f, mesh.nodes[i], mesh.nodes[i + 1], nsub=64)
            assert abs(C[k - 1, i - 1] - direct) < 1e-12


def test_hat_cell_overlap_matches_quadrature():
    mesh = fem.Mesh(4)
    j_star = 3  # deliberately incommensurate with the mesh
    O = fem.hat_cell_overlap_matrix(mesh, j_star)
    for i in (1, 2, 3):
        for j in range(j_star):
            direct = quadrature.composite_gauss(
                lambda x: hat(i, mesh, x), j / 3, (j + 1) / 3, nsub=300)
            assert abs(O[i - 1, j] - direct) < 1e-12


def _hat_integral(i, J, x):
    """Integral of hat_i from 0 to x in exact rational arithmetic."""
    h = Fraction(1, J)
    rise = min(max(x, (i - 1) * h), i * h) - (i - 1) * h
    fall = min(max(x, i * h), (i + 1) * h) - i * h
    return (rise * rise + 2 * h * fall - fall * fall) / (2 * h)


@pytest.mark.parametrize("J, j_star", [(8, 16), (24, 7), (5, 12), (48, 64),
                                       (3, 8), (16, 24), (6, 4), (7, 3)])
def test_hat_cell_overlap_matrix_exact_on_linear_pieces(J, j_star):
    mesh = fem.Mesh(J)
    O = fem.hat_cell_overlap_matrix(mesh, j_star)
    assert O.shape == (mesh.nu, j_star)
    # every entry is the rational overlap, correctly rounded
    edges = [Fraction(j, j_star) for j in range(j_star + 1)]
    for i in range(1, mesh.nu + 1):
        F = [_hat_integral(i, J, x) for x in edges]
        ref = [float(hi - lo) for lo, hi in zip(F[:-1], F[1:])]
        assert O[i - 1].tolist() == ref, i
    # hat_i is linear between the cell edges and the mesh nodes, so the
    # midpoint rule on those pieces is exact
    for j in range(j_star):
        lo, hi = j / j_star, (j + 1) / j_star
        cuts = np.union1d([lo, hi], mesh.nodes[(mesh.nodes > lo)
                                               & (mesh.nodes < hi)])
        mid = 0.5 * (cuts[1:] + cuts[:-1])
        for i in range(1, mesh.nu + 1):
            ref = float(np.diff(cuts) @ hat(i, mesh, mid))
            assert abs(O[i - 1, j] - ref) < 1e-15


def test_hat_cell_overlap_matrix_peak_memory():
    # only each hat's band of cells is formed before the scatter into O
    tracemalloc.start()
    try:
        O = fem.hat_cell_overlap_matrix(fem.Mesh(512), 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * O.nbytes


def test_hat_cell_overlap_rows_sum_to_h():
    mesh = fem.Mesh(8)
    O = fem.hat_cell_overlap_matrix(mesh, 16)
    assert np.allclose(O.sum(axis=1), mesh.h)


def test_l2_projection_of_resolved_mode():
    # projecting e_1 and projecting its interpolant agree at O(h^2)
    mesh = fem.Mesh(64)
    system = fem.assemble(mesh)
    v = fem.l2_project(SpectralField.basis(1, 1), system)
    exact = math.sqrt(2.0) * np.sin(math.pi * mesh.nodes[1:-1])
    assert np.max(np.abs(v - exact)) < 5e-4


def test_projection_error_second_order():
    errs = []
    hs = []
    for n in (8, 16, 32, 64):
        mesh = fem.Mesh(n)
        system = fem.assemble(mesh)
        v = fem.l2_project(SpectralField.basis(2, 2), system)
        diff = quadrature.composite_gauss(
            lambda x: (fem.evaluate_nodal(v, mesh, x)
                       - math.sqrt(2.0) * np.sin(2 * math.pi * x)) ** 2)
        errs.append(math.sqrt(diff))
        hs.append(mesh.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope > 1.9


def test_discrete_elliptic_nodal_exactness():
    # with exact load integration the Galerkin solution of -u'' = f
    # interpolates the true solution at the nodes; f = 1 gives (x^2-x)/2
    # for the sign convention used by elliptic_solve_discrete
    system = fem.assemble(fem.Mesh(13))
    v = fem.elliptic_solve_discrete(lambda x: np.ones_like(x), system)
    x = system.mesh.nodes[1:-1]
    assert np.max(np.abs(v - (x * x - x) / 2.0)) < 1e-12


def test_generalized_eigen_orthonormal_and_ordered():
    system = fem.assemble(fem.Mesh(12))
    eig = fem.generalized_eigen(system)
    assert np.all(np.diff(eig.values) > 0.0)
    assert np.all(eig.values > 0.0)
    G = eig.vectors.T @ _dense(system.mass_band) @ eig.vectors
    assert np.allclose(G, np.eye(system.mesh.nu), atol=1e-12)
    # residual S phi = eps M phi
    R = _dense(system.stiff_band) @ eig.vectors \
        - _dense(system.mass_band) @ eig.vectors @ np.diag(eig.values)
    assert np.max(np.abs(R)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(J=st.integers(2, 256))
def test_generalized_eigen_matches_dense_solver(J):
    # closed-form eigenpairs against LAPACK's, up to each vector's sign
    system = fem.assemble(fem.Mesh(J))
    eig = fem.generalized_eigen(system)
    vals, vecs = sla.eigh(_dense(system.stiff_band), _dense(system.mass_band))
    assert np.abs(eig.values - vals).max() <= 1e-13 * vals.max()
    signs = np.sign((vecs * eig.vectors).sum(0))
    assert np.all(signs != 0.0)
    assert np.abs(vecs * signs - eig.vectors).max() < 1e-10


def test_eigenvectors_are_built_for_sampling_only(monkeypatch):
    # the exact sdr/total route reads the closed forms, never the (J-1)^2
    # matrix; a Monte Carlo study reconstructs nodal coefficients with it
    bases, build = [], fem.generalized_eigen

    def recorded(system):
        bases.append(build(system))
        return bases[-1]
    monkeypatch.setattr(fem, "generalized_eigen", recorded)
    grids = {"horizon": "1.0", "seed": "0", "n_star": "16", "j_star": "24",
             "K": "100", "M": "16", "h_levels": "2,3,4", "window": "2"}
    for study in ("sdr", "total"):
        cli.run_study(dict(grids, study=study, samples="0"))
    assert len(bases) == 6
    assert not any("vectors" in vars(b) for b in bases)
    bases.clear()
    cli.run_study(dict(grids, study="sdr", samples="2"))
    assert len(bases) == 3 and all("vectors" in vars(b) for b in bases)
    # built on first read, kept, with the closed form's bits
    J = 12
    eig = build(fem.assemble(fem.Mesh(J)))
    p = np.arange(1, J)
    closed = fem._eigen_scale(p, J) * sin_pi_ratio(np.outer(p, p), J)
    assert eig.vectors is eig.vectors
    assert eig.vectors.tobytes() == closed.tobytes()


def test_low_eigenvalues_approach_continuum():
    eig = fem.generalized_eigen(fem.assemble(fem.Mesh(128)))
    lam2 = (np.arange(1, 4) * math.pi) ** 2
    assert np.allclose(eig.values[:3], lam2, rtol=5e-4)


def test_nodal_norms():
    mesh = fem.Mesh(50)
    system = fem.assemble(mesh)
    x = mesh.nodes[1:-1]
    v = x * (1.0 - x)
    # interpolant of x(1-x): exact L2 norm 1/sqrt(30), H1 seminorm 1/sqrt(3)
    l2 = math.sqrt(v @ system.mass_apply(v))
    assert abs(l2 - 1.0 / math.sqrt(30.0)) < 1e-3
    assert abs(fem.h1_seminorm(v, system) - 1.0 / math.sqrt(3.0)) < 1e-3


def test_mesh_validation():
    with pytest.raises(ValueError):
        fem.Mesh(1)
