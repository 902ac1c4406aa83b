"""Piecewise-linear finite elements on a uniform mesh of (0, 1).

Provides the tridiagonal mass/stiffness assembly, the L2 projection,
the discrete elliptic inverse, the closed-form generalized eigenbasis
(L2-orthonormal and energy-orthogonal), and the exact cross inner
products between hat functions, sine modes and noise cells.
"""

import functools
import math

import numpy as np

from .spectral import SpectralField, sin_pi_ratio
from .quadrature import gauss_points

__all__ = [
    "Mesh",
    "FemSystem",
    "FemEigenBasis",
    "assemble",
    "load_vector",
    "l2_project",
    "elliptic_solve_discrete",
    "generalized_eigen",
    "cell_energies",
    "sine_hat_inner_matrix",
    "hat_cell_overlap_matrix",
    "h1_seminorm",
    "evaluate_nodal",
]


class Mesh:
    """Uniform mesh with J intervals; interior nodes x_i = i*h, i=1..J-1."""

    def __init__(self, intervals):
        if intervals < 2:
            raise ValueError("need at least 2 intervals for an interior node")
        self.intervals = int(intervals)
        self.h = 1.0 / self.intervals
        self.nodes = np.arange(self.intervals + 1) * self.h

    @property
    def nu(self):
        return self.intervals - 1


class FemSystem:
    """Mesh plus the tridiagonal mass and stiffness matrices, each held
    once in the upper banded form of LAPACK's Cholesky solvers: row 0 the
    off-diagonal behind a leading 0, row 1 the diagonal.

    ``stack`` joins independent systems into one block-diagonal system.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.mass_band = _band(mesh.nu, 2.0 * mesh.h / 3.0, mesh.h / 6.0)
        self.stiff_band = _band(mesh.nu, 2.0 / mesh.h, -1.0 / mesh.h)

    @classmethod
    def stack(cls, systems):
        """Independent systems as one block-diagonal system, with no mesh:
        the bands end to end, so each block's leading 0 decouples it from
        the one before, and the banded Cholesky solve, ``mass_apply`` and
        ``stiff_apply`` give each block the bits of its own system."""
        out = cls.__new__(cls)
        out.mass_band = np.hstack([s.mass_band for s in systems])
        out.stiff_band = np.hstack([s.stiff_band for s in systems])
        return out

    def mass_apply(self, v):
        """M v, for one nodal vector or a stack (..., nu) of them."""
        return _band_apply(self.mass_band, v)

    def stiff_apply(self, v):
        """S v, for one nodal vector or a stack (..., nu) of them."""
        return _band_apply(self.stiff_band, v)

    def mass_solve(self, rhs):
        return _solveh(self.mass_band, rhs)

    def stiff_solve(self, rhs):
        return _solveh(self.stiff_band, rhs)


def _band(nu, diag, off):
    """Upper banded form of the constant tridiagonal (off, diag, off)."""
    band = np.full((2, nu), [[off], [diag]])
    band[0, 0] = 0.0
    return band


def _band_apply(band, v):
    off = band[0, 1:]
    out = band[1] * v
    out[..., :-1] += off * v[..., 1:]
    out[..., 1:] += off * v[..., :-1]
    return out


def _solveh(band, rhs):
    """LAPACK's tridiagonal solve (``blas.tridiagonal_solve``), the one
    scipy's ``solveh_banded`` calls; one node (nu = 1) divides, where
    LAPACK would multiply by the reciprocal."""
    if band.shape[1] == 1:
        return rhs / band[1, 0]
    from . import blas   # imported here, so that start-up does not load it
    return blas.tridiagonal_solve(band, rhs)


def assemble(mesh):
    return FemSystem(mesh)


def sine_hat_inner_matrix(K, mesh):
    """Matrix C with C[k-1, i-1] = (e_k, hat_i), exact.

    Integrating sin(lam x) against the tent at node x_i gives
    sqrt(2) (2 sin(lam x_i) - sin(lam x_{i-1}) - sin(lam x_{i+1})) / (h lam^2).
    """
    lam = np.arange(1, K + 1) * math.pi
    s = np.sin(np.outer(lam, mesh.nodes))
    core = 2.0 * s[:, 1:-1] - s[:, :-2] - s[:, 2:]
    return math.sqrt(2.0) * core / (mesh.h * lam[:, None] ** 2)


def hat_cell_overlap_matrix(mesh, j_star):
    """Matrix O with O[i-1, j-1] = integral of hat_i over D_j, correctly
    rounded: the band of ``_hat_cell_band`` scattered into O."""
    cells, w = _hat_cell_band(mesh, j_star)
    O = np.zeros((mesh.nu, j_star))
    np.add.at(O, (np.arange(mesh.nu)[:, None], cells), w)   # 0 + w is w
    return O


def _hat_cell_band(mesh, j_star):
    """``(cells, w)``: hat i meets cells[i-1] (``_hat_cells``, less the
    columns no hat meets; past x = 1, cell J* with weight 0) with the
    overlaps w[i-1] = ``_tent_overlaps`` / (2 J J*^2), correctly rounded."""
    J = mesh.intervals
    i = np.arange(1, J)[:, None]
    cells = _hat_cells(i, J, j_star)
    N = _tent_overlaps(i * j_star, j_star, cells * J, cells * J + J)
    live = N.any(0)
    return (np.minimum(cells[:, live], j_star - 1),
            N[:, live] / (2.0 * J * j_star**2))


def _hat_cells(i, J, j_star):
    """The at most 2 J*/J + 2 cells hat i meets, from the one holding
    node i - 1, along a new last axis of the integer nodes i."""
    return (i - 1) * j_star // J + np.arange(2 * j_star // J + 2)


def _tent_overlaps(center, half, lo, hi):
    """2 half times the integral over [lo, hi] of the unit tent of
    half-width ``half`` about ``center``, from integer arrays: up to
    center + y, y in [-half, half], it is half^2 + y (2 half - |y|)."""
    y0, y1 = (np.clip(x - center, -half, half) for x in (lo, hi))
    return y1 * (2 * half - abs(y1)) - y0 * (2 * half - abs(y0))


def load_vector(f, mesh):
    """(f, hat_i) for all interior nodes; exact for SpectralField inputs,
    else 4 panels of 8 Gauss points per element."""
    if isinstance(f, SpectralField):
        C = sine_hat_inner_matrix(f.K, mesh)
        return C.T @ f.coeffs
    x, w = gauss_points(0.0, mesh.h, 4, 8)
    load = np.zeros(mesh.nu)
    for e in range(mesh.intervals):
        xx = e * mesh.h + x
        vals = w * np.asarray(f(xx), dtype=float)
        rising = (vals * (xx - mesh.nodes[e]) / mesh.h).sum()
        falling = (vals * (mesh.nodes[e + 1] - xx) / mesh.h).sum()
        if e + 1 <= mesh.nu:
            load[e] += rising
        if e >= 1:
            load[e - 1] += falling
    return load


def l2_project(f, system):
    """Nodal coefficients of the L2 projection P_h f (solves M c = load)."""
    return system.mass_solve(load_vector(f, system.mesh))


def elliptic_solve_discrete(f, system):
    """Discrete elliptic inverse: solves S v = -(f, hat) so -Lap_h v = P_h f."""
    return system.stiff_solve(-load_vector(f, system.mesh))


class FemEigenBasis:
    """Generalized eigenpairs S phi = eps M phi, M-orthonormal, ascending;
    ``vectors`` (nu, nu), columns phi_p, is built on first read and kept:
    only sampling and the selftest read it, not the exact route."""

    def __init__(self, system, values):
        self.system = system
        self.values = values      # (nu,)

    @functools.cached_property
    def vectors(self):
        J = self.system.mesh.intervals
        p = np.arange(1, J)
        return _eigen_scale(p, J) * sin_pi_ratio(np.outer(p, p), J)


def _eigen_scale(p, intervals):
    """c_p = sqrt(6/(2 + cos(p pi h))): phi_p(x_i) = c_p sin(p pi x_i)."""
    return np.sqrt(6.0 / (2.0 + np.cos(p * (math.pi / intervals))))


def generalized_eigen(system):
    """Eigenpairs of S phi = eps M phi on the uniform mesh, in closed form.

    With a = p pi h (Strang & Fix): eps_p = (6/h^2) 2 sin^2(a/2)/(2 + cos a)
    and phi_p(x_i) = c_p sin(p pi x_i) (``_eigen_scale``), p = 1..nu, each
    sine taken by ``spectral.sin_pi_ratio`` on the integers p and i p.
    """
    J = system.mesh.intervals
    p = np.arange(1, J)
    return FemEigenBasis(system, 12.0 * J * J * sin_pi_ratio(p, 2 * J) ** 2
                         / (2.0 + np.cos(p * (math.pi / J))))


def cell_energies(eigen, j_star):
    """E_p = sum_j beta_pj^2, beta_pj the integral of phi_p over noise cell
    D_j, in closed form: ``(V^T O)**2`` summed over cells, O the hat-cell
    overlaps, without O.

    Extended oddly at x = 0 and 1, phi_p is the interpolant of c_p sin(p pi
    x_i) at every node, so sum_j beta_pj^2 is half its sum over a period
    (2J nodes, 2J* cells): sum_i phi_i sum_d G_i(d) phi_(i+d), with G_i(d)
    the cell-wise product of hats i and i + d (``_hat_cell_gram``).  G_i
    depends only on the class i0 = i mod J', J' = J/gcd(J, J*), of the
    node's offset within its cell.  Over the 2g nodes of a class (g =
    gcd(J, J*)), phi_i phi_(i+d) = c_p^2/2 (cos(p pi d/J) - cos(p pi (2i +
    d)/J)) sums to g c_p^2 (cos(p pi d/J) - [g | p] cos(p pi (2 i0 + d)/J)),
    and the second cosine depends only on 2 i0 + d mod 2J'.
    """
    J = eigen.system.mesh.intervals
    g = math.gcd(J, j_star)
    G, d = _hat_cell_gram(J, j_star)   # (J' classes, 2w + 1), offsets d
    p = np.arange(1, J)
    energies = _cos_pi_ratio(np.outer(p, d), J) @ G.sum(0)
    if g < J:                 # p = g m for m = 1 .. J' - 1
        q = np.arange(2 * len(G))
        H = np.bincount((2 * q[:len(G), None] + d).ravel() % len(q),
                        G.ravel(), len(q))
        energies[g - 1::g] -= _cos_pi_ratio(q, len(G))[
            np.outer(q[1:len(G)], q) % len(q)] @ H
    return 0.5 * g * _eigen_scale(p, J) ** 2 * energies


def _cos_pi_ratio(m, n):
    """cos(pi m/n) = sin(pi (n - 2m)/(2n)), in integers (``sin_pi_ratio``)."""
    return sin_pi_ratio(n - 2 * m, 2 * n)


def _hat_cell_gram(J, j_star):
    """``(G, d)``: G[i0, w + d] = sum_j (hat_i0, 1_Dj)(hat_(i0 + d), 1_Dj)
    over every cell D_j of the line, for the classes i0 < J/gcd(J, J*) and
    the offsets |d| <= w = 1 + ceil(J/J*) past which two hats share no cell.

    In units of 1/(J J*) node i sits at i J* and cell j spans [j J, j J +
    J]; each overlap is an integer over 2 J J*^2 (``_tent_overlaps``), so
    each product is one rounding.
    """
    classes = J // math.gcd(J, j_star)
    w = 1 + -(-J // j_star)
    d = np.arange(-w, w + 1)
    i0 = np.arange(classes)[:, None, None]
    cells = _hat_cells(i0, J, j_star)        # the cells hat i0 meets
    # hats i0 + d over them: (classes, 2w+1, band) integer numerators
    N = _tent_overlaps((i0 + d[:, None]) * j_star, j_star, cells * J,
                       cells * J + J).astype(float)
    G = np.sum(N[:, w:w + 1] * N, axis=2) / float(2 * J * j_star ** 2) ** 2
    return G, d


def h1_seminorm(v, system):
    """H1 seminorm (energy norm) of the nodal function."""
    return math.sqrt(float(v @ system.stiff_apply(v)))


def evaluate_nodal(v, mesh, x):
    """Pointwise values of the nodal function at points x (linear interp)."""
    pts = np.concatenate([[0.0], np.asarray(v, dtype=float), [0.0]])
    return np.interp(x, mesh.nodes, pts)
