"""Piecewise-linear finite elements on a uniform mesh of (0, 1).

Provides the tridiagonal mass/stiffness assembly, the L2 projection,
the discrete elliptic inverse, the generalized eigenbasis that is
L2-orthonormal and energy-orthogonal, and the exact cross inner
products between hat functions, sine modes and noise cells.
"""

import math

import numpy as np
from scipy import linalg as sla

from .spectral import SpectralField
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
    "sine_hat_inner",
    "sine_hat_inner_matrix",
    "hat_cell_overlap",
    "hat_cell_overlap_matrix",
    "nodal_l2_norm",
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

    @property
    def interior(self):
        return self.nodes[1:-1]


class FemSystem:
    """Mesh plus assembled tridiagonal mass and stiffness matrices."""

    def __init__(self, mesh):
        self.mesh = mesh
        h = mesh.h
        nu = mesh.nu
        self.mass_diag = np.full(nu, 2.0 * h / 3.0)
        self.mass_off = np.full(nu - 1, h / 6.0)
        self.stiff_diag = np.full(nu, 2.0 / h)
        self.stiff_off = np.full(nu - 1, -1.0 / h)
        # banded storage (upper form) for scipy's Cholesky solvers
        self._mass_band = np.vstack([np.concatenate([[0.0], self.mass_off]),
                                     self.mass_diag])
        self._stiff_band = np.vstack([np.concatenate([[0.0], self.stiff_off]),
                                      self.stiff_diag])

    def mass_dense(self):
        return (np.diag(self.mass_diag) + np.diag(self.mass_off, 1)
                + np.diag(self.mass_off, -1))

    def stiff_dense(self):
        return (np.diag(self.stiff_diag) + np.diag(self.stiff_off, 1)
                + np.diag(self.stiff_off, -1))

    def mass_apply(self, v):
        out = self.mass_diag * v
        out[:-1] += self.mass_off * v[1:]
        out[1:] += self.mass_off * v[:-1]
        return out

    def stiff_apply(self, v):
        out = self.stiff_diag * v
        out[:-1] += self.stiff_off * v[1:]
        out[1:] += self.stiff_off * v[:-1]
        return out

    def mass_solve(self, rhs):
        return sla.solveh_banded(self._mass_band, rhs)

    def stiff_solve(self, rhs):
        return sla.solveh_banded(self._stiff_band, rhs)


def assemble(mesh):
    return FemSystem(mesh)


def sine_hat_inner(k, i, mesh):
    """(e_k, hat_i) over D, exact.

    Integrating sin(lam x) against the tent at node x_i gives
    sqrt(2) (2 sin(lam x_i) - sin(lam x_{i-1}) - sin(lam x_{i+1})) / (h lam^2).
    """
    if not (1 <= i <= mesh.nu):
        raise ValueError("interior node index out of range")
    lam = k * math.pi
    x = mesh.nodes
    return (math.sqrt(2.0) / (mesh.h * lam**2)
            * (2.0 * math.sin(lam * x[i]) - math.sin(lam * x[i - 1])
               - math.sin(lam * x[i + 1])))


def sine_hat_inner_matrix(K, mesh):
    """Matrix C with C[k-1, i-1] = (e_k, hat_i), exact, vectorized."""
    lam = np.arange(1, K + 1) * math.pi
    s = np.sin(np.outer(lam, mesh.nodes))
    core = 2.0 * s[:, 1:-1] - s[:, :-2] - s[:, 2:]
    return math.sqrt(2.0) * core / (mesh.h * lam[:, None] ** 2)


def _hat_antiderivative(i, mesh, x):
    """Integral of hat_i from 0 to x (piecewise quadratic), vectorized."""
    h = mesh.h
    xl, xc, xr = (i - 1) * h, i * h, (i + 1) * h
    x = np.asarray(x, dtype=float)
    rise = np.clip(x, xl, xc) - xl
    fall = np.clip(x, xc, xr) - xc
    return rise**2 / (2.0 * h) + fall - fall**2 / (2.0 * h)


def hat_cell_overlap(i, j, mesh, j_star):
    """Integral of hat_i over noise cell D_j (grids may be misaligned)."""
    if not (1 <= i <= mesh.nu):
        raise ValueError("interior node index out of range")
    if not (1 <= j <= j_star):
        raise ValueError("cell index out of range")
    dx = 1.0 / j_star
    lo = _hat_antiderivative(i, mesh, (j - 1) * dx)
    hi = _hat_antiderivative(i, mesh, j * dx)
    return float(hi - lo)


def hat_cell_overlap_matrix(mesh, j_star):
    """Matrix O with O[i-1, j-1] = integral of hat_i over D_j."""
    edges = np.arange(j_star + 1) / j_star
    out = np.empty((mesh.nu, j_star))
    for i in range(1, mesh.nu + 1):
        anti = _hat_antiderivative(i, mesh, edges)
        out[i - 1] = np.diff(anti)
    return out


def load_vector(f, mesh, npts=8, nsub=4):
    """(f, hat_i) for all interior nodes; exact for SpectralField inputs."""
    if isinstance(f, SpectralField):
        C = sine_hat_inner_matrix(f.K, mesh)
        return C.T @ f.coeffs
    x, w = gauss_points(0.0, mesh.h, nsub, npts)
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
    """Generalized eigenpairs S phi = eps M phi, M-orthonormal, ascending."""

    def __init__(self, system, values, vectors):
        self.system = system
        self.values = values      # (nu,)
        self.vectors = vectors    # (nu, nu), columns are phi_j

    @property
    def nu(self):
        return self.values.size


def generalized_eigen(system):
    """Full dense generalized symmetric eigendecomposition.

    Eigenvectors come back M-orthonormal from LAPACK; a convergence
    failure surfaces as an explicit error rather than partial output.
    """
    try:
        vals, vecs = sla.eigh(system.stiff_dense(), system.mass_dense())
    except sla.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise RuntimeError("generalized eigensolver failed to converge") from exc
    if np.any(vals <= 0.0):
        raise RuntimeError("nonpositive stiffness eigenvalue; assembly broken")
    return FemEigenBasis(system, vals, vecs)


def nodal_l2_norm(v, system):
    """L2 norm of the piecewise-linear function with nodal values v."""
    return math.sqrt(float(v @ system.mass_apply(v)))


def h1_seminorm(v, system):
    """H1 seminorm (energy norm) of the nodal function."""
    return math.sqrt(float(v @ system.stiff_apply(v)))


def evaluate_nodal(v, mesh, x):
    """Pointwise values of the nodal function at points x (linear interp)."""
    pts = np.concatenate([[0.0], np.asarray(v, dtype=float), [0.0]])
    return np.interp(x, mesh.nodes, pts)
