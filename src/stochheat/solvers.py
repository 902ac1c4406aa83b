"""Stochastic solvers driven by one discretized noise grid.

Three routes to the same noise realization:

* exact spectral evaluation of the regularized solution (no stepping),
* Crank-Nicolson time stepping per sine mode,
* Crank-Nicolson finite elements (nodal stepping).

All three are linear in the Gaussian cell increments, so every solver
also exposes a factorized coefficient map against the increments; the
map yields exact second moments without sampling.
"""

import math

import numpy as np

from . import fem, noise
from .deterministic import Trajectory, cn_fem_steps, step_factors

__all__ = [
    "interval_overlaps",
    "propagator_time_profile",
    "stochastic_loads_spectral",
    "stochastic_loads_fem",
    "regularized_exact",
    "cn_time_discrete",
    "cn_fem_spde",
    "GaussianCoefficientMap",
    "map_regularized",
    "map_cn_spectral",
    "map_cn_fem",
    "cross_moment",
    "spectral_fem_gram",
]

_MODE_CHUNK = 512


def interval_overlaps(m, dtau, n_star, horizon=1.0):
    """Matrix V[l-1, n-1] = |Delta_l intersect T_n| for l = 1..m.

    Both grids are uniform; in the studies they are dyadic, so the
    float endpoint arithmetic below is exact.
    """
    dt = horizon / n_star
    tau = np.arange(m + 1) * dtau
    t = np.arange(n_star + 1) * dt
    lo = np.maximum(tau[:-1, None], t[None, :-1])
    hi = np.minimum(tau[1:, None], t[None, 1:])
    return np.maximum(hi - lo, 0.0)


def propagator_time_profile(mus, m, dtau, n_star, horizon=1.0):
    """A[i, n] = sum_l r_{m-l+1}(mus[i]) |Delta_l intersect T_n|.

    This is the exact time profile of the Duhamel sum of a stepped
    solution against the noise cells.  Aligned dyadic grids take the
    cheap block paths; anything else falls back to a dense product.
    """
    mus = np.asarray(mus, dtype=float)
    dt = horizon / n_star
    out = np.zeros((mus.size, n_star))
    ratio = dtau / dt
    p = round(ratio)
    c = round(1.0 / ratio) if ratio > 0 else 0
    for lo in range(0, mus.size, _MODE_CHUNK):
        sl = slice(lo, min(lo + _MODE_CHUNK, mus.size))
        rfac = step_factors(mus[sl], m, dtau)[:, ::-1]  # col l-1 -> r_{m-l+1}
        if p >= 1 and abs(ratio - p) < 1e-12:
            # each step spans p noise cells
            out[sl, : m * p] = dt * np.repeat(rfac, p, axis=1)
        elif c >= 1 and abs(1.0 / ratio - c) < 1e-12:
            # each noise cell spans c steps
            ncov = (m + c - 1) // c
            idx = np.arange(0, m, c)
            out[sl, :ncov] = dtau * np.add.reduceat(rfac, idx, axis=1)
        else:
            out[sl] = rfac @ interval_overlaps(m, dtau, n_star, horizon)
    return out


def stochastic_loads_spectral(grid, K, M):
    """W[k-1, l-1] = integral over Delta_l of (noise, e_k)."""
    dtau = grid.horizon / M
    B = noise.mode_cell_integrals(K, grid.j_star)
    P = B @ grid.increments.T                       # (K, N)
    V = interval_overlaps(M, dtau, grid.n_star, grid.horizon)
    return (P @ V.T) / (grid.dt * grid.dx)


def stochastic_loads_fem(grid, system, M):
    """L[i-1, l-1] = integral over Delta_l of (noise, hat_i)."""
    dtau = grid.horizon / M
    O = fem.hat_cell_overlap_matrix(system.mesh, grid.j_star)
    Q = O @ grid.increments.T                       # (nu, N)
    V = interval_overlaps(M, dtau, grid.n_star, grid.horizon)
    return (Q @ V.T) / (grid.dt * grid.dx)


def regularized_exact(grid, K, t):
    """The regularized solution at time t, exact given the grid."""
    if not (0.0 <= t <= grid.horizon + 1e-12):
        raise ValueError("time outside [0, T]")
    from .spectral import SpectralField
    if t == 0.0:
        return SpectralField(np.zeros(K))
    ks = np.arange(1, K + 1)
    I = noise.time_overlaps(ks, t, grid.n_star, grid.horizon)
    B = noise.mode_cell_integrals(K, grid.j_star)
    coeffs = np.einsum("kn,kn->k", I, B @ grid.increments.T)
    return SpectralField(coeffs / (grid.dt * grid.dx))


def cn_time_discrete(grid, K, M):
    """Crank-Nicolson time stepping per sine mode, zero initial data."""
    if M < 1:
        raise ValueError("need at least one step")
    dtau = grid.horizon / M
    lam2 = (np.arange(1, K + 1) * math.pi) ** 2
    rho = 0.5 * dtau * lam2
    W = stochastic_loads_spectral(grid, K, M)
    states = np.zeros((M + 1, K))
    for m in range(1, M + 1):
        states[m] = ((1.0 - rho) * states[m - 1] + W[:, m - 1]) / (1.0 + rho)
    return Trajectory(dtau, states, "spectral")


def cn_fem_spde(grid, system, M):
    """Crank-Nicolson finite element stepping, zero initial data."""
    if M < 1:
        raise ValueError("need at least one step")
    return cn_fem_steps(np.zeros(system.mesh.nu), system, M, grid.horizon / M,
                        stochastic_loads_fem(grid, system, M))


def _same_grid(a, b):
    """Whether two maps (or a map and a NoiseGrid) share one noise grid."""
    return ((a.n_star, a.j_star) == (b.n_star, b.j_star)
            and math.isclose(a.horizon, b.horizon))


class GaussianCoefficientMap:
    """Factorized coefficients of a field observable against the increments.

    Basis coefficient i of the observable is
    ``scale * sum_{n,j} time[i, n] space[i, j] R[n, j]`` in an
    L2-orthonormal basis ('sine' modes or the FEM eigenbasis), which
    makes second moments exact sums of squares.  The scale 1/(dt dx)
    turns cell increments into the piecewise-constant noise.
    """

    def __init__(self, time, space, basis, n_star, j_star, horizon):
        self.time = np.asarray(time, dtype=float)
        self.space = np.asarray(space, dtype=float)
        self.basis = basis
        self.n_star = int(n_star)
        self.j_star = int(j_star)
        self.horizon = float(horizon)
        if self.time.shape[0] != self.space.shape[0]:
            raise ValueError("factor row counts differ")

    @property
    def cell_area(self):
        return (self.horizon / self.n_star) * (1.0 / self.j_star)

    @property
    def scale(self):
        return 1.0 / self.cell_area

    def reconstruct(self, grid):
        """Basis coefficients of the observable on a sampled grid."""
        if not _same_grid(self, grid):
            raise ValueError("noise grid does not match the map's grid")
        return self.scale * np.einsum(
            "kn,kn->k", self.time, self.space @ grid.increments.T)

    def second_moment(self):
        """E ||X||^2, exact (independent increments, orthonormal basis)."""
        return (self.cell_area * self.scale**2
                * float(np.sum((self.time**2).sum(1) * (self.space**2).sum(1))))

    def diff(self, other):
        """Map of X - Y when both share basis and space factors."""
        if self.basis != other.basis or self.space.shape != other.space.shape:
            raise ValueError("maps not compatible for subtraction")
        if not (np.array_equal(self.space, other.space)
                and _same_grid(self, other)):
            raise ValueError("maps must share space factors and noise grid")
        return GaussianCoefficientMap(self.time - other.time, self.space,
                                      self.basis, self.n_star, self.j_star,
                                      self.horizon)


def cross_moment(map_a, map_b, gram=None):
    """E <X, Y> for two observables of the same noise grid.

    ``gram[i, p]`` holds the L2 inner products between the two bases;
    omit it when both maps use the same orthonormal basis.
    """
    if not _same_grid(map_a, map_b):
        raise ValueError("maps live on different noise grids")
    tt = map_a.time @ map_b.time.T
    ss = map_a.space @ map_b.space.T
    if gram is None:
        if map_a.basis != map_b.basis or map_a.time.shape[0] != map_b.time.shape[0]:
            raise ValueError("cross moment between different bases needs a Gram matrix")
        total = float(np.sum(np.diag(tt) * np.diag(ss)))
    else:
        total = float(np.sum(gram * tt * ss))
    return map_a.cell_area * map_a.scale * map_b.scale * total


def spectral_fem_gram(K, eigen):
    """Gram matrix (e_k, phi_p) between sine modes and FEM eigenfunctions."""
    C = fem.sine_hat_inner_matrix(K, eigen.system.mesh)
    return C @ eigen.vectors


def map_regularized(n_star, j_star, horizon, K, t):
    """Coefficient map of the regularized solution at time t."""
    ks = np.arange(1, K + 1)
    if t == 0.0:
        time = np.zeros((K, n_star))
    else:
        time = noise.time_overlaps(ks, t, n_star, horizon)
    B = noise.mode_cell_integrals(K, j_star)
    return GaussianCoefficientMap(time, B, "sine", n_star, j_star, horizon)


def map_cn_spectral(n_star, j_star, horizon, K, M, m):
    """Coefficient map of the CN time-discrete solution at step m."""
    if not (1 <= m <= M):
        raise ValueError("step index out of range")
    dtau = horizon / M
    lam2 = (np.arange(1, K + 1) * math.pi) ** 2
    A = propagator_time_profile(lam2, m, dtau, n_star, horizon)
    B = noise.mode_cell_integrals(K, j_star)
    return GaussianCoefficientMap(A, B, "sine", n_star, j_star, horizon)


def map_cn_fem(n_star, j_star, horizon, eigen, M, m):
    """Coefficient map (in the FEM eigenbasis) of the CN FEM solution."""
    if not (1 <= m <= M):
        raise ValueError("step index out of range")
    dtau = horizon / M
    A = propagator_time_profile(eigen.values, m, dtau, n_star, horizon)
    O = fem.hat_cell_overlap_matrix(eigen.system.mesh, j_star)
    beta = eigen.vectors.T @ O
    return GaussianCoefficientMap(A, beta, "fem", n_star, j_star, horizon)
