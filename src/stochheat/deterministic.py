"""Modified Crank-Nicolson schemes for the deterministic heat problem.

The first step is damped (a backward-Euler-like half step), every later
step is the trapezoidal rule.  Per eigenvalue mu the m-step factor is

    r_m(mu) = (1 - rho)^(m-1) / (1 + rho)^m,   rho = dtau * mu / 2,

which is also the Duhamel propagator of the stochastic schemes.
"""

import math

import numpy as np
from scipy import linalg as sla

from .spectral import SpectralField, semigroup_apply, eigenvalue_sqrt
from . import fem

__all__ = [
    "amplification",
    "step_factors",
    "Trajectory",
    "modified_cn_spectral",
    "cn_fem_steps",
    "modified_cn_fem",
    "exact_heat_solution",
    "exact_trajectory",
    "l2t_error",
]


def amplification(mu, m, dtau):
    """m-step amplification factor r_m(mu); mu >= 0, m >= 1."""
    if m < 1:
        raise ValueError("step count must be >= 1")
    mu = np.asarray(mu, dtype=float)
    if np.any(mu < 0.0):
        raise ValueError("eigenvalue must be nonnegative")
    rho = 0.5 * dtau * mu
    q = (1.0 - rho) / (1.0 + rho)
    out = q ** (m - 1) / (1.0 + rho)
    return float(out) if out.ndim == 0 else out


def step_factors(mus, m, dtau):
    """Matrix r[i, l] = r_{l+1}(mus[i]) for l = 0..m-1 (Duhamel kernel)."""
    mus = np.asarray(mus, dtype=float)
    rho = 0.5 * dtau * mus
    q = (1.0 - rho) / (1.0 + rho)
    powers = np.power(q[:, None], np.arange(m)[None, :])
    return powers / (1.0 + rho)[:, None]


class Trajectory:
    """Time-indexed states: rows of ``states`` are fields at tau_m = m*dtau.

    ``kind`` is 'spectral' (rows are sine coefficients) or 'nodal'
    (rows are interior nodal values on a mesh).
    """

    def __init__(self, dtau, states, kind, mesh=None):
        self.dtau = float(dtau)
        self.states = np.asarray(states, dtype=float)
        self.kind = kind
        self.mesh = mesh
        if kind == "nodal" and mesh is None:
            raise ValueError("nodal trajectory needs its mesh")

    @property
    def steps(self):
        return self.states.shape[0] - 1

    @property
    def times(self):
        return np.arange(self.states.shape[0]) * self.dtau

    def field(self, m):
        if self.kind != "spectral":
            raise ValueError("not a spectral trajectory")
        return SpectralField(self.states[m])


def modified_cn_spectral(v0, M, dtau):
    """Per-mode closed recursion: V^m_k = r_m(lam_k^2) v0_k."""
    if M < 1:
        raise ValueError("need at least one step")
    lam2 = eigenvalue_sqrt(v0.modes) ** 2
    states = np.empty((M + 1, v0.K))
    states[0] = v0.coeffs
    rho = 0.5 * dtau * lam2
    q = (1.0 - rho) / (1.0 + rho)
    states[1] = v0.coeffs / (1.0 + rho)
    for m in range(2, M + 1):
        states[m] = q * states[m - 1]
    return Trajectory(dtau, states, "spectral")


def cn_fem_steps(v0, system, M, dtau, loads=None):
    """Banded Crank-Nicolson stepping of nodal values v0, M steps.

    Step 1 solves (M + dtau/2 S) V1 = M V0 + L1, later steps solve
    (M + dtau/2 S) Vm = (M - dtau/2 S) V(m-1) + Lm, where column m-1 of
    ``loads`` holds Lm (omit it for the homogeneous scheme).  From zero
    initial data the damped first step equals the trapezoidal one.
    """
    if M < 1:
        raise ValueError("need at least one step")
    band = np.vstack([
        np.concatenate([[0.0], system.mass_off + 0.5 * dtau * system.stiff_off]),
        system.mass_diag + 0.5 * dtau * system.stiff_diag,
    ])
    chol = sla.cholesky_banded(band)
    states = np.empty((M + 1, system.mesh.nu))
    states[0] = v0
    rhs = system.mass_apply(v0)
    for m in range(1, M + 1):
        if loads is not None:
            rhs = rhs + loads[:, m - 1]
        v = sla.cho_solve_banded((chol, False), rhs)
        states[m] = v
        rhs = system.mass_apply(v) - 0.5 * dtau * system.stiff_apply(v)
    return Trajectory(dtau, states, "nodal", mesh=system.mesh)


def modified_cn_fem(v0, system, M, dtau):
    """Fully discrete scheme (``cn_fem_steps``); starts from the L2
    projection of v0 unless v0 is already a nodal vector."""
    v = v0 if isinstance(v0, np.ndarray) else fem.l2_project(v0, system)
    return cn_fem_steps(v, system, M, dtau)


def exact_heat_solution(v0, t):
    """Reference solution of the heat equation (alias of the semigroup)."""
    return semigroup_apply(t, v0)


def exact_trajectory(v0, M, dtau):
    """Exact solution sampled on the scheme's time grid."""
    lam2 = eigenvalue_sqrt(v0.modes) ** 2
    t = np.arange(M + 1) * dtau
    states = np.exp(-np.outer(t, lam2)) * v0.coeffs[None, :]
    return Trajectory(dtau, states, "spectral")


def _state_diff_norm_sq(a, traj_a, b, traj_b, system, C):
    """Exact squared L2 distance between two states of possibly mixed kind."""
    ka, kb = traj_a.kind, traj_b.kind
    if ka == "spectral" and kb == "spectral":
        return float(np.sum((a - b) ** 2))
    if ka == "nodal" and kb == "nodal":
        d = a - b
        return float(d @ system.mass_apply(d))
    if ka == "nodal":
        a, b = b, a
        traj_a, traj_b = traj_b, traj_a
    # a spectral, b nodal: ||s||^2 - 2 (s, v) + v^T M v with exact Gram
    return (float(np.sum(a**2)) - 2.0 * float(a @ (C @ b))
            + float(b @ system.mass_apply(b)))


def l2t_error(traj_a, traj_b, variant="endpoint", system=None):
    """Discrete-in-time L2(L2) distance between two trajectories.

    variant 'endpoint':  (dtau sum_{m=1}^M ||A^m - B^m||^2)^{1/2}
    variant 'midpoint':  (dtau ||A^1 - B^1||^2
                          + dtau sum_{m=2}^M ||A^{m-1/2} - B^{m-1/2}||^2)^{1/2}

    Spectral-vs-nodal comparisons use exact sine-hat inner products.
    """
    if traj_a.steps != traj_b.steps or not math.isclose(traj_a.dtau, traj_b.dtau):
        raise ValueError("time grids do not match")
    mixed = traj_a.kind != traj_b.kind
    nodal = traj_a if traj_a.kind == "nodal" else traj_b
    if (mixed or traj_a.kind == "nodal") and system is None:
        raise ValueError("nodal comparison needs the FemSystem")
    C = None
    if mixed:
        spectral = traj_a if traj_a.kind == "spectral" else traj_b
        C = fem.sine_hat_inner_matrix(spectral.states.shape[1], nodal.mesh)
    M = traj_a.steps
    dtau = traj_a.dtau
    total = 0.0
    if variant == "endpoint":
        for m in range(1, M + 1):
            total += _state_diff_norm_sq(traj_a.states[m], traj_a,
                                         traj_b.states[m], traj_b, system, C)
    elif variant == "midpoint":
        total += _state_diff_norm_sq(traj_a.states[1], traj_a,
                                     traj_b.states[1], traj_b, system, C)
        for m in range(2, M + 1):
            am = 0.5 * (traj_a.states[m] + traj_a.states[m - 1])
            bm = 0.5 * (traj_b.states[m] + traj_b.states[m - 1])
            total += _state_diff_norm_sq(am, traj_a, bm, traj_b, system, C)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return math.sqrt(dtau * total)
