"""Modified Crank-Nicolson schemes for the deterministic heat problem.

The first step is damped (a backward-Euler-like half step), every later
step is the trapezoidal rule.  Per eigenvalue mu the m-step factor is

    r_m(mu) = (1 - rho)^(m-1) / (1 + rho)^m,   rho = dtau * mu / 2,

which is also the Duhamel propagator of the stochastic schemes.
"""

import math

import numpy as np

from .spectral import SpectralField, eigenvalue_sqrt
from . import fem

__all__ = [
    "amplification",
    "step_factors",
    "Trajectory",
    "cn_spectral_steps",
    "modified_cn_spectral",
    "cn_fem_stepper",
    "modified_cn_fem",
    "exact_trajectory",
    "l2t_error",
]


def amplification(mu, m, dtau):
    """m-step amplification factor r_m(mu); mu >= 0, m >= 1, broadcast."""
    if np.any(np.asarray(m) < 1):
        raise ValueError("step count must be >= 1")
    mu = np.asarray(mu, dtype=float)
    if np.any(mu < 0.0):
        raise ValueError("eigenvalue must be nonnegative")
    rho = 0.5 * dtau * mu
    q = (1.0 - rho) / (1.0 + rho)
    out = q ** (m - 1) / (1.0 + rho)
    return float(out) if out.ndim == 0 else out


def _cn_factors(mus, dtau):
    """(1/(1 + rho), log|q|, q < 0) per eigenvalue, rho = dtau mu/2 and
    q = (1 - rho)/(1 + rho), so that r_m(mu) = q^(m-1)/(1 + rho).

    1 - |q| = 2 min(rho, 1)/(1 + rho) has no cancellation; q = 0
    (rho = 1) gives log|q| = -inf without a warning.
    """
    rho = 0.5 * dtau * np.asarray(mus, dtype=float)
    d = 2.0 * np.minimum(rho, 1.0) / (1.0 + rho)
    log_q = np.log1p(-d, out=np.full(d.shape, -np.inf), where=d < 1.0)
    return 1.0 / (1.0 + rho), log_q, rho > 1.0


def step_factors(mus, m, dtau):
    """Matrix r[i, l] = r_{l+1}(mus[i]) for l = 0..m-1 (Duhamel kernel).

    Column l is exp(l log|q|)/(1 + rho), negated for odd l where q < 0.
    """
    mus = np.reshape(np.asarray(mus, dtype=float), -1)
    if np.any(mus < 0.0):
        raise ValueError("eigenvalue must be nonnegative")
    inv, log_q, neg = _cn_factors(mus, dtau)
    out = np.empty((inv.size, m))
    out[:, :1] = inv[:, None]
    np.exp(np.multiply.outer(log_q, np.arange(1, m)), out=out[:, 1:])
    out[:, 1:] *= inv[:, None]
    out[neg, 1::2] *= -1.0
    return out


class Trajectory:
    """Time-indexed states: rows of ``states`` are fields at tau_m = m*dtau.

    ``kind`` is 'spectral' (rows are sine coefficients) or 'nodal'
    (rows are interior nodal values of the FemSystem that stepped them).
    """

    def __init__(self, dtau, states, kind):
        if kind not in ("spectral", "nodal"):
            raise ValueError(f"unknown trajectory kind {kind!r}")
        self.dtau = float(dtau)
        self.states = np.asarray(states, dtype=float)
        self.kind = kind

    @property
    def steps(self):
        return self.states.shape[0] - 1

    def field(self, m):
        if self.kind != "spectral":
            raise ValueError("not a spectral trajectory")
        return SpectralField(self.states[m])


def cn_spectral_steps(v0, lam2, M, dtau, loads=None):
    """Crank-Nicolson stepping of sine coefficients v0 with eigenvalues
    lam2, M steps: the scheme of ``cn_fem_stepper`` with identity mass and
    diagonal stiffness.

    V1 = (V0 + L1)/(1 + rho), then Vm = q V(m-1) + Lm/(1 + rho) with
    q = (1 - rho)/(1 + rho), where column m-1 of ``loads`` holds Lm
    (omit it for the homogeneous scheme, V^m = r_m(lam2) V0).  An
    overflowing rho makes q nan without a warning, and the error of the
    states fails the study's fit.
    """
    if M < 1:
        raise ValueError("need at least one step")
    states = np.empty((M + 1, np.size(lam2)))
    states[0] = v0
    with np.errstate(over="ignore", invalid="ignore"):
        rho = 0.5 * dtau * lam2
        q = (1.0 - rho) / (1.0 + rho)
        v = v0 / (1.0 + rho)
        for m in range(1, M + 1):
            if loads is not None:
                v = v + loads[:, m - 1] / (1.0 + rho)
            states[m] = v
            v = q * v
    return Trajectory(dtau, states, "spectral")


def modified_cn_spectral(v0, M, dtau):
    """Per-mode closed recursion: V^m_k = r_m(lam_k^2) v0_k."""
    return cn_spectral_steps(v0.coeffs, eigenvalue_sqrt(v0.modes) ** 2,
                             M, dtau)


def cn_fem_stepper(system, dtau):
    """Banded Crank-Nicolson stepping of nodal values as a function
    ``advance(rhs, out, loads=None)`` that takes len(out) steps.

    Step m solves (M + dtau/2 S) Vm = rhs + Lm: rhs is M V0 for step 1
    (from zero data, the trapezoidal step), else (M - dtau/2 S) V(m-1),
    and Lm is column m - 1 of ``loads`` (omit it for the homogeneous
    scheme).  State m of the block goes to out[m - 1] and the rhs of the
    step after it is returned, so a path stepped block by block has the
    bits of one pass.  A block with a non-finite state raises ValueError.
    The next rhs takes ``mass_apply``'s operations in its order, in place:
    one product of both bands with the windows of the zero-padded state.
    """
    from . import blas   # imported here, so that start-up does not load it
    with np.errstate(over="ignore"):   # a non-finite band raises below
        band = system.mass_band + 0.5 * dtau * system.stiff_band
    chol = blas.cholesky_band(band)
    nu = band.shape[1]
    padded = np.zeros(nu + 2)
    x = padded[1:-1]
    solve = blas.cho_solver(chol, x)   # overwrites x with chol^-1 x
    coef = np.zeros((2, 3, nu))   # mass, stiffness: lower, diagonal, upper
    for c, b in zip(coef, (system.mass_band, system.stiff_band)):
        c[0], c[1], c[2, :-1] = b[0], b[1], b[0, 1:]
    window = np.lib.stride_tricks.sliding_window_view(padded, 3).T
    terms, sums = np.empty_like(coef), np.empty((2, nu))

    def advance(rhs, out, loads=None):
        # a NaN or inf input spreads to the states (quietly), which are
        # checked once per block
        with np.errstate(invalid="ignore", over="ignore"):
            x[...] = rhs
            for m in range(len(out)):
                if loads is not None:
                    np.add(x, loads[:, m], out=x)
                solve()
                out[m] = x
                np.multiply(coef, window, out=terms)
                np.add(terms[:, 1], terms[:, 2], out=sums)
                np.add(sums, terms[:, 0], out=sums)
                np.multiply(sums[1], 0.5 * dtau, out=sums[1])
                np.subtract(sums[0], sums[1], out=x)
        if not np.isfinite(out).all():
            raise ValueError("Crank-Nicolson states are not finite")
        return x.copy()
    return advance


def modified_cn_fem(v0, system, M, dtau, loads=None):
    """Fully discrete scheme: M steps of ``cn_fem_stepper`` in one pass
    from the L2 projection of v0, or from v0 if it is a nodal vector, as
    for a stacked system (``fem.FemSystem.stack``).  Column m - 1 of
    ``loads`` is the load of step m (omit it for the homogeneous scheme):
    the FEM twin of ``cn_spectral_steps``."""
    if M < 1:
        raise ValueError("need at least one step")
    v = v0 if isinstance(v0, np.ndarray) else fem.l2_project(v0, system)
    states = np.empty((M + 1, system.mass_band.shape[1]))
    states[0] = v
    with np.errstate(invalid="ignore", over="ignore"):   # checked per block
        rhs = system.mass_apply(v)
    cn_fem_stepper(system, dtau)(rhs, states[1:], loads)
    return Trajectory(dtau, states, "nodal")


def exact_trajectory(v0, M, dtau):
    """Exact solution sampled on the scheme's time grid."""
    lam2 = eigenvalue_sqrt(v0.modes) ** 2
    t = np.arange(M + 1) * dtau
    with np.errstate(over="ignore"):   # exp(-inf) is 0
        states = np.exp(-np.outer(t, lam2)) * v0.coeffs[None, :]
    return Trajectory(dtau, states, "spectral")


_STEP_BLOCK = 512


def _compared_states(traj, lo, hi, midpoint):
    """States lo..hi-1 that the error compares: the endpoints V^m, or
    for the midpoint variant V^1 and then V^(m-1/2)."""
    S = traj.states
    if not midpoint:
        return S[lo:hi]
    out = 0.5 * (S[lo:hi] + S[lo - 1:hi - 1])
    if lo == 1:
        out[0] = S[1]
    return out


def _row_dots(x, y):
    """x[i] @ y[i] for every row i: stacked matmul makes the same BLAS
    dot per row as the 1-D product, so each value has its bits."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def l2t_error(traj_a, traj_b, variant="endpoint", system=None):
    """Discrete-in-time L2(L2) distance between two trajectories.

    variant 'endpoint':  (dtau sum_{m=1}^M ||A^m - B^m||^2)^{1/2}
    variant 'midpoint':  (dtau ||A^1 - B^1||^2
                          + dtau sum_{m=2}^M ||A^{m-1/2} - B^{m-1/2}||^2)^{1/2}

    Both trajectories are spectral, or one is spectral and one nodal (in
    either order): that distance takes exact sine-hat inner products,
    ||s||^2 - 2 (s, v) + v^T M v.  Two nodal ones raise ValueError.  The
    squared distances are formed in blocks of steps and added to the sum
    one step at a time, in order.
    """
    if traj_a.steps != traj_b.steps or not math.isclose(traj_a.dtau, traj_b.dtau):
        raise ValueError("time grids do not match")
    if variant not in ("endpoint", "midpoint"):
        raise ValueError(f"unknown variant {variant!r}")
    if traj_a.kind == "nodal":
        traj_a, traj_b = traj_b, traj_a
    if traj_a.kind == "nodal":
        raise ValueError("two nodal trajectories do not compare")
    nodal = traj_b.kind == "nodal"
    if not nodal and traj_a.states.shape[1] != traj_b.states.shape[1]:
        raise ValueError("truncation levels differ: K = %d and K = %d"
                         % (traj_a.states.shape[1], traj_b.states.shape[1]))
    if nodal:
        if system is None:
            raise ValueError("nodal comparison needs the FemSystem")
        C = fem.sine_hat_inner_matrix(traj_a.states.shape[1], system.mesh)
    M = traj_a.steps
    midpoint = variant == "midpoint"
    total = 0.0
    for lo in range(1, M + 1, _STEP_BLOCK):
        hi = min(lo + _STEP_BLOCK, M + 1)
        a = _compared_states(traj_a, lo, hi, midpoint)
        b = _compared_states(traj_b, lo, hi, midpoint)
        if nodal:
            cb = np.matmul(C, b[:, :, None])[:, :, 0]
            d2 = (np.sum(a**2, axis=1) - 2.0 * _row_dots(a, cb)
                  + _row_dots(b, system.mass_apply(b)))
        else:
            d2 = np.sum((a - b) ** 2, axis=1)
        for x in d2.tolist():
            total += x
    return math.sqrt(traj_a.dtau * total)
