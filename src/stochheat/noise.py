"""Discretized space-time white noise on (0, T) x (0, 1).

The noise is piecewise constant on an N x J grid of space-time cells;
cell (n, j) carries an independent Gaussian increment R[n, j] with
variance dt*dx.  The helpers below also provide the closed-form cell
functionals (sine-mode cell integrals and exponential time overlaps)
that make all downstream second-moment computations exact.
"""

import math
import struct

import numpy as np

from .quadrature import gauss_points

__all__ = [
    "NoiseGrid",
    "sample",
    "coarsen",
    "w_eval",
    "project_pi",
    "mode_cell_integrals",
    "mode_cell_sq_sums",
    "time_overlaps",
    "time_overlap_sq_sum",
    "save_grid",
    "load_grid",
]


class NoiseGrid:
    """Immutable matrix of Gaussian cell increments plus grid metadata."""

    __slots__ = ("n_star", "j_star", "horizon", "seed", "increments")

    def __init__(self, n_star, j_star, horizon, seed, increments):
        if n_star < 1 or j_star < 1:
            raise ValueError("cell counts must be >= 1")
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        inc = np.array(increments, dtype=float)
        if inc.shape != (n_star, j_star):
            raise ValueError("increment matrix shape mismatch")
        inc.flags.writeable = False
        object.__setattr__(self, "n_star", int(n_star))
        object.__setattr__(self, "j_star", int(j_star))
        object.__setattr__(self, "horizon", float(horizon))
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "increments", inc)

    def __setattr__(self, name, value):
        raise AttributeError("NoiseGrid is immutable")

    @property
    def dt(self):
        return self.horizon / self.n_star

    @property
    def dx(self):
        return 1.0 / self.j_star

    def __repr__(self):
        return (f"NoiseGrid(n_star={self.n_star}, j_star={self.j_star}, "
                f"horizon={self.horizon}, seed={self.seed})")


def sample(n_star, j_star, horizon=1.0, seed=0):
    """Draw an N x J matrix of independent N(0, dt*dx) increments.

    Philox is counter based, so a fixed (n_star, j_star, horizon, seed)
    reproduces the matrix bit for bit regardless of platform threading.
    """
    if n_star < 1 or j_star < 1:
        raise ValueError("cell counts must be >= 1")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    rng = np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))
    sd = math.sqrt((horizon / n_star) * (1.0 / j_star))
    inc = sd * rng.standard_normal((n_star, j_star))
    return NoiseGrid(n_star, j_star, horizon, seed, inc)


def coarsen(grid, time_factor=1, space_factor=1):
    """Merge blocks of cells; each coarse increment is the sum of its block.

    Additivity of the white-noise measure makes the result a valid
    sample of the coarser grid coupled to the fine one.
    """
    ft, fs = int(time_factor), int(space_factor)
    if ft < 1 or fs < 1:
        raise ValueError("factors must be >= 1")
    if grid.n_star % ft or grid.j_star % fs:
        raise ValueError("factors must divide the cell counts exactly")
    nc, jc = grid.n_star // ft, grid.j_star // fs
    inc = grid.increments.reshape(nc, ft, jc, fs).sum(axis=(1, 3))
    return NoiseGrid(nc, jc, grid.horizon, grid.seed, inc)


def w_eval(grid, t, x):
    """Evaluate the piecewise-constant noise at (t, x).

    Cells are half open, (t_{n-1}, t_n] x (x_{j-1}, x_j]; the value on
    cell (n, j) is R[n, j] / (dt*dx).
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(t <= 0.0) or np.any(t > grid.horizon) \
            or np.any(x <= 0.0) or np.any(x >= 1.0):
        raise ValueError("point outside (0, T] x (0, 1)")
    n = np.clip(np.ceil(t / grid.dt - 1e-12).astype(int) - 1,
                0, grid.n_star - 1)
    j = np.clip(np.ceil(x / grid.dx - 1e-12).astype(int) - 1,
                0, grid.j_star - 1)
    return grid.increments[n, j] / (grid.dt * grid.dx)


def project_pi(g, n_star, j_star, horizon=1.0, cell_integrals=None, npts=8, nsub=4):
    """Cell averages of g on the space-time grid (the projection Pi).

    ``g`` is a vectorized callable g(t, x).  Supplying ``cell_integrals``
    (an (N, J) matrix of exact integrals of g over each cell) bypasses
    quadrature entirely.
    """
    dt = horizon / n_star
    dx = 1.0 / j_star
    if cell_integrals is not None:
        out = np.asarray(cell_integrals, dtype=float) / (dt * dx)
        if out.shape != (n_star, j_star):
            raise ValueError("cell integral matrix shape mismatch")
        return out
    st, wt = gauss_points(0.0, dt, nsub, npts)
    sx, wx = gauss_points(0.0, dx, nsub, npts)
    out = np.empty((n_star, j_star))
    for n in range(n_star):
        tt = n * dt + st
        for j in range(j_star):
            xx = j * dx + sx
            vals = g(tt[:, None], xx[None, :])
            out[n, j] = wt @ vals @ wx
    return out / (dt * dx)


def mode_cell_integrals(K, j_star):
    """Matrix b with b[k-1, j-1] = integral of e_k over space cell D_j.

    Exact antiderivative: sqrt(2) (cos(lam_k x_{j-1}) - cos(lam_k x_j)) / lam_k.
    """
    if K < 1 or j_star < 1:
        raise ValueError("K and j_star must be >= 1")
    lam = np.arange(1, K + 1) * math.pi
    x = np.arange(j_star + 1) / j_star
    cosv = np.cos(np.outer(lam, x))
    return math.sqrt(2.0) * (cosv[:, :-1] - cosv[:, 1:]) / lam[:, None]


def mode_cell_sq_sums(ks, j_star):
    """sum_j b_{k,j}^2 in closed form, vectorized over mode indices ``ks``.

    Writing a = lam_k dx, each b_{k,j} = (2 sqrt2 / lam_k) sin(a/2)
    sin(a (j - 1/2)); the sum of sin^2 over j telescopes to J/2, except
    when k is an odd multiple of J where it is J.
    """
    ks = np.asarray(ks, dtype=np.int64)
    lam = ks * math.pi
    a = ks * math.pi / j_star
    base = 8.0 * np.sin(0.5 * a) ** 2 / lam**2 * (0.5 * j_star)
    rem = ks % (2 * j_star)
    base = np.where(rem == 0, 0.0, base)  # mode integrates to zero cellwise
    return np.where(rem == j_star, 2.0 * base, base)


def time_overlaps(ks, t, n_star, horizon=1.0):
    """Matrix I[k, n] of exponential time overlaps, vectorized."""
    ks = np.asarray(ks, dtype=np.int64)
    dt = horizon / n_star
    lam2 = (ks * math.pi) ** 2
    t_lo = np.arange(n_star) * dt
    t_hi = t_lo + dt
    upper = np.minimum(t, t_hi)
    active = t > t_lo
    expo_hi = np.exp(-np.outer(lam2, np.where(active, t - upper, 0.0)))
    expo_lo = np.exp(-np.outer(lam2, np.where(active, t - t_lo, 0.0)))
    out = (expo_hi - expo_lo) / lam2[:, None]
    out[:, ~active] = 0.0
    return out


def time_overlap_sq_sum(ks, t, n_star, horizon=1.0):
    """sum_n I_{k,n}(t)^2 in closed form, vectorized over modes.

    Full cells form a geometric sum; at most one trailing cell is
    partial.  Uses expm1 to stay accurate for lam_k^2 dt << 1.
    """
    ks = np.asarray(ks, dtype=np.int64)
    if t <= 0.0:
        return np.zeros(ks.shape)
    dt = horizon / n_star
    lam2 = (ks * math.pi) ** 2
    n_full = int(math.floor(t / dt + 1e-12))
    n_full = min(n_full, n_star)
    t_full = n_full * dt
    c = -np.expm1(-lam2 * dt) / lam2          # full-cell overlap magnitude
    geom = np.expm1(-2.0 * lam2 * t_full) / np.expm1(-2.0 * lam2 * dt)
    total = c**2 * np.exp(-2.0 * lam2 * (t - t_full)) * geom
    if t - t_full > 1e-12 * dt and n_full < n_star:
        part = -np.expm1(-lam2 * (t - t_full)) / lam2
        total = total + part**2
    return total


_HEADER = struct.Struct("<QQdQ")


def save_grid(grid, path):
    """Binary dump: little-endian header (n_star, j_star, horizon, seed)
    as 64-bit values, then row-major float64 increments."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(grid.n_star, grid.j_star, grid.horizon,
                              grid.seed & (2**64 - 1)))
        fh.write(grid.increments.astype("<f8").tobytes())


def load_grid(path):
    with open(path, "rb") as fh:
        n_star, j_star, horizon, seed = _HEADER.unpack(fh.read(_HEADER.size))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n_star * j_star:
        raise ValueError("truncated noise grid file")
    return NoiseGrid(n_star, j_star, horizon, seed,
                     data.reshape(n_star, j_star))
