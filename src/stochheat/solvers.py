"""Stochastic solvers driven by one discretized noise grid.

Three routes to the same noise realization:

* exact spectral evaluation of the regularized solution (no stepping),
* Crank-Nicolson time stepping per sine mode,
* Crank-Nicolson finite elements (nodal stepping).

All three are linear in the Gaussian cell increments, so every solver
also exposes a factorized coefficient map against the increments; the
map yields exact second moments without sampling.  A map's time factor
is a profile object, geometric on aligned grids, and the time Gram of
two geometric profiles is one closed form (``time_gram``).  The dense
K x N array is built only for sampling and non-aligned grids.
"""

import functools
import math

import numpy as np

from . import fem, noise
from .deterministic import cn_fem_steps, cn_spectral_steps, step_factors
from .spectral import SpectralField

__all__ = [
    "interval_overlaps",
    "propagator_time_profile",
    "stochastic_loads_spectral",
    "stochastic_loads_fem",
    "regularized_exact",
    "cn_time_discrete",
    "cn_fem_spde",
    "OverlapProfile",
    "PropagatorProfile",
    "time_gram",
    "GaussianCoefficientMap",
    "map_regularized",
    "map_cn_spectral",
    "map_cn_fem",
    "cross_moment",
    "distance_moments",
    "squared_distance",
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


def _cells_per_step(dtau, dt):
    """Noise cells of width dt spanned by one step dtau, or 0 if not whole."""
    ratio = dtau / dt
    p = round(ratio)
    return p if p >= 1 and abs(ratio - p) < 1e-12 else 0


def propagator_time_profile(mus, m, dtau, n_star, horizon=1.0):
    """A[i, n] = sum_l r_{m-l+1}(mus[i]) |Delta_l intersect T_n|.

    This is the exact time profile of the Duhamel sum of a stepped
    solution against the noise cells.  When each step spans whole noise
    cells the profile is the step factors repeated per cell; anything
    else takes the dense product with the interval overlaps.
    """
    mus = np.asarray(mus, dtype=float)
    dt = horizon / n_star
    out = np.zeros((mus.size, n_star))
    p = _cells_per_step(dtau, dt)
    V = None if p else interval_overlaps(m, dtau, n_star, horizon)
    for lo in range(0, mus.size, _MODE_CHUNK):
        sl = slice(lo, min(lo + _MODE_CHUNK, mus.size))
        rfac = step_factors(mus[sl], m, dtau)[:, ::-1]  # col l-1 -> r_{m-l+1}
        if p:
            out[sl, : m * p] = dt * np.repeat(rfac, p, axis=1)
        else:
            out[sl] = rfac @ V
    return out


def _cell_loads(space, grid, M):
    """Step loads (space @ R^T) @ V^T / (dt dx) of the rows of ``space``."""
    V = interval_overlaps(M, grid.horizon / M, grid.n_star, grid.horizon)
    return (space @ grid.increments.T) @ V.T / (grid.dt * grid.dx)


def stochastic_loads_spectral(grid, K, M):
    """W[k-1, l-1] = integral over Delta_l of (noise, e_k)."""
    return _cell_loads(noise.mode_cell_integrals(K, grid.j_star), grid, M)


def stochastic_loads_fem(grid, system, M):
    """L[i-1, l-1] = integral over Delta_l of (noise, hat_i)."""
    return _cell_loads(fem.hat_cell_overlap_matrix(system.mesh, grid.j_star),
                       grid, M)


def regularized_exact(grid, K, t):
    """The regularized solution at time t, exact given the grid."""
    m = map_regularized(grid.n_star, grid.j_star, grid.horizon, K, t)
    return SpectralField(m.reconstruct(grid))


def cn_time_discrete(grid, K, M):
    """Crank-Nicolson time stepping per sine mode, zero initial data."""
    if M < 1:
        raise ValueError("need at least one step")
    return cn_spectral_steps(np.zeros(K), (np.arange(1, K + 1) * math.pi) ** 2,
                             M, grid.horizon / M,
                             stochastic_loads_spectral(grid, K, M))


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


class _Profile:
    """Time factor of a map: rows are basis functions, columns noise
    cells; ``dense()`` builds the array once and keeps it.  ``geometric``
    is (amp, log|x|, x < 0, p, blocks) when row i is amp_i x_i^l on the p
    cells of block l, counted back from end cell p * blocks, 0 after."""

    _array = None
    geometric = None

    def dense(self):
        if self._array is None:
            self._array = self._build()
        return self._array


class OverlapProfile(_Profile):
    """Regularized overlaps I[k, n] (``noise.time_overlaps``) at time t;
    geometric (p = 1, x = exp(-lam^2 dt)) when t ends a noise cell."""

    def __init__(self, ks, t, n_star, horizon):
        self.ks = np.asarray(ks, dtype=np.int64)
        self.t = float(t)
        self.n_star = int(n_star)
        self.horizon = float(horizon)
        self.shape = (self.ks.size, self.n_star)
        dt = self.horizon / self.n_star
        s = self.t / dt          # snapped as in noise.time_overlaps
        if 0 <= round(s) <= self.n_star and abs(s - round(s)) <= 1e-12 * s:
            lam2 = (self.ks * math.pi) ** 2
            self.geometric = (-np.expm1(-lam2 * dt) / lam2, -lam2 * dt,
                              np.zeros(self.ks.size, bool), 1, round(s))

    def _build(self):
        return noise.time_overlaps(self.ks, self.t, self.n_star, self.horizon)


class PropagatorProfile(_Profile):
    """CN Duhamel profile (``propagator_time_profile``) at step m;
    geometric (p = dtau/dt, x = q = (1 - rho)/(1 + rho), rho = dtau mu/2)
    when each step spans whole noise cells and m steps fit in the grid."""

    def __init__(self, mus, m, dtau, n_star, horizon):
        self.mus = np.asarray(mus, dtype=float)
        self.m = int(m)
        self.dtau = float(dtau)
        self.n_star = int(n_star)
        self.horizon = float(horizon)
        self.shape = (self.mus.size, self.n_star)
        dt = self.horizon / self.n_star
        p = _cells_per_step(self.dtau, dt)
        if p and 1 <= self.m <= self.n_star // p:
            # 1 - |q| = 2 min(rho, 1)/(1 + rho) has no cancellation; q = 0
            # (rho = 1) gives log|q| = -inf without a warning
            rho = 0.5 * self.dtau * self.mus
            d = 2.0 * np.minimum(rho, 1.0) / (1.0 + rho)
            log_q = np.log1p(-d, out=np.full(d.shape, -np.inf),
                             where=d < 1.0)
            self.geometric = (dt / (1.0 + rho), log_q, rho > 1.0, p, self.m)

    def _build(self):
        return propagator_time_profile(self.mus, self.m, self.dtau,
                                       self.n_star, self.horizon)


def _geometric_sum(log_abs, negative, n):
    """G(x, n) = (1 - x^n)/(1 - x) for x = +-exp(log_abs), x < 0 where
    ``negative``.  With e = expm1(m log|x|) in [-1, 0], 1 - x^m is -e or
    2 + e, neither of which cancels."""
    def one_minus_power(m):
        e = np.expm1(m * log_abs)
        return np.where(negative & (m % 2 == 1), 2.0 + e, -e)
    return 1.0 if n == 1 else one_minus_power(n) / one_minus_power(1)


def time_gram(a, b, rows=None):
    """Paired time Gram sum_n a[i, n] b[rows[i], n] of two profiles.

    ``rows`` picks the row of ``b`` paired with each row of ``a``; None
    pairs the rows in order (same basis; equal row counts).  Two
    geometric profiles on one grid that end in the same cell, one block
    length dividing the other, give with G(x, n) = (1 - x^n)/(1 - x)

        p_f amp_a amp_b G(x_f, r) G(x_c x_f^r, blocks_c),

    f the profile with the finer blocks, c the coarser, r = p_c/p_f.
    Any other pair takes the dense product of the materialized arrays.
    """
    if rows is None:
        if a.shape[0] != b.shape[0]:
            raise ValueError("time Gram in row order needs equal row counts")
        rows = slice(None)
    ga, gb = a.geometric, b.geometric
    if (ga and gb and a.n_star == b.n_star
            and math.isclose(a.horizon, b.horizon)
            and ga[3] * ga[4] == gb[3] * gb[4]           # one end cell
            and max(ga[3], gb[3]) % min(ga[3], gb[3]) == 0):  # nested
        gb = tuple(v[rows] for v in gb[:3]) + gb[3:]
        (amp_f, lx_f, neg_f, p_f, _), (amp_c, lx_c, neg_c, p_c, blocks_c) = (
            (ga, gb) if ga[3] <= gb[3] else (gb, ga))
        r = p_c // p_f
        return (p_f * amp_f * amp_c * _geometric_sum(lx_f, neg_f, r)
                * _geometric_sum(lx_c + r * lx_f,
                                 neg_c ^ (neg_f & (r % 2 == 1)), blocks_c))
    return (a.dense() * b.dense()[rows]).sum(1)


class GaussianCoefficientMap:
    """Factorized coefficients of a field observable against the increments.

    Basis coefficient i of the observable is
    ``scale * sum_{n,j} time[i, n] space()[i, j] R[n, j]`` in an
    L2-orthonormal ``basis``, K (the sine modes e_1..e_K) or a
    ``fem.FemEigenBasis``, which makes second moments exact sums of
    squares.  The scale 1/(dt dx) turns cell increments into the
    piecewise-constant noise.  ``time``, an ``OverlapProfile`` or a
    ``PropagatorProfile``, gives ``n_star`` and ``horizon``.
    """

    def __init__(self, time, basis, j_star):
        self.time = time
        self.basis = basis
        self.j_star = int(j_star)
        self._space = self._terms = None    # built on first use and kept
        rows = basis.values.size if _is_fem(basis) else basis
        if self.time.shape[0] != rows:
            raise ValueError("time profile rows differ from the basis size")

    n_star = property(lambda self: self.time.n_star)
    horizon = property(lambda self: self.time.horizon)

    @property
    def cell_area(self):
        return (self.horizon / self.n_star) * (1.0 / self.j_star)

    @property
    def scale(self):
        return 1.0 / self.cell_area

    def space(self):
        """Space factor: basis function i integrated over space cell j."""
        if self._space is None:
            if _is_fem(self.basis):
                O = fem.hat_cell_overlap_matrix(self.basis.system.mesh,
                                                self.j_star)
                self._space = self.basis.vectors.T @ O
            else:
                self._space = noise.mode_cell_integrals(self.basis,
                                                        self.j_star)
        return self._space

    def project(self, grid):
        """The grid factor ``space() @ R^T`` of ``reconstruct`` (rows are
        basis functions, columns time cells).  Maps with the same space
        array, such as every sine map on one (K, J*), share it."""
        if not _same_grid(self, grid):
            raise ValueError("noise grid does not match the map's grid")
        return self.space() @ grid.increments.T

    def reconstruct(self, grid, projection=None):
        """Basis coefficients of the observable on a sampled grid.

        ``projection`` passes in ``project(grid)`` when a map with the
        same space array has already formed it for this grid.
        """
        if projection is None:
            projection = self.project(grid)
        elif not _same_grid(self, grid):
            raise ValueError("noise grid does not match the map's grid")
        return self.scale * np.einsum("kn,kn->k", self.time.dense(),
                                      projection)

    def second_moment(self):
        """E ||X||^2, exact (independent increments, orthonormal basis):
        the sum of per-row terms that are computed on the first call and
        kept, since a study compares one map against many."""
        if self._terms is None:
            self._terms = _moment(self, self, None)
        return float(np.sum(self._terms))


def _is_fem(basis):
    return isinstance(basis, fem.FemEigenBasis)


def _pairing(map_a, map_b):
    """None for one basis (the same K or FEM eigenbasis object), the
    ``spectral_fem_gram`` pairing for sine against FEM; else ValueError."""
    a, b = map_a.basis, map_b.basis
    if a == b:
        return None
    if not _is_fem(a) and _is_fem(b):
        return spectral_fem_gram(a, b)
    raise ValueError("the bases of these maps do not pair")


def cross_moment(map_a, map_b):
    """E <X, Y> for two observables of the same noise grid, both in one
    basis or X in sine modes and Y in a FEM eigenbasis."""
    return float(np.sum(_moment(map_a, map_b, _pairing(map_a, map_b))))


def distance_moments(map_a, map_b):
    """(E ||X||^2, E <X, Y>, E ||Y||^2) of two maps on one noise grid:
    per basis row for maps in one basis, so that the distance combines
    row by row, and as sums for a sine map against a FEM map."""
    pairing = _pairing(map_a, map_b)
    cross = _moment(map_a, map_b, pairing)
    ea, eb = map_a.second_moment(), map_b.second_moment()  # keeps _terms
    if pairing is None:
        return map_a._terms, cross, map_b._terms
    return ea, float(np.sum(cross)), eb


def squared_distance(map_a, map_b):
    """``f(a, b) = ||X - Y||^2`` from the coefficients a and b that the two
    maps ``reconstruct`` from one sample; the bases are paired once here."""
    pairing = _pairing(map_a, map_b)
    if pairing is None:
        return lambda a, b: float((a - b) @ (a - b))
    rows, g = pairing
    return lambda a, b: float(a @ a - 2.0 * (a @ (g * b[rows])) + b @ b)


def _moment(map_a, map_b, pairing):
    """Per-row terms of E <X, Y> (one per row of X) from the paired time
    Grams and space factors; sine row k meets FEM row rows_k of beta."""
    if not _same_grid(map_a, map_b):
        raise ValueError("maps live on different noise grids")
    if pairing is None:
        if _is_fem(map_a.basis):
            space = (map_a.space() ** 2).sum(1)
        else:
            space = _sine_energies(map_a.basis, map_a.j_star)
        terms = time_gram(map_a.time, map_b.time) * space
    else:
        rows, g = pairing
        B, beta = map_a.space(), map_b.space()
        space = np.empty(rows.size)
        for lo in range(0, rows.size, _MODE_CHUNK):
            sl = slice(lo, lo + _MODE_CHUNK)
            space[sl] = np.einsum("kj,kj->k", B[sl], beta[rows[sl]])
        terms = g * time_gram(map_a.time, map_b.time, rows) * space
    return map_a.cell_area * map_a.scale * map_b.scale * terms


@functools.lru_cache(maxsize=1)
def _sine_energies(K, j_star):
    """``noise.mode_cell_sq_sums`` of modes 1..K.  The last result is kept
    (read-only): every sine moment of a study shares one (K, j_star)."""
    e = noise.mode_cell_sq_sums(np.arange(1, K + 1), j_star)
    e.flags.writeable = False
    return e


def spectral_fem_gram(K, eigen):
    """Alias pairing ``(rows, g)``: g_k = (e_k, phi_p), p = rows_k + 1.

    (e_k, phi_p) vanishes unless p = +-k (mod 2J), so with r = k mod 2J
    mode k meets only p = min(r, 2J - r), where (e_k, phi_p) is
    +-(J/2) c_p sqrt(2) 4 sin^2(k pi h/2)/(h lam_k^2) (+ for r < J).
    Where p is 0 or J it is 0, and rows_k reads 0.
    """
    J = eigen.system.mesh.intervals
    ks = np.arange(1, K + 1)
    r = ks % (2 * J)
    p = np.minimum(r, 2 * J - r)
    live = (p > 0) & (p < J)
    # sin^2(k pi h/2) has period 2J in k: take it at r, a small argument
    g = (np.where(r < J, 0.5, -0.5) * J * J * fem._eigen_scale(p, J)
         * math.sqrt(2.0) * 4.0 * np.sin(r * (0.5 * math.pi / J)) ** 2
         / (ks * math.pi) ** 2)
    return np.where(live, p - 1, 0), np.where(live, g, 0.0)


def map_regularized(n_star, j_star, horizon, K, t):
    """Coefficient map of the regularized solution at time t."""
    if not (0.0 <= t <= horizon + 1e-12):
        raise ValueError("time outside [0, T]")
    time = OverlapProfile(np.arange(1, K + 1), t, n_star, horizon)
    return GaussianCoefficientMap(time, K, j_star)


def map_cn_spectral(n_star, j_star, horizon, K, M, m):
    """Coefficient map of the CN time-discrete solution at step m."""
    if not (1 <= m <= M):
        raise ValueError("step index out of range")
    dtau = horizon / M
    lam2 = (np.arange(1, K + 1) * math.pi) ** 2
    A = PropagatorProfile(lam2, m, dtau, n_star, horizon)
    return GaussianCoefficientMap(A, K, j_star)


def map_cn_fem(n_star, j_star, horizon, eigen, M, m):
    """Coefficient map (in the FEM eigenbasis) of the CN FEM solution."""
    if not (1 <= m <= M):
        raise ValueError("step index out of range")
    dtau = horizon / M
    A = PropagatorProfile(eigen.values, m, dtau, n_star, horizon)
    return GaussianCoefficientMap(A, eigen, j_star)
