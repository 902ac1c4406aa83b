"""Discretized space-time white noise on (0, T) x (0, 1).

The noise is piecewise constant on an N x J grid of space-time cells;
cell (n, j) carries an independent Gaussian increment R[n, j] with
variance dt*dx.  The helpers below also provide the closed-form cell
functionals (sine-mode cell integrals and exponential time overlaps)
that make all downstream second-moment computations exact.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from .quadrature import gauss_points
from .spectral import sin_pi_ratio

__all__ = [
    "NoiseGrid",
    "sample",
    "sample_blocks",
    "coarsen",
    "project_pi",
    "mode_cell_integrals",
    "sine_cell_fold",
    "fold_rows",
    "mode_cell_sq_sums",
    "time_overlaps",
]


class NoiseGrid:
    """Immutable matrix of Gaussian cell increments plus grid metadata."""

    __slots__ = ("n_star", "j_star", "horizon", "seed", "increments")

    def __init__(self, n_star, j_star, horizon, seed, increments):
        self._own(n_star, j_star, horizon, seed,
                  np.array(increments, dtype=float))

    def _own(self, n_star, j_star, horizon, seed, inc):
        """Set the fields, taking ``inc`` (a float array no one else
        holds) as the increments without a copy."""
        if n_star < 1 or j_star < 1:
            raise ValueError("cell counts must be >= 1")
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
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


def _grid(n_star, j_star, horizon, seed, inc):
    """A NoiseGrid on the fresh array ``inc``, which it keeps uncopied."""
    grid = object.__new__(NoiseGrid)
    grid._own(n_star, j_star, horizon, seed, inc)
    return grid


def sample(n_star, j_star, horizon=1.0, seed=0):
    """Draw an N x J matrix of independent N(0, dt*dx) increments.

    Philox is counter based, so a fixed (n_star, j_star, horizon, seed)
    reproduces the matrix bit for bit regardless of platform threading.
    This is the one-block case of ``sample_blocks``.
    """
    inc, = sample_blocks(n_star, j_star, horizon, seed, n_star)
    return _grid(n_star, j_star, horizon, seed, inc)


def sample_blocks(n_star, j_star, horizon, seed, rows):
    """The increments of ``sample`` drawn ``rows`` time rows at a time
    (the last block may be shorter), each block a fresh array.

    Consecutive draws continue the one Philox stream, so the blocks
    stacked are ``sample``'s matrix bit for bit.  The suspended generator
    holds no block: once the caller drops one, it is freed.
    """
    if n_star < 1 or j_star < 1:
        raise ValueError("cell counts must be >= 1")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    rng = _philox(seed)
    sd = math.sqrt((horizon / n_star) * (1.0 / j_star))

    def block(n):
        inc = rng.standard_normal((n, j_star))
        inc *= sd
        return inc
    for lo in range(0, n_star, rows):
        yield block(min(rows, n_star - lo))


def _philox(seed):
    """numpy's Philox generator keyed by ``seed`` (mod 2^64)."""
    return np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))


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
    return _grid(nc, jc, grid.horizon, grid.seed, inc)


def project_pi(g, n_star, j_star, horizon=1.0, npts=8, nsub=4):
    """Cell averages of g on the space-time grid (the projection Pi).

    ``g`` is a vectorized callable g(t, x), integrated by composite
    Gauss quadrature on each cell.
    """
    dt = horizon / n_star
    dx = 1.0 / j_star
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


def _cell_sines(rows, j_star):
    """sin(r pi (2j - 1)/(2J)) for the mode indices ``rows`` (a range or
    array, one matrix row each) and cells j = 1..J."""
    return sin_pi_ratio(np.outer(rows, np.arange(1, 2 * j_star, 2)),
                        2 * j_star)


def mode_cell_integrals(K, j_star):
    """Matrix b with b[k-1, j-1] = integral of e_k over space cell D_j.

    Product form b_{k,j} = a_k sin(k pi (2j - 1)/(2J)) with amplitude
    a_k = (2 sqrt2 / lam_k) sin(k pi/(2J)).  A dense oracle for
    ``sine_cell_fold``, which needs only min(K, J) rows.
    """
    if K < 1 or j_star < 1:
        raise ValueError("K and j_star must be >= 1")
    ks = np.arange(1, K + 1)
    a = 2 * math.sqrt(2) * sin_pi_ratio(ks, 2 * j_star) / (ks * math.pi)
    return a[:, None] * _cell_sines(ks, j_star)


@functools.lru_cache(maxsize=1)
def fold_rows(K, j_star):
    """``(alias, c)`` of ``sine_cell_fold`` without its matrix S: mode k
    reads row alias[k - 1] of S, times c[k - 1].  The last result is kept
    (read-only): it serves every level of a study.

    c_k is a_k (``mode_cell_integrals``) with the sign (-1)^(k div 2J).
    The alias, sin(k pi/(2J)) and the sign depend on k mod 4J alone:
    tables over the residues, gathered at k mod 4J, with the same bits."""
    if K < 1 or j_star < 1:
        raise ValueError("K and j_star must be >= 1")
    ks = np.arange(1, K + 1)
    rem = ks % (4 * j_star)
    q = np.arange(min(K + 1, 4 * j_star))   # the residues that occur
    s = q % (2 * j_star)
    alias = (np.where(s == 0, j_star, np.minimum(s, 2 * j_star - s)) - 1)[rem]
    sines = np.where(q < 2 * j_star, 1.0, -1.0) * sin_pi_ratio(q, 2 * j_star)
    c = 2.0 * math.sqrt(2.0) * sines[rem] / (ks * math.pi)
    alias.flags.writeable = c.flags.writeable = False
    return alias, c


@functools.lru_cache(maxsize=1)
def sine_cell_fold(K, j_star):
    """The cell integrals of modes 1..K folded onto at most J distinct
    rows: ``(alias, c, S)`` with ``mode_cell_integrals(K, J)[k - 1] ==
    c[k - 1] * S[alias[k - 1]]``.

    S[r - 1, j - 1] = sin(r pi (2j - 1)/(2J)) for r = 1..min(K, J).  In k
    the sine has period 4J, flips sign every 2J and is unchanged under
    k -> 2J - k, so mode k with s = k mod 2J reads row min(s, 2J - s)
    with sign (-1)^(k div 2J), and c_k = +-a_k.  Where s = 0, a_k = 0 and
    the mode reads row J, which alone holds half as many modes (s = J),
    so every row of S serves as many modes as its neighbours.
    The last result is kept (read-only): every sine map on one (K, J)
    shares one fold.
    """
    alias, c = fold_rows(K, j_star)
    rows = min(K, j_star)
    S = np.empty((rows, j_star))
    for lo in range(0, rows, 256):   # blocks bound the integer temporaries
        S[lo:lo + 256] = _cell_sines(range(lo + 1, min(lo + 256, rows) + 1),
                                     j_star)
    S.flags.writeable = False
    return alias, c, S


def mode_cell_sq_sums(ks, j_star):
    """sum_j b_{k,j}^2 in closed form, vectorized over mode indices ``ks``.

    The sum of sin^2(k pi (2j - 1)/(2J)) over j telescopes to J/2, so it
    is a_k^2 J/2 (``sine_cell_fold``), except when k is a multiple of
    2J (every cell integral is 0) or an odd multiple of J (a_k^2 J).
    a_k^2 = 8 sin^2/lam^2 (8 is exact): sin^2 and the sum are tables over
    rem = k mod 2J, gathered at rem.
    """
    ks = np.asarray(ks, dtype=np.int64)
    rem = ks % (2 * j_star)
    q = np.arange(rem.max(initial=0) + 1)   # the residues up to the largest
    sq_sum = np.where(q == j_star, j_star, np.where(q == 0, 0.0, 0.5 * j_star))
    return (8.0 * sin_pi_ratio(q, 2 * j_star) ** 2)[rem] / (
        ks * math.pi) ** 2 * sq_sum[rem]


def time_overlaps(ks, t, n_star, horizon=1.0):
    """Time overlaps I[k, n], the dense form of ``solvers.OverlapProfile``.

    I[k, n] = integral over T_n intersect (0, t) of exp(-lam_k^2 (t - s)) ds.
    The offsets t - n dt of the cell ends are whole cells plus the exact
    remainder d = t - w dt, as in ``OverlapProfile`` (t/dt snapped to an
    integer within 1e-12 of one, else floored to w), so neither the
    digits of t/dt below its ulp nor float cell ends that miss t by an
    ulp cost the high modes their relative accuracy.
    """
    ks = np.asarray(ks, dtype=np.int64)
    dt = horizon / n_star
    lam2 = (ks * math.pi) ** 2
    s = t / dt
    if abs(s - round(s)) <= 1e-12 * s:
        s = float(round(s))
    w = math.floor(s)
    d = 0.0 if s == w else float(Fraction(t) - Fraction(horizon) * w / n_star)
    ends = np.maximum((w - np.arange(n_star + 1)) * dt + d, 0.0)
    expo = np.exp(-np.outer(lam2, ends))
    return (expo[:, 1:] - expo[:, :-1]) / lam2[:, None]
