"""Stochastic solvers driven by one discretized noise grid.

Three routes to the same noise realization:

* exact spectral evaluation of the regularized solution (no stepping),
* Crank-Nicolson time stepping per sine mode,
* Crank-Nicolson finite elements (nodal stepping).

All three are linear in the Gaussian cell increments, so every solver
also exposes a factorized coefficient map against the increments; the
map yields exact second moments without sampling.  A map's time factor
is a profile object, block-geometric on every grid: one period of the
profile and its ratio to the period before.  ``time_gram`` and sampling
both read that tuple; the dense K x N arrays (``dense()``) are oracles.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from . import fem, noise
from .deterministic import (_cn_factors, cn_fem_stepper, cn_spectral_steps,
                            modified_cn_fem, step_factors)
from .spectral import SpectralField, sin_pi_ratio

__all__ = [
    "interval_overlaps",
    "propagator_time_profile",
    "stochastic_loads_spectral",
    "stochastic_loads_fem",
    "regularized_exact",
    "cn_time_discrete",
    "cn_fem_spde",
    "cn_fem_path",
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
    "JointSampler",
    "spectral_fem_gram",
    "sine_fem_cell_cross",
]

_MODE_CHUNK = 512


def interval_overlaps(m, dtau, n_star, horizon=1.0):
    """Matrix V[l-1, n-1] = |Delta_l intersect T_n| for l = 1..m, exact
    on every grid: with a cells per b steps (``_period``), step l spans
    [(l-1) a, l a] and cell n [(n-1) b, n b] in units of horizon/(n_star
    b), so each overlap, clip((a + b)/2 - |d|, 0, min(a, b)) for the
    distance d of their centres, is an integer, formed in the result's
    float64 buffer and scaled once.
    """
    a, b = _period(dtau, horizon / n_star)
    out = np.subtract.outer(np.arange(m) * float(a) + 0.5 * (a - b),
                            np.arange(n_star) * float(b))
    np.subtract(0.5 * (a + b), np.abs(out, out=out), out=out)
    np.clip(out, 0.0, min(a, b), out=out)
    return np.multiply(out, horizon / (n_star * b), out=out)


def _period(dtau, dt):
    """``(a, b)``: a cells of width dt span b steps dtau; a/b is the first
    continued-fraction convergent within 1e-12 (relative) of dtau/dt."""
    ratio = dtau / dt
    x, (h0, h1), (k0, k1) = Fraction(ratio), (1, math.floor(ratio)), (0, 1)
    while abs(ratio - h1 / k1) > 1e-12 * ratio:
        x = 1 / (x - math.floor(x))
        c = math.floor(x)
        h0, h1, k0, k1 = h1, c * h1 + h0, k1, c * k1 + k0
    return h1, k1


def propagator_time_profile(mus, m, dtau, n_star, horizon=1.0):
    """A[i, n] = sum_l r_{m-l+1}(mus[i]) |Delta_l intersect T_n|.

    This is the exact time profile of the Duhamel sum of a stepped
    solution against the noise cells, the dense product of the step
    factors with the interval overlaps: ``PropagatorProfile.dense()``,
    and on at most two periods the pattern of a non-aligned profile.
    """
    mus = np.asarray(mus, dtype=float)
    V = interval_overlaps(m, dtau, n_star, horizon)
    out = np.empty((mus.size, n_star))
    for lo in range(0, mus.size, _MODE_CHUNK):
        sl = slice(lo, min(lo + _MODE_CHUNK, mus.size))
        # column l-1 of the reversed factors is r_{m-l+1}
        out[sl] = step_factors(mus[sl], m, dtau)[:, ::-1] @ V
    return out


def _cell_loads(reads, dt, dx, dtau):
    """Step loads (rows x steps) of the noise cells dt x dx from
    ``reads``, row n each basis row's reading of noise row n, in whole
    periods of a cells per b steps (``_period``).  Each step adds its
    overlaps in the period's staircase, integers in units of dt/b, times
    its cells' readings in order, with no BLAS call.  A load that
    overflows is inf or nan without a warning: the stepping rejects the
    non-finite states it makes.  One that underflows (below the normal
    range, or 0 on nonzero noise) raises ValueError.
    """
    a, b = _period(dtau, dt)
    cells = reads.reshape(-1, a, reads.shape[1])
    steps = np.zeros((len(cells), b, reads.shape[1]))
    ends = np.union1d(np.arange(1, b + 1) * a, np.arange(1, a + 1) * b)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip([0, *ends[:-1].tolist()], ends.tolist()):
            steps[:, lo // a] += (hi - lo) * (dt / b) * cells[:, lo // b]
        low = np.abs(steps) < np.finfo(float).tiny
        if low.any() and (steps[low].any() or reads.any()):
            raise ValueError("the step loads underflow")
        steps /= dt * dx
    return steps.reshape(-1, reads.shape[1]).T


def _hat_reads(band, inc):
    """inc @ O^T, each hat adding its cells in the order of its band
    ``(cells, w)`` of the hat-cell overlaps O (``fem._hat_cell_band``)."""
    return sum(inc[:, c] * w for c, w in zip(band[0].T, band[1].T))


def stochastic_loads_spectral(grid, K, M):
    """W[k-1, l-1] = integral over Delta_l of (noise, e_k), from the
    loads of the folded rows (``noise.sine_cell_fold``)."""
    if M < 1:
        raise ValueError("need at least one step")
    alias, c, S = noise.sine_cell_fold(K, grid.j_star)
    return c[:, None] * _cell_loads(grid.increments @ S.T, grid.dt, grid.dx,
                                    grid.horizon / M)[alias]


def stochastic_loads_fem(grid, system, M):
    """L[i-1, l-1] = integral over Delta_l of (noise, hat_i)."""
    if M < 1:
        raise ValueError("need at least one step")
    band = fem._hat_cell_band(system.mesh, grid.j_star)
    return _cell_loads(_hat_reads(band, grid.increments), grid.dt, grid.dx,
                       grid.horizon / M)


def regularized_exact(grid, K, t):
    """The regularized solution at time t, exact given the grid."""
    m = map_regularized(grid.n_star, grid.j_star, grid.horizon, K, t)
    return SpectralField(m.reconstruct(grid))


def cn_time_discrete(grid, K, M):
    """Crank-Nicolson time stepping per sine mode, zero initial data."""
    loads = stochastic_loads_spectral(grid, K, M)
    return cn_spectral_steps(np.zeros(K), (np.arange(1, K + 1) * math.pi) ** 2,
                             M, grid.horizon / M, loads)


# doubles per block of a path: noise increments, or states
_PATH_BLOCK = 2 ** 16


def cn_fem_path(n_star, j_star, horizon, seed, system, M):
    """Crank-Nicolson finite element stepping, zero initial data, on the
    noise of ``noise.sample`` drawn by ``noise.sample_blocks`` in blocks
    of whole periods of a cells per b steps (``_period``), about
    ``_PATH_BLOCK`` increments and at least one period each.

    Yields the states in row blocks: the zero start state, then each
    noise block's steps in pieces of at most ``_PATH_BLOCK`` / nu states.
    A block's step loads take the whole grid's dt, dx and dtau, and its
    steps go on from the last right-hand side (``cn_fem_stepper``), so
    the states are ``cn_fem_spde``'s bit for bit.  A block's noise is
    dropped once its loads are formed and its loads once it is stepped,
    so at most one block's noise and loads and one piece of states are
    live.  A block holds nu loads per step: where one period is the
    whole grid (n* and M share no factor) its noise is the whole grid's,
    and where M is many times n* its loads come near the whole path's.
    A piece with a non-finite state, or a cell width dt below the normal
    range (``_cell_width``), raises ValueError.
    """
    if M < 1:
        raise ValueError("need at least one step")
    dt, dx, dtau = _cell_width(horizon, n_star), 1.0 / j_star, horizon / M
    a = _period(dtau, dt)[0]
    nu = system.mesh.nu
    band = fem._hat_cell_band(system.mesh, j_star)
    advance = cn_fem_stepper(system, dtau)
    start = np.zeros((1, nu))
    rhs = system.mass_apply(start[0])
    piece = max(1, _PATH_BLOCK // nu)
    rows = a * max(1, _PATH_BLOCK // (a * j_star))

    def block_loads(inc):
        return _cell_loads(_hat_reads(band, inc), dt, dx, dtau)

    yield start
    for loads in map(block_loads, noise.sample_blocks(n_star, j_star, horizon,
                                                      seed, rows)):
        for lo in range(0, loads.shape[1], piece):
            states = np.empty((min(piece, loads.shape[1] - lo), nu))
            rhs = advance(rhs, states, loads[:, lo:lo + piece])
            yield states
        del loads   # before the next block's loads are formed


def cn_fem_spde(grid, system, M):
    """Crank-Nicolson finite element stepping, zero initial data: one
    ``modified_cn_fem`` pass on the grid's ``stochastic_loads_fem``."""
    loads = stochastic_loads_fem(grid, system, M)
    return modified_cn_fem(np.zeros(system.mesh.nu), system, M,
                           grid.horizon / M, loads)


def _same_grid(a, b):
    """Whether two maps (or a map and a NoiseGrid) share one noise grid."""
    return ((a.n_star, a.j_star) == (b.n_star, b.j_star)
            and math.isclose(a.horizon, b.horizon))


def _cell_width(horizon, n_star):
    """dt = horizon / n*; ValueError below the normal range, where a
    profile loses digits and a map's scale 1/(dt dx) overflows."""
    dt = horizon / n_star
    if not dt >= np.finfo(float).tiny:
        raise ValueError("the noise cell width dt underflows")
    return dt


class _Profile:
    """Time factor of a map: rows are basis functions, columns noise
    cells, ``dense()`` the oracle array.  ``geometric`` is (amp, log|x|,
    x < 0, p, end, tail): back from cell ``end``, runs of p cells take the
    u columns of amp (rows x u) in turn, last column last, each period of
    u runs x times the next; ``tail`` (or None) sits on cell ``end``."""

    @functools.cached_property
    def self_gram(self):
        """``time_gram(self, self)``, built on first use and kept: every
        map of a modeling study at one n* shares one profile."""
        return time_gram(self, self)

    def columns(self, lo, hi, rows=slice(None)):
        """Weights of runs lo .. hi - 1, run j on cells j p .. j p + p - 1,
        of the profile's ``rows`` (all by default)."""
        amp, log_x, neg, p, end, _ = self.geometric
        amp, log_x, neg = amp[rows], log_x[rows], neg[rows]
        u = amp.shape[1]
        back = end // p - 1 - np.arange(lo, hi)   # runs after run j
        k = back // u                             # run j carries x^k
        W = amp.take(u - 1 - back % u, axis=1)
        live = np.count_nonzero(k)   # x^0 = 1 also at log|x| = -inf
        e = np.multiply.outer(log_x, k[:live])
        # exp rounds to 0 below -745.2: skip numpy's slow underflow path
        # there, in place, and set the exponents it left (all < 0) to 0
        np.exp(e, out=e, where=e > -746.0)
        W[:, :live] *= np.maximum(e, 0.0, out=e)
        W[np.ix_(neg, k % 2 == 1)] *= -1.0   # odd powers of x < 0
        return W

    def steps(self, rows=slice(None)):
        """``(W, p)``: column l of W weighs noise cells l p .. l p + p - 1
        of each of ``rows`` (every row by default), cells past
        p * W.shape[1] weigh 0."""
        _, _, _, p, end, tail = self.geometric
        W = self.columns(0, end // p, rows)
        return (W if tail is None else np.column_stack([W, tail[rows]])), p


class OverlapProfile(_Profile):
    """Regularized overlaps I[k, n] (``noise.time_overlaps``) at time t, a
    geometric profile (p = u = 1, x = exp(-lam^2 dt)) at every t: with t d
    into cell w (t/dt snapped as there, else floored; w <= N), amp
    carries exp(-lam^2 d) and cell w the tail (1 - exp(-lam^2 d))/lam^2."""

    def __init__(self, ks, t, n_star, horizon):
        self.ks = np.asarray(ks, dtype=np.int64)
        self.t = float(t)
        self.n_star = int(n_star)
        self.horizon = float(horizon)
        self.shape = (self.ks.size, self.n_star)
        if not 0.0 <= self.t <= self.horizon + 1e-12:
            raise ValueError("time outside [0, T]")
        dt = _cell_width(self.horizon, self.n_star)
        lam2 = (self.ks * math.pi) ** 2
        s = self.t / dt
        s = round(s) if abs(s - round(s)) <= 1e-12 * s else s
        w = min(math.floor(s), self.n_star)
        # d = t - w dt in exact arithmetic: (s - w) dt loses the digits of
        # s below its ulp, an error lam^2 d amplifies past 1e-14
        d = 0.0 if s == w else float(Fraction(self.t) - Fraction(
            self.horizon) * w / self.n_star)
        amp, tail = -np.expm1(-lam2 * dt) / lam2, None
        if d:   # t lies d into cell w, or (w = N) rounds just past T
            amp *= np.exp(-lam2 * d)
            tail = -np.expm1(-lam2 * d) / lam2 if w < self.n_star else None
        self.geometric = (amp[:, None], -lam2 * dt,
                          np.zeros(self.ks.size, bool), 1, w, tail)

    def dense(self):
        return noise.time_overlaps(self.ks, self.t, self.n_star, self.horizon)


class PropagatorProfile(_Profile):
    """CN Duhamel profile (``propagator_time_profile``) at step m, rho =
    dtau mu/2, q = (1 - rho)/(1 + rho).  With a cells per b steps, a cell
    that ends by t = m dtau is q^b times the cell a cells on.  b = 1: p =
    a, amp dt/(1 + rho), x = q.  Else p = 1, x = q^b, and u = a cells from
    ``propagator_time_profile`` on at most two periods, or for a = 1 (r =
    m mod b) amp dtau q^r G(q, b)/(1 + rho), tail dtau G(q, r)/(1 + rho)."""

    def __init__(self, mus, m, dtau, n_star, horizon):
        self.mus = np.asarray(mus, dtype=float)
        self.m = int(m)
        self.dtau = float(dtau)
        self.n_star = int(n_star)
        self.horizon = float(horizon)
        self.shape = (self.mus.size, self.n_star)
        dt = _cell_width(self.horizon, self.n_star)
        a, b = _period(self.dtau, dt)
        end, r = divmod(self.m * a, b)   # whole cells by t; r > 0: a tail
        inv, log_q, neg = _cn_factors(self.mus, self.dtau)
        G = functools.partial(_geometric_sum, log_q, neg)
        if b == 1:
            amp, tail = (dt * inv)[:, None], None
        elif a == 1:   # r steps in the tail cell, b in each other cell
            q_r = np.where(neg & (r % 2 == 1), -1.0, 1.0) * np.exp(
                r * log_q) if r else 1.0
            d = self.dtau * inv
            amp, tail = (d * q_r * G(b))[:, None], d * G(r)
        else:        # a window from a period start, c cells and c b/a steps in
            c = a * max(0, end // a - 1)
            whole, n = end - c, end - c + (r > 0)
            win = propagator_time_profile(self.mus, self.m - c // a * b,
                                          self.dtau, n, n * dt)
            # u = whole < a (and >= 1) while less than a period has run
            amp, tail = win[:, max(0, whole - a):max(whole, 1)], win[:, -1]
        self.geometric = (amp, b * log_q, neg if b % 2 else np.zeros_like(neg),
                          a if b == 1 else 1, end, tail if r else None)

    def dense(self):
        return propagator_time_profile(self.mus, self.m, self.dtau,
                                       self.n_star, self.horizon)


def _geometric_sum(log_abs, negative, n):
    """G(x, n) = (1 - x^n)/(1 - x) for x = +-exp(log_abs), x < 0 where
    ``negative``; G(x, 0) = 0.  With e = expm1(m log|x|) in [-1, 0],
    1 - x^m is -e or (x < 0, m odd) 2 + e = 2 - (-e): neither cancels."""
    def one_minus_power(m):
        out = -np.expm1(m * log_abs)
        return np.subtract(2.0, out, out=out, where=negative) if m % 2 else out
    return one_minus_power(n) / one_minus_power(1) if n > 1 else float(n)


def time_gram(a, b, rows=slice(None)):
    """Paired time Gram sum_n a[i, n] b[rows[i], n] of two profiles that
    end in the same noise cell (else ValueError).

    ``rows`` picks the row of ``b`` paired with each row of ``a``; the
    default pairs every row with itself (one basis).  Two profiles with
    u = 1, one run length dividing the other, give with
    G(x, n) = (1 - x^n)/(1 - x)

        p_f amp_a amp_b G(x_f, r) G(x_c x_f^r, n_c) + tail_a tail_b,

    f the profile with the finer runs, c the coarser (n_c runs),
    r = p_c/p_f, and the tails 0 unless both profiles carry one.  Any
    other pair sums the cellwise products over the last L = lcm(w_a, w_b)
    cells (w = u p), S, and over the last h = end mod L of them, S_h: with
    y = x_a^(L/w_a) x_b^(L/w_b), the Gram is G(y, B) S + y^B S_h + tails
    over B = end // L whole periods.
    """
    ga, gb = a.geometric, b.geometric
    if ga[4] != gb[4]:
        raise ValueError("the profiles end in different noise cells")
    gb = tuple(v[rows] if isinstance(v, np.ndarray) else v for v in gb)
    tails = 0.0 if ga[5] is None or gb[5] is None else ga[5] * gb[5]
    (amp_f, lx_f, neg_f, p_f, *_), (amp_c, lx_c, neg_c, p_c, end, _) = (
        (ga, gb) if ga[3] <= gb[3] else (gb, ga))
    if amp_f.shape[1] == amp_c.shape[1] == 1 and p_c % p_f == 0:   # nested
        r = p_c // p_f
        return (p_f * amp_f[:, 0] * amp_c[:, 0]
                * _geometric_sum(lx_f, neg_f, r)
                * _geometric_sum(lx_c + r * lx_f,
                                 neg_c ^ (neg_f & (r % 2 == 1)), end // p_c)
                + tails)
    wa, wb = (g[0].shape[1] * g[3] for g in (ga, gb))
    L = math.lcm(wa, wb)
    B, h = divmod(end, L)
    ca, cb = (np.repeat(x.columns(max(end - L, 0) // p, end // p), p, 1)
              for x, p in ((a, ga[3]), (b, gb[3])))   # the last L cells
    prod = ca[:, ::-1] * cb[rows, ::-1]   # from the end cell back
    log_y = L // wa * ga[1] + L // wb * gb[1]
    neg_y = (ga[2] & (L // wa % 2 == 1)) ^ (gb[2] & (L // wb % 2 == 1))
    y_B = np.where(neg_y & (B % 2 == 1), -1.0, 1.0) * np.exp(
        B * log_y) if B else 1.0   # y^0 = 1 also at log|y| = -inf
    return (_geometric_sum(log_y, neg_y, B) * prod.sum(1)
            + y_B * prod[:, :h].sum(1) + tails)


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
        # the fold and the row moments: built on first use, kept
        self._fold = self._rows = None
        rows = basis.values.size if _is_fem(basis) else basis
        if self.time.shape[0] != rows:
            raise ValueError("time profile rows differ from the basis size")
        if not self.cell_area >= np.finfo(float).tiny:   # else 0 * inf later
            raise ValueError("the noise cell area dt dx underflows")

    n_star = property(lambda self: self.time.n_star)
    horizon = property(lambda self: self.time.horizon)

    @property
    def cell_area(self):
        return (self.horizon / self.n_star) * (1.0 / self.j_star)

    @property
    def scale(self):
        return 1.0 / self.cell_area

    def fold(self):
        """Space factor as ``(rows, c, S)``: row i of ``space()`` is
        c_i S[rows_i].  Sine maps take ``noise.sine_cell_fold`` (at most
        J* rows of S, shared by every sine map on one (K, J*)); a FEM map
        keeps (every row, 1, V^T O) with O the hat-cell overlaps.  Only
        sampling (``reconstruct``, ``JointSampler``'s FEM rows) and
        ``space()`` read it."""
        if self._fold is None:
            if _is_fem(self.basis):
                O = fem.hat_cell_overlap_matrix(self.basis.system.mesh,
                                                self.j_star)
                self._fold = (slice(None), 1.0, self.basis.vectors.T @ O)
            else:
                self._fold = noise.sine_cell_fold(self.basis, self.j_star)
        return self._fold

    def space(self):
        """Dense space factor, basis function i integrated over space
        cell j: the oracle form of ``fold``, built on each call."""
        rows, c, S = self.fold()
        return np.reshape(c, (-1, 1)) * S[rows]

    def reconstruct(self, grid):
        """The basis coefficients on one sampled grid, the pathwise oracle
        of the exact moments and of ``JointSampler``: the fold's grid
        factor ``S @ R^T``, summed over the p cells of each time step
        (``time.steps()``), meets each row's steps on its fold row."""
        if not _same_grid(self, grid):
            raise ValueError("noise grid does not match the map's grid")
        rows, c, S = self.fold()
        W, p = self.time.steps()
        steps = (S @ grid.increments.T)[:, :W.shape[1] * p]
        if p > 1:   # a matrix-vector product sums short rows fastest
            steps = (steps.reshape(-1, p) @ np.ones(p)).reshape(len(S), -1)
        return self.scale * c * np.einsum("in,in->i", W, steps[rows])

    def row_moments(self):
        """E x_i^2 per basis row, exact (independent increments,
        orthonormal basis); computed on the first call and kept, since a
        study compares one map against many."""
        if self._rows is None:
            self._rows = _moment(self, self, _pairing(self, self))
        return self._rows

    def second_moment(self):
        """E ||X||^2, the sum of ``row_moments``."""
        return float(np.sum(self.row_moments()))


def _is_fem(basis):
    return isinstance(basis, fem.FemEigenBasis)


def _pairing(map_a, map_b):
    """(rows, g, w): X - Y = sum_k (x_k - g_k y_{rows_k}) e_k + R with
    E ||R||^2 = w . E y^2.  One basis (the same K or FEM eigenbasis
    object) pairs all rows with g = 1, w = 0; sine against FEM takes
    ``spectral_fem_gram`` and w_p = 1 - sum_{rows_k = p} g_k^2 (phi_p above
    mode K); any other pair raises ValueError."""
    a, b = map_a.basis, map_b.basis
    if a == b:
        return slice(None), 1.0, 0.0
    if not _is_fem(a) and _is_fem(b):
        rows, g = spectral_fem_gram(a, b)
        return rows, g, 1.0 - np.bincount(rows, g * g, b.values.size)
    raise ValueError("the bases of these maps do not pair")


def cross_moment(map_a, map_b):
    """E <X, Y> for two observables of the same noise grid, both in one
    basis or X in sine modes and Y in a FEM eigenbasis."""
    return float(np.sum(_moment(map_a, map_b, _pairing(map_a, map_b))))


def distance_moments(map_a, map_b):
    """Termwise moments of E ||X - Y||^2 (``_pairing``): per row k of X,
    E x_k^2, E x_k g_k y_{rows_k} and g_k^2 E y_{rows_k}^2; then the float
    w . E y^2."""
    rows, g, w = pairing = _pairing(map_a, map_b)
    y2 = map_b.row_moments()
    return (map_a.row_moments(), _moment(map_a, map_b, pairing),
            g * g * y2[rows], float(np.sum(w * y2)))


def squared_distance(map_a, map_b):
    """``f(a, b) = ||X - Y||^2 = ||a - g b[rows]||^2 + w . (b b)`` from the
    coefficients a and b that the maps ``reconstruct`` from one sample
    (one basis: ||a - b||^2, since g = 1 and w = 0 are exact no-ops)."""
    rows, g, w = _pairing(map_a, map_b)
    one_basis = map_a.basis == map_b.basis

    def f(a, b):
        d = a - b if one_basis else a - g * b[rows]
        return float(d @ d if one_basis else d @ d + np.sum(w * b * b))
    return f


# doubles of sine time rows, widened to cells, that ``JointSampler``
# holds per chunk of fold rows while it factors them
_SAMPLER_CHUNK = 2 ** 18


class JointSampler:
    """Joint draws of the coefficients of several maps on one noise grid,
    in the law that ``reconstruct`` gives them on ``noise.sample``'s grids.

    The J* rows S_r[j] = sin(r pi (2j - 1)/(2J*)), r = 1..J*, of the
    space cells are orthogonal, ||S_r||^2 = J*/2 (J* for r = J*), so the
    noise folds onto them as independent rows xi_r = S_r R^T of N iid
    N(0, dt dx ||S_r||^2) values.  A sine map reads fold row r only
    through the time rows of its modes aliased to r (``noise.fold_rows``,
    steps widened to cells); a FEM map reads every row through
    G = (V^T O) S^T D^-1 (``fold``, D = diag ||S_r||^2) and its own time
    rows.  Per fold row r, the readings are F_r^T zeta_r: zeta_r holds
    standard normals and F_r^T F_r is the Gram of the time rows that read
    the row.  The FEM rows B take one QR, B^T = Q R_B, shared by every
    row; the sine rows on a row are projected off B and take one small QR
    each, a chunk of about ``_SAMPLER_CHUNK`` doubles of them at a time.
    With F_r = Q_r T_r, the sine readings are T_r^T a_r, a_r = Q_r^T
    zeta_r, k_r <= n_r (the row's modes) normals; the FEM rows sum_r
    diag(G_r) R_B^T zeta_r[:kB] are K a + L w, K = [diag(G_r) R_B^T
    Q_r[:kB]] and L L^T = (G^T G) o (R_B^T R_B) - K K^T.  So a sample is
    sum_r k_r + nB normals, no more than the coefficients.
    """

    def __init__(self, maps):
        self.maps = list(maps)
        first = self.maps[0]
        if not all(_same_grid(first, m) for m in self.maps):
            raise ValueError("the maps live on different noise grids")
        N, J = first.n_star, first.j_star
        norms = np.full(J, 0.5 * J)
        norms[-1] = J
        gain = np.sqrt(norms / first.cell_area)   # sigma_r / (dt dx)
        # where each map's coefficients are read: FEM rows i..i + nu of B,
        # sine mode k at (its fold row, its slot among the time rows of
        # that row), the row's next free slot
        self._take, fems, sines, nB = [], [], [], 0
        filled = np.zeros(J, int)   # the slots taken on each fold row
        for m in self.maps:
            if _is_fem(m.basis):
                fems.append((m, slice(nB, nB + m.basis.values.size)))
                self._take.append(fems[-1][1])
                nB += m.basis.values.size
                continue
            alias, c = noise.fold_rows(m.basis, J)
            order = np.argsort(alias, kind="stable")
            row = alias[order]
            slot = filled[row] + np.arange(row.size) - row.searchsorted(row)
            filled += np.bincount(row, minlength=J)
            sines.append((m, order, row, slot, c[order] * gain[row]))
            self._take.append((alias, np.empty_like(slot)))
            self._take[-1][1][order] = slot
        ds = int(filled.max())
        # a sine mode's place, flat in the (fold row, slot) readings
        self._take = [t if isinstance(t, slice) else t[0] * ds + t[1]
                      for t in self._take]
        kB = min(N, nB)
        kr = min(N - kB, ds)
        if fems:
            B = np.zeros((nB, N))
            G = np.empty((J, nB))   # G^T, row r times gain_r
            for m, t in fems:
                W, p = m.time.steps()
                B[t, :W.shape[1] * p] = np.repeat(W, p, axis=1)
                G[:, t] = noise.sine_cell_fold(J, J)[2] @ m.fold()[2].T
            G *= (gain / norms)[:, None]
            Q, RB = np.linalg.qr(B.T, mode="complete" if N < nB + ds
                                 else "reduced")
        self._sine = np.zeros((J, kB + kr, ds))
        chunk = max(1, _SAMPLER_CHUNK // max(1, ds * N))
        for lo in range(0, J if ds else 0, chunk):
            hi = min(lo + chunk, J)
            A = np.zeros((hi - lo, ds, N))
            fac = np.zeros((hi - lo, ds))
            for m, order, row, slot, f in sines:
                a, b = np.searchsorted(row, (lo, hi))
                W, p = m.time.steps(order[a:b])
                A[row[a:b] - lo, slot[a:b], :W.shape[1] * p] = np.repeat(
                    W, p, axis=1)
                fac[row[a:b] - lo, slot[a:b]] = f[a:b]
            F = self._sine[lo:hi]
            E = A.reshape(-1, N).T   # a column per time row
            if fems:   # coordinates on B's basis, then the part off it
                Y = Q.T @ E
                F[:, :kB] = Y[:kB].reshape(kB, hi - lo, ds).transpose(1, 0, 2)
                E = Y[kB:] if Q.shape[1] == N else E - Q @ Y
            if kr:
                F[:, kB:] = np.linalg.qr(
                    E.reshape(-1, hi - lo, ds).transpose(1, 0, 2), mode="r")
            F *= fac[:, None, :]
        # the n_r modes of row r fill its first slots, so the rows of T_r
        # past k_r = min(n_r, kB + kr) are 0
        Qr, self._sine = np.linalg.qr(self._sine)
        self._live = np.arange(self._sine.shape[1]) < filled[:, None]
        self.shape = (int(np.count_nonzero(self._live)) + nB,)
        self._fem = np.zeros((0, self.shape[0]))
        if fems:
            K = G[:, :, None] * (RB[:kB].T @ Qr[:, :kB])   # J x nB x k
            K = K.transpose(1, 0, 2).reshape(nB, -1)[:, self._live.ravel()]
            cov = (G.T @ G) * (RB[:kB].T @ RB[:kB])   # the FEM rows'
            vals, U = np.linalg.eigh(cov - K @ K.T)
            # the rest may vanish: its rounding beside the FEM variances
            if vals[0] < -1e-12 * cov.diagonal().max():
                raise ValueError("negative FEM remainder covariance")
            self._fem = np.hstack([K, U * np.sqrt(np.maximum(vals, 0.0))])

    def draw(self, seed):
        """The standard normals (a, w) of one sample, ``shape`` of them
        from the Philox stream of ``seed``."""
        return noise._philox(seed).standard_normal(self.shape)

    def coefficients(self, z):
        """Each map's basis coefficients from the standard normals ``z``
        (``draw``), a list in the order of ``maps``."""
        a = np.zeros(self._live.shape)
        a[self._live] = z[:len(z) - len(self._fem)]
        sine = np.matmul(a[:, None, :], self._sine).ravel()
        fem_rows = self._fem @ z
        return [fem_rows[t] if isinstance(t, slice) else sine[t]
                for t in self._take]


def _moment(map_a, map_b, pairing):
    """Per-row terms E x_k g_k y_{rows_k} (one per row of X) from the
    paired time Grams and the space factors sum_j (cell integrals of row
    k)(cell integrals of row rows_k), each in closed form: sine against
    FEM ``sine_fem_cell_cross``, FEM ``fem.cell_energies``, sine
    ``noise.mode_cell_sq_sums``.  No fold is built; it serves sampling."""
    if not _same_grid(map_a, map_b):
        raise ValueError("maps live on different noise grids")
    rows, g, _ = pairing
    if map_a.basis != map_b.basis:     # sine rows of X, FEM rows of Y
        space = sine_fem_cell_cross(map_a.basis, rows, map_b.basis,
                                    map_a.j_star)
    elif _is_fem(map_a.basis):
        space = fem.cell_energies(map_a.basis, map_a.j_star)
    else:
        space = _sine_energies(map_a.basis, map_a.j_star)
    terms = g * (map_a.time.self_gram if map_a is map_b else
                 time_gram(map_a.time, map_b.time, rows)) * space
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
    Where p is 0 or J it is 0, and rows_k reads 0.  Each factor but 1/lam_k^2
    is a table over r in [0, 2J) (sin^2(k pi h/2) has period 2J).
    """
    J = eigen.system.mesh.intervals
    ks = np.arange(1, K + 1)
    r = ks % (2 * J)
    q = np.arange(min(K + 1, 2 * J))        # the residues r that occur
    p = np.minimum(q, 2 * J - q)
    live = (p > 0) & (p < J)
    g = np.where(live, np.where(q < J, 0.5, -0.5) * J * J
                 * fem._eigen_scale(p, J) * math.sqrt(2.0) * 4.0
                 * sin_pi_ratio(q, 2 * J) ** 2, 0.0)
    return np.where(live, p - 1, 0)[r], g[r] / (ks * math.pi) ** 2


def sine_fem_cell_cross(K, rows, eigen, j_star):
    """sum_j b_kj beta_pj per mode k = 1..K, p = rows_k + 1: the noise-cell
    integrals of e_k (``noise.mode_cell_integrals``) against those of
    phi_p (``fem.cell_energies``), in closed form.

    b_kj = c_k sin(theta (j - 1/2)), theta = r pi/J* (``noise.fold_rows``,
    r = alias_k + 1), is an eigenvector of the second difference in j, with
    eigenvalue -4 sin^2(theta/2).  Extended oddly at x = 0 and 1, the
    boundary terms of summation by parts vanish, and the second difference
    of beta is the hat kinks -4 J sin^2(p pi/(2J)) phi_p(x_i) spread by a
    tent of half-width dx over the at most 3 cells around node i.  With
    node i u dx past a cell edge and w_l the tent's share of cell l = -1,
    0, 1 (midpoint o_l = l + 1/2 - u cells past x_i), the tent meets the
    sine as dx^2 (a_u sin(r pi x_i) + b_u cos(r pi x_i)), a_u + i b_u =
    sum_l w_l exp(i theta o_l).  Over a period the nodes of one offset
    class i0 (``fem.cell_energies``) sum sin(p pi x_i) against sin(r pi
    x_i) and cos(r pi x_i) to 0 unless p = +-r (mod 2g), g = gcd(J, J*):

        sum_j b_kj beta_pj = c_k g J dx^2 c_p sin^2(p pi/(2J))
            / (2 sin^2(theta/2)) sum_i0 ([p = r] (a cos + b sin)(p - r)
                                         - [p = -r] (a cos - b sin)(p + r))

    at the phases (p -+ r) pi i0/J.  Class 0 has u = 0, a = cos(theta/2)
    and b = 0; its a summed over the classes is J' = J/g where p = +-r (mod
    2J), else 0, so the other classes enter only through a_u - a_0, taken
    as products of sines.  When J divides J* there is one class: O(1) per
    mode.  Every sine is taken in integers (``sin_pi_ratio``), and every
    share w_l is exact: ``fem._tent_overlaps`` / (2 J^2), with cells J
    units wide.  The factors in r are tables over the fold rows r =
    1..min(K, J*), gathered by alias; those in p tables over p in [0, J).
    """
    J = eigen.system.mesh.intervals
    g = math.gcd(J, j_star)
    alias, c = noise.fold_rows(K, j_star)
    r, p = alias + 1, np.asarray(rows) + 1
    n = 2 * J * j_star          # the phases theta (o_l +- 1/2)/2 are pi m/n
    rs = np.arange(1, min(K, j_star) + 1)    # a_u, b_u per fold row
    rm = (rs % (2 * J))[alias]    # p < J: p = +-r (mod 2J) is p = rm, 2J - rm
    total = (J // g) * fem._cos_pi_ratio(rs * J, n)[alias] * (
        (p == rm).astype(float) - (p + rm == 2 * J))
    q = np.arange(2 * J)
    sines, cosines = sin_pi_ratio(q, J), fem._cos_pi_ratio(q, J)
    live = [np.flatnonzero((p + sign * r) % (2 * g) == 0)
            for sign in (-1, 1) if g < J]   # classes past 0 need g < J
    block = max(1, 2 ** 18 // K)   # about 2^18 (class, mode) pairs a block
    for lo in range(1, J // g, block):
        i0 = np.arange(lo, min(lo + block, J // g))[:, None]
        e = i0 * j_star % J   # node i0 lies u = e/J of a cell past an edge
        a = b = 0.0           # a is a_u - a_0: cosine differences as sines
        for l in (-1, 0, 1):  # w: the share of cell l, J units wide
            w = fem._tent_overlaps(e, J, J * l, J * l + J) / float(2 * J * J)
            a = a - 2.0 * w * (sin_pi_ratio(rs * (J * l + J - e), n)
                               * sin_pi_ratio(rs * (J * l - e), n))
            b = b + w * sin_pi_ratio(rs * (2 * J * l + J - 2 * e), n)
        for sign, k in zip((-1, 1), live):   # p = r, then p = -r (mod 2g)
            m = (p[k] + sign * r[k]) * i0 % (2 * J)
            total[k] += np.sum(b[:, alias[k]] * sines[m]
                               - sign * a[:, alias[k]] * cosines[m], axis=0)
    return (c * (0.5 * g * J / j_star ** 2) * fem._eigen_scale(q[:J], J)[p]
            * (sin_pi_ratio(q[:J], 2 * J)[p]
               / sin_pi_ratio(rs, 2 * j_star)[alias]) ** 2 * total)


def map_regularized(n_star, j_star, horizon, K, t):
    """Coefficient map of the regularized solution at time t."""
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
