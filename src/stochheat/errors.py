"""Exact mean-square error functionals and convergence-rate fitting.

Each discretization error is a Gaussian quadratic form in the noise
increments, so its second moment reduces to deterministic sums that we
evaluate in closed form.  A slow quadrature version of the modeling
error and generic Monte Carlo helpers serve as cross-checks.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature, solvers

__all__ = [
    "modeling_error_exact",
    "modeling_errors",
    "modeling_error_quadrature",
    "tdr_error_exact",
    "sdr_error_exact",
    "total_error_exact",
    "pair_error",
    "sample_seed",
    "mc_error",
    "fit_rate",
    "ErrorReport",
]


def _trigamma(x):
    """psi'(x) for x >= 1: raised to x >= 16 by psi'(x) = psi'(x + 1) +
    1/x^2, then the asymptotic series 1/x + 1/(2x^2) + sum_j B_2j/x^(2j+1)
    (DLMF 5.15.8) through B_14, whose next term is below 1e-18 relative."""
    shift = max(0, math.ceil(16.0 - x))
    y = 1.0 / (x + shift)
    w = y * y
    b = 1/6 + w * (-1/30 + w * (1/42 + w * (-1/30 + w * (
        5/66 + w * (-691/2730 + w * 7/6)))))
    s = y * (1.0 + y * (0.5 + y * b))
    for i in range(shift - 1, -1, -1):  # the smallest terms first
        s += 1.0 / (x + i) ** 2
    return s


def _mode_tail(K, t):
    """sum_{k > K} (1 - exp(-2 lam_k^2 t)) / (2 lam_k^2), exact to roundoff.

    The t-independent part is a trigamma value; the correction, the sum
    of exp(-2 lam_k^2 t)/(2 lam_k^2), decays like exp(-2 pi^2 K^2 t): it is
    the 4096 modes past K, formed unless the first term is 0 (2 lam_k^2 t
    >= 746), since every term after them is 0.  Where they have not
    underflowed (2 pi^2 (K + 4096)^2 t < 746; that takes about 1.6/sqrt(t)
    modes), the whole series is sqrt(t/(2 pi)) - t/2 (Poisson summation, up
    to terms of order exp(-1/(2t)), which underflow there) less its first K
    terms.  A result below 0 goes through ``_nonnegative`` against the
    trigamma term, or the whole series.
    """
    if t <= 0.0:
        return 0.0
    pis2 = math.pi ** 2
    if 2.0 * pis2 * (K + 4096) ** 2 * t < 746.0:
        lam2 = pis2 * np.arange(1, K + 1, dtype=float) ** 2
        whole = math.sqrt(t / (2.0 * math.pi)) - 0.5 * t
        head = float(np.sum(-np.expm1(-2.0 * lam2 * t) / (2.0 * lam2)))
        return float(_nonnegative(whole - head, whole, "mode tail"))
    tail = trigamma = _trigamma(K + 1) / (2.0 * pis2)
    if 2.0 * pis2 * (K + 1) ** 2 * t < 746.0:
        lam2 = pis2 * np.arange(K + 1, K + 4097, dtype=float) ** 2
        tail -= (np.exp(-2.0 * lam2 * t) / (2.0 * lam2)).sum()
    return float(_nonnegative(tail, trigamma, "mode tail"))


def modeling_error_exact(t, n_star, j_star, K=8192, horizon=1.0,
                         include_tail=True):
    """RMS gap of exact and regularized solutions at t, on one grid."""
    return modeling_errors(t, [(n_star, j_star)], K, horizon, include_tail)[0]


def modeling_errors(t, grids, K=8192, horizon=1.0, include_tail=True):
    """``modeling_error_exact`` at t on each (n_star, j_star) of ``grids``.

    Mode by mode the cell-average projection is orthogonal in L2 of the
    strip, so the squared error is the semigroup variance minus the
    mode's ``row_moments`` of ``solvers.map_regularized``, in closed form
    at every t (a geometric profile, with a partial last cell when t lies
    inside one).  Modes above K contribute through the analytic tail of
    the semigroup variance.  Each mode's gap goes through
    ``_nonnegative`` against its semigroup variance.  The variance and
    the tail are taken once; a grid with the n* of the grid before it
    reuses that time profile and its ``self_gram``.
    """
    if t == 0.0:
        return [0.0] * len(grids)
    ks = np.arange(1, K + 1)
    # raises ValueError for t outside [0, T], before the K-long work
    time = solvers.OverlapProfile(ks, t, grids[0][0], horizon)
    lam2 = (math.pi * ks) ** 2
    semi = -np.expm1(-2.0 * lam2 * t) / (2.0 * lam2)
    tail = _mode_tail(K, t) if include_tail else 0.0
    out = []
    for n_star, j_star in grids:
        if time.n_star != n_star:
            time = solvers.OverlapProfile(ks, t, n_star, horizon)
        proj = solvers.GaussianCoefficientMap(time, K, j_star).row_moments()
        gap = _nonnegative(semi - proj, semi, "modeling error term")
        out.append(math.sqrt(float(gap.sum()) + tail))
    return out


def _cell_time_integrals(lam2, t_lo, t_hi, t):
    """Quadrature of exp(-lam2 (t - s)) and its square over (t_lo, t_hi).

    60 panels of 24 Gauss points are graded dyadically toward the upper
    end, where the integrand concentrates for stiff modes.
    """
    top = min(t_hi, t)
    if top <= t_lo:
        return 0.0, 0.0
    width = top - t_lo
    cuts = top - width * 0.5 ** np.arange(61)
    cuts[0] = t_lo
    x, w = np.polynomial.legendre.leggauss(24)
    a, b = cuts[:-1], cuts[1:]
    s = 0.5 * (b + a)[:, None] + 0.5 * (b - a)[:, None] * x[None, :]
    ws = 0.5 * (b - a)[:, None] * w[None, :]
    e = np.exp(-lam2 * (t - s))
    return float((ws * e).sum()), float((ws * e * e).sum())


def modeling_error_quadrature(t, n_star, j_star, K, horizon=1.0):
    """Brute-force quadrature of the modeling error, modes 1..K only.

    Works straight from the heat kernel factors: the space integrals of
    each sine mode over each cell come from composite Gauss panels, the
    time factors from graded panels, and the projection is assembled
    per cell.  Slow; used to validate the closed-form evaluation.
    """
    if t <= 0.0:
        return 0.0
    dt = horizon / n_star
    dx = 1.0 / j_star
    total = scale = 0.0
    for k in range(1, K + 1):
        lam = k * math.pi
        lam2 = lam * lam
        y1 = np.empty(j_star)
        y2 = np.empty(j_star)
        for j in range(j_star):
            y, wy = quadrature.gauss_points(j * dx, (j + 1) * dx)
            e = math.sqrt(2.0) * np.sin(lam * y)
            y1[j] = float((wy * e).sum())
            y2[j] = float((wy * e * e).sum())
        s1 = np.empty(n_star)
        s2 = np.empty(n_star)
        for n in range(n_star):
            s1[n], s2[n] = _cell_time_integrals(lam2, n * dt, (n + 1) * dt, t)
        # per cell: integral of kernel^2 minus captured projection energy
        captured = float((np.outer(s1, y1) ** 2).sum()) / (dt * dx)
        total += s2.sum() * y2.sum() - captured
        scale += s2.sum() * y2.sum()
    return math.sqrt(_nonnegative(total, scale, "quadrature modeling error"))


def tdr_error_exact(m, M, n_star, j_star, K, horizon=1.0):
    """Exact RMS time-discretization error at step m of M: the regularized
    solution against the mode-wise CN scheme at t = m * dtau."""
    map_u = solvers.map_regularized(n_star, j_star, horizon, K,
                                    m * (horizon / M))
    map_s = solvers.map_cn_spectral(n_star, j_star, horizon, K, M, m)
    return pair_error(map_u, map_s)


def _nonnegative(x, scale, what):
    """``x`` with values negative within rounding (>= -1e-12 ``scale``,
    termwise for arrays) read as 0; one below that raises RuntimeError,
    because the terms are inconsistent, not rounded."""
    if np.any(x < -1e-12 * scale):
        raise RuntimeError("%s %.3e is negative beyond rounding (scale "
                           "%.3e)" % (what, np.min(x), np.max(scale)))
    return np.maximum(x, 0.0)


def pair_error(map_a, map_b):
    """Exact RMS distance sqrt(E ||X - Y||^2) of two mapped observables:
    sqrt(sum_k (x2 - 2 xy + gy2)_k + wy2) from the termwise moments of
    ``solvers.distance_moments``.  A negative sum within rounding (>=
    -1e-12 (E ||X||^2 + E ||Y||^2)) reads as 0; a larger one means the
    moments are inconsistent and raises RuntimeError."""
    x2, xy, gy2, wy2 = solvers.distance_moments(map_a, map_b)
    e2 = float(np.sum(x2 - 2.0 * xy + gy2)) + wy2
    return math.sqrt(_nonnegative(e2, float(np.sum(x2 + gy2)) + wy2,
                                  "squared error"))


def sdr_error_exact(m, M, n_star, j_star, eigen, K, horizon=1.0):
    """Exact RMS gap between CN-spectral and CN-FEM at step m of M.

    The spectral side is truncated to K modes consistently in both the
    norm and the cross term, which keeps the result a genuine distance.
    To reuse the spectral side across meshes, build
    ``solvers.map_cn_spectral`` once and call ``pair_error`` instead.
    """
    map_s = solvers.map_cn_spectral(n_star, j_star, horizon, K, M, m)
    map_h = solvers.map_cn_fem(n_star, j_star, horizon, eigen, M, m)
    return pair_error(map_s, map_h)


def total_error_exact(m, M, n_star, j_star, eigen, K, horizon=1.0):
    """Exact RMS gap between the regularized solution and CN-FEM."""
    map_u = solvers.map_regularized(n_star, j_star, horizon, K,
                                    m * (horizon / M))
    map_h = solvers.map_cn_fem(n_star, j_star, horizon, eigen, M, m)
    return pair_error(map_u, map_h)


def sample_seed(base_seed, i):
    """Seed of Monte Carlo sample i (from 0): the base xor a 64-bit
    golden-ratio multiple of i + 1."""
    return base_seed ^ (0x9E3779B97F4A7C15 * (i + 1) & 0xFFFFFFFFFFFFFFFF)


def mc_error(pair_fn, samples, base_seed=0):
    """Monte Carlo mean and standard error of a squared-error functional.

    ``pair_fn(seeds)`` is called once, with the ``samples`` seeds of
    ``sample_seed`` in order, so runs are reproducible.  It returns one
    result per seed: a squared-error sample, or a sequence of samples
    (one per level, all from the one grid of that seed); any other count
    raises ValueError.  Scalar results give floats (mean, stderr),
    sequences one list of each.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    vals = np.array(pair_fn([sample_seed(base_seed, i)
                             for i in range(samples)]))
    if vals.shape[:1] != (samples,):
        raise ValueError("pair_fn must give one result per seed, %d in all"
                         % samples)
    if vals.ndim == 1:
        return _mean_se(vals)
    stats = [_mean_se(col) for col in vals.T]
    return [m for m, _ in stats], [se for _, se in stats]


def _mean_se(vals):
    # scaled exactly by a power of two, into a new contiguous array: the
    # squared deviations neither underflow nor overflow, and one level's
    # samples sum as in a scalar run
    e = np.frexp(np.abs(vals).max())[1]
    vals = np.ldexp(vals, -e)
    return (float(np.ldexp(vals.mean(), e)),
            float(np.ldexp(vals.std(ddof=1) / math.sqrt(vals.size), e)))


def fit_rate(steps, errors, window=None):
    """Least-squares slope of log(error) against log(step).

    Fits the ``window`` finest levels (all, if omitted) and reports the
    largest absolute log-misfit alongside slope and intercept; a step
    that the window holds twice, or a step or error anywhere that is not
    positive and finite (nan included), raises ValueError.
    """
    steps = np.asarray(steps, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if steps.shape != errors.shape or steps.size < 2:
        raise ValueError("need matching arrays with at least two points")
    if not np.all((0.0 < steps) & (steps < np.inf)
                  & (0.0 < errors) & (errors < np.inf)):
        raise ValueError("steps and errors must be positive and finite")
    order = np.argsort(steps)
    steps, errors = steps[order], errors[order]
    if window is not None:
        if window < 2:
            raise ValueError("window too small")
        steps, errors = steps[:window], errors[:window]
    if np.any(steps[1:] == steps[:-1]):
        raise ValueError("the fitted window repeats a step")
    slope, intercept = np.polyfit(np.log(steps), np.log(errors), 1)
    resid = np.log(errors) - (slope * np.log(steps) + intercept)
    return float(slope), float(intercept), float(np.abs(resid).max())


@dataclass
class ErrorReport:
    """Rows of a convergence study plus the fitted rate."""

    study: str
    rows: list = field(default_factory=list)
    slope: float = math.nan
    intercept: float = math.nan
    residual: float = math.nan

    COLUMNS = ("study", "level", "dt", "dx", "dtau", "h", "K",
               "error_exact", "error_mc", "stderr")

    def add_row(self, level, dt, dx, dtau, h, K, error_exact,
                error_mc=math.nan, stderr=math.nan):
        self.rows.append({
            "study": self.study, "level": int(level), "dt": dt, "dx": dx,
            "dtau": dtau, "h": h, "K": int(K), "error_exact": error_exact,
            "error_mc": error_mc, "stderr": stderr,
        })

    def fit(self, key, window=4):
        steps = [r[key] for r in self.rows]
        errs = [r["error_exact"] for r in self.rows]
        window = min(window, len(steps))
        self.slope, self.intercept, self.residual = fit_rate(
            steps, errs, window=window)
        return self.slope

    def to_csv(self):
        def fmt(v):
            if isinstance(v, str):
                return v
            if isinstance(v, (int, np.integer)):
                return str(int(v))
            return format(float(v), ".17g")

        lines = [",".join(self.COLUMNS)]
        for r in self.rows:
            lines.append(",".join(fmt(r[c]) for c in self.COLUMNS))
        lines.append("slope," + fmt(self.slope))
        return "\n".join(lines) + "\n"
