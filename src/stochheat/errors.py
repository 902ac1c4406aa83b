"""Exact mean-square error functionals and convergence-rate fitting.

Each discretization error is a Gaussian quadratic form in the noise
increments, so its second moment reduces to deterministic sums that we
evaluate in closed form.  A slow quadrature version of the modeling
error and generic Monte Carlo helpers serve as cross-checks.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import noise, quadrature, solvers

__all__ = [
    "modeling_error_exact",
    "modeling_error_quadrature",
    "tdr_error_exact",
    "sdr_error_exact",
    "total_error_exact",
    "pair_error",
    "mc_error",
    "fit_rate",
    "ErrorReport",
]


def _mode_tail(K, t):
    """sum_{k > K} exp(-2 lam_k^2 t) / (2 lam_k^2), exact to roundoff.

    The t-independent part is a trigamma value; the correction decays
    like exp(-2 pi^2 K^2 t) and is summed until it underflows.
    """
    pis2 = math.pi ** 2
    tail = special.polygamma(1, K + 1) / (2.0 * pis2)
    if t <= 0.0:
        return tail
    k = K + 1
    while True:
        ks = np.arange(k, k + 4096, dtype=float)
        lam2 = pis2 * ks**2
        terms = np.exp(-2.0 * lam2 * t) / (2.0 * lam2)
        s = terms.sum()
        tail -= s
        if s < 1e-300 or terms[-1] < 1e-20 * abs(tail):
            break
        k += 4096
    return max(tail, 0.0)


def modeling_error_exact(t, n_star, j_star, K=8192, horizon=1.0,
                         include_tail=True):
    """Root mean square gap between exact and regularized solutions at t.

    Mode by mode the cell-average projection is orthogonal in L2 of the
    strip, so the squared error is the semigroup variance minus the
    energy captured by the cells; both have closed forms.  Modes above
    K contribute through the analytic tail of the semigroup variance.
    """
    if t == 0.0:
        return 0.0
    if not (0.0 < t <= horizon + 1e-12):
        raise ValueError("time outside (0, T]")
    dt = horizon / n_star
    dx = 1.0 / j_star
    ks = np.arange(1, K + 1)
    lam2 = (math.pi * ks.astype(float)) ** 2
    semi = -np.expm1(-2.0 * lam2 * t) / (2.0 * lam2)
    proj = (noise.time_overlap_sq_sum(ks, t, n_star, horizon) / dt
            * noise.mode_cell_sq_sums(ks, j_star) / dx)
    z2 = float(np.maximum(semi - proj, 0.0).sum())
    if include_tail:
        z2 += _mode_tail(K, t)
    return math.sqrt(z2)


def _cell_time_integrals(lam2, t_lo, t_hi, t, npts=24, levels=60):
    """Quadrature of exp(-lam2 (t - s)) and its square over (t_lo, t_hi).

    Panels are graded dyadically toward the upper end, where the
    integrand concentrates for stiff modes.
    """
    top = min(t_hi, t)
    if top <= t_lo:
        return 0.0, 0.0
    width = top - t_lo
    cuts = top - width * 0.5 ** np.arange(levels + 1)
    cuts[0] = t_lo
    x, w = np.polynomial.legendre.leggauss(npts)
    a, b = cuts[:-1], cuts[1:]
    s = 0.5 * (b + a)[:, None] + 0.5 * (b - a)[:, None] * x[None, :]
    ws = 0.5 * (b - a)[:, None] * w[None, :]
    e = np.exp(-lam2 * (t - s))
    return float((ws * e).sum()), float((ws * e * e).sum())


def modeling_error_quadrature(t, n_star, j_star, K, horizon=1.0,
                              nsub=256, npts=8):
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
    total = 0.0
    for k in range(1, K + 1):
        lam = k * math.pi
        lam2 = lam * lam
        y1 = np.empty(j_star)
        y2 = np.empty(j_star)
        for j in range(j_star):
            y, wy = quadrature.gauss_points(j * dx, (j + 1) * dx, nsub, npts)
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
    return math.sqrt(max(total, 0.0))


def tdr_error_exact(m, M, n_star, j_star, horizon=1.0, K=None):
    """Exact RMS time-discretization error at step m of M.

    Compares the regularized solution with the mode-wise CN scheme at
    t = m * dtau; both share the sine basis, so the error is a plain
    sum over modes of squared time-profile gaps times cell energies.
    """
    if K is None:
        K = 4 * j_star
    dtau = horizon / M
    t = m * dtau
    ks = np.arange(1, K + 1)
    lam2 = (math.pi * ks.astype(float)) ** 2
    I = noise.time_overlaps(ks, t, n_star, horizon)
    A = solvers.propagator_time_profile(lam2, m, dtau, n_star, horizon)
    bsq = noise.mode_cell_sq_sums(ks, j_star)
    dt = horizon / n_star
    dx = 1.0 / j_star
    e2 = float((((I - A) ** 2).sum(1) * bsq).sum()) / (dt * dx)
    return math.sqrt(max(e2, 0.0))


def pair_error(map_a, map_b, gram):
    """Exact RMS distance sqrt(E ||X - Y||^2) of two mapped observables.

    ``gram`` is the basis Gram matrix of ``solvers.cross_moment`` (None
    when both maps share one basis).  Rounding cancellation below zero
    is clamped.
    """
    ea = map_a.second_moment()
    eb = map_b.second_moment()
    cross = solvers.cross_moment(map_a, map_b, gram)
    return math.sqrt(max(ea - 2.0 * cross + eb, 0.0))


def sdr_error_exact(m, M, n_star, j_star, eigen, horizon=1.0, K=None,
                    a_spectral=None):
    """Exact RMS gap between CN-spectral and CN-FEM at step m of M.

    The spectral side is truncated to K modes consistently in both the
    norm and the cross term, which keeps the result a genuine distance.
    ``a_spectral`` (deprecated) supplies a precomputed spectral time
    profile; to reuse the spectral side across meshes, build
    ``solvers.map_cn_spectral`` once and call ``pair_error`` instead.
    """
    if K is None:
        K = 4 * j_star
    if a_spectral is None:
        map_s = solvers.map_cn_spectral(n_star, j_star, horizon, K, M, m)
    else:
        map_s = solvers.GaussianCoefficientMap(
            a_spectral, noise.mode_cell_integrals(K, j_star), "sine",
            n_star, j_star, horizon)
    map_h = solvers.map_cn_fem(n_star, j_star, horizon, eigen, M, m)
    return pair_error(map_s, map_h, solvers.spectral_fem_gram(K, eigen))


def total_error_exact(m, M, n_star, j_star, eigen, horizon=1.0, K=None):
    """Exact RMS gap between the regularized solution and CN-FEM."""
    if K is None:
        K = 4 * j_star
    map_u = solvers.map_regularized(n_star, j_star, horizon, K,
                                    m * (horizon / M))
    map_h = solvers.map_cn_fem(n_star, j_star, horizon, eigen, M, m)
    return pair_error(map_u, map_h, solvers.spectral_fem_gram(K, eigen))


def mc_error(pair_fn, samples, base_seed=0):
    """Monte Carlo mean and standard error of a squared-error functional.

    ``pair_fn(seed)`` must return one squared-error sample; seeds are
    derived from the base so runs are reproducible.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    vals = np.array([pair_fn(base_seed ^ (0x9E3779B97F4A7C15 * (i + 1)
                                          & 0xFFFFFFFFFFFFFFFF))
                     for i in range(samples)])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def fit_rate(steps, errors, window=None):
    """Least-squares slope of log(error) against log(step).

    Fits the ``window`` finest levels (all, if omitted) and reports the
    largest absolute log-misfit alongside slope and intercept.
    """
    steps = np.asarray(steps, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if steps.shape != errors.shape or steps.size < 2:
        raise ValueError("need matching arrays with at least two points")
    if np.any(steps <= 0.0) or np.any(errors <= 0.0):
        raise ValueError("steps and errors must be positive")
    order = np.argsort(steps)
    steps, errors = steps[order], errors[order]
    if window is not None:
        if window < 2:
            raise ValueError("window too small")
        steps, errors = steps[:window], errors[:window]
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

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())
