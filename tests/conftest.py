from fractions import Fraction

import numpy as np
import pytest

from stochheat import deterministic


@pytest.fixture(scope="session")
def overlap_sq_sum_mp():
    """f(k, t, n_star, horizon) = sum_n I_{k,n}(t)^2, the squared time
    overlaps of mode k summed cell by cell at 30 digits.  ``t`` and
    ``horizon`` are exact values (a float or a ``Fraction``)."""
    mpmath = pytest.importorskip("mpmath")

    def exact(x):
        x = Fraction(x)
        return mpmath.mpf(x.numerator) / x.denominator

    def f(k, t, n_star, horizon):
        with mpmath.workdps(30):
            lam2 = (k * mpmath.pi) ** 2
            t, dt = exact(t), exact(horizon) / n_star
            total = mpmath.mpf(0)
            for n in range(n_star):
                lo, hi = n * dt, min((n + 1) * dt, t)
                if hi > lo:
                    total += ((mpmath.exp(-lam2 * (t - hi))
                               - mpmath.exp(-lam2 * (t - lo))) / lam2) ** 2
            return float(total)
    return f


@pytest.fixture(scope="session")
def cn_fem_whole_path():
    """f(v0, system, M, dtau, loads=None): the nodal Trajectory of M
    banded Crank-Nicolson steps from v0 in one pass of
    ``deterministic.cn_fem_stepper``, column m - 1 of ``loads`` the load
    of step m: ``modified_cn_fem`` with a forcing."""
    def f(v0, system, M, dtau, loads=None):
        states = np.empty((M + 1, v0.size))
        states[0] = v0
        with np.errstate(invalid="ignore", over="ignore"):
            rhs = system.mass_apply(v0)
        deterministic.cn_fem_stepper(system, dtau)(rhs, states[1:], loads)
        return deterministic.Trajectory(dtau, states, "nodal")
    return f
