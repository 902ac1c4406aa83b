from fractions import Fraction

import pytest


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
