"""Sine eigenbasis machinery for the Dirichlet Laplacian on D = (0, 1).

The orthonormal eigenfunctions are e_k(z) = sqrt(2) sin(k pi z) with
eigenvalue square roots lam_k = k pi.  Every field here is a finite
sine series, so the heat semigroup is a diagonal operation on the
coefficient vector.
"""

import math

import numpy as np

__all__ = [
    "SpectralField",
    "eigenvalue_sqrt",
    "sin_pi_ratio",
    "semigroup_apply",
]


def eigenvalue_sqrt(k):
    """lam_k = k*pi for mode index k >= 1 (accepts arrays)."""
    return np.asarray(k, dtype=float) * math.pi


def sin_pi_ratio(m, n):
    """sin(pi m / n) for integers m and n >= 1, accurate relative to its size.

    In integers, m = k n + e with e in [-n/2, n/2), so that
    sin(pi m/n) = (-1)^k sin(pi e/n) and the float argument is at most
    pi/2 in size.  e is kept doubled, 2e = ((2m + n) mod 2n) - n, and
    large index arrays are worked in place.  m and m + 2n give the same e
    and the same parity of k, so the bits depend only on m mod 2n: a table
    over one period, gathered at m mod 2n, is this function.
    """
    shape = np.shape(m)
    two_e = np.multiply(m, 2, out=np.empty(shape, np.int64))
    two_e += n
    k = np.empty(shape, np.int64)
    np.divmod(two_e, 2 * n, out=(k, two_e))
    two_e -= n
    k &= 1                       # (-1)^k = 1 - 2 (k mod 2)
    k *= -2
    k += 1
    two_e *= k
    del k
    s = np.multiply(two_e, math.pi / (2 * n), out=np.empty(shape))
    del two_e
    return np.sin(s, out=s)[()]


class SpectralField:
    """Truncated sine-coefficient representation of an L2(0,1) function.

    ``coeffs[i]`` is the coefficient of mode k = i + 1.  Instances are
    immutable; all operations return new fields.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a nonempty 1D sequence")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralField is immutable")

    @property
    def K(self):
        return self.coeffs.size

    @property
    def modes(self):
        return np.arange(1, self.K + 1)

    def l2_norm(self):
        # Parseval: the basis is orthonormal.
        return float(np.linalg.norm(self.coeffs))

    def evaluate(self, x):
        """Pointwise reconstruction sum_k c_k e_k(x); x scalar or array."""
        x = np.asarray(x, dtype=float)
        lam = eigenvalue_sqrt(self.modes)
        vals = math.sqrt(2.0) * np.sin(np.multiply.outer(x, lam))
        return vals @ self.coeffs

    @staticmethod
    def basis(k, K=None):
        """The field e_k, truncated at K (defaults to k)."""
        K = k if K is None else K
        c = np.zeros(K)
        c[k - 1] = 1.0
        return SpectralField(c)

    def __repr__(self):
        return f"SpectralField(K={self.K})"


def semigroup_apply(t, f):
    """Heat semigroup: mode k is damped by exp(-lam_k^2 t)."""
    if t < 0.0:
        raise ValueError("negative time")
    lam2 = eigenvalue_sqrt(f.modes) ** 2
    return SpectralField(np.exp(-lam2 * t) * f.coeffs)
