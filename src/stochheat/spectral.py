"""Sine eigenbasis machinery for the Dirichlet Laplacian on D = (0, 1).

The orthonormal eigenfunctions are e_k(z) = sqrt(2) sin(k pi z) with
eigenvalue square roots lam_k = k pi.  Every field here is a finite
sine series, so semigroup, Sobolev norms and the elliptic inverse are
diagonal operations on the coefficient vector.
"""

import math

import numpy as np

__all__ = [
    "SpectralField",
    "eigenvalue_sqrt",
    "sin_pi_ratio",
    "eigenfunction_eval",
    "semigroup_apply",
    "green_kernel_eval",
    "hdot_norm",
    "elliptic_inverse",
    "truncation_for_tolerance",
]


def eigenvalue_sqrt(k):
    """lam_k = k*pi for mode index k >= 1 (accepts arrays)."""
    return np.asarray(k, dtype=float) * math.pi


def sin_pi_ratio(m, n):
    """sin(pi m / n) for integers m and n >= 1, accurate relative to its size.

    In integers, m = k n + e with e in [-n/2, n/2), so that
    sin(pi m/n) = (-1)^k sin(pi e/n) and the float argument is at most
    pi/2 in size.  e is kept doubled, 2e = ((2m + n) mod 2n) - n, and
    large index arrays are worked in place.
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

    def __add__(self, other):
        if self.K != other.K:
            raise ValueError("truncation levels differ")
        return SpectralField(self.coeffs + other.coeffs)

    def __sub__(self, other):
        if self.K != other.K:
            raise ValueError("truncation levels differ")
        return SpectralField(self.coeffs - other.coeffs)

    def __mul__(self, a):
        return SpectralField(self.coeffs * float(a))

    __rmul__ = __mul__

    @staticmethod
    def basis(k, K=None):
        """The field e_k, truncated at K (defaults to k)."""
        K = k if K is None else K
        c = np.zeros(K)
        c[k - 1] = 1.0
        return SpectralField(c)

    def __repr__(self):
        return f"SpectralField(K={self.K})"


def eigenfunction_eval(k, x):
    """e_k(x) = sqrt(2) sin(k pi x) for x in [0, 1]."""
    if k < 1:
        raise ValueError("mode index must be >= 1")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("evaluation point outside [0, 1]")
    out = math.sqrt(2.0) * np.sin(k * math.pi * x)
    return float(out) if out.ndim == 0 else out


def semigroup_apply(t, f):
    """Heat semigroup: mode k is damped by exp(-lam_k^2 t)."""
    if t < 0.0:
        raise ValueError("negative time")
    lam2 = eigenvalue_sqrt(f.modes) ** 2
    return SpectralField(np.exp(-lam2 * t) * f.coeffs)


def green_kernel_eval(t, x, y, K):
    """Partial sum of the heat kernel, sum_{k<=K} e^{-lam_k^2 t} e_k(x) e_k(y)."""
    if t <= 0.0:
        raise ValueError("kernel series requires t > 0")
    if K < 1:
        raise ValueError("K must be >= 1")
    k = np.arange(1, K + 1)
    lam = eigenvalue_sqrt(k)
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float),
                                 np.asarray(y, dtype=float))
    decay = np.exp(-lam**2 * t)
    terms = 2.0 * np.sin(np.multiply.outer(lam, xb)) \
        * np.sin(np.multiply.outer(lam, yb)) * decay.reshape(
            (K,) + (1,) * xb.ndim)
    out = terms.sum(axis=0)
    return float(out) if out.ndim == 0 else out


def hdot_norm(f, s):
    """Spectral Sobolev norm (sum_k lam_k^{2s} c_k^2)^{1/2}; s may be negative."""
    lam = eigenvalue_sqrt(f.modes)
    return float(math.sqrt(np.sum(lam ** (2.0 * s) * f.coeffs**2)))


def elliptic_inverse(f):
    """Solve v'' = f with Dirichlet conditions: mode k maps to -c_k/lam_k^2."""
    lam2 = eigenvalue_sqrt(f.modes) ** 2
    return SpectralField(-f.coeffs / lam2)


def truncation_for_tolerance(tol, p=2.0, cap=10**8):
    """Smallest K whose analytic tail bound sum_{k>K} lam_k^{-p} <= tol.

    The bound is the integral comparison K^{1-p} / (pi^p (p-1)); for
    p = 2 it reads 1/(pi^2 K).  Raises if K would exceed ``cap``.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if p <= 1.0:
        raise ValueError("decay exponent must exceed 1")
    K = math.ceil((1.0 / (tol * math.pi**p * (p - 1.0))) ** (1.0 / (p - 1.0)))
    K = max(K, 1)
    if K > cap:
        raise ValueError(f"required truncation K={K} exceeds hard cap {cap}")
    return K
