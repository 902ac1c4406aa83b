"""Numerics laboratory for the 1D stochastic heat equation.

The equation is u_t = u_xx + noise on the unit interval with Dirichlet
boundary and space-time white noise, regularized by piecewise-constant
cell averaging of the noise.  Subpackages cover the sine eigenbasis,
discretized noise grids, linear finite elements, Crank-Nicolson
stepping, stochastic solvers, and exact error functionals.
"""

from .spectral import SpectralField, eigenvalue_sqrt, semigroup_apply
from .noise import NoiseGrid, sample, coarsen
from .fem import Mesh, FemSystem, assemble, generalized_eigen
from .deterministic import (Trajectory, amplification, modified_cn_spectral,
                            modified_cn_fem, exact_trajectory, l2t_error)
from .solvers import (regularized_exact, cn_time_discrete, cn_fem_spde,
                      GaussianCoefficientMap, map_regularized,
                      map_cn_spectral, map_cn_fem, cross_moment)
from .errors import (modeling_error_exact, tdr_error_exact, sdr_error_exact,
                     total_error_exact, mc_error, fit_rate, ErrorReport)

__version__ = "0.1.0"
