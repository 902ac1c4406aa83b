"""Exact strong-error rates of the stochastic Crank-Nicolson schemes.

Time sweep: mode-wise CN against the regularized solution at the final
time (order ~1/4 in dtau).  Space sweep: finite elements against the
time-discrete scheme on a matching step (order ~1/2 in h).  Both errors
are exact Gaussian second moments.
"""

import numpy as np

from stochheat import errors, fem, solvers

print("time discretization (noise grid 256 x 256)")
taus, errs = [], []
for e in range(2, 8):
    M = 2 ** e
    err = errors.tdr_error_exact(M, M, 256, 256, K=1024)
    print("  dtau = %-10g E = %.6f" % (1.0 / M, err))
    taus.append(1.0 / M)
    errs.append(err)
print("  fitted slope %.3f" % np.polyfit(np.log(taus), np.log(errs), 1)[0])

print("space discretization (dtau matched to the noise step)")
M = 1024
K = 1024
# the spectral side does not depend on the mesh: one map for all levels
spectral = solvers.map_cn_spectral(1024, 256, 1.0, K, M, M)
hs, errs = [], []
for e in range(3, 7):
    eig = fem.generalized_eigen(fem.assemble(fem.Mesh(2 ** e)))
    fem_map = solvers.map_cn_fem(1024, 256, 1.0, eig, M, M)
    err = errors.pair_error(spectral, fem_map)
    print("  h = %-10g E = %.6f" % (2.0 ** -e, err))
    hs.append(2.0 ** -e)
    errs.append(err)
print("  fitted slope %.3f" % np.polyfit(np.log(hs), np.log(errs), 1)[0])
