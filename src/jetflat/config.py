"""Run-level configuration and numeric defaults.

The module constants are the knobs every numerical routine consumes; the
command line's --tol defaults to EQUALITY_TOL.  One scale rule sets every
threshold of the extremum engine: a value comparison uses the caller's tol
(EQUALITY_TOL by default) or 16 ulps of the function's own scale, and a
Newton residual is NEWTON_RESIDUAL times a bound of |grad f| (Bernstein's
coefficient sum on the circle, the scan's maximum on the torus), so both
scale with the function and no threshold is absolute.
"""

from __future__ import annotations

# Torus scan resolution per axis.  Circle scans are sized by the degree
# (fourier._circle_size), and coefficient bounds certify what lies between
# their points.
DEFAULT_TORUS_SCAN = 256

# Newton refinement on derivatives: the residual relative to max|grad f|.
NEWTON_RESIDUAL = 1e-12
NEWTON_MAX_ITER = 50

# Point deduplication.  The radius is wide because Newton stalls anywhere
# inside the flat basin of a degenerate root; distinct critical points of
# the degrees used here sit far apart.
POINT_CLUSTER_TOL = 1e-6

# Plateau detection: fraction of scan points with |grad f| below 1e3 Newton
# residuals.
PLATEAU_FRACTION = 0.01

# The caller's default tolerance: equality, attainment, clustering of
# critical values and the axiom checks.
EQUALITY_TOL = 1e-9

# Translated-point condition on the first knot of a contact quasi-autonomy
# witness (|f_0'(q0)| at most this).
WITNESS_DERIV_TOL = 1e-9

# Path optimizer schedule: the iteration cap (the live restarts run in
# lockstep, on a subgradient grid sized by the degree), scale of the Gaussian
# perturbation of every restart but the first, and the relaxation gamma of
# the Polyak step gamma (F - d_spec) / |g|^2 toward the known optimum d_spec
# (Polyak converges for gamma in (0, 2); plain Polyak, gamma = 1, stalls on
# T2).  A restart stops once its best coarse length is within EQUALITY_TOL
# of d_spec.
OPTIMIZER_ITERS = 200
RESTART_SIGMA = 0.2
POLYAK_RELAXATION = 1.8
