"""Run-level configuration and numeric defaults.

The module constants are the knobs every numerical routine consumes; the
command line's --tol defaults to EQUALITY_TOL.  Tolerances form a ladder:
Newton refinement residual (1e-12) sits three orders below the
value-clustering / equality tolerance (1e-9), which itself sits well below
any quantity of interest.
"""

from __future__ import annotations

# Scan resolutions.  The truncation degree bounds oscillation, so these
# cannot skip extremum basins for the degrees used here.
DEFAULT_CIRCLE_SCAN = 4096
DEFAULT_TORUS_SCAN = 256

# Newton refinement on derivatives.
NEWTON_RESIDUAL = 1e-12
NEWTON_MAX_ITER = 50

# Critical-value clustering and point deduplication.  The point radius is
# wide because Newton stalls anywhere inside the flat basin of a degenerate
# root; distinct critical points of the degrees used here sit far apart.
VALUE_CLUSTER_TOL = 1e-9
POINT_CLUSTER_TOL = 1e-6

# Plateau detection: fraction of scan points with |f'| below this.
PLATEAU_POINT_TOL = 1e-9
PLATEAU_FRACTION = 0.01

# Equality / axiom-check tolerance and the boundary used by the pointwise
# partial order.
EQUALITY_TOL = 1e-9
ORDER_BOUNDARY_TOL = 1e-12

# Translated-point condition on the first knot of a contact quasi-autonomy
# witness (|f_0'(q0)| at most this).
WITNESS_DERIV_TOL = 1e-9

# Segments whose sup-norm is below this are treated as zero length.
ZERO_SEGMENT_TOL = 1e-12

# Path optimizer schedule: iterations (all restarts run them in lockstep,
# on a subgradient grid sized by the degree), scale of the Gaussian
# perturbation of every restart but the first, and the initial step
# (decaying as 1/sqrt(iteration)).
OPTIMIZER_ITERS = 500
RESTART_SIGMA = 0.2
RESTART_STEP0 = 0.1

