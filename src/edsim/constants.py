"""Physical constants and numerical tolerances shared across the package.

All unit conversions in the package go through these pinned values.
Hamiltonians are handled in angular-frequency units (energy divided by
hbar, rad/s), so the dephasing strength ``sigma`` always carries seconds
and decay exponents are ``sigma * gap**2 * t``.
"""

HBAR = 1.054571817e-34      # J s
EV = 1.602176634e-19        # J per eV
C_LIGHT = 299792458.0       # m / s
PLANCK_TIME = 5.391247e-44  # s
YEAR_SECONDS = 3.156e7      # s; 1e10 yr = 3.156e17 s
NA_MASS = 3.8175409e-26     # kg, sodium-23

# angular frequency of a 1 eV level splitting
OMEGA_PER_EV = EV / HBAR    # rad/s per eV

# structural tolerances (explicit validation, never hidden in constructors)
HERM_TOL = 1e-12     # density-matrix Hermiticity
TRACE_TOL = 1e-10    # unit trace
PSD_TOL = 1e-9       # allowed negative eigenvalue excursion

# largest problems the experiment configs accept, refused before any
# allocation; times are single runs on one core of a 2-vCPU x86 VM
RAMSEY_MAX_CUTOFF = 1_000_000   # quantized Ramsey field levels: ~0.2 s, ~0.15 GB
MAX_PHASE_POINTS = 1_000_000    # fringe scan points with file output: ~7 s, ~0.5 GB
DESIGN_MAX_GRID_AXIS = 4001      # design-grid points per axis, count**2 cells in row blocks: ~0.08 s, ~0.5 MB
