"""Energy-dephasing simulator and experiment design toolkit.

Evolves density matrices under a double-commutator dephasing model with
configurable global/local partitions, simulates the interference
experiments that probe it (Ramsey, Michelson, GHZ), and computes the
sensitivity figures for experiment design.
"""

from .constants import (
    C_LIGHT,
    EV,
    HBAR,
    OMEGA_PER_EV,
    PLANCK_TIME,
    YEAR_SECONDS,
)
from .core import (
    DensityMatrix,
    InvariantError,
    fock_cutoff,
    poisson_weights,
    validate_density,
    validate_pairs,
)
from .engine import evolve_analytic, evolve_stepped
from .interferometry import (
    CoherentField,
    DecoherencePartition,
    FockField,
    FringeResult,
    GhzConfig,
    GhzResult,
    MichelsonConfig,
    MichelsonResult,
    RamseyConfig,
    iter_ramsey_batch,
    run_ghz,
    run_michelson,
    run_ramsey_quantized,
    run_ramsey_semiclassical,
)
from .sensitivity import (
    DesignResult,
    DistanceReach,
    MatterWaveBound,
    SpeciesParams,
    cosmic_bound,
    distance_reach,
    ghz_design,
    ghz_design_grid,
    matterwave_bound,
    single_atom_reach,
)

__version__ = "0.1.0"
