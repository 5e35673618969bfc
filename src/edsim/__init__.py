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
    HilbertSpace,
    InvariantError,
    Operator,
    beamsplitter_sector,
    coherent_state,
    fock_cutoff,
    hspace,
    validate_blocks,
    validate_density,
)
from .engine import (
    EvolutionSpec,
    LossChannel,
    evolve_analytic,
    evolve_stepped,
)
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
    default_phases,
    phase_average_check,
    run_ghz,
    run_michelson,
    run_ramsey_quantized,
    run_ramsey_semiclassical,
    visibility,
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
