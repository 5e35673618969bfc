"""Reach calculators and the entangled-ensemble experiment optimizer.

Closed forms for every quantitative estimate the toolkit produces: the
dephasing strength a single-atom experiment can probe, the optimal atom
number and trap volume for an N-atom GHZ experiment competing against
spontaneous emission and three-body loss, matter-wave interferometry
exclusions, distance reach, and the coherence bound implied by the age
of the universe. A brute-force grid search doubles as an independent
oracle for the closed-form optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, DESIGN_MAX_GRID_AXIS, EV, HBAR, OMEGA_PER_EV

__all__ = [
    "SpeciesParams",
    "validate_species",
    "DesignRates",
    "DesignResult",
    "MatterWaveBound",
    "DistanceReach",
    "single_atom_reach",
    "ghz_design",
    "ghz_design_grid",
    "default_design_grids",
    "matterwave_bound",
    "distance_reach",
    "cosmic_bound",
]

# feasibility slack: the closed-form optimum sits exactly on the
# creation-time boundary, so the comparison needs a relative tolerance
_FEAS_RTOL = 1e-9


@dataclass(frozen=True)
class SpeciesParams:
    """Atomic-physics inputs for the GHZ design problem.

    gamma_sp:  spontaneous decay rate of the metastable state, 1/s
    delta_e:   level splitting, eV
    kappa:     collisional phase coefficient, m^3/s
    k3:        three-body loss coefficient, m^6/s
    """

    gamma_sp: float
    delta_e: float
    kappa: float
    k3: float


def validate_species(p: SpeciesParams) -> None:
    """Check that every species parameter is finite and non-negative."""
    values = (p.gamma_sp, p.delta_e, p.kappa, p.k3)
    if not all(math.isfinite(v) for v in values):
        raise ValueError("species parameters must be finite (no NaN or inf)")
    if min(values) < 0.0:
        raise ValueError("species parameters must be non-negative")


@dataclass(frozen=True)
class DesignRates:
    """Competing rates at the design point, all in 1/s of detectable gamma."""

    gravitational: float
    spontaneous: float
    three_body: float


@dataclass(frozen=True)
class DesignResult:
    """Optimizer output for the GHZ experiment.

    creation_margin is the ratio of the creation rate kappa/(N*V) to
    gamma_min; the closed-form optimum lands exactly on 1, so the
    constraint holds with equality there and creation_constraint_ok
    applies a small relative tolerance.
    """

    n_opt: float
    v_opt: float
    gamma_min: float
    sigma_min: float
    l_max: float
    creation_time: float
    rates: DesignRates
    creation_margin: float

    @property
    def creation_constraint_ok(self) -> bool:
        return self.creation_margin >= 1.0 - _FEAS_RTOL


def single_atom_reach(gamma_detectable: float, delta_e_ev: float) -> float:
    """Smallest dephasing strength sigma a single-atom experiment resolves:
    sigma = gamma / (delta_e/hbar)**2."""
    if gamma_detectable <= 0.0 or delta_e_ev <= 0.0:
        raise ValueError("inputs must be positive")
    w = delta_e_ev * OMEGA_PER_EV
    return gamma_detectable / (w * w)


def _design_from_point(p: SpeciesParams, n: float, v: float, gamma: float) -> DesignResult:
    w = p.delta_e * OMEGA_PER_EV
    creation_rate = p.kappa / (n * v)
    return DesignResult(
        n_opt=n,
        v_opt=v,
        gamma_min=gamma,
        sigma_min=gamma / (w * w),
        l_max=C_LIGHT * gamma / (p.gamma_sp * p.gamma_sp),
        creation_time=v / (n * p.kappa),
        rates=DesignRates(
            gravitational=gamma,
            spontaneous=p.gamma_sp / n,
            three_body=p.k3 * n / (v * v),
        ),
        creation_margin=creation_rate / gamma,
    )


def ghz_design(p: SpeciesParams) -> DesignResult:
    """Closed-form optimum of the GHZ design problem.

    The trap volume saturates the creation-vs-spontaneous bound at
    V = kappa/gamma_sp (any smaller volume only worsens three-body
    loss), and the atom number balances the two dephasing-competition
    bounds gamma_sp/N and k3*N/V^2, giving

        N*    = kappa / sqrt(k3 * gamma_sp)
        gamma = sqrt(gamma_sp^3 * k3) / kappa

    with both competing rates equal to gamma at the optimum.
    """
    validate_species(p)
    if min(p.gamma_sp, p.kappa, p.k3, p.delta_e) <= 0.0:
        raise ValueError("gamma_sp, kappa, k3 and delta_e must be positive")
    v_opt = p.kappa / p.gamma_sp
    n_opt = p.kappa / math.sqrt(p.k3 * p.gamma_sp)
    gamma_min = math.sqrt(p.gamma_sp**3 * p.k3) / p.kappa
    return _design_from_point(p, n_opt, v_opt, gamma_min)


def _check_grid_axis(count: int) -> None:
    if count > DESIGN_MAX_GRID_AXIS:
        raise ValueError(f"design grid axis of {count} points exceeds the limit {DESIGN_MAX_GRID_AXIS}")


def default_design_grids(
    p: SpeciesParams, decades: float = 6.0, points_per_decade: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced N and V grids centered on the closed-form optimum.

    The span covers `decades` total (half each side) with the center
    point exactly on the grid, so the grid search can certify the
    closed form rather than merely approximate it.
    """
    half = decades / 2.0
    count = int(round(decades * points_per_decade)) + 1
    _check_grid_axis(count)
    ref = ghz_design(p)
    n_grid = np.logspace(math.log10(ref.n_opt) - half, math.log10(ref.n_opt) + half, count)
    v_grid = np.logspace(math.log10(ref.v_opt) - half, math.log10(ref.v_opt) + half, count)
    return n_grid, v_grid


def ghz_design_grid(
    p: SpeciesParams,
    n_grid: np.ndarray | None = None,
    v_grid: np.ndarray | None = None,
) -> DesignResult:
    """Brute-force oracle for ghz_design.

    Minimizes max(gamma_sp/N, k3*N/V^2) over the grid subject to the
    creation-time constraint kappa/(N*V) >= that value (with a small
    relative slack, since the continuous optimum sits exactly on the
    boundary). Raises if no grid point is feasible.
    """
    validate_species(p)
    if n_grid is None or v_grid is None:
        default_n, default_v = default_design_grids(p)
        n_grid = default_n if n_grid is None else n_grid
        v_grid = default_v if v_grid is None else v_grid
    n = np.asarray(n_grid, dtype=float)[:, None]
    v = np.asarray(v_grid, dtype=float)[None, :]
    if n.size == 0 or v.size == 0:
        raise ValueError("grids must be non-empty")
    _check_grid_axis(max(n.size, v.size))
    cost = np.maximum(p.gamma_sp / n, p.k3 * n / (v * v))
    feasible = p.kappa / (n * v) >= cost * (1.0 - _FEAS_RTOL)
    if not np.any(feasible):
        raise ValueError("no feasible design point on the grid")
    cost = np.where(feasible, cost, np.inf)
    flat = int(np.argmin(cost))
    i, j = np.unravel_index(flat, cost.shape)
    return _design_from_point(p, float(n[i, 0]), float(v[0, j]), float(cost[i, j]))


@dataclass(frozen=True)
class MatterWaveBound:
    """Outcome of a matter-wave interferometry exclusion estimate.

    decoherence_length is math.inf when sigma is zero; serializers must
    replace it with an explicit sentinel.
    """

    rate: float
    decoherence_length: float
    excluded: bool


def matterwave_bound(
    mass: float,
    velocity: float,
    path_separation: float,
    sigma: float,
    flight_path: float = 1.0,
) -> MatterWaveBound:
    """Exclusion reach of a beam interferometer with separated paths.

    If the dephasing acts separately on paths split by more than its
    locality scale, each branch carries the full rest energy and the
    fringes decay at rate sigma*(m*c^2/hbar)**2. The atoms travel
    decoherence_length = velocity/rate before losing coherence; observed
    fringes therefore exclude the tested sigma at locality scales up to
    path_separation whenever that length is shorter than the distance
    flown through the instrument (flight_path, 1 m by default for a
    laboratory beam machine).
    """
    if min(mass, velocity, path_separation) <= 0.0 or sigma < 0.0 or flight_path <= 0.0:
        raise ValueError("mass, velocity, separation and flight path must be positive")
    w = mass * C_LIGHT * C_LIGHT / HBAR
    rate = sigma * w * w
    length = velocity / rate if rate > 0.0 else math.inf
    return MatterWaveBound(rate=rate, decoherence_length=length, excluded=length < flight_path)


@dataclass(frozen=True)
class DistanceReach:
    """Separation limits for a long-distance Ramsey experiment.

    l_decoherence is math.inf when the dephasing-rate limit does not
    apply (gamma or gamma_sp zero).
    """

    l_decoherence: float
    l_laser: float
    l_max: float


def distance_reach(gamma: float, gamma_sp: float, coherence_time: float) -> DistanceReach:
    """Maximum system-reference separation still probing a rate gamma.

    The dephasing-limited reach is c*gamma/gamma_sp**2; the reference
    laser limits the wait to its coherence time, i.e. a distance
    c*coherence_time. The overall reach is the smaller applicable limit.
    """
    if min(gamma, gamma_sp, coherence_time) < 0.0:
        raise ValueError("inputs must be non-negative")
    l_laser = C_LIGHT * coherence_time
    if gamma > 0.0 and gamma_sp > 0.0:
        l_dec = C_LIGHT * gamma / (gamma_sp * gamma_sp)
    else:
        l_dec = math.inf
    return DistanceReach(l_decoherence=l_dec, l_laser=l_laser, l_max=min(l_dec, l_laser))


def cosmic_bound(sigma: float, age: float) -> float:
    """Level splitting (eV) whose coherence would have decayed exactly once
    over the given age: sigma*(dE/hbar)**2*age = 1."""
    if sigma <= 0.0 or age <= 0.0:
        raise ValueError("sigma and age must be positive")
    return HBAR / math.sqrt(sigma * age) / EV
