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

# cells per ghz_design_grid block: ~128 KB per float temporary, L2-resident
_GRID_BLOCK_CELLS = 16384


@dataclass(frozen=True)
class SpeciesParams:
    """Atomic-physics inputs for the GHZ design problem.

    gamma_sp:  spontaneous decay rate of the metastable state, 1/s
    delta_e:   level splitting, eV
    kappa:     collisional phase coefficient, m^3/s
    k3:        three-body loss coefficient, m^6/s

    Every value must be finite and non-negative (ValueError otherwise).
    """

    gamma_sp: float
    delta_e: float
    kappa: float
    k3: float

    def __post_init__(self):
        values = (self.gamma_sp, self.delta_e, self.kappa, self.k3)
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
    if not (0.0 < gamma_detectable < math.inf and 0.0 < delta_e_ev < math.inf):
        raise ValueError("inputs must be positive and finite")
    w = delta_e_ev * OMEGA_PER_EV
    if w * w == 0.0:
        raise ValueError(f"(delta_e/hbar)**2 underflows to 0 for delta_e={delta_e_ev!r} eV")
    return gamma_detectable / (w * w)


def _check_design_species(p: SpeciesParams) -> None:
    if min(p.gamma_sp, p.kappa, p.k3, p.delta_e) <= 0.0:
        raise ValueError("gamma_sp, kappa, k3 and delta_e must be positive")


def _design_from_point(p: SpeciesParams, n: float, v: float, gamma: float) -> DesignResult:
    for name, value in (("gamma_min", gamma), ("n*v", n * v), ("n*kappa", n * p.kappa), ("v*v", v * v)):
        if value == 0.0:  # a grid point can be small enough for these divisors to underflow
            raise ValueError(f"{name} underflows to 0 for {p!r}")
    if not math.isfinite(gamma):  # a grid cell's cost and creation rate can both overflow
        raise ValueError(f"gamma_min is not finite ({gamma!r}) for {p!r}")
    creation_rate = p.kappa / (n * v)
    return DesignResult(
        n_opt=n,
        v_opt=v,
        gamma_min=gamma,
        sigma_min=single_atom_reach(gamma, p.delta_e),
        l_max=distance_reach(gamma, p.gamma_sp, 0.0).l_decoherence,
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
        gamma = gamma_sp * sqrt(gamma_sp * k3) / kappa

    with both competing rates equal to gamma at the optimum.
    """
    _check_design_species(p)
    root = math.sqrt(p.gamma_sp * p.k3)
    if root == 0.0:
        raise ValueError(f"gamma_sp*k3 underflows to 0 for {p!r}")
    v_opt = p.kappa / p.gamma_sp
    n_opt = p.kappa / root
    gamma_min = p.gamma_sp * root / p.kappa
    return _design_from_point(p, n_opt, v_opt, gamma_min)


def _check_grid_axis(count: float) -> None:
    if not count <= DESIGN_MAX_GRID_AXIS:
        raise ValueError(f"design grid axis of {count} points exceeds the limit {DESIGN_MAX_GRID_AXIS}")


def default_design_grids(
    p: SpeciesParams, decades: float = 6.0, points_per_decade: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced N and V grids centered on the closed-form optimum.

    The span covers `decades` total (half each side) in an odd number of
    points, so the center point is exactly on the grid and the grid
    search can certify the closed form rather than merely approximate it.
    """
    for key, value in (("decades", decades), ("points_per_decade", points_per_decade)):
        if not value >= 0:
            raise ValueError(f"{key} must be non-negative, got {value!r}")
    half = decades / 2.0
    span = decades * points_per_decade
    # an overflowing span is refused as it stands, before int() or logspace
    count = 2 * int(round(span / 2.0)) + 1 if math.isfinite(span) else span
    _check_grid_axis(count)
    ref = ghz_design(p)
    n_grid = np.logspace(math.log10(ref.n_opt) - half, math.log10(ref.n_opt) + half, count)
    v_grid = np.logspace(math.log10(ref.v_opt) - half, math.log10(ref.v_opt) + half, count)
    return n_grid, v_grid


def _grid_axis(name: str, grid) -> np.ndarray:
    axis = np.asarray(grid, dtype=float)
    if axis.size == 0:
        raise ValueError("grids must be non-empty")
    _check_grid_axis(axis.size)
    if axis.ndim != 1 or not np.all((axis > 0.0) & (axis < math.inf)):
        raise ValueError(f"{name} must be a 1-D array of finite positive numbers")
    return axis


def ghz_design_grid(p: SpeciesParams, n_grid: np.ndarray, v_grid: np.ndarray) -> DesignResult:
    """Brute-force oracle for ghz_design.

    Minimizes max(gamma_sp/N, k3*N/V^2) over the grid subject to the
    creation-time constraint kappa/(N*V) >= that value (with a small
    relative slack, since the continuous optimum sits exactly on the
    boundary). Each grid must be a non-empty 1-D array of finite positive
    numbers. The grid is scanned in blocks of whole N rows, about
    _GRID_BLOCK_CELLS cells each, so memory stays at the block size; of
    equal costs, the first cell in (N, V) row-major order wins. Raises if
    no grid point is feasible, and for the species ghz_design rejects.
    """
    _check_design_species(p)
    n, v = _grid_axis("n_grid", n_grid), _grid_axis("v_grid", v_grid)
    spont, k3n, vv = p.gamma_sp / n, p.k3 * n, v * v
    rows = max(1, _GRID_BLOCK_CELLS // v.size)
    found, best, best_cell = False, math.inf, (0, 0)
    for lo in range(0, n.size, rows):
        hi = lo + rows
        cost = k3n[lo:hi, None] / vv
        np.maximum(spont[lo:hi, None], cost, out=cost)
        rate = n[lo:hi, None] * v
        np.divide(p.kappa, rate, out=rate)
        feasible = rate >= cost * (1.0 - _FEAS_RTOL)
        found = found or bool(feasible.any())
        np.copyto(cost, np.inf, where=~feasible)
        i, j = divmod(int(np.argmin(cost)), v.size)
        if cost[i, j] < best:  # strict: an earlier block keeps its tie
            best, best_cell = float(cost[i, j]), (lo + i, j)
    if not found:
        raise ValueError("no feasible design point on the grid")
    return _design_from_point(p, float(n[best_cell[0]]), float(v[best_cell[1]]), best)


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
    if not (all(0.0 < v < math.inf for v in (mass, velocity, path_separation, flight_path))
            and 0.0 <= sigma < math.inf):
        raise ValueError("inputs must be finite, sigma non-negative and the rest positive")
    w = mass * C_LIGHT * C_LIGHT / HBAR
    rate = sigma * w * w
    if sigma > 0.0 and rate == 0.0:
        raise ValueError(f"sigma*(m*c**2/hbar)**2 underflows to 0 for sigma={sigma!r}, mass={mass!r}")
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
    if not all(0.0 <= v < math.inf for v in (gamma, gamma_sp, coherence_time)):
        raise ValueError("inputs must be non-negative and finite")
    l_laser = C_LIGHT * coherence_time
    if gamma > 0.0 and gamma_sp > 0.0:
        if gamma_sp * gamma_sp == 0.0:
            raise ValueError(f"gamma_sp**2 underflows to 0 for gamma_sp={gamma_sp!r}")
        l_dec = C_LIGHT * gamma / (gamma_sp * gamma_sp)
    else:
        l_dec = math.inf
    return DistanceReach(l_decoherence=l_dec, l_laser=l_laser, l_max=min(l_dec, l_laser))


def cosmic_bound(sigma: float, age: float) -> float:
    """Level splitting (eV) whose coherence would have decayed exactly once
    over the given age: sigma*(dE/hbar)**2*age = 1."""
    if not (0.0 < sigma < math.inf and 0.0 < age < math.inf):
        raise ValueError("sigma and age must be positive and finite")
    if sigma * age == 0.0:
        raise ValueError(f"sigma*age underflows to 0 for sigma={sigma!r}, age={age!r}")
    return HBAR / math.sqrt(sigma * age) / EV
