"""Reach calculators and the entangled-ensemble experiment optimizer.

Closed forms for every quantitative estimate the toolkit produces: the
dephasing strength a single-atom experiment can probe, the optimal atom
number and trap volume for an N-atom GHZ experiment competing against
spontaneous emission and three-body loss, matter-wave interferometry
exclusions, distance reach, and the coherence bound implied by the age
of the universe. A grid search doubles as an independent oracle for the
closed-form optimizer: it returns the whole grid's first minimum but
evaluates only the cells of each N row that can hold it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

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

# cells per ghz_design_grid block of windows: ~128 KB per float temporary, L2-resident
_GRID_BLOCK_CELLS = 16384


@dataclass(frozen=True)
class SpeciesParams:
    """Atomic-physics inputs for the GHZ design problem.

    gamma_sp:  spontaneous decay rate of the metastable state, 1/s
    delta_e:   level splitting, eV
    kappa:     collisional phase coefficient, m^3/s
    k3:        three-body loss coefficient, m^6/s

    Every value must be finite and positive (ValueError otherwise).
    """

    gamma_sp: float
    delta_e: float
    kappa: float
    k3: float

    def __post_init__(self):
        values = (self.gamma_sp, self.delta_e, self.kappa, self.k3)
        if not all(abs(v) <= sys.float_info.max for v in values):  # exact for an int of any size
            raise ValueError("species parameters must be finite (no NaN or inf)")
        if min(values) < 0.0:
            raise ValueError("species parameters must be non-negative")
        if min(values) == 0.0:
            raise ValueError("gamma_sp, kappa, k3 and delta_e must be positive")
        for name, value in zip(("gamma_sp", "delta_e", "kappa", "k3"), values):
            object.__setattr__(self, name, float(value))  # the formulas see an integer's float twin


class DesignRates(NamedTuple):
    """Competing rates at the design point, all in 1/s of detectable gamma."""

    gravitational: float
    spontaneous: float
    three_body: float


class DesignResult(NamedTuple):
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
    if not (0.0 < gamma_detectable <= sys.float_info.max and 0.0 < delta_e_ev <= sys.float_info.max):
        raise ValueError("inputs must be positive and finite")
    w = delta_e_ev * OMEGA_PER_EV
    if w * w == 0.0:
        raise ValueError(f"(delta_e/hbar)**2 underflows to 0 for delta_e={delta_e_ev!r} eV")
    sigma = gamma_detectable / (w * w)
    if sigma == 0.0:  # (delta_e/hbar)**2 overflowed or the quotient underflowed
        raise ValueError(f"sigma = gamma/(delta_e/hbar)**2 underflows to 0 for "
                         f"gamma={gamma_detectable!r}, delta_e={delta_e_ev!r} eV")
    return sigma


def _design_from_point(p: SpeciesParams, n: float, v: float, gamma: float) -> DesignResult:
    products = (("n*v", n * v), ("n*kappa", n * p.kappa), ("v*v", v * v))
    for name, value in (("gamma_min", gamma), *products):
        if value == 0.0:  # a grid point can be small enough for these divisors to underflow
            raise ValueError(f"{name} underflows to 0 for {p!r}")
    if not math.isfinite(gamma):  # a grid cell's cost and creation rate can both overflow
        raise ValueError(f"gamma_min is not finite ({gamma!r}) for {p!r}")
    for name, value in products:  # an overflow would zero a rate, the creation margin or time
        if value == math.inf:
            raise ValueError(f"{name} overflows to inf for {p!r}")
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
    if not decades <= sys.float_info.max:  # inf*0 would be a NaN span
        raise ValueError(f"decades must be finite, got {decades!r}")
    if points_per_decade > sys.float_info.max:  # an int no double holds has no float product
        raise ValueError(f"points_per_decade beyond double range exceeds the design grid axis limit "
                         f"{DESIGN_MAX_GRID_AXIS}")
    span = decades * points_per_decade
    # an overflowing span is refused as inf, as a float product is, before int() or logspace
    count = 2 * int(round(span / 2.0)) + 1 if span <= sys.float_info.max else math.inf
    _check_grid_axis(count)
    half = decades / 2.0 if count > 1 else 0.0  # logspace(lo, hi, 1) is [10**lo], not the center
    ref = ghz_design(p)
    with np.errstate(over="ignore", under="ignore"):
        n_grid = np.logspace(math.log10(ref.n_opt) - half, math.log10(ref.n_opt) + half, count)
        v_grid = np.logspace(math.log10(ref.v_opt) - half, math.log10(ref.v_opt) + half, count)
    if not all(0.0 < grid[0] and grid[-1] < math.inf for grid in (n_grid, v_grid)):  # ascending axes
        raise ValueError(f"decades={decades!r} takes the design grid beyond double range")
    return n_grid, v_grid


def _grid_axis(name: str, grid) -> np.ndarray:
    axis = np.asarray(grid, dtype=float)
    if axis.size == 0:
        raise ValueError("grids must be non-empty")
    _check_grid_axis(axis.size)
    if axis.ndim != 1 or not np.all((axis > 0.0) & (axis < math.inf)):
        raise ValueError(f"{name} must be a 1-D array of finite positive numbers")
    return axis


def _edge(before, rows: np.ndarray, guess: np.ndarray, size: int) -> np.ndarray:
    """Per row, the first column in [0, size] where before(rows, cols), a
    predicate that is True up to some column and False after it, is False.

    guess (overwritten) is checked on both sides; the rows it misses are
    bisected.
    """
    edge = guess
    ok = ((edge == 0) | before(rows, np.maximum(edge - 1, 0))) & (
        (edge == size) | ~before(rows, np.minimum(edge, size - 1)))
    if not ok.all():
        miss = rows[~ok]
        lo, hi = np.zeros_like(miss), np.full_like(miss, size)
        active = lo < hi
        while active.any():
            mid = (lo + hi) // 2
            below = before(miss, np.minimum(mid, size - 1))
            lo, hi = np.where(active & below, mid + 1, lo), np.where(active & ~below, mid, hi)
            active = lo < hi
        edge[~ok] = lo
    return edge


def ghz_design_grid(p: SpeciesParams, n_grid: np.ndarray, v_grid: np.ndarray) -> DesignResult:
    """Brute-force oracle for ghz_design.

    Minimizes max(gamma_sp/N, k3*N/V^2) over the grid subject to the
    creation-time constraint kappa/(N*V) >= that value (with a small
    relative slack, since the continuous optimum sits exactly on the
    boundary). Each grid must be a non-empty 1-D array of finite positive
    numbers. Of equal costs, the first cell in (N, V) row-major order
    wins; when the best feasible cost is inf, the answer is cell (0, 0).
    Raises if no grid point is feasible.

    The answer is the whole-grid one, but only a window of each N row is
    evaluated. Along V sorted ascending, a row's cost and creation rate
    never rise, so its feasible cells, which need a rate of at least
    (gamma_sp/N)*(1 - slack), lie in a prefix; once a feasible cost U is
    known (the least feasible cost among the rows' last prefix cells),
    only the cells of cost <= U, a suffix, can win. Each window edge is
    estimated by searchsorted on its real-arithmetic threshold and
    confirmed with the exact expressions. Windows are evaluated in blocks
    of whole rows of at most _GRID_BLOCK_CELLS cells, so memory stays at
    the block size. A default grid evaluates one cell beyond the edges;
    the worst case, no finite U, evaluates every prefix cell, which is
    never more than the whole grid.
    """
    n, v = _grid_axis("n_grid", n_grid), _grid_axis("v_grid", v_grid)
    order = np.argsort(v, kind="stable")
    vs = v[order]
    # an overflowing cell has an infinite cost, which never wins, and a NaN cell is infeasible
    with np.errstate(all="ignore"):
        spont, k3n, vv = p.gamma_sp / n, p.k3 * n, vs * vs
        floor = spont * (1.0 - _FEAS_RTOL)

        def cost(i, j):
            return np.maximum(spont[i], k3n[i] / vv[j])

        def rate(i, j):
            return p.kappa / (n[i] * vs[j])

        rows = np.arange(n.size)
        stop = _edge(lambda i, j: rate(i, j) >= floor[i], rows,
                     np.searchsorted(vs, p.kappa / (n * floor), "right"), vs.size)
        last = np.maximum(stop - 1, 0)
        last_cost = cost(rows, last)
        known = (stop > 0) & (rate(rows, last) >= last_cost * (1.0 - _FEAS_RTOL))
        bound = float(np.min(last_cost, where=known, initial=math.inf))
        if bound < math.inf:  # the last prefix cell has a row's least cost
            near = rows[(stop > 0) & (last_cost <= bound)]
            start = np.full_like(stop, vs.size)
            start[near] = _edge(lambda i, j: ~(cost(i, j) <= bound), near,
                                np.searchsorted(vs, np.sqrt(k3n[near] / bound), "left"), vs.size)
        else:
            start = np.zeros_like(stop)
        # blocks of whole rows, each over the span of its rows' windows
        live = rows[start < stop]
        per_block = max(1, _GRID_BLOCK_CELLS // vs.size)
        found, best, best_cell = False, math.inf, (0, 0)
        for lo in range(0, live.size, per_block):
            i = live[lo:lo + per_block, None]
            j = np.arange(start[i].min(), stop[i].max())
            c = cost(i, j)
            feasible = (j >= start[i]) & (j < stop[i]) & (rate(i, j) >= c * (1.0 - _FEAS_RTOL))
            found = found or bool(feasible.any())
            low = float(np.min(c, where=feasible, initial=math.inf))
            if low < math.inf:
                at_i, at_j = np.nonzero(feasible & (c == low))
                cell = min(zip(i[at_i, 0].tolist(), order[j[at_j]].tolist()))
                if (low, cell) < (best, best_cell):
                    best, best_cell = low, cell
    if not found:
        raise ValueError("no feasible design point on the grid")
    return _design_from_point(p, float(n[best_cell[0]]), float(v[best_cell[1]]), best)


class MatterWaveBound(NamedTuple):
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
    locality scale, the branches' rest energies dephase apart and the
    fringes decay at rate sigma*(m*c^2/hbar)**2. That rate counts the
    gap w = m*c^2/hbar on one branch only: the package's local law, one
    block per path as for Michelson's arms, would see gaps (w, -w) and
    give twice it. The atoms travel
    decoherence_length = velocity/rate before losing coherence; observed
    fringes therefore exclude the tested sigma at locality scales up to
    path_separation whenever that length is shorter than the distance
    flown through the instrument (flight_path, 1 m by default for a
    laboratory beam machine).
    """
    if not (all(0.0 < v <= sys.float_info.max for v in (mass, velocity, path_separation, flight_path))
            and 0.0 <= sigma <= sys.float_info.max):
        raise ValueError("inputs must be finite, sigma non-negative and the rest positive")
    w = mass * C_LIGHT * C_LIGHT / HBAR
    rate = sigma * w * w if sigma > 0.0 else 0.0  # no dephasing, even where w*w overflows
    if sigma > 0.0 and rate == 0.0:
        raise ValueError(f"sigma*(m*c**2/hbar)**2 underflows to 0 for sigma={sigma!r}, mass={mass!r}")
    length = velocity / rate if rate > 0.0 else math.inf
    if length == 0.0:  # the rate overflowed or the quotient underflowed: not "excluded everywhere"
        raise ValueError(f"decoherence_length = velocity/rate underflows to 0 for velocity={velocity!r}, "
                         f"sigma={sigma!r}, mass={mass!r}")
    return MatterWaveBound(rate=rate, decoherence_length=length, excluded=length < flight_path)


class DistanceReach(NamedTuple):
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
    if not all(0.0 <= v <= sys.float_info.max for v in (gamma, gamma_sp, coherence_time)):
        raise ValueError("inputs must be non-negative and finite")
    l_laser = C_LIGHT * coherence_time
    if l_laser == math.inf:  # inf is kept for a limit that does not apply
        raise ValueError(f"l_laser = c*coherence_time overflows to inf for coherence_time={coherence_time!r}")
    if gamma > 0.0 and gamma_sp > 0.0:
        l_dec = 0.0
        if sys.float_info.min <= gamma_sp * gamma_sp <= sys.float_info.max:  # a subnormal square has lost bits
            l_dec = C_LIGHT * gamma / (gamma_sp * gamma_sp)
        if not 0.0 < l_dec < math.inf:  # c*gamma or the square left the normal range: divide first
            l_dec = C_LIGHT * (gamma / gamma_sp / gamma_sp)
        if l_dec == 0.0:  # the quotient underflowed: not "no reach"
            raise ValueError(f"l_decoherence = c*gamma/gamma_sp**2 underflows to 0 for "
                             f"gamma={gamma!r}, gamma_sp={gamma_sp!r}")
        if l_dec == math.inf:
            raise ValueError(f"l_decoherence = c*gamma/gamma_sp**2 overflows to inf for "
                             f"gamma={gamma!r}, gamma_sp={gamma_sp!r}")
    else:
        l_dec = math.inf
    return DistanceReach(l_decoherence=l_dec, l_laser=l_laser, l_max=min(l_dec, l_laser))


def cosmic_bound(sigma: float, age: float) -> float:
    """Level splitting (eV) whose coherence would have decayed exactly once
    over the given age: sigma*(dE/hbar)**2*age = 1."""
    if not (0.0 < sigma <= sys.float_info.max and 0.0 < age <= sys.float_info.max):
        raise ValueError("sigma and age must be positive and finite")
    if sigma * age == 0.0:
        raise ValueError(f"sigma*age underflows to 0 for sigma={sigma!r}, age={age!r}")
    if sigma * age > sys.float_info.max:  # would give a 0 eV bound
        raise ValueError(f"sigma*age overflows to inf for sigma={sigma!r}, age={age!r}")
    return HBAR / math.sqrt(sigma * age) / EV
