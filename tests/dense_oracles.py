"""Dense constructions that only the tests use as independent oracles.

The pipelines work on photon-number sectors and weights; these build the
full-space ladder operators, the dense balanced beamsplitter and the
complex coherent amplitudes, as plain arrays, that the tests compare
them against. The GHZ design grid, which the package scans in row
blocks, is searched here as one whole count**2 array.
"""

import math

import numpy as np

from edsim.core import poisson_weights
from edsim.selftest import beamsplitter_sector
from edsim.sensitivity import _FEAS_RTOL, DesignResult, SpeciesParams, _design_from_point


def coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """Fock amplitudes sqrt(p_n) e^{i n arg(alpha)} of |alpha> on levels 0..n_max."""
    return np.sqrt(poisson_weights(alpha, n_max)) * np.exp(1j * np.angle(alpha) * np.arange(n_max + 1))


def mode_ops(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated annihilation and number operators on levels 0..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    d = n_max + 1
    lower = np.zeros((d, d))
    for n in range(1, d):
        lower[n - 1, n] = math.sqrt(n)
    return lower, np.diag(np.arange(d, dtype=float))


def beamsplitter_5050(n_max: int) -> np.ndarray:
    """Balanced beamsplitter between two modes truncated at n_max.

    Maps amplitudes written in the input-mode basis (a, b) to the arm
    basis (c, d) for the mode relations a = (c + d)/sqrt(2) and
    b = (c - d)/sqrt(2). The matrix is exactly unitary; it implements
    the ideal splitter on every total-photon-number sector that fits
    entirely below the cutoff (total <= n_max), which covers all inputs
    respecting the fock_cutoff rule. Applying the dagger recombines.
    The total photon number is conserved, so the matrix is assembled
    from its beamsplitter_sector blocks.
    """
    d = n_max + 1
    w = np.zeros((d * d, d * d), dtype=complex)
    for total in range(2 * n_max + 1):
        idx = [nc * d + (total - nc) for nc in range(max(0, total - n_max), min(n_max, total) + 1)]
        w[np.ix_(idx, idx)] = beamsplitter_sector(n_max, total)
    return w



def design_grid_dense(p: SpeciesParams, n_grid: np.ndarray, v_grid: np.ndarray) -> DesignResult:
    """ghz_design_grid's search over the whole grid at once: every cell's
    cost, feasibility and the first-occurrence argmin as count**2 arrays."""
    n = np.asarray(n_grid, dtype=float)[:, None]
    v = np.asarray(v_grid, dtype=float)[None, :]
    cost = np.maximum(p.gamma_sp / n, p.k3 * n / (v * v))
    feasible = p.kappa / (n * v) >= cost * (1.0 - _FEAS_RTOL)
    if not np.any(feasible):
        raise ValueError("no feasible design point on the grid")
    cost = np.where(feasible, cost, np.inf)
    flat = int(np.argmin(cost))
    i, j = np.unravel_index(flat, cost.shape)
    return _design_from_point(p, float(n[i, 0]), float(v[0, j]), float(cost[i, j]))
