"""Dense constructions that only the tests use as independent oracles.

The pipelines work on photon-number sectors; these build the full-space
ladder operators, the dense balanced beamsplitter and the split-pulse
Ramsey state that the tests compare them against.
"""

import math

import numpy as np

from edsim.core import Operator, beamsplitter_sector, hspace


def mode_ops(n_max: int, label: str = "mode") -> tuple[Operator, Operator]:
    """Truncated annihilation and number operators on levels 0..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    d = n_max + 1
    lower = np.zeros((d, d))
    for n in range(1, d):
        lower[n - 1, n] = math.sqrt(n)
    space = hspace(**{label: d})
    return Operator(space, lower), Operator(space, np.diag(np.arange(d, dtype=float)))


def beamsplitter_5050(n_max: int, labels: tuple[str, str] = ("arm_c", "arm_d")) -> Operator:
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
    space = hspace(**{labels[0]: d, labels[1]: d})
    w = np.zeros((d * d, d * d), dtype=complex)
    for total in range(2 * n_max + 1):
        idx = [nc * d + (total - nc) for nc in range(max(0, total - n_max), min(n_max, total) + 1)]
        w[np.ix_(idx, idx)] = beamsplitter_sector(n_max, total)
    return Operator(space, w)


def split_pulse_ramsey_state(n_photons: int) -> np.ndarray:
    """Joint state of two pulse modes and the atom after the first interaction.

    An n-photon field is split evenly onto two pulse modes, then the
    first pulse drives the atom with idealized equal-weight amplitudes.
    The resulting vector pairs |k>_pulse2 |g> with |k-1>_pulse2 |e>
    inside every pulse-1 sector, which is what makes the reduced state
    after discarding pulse 1 block-diagonal in those pairs. Returns the
    normalized amplitude vector on levels 0..n_photons of each pulse mode
    and (g, e) of the atom, in (pulse1, pulse2, atom) order.
    """
    if n_photons < 1:
        raise ValueError("need at least one photon to split")
    n = n_photons
    d = n + 1
    amp = np.zeros(d * d * 2, dtype=complex)
    split = np.array([math.sqrt(math.comb(n, k) / 2.0**n) for k in range(d)])

    def put(k1: int, k2: int, atom: int, value: float) -> None:
        amp[(k1 * d + k2) * 2 + atom] += value

    for k in range(d):  # k photons assigned to pulse 2
        put(n - k, k, 0, split[k] / math.sqrt(2.0))
        if n - k - 1 >= 0:
            put(n - k - 1, k, 1, split[k] / math.sqrt(2.0))
    return amp / np.linalg.norm(amp)
