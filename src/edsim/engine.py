"""Propagators for the double-commutator energy-dephasing master equation.

The model evolved here is

    drho/dt = -i [H, rho] - sigma * sum_b [H_b, [H_b, rho]] + loss dissipators

with every Hamiltonian given in angular-frequency units (energy divided
by hbar, rad/s) and sigma in seconds. The unitary term uses the -i sign
convention, so a coherence <m|rho|n> with gap w = w_m - w_n evolves as
exp(-i w t). Each dephasing block b contributes a decay exp(-sigma *
gap_b**2 * t) to coherences between its eigenstates; a single block
holding the total Hamiltonian is "global" dephasing, one block per
subsystem is "local". The engine never sees subsystem labels.

`evolve_analytic` is the closed form for Hamiltonians diagonal in the
state's basis and takes their spectra, real 1-D arrays of the state's
dimension, so there is no eigensolver, commutation check or eigenvalue
snapping; a caller with commuting Hamiltonians and a known eigenbasis
rotates the state into it and back. `evolve_stepped` integrates the
general generator, losses included, with a fixed-step classical RK4
(fixed step keeps repeated runs bit-stable) for an `EvolutionSpec`
whose operators are read-only square arrays of the state's shape.

The pipelines in `interferometry` take every dephasing rate from
`DecoherencePartition.decay_rate` and call the engine only for the
drive of the semiclassical Ramsey wait, on the bare atom's 2x2 state;
for dephasing the engine serves the acceptance suite and the tests
only, as an independent dense oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DensityMatrix, _frozen_square, validate_density

__all__ = [
    "LossChannel",
    "EvolutionSpec",
    "evolve_analytic",
    "evolve_stepped",
]


@dataclass(frozen=True)
class LossChannel:
    """Amplitude-damping dissipator at the given rate with lowering operator."""

    rate: float
    lowering: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lowering", _frozen_square(self.lowering))
        if not (math.isfinite(self.rate) and self.rate >= 0.0):
            raise ValueError("loss rate must be finite and non-negative")


def _check_sigma_duration(sigma: float, duration: float) -> None:
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError("sigma must be finite and non-negative")
    if not (math.isfinite(duration) and duration >= 0.0):
        raise ValueError("duration must be finite and non-negative")


@dataclass(frozen=True)
class EvolutionSpec:
    """One segment of the stepped integrator: drive Hamiltonian, duration,
    dephasing (one double commutator per block, scaled by sigma), losses
    and the fixed step."""

    hamiltonian: np.ndarray
    duration: float
    sigma: float = 0.0
    blocks: tuple[np.ndarray, ...] = ()
    losses: tuple[LossChannel, ...] = ()
    step: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "hamiltonian", _frozen_square(self.hamiltonian))
        object.__setattr__(self, "blocks", tuple(_frozen_square(b) for b in self.blocks))
        _check_sigma_duration(self.sigma, self.duration)


def _rhs(spec: EvolutionSpec) -> Callable[[np.ndarray], np.ndarray]:
    h = spec.hamiltonian
    sigma = spec.sigma
    blocks = spec.blocks if sigma > 0.0 else ()
    loss_terms = []
    for ch in spec.losses:
        l = ch.lowering
        loss_terms.append((ch.rate, l, l.conj().T, l.conj().T @ l))

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = -1j * (h @ rho - rho @ h)
        for b in blocks:
            c = b @ rho - rho @ b
            out -= sigma * (b @ c - c @ b)
        for rate, l, ld, ldl in loss_terms:
            out += rate * (l @ rho @ ld - 0.5 * (ldl @ rho + rho @ ldl))
        return out

    return rhs


def evolve_analytic(rho0: DensityMatrix, drive, duration: float, sigma: float = 0.0,
                    blocks=()) -> DensityMatrix:
    """Closed-form propagation under a diagonal drive and diagonal blocks,
    given by their spectra.

    `drive` and each of `blocks` must be a real, finite 1-D array of
    rho0's dimension (a ValueError otherwise). Each coherence picks up
    exp(-i*gap*t) from the drive and exp(-sigma*gap_b**2*t) from each
    block, so coherences between states degenerate in every block are
    exactly invariant under the dephasing.
    """
    _check_sigma_duration(sigma, duration)
    dim = rho0.entries.shape[0]
    spectra = [np.asarray(s) for s in (drive, *blocks)]
    if any(s.dtype.kind not in "iuf" or s.shape != (dim,) or not np.isfinite(s).all() for s in spectra):
        raise ValueError(f"drive and block spectra must be real, finite 1-D arrays of length {dim}")
    spectra = [s.astype(float) for s in spectra]
    # build the phase factor as an outer product of per-state phases so the
    # Hadamard multiplier stays exactly rank-1 positive even when the
    # absolute phases w*t are far beyond double-precision resolution
    phase = np.exp(-1j * spectra[0] * duration)
    mult = phase[:, None] * phase[None, :].conj()
    if sigma > 0.0 and duration > 0.0:
        # a squared gap beyond double range is inf: full decay, exp(-inf) = 0
        with np.errstate(over="ignore"):
            decay = sum(np.square(wb[:, None] - wb[None, :]) for wb in spectra[1:])
            mult = mult * np.exp(-sigma * decay * duration)
    out = rho0.entries * mult
    # in place: one dense temporary fewer at the memory peak
    out += out.conj().T
    out /= 2.0
    return DensityMatrix(out)


def evolve_stepped(rho0: DensityMatrix, spec: EvolutionSpec) -> DensityMatrix:
    """Fixed-step 4th-order integration of the full generator.

    Every operator of the spec must have rho0's shape (a ValueError
    otherwise). The final state is the integrator's own, unretouched; it
    must pass validate_density or an InvariantError is raised. Step size
    is rejected unless ||drho/dt at rho0|| * step <= 0.1.
    """
    shape = rho0.entries.shape
    mats = [spec.hamiltonian, *spec.blocks, *(ch.lowering for ch in spec.losses)]
    if any(m.shape != shape for m in mats):
        raise ValueError(f"drive, blocks and lowering operators must have the state's shape {shape}")
    if spec.duration == 0.0:
        return DensityMatrix(rho0.entries)
    if spec.step is None or spec.step <= 0.0:
        raise ValueError("stepped method needs a positive step")
    if spec.step > spec.duration * (1.0 + 1e-12):
        raise ValueError("step must not exceed the duration")
    rhs = _rhs(spec)
    g0 = rhs(rho0.entries)
    if float(np.linalg.norm(g0)) * spec.step > 0.1 + 1e-12:
        raise ValueError("step too large: ||generator||*step must not exceed 0.1")
    n = max(1, int(math.ceil(spec.duration / spec.step - 1e-9)))
    h = spec.duration / n
    y = rho0.entries.copy()
    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    rho = DensityMatrix(y)
    validate_density(rho)
    return rho
