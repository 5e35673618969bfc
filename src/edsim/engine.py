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

Both propagators take the state, drive, duration, sigma and blocks, in
that order. `evolve_analytic` is the closed form for Hamiltonians
diagonal in the state's basis and takes their spectra, real 1-D arrays
of the state's dimension, so there is no eigensolver, commutation check
or eigenvalue snapping; a caller with commuting Hamiltonians and a known
eigenbasis rotates the state into it and back. `evolve_stepped`
integrates the general generator, losses given as `(rate, lowering)`
pairs, with a fixed-step classical RK4 (fixed step keeps repeated runs
bit-stable) on square arrays of the state's shape.

The pipelines in `interferometry` take every dephasing rate from
`DecoherencePartition.decay_rate` and call the engine only for the
drive of the semiclassical Ramsey wait, on the bare atom's 2x2 state;
for dephasing the engine serves the acceptance suite and the tests
only, as an independent dense oracle.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .constants import RK4_MAX_STEPS
from .core import DensityMatrix, validate_density

__all__ = ["evolve_analytic", "evolve_stepped"]


def _check_sigma_duration(sigma: float, duration: float) -> None:
    if not 0.0 <= sigma <= sys.float_info.max:
        raise ValueError("sigma must be finite and non-negative")
    if not 0.0 <= duration <= sys.float_info.max:
        raise ValueError("duration must be finite and non-negative")


def _rhs(h, sigma, blocks=(), losses=()) -> Callable[[np.ndarray], np.ndarray]:
    blocks = blocks if sigma > 0.0 else ()
    loss_terms = [(rate, l, l.conj().T, l.conj().T @ l) for rate, l in losses]

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
    rho0's dimension, and |drive|*duration must stay in double range (a
    ValueError otherwise). Each coherence picks up exp(-i*gap*t) from the
    drive and exp(-sigma*gap_b**2*t) from each block, so coherences
    between states degenerate in every block are exactly invariant under
    the dephasing, as are populations. The output is the plain entrywise
    product of rho0 and a multiplier Hermitian by construction, so a
    Hermitian rho0 gives an exactly Hermitian state and no other rho0 is
    repaired: checking rho0 is the caller's job, through validate_density.
    """
    _check_sigma_duration(sigma, duration)
    dim = rho0.entries.shape[0]
    spectra = [np.asarray(s) for s in (drive, *blocks)]
    if any(s.dtype.kind not in "iuf" or s.shape != (dim,) or not np.isfinite(s).all() for s in spectra):
        raise ValueError(f"drive and block spectra must be real, finite 1-D arrays of length {dim}")
    spectra = [s.astype(float) for s in spectra]
    if not math.isfinite(float(np.abs(spectra[0]).max()) * duration):
        raise ValueError("|drive|*duration overflows double range")
    # exp(-i*w_j*t) * exp(+i*w_k*t) = c_j*c_k + s_j*s_k + i*(c_j*s_k - s_j*c_k):
    # entry (k, j) is the exact conjugate of entry (j, k); the diagonal, where
    # c*c + s*s may miss 1 by an ulp, is exactly 1 (populations stay put)
    wt = spectra[0] * duration
    c, s = np.cos(wt), np.sin(wt)
    cs = c[:, None] * s
    mult = c[:, None] * c + s[:, None] * s + 1j * (cs - cs.T)
    np.fill_diagonal(mult, 1.0)
    if sigma > 0.0 and duration > 0.0:
        # a squared gap beyond double range is inf: full decay, exp(-inf) = 0
        with np.errstate(over="ignore"):
            decay = sum(np.square(wb[:, None] - wb[None, :]) for wb in spectra[1:])
            mult = mult * np.exp(-sigma * decay * duration)
    return DensityMatrix(rho0.entries * mult)


def evolve_stepped(rho0: DensityMatrix, hamiltonian, duration: float, sigma: float = 0.0,
                   blocks=(), losses=(), *, step: float) -> DensityMatrix:
    """Fixed-step 4th-order integration of the full generator.

    `losses` holds (rate, lowering) pairs, amplitude-damping dissipators
    with finite, non-negative rates. The drive, blocks and lowering
    operators must have rho0's shape, ceil(duration/step) may not exceed
    RK4_MAX_STEPS, and ||drho/dt at rho0|| * step may not exceed 0.1 (a
    ValueError otherwise). The final state is the integrator's own,
    unretouched; it must pass validate_density or an InvariantError is
    raised.
    """
    if any(not 0.0 <= rate <= sys.float_info.max for rate, _ in losses):
        raise ValueError("loss rate must be finite and non-negative")
    _check_sigma_duration(sigma, duration)
    shape = rho0.entries.shape
    h = np.asarray(hamiltonian, dtype=complex)
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    losses = [(rate, np.asarray(l, dtype=complex)) for rate, l in losses]
    if any(m.shape != shape for m in (h, *blocks, *(l for _, l in losses))):
        raise ValueError(f"drive, blocks and lowering operators must have the state's shape {shape}")
    if duration == 0.0:
        return DensityMatrix(rho0.entries)
    if step is None or not step > 0.0:
        raise ValueError("stepped method needs a positive step")
    if step > duration * (1.0 + 1e-12):
        raise ValueError("step must not exceed the duration")
    count = duration / step - 1e-9  # n = ceil(count), guarded against rounding
    if count > RK4_MAX_STEPS:
        raise ValueError(f"ceil(duration/step) exceeds the limit of {RK4_MAX_STEPS} RK4 steps")
    rhs = _rhs(h, sigma, blocks, losses)
    if float(np.linalg.norm(rhs(rho0.entries))) * step > 0.1 + 1e-12:
        raise ValueError("step too large: ||generator||*step must not exceed 0.1")
    n = max(1, int(math.ceil(count)))
    dt = duration / n
    y = rho0.entries.copy()
    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    rho = DensityMatrix(y)
    validate_density(rho)
    return rho
