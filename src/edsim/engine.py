"""Propagators for the double-commutator energy-dephasing master equation.

The model evolved here is

    drho/dt = -i [H, rho] - sigma * sum_b [H_b, [H_b, rho]] + loss dissipators

with every Hamiltonian given in angular-frequency units (energy divided
by hbar, rad/s) and sigma in seconds. The unitary term uses the -i sign
convention, so a coherence <m|rho|n> with gap w = w_m - w_n evolves as
exp(-i w t). Each dephasing block b contributes a decay exp(-sigma *
gap_b**2 * t) to coherences between its eigenstates; a single block
holding the total Hamiltonian is "global" dephasing, one block per
subsystem is "local".

An `EvolutionSpec(hamiltonian, duration, sigma, blocks, losses, step)`
holds the block Hamiltonians as plain operators on the full space; the
engine never sees subsystem labels. The experiment pipelines in
`interferometry` work on number-conserving sectors in closed form and
call the engine only for the semiclassical Ramsey wait, on the bare
atom's 2x2 state; otherwise the engine serves the acceptance suite and
the tests as an independent dense oracle.

Two propagators are provided: a closed-form propagator for diagonal
Hamiltonians without losses, and a fixed-step classical 4th-order
integrator for the general case (fixed step keeps repeated runs
bit-stable). The closed form reads the spectra off the diagonal, so
there is no eigensolver, commutation check or eigenvalue snapping; a
caller with non-diagonal commuting Hamiltonians and a known eigenbasis
rotates the state into that basis and back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import PSD_TOL
from .core import DensityMatrix, InvariantError, Operator

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
    lowering: Operator

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate >= 0.0):
            raise ValueError("loss rate must be finite and non-negative")


@dataclass(frozen=True)
class EvolutionSpec:
    """One evolution segment: drive Hamiltonian, duration, dephasing, losses.

    Each block Hamiltonian enters as one double commutator scaled by
    sigma; `step` is the fixed step of the stepped integrator.
    """

    hamiltonian: Operator
    duration: float
    sigma: float = 0.0
    blocks: tuple[Operator, ...] = ()
    losses: tuple[LossChannel, ...] = ()
    step: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be finite and non-negative")
        if not (math.isfinite(self.duration) and self.duration >= 0.0):
            raise ValueError("duration must be finite and non-negative")


def _rhs(spec: EvolutionSpec) -> Callable[[np.ndarray], np.ndarray]:
    h = spec.hamiltonian.entries
    sigma = spec.sigma
    blocks = [b.entries for b in spec.blocks] if sigma > 0.0 else []
    loss_terms = []
    for ch in spec.losses:
        l = ch.lowering.entries
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


def evolve_analytic(rho0: DensityMatrix, spec: EvolutionSpec) -> DensityMatrix:
    """Closed-form propagation of diagonal Hamiltonians.

    The drive and every block Hamiltonian must be diagonal in the basis
    of rho0 (a ValueError otherwise), and loss channels are forbidden.
    The diagonal entries are the spectra: each coherence picks up
    exp(-i*gap*t) from the drive and exp(-sigma*gap_b**2*t) from each
    block, so coherences between states degenerate in every block are
    exactly invariant under the dephasing. A caller that knows an
    eigenbasis of non-diagonal Hamiltonians rotates into it first.
    """
    if spec.losses:
        raise ValueError("the analytic propagator does not support loss channels")
    t = spec.duration
    mats = [spec.hamiltonian.entries] + [b.entries for b in spec.blocks]
    # O(d^2) test: every nonzero entry lies on the diagonal
    if any(np.count_nonzero(m) != np.count_nonzero(np.diagonal(m)) for m in mats):
        raise ValueError("the analytic propagator takes diagonal Hamiltonians only")
    evals = [np.diagonal(m).real for m in mats]
    # build the phase factor as an outer product of per-state phases so the
    # Hadamard multiplier stays exactly rank-1 positive even when the
    # absolute phases w*t are far beyond double-precision resolution
    phase = np.exp(-1j * evals[0] * t)
    mult = phase[:, None] * phase[None, :].conj()
    if spec.sigma > 0.0 and t > 0.0:
        decay = np.zeros((len(phase), len(phase)))
        # a squared gap beyond double range is inf: full decay, exp(-inf) = 0
        with np.errstate(over="ignore"):
            for wb in evals[1:]:
                db = wb[:, None] - wb[None, :]
                decay = decay + db * db
            mult = mult * np.exp(-spec.sigma * decay * t)
    out = rho0.entries * mult
    # in place: one dense temporary fewer at the memory peak
    out += out.conj().T
    out /= 2.0
    return DensityMatrix(rho0.space, out)


def evolve_stepped(rho0: DensityMatrix, spec: EvolutionSpec) -> DensityMatrix:
    """Fixed-step 4th-order integration of the full generator.

    The final state is re-Hermitized and trace-renormalized; it must
    stay positive within PSD_TOL or an InvariantError is raised. Step
    size is rejected unless ||drho/dt at rho0|| * step <= 0.1.
    """
    if spec.duration == 0.0:
        return DensityMatrix(rho0.space, rho0.entries.copy())
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
    y = rho0.entries.astype(complex).copy()
    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    y = (y + y.conj().T) / 2.0
    y = y / np.trace(y).real
    lo = float(np.linalg.eigvalsh(y)[0])
    if lo < -PSD_TOL:
        raise InvariantError(f"integrated state lost positivity: min eigenvalue {lo:.3e}")
    return DensityMatrix(rho0.space, y)
