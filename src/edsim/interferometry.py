"""End-to-end interference experiments under configurable energy dephasing.

Three experiment families are covered: Ramsey interferometry on a
two-level atom (with the driving field treated classically or as a
quantized mode), a balanced Michelson interferometer fed with a coherent
state, and the dephasing of N-atom GHZ states. Each run returns fringe
data, output photon numbers or coherence decay figures that can be
compared against the closed-form decay laws.

The dephasing partition decides which subsystems lose energy coherence
jointly: a single block over all labels (global) only touches the total
phase and leaves every interference observable unchanged, while
per-subsystem blocks (local) damp the observable fringes at the summed
block rate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field as dc_field
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from .core import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    PureState,
    beamsplitter_5050,
    coherent_state,
    embed,
    fock_cutoff,
    hspace,
    mode_ops,
    validate_density,
)
from .engine import EvolutionSpec, evolve_analytic

__all__ = [
    "DecoherencePartition",
    "FockField",
    "CoherentField",
    "RamseyConfig",
    "FringeResult",
    "MichelsonConfig",
    "MichelsonResult",
    "GhzConfig",
    "GhzResult",
    "default_phases",
    "visibility",
    "run_ramsey_semiclassical",
    "run_ramsey_quantized",
    "run_michelson",
    "phase_average_check",
    "run_ghz",
    "split_pulse_ramsey_state",
]


def _require_finite(*values: complex) -> None:
    if not all(cmath.isfinite(v) for v in values):
        raise ValueError("config values must be finite (no NaN or inf)")


@dataclass(frozen=True)
class DecoherencePartition:
    """Dephasing strength plus the label sets that dephase as single blocks.

    The partition only names which subsystems are lumped together; the
    experiment supplies the free Hamiltonians that block_hamiltonians
    sums into one operator per block.
    """

    sigma: float
    blocks: tuple[frozenset[str], ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be finite and non-negative")
        seen: set[str] = set()
        for labels in self.blocks:
            if seen & set(labels):
                raise ValueError("partition blocks must be disjoint")
            seen |= set(labels)

    def block_hamiltonians(self, free: Mapping[str, Operator]) -> tuple[Operator, ...]:
        """One Hamiltonian per block: the sum of its labels' free Hamiltonians.

        `free` maps each subsystem label the experiment supports to its
        free Hamiltonian, already embedded in the full space; terms are
        added in the mapping's order. A block naming any other label, or
        no label, raises ValueError.
        """
        out = []
        for labels in self.blocks:
            if not labels or not labels <= free.keys():
                raise ValueError(f"unsupported dephasing block {sorted(labels)}")
            out.append(reduce(Operator.__add__, (h for lab, h in free.items() if lab in labels)))
        return tuple(out)

    @staticmethod
    def none() -> "DecoherencePartition":
        return DecoherencePartition(0.0, ())

    @staticmethod
    def global_over(sigma: float, *labels: str) -> "DecoherencePartition":
        return DecoherencePartition(sigma, (frozenset(labels),))

    @staticmethod
    def local_over(sigma: float, *labels: str) -> "DecoherencePartition":
        return DecoherencePartition(sigma, tuple(frozenset({lab}) for lab in labels))


@dataclass(frozen=True)
class FockField:
    """Driving field prepared with a definite photon number."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("photon number must be non-negative")

    @property
    def dominant_n(self) -> int:
        return max(1, self.n)

    def default_cutoff(self) -> int:
        return self.n + 1

    def amplitudes(self, n_max: int) -> np.ndarray:
        if self.n > n_max:
            raise ValueError(f"Fock level {self.n} exceeds cutoff {n_max}")
        v = np.zeros(n_max + 1, dtype=complex)
        v[self.n] = 1.0
        return v


@dataclass(frozen=True)
class CoherentField:
    """Driving field prepared in a coherent state."""

    alpha: complex

    @property
    def dominant_n(self) -> int:
        return max(1, int(round(abs(self.alpha) ** 2)))

    def default_cutoff(self) -> int:
        return fock_cutoff(self.alpha)

    def amplitudes(self, n_max: int) -> np.ndarray:
        return coherent_state(self.alpha, n_max, label="field").amplitudes


def default_phases(count: int = 32) -> tuple[float, ...]:
    """Uniform fringe scan over [0, 2*pi), including the extrema at 0 and pi."""
    if count < 2:
        raise ValueError("need at least two phase points")
    return tuple(float(p) for p in np.linspace(0.0, 2.0 * math.pi, count, endpoint=False))


@dataclass(frozen=True)
class RamseyConfig:
    """Two-pulse Ramsey sequence: pulse, wait with dephasing, pulse, readout."""

    omega0: float                     # atomic gap, rad/s
    wait: float                       # free-evolution time, s
    decoherence: DecoherencePartition = DecoherencePartition.none()
    field: FockField | CoherentField = FockField(12)
    n_max: int | None = None          # field cutoff; None picks a safe default
    coupling: float = 1.0             # atom-field coupling, rad/s
    pulse_area: float = math.pi / 2.0
    detuning: float = 0.0             # atomic minus field frequency, rad/s
    phases: tuple[float, ...] = dc_field(default_factory=default_phases)
    spontaneous_rate: float = 0.0     # amplitude-damping rate on the atom, 1/s

    def validate(self) -> None:
        _require_finite(self.omega0, self.wait, self.coupling, self.pulse_area, self.detuning,
                        self.spontaneous_rate, getattr(self.field, "alpha", 0.0), *self.phases)
        if not 0.0 < self.pulse_area <= math.pi:
            raise ValueError("pulse_area must lie in (0, pi]")
        if self.wait < 0.0 or self.spontaneous_rate < 0.0 or self.coupling <= 0.0:
            raise ValueError("wait and rates must be non-negative, coupling positive")
        if not self.phases:
            raise ValueError("phase scan must be non-empty")

    def cutoff(self) -> int:
        n_max = self.field.default_cutoff() if self.n_max is None else self.n_max
        if isinstance(self.field, FockField) and self.field.n > n_max:
            raise ValueError("cutoff below the Fock level")
        if isinstance(self.field, CoherentField) and n_max < fock_cutoff(self.field.alpha):
            raise ValueError("cutoff below the coherent-state truncation rule")
        return n_max


@dataclass(frozen=True)
class FringeResult:
    """Fringe scan (phi, p_g) plus its visibility."""

    points: tuple[tuple[float, float], ...]
    visibility: float


@dataclass(frozen=True)
class MichelsonConfig:
    """Balanced Michelson interferometer fed with |alpha> against vacuum."""

    alpha: complex
    arm_time: float                   # per-arm propagation time, s
    mode_frequency: float             # rad/s
    decoherence: DecoherencePartition = DecoherencePartition.none()
    n_max: int | None = None

    def validate(self) -> None:
        _require_finite(self.alpha, self.arm_time, self.mode_frequency)
        if self.arm_time < 0.0:
            raise ValueError("arm_time must be non-negative")

    def cutoff(self) -> int:
        n_max = fock_cutoff(self.alpha) if self.n_max is None else self.n_max
        if n_max < fock_cutoff(self.alpha):
            raise ValueError("cutoff below the coherent-state truncation rule")
        return n_max


@dataclass(frozen=True)
class MichelsonResult:
    """Output photon means; state_out is in the rotating frame of run_michelson."""

    mean_photons_out_a: float
    mean_photons_out_b: float
    state_out: DensityMatrix


@dataclass(frozen=True)
class GhzConfig:
    """N-atom GHZ superposition held for a waiting period."""

    n_atoms: int
    omega0: float                     # single-atom gap, rad/s
    sigma: float                      # dephasing strength, s
    wait: float
    gamma_sp: float = 0.0             # per-atom spontaneous loss rate, 1/s
    three_body_rate: float = 0.0      # precomputed k3*N^3/V^2 event rate, 1/s

    def validate(self) -> None:
        _require_finite(self.omega0, self.sigma, self.wait, self.gamma_sp, self.three_body_rate)
        if self.n_atoms < 1:
            raise ValueError("need at least one atom")
        if min(self.sigma, self.wait, self.gamma_sp, self.three_body_rate) < 0.0:
            raise ValueError("rates and times must be non-negative")


@dataclass(frozen=True)
class GhzResult:
    coherence: float
    survival: float
    effective_rate: float


def visibility(points: Sequence[tuple[float, float]]) -> float:
    """(max - min) / (max + min) of the scanned probabilities; 0 for an all-zero scan."""
    if len(points) < 2:
        raise ValueError("need at least two fringe points")
    values = [p for _, p in points]
    hi, lo = max(values), min(values)
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


_P_E = np.diag([0.0, 1.0])                  # |e><e|, with |g> = index 0
_S_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e|


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _jc_pulse(coupling: float, duration: float, n_max: int) -> np.ndarray:
    """exp(-i*h_jc*duration) for h_jc = coupling*(a |e><g| + a^dag |g><e|), in closed form.

    h_jc conserves |e><e| + n, so the propagator is a direct sum of 2x2
    rotations [[cos, -i sin], [-i sin, cos]] at angle coupling*sqrt(n)*duration
    on the pairs (|g,n>, |e,n-1>), n = 1..n_max; |g,0> and |e,n_max> are
    left alone. Indices follow hspace(atom=2, field=n_max+1), |g> first.
    """
    d = n_max + 1
    n = np.arange(1, d)
    theta = coupling * np.sqrt(n) * duration
    g, e = n, d + n - 1
    u = np.zeros((2 * d, 2 * d), dtype=complex)
    u[0, 0] = u[-1, -1] = 1.0
    u[g, g] = u[e, e] = np.cos(theta)
    u[g, e] = u[e, g] = -1j * np.sin(theta)
    return u


def _wait_segment(
    rho: np.ndarray,
    drive: Operator,
    partition: DecoherencePartition,
    free: Mapping[str, Operator],
    gamma_sp: float,
    lowering: Operator | None,
    duration: float,
) -> np.ndarray:
    """Free-evolution segment: spontaneous decay, then closed-form propagation.

    The atomic lowering operator L = |g><e| is an eigenoperator of the
    drive and of every block, [H, L] = -c L (c is omega0, detuning or 0),
    so the damping dissipator commutes with the unitary and
    double-commutator terms and the lossy wait splits exactly into the
    amplitude-damping channel K0 = I - (1 - sqrt(1-p)) L^dag L,
    K1 = sqrt(p) L, p = 1 - exp(-gamma_sp*duration), then evolve_analytic.
    """
    blocks = partition.block_hamiltonians(free)
    if duration == 0.0:
        return rho
    if gamma_sp > 0.0:
        l = lowering.entries
        k0 = np.eye(len(rho)) + math.expm1(-0.5 * gamma_sp * duration) * (l.conj().T @ l)
        k1 = math.sqrt(-math.expm1(-gamma_sp * duration)) * l
        rho = k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T
    state = DensityMatrix(drive.space, rho)
    return evolve_analytic(state, EvolutionSpec(drive, duration, partition.sigma, blocks)).entries


def _clamp_probability(p: float) -> float:
    if p < -1e-10 or p > 1.0 + 1e-10:
        raise ValueError(f"probability {p!r} outside [0, 1] beyond tolerance")
    return min(1.0, max(0.0, p))


def _fringe(rho: np.ndarray, pulse: np.ndarray, space: HilbertSpace, phases) -> FringeResult:
    """Ground-state fringe after phase shift and second pulse, in closed form.

    The atom leads the tensor order, |g> first, so the shift scales the
    excited-row, ground-column block of rho by e^{i*phi} (its mirror by
    the conjugate). With M = U^dag P_g U, p_g(phi) = A + 2*Re(B*e^{i*phi}):
    A sums M.T*rho over the atom-diagonal blocks, B over that block.
    Unitaries keep trace and spectrum: one validation covers every phase.
    """
    validate_density(DensityMatrix(space, rho))
    h = rho.shape[0] // 2
    u_g = pulse[:h]
    terms = (u_g.T @ u_g.conj()) * rho
    a = float(np.real(np.sum(terms[:h, :h]) + np.sum(terms[h:, h:])))
    b = complex(np.sum(terms[h:, :h]))
    p_g = a + 2.0 * np.real(b * np.exp(1j * np.asarray(phases, dtype=float)))
    pts = tuple((float(phi), _clamp_probability(float(p))) for phi, p in zip(phases, p_g))
    return FringeResult(pts, visibility(pts))


def run_ramsey_semiclassical(cfg: RamseyConfig) -> FringeResult:
    """Ramsey fringe with ideal classical pulses.

    Pulses are instantaneous rotations by pulse_area about x (the second
    pulse is the inverse rotation, so a zero accumulated phase returns
    the atom to the ground state). The wait segment runs in the frame
    rotating at the atomic frequency: the drive Hamiltonian is zero
    while the dephasing block keeps the laboratory gap omega0, giving
    p_g(phi) = (1 + V cos phi)/2 with
    V = exp(-sigma*omega0^2*wait) * exp(-gamma_sp*wait/2).
    """
    cfg.validate()
    space = hspace(atom=2)
    pulse = _rotation(cfg.pulse_area)
    rho = pulse @ np.diag([1.0 + 0.0j, 0.0j]) @ pulse.conj().T

    rho = _wait_segment(
        rho, Operator(space, np.zeros((2, 2))), cfg.decoherence,
        {"atom": Operator(space, cfg.omega0 * _P_E)},
        cfg.spontaneous_rate, Operator(space, _S_MINUS), cfg.wait,
    )

    return _fringe(rho, pulse.conj().T, space, cfg.phases)


def run_ramsey_quantized(cfg: RamseyConfig) -> FringeResult:
    """Ramsey fringe with the driving field kept as a quantized mode.

    The pulses apply the excitation-exchange unitary generated by
    coupling*(a |e><g| + a^dag |g><e|), with the duration chosen so the
    rotation angle at the field's dominant photon number equals
    pulse_area. The free Hamiltonian omega0*|e><e| + omega*n, with
    omega = omega0 - detuning, dephases the wait according to the
    partition; the wait runs in the frame rotating at omega with the
    conserved excitation number |e><e| + n (exact, as pulses, phase shift
    and readout conserve it), so its drive is detuning*|e><e|. The
    scanned phase is injected on |e> before the second, identical pulse.
    """
    cfg.validate()
    n_max = cfg.cutoff()
    space = hspace(atom=2, field=n_max + 1)
    _, num_op = mode_ops(n_max, label="field")

    t_pulse = cfg.pulse_area / (2.0 * cfg.coupling * math.sqrt(cfg.field.dominant_n))
    if not math.isfinite(t_pulse):
        raise ValueError(f"pulse duration overflows at coupling {cfg.coupling!r}")
    pulse = _jc_pulse(cfg.coupling, t_pulse, n_max)

    excited = embed(Operator(hspace(atom=2), _P_E), space)
    h_atom = cfg.omega0 * excited
    h_field = (cfg.omega0 - cfg.detuning) * embed(num_op, space)

    psi0 = np.kron(np.array([1.0, 0.0], dtype=complex), cfg.field.amplitudes(n_max))
    rho = np.outer(psi0, psi0.conj())
    rho = pulse @ rho @ pulse.conj().T
    rho = _wait_segment(
        rho, cfg.detuning * excited, cfg.decoherence, {"atom": h_atom, "field": h_field},
        cfg.spontaneous_rate, embed(Operator(hspace(atom=2), _S_MINUS), space), cfg.wait,
    )
    return _fringe(rho, pulse, space, cfg.phases)


def _recombine(w: np.ndarray, rho: np.ndarray, n_max: int) -> np.ndarray:
    """w^dag rho w for the two-mode beamsplitter w, one photon-number sector at a time.

    w conserves the total photon number n_c + n_d, so it is block
    diagonal over the 2*n_max+1 sectors of equal total (index n_c*d + n_d):
    each sector's rows are multiplied by its block's dagger, then each
    sector's columns by its block.
    """
    n = np.arange(n_max + 1)
    totals = np.add.outer(n, n).ravel()
    sectors = [np.flatnonzero(totals == s) for s in range(2 * n_max + 1)]
    blocks = [w[np.ix_(idx, idx)] for idx in sectors]
    left = np.empty_like(rho)
    for idx, b in zip(sectors, blocks):
        left[idx] = b.conj().T @ rho[idx]
    out = np.empty_like(rho)
    for idx, b in zip(sectors, blocks):
        out[:, idx] = left[:, idx] @ b
    return out


def run_michelson(cfg: MichelsonConfig) -> MichelsonResult:
    """Balanced Michelson interferometer with per-arm or global dephasing.

    The input |alpha>_a |0>_b is rewritten in the arm basis through the
    balanced beamsplitter, each arm evolves freely at the mode frequency
    under the configured dephasing partition, and the recombined output
    photon numbers are reported together with the output state. The arms
    wait in the frame rotating at the mode frequency with the total photon
    number, which the beamsplitter conserves, so no drive is left and
    state_out is expressed in that frame; the photon means are the same
    in either frame.
    """
    cfg.validate()
    n_max = cfg.cutoff()
    d = n_max + 1
    arm_space = hspace(arm_c=d, arm_d=d)
    w = beamsplitter_5050(n_max).entries

    vac = np.zeros(d, dtype=complex)
    vac[0] = 1.0
    v_in = np.kron(coherent_state(cfg.alpha, n_max).amplitudes, vac)
    rho_arms = np.outer(w @ v_in, (w @ v_in).conj())

    _, num_op = mode_ops(n_max, label="arm_c")
    h_c = cfg.mode_frequency * embed(num_op, arm_space)
    _, num_d = mode_ops(n_max, label="arm_d")
    h_d = cfg.mode_frequency * embed(num_d, arm_space)
    rho_arms = _wait_segment(
        rho_arms, Operator(arm_space, np.zeros_like(h_c.entries)), cfg.decoherence,
        {"arm_c": h_c, "arm_d": h_d}, 0.0, None, cfg.arm_time,
    )

    rho_out = _recombine(w, rho_arms, n_max)
    rho_out = (rho_out + rho_out.conj().T) / 2.0
    out_space = hspace(out_a=d, out_b=d)
    populations = np.diagonal(rho_out).real.reshape(d, d)
    mean_a, mean_b = (float(populations.sum(axis=k) @ np.arange(d)) for k in (1, 0))
    state_out = DensityMatrix(out_space, rho_out)
    validate_density(state_out)
    return MichelsonResult(mean_a, mean_b, state_out)


def phase_average_check(alpha: complex, n_max: int, nodes: int | None = None) -> float:
    """Distance between the dephased-coherent-state mixture and its phase average.

    Compares the diagonal Poissonian Fock mixture against the uniform
    average of |alpha e^{i phi}> projectors over the phase circle,
    computed by quadrature with at least 4*n_max nodes. Returns the
    Frobenius distance (identically zero up to rounding).
    """
    if nodes is None:
        nodes = max(1, 4 * n_max)
    if nodes < 4 * n_max:
        raise ValueError(f"need at least {4 * n_max} quadrature nodes, got {nodes}")
    ns = np.arange(n_max + 1, dtype=float)
    mean = abs(alpha) ** 2
    if mean == 0.0:
        weights = np.zeros(n_max + 1)
        weights[0] = 1.0
    else:
        logs = -mean + ns * math.log(mean) - np.array([math.lgamma(n + 1.0) for n in ns])
        weights = np.exp(logs)
        weights = weights / float(np.sum(weights))
    mixture = np.diag(weights).astype(complex)

    avg = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for k in range(nodes):
        phi = 2.0 * math.pi * k / nodes
        amps = coherent_state(alpha * np.exp(1j * phi), n_max).amplitudes
        avg += np.outer(amps, amps.conj())
    avg /= nodes
    return float(np.linalg.norm(mixture - avg))


def run_ghz(cfg: GhzConfig) -> GhzResult:
    """Coherence and survival of an N-atom GHZ state after the wait.

    The dynamics close on the two macroscopic branches, whose gap is
    n_atoms * omega0, so the dephasing rate carries the n_atoms**2
    enhancement; any particle loss (spontaneous or three-body, treated
    as scalar event rates) destroys the superposition outright:

        effective_rate = sigma*omega0^2*N^2 + N*gamma_sp + three_body_rate
        coherence(t)   = 0.5 * exp(-effective_rate * t)
        survival(t)    = exp(-(N*gamma_sp + three_body_rate) * t)
    """
    cfg.validate()
    n = cfg.n_atoms
    grav = cfg.sigma * (cfg.omega0 * cfg.omega0) * (n * n)
    loss = n * cfg.gamma_sp + cfg.three_body_rate
    rate = grav + loss
    return GhzResult(
        coherence=0.5 * math.exp(-rate * cfg.wait),
        survival=math.exp(-loss * cfg.wait),
        effective_rate=rate,
    )


def split_pulse_ramsey_state(n_photons: int) -> PureState:
    """Joint state of two pulse modes and the atom after the first interaction.

    An n-photon field is split evenly onto two pulse modes, then the
    first pulse drives the atom with idealized equal-weight amplitudes.
    The resulting vector pairs |k>_pulse2 |g> with |k-1>_pulse2 |e>
    inside every pulse-1 sector, which is what makes the reduced state
    after discarding pulse 1 block-diagonal in those pairs. Intended as
    a validation construction for small n_photons.
    """
    if n_photons < 1:
        raise ValueError("need at least one photon to split")
    n = n_photons
    d = n + 1
    space = hspace(pulse1=d, pulse2=d, atom=2)
    amp = np.zeros(space.total_dim, dtype=complex)
    split = np.array([math.sqrt(math.comb(n, k) / 2.0**n) for k in range(d)])

    def put(k1: int, k2: int, atom: int, value: float) -> None:
        amp[(k1 * d + k2) * 2 + atom] += value

    for k in range(d):  # k photons assigned to pulse 2
        put(n - k, k, 0, split[k] / math.sqrt(2.0))
        if n - k - 1 >= 0:
            put(n - k - 1, k, 1, split[k] / math.sqrt(2.0))
    return PureState(space, amp / np.linalg.norm(amp))
