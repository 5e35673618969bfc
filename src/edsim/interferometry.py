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
from typing import Mapping, Sequence

import numpy as np

from .constants import MAX_PHASE_POINTS, RAMSEY_MAX_CUTOFF
from .core import DensityMatrix, Operator, coherent_state, fock_cutoff, hspace, validate_blocks
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
]


def _require_finite(*values: complex) -> None:
    if not all(cmath.isfinite(v) for v in values):
        raise ValueError("config values must be finite (no NaN or inf)")


@dataclass(frozen=True)
class DecoherencePartition:
    """Dephasing strength plus the label sets that dephase as single blocks.

    The partition only names which subsystems are lumped together; the
    experiment supplies the per-subsystem energy gaps of a coherence, and
    decay_rate turns them into the rate at which that coherence decays.
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

    def decay_rate(self, gaps: Mapping[str, float | np.ndarray]) -> float | np.ndarray:
        """sigma * sum over blocks of (sum of the block's label gaps)**2.

        `gaps` maps each subsystem label the experiment supports to that
        subsystem's free-energy gap (rad/s) across a coherence, a scalar
        or an array of them; the coherence decays as exp(-rate*t). Terms
        are added in the mapping's order. A block naming any other label,
        or no label, raises ValueError. A squared gap beyond double range
        gives an infinite rate (full decay) without a warning.
        """
        total = 0.0
        with np.errstate(over="ignore"):
            for labels in self.blocks:
                if not labels or not labels <= gaps.keys():
                    raise ValueError(f"unsupported dephasing block {sorted(labels)}")
                gap = sum(g for lab, g in gaps.items() if lab in labels)
                total = total + gap * gap
            return self.sigma * total if self.sigma > 0.0 else 0.0

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
        return coherent_state(self.alpha, n_max)


def default_phases(count: int = 32) -> tuple[float, ...]:
    """Uniform fringe scan over [0, 2*pi), including the extrema at 0 and pi."""
    if count < 2:
        raise ValueError("need at least two phase points")
    if count > MAX_PHASE_POINTS:
        raise ValueError(f"phase point count {count} exceeds the limit {MAX_PHASE_POINTS}")
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
        if n_max > RAMSEY_MAX_CUTOFF:
            raise ValueError(f"field cutoff {n_max} exceeds the limit {RAMSEY_MAX_CUTOFF}")
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

    def validate(self) -> None:
        _require_finite(self.alpha, self.arm_time, self.mode_frequency)
        if self.arm_time < 0.0:
            raise ValueError("arm_time must be non-negative")


@dataclass(frozen=True)
class MichelsonResult:
    """Output photon means of the two recombined modes."""

    mean_photons_out_a: float
    mean_photons_out_b: float


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


def _clamp_probability(p: float) -> float:
    if p < -1e-10 or p > 1.0 + 1e-10:
        raise ValueError(f"probability {p!r} outside [0, 1] beyond tolerance")
    return min(1.0, max(0.0, p))


def _fringe(gg, ee, eg, u_g, u_e, phases) -> FringeResult:
    """Ground-state fringe of waited sector blocks [[gg, eg*], [eg, ee]], in closed form.

    Each block lives on a pair (|g,k>, |e,k-1>), or the bare atom's
    (|g>, |e>), that the phase shift, the second pulse and the ground
    projector all preserve. The shift scales eg by e^{i*phi}, and
    (u_g, u_e) is the |g> row of the second pulse on each pair, so
    p_g(phi) = A + 2*Re(B*e^{i*phi}) with
    A = sum(|u_g|^2 gg + |u_e|^2 ee) and B = sum(u_e conj(u_g) eg).
    Unitaries keep trace and spectrum: one validation of the blocks
    covers every phase.
    """
    validate_blocks((np.stack([np.stack([gg, np.conj(eg)], -1), np.stack([eg, ee], -1)], -2),))
    a = float(np.real(np.sum(np.abs(u_g) ** 2 * gg + np.abs(u_e) ** 2 * ee)))
    b = complex(np.sum(u_e * np.conj(u_g) * eg))
    p_g = a + 2.0 * np.real(b * np.exp(1j * np.asarray(phases, dtype=float)))
    pts = tuple((float(phi), _clamp_probability(float(p))) for phi, p in zip(phases, p_g))
    return FringeResult(pts, visibility(pts))


def run_ramsey_semiclassical(cfg: RamseyConfig) -> FringeResult:
    """Ramsey fringe with ideal classical pulses.

    Pulses are instantaneous rotations by pulse_area about x (the second
    pulse is the inverse rotation, so a zero accumulated phase returns
    the atom to the ground state). Spontaneous decay during the wait is
    the exact amplitude-damping channel, which stays on the atom's one
    pair (|g>, |e>). The wait runs in the frame rotating at the atomic
    frequency: the drive is zero while the dephasing block keeps the
    laboratory gap omega0, giving p_g(phi) = (1 + V cos phi)/2 with
    V = exp(-sigma*omega0^2*wait) * exp(-gamma_sp*wait/2).
    """
    cfg.validate()
    space = hspace(atom=2)
    # raises unless every block is {atom}, whose Hamiltonian is omega0*|e><e|
    cfg.decoherence.decay_rate({"atom": cfg.omega0})
    blocks = tuple(Operator(space, np.diag([0.0, cfg.omega0])) for _ in cfg.decoherence.blocks)
    c, s = math.cos(cfg.pulse_area / 2.0), math.sin(cfg.pulse_area / 2.0)
    lost = -math.expm1(-cfg.spontaneous_rate * cfg.wait)
    kept = math.exp(-0.5 * cfg.spontaneous_rate * cfg.wait)
    rho = np.array([[c * c + lost * s * s, 1j * c * s * kept],
                    [-1j * c * s * kept, kept * kept * s * s]])
    rho = evolve_analytic(
        DensityMatrix(space, rho),
        EvolutionSpec(Operator(space, np.zeros((2, 2))), cfg.wait, cfg.decoherence.sigma, blocks),
    ).entries
    return _fringe(rho[0, 0], rho[1, 1], rho[1, 0], c, 1j * s, cfg.phases)


def run_ramsey_quantized(cfg: RamseyConfig) -> FringeResult:
    """Ramsey fringe with the driving field kept as a quantized mode.

    The pulses apply the excitation-exchange unitary generated by
    coupling*(a |e><g| + a^dag |g><e|), with the duration chosen so the
    rotation angle at the field's dominant photon number equals
    pulse_area. The free Hamiltonian omega0*|e><e| + omega*n, with
    omega = omega0 - detuning, dephases the wait according to the
    partition. The pulses, the wait, the phase shift (injected on |e>
    before the second, identical pulse) and the readout all conserve
    |e><e| + n, so only the 2x2 blocks on the pairs (|g,k>, |e,k-1>),
    k = 0..n_max, are ever formed: the pulse rotates pair k by
    theta_k = coupling*sqrt(k)*t_pulse, spontaneous decay moves the
    |e,k-1> population onto |g,k-1> and scales the pair's coherence by
    exp(-gamma_sp*t/2), and the wait, in the frame rotating at omega,
    multiplies that coherence by exp(-i*detuning*t) and its decay.
    """
    cfg.validate()
    n_max = cfg.cutoff()
    t_pulse = cfg.pulse_area / (2.0 * cfg.coupling * math.sqrt(cfg.field.dominant_n))
    if not math.isfinite(t_pulse):
        raise ValueError(f"pulse duration overflows at coupling {cfg.coupling!r}")
    theta = cfg.coupling * np.sqrt(np.arange(n_max + 1)) * t_pulse
    c, s = np.cos(theta), np.sin(theta)
    weights = np.abs(cfg.field.amplitudes(n_max)) ** 2
    gg, ee, eg = weights * c * c, weights * s * s, -1j * weights * s * c
    # gaps across |e,k-1><g,k|: omega0 on the atom, -omega on the field, for every k
    rate = cfg.decoherence.decay_rate({"atom": cfg.omega0, "field": -(cfg.omega0 - cfg.detuning)})
    if cfg.wait > 0.0:
        lost = -math.expm1(-cfg.spontaneous_rate * cfg.wait)
        gg = gg + lost * np.append(ee[1:], 0.0)
        ee = ee * math.exp(-cfg.spontaneous_rate * cfg.wait)
        eg = eg * (math.exp(-0.5 * cfg.spontaneous_rate * cfg.wait - rate * cfg.wait)
                   * cmath.exp(-1j * cfg.detuning * cfg.wait))
    return _fringe(gg, ee, eg, c, -1j * s, cfg.phases)


def run_michelson(cfg: MichelsonConfig) -> MichelsonResult:
    """Balanced Michelson interferometer with per-arm or global dephasing.

    The input |alpha>_a |0>_b is split onto the arms c and d, which wait
    under the dephasing partition in the frame rotating at the mode
    frequency, and is recombined. The output means are
    (<c^dag c> + <d^dag d>)/2 +- Re<c^dag d>: the wait keeps the arm
    populations |alpha|^2/2, and every coherence behind <c^dag d> moves
    one photon between the arms, with gaps (omega, -omega). So, exactly
    and with no Fock cutoff, the means are |alpha|^2/2 * (1 +- exp(-rate*t))
    with rate = decay_rate({"arm_c": omega, "arm_d": -omega}): 0 for a
    global block, 2*sigma*omega^2 for one block per arm.
    """
    cfg.validate()
    a = abs(cfg.alpha)
    mean = a * a
    if not math.isfinite(mean):
        raise ValueError(f"|alpha|**2 overflows for alpha={cfg.alpha!r}")
    rate = cfg.decoherence.decay_rate({"arm_c": cfg.mode_frequency, "arm_d": -cfg.mode_frequency})
    fringe = math.exp(-rate * cfg.arm_time) if cfg.arm_time > 0.0 else 1.0
    return MichelsonResult(mean / 2.0 * (1.0 + fringe), mean / 2.0 * (1.0 - fringe))


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
    a = abs(alpha)
    mean = a * a
    if not math.isfinite(mean):
        raise ValueError(f"|alpha|**2 overflows for alpha={alpha!r}")
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
        amps = coherent_state(alpha * np.exp(1j * phi), n_max)
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
