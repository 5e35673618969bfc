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
block rate. Every config and field checks its values when it is built,
and holds only inputs that change a result.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .constants import MAX_PHASE_POINTS, RAMSEY_MAX_CUTOFF
from .core import DensityMatrix, _mean_photons, fock_cutoff, poisson_weights, validate_pairs
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
    "visibility",
    "run_ramsey_semiclassical",
    "run_ramsey_quantized",
    "run_ramsey_batch",
    "run_michelson",
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
        # bool is an Integral too, but FockField(True) would index as a mask
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"photon number must be an integer, got {self.n!r}")
        if self.n < 0:
            raise ValueError("photon number must be non-negative")

    @property
    def dominant_n(self) -> int:
        return max(1, self.n)

    def default_cutoff(self) -> int:
        return self.n + 1

    def weights(self, cutoff: int) -> np.ndarray:
        w = np.zeros(cutoff + 1)
        w[self.n] = 1.0
        return w


@dataclass(frozen=True)
class CoherentField:
    """Driving field prepared in a coherent state."""

    alpha: complex

    def __post_init__(self):
        _require_finite(self.alpha)

    @property
    def dominant_n(self) -> int:
        return max(1, int(round(_mean_photons(self.alpha))))

    def default_cutoff(self) -> int:
        return fock_cutoff(self.alpha)

    def weights(self, cutoff: int) -> np.ndarray:
        return poisson_weights(self.alpha, cutoff)


@dataclass(frozen=True)
class RamseyConfig:
    """Two-pulse Ramsey sequence: pulse, wait with dephasing, pulse, readout."""

    omega0: float                     # atomic gap, rad/s
    wait: float                       # free-evolution time, s
    decoherence: DecoherencePartition = DecoherencePartition.none()
    field: FockField | CoherentField = FockField(12)
    pulse_area: float = math.pi / 2.0
    detuning: float = 0.0             # atomic minus field frequency, rad/s
    phase_points: int = 32            # size of the uniform fringe scan over [0, 2*pi)
    spontaneous_rate: float = 0.0     # amplitude-damping rate on the atom, 1/s

    def __post_init__(self):
        _require_finite(self.omega0, self.wait, self.pulse_area, self.detuning, self.spontaneous_rate)
        if isinstance(self.phase_points, bool) or not isinstance(self.phase_points, numbers.Integral):
            raise ValueError(f"phase_points must be an integer, got {self.phase_points!r}")
        if self.phase_points < 2:
            raise ValueError("need at least two phase points")
        if self.phase_points > MAX_PHASE_POINTS:
            raise ValueError(f"phase point count {self.phase_points} exceeds the limit {MAX_PHASE_POINTS}")
        if not 0.0 < self.pulse_area <= math.pi:
            raise ValueError("pulse_area must lie in (0, pi]")
        if self.wait < 0.0 or self.spontaneous_rate < 0.0:
            raise ValueError("wait and spontaneous_rate must be non-negative")
        if not math.isfinite(self.detuning * self.wait):
            raise ValueError(f"detuning*wait overflows for detuning={self.detuning!r}, wait={self.wait!r}")

    @property
    def phases(self) -> np.ndarray:
        """The fringe scan k*2*pi/phase_points, k = 0..phase_points-1 (bit for
        bit np.linspace(0, 2*pi, phase_points, endpoint=False)), including
        the extrema at 0 and pi when phase_points is even."""
        return np.arange(self.phase_points) * (2.0 * math.pi / self.phase_points)

    def cutoff(self) -> int:
        """The field's own Fock cutoff, refused above RAMSEY_MAX_CUTOFF."""
        cutoff = self.field.default_cutoff()
        if cutoff > RAMSEY_MAX_CUTOFF:
            raise ValueError(f"field cutoff {cutoff} exceeds the limit {RAMSEY_MAX_CUTOFF}")
        return cutoff


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

    def __post_init__(self):
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

    def __post_init__(self):
        _require_finite(self.omega0, self.sigma, self.wait, self.gamma_sp, self.three_body_rate)
        if isinstance(self.n_atoms, bool) or not isinstance(self.n_atoms, numbers.Integral):
            raise ValueError(f"n_atoms must be an integer, got {self.n_atoms!r}")
        if self.n_atoms < 1:
            raise ValueError("need at least one atom")
        if min(self.sigma, self.wait, self.gamma_sp, self.three_body_rate) < 0.0:
            raise ValueError("rates and times must be non-negative")


@dataclass(frozen=True)
class GhzResult:
    coherence: float
    survival: float
    effective_rate: float


def _contrast(hi: float, lo: float) -> float:
    return (hi - lo) / (hi + lo) if hi + lo != 0.0 else 0.0


def visibility(points: Sequence[tuple[float, float]] | np.ndarray) -> float:
    """(max - min) / (max + min) of the scanned probabilities; 0 for an all-zero scan."""
    if len(points) < 2:
        raise ValueError("need at least two fringe points")
    values = np.asarray(points, dtype=float)[:, 1]
    return _contrast(float(values.max()), float(values.min()))


def _fringe(gg, ee, eg, u_g, u_e, phases) -> list[FringeResult]:
    """Ground-state fringes of waited sector blocks [[gg, eg*], [eg, ee]], in
    closed form, one per row of the (rows, pairs) arrays gg, ee and eg.

    Each block lives on a pair (|g,k>, |e,k-1>), or the bare atom's
    (|g>, |e>), that the phase shift, the second pulse and the ground
    projector all preserve. The shift scales eg by e^{i*phi}, and
    (u_g, u_e) is the |g> row of the second pulse on each pair, shared by
    every row, so a row's p_g(phi) = A + 2*Re(B*e^{i*phi}) with
    A = sum(|u_g|^2 gg + |u_e|^2 ee) and B = sum(u_e conj(u_g) eg) over
    its pairs. Unitaries keep trace and spectrum: one validate_pairs call
    on the three arrays covers every row and phase, and no block is ever
    formed. A p_g up to 1e-10 outside [0, 1] is clamped.
    """
    validate_pairs(gg, ee, eg)
    a = np.real(np.sum(np.abs(u_g) ** 2 * gg + np.abs(u_e) ** 2 * ee, axis=-1))
    b = np.sum(u_e * np.conj(u_g) * eg, axis=-1)
    phi = np.asarray(phases, dtype=float)
    p_g = a[:, None] + 2.0 * np.real(b[:, None] * np.exp(1j * phi))
    if p_g.min() < -1e-10 or p_g.max() > 1.0 + 1e-10:
        bad = p_g[(p_g < -1e-10) | (p_g > 1.0 + 1e-10)]
        raise ValueError(f"probability {float(bad[0])!r} outside [0, 1] beyond tolerance")
    p_g = np.minimum(1.0, np.maximum(0.0, p_g))
    scan = phi.tolist()
    return [FringeResult(tuple(zip(scan, row)), _contrast(hi, lo))
            for row, hi, lo in zip(p_g.tolist(), p_g.max(axis=-1).tolist(), p_g.min(axis=-1).tolist())]


# a block of a Ramsey batch holds at most this many pair entries and phase
# points, or one row where a row alone holds more (RAMSEY_MAX_CUTOFF and
# MAX_PHASE_POINTS bound a row), so a batch needs about one run's memory
# (the shared pulse plus one block)
_BLOCK_ENTRIES = 1 << 16


def run_ramsey_batch(cfgs: Sequence[RamseyConfig]) -> list[FringeResult]:
    """run_ramsey_quantized's fringe of every config in order, each equal
    to its single run.

    Consecutive configs with the same field, pulse_area and phase_points
    share one pulse stage. Each config's wait then acts on its own row of
    (rows, pairs) arrays through a few scalars, and _fringe validates and
    reads out the rows together, in blocks of at most _BLOCK_ENTRIES pair
    entries and phase points (one row at least). Each stage runs on every
    row of a block before the next stage, so the first row that fails the
    first failing stage raises.
    """
    results: list[FringeResult] = []
    for _, rows in itertools.groupby(cfgs, lambda cfg: (cfg.field, cfg.pulse_area, cfg.phase_points)):
        rows = list(rows)
        pulse, u_g, u_e = _quantized_pulse(rows[0])
        size = max(1, _BLOCK_ENTRIES // max(np.size(u_g), rows[0].phase_points))
        for lo in range(0, len(rows), size):
            waited = _quantized_wait(rows[lo:lo + size], pulse)
            if lo + size >= len(rows):
                pulse = None  # frees the shared pulse before the group's last readout
            results += _fringe(*waited, u_g, u_e, rows[0].phases)
            del waited  # before the next block's wait allocates its own
    return results


def _quantized_pulse(cfg: RamseyConfig) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """(gg, ee, eg) of the pairs k = 0..cutoff() after the first pulse,
    and the |g> row (u_g, u_e) of the second pulse on each pair."""
    cutoff = cfg.cutoff()
    theta = np.sqrt(np.arange(cutoff + 1)) * (cfg.pulse_area / (2.0 * math.sqrt(cfg.field.dominant_n)))
    c, s = np.cos(theta), np.sin(theta)
    weights = cfg.field.weights(cutoff)
    return (weights * c * c, weights * s * s, -1j * weights * s * c), c, -1j * s


def _quantized_wait(rows: Sequence[RamseyConfig], pulse: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """(gg, ee, eg) of the pulsed pairs after each config's wait, as
    (rows, pairs) arrays. A row with no wait gets the factors (0, 1, 1),
    which keep the pulsed pairs exactly, whatever its dephasing rate."""
    gg, ee, eg = pulse
    factors = []
    for cfg in rows:
        # gaps across |e,k-1><g,k|: omega0 on the atom, -omega on the field, for every k
        rate = cfg.decoherence.decay_rate({"atom": cfg.omega0, "field": -(cfg.omega0 - cfg.detuning)})
        if cfg.wait > 0.0:
            factors.append((
                -math.expm1(-cfg.spontaneous_rate * cfg.wait),
                math.exp(-cfg.spontaneous_rate * cfg.wait),
                math.exp(-0.5 * cfg.spontaneous_rate * cfg.wait - rate * cfg.wait)
                * cmath.exp(-1j * cfg.detuning * cfg.wait),
            ))
        else:  # an infinite rate times a zero wait is NaN
            factors.append((0.0, 1.0, 1.0))
    lost, kept, coherence = (np.array(column)[:, None] for column in zip(*factors))
    waited = np.repeat(gg[None], len(rows), axis=0), ee * kept, eg * coherence
    # decay moves the |e,k> population of pair k+1 onto |g,k>
    waited[0][:, :-1] += lost * ee[1:]
    return waited


def run_ramsey_semiclassical(cfg: RamseyConfig) -> FringeResult:
    """Ramsey fringe with ideal classical pulses.

    Pulses are instantaneous rotations by pulse_area about x (the second
    pulse is the inverse rotation, so a zero accumulated phase returns
    the atom to the ground state). Spontaneous decay during the wait is
    the exact amplitude-damping channel, which stays on the atom's one
    pair (|g>, |e>). The wait runs in the frame rotating at the field
    frequency omega0 - detuning: the drive is detuning*|e><e| while the
    dephasing block keeps the laboratory gap omega0, giving
    p_g(phi) = (1 + V cos(phi - detuning*wait))/2 with
    V = exp(-sigma*omega0^2*wait) * exp(-gamma_sp*wait/2). The classical
    field is not part of the state: only {atom} blocks are supported. The
    atom is one pair, so a sweep runs this once per row rather than
    through run_ramsey_batch.
    """
    # raises unless every block is {atom}, whose Hamiltonian is omega0*|e><e|
    cfg.decoherence.decay_rate({"atom": cfg.omega0})
    blocks = tuple(np.diag([0.0, cfg.omega0]) for _ in cfg.decoherence.blocks)
    c, s = math.cos(cfg.pulse_area / 2.0), math.sin(cfg.pulse_area / 2.0)
    lost = -math.expm1(-cfg.spontaneous_rate * cfg.wait)
    kept = math.exp(-0.5 * cfg.spontaneous_rate * cfg.wait)
    rho = np.array([[c * c + lost * s * s, 1j * c * s * kept],
                    [-1j * c * s * kept, kept * kept * s * s]])
    rho = evolve_analytic(
        DensityMatrix(rho),
        EvolutionSpec(np.diag([0.0, cfg.detuning]), cfg.wait, cfg.decoherence.sigma, blocks),
    ).entries
    return _fringe(rho[:1, :1], rho[1:, 1:], rho[1:, :1], c, 1j * s, cfg.phases)[0]


def run_ramsey_quantized(cfg: RamseyConfig) -> FringeResult:
    """Ramsey fringe with the driving field kept as a quantized mode, the
    one-row case of run_ramsey_batch.

    The pulses apply the excitation-exchange unitary generated by
    a |e><g| + a^dag |g><e|, held until the rotation angle at the field's
    dominant photon number equals pulse_area; the exchange strength only
    sets that duration and cancels from the result. The free Hamiltonian
    omega0*|e><e| + omega*n, with omega = omega0 - detuning, dephases the
    wait according to the partition. The pulses, the wait, the phase
    shift (injected on |e> before the second, identical pulse) and the
    readout all conserve |e><e| + n, so only the 2x2 blocks on the pairs
    (|g,k>, |e,k-1>), k = 0..cutoff(), are kept, as the arrays gg, ee
    and eg of their entries. No step forms a coherence between two
    pairs, so the field enters only through its photon-number weights,
    and its phase drops out. The pulse rotates pair k by
    theta_k = sqrt(k) * pulse_area / (2*sqrt(dominant_n)),
    spontaneous decay moves the |e,k-1> population onto |g,k-1> and
    scales the pair's coherence by exp(-gamma_sp*t/2), and the wait, in
    the frame rotating at omega, multiplies that coherence by
    exp(-i*detuning*t) and its decay.
    """
    return run_ramsey_batch((cfg,))[0]


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
    mean = _mean_photons(cfg.alpha)
    rate = cfg.decoherence.decay_rate({"arm_c": cfg.mode_frequency, "arm_d": -cfg.mode_frequency})
    fringe = math.exp(-rate * cfg.arm_time) if cfg.arm_time > 0.0 else 1.0
    return MichelsonResult(mean / 2.0 * (1.0 + fringe), mean / 2.0 * (1.0 - fringe))


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
    n = int(cfg.n_atoms)  # a numpy integer would overflow in n * n
    # sigma = 0 is no dephasing even where omega0**2 overflows (0 * inf is NaN)
    grav = cfg.sigma * (cfg.omega0 * cfg.omega0) * (n * n) if cfg.sigma > 0.0 else 0.0
    loss = n * cfg.gamma_sp + cfg.three_body_rate
    rate = grav + loss
    if cfg.wait == 0.0:  # an infinite rate times a zero wait is NaN
        return GhzResult(coherence=0.5, survival=1.0, effective_rate=rate)
    return GhzResult(
        coherence=0.5 * math.exp(-rate * cfg.wait),
        survival=math.exp(-loss * cfg.wait),
        effective_rate=rate,
    )
