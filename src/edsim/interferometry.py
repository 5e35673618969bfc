"""End-to-end interference experiments under configurable energy dephasing.

Three experiment families are covered: Ramsey interferometry on a
two-level atom (with the driving field treated classically or as a
quantized mode), a balanced Michelson interferometer fed with a coherent
state, and the dephasing of N-atom GHZ states. Each run returns fringe
data, output photon numbers or coherence decay figures that can be
compared against the closed-form decay laws. A Ramsey run, like a row of
iter_ramsey_batch, returns FringeResult(visibility, p_g over cfg.phases).

A partition decides which subsystems lose energy coherence jointly, and
every runner takes its rate from one law and one table of gaps (EXPERIMENTS),
decay_rate(gaps) = sigma * DecoherencePartition.strength(gaps): a single
block over all labels (global) leaves every interference observable
unchanged, while per-subsystem blocks (local) damp the fringes. D needs
no sigma, so a Ramsey batch takes it once. Configs and fields check
their values. Each config field changes a result, save that the
semiclassical runner never reads RamseyConfig.field.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .constants import MAX_PHASE_POINTS, RAMSEY_MAX_CUTOFF
from .core import DensityMatrix, _mean_photons, fock_cutoff, poisson_weights, validate_pairs
from .engine import evolve_analytic

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
    "EXPERIMENTS",
    "run_ramsey_semiclassical",
    "run_ramsey_quantized",
    "iter_ramsey_batch",
    "run_michelson",
    "run_ghz",
]


def _require_finite(*values: complex) -> None:
    if not all(abs(v) <= sys.float_info.max for v in values):  # exact for an int of any size
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
        if not 0.0 <= self.sigma <= sys.float_info.max:
            raise ValueError("sigma must be finite and non-negative")
        blocks = tuple(self.blocks)  # read once: a generator of blocks is used up
        if any(isinstance(labels, str) for labels in blocks):
            raise ValueError(f"a partition block must be a set of labels, not a str: {blocks!r}")
        object.__setattr__(self, "blocks", tuple(map(frozenset, blocks)))  # hashable, like a batch key
        seen: frozenset[str] = frozenset()
        for labels in self.blocks:
            if seen & labels:
                raise ValueError("partition blocks must be disjoint")
            seen |= labels

    def strength(self, gaps: Mapping[str, float | np.ndarray]) -> float | np.ndarray:
        """D = sum over blocks of (sum of the block's label gaps)**2.

        `gaps` maps each subsystem label the experiment supports to that
        subsystem's free-energy gap (rad/s) across a coherence, a scalar
        or an array of them; D does not depend on sigma. Terms are added
        in the mapping's order. A block naming any other label, or no
        label, raises ValueError. A squared gap beyond double range gives
        an infinite D without a warning.
        """
        total = 0.0
        with np.errstate(over="ignore"):
            for labels in self.blocks:
                if not labels or not labels <= gaps.keys():
                    raise ValueError(f"unsupported dephasing block {sorted(labels)}")
                gap = sum(g for lab, g in gaps.items() if lab in labels)
                total = total + gap * gap
        return total

    def decay_rate(self, gaps: Mapping[str, float | np.ndarray]) -> float | np.ndarray:
        """sigma * strength(gaps), the rate of the coherence's decay
        exp(-rate*t), or 0.0 at sigma = 0 even for an infinite D."""
        d = self.strength(gaps)  # raises whatever sigma is
        with np.errstate(over="ignore"):
            return self.sigma * d if self.sigma > 0.0 else 0.0

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
        if not abs(self.detuning * self.wait) <= sys.float_info.max:
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


class FringeResult(NamedTuple):
    """A Ramsey fringe: its visibility and the read-only ground-state
    probabilities p_g over the config's phases."""

    visibility: float
    p_g: np.ndarray


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


class MichelsonResult(NamedTuple):
    """Output photon means of the two recombined modes."""

    mean_photons_out_a: float
    mean_photons_out_b: float


@dataclass(frozen=True)
class GhzConfig:
    """N-atom GHZ superposition held for a waiting period."""

    n_atoms: int
    omega0: float                     # single-atom gap, rad/s
    wait: float
    decoherence: DecoherencePartition = DecoherencePartition.none()  # over the one label "atoms"
    gamma_sp: float = 0.0             # per-atom spontaneous loss rate, 1/s
    three_body_rate: float = 0.0      # precomputed k3*N^3/V^2 event rate, 1/s

    def __post_init__(self):
        _require_finite(self.omega0, self.wait, self.gamma_sp, self.three_body_rate)
        if isinstance(self.n_atoms, bool) or not isinstance(self.n_atoms, numbers.Integral):
            raise ValueError(f"n_atoms must be an integer, got {self.n_atoms!r}")
        if self.n_atoms < 1:
            raise ValueError("need at least one atom")
        if self.n_atoms > sys.float_info.max:
            raise ValueError("n_atoms is beyond double range")
        if min(self.wait, self.gamma_sp, self.three_body_rate) < 0.0:
            raise ValueError("rates and times must be non-negative")


class GhzResult(NamedTuple):
    coherence: float
    survival: float
    effective_rate: float


# each experiment family's subsystem labels, and its config's gaps (rad/s) on them, in label
# order, across the coherence its readout sees (gaps() maps them for strength): the Ramsey pair
# |e,k-1><g,k|, the bare atom's |e><g|, a photon moved between the Michelson arms, the GHZ branches
EXPERIMENTS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "ramsey_quantized": (("atom", "field"), lambda cfg: (cfg.omega0, -(float(cfg.omega0) - cfg.detuning))),
    "ramsey_semiclassical": (("atom",), lambda cfg: (cfg.omega0,)),
    "michelson": (("arm_c", "arm_d"), lambda cfg: (cfg.mode_frequency, -cfg.mode_frequency)),
    "ghz": (("atoms",), lambda cfg: (float(cfg.n_atoms) * cfg.omega0,)),
}


def gaps(experiment: str, cfg) -> dict[str, float]:
    labels, gaps_of = EXPERIMENTS[experiment]  # floats: an integer gap's square may leave double range
    return {label: float(gap) for label, gap in zip(labels, gaps_of(cfg))}


def _exponent(rate: float, t: float) -> float:
    """rate * t, the exponent of every decay exp(-rate*t), or 0.0 at t = 0 even for an infinite rate."""
    return rate * t if t > 0.0 else 0.0


def _damping(gamma: float, t: float, rate: float) -> tuple[float, float, float]:
    """Amplitude damping at gamma over t: |e>'s lost and kept shares, and its coherence, dephased at rate."""
    gt = float(gamma) * t  # a float, as the product of float inputs is: an int one may leave double range
    return -math.expm1(-gt), math.exp(-gt), math.exp(-0.5 * gt - _exponent(rate, t))


def _contrast(hi: float, lo: float) -> float:
    return (hi - lo) / (hi + lo) if hi + lo != 0.0 else 0.0


def _fringe(gg, ee, eg, u_g, u_e, phases) -> Iterator[FringeResult]:
    """Ground-state fringes of waited sector blocks [[gg, eg*], [eg, ee]], in
    closed form: one FringeResult per row of the (rows, pairs) arrays.

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
    p_g.flags.writeable = False  # and so is every row yielded
    return map(FringeResult, map(_contrast, p_g.max(axis=-1).tolist(), p_g.min(axis=-1).tolist()), p_g)


# a block of a Ramsey batch holds at most this many pair entries and phase
# points, or one row where a row alone holds more (RAMSEY_MAX_CUTOFF and
# MAX_PHASE_POINTS bound a row), so a batch needs about one run's memory
# (the shared pulse plus one block)
_BLOCK_ENTRIES = 1 << 16


def iter_ramsey_batch(cfgs: Sequence[RamseyConfig]) -> Iterator[FringeResult]:
    """The quantized Ramsey fringe of every config in order, each equal to
    its single run (run_ramsey_quantized, the one-row case).

    Consecutive configs with the same field, pulse_area and phase_points
    share one pulse stage. Each config's wait then acts on its own row of
    (rows, pairs) arrays through a few scalars, and _fringe validates and
    reads out the rows together, in blocks of at most _BLOCK_ENTRIES pair
    entries and phase points (one row at least). Each stage runs on every
    row of a block before the next stage, so the first row that fails the
    first failing stage raises.
    """
    for _, rows in itertools.groupby(cfgs, lambda cfg: (cfg.field, cfg.pulse_area, cfg.phase_points)):
        rows = list(rows)
        pulse, u_g, u_e = _quantized_pulse(rows[0])
        size = max(1, _BLOCK_ENTRIES // max(np.size(u_g), rows[0].phase_points))
        for lo in range(0, len(rows), size):
            waited = _quantized_wait(rows[lo:lo + size], pulse)
            if lo + size >= len(rows):
                pulse = None  # frees the shared pulse before the group's last readout
            yield from _fringe(*waited, u_g, u_e, rows[0].phases)
            del waited  # before the next block's wait allocates its own


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
    (rows, pairs) arrays, from one strength call per block set."""
    gg, ee, eg = pulse
    labels, gaps_of = EXPERIMENTS["ramsey_quantized"]  # each label's gaps over the rows, as one array
    columns = dict(zip(labels, np.array([gaps_of(cfg) for cfg in rows], dtype=float).T))
    strengths: dict[tuple, list[float]] = {}
    for part in (cfg.decoherence for cfg in rows):  # in row order: the first unsupported block raises
        if part.blocks not in strengths:
            strengths[part.blocks] = part.strength(columns).tolist() if part.blocks else []
    factors = []
    for i, cfg in enumerate(rows):
        part = cfg.decoherence  # rate = decay_rate(gaps), bit for bit (sigma * 0.0 without blocks)
        rate = part.sigma * strengths[part.blocks][i] if part.sigma > 0.0 and part.blocks else 0.0
        lost, kept, coherence = _damping(cfg.spontaneous_rate, cfg.wait, rate)
        factors.append((lost, kept, coherence * cmath.exp(-1j * cfg.detuning * cfg.wait)))
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
    frequency omega0 - detuning: the drive is detuning*|e><e|, the one
    term the engine call carries, while the coherence decays at
    rate = decay_rate({"atom": omega0}), the laboratory gap, giving
    p_g(phi) = (1 + V cos(phi - detuning*wait))/2 with
    V = exp(-rate*wait) * exp(-gamma_sp*wait/2). The classical
    field is not part of the state: only {atom} blocks are supported. The
    atom is one pair, so a sweep runs this once per row rather than
    through iter_ramsey_batch.
    """
    rate = cfg.decoherence.decay_rate(gaps("ramsey_semiclassical", cfg))  # only {atom} blocks pass
    c, s = math.cos(cfg.pulse_area / 2.0), math.sin(cfg.pulse_area / 2.0)
    lost, kept, coherence = _damping(cfg.spontaneous_rate, cfg.wait, rate)
    rho = np.array([[c * c + lost * s * s, 1j * c * s * coherence],
                    [-1j * c * s * coherence, kept * s * s]])
    rho = evolve_analytic(DensityMatrix(rho), (0.0, cfg.detuning), cfg.wait).entries
    return next(_fringe(rho[:1, :1], rho[1:, 1:], rho[1:, :1], c, 1j * s, cfg.phases))


def run_ramsey_quantized(cfg: RamseyConfig) -> FringeResult:
    """Ramsey fringe with the driving field kept as a quantized mode, the
    one-row case of iter_ramsey_batch.

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
    return next(iter_ramsey_batch((cfg,)))


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
    rate = cfg.decoherence.decay_rate(gaps("michelson", cfg))
    fringe = math.exp(-_exponent(rate, cfg.arm_time))
    return MichelsonResult(mean / 2.0 * (1.0 + fringe), mean / 2.0 * (1.0 - fringe))


def run_ghz(cfg: GhzConfig) -> GhzResult:
    """Coherence and survival of an N-atom GHZ state after the wait.

    The dynamics close on the two macroscopic branches, whose gap is
    N*omega0, so one block over the atoms dephases at sigma*N^2*omega0^2;
    any particle loss (spontaneous or three-body, treated as scalar
    event rates) destroys the superposition outright:

        effective_rate = decay_rate({"atoms": N*omega0}) + N*gamma_sp + three_body_rate
        coherence(t)   = 0.5 * exp(-effective_rate * t)
        survival(t)    = exp(-(N*gamma_sp + three_body_rate) * t)
    """
    n = float(cfg.n_atoms)  # a Python float overflows to inf without numpy's warning
    loss = n * cfg.gamma_sp + cfg.three_body_rate
    rate = cfg.decoherence.decay_rate(gaps("ghz", cfg)) + loss
    return GhzResult(
        coherence=0.5 * math.exp(-_exponent(rate, cfg.wait)),
        survival=math.exp(-_exponent(loss, cfg.wait)),
        effective_rate=rate,
    )
