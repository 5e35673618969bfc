"""Built-in acceptance suite: one generator per shipped guarantee.

Each criterion re-derives its expected values from closed forms or an
independent brute-force construction, runs the library path, and yields
one `(name, ok)` check per stated tolerance. `run_all` alone judges the
checks: a criterion passes when it yields at least one check and every
check is true, and an exception, even after some checks, fails it. The
CLI `selftest` command and the pytest acceptance module both go through
`run_all`, so the report is the same either way. Every criterion takes
its library runs from one builder per experiment family.
"""

from __future__ import annotations

import io
import json
import math
import time
from collections.abc import Iterator
from contextlib import redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import NamedTuple

import numpy as np

from . import cli
from .constants import NA_MASS, OMEGA_PER_EV, PLANCK_TIME, YEAR_SECONDS
from .core import (
    DensityMatrix,
    _mean_photons,
    fock_cutoff,
    poisson_weights,
    validate_density,
)
from .engine import evolve_analytic, evolve_stepped
from .interferometry import (
    DecoherencePartition,
    FockField,
    GhzConfig,
    MichelsonConfig,
    RamseyConfig,
    run_ghz,
    run_michelson,
    run_ramsey_quantized,
)
from .sensitivity import (
    SpeciesParams,
    cosmic_bound,
    default_design_grids,
    distance_reach,
    ghz_design,
    ghz_design_grid,
    matterwave_bound,
    single_atom_reach,
)

__all__ = ["CriterionResult", "CRITERIA", "run_all", "beamsplitter_sector", "phase_average_check"]


class CriterionResult(NamedTuple):
    cid: int
    description: str
    passed: bool
    details: str
    elapsed: float


def _ramsey(partition: DecoherencePartition, detuning: float = 0.0) -> RamseyConfig:
    """The 1 eV quantized Ramsey run on a 12-photon Fock field, waiting 1 s."""
    return RamseyConfig(omega0=OMEGA_PER_EV, wait=1.0, field=FockField(12), detuning=detuning,
                        decoherence=partition)


def _michelson(partition: DecoherencePartition) -> MichelsonConfig:
    """The Michelson run at alpha = 2 on a 1 eV mode, 1 s per arm."""
    return MichelsonConfig(alpha=2.0, arm_time=1.0, mode_frequency=OMEGA_PER_EV, decoherence=partition)


def _ghz(n_atoms: int, omega0: float, partition: DecoherencePartition) -> GhzConfig:
    """The GHZ run of n_atoms at gap omega0, waiting 1 s."""
    return GhzConfig(n_atoms=n_atoms, omega0=omega0, wait=1.0, decoherence=partition)


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2.0
    return h / np.linalg.norm(h, 2)


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def criterion_01() -> Iterator[tuple[str, bool]]:
    """Stepped integrator matches the closed-form propagator on commuting systems.

    The drive a x I + I x b and its blocks are diagonal in kron(ua, ub),
    the product of the factor eigenbases: the closed form runs on their
    spectra and on the state rotated into that basis, and its result is
    rotated back."""
    rng = np.random.default_rng(20260811)
    for da, db in ((3, 4), (8, 8)):
        a, b = _random_hermitian(rng, da), _random_hermitian(rng, db)
        h_left = np.kron(a, np.eye(db))
        h_right = np.kron(np.eye(da), b)
        drive = h_left + h_right
        rho0 = DensityMatrix(_random_density(rng, da * db))
        (wa, ua), (wb, ub) = np.linalg.eigh(a), np.linalg.eigh(b)
        u = np.kron(ua, ub)
        # the spectra of h_left, h_right and drive in that basis
        w_left, w_right = np.repeat(wa, db), np.tile(wb, da)
        w_drive = w_left + w_right
        rho0_eig = DensityMatrix(u.conj().T @ rho0.entries @ u)
        for blocks, w_blocks in (((h_left, h_right), (w_left, w_right)), ((drive,), (w_drive,))):
            rotated = evolve_analytic(rho0_eig, w_drive, 1.0, 0.1, w_blocks)
            exact = DensityMatrix(u @ rotated.entries @ u.conj().T)
            stepped = evolve_stepped(rho0, drive, 1.0, 0.1, blocks, step=1e-3)
            dist = float(np.linalg.norm(exact.entries - stepped.entries))
            yield f"dim{da * db}_frobenius_{dist:.1e}", dist <= 1e-8
            for state in (exact, stepped):
                try:
                    validate_density(state)
                except Exception:
                    yield f"dim{da * db}_invariants", False
                else:
                    yield f"dim{da * db}_invariants", True


def criterion_02() -> Iterator[tuple[str, bool]]:
    """Two-level coherence decays as 0.5*exp(-sigma*omega0^2*t) to 1e-9."""
    omega0 = OMEGA_PER_EV
    sigma = 1e-33
    w = (0.0, omega0)
    rho0 = DensityMatrix(np.full((2, 2), 0.5))
    worst = 0.0
    for x in np.linspace(0.0, 10.0, 21):
        t = x / (sigma * omega0 * omega0)
        out = evolve_analytic(rho0, w, float(t), sigma, (w,))
        validate_density(out)
        worst = max(worst, abs(abs(out.entries[0, 1]) - 0.5 * math.exp(-x)))
    yield f"decay_law_max_err_{worst:.1e}", worst <= 1e-9


def criterion_03() -> Iterator[tuple[str, bool]]:
    """Global dephasing leaves the resonant quantized Ramsey fringe unchanged."""
    vis = [run_ramsey_quantized(_ramsey(DecoherencePartition.global_over(sigma, "atom", "field"))).visibility
           for sigma in (0.0, 1e-40, 1e-30, 1e-20)]
    spread = max(vis) - min(vis)
    yield f"visibility_spread_{spread:.1e}", spread <= 1e-9


def beamsplitter_sector(n_max: int, total: int) -> np.ndarray:
    """Block on the sector n_c + n_d = total of the balanced beamsplitter
    between two modes truncated at n_max.

    Maps amplitudes in the input-mode basis (a, b) to the arm basis
    (c, d) for a = (c + d)/sqrt(2) and b = (c - d)/sqrt(2); the block is
    exactly unitary, and its dagger recombines. Rows (arm basis) and
    columns (input basis) both run over the first mode's photon number
    max(0, total - n_max) .. min(n_max, total); for total <= n_max that
    is 0..total, and the block does not depend on n_max.
    """
    ncs = range(max(0, total - n_max), min(n_max, total) + 1)
    m = len(ncs)
    gen = np.zeros((m, m))
    for j, nc in enumerate(ncs):
        nd = total - nc
        if nc + 1 <= n_max and nd - 1 >= 0:
            gen[j + 1, j] = math.sqrt((nc + 1) * nd)  # c^dag d amplitude
    gen = gen - gen.T
    theta = math.pi / 4.0
    lam, vec = np.linalg.eigh(1j * gen)  # exp(theta*gen) = exp(-i*theta*(i*gen))
    u = (vec * np.exp(-1j * theta * lam)) @ vec.conj().T
    sign = np.array([(-1.0) ** (total - nc) for nc in ncs])  # pi phase on mode d
    return sign[:, None] * u


def _michelson_sectors(cfg: MichelsonConfig) -> tuple[float, float]:
    """Brute-force Michelson output means, one photon-number sector at a time:
    the arm block of total photon number N is p_N (w_N[:, N] w_N[:, N]^dag),
    decayed by each coherence's own arm gaps, with p_N the Poisson weight
    and w_N the beamsplitter block; the output populations are
    diag(w_N^dag rho_N w_N). validate_density checks the blocks together
    as the diagonal blocks of one state, never forming it."""
    n_max = fock_cutoff(cfg.alpha)
    weights = poisson_weights(cfg.alpha, n_max)
    # arm_c gap across |j, N-j><k, N-k| is omega*(j-k); arm_d's is its negative
    shift = cfg.mode_frequency * np.subtract.outer(np.arange(n_max + 1), np.arange(n_max + 1))
    rate = cfg.decoherence.decay_rate({"arm_c": shift, "arm_d": -shift})
    decay = np.broadcast_to(np.exp(-rate * cfg.arm_time), shift.shape)
    sectors = []
    mean_a, mean_b = 0.0, 0.0
    for n in range(n_max + 1):
        w = beamsplitter_sector(n_max, n)
        rho = weights[n] * np.outer(w[:, n], w[:, n].conj()) * decay[: n + 1, : n + 1]
        sectors.append(DensityMatrix(rho))
        populations = np.real(np.sum(w.conj() * (rho @ w), axis=0))
        mean_a += float(populations @ np.arange(n + 1))
        mean_b += float(populations @ np.arange(n, -1, -1))
    validate_density(*sectors)
    return mean_a, mean_b


def criterion_04() -> Iterator[tuple[str, bool]]:
    """Michelson output: global dephasing invisible, per-arm dephasing splits 50/50;
    the closed form agrees with the sector-by-sector brute force."""
    omega = OMEGA_PER_EV
    sigma_full = 50.0 / (omega * omega)  # complete dephasing over one arm time
    _, dark = run_michelson(_michelson(DecoherencePartition.global_over(sigma_full, "arm_c", "arm_d")))
    yield f"global_dark_port_{dark:.1e}", dark <= 1e-8
    local_a, local_b = run_michelson(_michelson(DecoherencePartition.local_over(sigma_full, "arm_c", "arm_d")))
    yield "local_mean_a", abs(local_a - 2.0) <= 1e-6
    yield "local_mean_b", abs(local_b - 2.0) <= 1e-6
    sigma = 0.2 / (omega * omega)
    for name, partition in (
        ("global", DecoherencePartition.global_over(sigma, "arm_c", "arm_d")),
        ("local", DecoherencePartition.local_over(sigma, "arm_c", "arm_d")),
        ("arm_c", DecoherencePartition.local_over(sigma, "arm_c")),
    ):
        cfg = _michelson(partition)
        for got, want in zip(run_michelson(cfg), _michelson_sectors(cfg)):
            yield f"sectors_{name}", abs(got - want) <= 1e-13 * max(1.0, abs(want))


def phase_average_check(alpha: complex, n_max: int) -> float:
    """Distance between the dephased-coherent-state mixture and its phase average.

    Compares the diagonal Poissonian Fock mixture against the uniform
    average of |alpha e^{i phi}> projectors over the phase circle,
    computed by quadrature with 4*n_max nodes (at least one), which is
    exact for the Fock coherences up to n_max. Each rotated state has
    the amplitudes sqrt(p_n) e^{i n (arg(alpha) + phi)}, with p_n from
    poisson_weights. Returns the Frobenius distance (identically zero
    up to rounding).
    """
    nodes = max(1, 4 * n_max)
    ns = np.arange(n_max + 1, dtype=float)
    mean = _mean_photons(alpha)
    if mean == 0.0:
        weights = np.zeros(n_max + 1)
        weights[0] = 1.0
    else:
        logs = -mean + ns * math.log(mean) - np.array([math.lgamma(n + 1.0) for n in ns])
        weights = np.exp(logs)
        weights = weights / float(np.sum(weights))
    mixture = np.diag(weights).astype(complex)

    root = np.sqrt(poisson_weights(alpha, n_max))
    avg = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for k in range(nodes):
        phi = 2.0 * math.pi * k / nodes
        amps = root * np.exp(1j * ns * (np.angle(alpha) + phi))
        avg += np.outer(amps, amps.conj())
    avg /= nodes
    return float(np.linalg.norm(mixture - avg))


def criterion_05() -> Iterator[tuple[str, bool]]:
    """Dephased coherent state equals its uniform phase average."""
    dist = phase_average_check(2.0, 40)
    yield f"phase_diffusion_distance_{dist:.1e}", dist <= 1e-8


def criterion_06() -> Iterator[tuple[str, bool]]:
    """GHZ dephasing rate scales as N^2; brute force agrees for N <= 4."""
    atoms = DecoherencePartition.global_over(0.25, "atoms")
    base = run_ghz(_ghz(1, 2.0, atoms)).effective_rate
    for n in (2, 3, 8, 10, 100, 100000):
        rate = run_ghz(_ghz(n, 2.0, atoms)).effective_rate
        yield f"ratio_n{n}", rate / base == float(n * n)

    omega0 = 1.5e15
    sigma = 1e-32
    atoms = DecoherencePartition.global_over(sigma, "atoms")
    for n in (2, 3, 4):
        # each excited atom adds omega0: the drive is omega0 * popcount(k)
        w = [omega0 * k.bit_count() for k in range(2**n)]
        psi = np.zeros(2**n, dtype=complex)
        psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
        rho0 = DensityMatrix(np.outer(psi, psi.conj()))
        out = evolve_analytic(rho0, w, 1.0, sigma, (w,))
        validate_density(out)
        sim = abs(out.entries[0, -1])
        model = run_ghz(_ghz(n, omega0, atoms)).coherence
        yield f"brute_force_n{n}", abs(sim - model) <= 1e-9


def criterion_07() -> Iterator[tuple[str, bool]]:
    """Strontium working point reproduces the design numbers."""
    sr = cli.SPECIES["Sr"]
    closed = ghz_design(sr)
    grid = ghz_design_grid(sr, *default_design_grids(sr))
    yield "gamma_min_closed", abs(closed.gamma_min / 1e-8 - 1.0) <= 1e-12
    yield "v_opt", abs(closed.v_opt / 1e-14 - 1.0) <= 1e-12
    yield "n_opt", abs(closed.n_opt / 1e5 - 1.0) <= 1e-12
    yield "n_opt_vs_grid", abs(math.log(closed.n_opt / grid.n_opt)) <= math.log(1.5)
    yield "sigma_min_window", 1e-39 <= closed.sigma_min <= 1e-38
    reach = distance_reach(closed.gamma_min, sr.gamma_sp, 1.0)
    yield "l_decoherence", abs(reach.l_decoherence / 3e6 - 1.0) <= 0.01
    yield "creation_constraint", closed.creation_constraint_ok


def criterion_08() -> Iterator[tuple[str, bool]]:
    """Closed-form optimizer agrees with the grid oracle over random species."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        p = SpeciesParams(
            gamma_sp=10.0 ** rng.uniform(-6.0, 0.0),
            delta_e=1.0,
            kappa=10.0 ** rng.uniform(-20.0, -14.0),
            k3=10.0 ** rng.uniform(-44.0, -38.0),
        )
        closed = ghz_design(p)
        grid = ghz_design_grid(p, *default_design_grids(p))
        worst = max(worst, abs(closed.gamma_min / grid.gamma_min - 1.0))
    yield f"worst_gamma_min_rel_{worst:.1e}", worst <= 0.05


def criterion_09() -> Iterator[tuple[str, bool]]:
    """Single-atom reach for a mHz-resolved 1 eV superposition."""
    sigma = single_atom_reach(1e-3, 1.0)
    yield "value_4.33e-34", abs(sigma / 4.33e-34 - 1.0) <= 1e-3
    yield "within_decade_of_1e-33", 1e-34 <= sigma <= 1e-32


def criterion_10() -> Iterator[tuple[str, bool]]:
    """Sodium-beam interferometry excludes short-scale dephasing at the Planck benchmark."""
    bound = matterwave_bound(NA_MASS, 3000.0, 20e-6, PLANCK_TIME)
    yield "rate_window", 3e7 <= bound.rate <= 1.5e8
    yield "length_window", 20e-6 <= bound.decoherence_length <= 100e-6
    yield "excluded", bound.excluded
    quiet = matterwave_bound(NA_MASS, 3000.0, 20e-6, 0.0)
    yield "sigma_zero_not_excluded", not quiet.excluded and math.isinf(quiet.decoherence_length)


def criterion_11() -> Iterator[tuple[str, bool]]:
    """Cosmic-age coherence bound lands at a few meV for Planck-scale sigma."""
    de = cosmic_bound(PLANCK_TIME, 1e10 * YEAR_SECONDS)
    yield f"meV_window_{de * 1e3:.2f}", 2e-3 <= de <= 10e-3


def criterion_12() -> Iterator[tuple[str, bool]]:
    """Detuned global dephasing decays the fringe at sigma*detuning^2."""
    for ratio in (1e-3, 1e-2):
        delta = ratio * OMEGA_PER_EV
        sigma = math.log(4.0) / (delta * delta)  # a factor 4 over the 1 s wait
        # the detuning phase shifts the fringe identically for both runs,
        # so the sampled-visibility ratio isolates the decay factor
        runs = (_ramsey(DecoherencePartition.global_over(sig, "atom", "field"), delta) for sig in (sigma, 0.0))
        dephased, clean = (run_ramsey_quantized(cfg).visibility for cfg in runs)
        measured = -math.log(dephased / clean)  # per second of the 1 s wait
        yield f"rate_ratio_{ratio:g}", abs(measured / (sigma * delta * delta) - 1.0) <= 1e-6


def criterion_13() -> Iterator[tuple[str, bool]]:
    """CLI outputs are byte-identical across runs and round-trip through JSON."""
    def capture(argv: list[str]) -> int:
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    with TemporaryDirectory() as tmp:
        runs = {
            "design": ["design", "--species", "Sr"],
            "bounds": ["bounds", "--cosmic", "--sigma", "5.391247e-44", "--age-years", "1e10"],
            "ramsey": ["ramsey", "--wait", "0.5", "--sigma", "1e-34"],
        }
        for name, argv in runs.items():
            outs = []
            for attempt in (1, 2):
                base = Path(tmp) / f"{name}_{attempt}"
                code = capture(argv + ["--out", str(base)])
                yield f"{name}_exit_{attempt}", code == 0
                outs.append(
                    (
                        Path(str(base) + ".json").read_bytes(),
                        Path(str(base) + ".csv").read_bytes(),
                    )
                )
            yield f"{name}_json_identical", outs[0][0] == outs[1][0]
            yield f"{name}_csv_identical", outs[0][1] == outs[1][1]
            parsed = json.loads(outs[0][0].decode("utf-8"))
            again = json.loads(
                json.dumps(parsed, sort_keys=True, indent=2, allow_nan=False).encode("utf-8")
            )
            yield f"{name}_json_roundtrip", parsed == again


CRITERIA: tuple[tuple[int, str, object], ...] = (
    (1, "stepped vs analytic propagator agreement", criterion_01),
    (2, "single-superposition decay law", criterion_02),
    (3, "global-dephasing invariance of the quantized Ramsey fringe", criterion_03),
    (4, "Michelson global invariance, per-arm 50/50 split and sector brute force", criterion_04),
    (5, "phase-diffusion identity for dephased coherent states", criterion_05),
    (6, "GHZ N^2 rate law and small-N brute force", criterion_06),
    (7, "strontium design point", criterion_07),
    (8, "closed-form vs grid-oracle design agreement", criterion_08),
    (9, "single-atom sigma reach", criterion_09),
    (10, "matter-wave exclusion bound", criterion_10),
    (11, "cosmic-age coherence bound", criterion_11),
    (12, "detuned global dephasing rate", criterion_12),
    (13, "CLI determinism and JSON round-trip", criterion_13),
)


def run_all(ids: set[int] | None = None) -> list[CriterionResult]:
    """Run the selected criteria (all by default) and judge each one: it
    passes when it yields at least one check and every check is true."""
    results = []
    for cid, description, func in CRITERIA:
        if ids is not None and cid not in ids:
            continue
        start = time.perf_counter()
        try:
            checks = list(func())
            failed = [name for name, ok in checks if not ok]
            passed = bool(checks) and not failed
            details = "failed: " + ", ".join(failed) if failed else f"{len(checks)} checks"
        except Exception as exc:  # a crash, even after some checks, fails the criterion
            passed, details = False, f"error: {exc}"
        results.append(
            CriterionResult(cid, description, passed, details, time.perf_counter() - start)
        )
    return results
