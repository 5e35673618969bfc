"""Seeded command lists for the benchmark's four workloads.

Each workload is one pass: a fixed list of `edsim` argv vectors, built
from `numpy.random.default_rng(seed)` and repeated until the run's time is
up. Every command carries the closed-form expectations of its results (one
result per command, or one per sweep row); edsim sees only the argv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import oracle
from oracle import OMEGA_PER_EV, PHOTON_ATOL, VISIBILITY_ATOL, Expect, close

PHASE_POINTS = 32
SWEEP_ROWS = 12   # rows in each ramsey_sweep sweep


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    expects: tuple[tuple[Expect, ...], ...]  # one tuple per result
    sweep: bool = False                      # results are the summary's "rows"
    known_defect: str = ""                   # why these results are expected to fail today

    @property
    def results(self) -> int:
        return len(self.expects)


def _num(x: float) -> str:
    return repr(float(x))


def _args(**params) -> list[str]:
    out = []
    for key, value in params.items():
        out.append("--" + key.replace("_", "-"))
        if value is not True:
            out.append(value if isinstance(value, str) else _num(value))
    return out


def michelson(rng: np.random.Generator) -> list[Command]:
    """alpha=2 under global and under local dephasing (dim 961). alpha=3
    (dim 1936) is left out: one such command takes about 20 s of CPU time,
    too long for the reference kernel around it to tell the machine's speed
    during it (see README.md)."""
    sigma, omega = 1e-31, OMEGA_PER_EV
    arm_time = float(rng.uniform(0.5, 1.5))
    commands = []
    for alpha, partition in ((2.0, "global"), (2.0, "local")):
        a, b = oracle.michelson_photons(alpha, partition, sigma, omega, arm_time)
        argv = ["michelson", *_args(alpha=alpha, partition=partition, sigma=sigma,
                                    omega=omega, arm_time=arm_time)]
        commands.append(Command(
            f"michelson.alpha{alpha:g}.{partition}", tuple(argv),
            ((Expect("mean_photons_out_a", a, atol=PHOTON_ATOL),
              Expect("mean_photons_out_b", b, atol=PHOTON_ATOL)),),
        ))
    return commands


def ramsey_sweep(rng: np.random.Generator) -> list[Command]:
    """Quantized Fock n=60 Ramsey, local partition: a resonant sigma sweep and
    a detuning sweep at omega0 = 1 eV reaching 1e-3*omega0."""
    omega0, wait, n = OMEGA_PER_EV, 1.0, 60
    base = ["ramsey", *_args(mode="quantized", field="fock", n=str(n), partition="local",
                             omega0=omega0, wait=wait, phase_points=str(PHASE_POINTS))]

    # exponents sigma*(omega0^2 + omega^2)*wait spread over [0, 2]
    sigmas = np.sort(rng.uniform(0.0, 2.0, SWEEP_ROWS)) / (2.0 * omega0 * omega0 * wait)
    sigma_sweep = Command(
        "ramsey.n60.sigma_sweep",
        (*base, "--sweep", "sigma", "--sweep-values", ",".join(_num(s) for s in sigmas)),
        tuple((Expect("visibility", oracle.ramsey_visibility(float(s), omega0, omega0, wait),
                      atol=VISIBILITY_ATOL),) for s in sigmas),
        sweep=True,
    )

    # whole rad/s detunings keep omega0 - detuning exact in double precision,
    # so the expected fringe phase detuning*wait is well defined
    top = round(1e-3 * omega0)
    detunings = np.sort(np.round(top * 10.0 ** rng.uniform(-3.0, 0.0, SWEEP_ROWS - 1)))
    detunings = [float(d) for d in detunings] + [float(top)]
    sigma = float(rng.uniform(0.0, 1.0)) / (2.0 * omega0 * omega0 * wait)
    expects = []
    for d in detunings:
        v = oracle.ramsey_visibility(sigma, omega0, omega0 - d, wait)
        vis = oracle.sampled_visibility(v, oracle.reduced_phase(d, wait), PHASE_POINTS)
        expects.append((Expect("visibility", vis, atol=VISIBILITY_ATOL),))
    detuning_sweep = Command(
        "ramsey.n60.detuning_sweep",
        (*base, "--sigma", _num(sigma), "--sweep", "detuning",
         "--sweep-values", ",".join(_num(d) for d in detunings)),
        tuple(expects), sweep=True,
        known_defect="fringe phase at 1 eV is rounding noise (ROADMAP open item 2)",
    )
    return [sigma_sweep, detuning_sweep]


def ramsey_loss(rng: np.random.Generator) -> list[Command]:
    """Quantized Fock Ramsey with spontaneous decay at n=12 and n=24: the
    stepped integrator path. Two n=12 commands (about 0.6 s each) to one
    n=24 (about 2 s), so that the median command lies inside the n=12 ones
    rather than between the two sizes."""
    omega0, wait, gamma_sp = OMEGA_PER_EV, 1.0, 1e-3
    commands = []
    for n in (12, 12, 24):
        sigma = float(rng.uniform(0.0, 1.0)) / (2.0 * omega0 * omega0 * wait)
        v = oracle.ramsey_visibility(sigma, omega0, omega0, wait, gamma_sp)
        argv = ["ramsey", *_args(mode="quantized", field="fock", n=str(n), partition="local",
                                 omega0=omega0, wait=wait, sigma=sigma, gamma_sp=gamma_sp,
                                 phase_points=str(PHASE_POINTS))]
        commands.append(Command(
            f"ramsey.n{n}.loss", tuple(argv),
            ((Expect("visibility", v, rtol=gamma_sp * wait),),),
        ))
    return commands


def _loguniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _design(rng: np.random.Generator) -> Command:
    p = {
        "gamma_sp": _loguniform(rng, 1e-4, 1e-2),
        "kappa": _loguniform(rng, 1e-18, 1e-16),
        "k3": _loguniform(rng, 1e-42, 1e-40),
        "delta_e": float(rng.uniform(0.5, 2.0)),
    }
    best = oracle.ghz_design(**p)
    expects = [close(f"closed_form.{k}", v) for k, v in best.items()]
    expects += [close(f"grid.{k}", best[k]) for k in ("n_opt", "v_opt", "gamma_min")]
    argv = ["design", *_args(**p, grid_decades=6.0, grid_points_per_decade="50")]
    return Command("design", tuple(argv), (tuple(expects),))


def _bounds(rng: np.random.Generator) -> Command:
    p = {
        "sigma": _loguniform(rng, 1e-45, 1e-42),
        "age_years": _loguniform(rng, 1e9, 1e10),
        "mass": _loguniform(rng, 1e-26, 1e-24),
        "velocity": float(rng.uniform(100.0, 3000.0)),
        "path_separation": _loguniform(rng, 1e-6, 1e-4),
        "flight_path": float(rng.uniform(0.1, 2.0)),
        "gamma_detectable": _loguniform(rng, 1e-4, 1e-2),
        "delta_e": float(rng.uniform(0.5, 2.0)),
        "gamma": _loguniform(rng, 1e-10, 1e-6),
        "gamma_sp": _loguniform(rng, 1e-4, 1e-2),
        "coherence_time": float(rng.uniform(0.1, 10.0)),
    }
    expects = tuple(
        Expect(k, v) if isinstance(v, bool) else close(k, v) for k, v in oracle.bounds(p).items()
    )
    argv = ["bounds", *_args(single_atom=True, matterwave=True, distance=True, cosmic=True, **p)]
    return Command("bounds", tuple(argv), (expects,))


def _ghz(rng: np.random.Generator) -> Command:
    p = {
        "n": int(rng.integers(2, 61)),
        "omega0": OMEGA_PER_EV * float(rng.uniform(0.5, 2.0)),
        "sigma": _loguniform(rng, 1e-44, 1e-40),
        "gamma_sp": _loguniform(rng, 1e-4, 1e-2),
        "three_body": _loguniform(rng, 1e-4, 1e-2),
        "wait": float(rng.uniform(0.1, 2.0)),
    }
    expects = tuple(close(k, v) for k, v in oracle.ghz(**p).items())
    argv = ["ghz", *_args(n_atoms=str(p["n"]), omega0=p["omega0"], sigma=p["sigma"],
                          gamma_sp=p["gamma_sp"], three_body_rate=p["three_body"], wait=p["wait"])]
    return Command("ghz", tuple(argv), (expects,))


def _semiclassical(rng: np.random.Generator) -> Command:
    # no spontaneous decay: with it the run takes the stepped integrator
    # (~0.1 s) and stops being a short command
    omega0 = OMEGA_PER_EV * float(rng.uniform(0.5, 2.0))
    wait = float(rng.uniform(0.1, 2.0))
    sigma = float(rng.uniform(0.0, 2.0)) / (omega0 * omega0 * wait)
    v = oracle.semiclassical_visibility(sigma, omega0, wait)
    argv = ["ramsey", *_args(mode="semiclassical", partition="local", omega0=omega0,
                             wait=wait, sigma=sigma, gamma_sp=0.0,
                             phase_points=str(PHASE_POINTS))]
    return Command("ramsey.semiclassical", tuple(argv),
                   ((Expect("visibility", v, atol=VISIBILITY_ATOL),),))


# cli_small commands of each kind per pass. By cost they sort ghz < bounds
# < design < semiclassical (about 1.2, 1.5, 3.5 and 4.4 ms); the two cheap
# kinds together match semiclassical's count, so the median command is in
# the middle of the design commands rather than on the edge of two kinds.
CLI_SMALL_MIX = ((_design, 8), (_bounds, 4), (_ghz, 4), (_semiclassical, 8))


def cli_small(rng: np.random.Generator) -> list[Command]:
    """Short commands of four kinds in a seeded order, every one with --out."""
    commands = [make(rng) for make, count in CLI_SMALL_MIX for _ in range(count)]
    order = rng.permutation(len(commands))
    return [commands[i] for i in order]


WORKLOADS = {
    "michelson": michelson,
    "ramsey_sweep": ramsey_sweep,
    "ramsey_loss": ramsey_loss,
    "cli_small": cli_small,
}


def build(workload: str, seed: int) -> list[Command]:
    return WORKLOADS[workload](np.random.default_rng(seed))
