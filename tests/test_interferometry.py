"""Tests for the Ramsey, Michelson and GHZ experiment simulations."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

import edsim.engine
import edsim.interferometry

from edsim.constants import OMEGA_PER_EV
from edsim.core import (
    DensityMatrix,
    Operator,
    beamsplitter_5050,
    coherent_state,
    embed,
    hspace,
    mode_ops,
    partial_trace,
    validate_density,
    validate_state,
)
from edsim.engine import EvolutionSpec, LossChannel, evolve_analytic, evolve_stepped
from edsim.interferometry import (
    CoherentField,
    DecoherencePartition,
    FockField,
    GhzConfig,
    MichelsonConfig,
    RamseyConfig,
    phase_average_check,
    run_ghz,
    run_michelson,
    run_ramsey_quantized,
    run_ramsey_semiclassical,
    split_pulse_ramsey_state,
    visibility,
)

W0 = OMEGA_PER_EV

# 2*pi to 50 digits: reduces phases of 1e12 rad well below 1e-9
TWO_PI = Fraction("6.28318530717958647692528676655900576839433879875021")


def _atom_partition(sigma):
    return DecoherencePartition(sigma, (frozenset({"atom"}),))


class TestDecoherencePartition:
    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError):
            DecoherencePartition(1.0, (frozenset({"a"}), frozenset({"a", "b"})))

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError):
            DecoherencePartition.local_over(sigma, "a", "b")

    def test_block_hamiltonians_sum_free_terms(self):
        space = hspace(a=2, b=3)
        h_a = embed(Operator(hspace(a=2), np.diag([0.0, 1.0])), space)
        h_b = embed(Operator(hspace(b=3), np.diag([0.0, 2.0, 4.0])), space)
        free = {"a": h_a, "b": h_b}
        (total,) = DecoherencePartition.global_over(1.0, "a", "b").block_hamiltonians(free)
        assert np.array_equal(total.entries, (h_a + h_b).entries)
        local = DecoherencePartition.local_over(1.0, "b", "a").block_hamiltonians(free)
        assert [b.entries.tolist() for b in local] == [h_b.entries.tolist(), h_a.entries.tolist()]
        assert DecoherencePartition.none().block_hamiltonians(free) == ()


class TestVisibility:
    def test_full_fringe(self):
        phis = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
        points = [(p, 0.5 * (1.0 + math.cos(p))) for p in phis]
        assert abs(visibility(points) - 1.0) <= 1e-12

    def test_flat_scan(self):
        assert visibility([(0.0, 0.5), (1.0, 0.5), (2.0, 0.5)]) == 0.0

    def test_half_contrast(self):
        phis = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
        points = [(p, 0.5 * (1.0 + 0.5 * math.cos(p))) for p in phis]
        assert abs(visibility(points) - 0.5) <= 1e-12

    def test_all_zero(self):
        assert visibility([(0.0, 0.0), (1.0, 0.0)]) == 0.0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            visibility([(0.0, 1.0)])


class TestRamseySemiclassical:
    def test_ideal_fringe(self):
        cfg = RamseyConfig(omega0=W0, wait=1.0, decoherence=DecoherencePartition.none())
        result = run_ramsey_semiclassical(cfg)
        assert abs(result.visibility - 1.0) <= 1e-12
        by_phi = dict(result.points)
        assert abs(by_phi[0.0] - 1.0) <= 1e-12  # zero phase returns to ground

    def test_half_life_visibility(self):
        sigma = math.log(2.0) / (W0 * W0)
        cfg = RamseyConfig(omega0=W0, wait=1.0, decoherence=_atom_partition(sigma))
        assert abs(run_ramsey_semiclassical(cfg).visibility - 0.5) <= 1e-9

    def test_complete_dephasing_is_fringeless_mixture(self):
        sigma = 50.0 / (W0 * W0)
        cfg = RamseyConfig(omega0=W0, wait=1.0, decoherence=_atom_partition(sigma))
        result = run_ramsey_semiclassical(cfg)
        assert result.visibility <= 1e-10
        for _, p in result.points:
            assert abs(p - 0.5) <= 1e-10

    def test_closed_form_with_damping(self):
        # oracle: V = exp(-sigma*w0^2*t) * exp(-gamma*t/2), fringe (1+V cos phi)/2;
        # the second case decays far beyond any fixed-step budget: no fringe left
        sigma = math.log(2.0) / (W0 * W0)
        for gamma, wait in ((0.3, 1.0), (1e5, 100.0)):
            cfg = RamseyConfig(
                omega0=W0, wait=wait, decoherence=_atom_partition(sigma), spontaneous_rate=gamma
            )
            result = run_ramsey_semiclassical(cfg)
            expected_v = 0.5**wait * math.exp(-gamma * wait / 2.0)
            assert abs(result.visibility - expected_v) <= 1e-9
            for phi, p in result.points:
                assert abs(p - 0.5 * (1.0 + expected_v * math.cos(phi))) <= 1e-9

    def test_rejects_field_blocks(self):
        cfg = RamseyConfig(
            omega0=W0, wait=1.0,
            decoherence=DecoherencePartition.global_over(1e-30, "atom", "field"),
        )
        with pytest.raises(ValueError):
            run_ramsey_semiclassical(cfg)


class TestRamseyQuantized:
    def test_global_partition_leaves_visibility_invariant(self):
        vis = []
        for sigma in (0.0, 1e-40, 1e-30, 1e-20):
            cfg = RamseyConfig(
                omega0=W0, wait=1.0, field=FockField(12),
                decoherence=DecoherencePartition.global_over(sigma, "atom", "field"),
            )
            vis.append(run_ramsey_quantized(cfg).visibility)
        assert max(vis) - min(vis) <= 1e-9

    def test_local_partition_halves_visibility(self):
        # oracle: the surviving pair decays with the summed block gaps
        # sigma*(w0^2 + w^2); tuned here to exactly one half-life
        sigma = math.log(2.0) / (2.0 * W0 * W0)
        base = RamseyConfig(
            omega0=W0, wait=1.0, field=FockField(12),
            decoherence=DecoherencePartition.none(),
        )
        v0 = run_ramsey_quantized(base).visibility
        cfg = RamseyConfig(
            omega0=W0, wait=1.0, field=FockField(12),
            decoherence=DecoherencePartition.local_over(sigma, "atom", "field"),
        )
        v = run_ramsey_quantized(cfg).visibility
        assert abs(v - 0.5 * v0) <= 1e-6

    def test_atom_only_block_rate(self):
        sigma = math.log(2.0) / (W0 * W0)
        cfg = RamseyConfig(
            omega0=W0, wait=1.0, field=FockField(12),
            decoherence=DecoherencePartition(sigma, (frozenset({"atom"}),)),
        )
        assert abs(run_ramsey_quantized(cfg).visibility - 0.5) <= 1e-6

    def test_coherent_field_visibility_matches_pair_model(self):
        # oracle: each photon-number pair rotates by pulse_area*sqrt(n/n_dom),
        # giving V = A/(1-A) with A = sum_n w_n sin(theta_n)^2 / 2; the
        # value at |alpha|^2 = 25 calibrates the frozen threshold below
        alpha = 5.0
        cfg = RamseyConfig(
            omega0=W0, wait=0.0, field=CoherentField(alpha),
            decoherence=DecoherencePartition.none(),
        )
        result = run_ramsey_quantized(cfg)
        n_max = cfg.cutoff()
        weights = np.abs(coherent_state(alpha, n_max).amplitudes) ** 2
        ns = np.arange(n_max + 1)
        theta = (math.pi / 2.0) * np.sqrt(ns / 25.0)
        a = float(np.sum(weights * np.sin(theta) ** 2) / 2.0)
        assert abs(result.visibility - a / (1.0 - a)) <= 1e-9
        assert 0.95 <= result.visibility <= 0.96

    def test_fock_input_support_stays_on_energy_pair(self):
        # excitation exchange closes on {|g,N>, |e,N-1>}; rebuild the
        # sequence from primitives and bound the leakage
        n = 12
        n_max = 13
        space = hspace(atom=2, field=n_max + 1)
        a_op, num_op = mode_ops(n_max, label="field")
        sm = np.array([[0.0, 1.0], [0.0, 0.0]])
        h_jc = np.kron(sm.conj().T, a_op.entries) + np.kron(sm, a_op.entries.conj().T)
        w, v = np.linalg.eigh(h_jc)
        t_pulse = (math.pi / 2.0) / (2.0 * math.sqrt(n))
        pulse = (v * np.exp(-1j * w * t_pulse)) @ v.conj().T
        psi = np.zeros(space.total_dim, dtype=complex)
        psi[0 * (n_max + 1) + n] = 1.0  # |g, N>
        rho = np.outer(psi, psi.conj())
        h_free = W0 * (
            embed(Operator(hspace(atom=2), np.diag([0.0, 1.0])), space).entries
            + embed(num_op, space).entries
        )
        rho = pulse @ rho @ pulse.conj().T
        drive = Operator(space, h_free)
        rho = evolve_analytic(
            DensityMatrix(space, rho),
            EvolutionSpec(drive, 1.0, 1e-30, (drive,)),
        ).entries
        rho = pulse @ rho @ pulse.conj().T
        populations = np.real(np.diag(rho))
        allowed = {0 * (n_max + 1) + n, 1 * (n_max + 1) + n - 1}
        leakage = sum(p for i, p in enumerate(populations) if i not in allowed)
        assert leakage <= 1e-10

    def test_detuned_global_rate(self):
        # the two total-energy branches differ by the detuning, so global
        # dephasing decays the fringe at sigma*detuning^2; the detuning
        # phase offset cancels in the visibility ratio
        delta = 1e-3 * W0
        sigma = math.log(4.0) / (delta * delta)

        def vis(sig):
            cfg = RamseyConfig(
                omega0=W0, wait=1.0, field=FockField(12), detuning=delta,
                decoherence=DecoherencePartition.global_over(sig, "atom", "field"),
            )
            return run_ramsey_quantized(cfg).visibility

        measured = -math.log(vis(sigma) / vis(0.0))
        assert abs(measured / (sigma * delta * delta) - 1.0) <= 1e-6

    def test_damping_is_frequency_independent(self):
        # the damping channel commutes with the free phases, so the
        # visibility must not depend on the absolute transition frequency
        vis = []
        for omega0 in (1.0, W0):
            cfg = RamseyConfig(
                omega0=omega0, wait=1.0, field=FockField(2), n_max=3,
                decoherence=DecoherencePartition.global_over(0.0, "atom", "field"),
                spontaneous_rate=0.3,
            )
            vis.append(run_ramsey_quantized(cfg).visibility)
        assert abs(vis[0] - vis[1]) <= 1e-12

    @pytest.mark.parametrize("partition", [
        DecoherencePartition.local_over(0.05, "atom", "field"),
        DecoherencePartition.global_over(0.05, "atom", "field"),
    ], ids=["local", "global"])
    def test_lossy_wait_matches_stepped_generator(self, partition):
        # oracle: RK4 on the full generator (drive, blocks and damping
        # together) against the damping channel then the closed-form wait
        omega0, detuning, gamma, n_max = 3.0, 1.3, 0.4, 3
        space = hspace(atom=2, field=n_max + 1)
        excited = embed(Operator(hspace(atom=2), np.diag([0.0, 1.0])), space)
        lower = embed(Operator(hspace(atom=2), np.array([[0.0, 1.0], [0.0, 0.0]])), space)
        free = {
            "atom": omega0 * excited,
            "field": (omega0 - detuning) * embed(mode_ops(n_max, label="field")[1], space),
        }
        drive = detuning * excited
        g = np.random.default_rng(7).normal(size=(8, 16)).view(complex)
        rho0 = g @ g.conj().T / np.trace(g @ g.conj().T).real
        waited = edsim.interferometry._wait_segment(rho0, drive, partition, free, gamma, lower, 1.0)
        spec = EvolutionSpec(drive, 1.0, partition.sigma, partition.block_hamiltonians(free),
                             (LossChannel(gamma, lower),), step=1e-3)
        stepped = evolve_stepped(DensityMatrix(space, rho0), spec)
        assert np.linalg.norm(waited - stepped.entries) <= 1e-8

    def test_cutoff_violation(self):
        cfg = RamseyConfig(omega0=W0, wait=1.0, field=FockField(12), n_max=9)
        with pytest.raises(ValueError):
            run_ramsey_quantized(cfg)

    @pytest.mark.parametrize("runner,labels", [
        (run_ramsey_quantized, {"nope"}),
        (run_ramsey_quantized, set()),
        (run_ramsey_semiclassical, {"field"}),
        (run_michelson, {"atom"}),
    ], ids=["quantized-nope", "quantized-empty", "semiclassical-field", "michelson-atom"])
    def test_invalid_partition(self, runner, labels):
        # every runner rejects an empty block or one over a label its experiment lacks
        partition = DecoherencePartition(1e-30, (frozenset(labels),))
        if runner is run_michelson:
            cfg = MichelsonConfig(alpha=1.0, arm_time=1.0, mode_frequency=W0, decoherence=partition)
        else:
            cfg = RamseyConfig(omega0=W0, wait=1.0, field=FockField(3), decoherence=partition)
        with pytest.raises(ValueError):
            runner(cfg)


class TestMichelson:
    def test_balanced_interferometer_dark_port(self):
        res = run_michelson(MichelsonConfig(alpha=2.0, arm_time=1.0, mode_frequency=W0))
        assert abs(res.mean_photons_out_b) <= 1e-9
        assert abs(res.mean_photons_out_a - 4.0) <= 1e-8

    def test_global_dephasing_changes_nothing(self):
        sigma = 50.0 / (W0 * W0)
        res = run_michelson(
            MichelsonConfig(
                alpha=2.0, arm_time=1.0, mode_frequency=W0,
                decoherence=DecoherencePartition.global_over(sigma, "arm_c", "arm_d"),
            )
        )
        assert abs(res.mean_photons_out_b) <= 1e-8
        assert abs(res.mean_photons_out_a - 4.0) <= 1e-8

    def test_output_means_invariant_across_global_sweep(self):
        means = []
        for sigma in (0.0, 1e-40, 1e-30, 1e-20):
            res = run_michelson(
                MichelsonConfig(
                    alpha=2.0, arm_time=1.0, mode_frequency=W0,
                    decoherence=DecoherencePartition.global_over(sigma, "arm_c", "arm_d"),
                )
            )
            means.append((res.mean_photons_out_a, res.mean_photons_out_b))
        spread_a = max(m[0] for m in means) - min(m[0] for m in means)
        spread_b = max(m[1] for m in means) - min(m[1] for m in means)
        assert spread_a <= 1e-9 and spread_b <= 1e-9

    def test_local_dephasing_splits_output(self):
        # oracle: average the split input over 64 independent phases per
        # arm, recombine, and read the output means explicitly
        alpha = 2.0
        n_max = MichelsonConfig(alpha=alpha, arm_time=1.0, mode_frequency=W0).cutoff()
        d = n_max + 1
        arm = np.zeros((d, d), dtype=complex)
        for k in range(64):
            amps = coherent_state(alpha / math.sqrt(2.0) * np.exp(2j * math.pi * k / 64), n_max).amplitudes
            arm += np.outer(amps, amps.conj())
        arm /= 64.0
        w = beamsplitter_5050(n_max).entries
        rho_out = w.conj().T @ np.kron(arm, arm) @ w
        number = np.diag(np.arange(d, dtype=float))
        oracle_a = float(np.real(np.trace(np.kron(number, np.eye(d)) @ rho_out)))
        oracle_b = float(np.real(np.trace(np.kron(np.eye(d), number) @ rho_out)))

        sigma = 50.0 / (W0 * W0)
        res = run_michelson(
            MichelsonConfig(
                alpha=alpha, arm_time=1.0, mode_frequency=W0,
                decoherence=DecoherencePartition.local_over(sigma, "arm_c", "arm_d"),
            )
        )
        assert abs(res.mean_photons_out_a - oracle_a) <= 1e-6
        assert abs(res.mean_photons_out_b - oracle_b) <= 1e-6
        assert abs(oracle_a - 2.0) <= 1e-9 and abs(oracle_b - 2.0) <= 1e-9

    def test_dephased_arm_reduces_to_poisson_mixture(self):
        # after complete global dephasing, one arm alone is a Poissonian
        # mixture with mean |alpha|^2/2 and no phase coherence
        alpha = 2.0
        n_max = 30
        d = n_max + 1
        space = hspace(arm_c=d, arm_d=d)
        half = coherent_state(alpha / math.sqrt(2.0), n_max).amplitudes
        rho = DensityMatrix(space, np.outer(np.kron(half, half), np.kron(half, half).conj()))
        _, num_c = mode_ops(n_max, label="arm_c")
        _, num_d = mode_ops(n_max, label="arm_d")
        h = W0 * (embed(num_c, space) + embed(num_d, space))
        sigma = 50.0 / (W0 * W0)
        evolved = evolve_analytic(rho, EvolutionSpec(h, 1.0, sigma, (h,)))
        arm = partial_trace(evolved, {"arm_c"})
        mean = alpha * alpha / 2.0
        probs = np.array(
            [math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1.0)) for n in range(d)]
        )
        assert np.linalg.norm(arm.entries - np.diag(probs)) <= 1e-8

    def test_cutoff_violation(self):
        with pytest.raises(ValueError):
            run_michelson(
                MichelsonConfig(alpha=4.0, arm_time=1.0, mode_frequency=W0, n_max=12)
            )


class TestPhaseAverage:
    def test_vacuum_distance_zero(self):
        assert phase_average_check(0.0, 10, nodes=40) == 0.0

    def test_poisson_mixture_equals_phase_average(self):
        assert phase_average_check(2.0, 40, nodes=160) <= 1e-8

    def test_insufficient_nodes(self):
        with pytest.raises(ValueError):
            phase_average_check(2.0, 40, nodes=100)


class TestGhz:
    def test_single_atom_law(self):
        sigma, gamma, t = 2e-3, 0.05, 3.0
        res = run_ghz(GhzConfig(n_atoms=1, omega0=1.0, sigma=sigma, wait=t, gamma_sp=gamma))
        assert abs(res.coherence - 0.5 * math.exp(-(sigma + gamma) * t)) <= 1e-15
        assert abs(res.survival - math.exp(-gamma * t)) <= 1e-15

    def test_ten_atoms_hundredfold_rate(self):
        res = run_ghz(GhzConfig(n_atoms=10, omega0=1.0, sigma=1e-4, wait=1.0))
        assert abs(res.coherence - 0.5 * math.exp(-0.01)) <= 1e-15
        assert res.effective_rate == 1e-4 * 100

    def test_rate_ratio_is_n_squared(self):
        base = run_ghz(GhzConfig(n_atoms=1, omega0=2.0, sigma=0.25, wait=1.0)).effective_rate
        for n in (2, 3, 10, 64, 100000):
            rate = run_ghz(GhzConfig(n_atoms=n, omega0=2.0, sigma=0.25, wait=1.0)).effective_rate
            assert rate / base == float(n * n)

    def test_coherence_below_half_survival(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            cfg = GhzConfig(
                n_atoms=int(rng.integers(1, 50)),
                omega0=float(10.0 ** rng.uniform(0, 15)),
                sigma=float(10.0 ** rng.uniform(-44, -20)),
                wait=float(10.0 ** rng.uniform(-3, 2)),
                gamma_sp=float(10.0 ** rng.uniform(-6, 0)),
                three_body_rate=float(10.0 ** rng.uniform(-6, 0)),
            )
            res = run_ghz(cfg)
            assert res.coherence <= res.survival / 2.0 + 1e-12

    def test_brute_force_small_n(self):
        # oracle: full multi-atom evolution with the summed free
        # Hamiltonian as a single dephasing block
        omega0, sigma = 1.5e15, 1e-32
        for n in (2, 3, 4):
            space = hspace(**{f"atom{i}": 2 for i in range(n)})
            dim = space.total_dim
            h = Operator(space, np.zeros((dim, dim)))
            for i in range(n):
                h = h + omega0 * embed(
                    Operator(hspace(**{f"atom{i}": 2}), np.diag([0.0, 1.0])), space
                )
            psi = np.zeros(dim, dtype=complex)
            psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
            rho = DensityMatrix(space, np.outer(psi, psi.conj()))
            out = evolve_analytic(rho, EvolutionSpec(h, 1.0, sigma, (h,)))
            model = run_ghz(GhzConfig(n_atoms=n, omega0=omega0, sigma=sigma, wait=1.0))
            assert abs(abs(out.entries[0, -1]) - model.coherence) <= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            run_ghz(GhzConfig(n_atoms=0, omega0=1.0, sigma=0.0, wait=1.0))
        with pytest.raises(ValueError):
            run_ghz(GhzConfig(n_atoms=2, omega0=1.0, sigma=-1.0, wait=1.0))


class TestSplitPulseState:
    def test_normalized(self):
        for n in (1, 3, 6):
            validate_state(split_pulse_ramsey_state(n))

    def test_needs_a_photon(self):
        with pytest.raises(ValueError):
            split_pulse_ramsey_state(0)


def _fringe_phase(result):
    """Phase of the fringe's e^{i*phi} Fourier coefficient: pi on resonance,
    pi - detuning*wait (mod 2*pi) with a detuning."""
    return cmath.phase(sum(p * cmath.exp(-1j * phi) for phi, p in result.points))


def _phase_distance(a, b):
    return abs(cmath.phase(cmath.exp(1j * (a - b))))


class TestRamseyFringePhase:
    """The detuning phase must survive at every scale (no snapping, no
    rounding of absolute phases) and must not depend on the photon number."""

    @pytest.mark.parametrize("n", [4, 12, 40])
    def test_small_detuning_is_kept(self, n):
        cfg = RamseyConfig(omega0=1e9, wait=1.0, field=FockField(n), detuning=0.7)
        phase = _fringe_phase(run_ramsey_quantized(cfg))
        assert _phase_distance(phase, math.pi - 0.7) <= 1e-9

    def test_one_ev_phase_is_exact_and_n_independent(self):
        delta = float(round(1e-3 * W0))
        x = Fraction(delta)
        reduced = float(x - math.floor(x / TWO_PI) * TWO_PI)
        sigma = 0.5 / (2.0 * W0 * W0)
        for n in (4, 12, 40):
            cfg = RamseyConfig(
                omega0=W0, wait=1.0, field=FockField(n), detuning=delta,
                decoherence=DecoherencePartition.local_over(sigma, "atom", "field"),
            )
            phase = _fringe_phase(run_ramsey_quantized(cfg))
            assert _phase_distance(phase, math.pi - reduced) <= 1e-9


class TestClosedFormReadout:
    def test_matches_dense_per_phase_reference(self):
        # oracle: laboratory-frame wait written out element by element,
        # then phase shift, second pulse and ground projection per phase
        omega0, detuning, wait, sigma, alpha = 40.0, 0.3, 1.3, 2e-4, 2.0
        cfg = RamseyConfig(
            omega0=omega0, wait=wait, field=CoherentField(alpha), detuning=detuning,
            decoherence=DecoherencePartition.local_over(sigma, "atom", "field"),
        )
        n_max = cfg.cutoff()
        d = n_max + 1
        a_op, _ = mode_ops(n_max, label="field")
        sm = np.array([[0.0, 1.0], [0.0, 0.0]])
        h_jc = np.kron(sm.T, a_op.entries) + np.kron(sm, a_op.entries.T)
        w, v = np.linalg.eigh(h_jc)
        t_pulse = (math.pi / 2.0) / (2.0 * math.sqrt(round(alpha * alpha)))
        pulse = (v * np.exp(-1j * w * t_pulse)) @ v.conj().T
        psi = np.kron([1.0, 0.0], coherent_state(alpha, n_max).amplitudes)
        rho = pulse @ np.outer(psi, psi.conj()) @ pulse.conj().T

        atom = np.repeat([0.0, omega0], d)
        field = np.tile(np.arange(d) * (omega0 - detuning), 2)
        energy = atom + field

        def gap2(e):
            return (e[:, None] - e[None, :]) ** 2

        rho = rho * np.exp(-1j * (energy[:, None] - energy[None, :]) * wait)
        rho = rho * np.exp(-sigma * (gap2(atom) + gap2(field)) * wait)
        reference = []
        for phi in cfg.phases:
            shift = np.kron(np.diag([1.0, np.exp(1j * phi)]), np.eye(d))
            final = pulse @ shift @ rho @ shift.conj().T @ pulse.conj().T
            reference.append(float(np.real(np.trace(final[:d, :d]))))

        result = run_ramsey_quantized(cfg)
        assert [phi for phi, _ in result.points] == list(cfg.phases)
        assert max(abs(p - q) for (_, p), q in zip(result.points, reference)) <= 1e-12
        assert 0.1 <= result.visibility <= 0.9

    def test_validates_the_waited_state_once(self, monkeypatch):
        calls = []

        def counting(rho, *args, **kwargs):
            calls.append(rho)
            return validate_density(rho, *args, **kwargs)

        monkeypatch.setattr(edsim.interferometry, "validate_density", counting)
        run_ramsey_quantized(RamseyConfig(omega0=W0, wait=1.0, field=FockField(12)))
        assert len(calls) == 1


class TestDiagonalFrame:
    def test_pipelines_never_diagonalize(self, monkeypatch):
        # every wait Hamiltonian is diagonal in the atom-Fock basis and
        # decay is a closed-form channel, so the pipelines must reach
        # neither the eigenbasis machinery nor the stepped integrator
        def boom(*args, **kwargs):
            raise AssertionError("eigenbasis or stepped path used by a pipeline")

        monkeypatch.setattr(edsim.engine, "_check_commuting", boom)
        monkeypatch.setattr(edsim.engine, "_joint_eigbasis", boom)
        monkeypatch.setattr(edsim.engine, "_rhs", boom)
        local = DecoherencePartition.local_over(1e-31, "atom", "field")
        run_ramsey_quantized(RamseyConfig(
            omega0=W0, wait=1.0, field=CoherentField(1.5), detuning=1e9, decoherence=local,
        ))
        run_ramsey_quantized(RamseyConfig(
            omega0=W0, wait=1.0, field=FockField(2), n_max=3, decoherence=local,
            spontaneous_rate=0.3,
        ))
        run_ramsey_semiclassical(RamseyConfig(omega0=W0, wait=1.0, decoherence=_atom_partition(1e-31)))
        run_ramsey_semiclassical(RamseyConfig(
            omega0=W0, wait=1.0, decoherence=_atom_partition(1e-31), spontaneous_rate=0.3,
        ))
        for partition in (DecoherencePartition.local_over(1e-31, "arm_c", "arm_d"),
                          DecoherencePartition.global_over(1e-31, "arm_c", "arm_d")):
            run_michelson(MichelsonConfig(
                alpha=1.0, arm_time=1.0, mode_frequency=W0, decoherence=partition,
            ))


BAD = [math.nan, math.inf, -math.inf]


class TestNonFiniteConfig:
    @pytest.mark.parametrize("value", BAD, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [
        "omega0", "wait", "coupling", "pulse_area", "detuning", "spontaneous_rate", "phases", "field",
    ])
    def test_ramsey(self, name, value):
        params = {"omega0": W0, "wait": 1.0, name: value}
        if name == "phases":
            params[name] = (0.0, value)
        if name == "field":
            params[name] = CoherentField(value)
        cfg = RamseyConfig(**params)
        with pytest.raises(ValueError, match="finite"):
            cfg.validate()

    @pytest.mark.parametrize("value", BAD, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["alpha", "arm_time", "mode_frequency"])
    def test_michelson(self, name, value):
        cfg = MichelsonConfig(**{"alpha": 1.0, "arm_time": 1.0, "mode_frequency": W0, name: value})
        with pytest.raises(ValueError, match="finite"):
            cfg.validate()

    @pytest.mark.parametrize("value", BAD, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["omega0", "sigma", "wait", "gamma_sp", "three_body_rate"])
    def test_ghz(self, name, value):
        cfg = GhzConfig(**{"n_atoms": 2, "omega0": 1.0, "sigma": 0.0, "wait": 1.0, name: value})
        with pytest.raises(ValueError, match="finite"):
            run_ghz(cfg)
