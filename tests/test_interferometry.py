"""Tests for the Ramsey, Michelson and GHZ experiment simulations."""

import cmath
import dataclasses
import math
import operator
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

import edsim.core
import edsim.engine
import edsim.interferometry
import edsim.selftest

from edsim.constants import MAX_PHASE_POINTS, OMEGA_PER_EV, RAMSEY_MAX_CUTOFF
from edsim.core import DensityMatrix, fock_cutoff, poisson_weights, validate_density, validate_pairs
from edsim.engine import evolve_analytic, evolve_stepped
from edsim.interferometry import (
    EXPERIMENTS,
    _fringe,
    CoherentField,
    DecoherencePartition,
    FockField,
    FringeResult,
    GhzConfig,
    MichelsonConfig,
    RamseyConfig,
    iter_ramsey_batch,
    run_ghz,
    run_michelson,
    run_ramsey_quantized,
    run_ramsey_semiclassical,
)
from edsim.selftest import _michelson_sectors, beamsplitter_sector, phase_average_check
from edsim.sensitivity import (
    SpeciesParams,
    cosmic_bound,
    default_design_grids,
    distance_reach,
    ghz_design,
    matterwave_bound,
    single_atom_reach,
)

from dense_oracles import beamsplitter_5050, coherent_amplitudes, mode_ops

W0 = OMEGA_PER_EV

# 2*pi to 50 digits: reduces phases of 1e12 rad well below 1e-9
TWO_PI = Fraction("6.28318530717958647692528676655900576839433879875021")


def visibility(points):
    """Reference for FringeResult.visibility: (max - min) / (max + min) of
    the scanned probabilities; 0 for an all-zero scan."""
    if len(points) < 2:
        raise ValueError("need at least two fringe points")
    values = np.asarray(points, dtype=float)[:, 1]
    hi, lo = float(values.max()), float(values.min())
    return (hi - lo) / (hi + lo) if hi + lo != 0.0 else 0.0


def _same_fringe(a, b):
    # == on two FringeResults would compare the p_g arrays elementwise
    return a.visibility == b.visibility and np.array_equal(a.p_g, b.p_g)


def _atom_partition(sigma):
    return DecoherencePartition(sigma, (frozenset({"atom"}),))


_S_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e|, with |g> = index 0

# one run of each EXPERIMENTS family under a given partition
_FAMILY_RUNS = {
    "ramsey_quantized": lambda part: run_ramsey_quantized(
        RamseyConfig(omega0=W0, wait=1.0, field=FockField(3), decoherence=part)),
    "ramsey_semiclassical": lambda part: run_ramsey_semiclassical(
        RamseyConfig(omega0=W0, wait=1.0, field=FockField(3), decoherence=part)),
    "michelson": lambda part: run_michelson(
        MichelsonConfig(alpha=1.0, arm_time=1.0, mode_frequency=W0, decoherence=part)),
    "ghz": lambda part: run_ghz(GhzConfig(n_atoms=3, omega0=W0, wait=1.0, decoherence=part)),
}
# each family with every label only other families have, one no family has, and none
_ALL_LABELS = sorted({lab for labels, _ in EXPERIMENTS.values() for lab in labels})
_FOREIGN_BLOCKS = [
    (family, frozenset(block))
    for family, (labels, _) in EXPERIMENTS.items()
    for block in [*({lab} for lab in _ALL_LABELS if lab not in labels), {"nope"}, set()]
]


def _block_hamiltonians(partition, free):
    """One operator per partition block: the sum of its labels' free Hamiltonians."""
    return tuple(reduce(operator.add, (free[lab] for lab in sorted(labels)))
                 for labels in partition.blocks)


def _dense_first_pulse(cfg, coupling=1.0):
    """Eigendecomposed Jaynes-Cummings pulse on the full atom x field space,
    and the state |g> x field after it. The pulse lasts until the dominant
    photon number's pair has turned by pulse_area, so `coupling` cancels."""
    n_max = cfg.cutoff()
    a_op, _ = mode_ops(n_max)
    h_jc = coupling * (np.kron(_S_MINUS.T, a_op) + np.kron(_S_MINUS, a_op.T))
    w, v = np.linalg.eigh(h_jc)
    t_pulse = cfg.pulse_area / (2.0 * coupling * math.sqrt(cfg.field.dominant_n))
    pulse = (v * np.exp(-1j * w * t_pulse)) @ v.conj().T
    if isinstance(cfg.field, CoherentField):
        amps = coherent_amplitudes(cfg.field.alpha, n_max)
    else:
        amps = np.sqrt(cfg.field.weights(n_max))
    psi = np.kron([1.0, 0.0], amps)
    return pulse, pulse @ np.outer(psi, psi.conj()) @ pulse.conj().T


def _dense_readout(pulse, rho, phases):
    """Per phase: shift |e> by e^{i*phi}, apply the pulse, trace the |g> block."""
    d = len(rho) // 2
    u_g = pulse[:d]
    out = []
    for phi in phases:
        shift = np.repeat([1.0, np.exp(1j * phi)], d)
        final_g = u_g @ (shift[:, None] * rho * shift.conj()[None, :]) @ u_g.conj().T
        out.append(float(np.real(np.trace(final_g))))
    return out


def _dense_ramsey(cfg, drive=None, coupling=1.0):
    """Full-space oracle of run_ramsey_quantized; returns (fringe, waited state).

    Dense pulses, the amplitude-damping Kraus channel, and a wait written
    out element by element: phases from the per-state `drive` energies
    (the laboratory free energy by default) and, per partition block,
    decay exp(-sigma*gap**2*t) from the summed free energies.
    """
    n_max = cfg.cutoff()
    d = n_max + 1
    pulse, rho = _dense_first_pulse(cfg, coupling)
    gamma, t = cfg.spontaneous_rate, cfg.wait
    lower = np.kron(_S_MINUS, np.eye(d))
    k0 = np.eye(2 * d) + math.expm1(-0.5 * gamma * t) * (lower.T @ lower)
    k1 = math.sqrt(-math.expm1(-gamma * t)) * lower
    rho = k0 @ rho @ k0.T + k1 @ rho @ k1.T
    free = {"atom": np.repeat([0.0, cfg.omega0], d),
            "field": np.tile(np.arange(d) * (cfg.omega0 - cfg.detuning), 2)}
    energy = free["atom"] + free["field"] if drive is None else drive
    rho = rho * np.exp(-1j * (energy[:, None] - energy[None, :]) * t)
    for e in _block_hamiltonians(cfg.decoherence, free):
        rho = rho * np.exp(-cfg.decoherence.sigma * (e[:, None] - e[None, :]) ** 2 * t)
    return _dense_readout(pulse, rho, cfg.phases), rho


RAMSEY_FIELDS = [FockField(4), FockField(12), CoherentField(2.0), CoherentField(3.0 + 1.0j)]
PARTITIONS = {
    "global": DecoherencePartition.global_over(0.2 / W0**2, "atom", "field"),
    "local": DecoherencePartition.local_over(0.2 / W0**2, "atom", "field"),
    "atom": DecoherencePartition(0.2 / W0**2, (frozenset({"atom"}),)),
    "field": DecoherencePartition(0.2 / W0**2, (frozenset({"field"}),)),
    "none": DecoherencePartition.none(),
}


class TestDecoherencePartition:
    @pytest.mark.parametrize("family, block", _FOREIGN_BLOCKS,
                             ids=[f"{family}-{'+'.join(block) or 'empty'}" for family, block in _FOREIGN_BLOCKS])
    def test_invalid_partition(self, family, block):
        # every runner rejects an empty block or one over a label its experiment lacks
        with pytest.raises(ValueError, match="unsupported dephasing block"):
            _FAMILY_RUNS[family](DecoherencePartition(1e-30, (block,)))

    def test_blocks_are_stored_as_frozensets(self):
        # a list of sets ran semiclassically, but the quantized batch keys its
        # cache on blocks and raised TypeError; hash() did too
        loose, strict = DecoherencePartition(1e-33, [{"atom"}]), _atom_partition(1e-33)
        assert loose.blocks == (frozenset({"atom"}),)
        assert loose == strict and hash(loose) == hash(strict)
        for family in ("ramsey_semiclassical", "ramsey_quantized"):
            fringes = [_FAMILY_RUNS[family](part) for part in (loose, strict)]
            assert _same_fringe(*fringes)
            assert fringes[0].visibility < 1.0

    def test_generator_of_blocks_is_read_once(self):
        # the str check used to use up a generator, leaving no blocks at all
        part = DecoherencePartition(1e-33, (frozenset({lab}) for lab in ("atom", "field")))
        assert part == DecoherencePartition.local_over(1e-33, "atom", "field")

    @pytest.mark.parametrize("blocks", [("atom",), [frozenset({"field"}), "atom"], "atom"],
                             ids=["str-block", "mixed", "str-blocks"])
    def test_str_block_is_refused(self, blocks):
        # a bare string used to be a TypeError from a set comparison in strength
        with pytest.raises(ValueError, match="a partition block must be a set of labels, not a str"):
            DecoherencePartition(1e-33, blocks)

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError):
            DecoherencePartition(1.0, (frozenset({"a"}), frozenset({"a", "b"})))

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf, -math.inf])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError):
            DecoherencePartition.local_over(sigma, "a", "b")

    def test_decay_rate_sums_block_gaps(self):
        gaps = {"a": 2.0, "b": np.array([1.0, -2.0])}
        total = DecoherencePartition.global_over(0.5, "a", "b").decay_rate(gaps)
        assert np.array_equal(total, [4.5, 0.0])
        local = DecoherencePartition.local_over(0.5, "b", "a").decay_rate(gaps)
        assert np.array_equal(local, [2.5, 4.0])
        assert DecoherencePartition.none().decay_rate(gaps) == 0.0

    @pytest.mark.parametrize("labels", [set(), {"c"}, {"a", "c"}],
                             ids=["empty", "unknown", "partly-unknown"])
    def test_decay_rate_rejects_unsupported_block(self, labels):
        # strength raises the same error, and decay_rate raises it at sigma = 0 too
        for sigma in (1.0, 0.0):
            part = DecoherencePartition(sigma, (frozenset({"b"}), frozenset(labels)))
            for law in (part.decay_rate, part.strength):
                with pytest.raises(ValueError, match=re.escape(f"unsupported dephasing block {sorted(labels)}")):
                    law({"a": 1.0, "b": 1.0})

    @pytest.mark.parametrize("gaps", [
        {"a": 2.0, "b": -0.7}, {"a": 1.5e15, "b": np.array([1.0, -1.5e15, 3e14, 1e200])},
        {"a": 1e200, "b": 1.0}, {"a": np.float64(1e200), "b": 1.0}, {"a": math.inf, "b": 1.0},
    ], ids=["scalar", "array", "overflow", "numpy-overflow", "inf"])
    @pytest.mark.parametrize("part", [
        DecoherencePartition.global_over(0.3, "a", "b"), DecoherencePartition.local_over(2e-31, "b", "a"),
        DecoherencePartition.local_over(0.0, "a", "b"), DecoherencePartition(1e-31, (frozenset({"a"}),)),
        DecoherencePartition.none(),
    ], ids=["global", "local", "sigma-zero", "one-block", "none"])
    def test_decay_rate_is_sigma_times_strength(self, part, gaps):
        # bit for bit, with no warning: an overflowing or infinite gap is an
        # infinite D, and sigma = 0 is a rate of exactly 0.0 whatever D is
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            d, rate = part.strength(gaps), part.decay_rate(gaps)
        want = part.sigma * d if part.sigma > 0.0 else 0.0
        assert np.asarray(rate).tobytes() == np.asarray(want).tobytes()
        assert type(rate) is type(want)

    def test_global_michelson_rate_is_exactly_zero(self):
        # equal-total arm states: the two arm gaps cancel in floating point
        shift = W0 * np.subtract.outer(np.arange(40), np.arange(40))
        rate = DecoherencePartition.global_over(1.0, "arm_c", "arm_d").decay_rate(
            {"arm_c": shift, "arm_d": -shift}
        )
        assert not np.any(rate)

    def test_overflowing_gap_is_full_decay(self):
        # a squared gap beyond double range is an infinite rate, with no
        # warning even where overflow raises; sigma = 0 stays exactly zero
        with np.errstate(over="raise"):
            for gap in (1e200, np.float64(1e200), np.array([1e200, 1e200])):
                assert np.all(DecoherencePartition.local_over(1e-31, "a").decay_rate({"a": gap}) == math.inf)
                assert DecoherencePartition.local_over(0.0, "a").decay_rate({"a": gap}) == 0.0
            # a numpy sigma times a finite D that overflows
            assert DecoherencePartition.local_over(np.float64(10.0), "a").decay_rate({"a": 1e154}) == math.inf
        for gap in (1e200, math.inf):
            assert DecoherencePartition.local_over(0.0, "a").strength({"a": gap}) == math.inf
            assert DecoherencePartition.local_over(0.0, "a").decay_rate({"a": gap}) == 0.0


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
        assert cfg.phases[0] == 0.0
        assert abs(result.p_g[0] - 1.0) <= 1e-12  # zero phase returns to ground

    def test_half_life_visibility(self):
        sigma = math.log(2.0) / (W0 * W0)
        cfg = RamseyConfig(omega0=W0, wait=1.0, decoherence=_atom_partition(sigma))
        assert abs(run_ramsey_semiclassical(cfg).visibility - 0.5) <= 1e-9

    def test_complete_dephasing_is_fringeless_mixture(self):
        sigma = 50.0 / (W0 * W0)
        cfg = RamseyConfig(omega0=W0, wait=1.0, decoherence=_atom_partition(sigma))
        result = run_ramsey_semiclassical(cfg)
        assert result.visibility <= 1e-10
        for p in result.p_g:
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
            for phi, p in zip(cfg.phases, result.p_g):
                assert abs(p - 0.5 * (1.0 + expected_v * math.cos(phi))) <= 1e-9

    def test_zero_wait_keeps_the_pulsed_state(self):
        # omega0=1e200 makes the dephasing rate infinite: a waited run loses
        # its fringe, and a zero wait equals its sigma = 0 run, with no NaN
        # from an infinite rate times a zero wait
        cfg = RamseyConfig(omega0=1e200, wait=0.0, decoherence=_atom_partition(1e-30), spontaneous_rate=0.4)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            kept = run_ramsey_semiclassical(cfg)
            waited = run_ramsey_semiclassical(dataclasses.replace(cfg, wait=1.0))
        undephased = dataclasses.replace(cfg, decoherence=DecoherencePartition.none())
        assert _same_fringe(kept, run_ramsey_semiclassical(undephased))
        assert kept.visibility == 1.0
        assert waited.visibility == 0.0

    def test_rejects_field_blocks(self):
        cfg = RamseyConfig(
            omega0=W0, wait=1.0,
            decoherence=DecoherencePartition.global_over(1e-30, "atom", "field"),
        )
        with pytest.raises(ValueError):
            run_ramsey_semiclassical(cfg)


class TestRamseyQuantized:
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
        weights = poisson_weights(alpha, n_max)
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
        a_op, _ = mode_ops(n_max)
        sm = np.array([[0.0, 1.0], [0.0, 0.0]])
        h_jc = np.kron(sm.conj().T, a_op) + np.kron(sm, a_op.conj().T)
        w, v = np.linalg.eigh(h_jc)
        t_pulse = (math.pi / 2.0) / (2.0 * math.sqrt(n))
        pulse = (v * np.exp(-1j * w * t_pulse)) @ v.conj().T
        psi = np.zeros(2 * (n_max + 1), dtype=complex)
        psi[0 * (n_max + 1) + n] = 1.0  # |g, N>
        rho = np.outer(psi, psi.conj())
        # the spectrum of W0*(|e><e| x I + I x n), |g,k> before |e,k>
        w_free = W0 * (np.repeat([0.0, 1.0], n_max + 1) + np.tile(np.arange(n_max + 1.0), 2))
        rho = pulse @ rho @ pulse.conj().T
        rho = evolve_analytic(DensityMatrix(rho), w_free, 1.0, 1e-30, (w_free,)).entries
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
                omega0=omega0, wait=1.0, field=FockField(2),
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
        # together) between the dense pulses, against the pipeline fringe
        cfg = RamseyConfig(
            omega0=3.0, wait=1.0, field=FockField(2), detuning=1.3,
            decoherence=partition, spontaneous_rate=0.4,
        )
        excited = np.kron(np.diag([0.0, 1.0]), np.eye(4))
        lower = np.kron(_S_MINUS, np.eye(4))
        free = {"atom": 3.0 * excited,
                "field": 1.7 * np.kron(np.eye(2), mode_ops(3)[1])}
        pulse, rho0 = _dense_first_pulse(cfg)
        stepped = evolve_stepped(DensityMatrix(rho0), 1.3 * excited, 1.0, partition.sigma,
                                 _block_hamiltonians(partition, free), ((0.4, lower),), step=1e-3)
        reference = _dense_readout(pulse, stepped.entries, cfg.phases)
        result = run_ramsey_quantized(cfg)
        assert max(abs(p - q) for p, q in zip(result.p_g, reference)) <= 1e-8



class TestMichelson:
    def test_balanced_interferometer_dark_port(self):
        res = run_michelson(MichelsonConfig(alpha=2.0, arm_time=1.0, mode_frequency=W0))
        assert abs(res.mean_photons_out_b) <= 1e-9
        assert abs(res.mean_photons_out_a - 4.0) <= 1e-8

    def test_zero_arm_time_with_infinite_rate(self):
        # omega=1e200 makes the local rate infinite: a zero arm time keeps
        # the undecayed fringe, with no NaN from an infinite rate times 0
        cfg = MichelsonConfig(alpha=2.0, arm_time=0.0, mode_frequency=1e200,
                              decoherence=DecoherencePartition.local_over(1e-30, "arm_c", "arm_d"))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert run_michelson(cfg) == (4.0, 0.0)
            assert run_michelson(dataclasses.replace(cfg, arm_time=1.0)) == (2.0, 2.0)

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
        n_max = fock_cutoff(alpha)
        d = n_max + 1
        arm = np.zeros((d, d), dtype=complex)
        for k in range(64):
            amps = coherent_amplitudes(alpha / math.sqrt(2.0) * np.exp(2j * math.pi * k / 64), n_max)
            arm += np.outer(amps, amps.conj())
        arm /= 64.0
        w = beamsplitter_5050(n_max)
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
        half = coherent_amplitudes(alpha / math.sqrt(2.0), n_max)
        rho = DensityMatrix(np.outer(np.kron(half, half), np.kron(half, half).conj()))
        # the spectrum of W0*(n x I + I x n)
        w = W0 * (np.repeat(np.arange(d, dtype=float), d) + np.tile(np.arange(d, dtype=float), d))
        sigma = 50.0 / (W0 * W0)
        evolved = evolve_analytic(rho, w, 1.0, sigma, (w,))
        arm = np.einsum("ikjk->ij", evolved.entries.reshape(d, d, d, d))  # trace out arm_d
        mean = alpha * alpha / 2.0
        probs = np.array(
            [math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1.0)) for n in range(d)]
        )
        assert np.linalg.norm(arm - np.diag(probs)) <= 1e-8


def _partition_over_arms(name, sigma):
    if name == "none":
        return DecoherencePartition.none()
    if name == "global":
        return DecoherencePartition.global_over(sigma, "arm_c", "arm_d")
    if name == "local":
        return DecoherencePartition.local_over(sigma, "arm_c", "arm_d")
    return DecoherencePartition.local_over(sigma, name)  # one arm alone


def _dense_michelson(cfg, partitions):
    """Full-space oracle of run_michelson, one (mean_a, mean_b) per partition.

    The dense beamsplitter, the dense arm state decayed element by
    element per partition block, validate_density on it, and the output
    means from the dense w^dag rho w.
    """
    n_max = fock_cutoff(cfg.alpha)
    d = n_max + 1
    w = beamsplitter_5050(n_max)
    vac = np.zeros(d)
    vac[0] = 1.0
    v = w @ np.kron(coherent_amplitudes(cfg.alpha, n_max), vac)
    n = np.arange(d, dtype=float)
    free = {"arm_c": np.repeat(cfg.mode_frequency * n, d), "arm_d": np.tile(cfg.mode_frequency * n, d)}
    means = []
    for partition in partitions:
        rho = np.outer(v, v.conj())
        for e in _block_hamiltonians(partition, free):
            rho *= np.exp(-partition.sigma * np.subtract.outer(e, e) ** 2 * cfg.arm_time)
        validate_density(DensityMatrix(rho))
        populations = np.real(np.sum(w.conj() * (rho @ w), axis=0)).reshape(d, d)
        means.append((float(populations.sum(axis=1) @ n), float(populations.sum(axis=0) @ n)))
    return means


class TestSectorPipelines:
    @pytest.mark.parametrize("alpha,arm_time", [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (2.0, 0.0)],
                             ids=["1.0", "2.0", "3.0", "2.0-no-wait"])
    def test_michelson_matches_dense_oracle(self, alpha, arm_time):
        cfg = MichelsonConfig(alpha=alpha, arm_time=arm_time, mode_frequency=W0)
        names = ("none", "global", "local", "arm_c", "arm_d")
        partitions = [_partition_over_arms(name, 0.2 / W0**2) for name in names]
        for partition, oracle in zip(partitions, _dense_michelson(cfg, partitions)):
            res = run_michelson(dataclasses.replace(cfg, decoherence=partition))
            for got, want in zip((res.mean_photons_out_a, res.mean_photons_out_b), oracle):
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_field_enters_by_its_real_weights(self, monkeypatch):
        # the readout sees no coherence between photon numbers, so the
        # field's phase is unobservable: alpha and 1j*alpha give the same fringe
        def boom(*args, **kwargs):
            raise AssertionError("the field's phase was computed")

        weights = CoherentField(3.0 + 1.0j).weights(fock_cutoff(3.0 + 1.0j))
        assert weights.dtype == np.float64 and not weights.flags.writeable
        cfg = RamseyConfig(omega0=W0, wait=0.5, field=CoherentField(2.0), spontaneous_rate=0.3,
                           decoherence=DecoherencePartition.local_over(0.2 / W0**2, "atom", "field"))
        monkeypatch.setattr(np, "angle", boom)
        assert _same_fringe(run_ramsey_quantized(cfg),
                            run_ramsey_quantized(dataclasses.replace(cfg, field=CoherentField(2.0j))))

    def test_pipelines_need_no_dense_machinery(self, monkeypatch):
        # every pulse, wait and readout conserves an excitation number, so
        # the pipelines form only sector blocks; the semiclassical wait is
        # the one engine call, on the atom's own 2x2 state, and the dense
        # oracles live in selftest, next to the criteria that run them
        def boom(*args, **kwargs):
            raise AssertionError("dense machinery used by a pipeline")

        for module in (edsim.core, edsim.interferometry):
            for name in ("beamsplitter_sector", "phase_average_check", "coherent_state"):
                assert not hasattr(module, name)
        monkeypatch.setattr(edsim.selftest, "beamsplitter_sector", boom)
        monkeypatch.setattr(edsim.engine, "evolve_stepped", boom)
        monkeypatch.setattr(edsim.interferometry, "evolve_stepped", boom, raising=False)
        run_ramsey_semiclassical(RamseyConfig(omega0=W0, wait=1.0, decoherence=_atom_partition(1e-31)))
        monkeypatch.setattr(edsim.engine, "evolve_analytic", boom)
        monkeypatch.setattr(edsim.interferometry, "evolve_analytic", boom)
        run_ramsey_quantized(RamseyConfig(
            omega0=W0, wait=1.0, field=CoherentField(2.0), spontaneous_rate=0.3,
            decoherence=DecoherencePartition.local_over(1e-31, "atom", "field"),
        ))
        # alpha = 5 needs n_max = 75: dense matrices of 5776**2 entries
        sigma, alpha = 0.3 / W0**2, 5.0
        v = math.exp(-2.0 * sigma * W0**2)
        for partition, vis in (("global", 1.0), ("local", v)):
            res = run_michelson(MichelsonConfig(
                alpha=alpha, arm_time=1.0, mode_frequency=W0,
                decoherence=_partition_over_arms(partition, sigma),
            ))
            expected = (alpha**2 * (1.0 + vis) / 2.0, alpha**2 * (1.0 - vis) / 2.0)
            for got, want in zip((res.mean_photons_out_a, res.mean_photons_out_b), expected):
                assert abs(got - want) <= 1e-10 * alpha**2


class TestPhaseAverage:
    def test_vacuum_distance_zero(self):
        assert phase_average_check(0.0, 10) == 0.0

    def test_overflowing_amplitude_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            phase_average_check(1e200, 10)


def _atoms(sigma):
    """One dephasing block over the GHZ atoms."""
    return DecoherencePartition.global_over(sigma, "atoms")


class TestGhz:
    def test_single_atom_law(self):
        sigma, gamma, t = 2e-3, 0.05, 3.0
        res = run_ghz(GhzConfig(n_atoms=1, omega0=1.0, wait=t, decoherence=_atoms(sigma), gamma_sp=gamma))
        assert abs(res.coherence - 0.5 * math.exp(-(sigma + gamma) * t)) <= 1e-15
        assert abs(res.survival - math.exp(-gamma * t)) <= 1e-15

    def test_ten_atoms_hundredfold_rate(self):
        res = run_ghz(GhzConfig(n_atoms=10, omega0=1.0, wait=1.0, decoherence=_atoms(1e-4)))
        assert abs(res.coherence - 0.5 * math.exp(-0.01)) <= 1e-15
        assert res.effective_rate == 1e-4 * 100

    def test_rate_ratio_is_n_squared(self):
        base = run_ghz(GhzConfig(n_atoms=1, omega0=2.0, wait=1.0, decoherence=_atoms(0.25))).effective_rate
        for n in (2, 3, 10, 64, 100000):
            rate = run_ghz(GhzConfig(n_atoms=n, omega0=2.0, wait=1.0, decoherence=_atoms(0.25))).effective_rate
            assert rate / base == float(n * n)

    def test_coherence_below_half_survival(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            cfg = GhzConfig(
                n_atoms=int(rng.integers(1, 50)),
                omega0=float(10.0 ** rng.uniform(0, 15)),
                decoherence=_atoms(float(10.0 ** rng.uniform(-44, -20))),
                wait=float(10.0 ** rng.uniform(-3, 2)),
                gamma_sp=float(10.0 ** rng.uniform(-6, 0)),
                three_body_rate=float(10.0 ** rng.uniform(-6, 0)),
            )
            res = run_ghz(cfg)
            assert res.coherence <= res.survival / 2.0 + 1e-12

    @pytest.mark.parametrize("params", [
        {"omega0": 1e300, "decoherence": _atoms(1e300)},
        {"omega0": 1.0, "gamma_sp": 1e308},
        {"omega0": 1.0, "three_body_rate": 1e308, "gamma_sp": 1e307},
    ], ids=["dephasing", "spontaneous", "three-body"])
    def test_zero_wait_with_infinite_rate(self, params):
        # an infinite rate times a zero wait used to give NaN
        res = run_ghz(GhzConfig(n_atoms=10, wait=0.0, **params))
        assert (res.coherence, res.survival, res.effective_rate) == (0.5, 1.0, math.inf)

    @pytest.mark.parametrize("decoherence", [DecoherencePartition.none(), _atoms(0.0)], ids=["none", "sigma-0"])
    def test_sigma_zero_with_overflowing_gap(self, decoherence):
        # sigma = 0 is no dephasing, even where omega0**2 is infinite
        res = run_ghz(GhzConfig(n_atoms=2, omega0=1e300, wait=1.0, decoherence=decoherence))
        assert (res.coherence, res.survival, res.effective_rate) == (0.5, 1.0, 0.0)

    def test_overflowing_gap_is_full_decay(self):
        # (N*omega0)**2 beyond double range is an infinite rate, without a warning
        res = run_ghz(GhzConfig(n_atoms=10**200, omega0=1.0, wait=1.0, decoherence=_atoms(1e-30)))
        assert (res.coherence, res.survival, res.effective_rate) == (0.0, 1.0, math.inf)

    def test_block_naming_another_label_raises(self):
        with pytest.raises(ValueError, match="unsupported dephasing block"):
            run_ghz(GhzConfig(n_atoms=2, omega0=1.0, wait=1.0,
                              decoherence=DecoherencePartition.local_over(0.25, "atom0", "atom1")))

    def test_validation(self):
        with pytest.raises(ValueError, match="need at least one atom"):
            GhzConfig(n_atoms=0, omega0=1.0, wait=1.0)
        with pytest.raises(ValueError, match="n_atoms is beyond double range"):
            GhzConfig(n_atoms=10**400, omega0=1.0, wait=1.0)
        with pytest.raises(ValueError, match="rates and times must be non-negative"):
            GhzConfig(n_atoms=2, omega0=1.0, wait=-1.0)


def _fringe_phase(cfg):
    """Phase of the quantized fringe's e^{i*phi} Fourier coefficient: pi on
    resonance, pi - detuning*wait (mod 2*pi) with a detuning."""
    p_g = run_ramsey_quantized(cfg).p_g
    return cmath.phase(sum(p * cmath.exp(-1j * phi) for phi, p in zip(cfg.phases, p_g)))


def _phase_distance(a, b):
    return abs(cmath.phase(cmath.exp(1j * (a - b))))


class TestRamseyFringePhase:
    """The detuning phase must survive at every scale (no snapping, no
    rounding of absolute phases) and must not depend on the photon number."""

    @pytest.mark.parametrize("n", [4, 12, 40])
    def test_small_detuning_is_kept(self, n):
        cfg = RamseyConfig(omega0=1e9, wait=1.0, field=FockField(n), detuning=0.7)
        phase = _fringe_phase(cfg)
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
            phase = _fringe_phase(cfg)
            assert _phase_distance(phase, math.pi - reduced) <= 1e-9


class TestClosedFormReadout:
    def test_matches_dense_per_phase_reference(self):
        # oracle: laboratory-frame wait written out element by element,
        # then phase shift, second pulse and ground projection per phase
        cfg = RamseyConfig(
            omega0=40.0, wait=1.3, field=CoherentField(2.0), detuning=0.3,
            decoherence=DecoherencePartition.local_over(2e-4, "atom", "field"),
        )
        reference, _ = _dense_ramsey(cfg)
        result = run_ramsey_quantized(cfg)
        assert result.p_g.shape == (cfg.phase_points,) and not result.p_g.flags.writeable
        assert max(abs(p - q) for p, q in zip(result.p_g, reference)) <= 1e-12
        assert 0.1 <= result.visibility <= 0.9

    @pytest.mark.parametrize("partition", PARTITIONS)
    @pytest.mark.parametrize("field", RAMSEY_FIELDS, ids=str)
    def test_matches_dense_oracle_grid(self, field, partition):
        # the dense wait runs in the frame rotating with |e><e| + n, where
        # the drive is detuning*|e><e|, so phases stay exact at 1 eV
        for detuning in (0.0, 0.7, 1e-3 * W0):
            for gamma in (0.0, 0.3):
                cfg = RamseyConfig(
                    omega0=W0, wait=1.0, field=field, detuning=detuning,
                    decoherence=PARTITIONS[partition], spontaneous_rate=gamma,
                )
                d = cfg.cutoff() + 1
                reference, rho = _dense_ramsey(cfg, np.repeat([0.0, detuning], d))
                validate_density(DensityMatrix(rho))
                result = run_ramsey_quantized(cfg)
                assert max(abs(p - q) for p, q in zip(result.p_g, reference)) <= 1e-13
                assert abs(result.visibility - visibility(list(zip(cfg.phases, reference)))) <= 1e-13

    def test_validates_the_waited_state_once(self, monkeypatch):
        calls = []

        def counting(*pairs):
            calls.append(pairs)
            return validate_pairs(*pairs)

        monkeypatch.setattr(edsim.interferometry, "validate_pairs", counting)
        run_ramsey_quantized(RamseyConfig(omega0=W0, wait=1.0, field=FockField(12)))
        run_michelson(MichelsonConfig(alpha=2.0, arm_time=1.0, mode_frequency=W0))
        assert len(calls) == 1  # Michelson is a closed form and forms no state

    @pytest.mark.parametrize("u_g", [1.1, math.sqrt(1.0 + 2e-10)])
    def test_non_unitary_row_raises(self, u_g):
        # a pure |g> block read out through a row of norm u_g**2 > 1 + 1e-10
        with pytest.raises(ValueError, match=r"outside \[0, 1\] beyond tolerance"):
            _fringe(np.array([[1.0]]), np.array([[0.0]]), np.array([[0j]]), u_g, 0.0, (0.0, math.pi))

    @pytest.mark.parametrize("u_g, u_e, edge", [(1.0, 0.0, 1.0), (0.0, 1.0, 0.0)])
    def test_probability_slack_is_clamped(self, u_g, u_e, edge):
        # the block diag(1 + 4e-11, -4e-11) passes validation (smallest
        # eigenvalue above -PSD_TOL); its p_g of 1 + 4e-11 or -4e-11 lies
        # within the 1e-10 slack and is clamped onto the edge
        [(visibility, p_g)] = _fringe(np.array([[1.0 + 4e-11]]), np.array([[-4e-11]]), np.array([[0j]]),
                                      u_g, u_e, (0.0, 1.0, 2.0))
        assert p_g.tolist() == [edge, edge, edge]
        assert visibility == 0.0

    @pytest.mark.parametrize("mode", ["quantized", "semiclassical"])
    def test_visibility_is_that_of_the_points(self, mode):
        # the runners take the visibility from the clamped array; it must
        # be exactly visibility() of the points they return
        rng = np.random.default_rng(41 if mode == "quantized" else 42)
        runner = run_ramsey_quantized if mode == "quantized" else run_ramsey_semiclassical
        for _ in range(30):
            cfg, d = _random_ramsey(rng, mode)
            sigma = float(rng.uniform(0.0, 2.0)) / (d * cfg.wait) if d > 0.0 else 0.0
            blocks = cfg.decoherence.blocks
            result = runner(dataclasses.replace(cfg, decoherence=DecoherencePartition(sigma, blocks)))
            assert type(result) is FringeResult and type(result.visibility) is float
            assert result.p_g.shape == (cfg.phase_points,) and result.p_g.dtype == np.float64
            assert not result.p_g.flags.writeable
            assert result.visibility == visibility(list(zip(cfg.phases, result.p_g)))


class TestDiagonalFrame:
    def test_pipelines_never_diagonalize(self, monkeypatch):
        # every wait Hamiltonian is diagonal in the atom-Fock basis and
        # decay is a closed-form channel, so the pipelines must reach
        # neither an eigensolver nor the stepped integrator
        def boom(*args, **kwargs):
            raise AssertionError("eigensolver or stepped path used by a pipeline")

        monkeypatch.setattr(edsim.engine, "_rhs", boom)
        # every state a pipeline validates is its pair arrays, decided by
        # validate_pairs in closed form
        monkeypatch.setattr(np.linalg, "eigvalsh", boom)
        monkeypatch.setattr(np.linalg, "cholesky", boom)
        for partition in (DecoherencePartition.local_over(1e-31, "arm_c", "arm_d"),
                          DecoherencePartition.global_over(1e-31, "arm_c", "arm_d")):
            run_michelson(MichelsonConfig(
                alpha=1.0, arm_time=1.0, mode_frequency=W0, decoherence=partition,
            ))
        # the Ramsey pulse is built in closed form
        monkeypatch.setattr(np.linalg, "eigh", boom)
        local = DecoherencePartition.local_over(1e-31, "atom", "field")
        run_ramsey_quantized(RamseyConfig(
            omega0=W0, wait=1.0, field=CoherentField(1.5), detuning=1e9, decoherence=local,
        ))
        run_ramsey_quantized(RamseyConfig(
            omega0=W0, wait=1.0, field=FockField(2), decoherence=local,
            spontaneous_rate=0.3,
        ))
        run_ramsey_semiclassical(RamseyConfig(omega0=W0, wait=1.0, decoherence=_atom_partition(1e-31)))
        run_ramsey_semiclassical(RamseyConfig(
            omega0=W0, wait=1.0, decoherence=_atom_partition(1e-31), spontaneous_rate=0.3,
        ))


def _rand_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


class TestNumberSectors:
    @pytest.mark.parametrize("n_max", [3, 30])
    def test_recombination_matches_dense_product(self, n_max):
        # the beamsplitter conserves n_c + n_d: w is zero between sectors,
        # so each sector of w^dag rho w needs only that sector's blocks
        rng = np.random.default_rng(n_max)
        d = n_max + 1
        w = beamsplitter_5050(n_max)
        rho = _rand_hermitian(rng, d * d)
        dense = w.conj().T @ rho @ w
        inside = np.zeros(w.shape, dtype=bool)
        for total in range(2 * n_max + 1):
            ncs = range(max(0, total - n_max), min(n_max, total) + 1)
            block = np.ix_(*2 * ([nc * d + total - nc for nc in ncs],))
            b = beamsplitter_sector(n_max, total)
            inside[block] = True
            assert np.max(np.abs(dense[block] - b.conj().T @ rho[block] @ b)) <= 1e-13
        assert not np.any(w[~inside])

    @pytest.mark.parametrize("seed", [1, 12, 60])
    def test_pulse_matches_dense_propagator(self, seed):
        # zero wait isolates the two pulses: the pipeline's 2x2 rotations
        # against the eigendecomposed Jaynes-Cummings propagator, whose
        # random coupling strength must cancel
        rng = np.random.default_rng(seed)
        coupling, area = rng.uniform(0.2, 2.0), rng.uniform(0.2, math.pi)
        field = {1: FockField(1), 12: CoherentField(0.2), 60: CoherentField(4.0)}[seed]
        cfg = RamseyConfig(omega0=W0, wait=0.0, field=field, pulse_area=area)
        reference, _ = _dense_ramsey(cfg, coupling=coupling)
        result = run_ramsey_quantized(cfg)
        assert max(abs(p - q) for p, q in zip(result.p_g, reference)) <= 1e-13


BAD = [math.nan, math.inf, -math.inf]


class TestNonFiniteConfig:
    """Every config checks itself when built, so no bad one ever exists."""

    @pytest.mark.parametrize("value", BAD, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [
        "omega0", "wait", "pulse_area", "detuning", "spontaneous_rate", "field",
    ])
    def test_ramsey(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            params = {"omega0": W0, "wait": 1.0, name: value}
            if name == "field":
                params[name] = CoherentField(value)
            RamseyConfig(**params)

    def test_ramsey_detuning_phase_overflow(self):
        # each mode used to fail its own way inside the run, one of them
        # with an InvariantError, which is a ValueError too: match the text
        with pytest.raises(ValueError, match=r"detuning\*wait overflows"):
            RamseyConfig(omega0=W0, wait=1e10, detuning=1e300)
        for run in (run_ramsey_semiclassical, run_ramsey_quantized):
            assert run(RamseyConfig(omega0=W0, wait=0.0, detuning=1e300)).visibility == 1.0

    @pytest.mark.parametrize("value", BAD, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["alpha", "arm_time", "mode_frequency"])
    def test_michelson(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            MichelsonConfig(**{"alpha": 1.0, "arm_time": 1.0, "mode_frequency": W0, name: value})

    @pytest.mark.parametrize("value", BAD, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["omega0", "wait", "gamma_sp", "three_body_rate"])
    def test_ghz(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            GhzConfig(**{"n_atoms": 2, "omega0": 1.0, "wait": 1.0, name: value})


def _float_twin(value: int) -> float:
    return float(value) if value <= sys.float_info.max else math.inf


_RHO = DensityMatrix(np.eye(2) / 2.0)
_SR = SpeciesParams(gamma_sp=0.01, delta_e=1.0, kappa=1e-17, k3=1e-41)


class TestDoubleRange:
    """An integer is refused exactly where its float twin is: one past
    double range like inf, and a product past it like the float product."""

    @pytest.mark.parametrize("build", [
        lambda num: RamseyConfig(omega0=num(10**400), wait=1.0),
        lambda num: MichelsonConfig(alpha=num(10**400), arm_time=1.0, mode_frequency=1.0),
        lambda num: CoherentField(num(10**400)),
        lambda num: GhzConfig(n_atoms=2, omega0=num(10**400), wait=1.0),
        lambda num: DecoherencePartition(num(10**400)),
        lambda num: RamseyConfig(omega0=1.0, wait=num(10**200), detuning=num(10**200)),
        lambda num: SpeciesParams(num(10**400), 1, 1, 1),
        lambda num: ghz_design(SpeciesParams(num(10**200), 1, 1, num(10**200))),
        lambda num: single_atom_reach(num(10**400), 1.0),
        lambda num: matterwave_bound(num(10**400), 1.0, 1.0, 0.0),
        lambda num: distance_reach(num(10**400), 1.0, 1.0),
        lambda num: distance_reach(1, num(10**200), 1),
        lambda num: cosmic_bound(num(10**400), 1.0),
        lambda num: cosmic_bound(num(10**300), num(10**300)),
        lambda num: default_design_grids(_SR, num(10**400), 50),
        lambda num: default_design_grids(_SR, num(10**200), num(10**200)),
        lambda num: evolve_analytic(_RHO, (0.0, 0.0), 1.0, sigma=num(10**400)),
        lambda num: evolve_analytic(_RHO, (0.0, 0.0), num(10**400)),
        lambda num: evolve_stepped(_RHO, np.zeros((2, 2)), 1.0, losses=[(num(10**400), np.eye(2))], step=0.1),
        lambda num: fock_cutoff(num(10**400)),
        lambda num: run_michelson(MichelsonConfig(alpha=num(10**200), arm_time=1.0, mode_frequency=1.0)),
    ], ids=["ramsey", "michelson", "coherent", "ghz", "partition", "detuning*wait", "species", "species-design",
            "single-atom", "matterwave", "distance", "distance-gamma_sp**2", "cosmic", "cosmic-sigma*age",
            "grid-decades", "grid-span", "engine-sigma", "engine-duration", "engine-loss-rate",
            "mean-photons", "michelson-|alpha|**2"])
    def test_integer_is_refused_as_its_float_twin(self, build):
        # these used to raise OverflowError ("int too large to convert to float")
        with pytest.raises(ValueError) as twin:
            build(_float_twin)
        ints = []
        with pytest.raises(ValueError) as got:
            build(lambda value: ints.append(value) or value)
        text = str(got.value)
        for value in sorted(set(ints), key=lambda v: -len(repr(v))):  # 10**300 before 10**200
            text = text.replace(repr(value), repr(_float_twin(value)))
        assert text == str(twin.value)

    @pytest.mark.parametrize("run", [run_ramsey_semiclassical, run_ramsey_quantized],
                             ids=["semiclassical", "quantized"])
    def test_integer_damping_product_runs_as_its_float_twin(self, run):
        # spontaneous_rate*wait past double range used to be an OverflowError from math.expm1
        got, twin = (run(RamseyConfig(omega0=1.0, wait=num(10**200), spontaneous_rate=num(10**200)))
                     for num in (int, float))
        assert got.visibility == twin.visibility and got.p_g.tolist() == twin.p_g.tolist()


class TestConfigTypes:
    """Counts are integers, a fringe scan has two points and every value is
    in range, when the config is built."""

    @pytest.mark.parametrize("n", [True, False, np.bool_(True)], ids=["True", "False", "np.True_"])
    def test_fock_rejects_bool(self, n):
        # numpy would read v[True] as a mask, not as level 1
        with pytest.raises(ValueError, match="photon number must be an integer"):
            FockField(n)

    @pytest.mark.parametrize("n", [2.5, 2.0, "2", None])
    def test_fock_rejects_non_integer(self, n):
        with pytest.raises(ValueError, match="photon number must be an integer"):
            FockField(n)

    @pytest.mark.parametrize("n", [True, 2.5, 2.0, np.float64(2.0)], ids=str)
    def test_ghz_rejects_non_integer(self, n):
        with pytest.raises(ValueError, match="n_atoms must be an integer"):
            GhzConfig(n_atoms=n, omega0=1.0, wait=1.0)

    def test_numpy_integers_are_accepted(self):
        cfg = RamseyConfig(omega0=W0, wait=1.0, field=FockField(np.int64(3)))
        assert _same_fringe(run_ramsey_quantized(cfg),
                            run_ramsey_quantized(dataclasses.replace(cfg, field=FockField(3))))
        # np.int32 squared would wrap at 50000 atoms
        big = run_ghz(GhzConfig(n_atoms=np.int32(50_000), omega0=1.0, wait=0.0, decoherence=_atoms(1.0)))
        assert big == run_ghz(GhzConfig(n_atoms=50_000, omega0=1.0, wait=0.0, decoherence=_atoms(1.0)))

    @pytest.mark.parametrize("run, build, first", [
        (run_ramsey_semiclassical, lambda num: RamseyConfig(
            omega0=num(10**160), wait=1.0, decoherence=_atom_partition(1e-30)), 0.0),
        (run_ramsey_quantized, lambda num: RamseyConfig(
            omega0=num(10**308), detuning=num(-10**308), wait=1.0,
            decoherence=DecoherencePartition.local_over(1e-30, "atom", "field")), 0.0),
        (run_michelson, lambda num: MichelsonConfig(
            alpha=2.0, arm_time=1.0, mode_frequency=num(10**160),
            decoherence=DecoherencePartition.local_over(1e-30, "arm_c", "arm_d")), 2.0),
        (run_ghz, lambda num: GhzConfig(
            n_atoms=10**100, omega0=num(10**100), wait=1.0, decoherence=_atoms(1e-30)), 0.0),
        (run_ghz, lambda num: GhzConfig(
            n_atoms=10**200, omega0=num(10**200), wait=1.0, gamma_sp=num(10**200), decoherence=_atoms(1e-30)), 0.0),
    ], ids=["semiclassical", "quantized", "michelson", "ghz", "ghz-loss"])
    def test_integer_values_run_as_their_float_twins(self, run, build, first):
        # an integer gap, gap sum or loss beyond double range used to raise
        # OverflowError ("int too large to convert to float") where its float
        # twin decays fully
        got, twin = run(build(int)), run(build(float))
        assert [np.asarray(v).tolist() for v in got] == [np.asarray(v).tolist() for v in twin]
        assert got[0] == first

    @pytest.mark.parametrize("points, message", [
        (0, "need at least two phase points"),
        (1, "need at least two phase points"),
        (True, "phase_points must be an integer"),
        (2.0, "phase_points must be an integer"),
    ], ids=["0", "1", "True", "2.0"])
    def test_ramsey_needs_two_phase_points(self, points, message):
        with pytest.raises(ValueError, match=message):
            RamseyConfig(omega0=1.0, wait=1.0, phase_points=points)

    @pytest.mark.parametrize("build, message", [
        (lambda: FockField(-1), "^photon number must be non-negative$"),
        (lambda: RamseyConfig(omega0=1.0, wait=1.0, pulse_area=0.0), r"^pulse_area must lie in \(0, pi\]$"),
        (lambda: RamseyConfig(omega0=1.0, wait=1.0, pulse_area=-0.5), r"^pulse_area must lie in \(0, pi\]$"),
        (lambda: RamseyConfig(omega0=1.0, wait=1.0, pulse_area=math.pi + 1e-9),
         r"^pulse_area must lie in \(0, pi\]$"),
        (lambda: RamseyConfig(omega0=1.0, wait=-1.0), "^wait and spontaneous_rate must be non-negative$"),
        (lambda: RamseyConfig(omega0=1.0, wait=1.0, spontaneous_rate=-0.1),
         "^wait and spontaneous_rate must be non-negative$"),
        (lambda: MichelsonConfig(alpha=1.0, arm_time=-1.0, mode_frequency=W0),
         "^arm_time must be non-negative$"),
    ], ids=["fock-negative", "pulse-zero", "pulse-negative", "pulse-above-pi", "wait-negative",
            "spontaneous-negative", "arm-time-negative"])
    def test_out_of_range_value_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("points", [2, 3, 32, np.int64(1000)], ids=str)
    def test_ramsey_phase_scan(self, points):
        cfg = RamseyConfig(omega0=1.0, wait=1.0, phase_points=points)
        assert "phases" not in {f.name for f in dataclasses.fields(cfg)}
        assert np.array_equal(cfg.phases, np.linspace(0.0, 2.0 * math.pi, points, endpoint=False))


class TestSizeLimits:
    """Oversized problems are refused by the config, before any array exists."""

    def test_ramsey_cutoff(self):
        # the cutoff is the field's own: Fock level n needs n + 1
        at = RamseyConfig(omega0=W0, wait=1.0, field=FockField(RAMSEY_MAX_CUTOFF - 1))
        assert at.cutoff() == RAMSEY_MAX_CUTOFF
        for cfg in (
            dataclasses.replace(at, field=FockField(RAMSEY_MAX_CUTOFF)),
            dataclasses.replace(at, field=FockField(100_000_000)),
            dataclasses.replace(at, field=CoherentField(1e4)),
        ):
            with pytest.raises(ValueError, match="exceeds the limit"):
                cfg.cutoff()

    @pytest.mark.parametrize("points", [MAX_PHASE_POINTS + 1, 10**18])
    def test_phase_points(self, points):
        assert RamseyConfig(omega0=1.0, wait=1.0, phase_points=MAX_PHASE_POINTS).phase_points == MAX_PHASE_POINTS
        with pytest.raises(ValueError, match="exceeds the limit"):
            RamseyConfig(omega0=1.0, wait=1.0, phase_points=points)

    @pytest.mark.parametrize("alpha", [1e200, 1.7e308 + 1.7e308j], ids=["real", "complex"])
    def test_overflowing_dominant_n(self, alpha):
        # |alpha|**2 overflows: a ValueError, like fock_cutoff's, not an OverflowError;
        # a complex alpha whose parts are finite is built first, and refused the same way
        field = CoherentField(alpha)
        with pytest.raises(ValueError, match="overflows"):
            field.dominant_n


def _rows_are_single_runs(rows, cfgs):
    return len(rows) == len(cfgs) and all(
        _same_fringe(row, run_ramsey_quantized(cfg)) for row, cfg in zip(rows, cfgs))


class TestRamseyBatch:
    """iter_ramsey_batch computes many configs as rows of one pipeline."""

    def test_sweep_memory_stays_at_one_run(self):
        # 12 sigma rows at alpha=300 (cutoff 92410) share one pulse and run
        # in blocks of whole rows, so the batch peaks near one run, not 12
        local = DecoherencePartition.local_over
        base = RamseyConfig(omega0=W0, wait=1.0, field=CoherentField(300.0), spontaneous_rate=0.2)
        cfgs = [dataclasses.replace(base, decoherence=local(s, "atom", "field"))
                for s in np.linspace(0.0, 4e-31, 12)]
        assert base.cutoff() == 92410

        def peak(run):
            tracemalloc.start()
            try:
                return run(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, one_peak = peak(lambda: run_ramsey_quantized(cfgs[-1]))
        rows, rows_peak = peak(lambda: list(iter_ramsey_batch(cfgs)))
        assert rows_peak <= 1.5 * one_peak, (rows_peak, one_peak)
        assert _same_fringe(rows[-1], one)
        assert _rows_are_single_runs(rows, cfgs)

    def test_rows_equal_single_runs(self):
        # seeded draws, in runs of configs that share the pulse stage and
        # differ in their waits: every row is exactly its single run
        rng = np.random.default_rng(17)
        cfgs = []
        for _ in range(12):
            cfg, _ = _random_ramsey(rng, "quantized")
            for _ in range(int(rng.integers(1, 4))):
                cfgs.append(dataclasses.replace(
                    cfg, wait=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
                    detuning=float(rng.integers(0, 10**12)),
                    decoherence=DecoherencePartition(float(rng.uniform(0.0, 1e-30)), cfg.decoherence.blocks),
                ))
        rows = list(iter_ramsey_batch(cfgs))
        assert _rows_are_single_runs(rows, cfgs)
        assert FringeResult._fields == ("visibility", "p_g")  # a row unpacks as (visibility, p_g)
        for row, cfg in zip(rows, cfgs):
            assert type(row) is FringeResult and type(row.visibility) is float
            assert row.p_g.shape == (cfg.phase_points,) and not row.p_g.flags.writeable

    def test_row_rates_are_decay_rate(self, monkeypatch):
        # the batch forms each row's rate from its block set's cached D: it is
        # the row's own decay_rate bit for bit, for sigma = 0, no blocks and
        # an infinite D (omega0=1e200) too
        rates = []
        damping = edsim.interferometry._damping

        def recording(gamma, t, rate):
            rates.append(rate)
            return damping(gamma, t, rate)

        monkeypatch.setattr(edsim.interferometry, "_damping", recording)
        atom, field = frozenset({"atom"}), frozenset({"field"})
        blocks = ((atom | field,), (atom, field), (atom,), (field,), ())
        rng = np.random.default_rng(23)
        cfgs = [RamseyConfig(
            omega0=1e200 if rng.random() < 0.25 else W0, wait=float(rng.uniform(0.0, 2.0)),
            field=FockField(int(rng.integers(1, 4))), detuning=float(rng.integers(0, 10**12)),
            decoherence=DecoherencePartition(float(rng.choice([0.0, rng.uniform(0.0, 1e-30)])),
                                             blocks[int(rng.integers(len(blocks)))]),
        ) for _ in range(40)]
        list(iter_ramsey_batch(cfgs))
        want = [cfg.decoherence.decay_rate(edsim.interferometry.gaps("ramsey_quantized", cfg)) for cfg in cfgs]
        assert {cfg.decoherence.blocks for cfg in cfgs} == set(blocks)
        assert {0.0, math.inf} < set(want) and any(cfg.decoherence.sigma == 0.0 for cfg in cfgs)
        assert list(map(float.hex, rates)) == list(map(float.hex, want))

    def test_batch_spans_multi_row_blocks(self, monkeypatch):
        # 100 entries hold three FockField(12) rows of 32 phase points, so
        # ten rows run in blocks of 3, 3, 3 and 1
        monkeypatch.setattr(edsim.interferometry, "_BLOCK_ENTRIES", 100)
        sizes = []
        waiting = edsim.interferometry._quantized_wait

        def recording(rows, pulse):
            sizes.append(len(rows))
            return waiting(rows, pulse)

        monkeypatch.setattr(edsim.interferometry, "_quantized_wait", recording)
        base = RamseyConfig(omega0=W0, wait=1.0, field=FockField(12), spontaneous_rate=0.3)
        cfgs = [dataclasses.replace(base, decoherence=DecoherencePartition.local_over(float(s), "atom", "field"))
                for s in np.linspace(0.0, 4e-31, 10)]
        rows = list(iter_ramsey_batch(cfgs))
        assert sizes == [3, 3, 3, 1]
        assert _rows_are_single_runs(rows, cfgs)
        # an unsupported block in row 7 fails the third block: the first
        # two blocks' rows come out, then row 7's single-run error
        cfgs[6] = dataclasses.replace(base, decoherence=DecoherencePartition.global_over(1e-31, "atoms"))
        with pytest.raises(ValueError) as single:
            run_ramsey_quantized(cfgs[6])
        rows = []
        with pytest.raises(ValueError) as batch:
            for row in iter_ramsey_batch(cfgs):
                rows.append(row)
        assert str(batch.value) == str(single.value) == "unsupported dephasing block ['atoms']"
        assert _rows_are_single_runs(rows, cfgs[:6])

    def test_zero_wait_rows_keep_the_pulsed_pairs(self):
        # omega0=1e200 makes the dephasing rate infinite: the waited row
        # decays fully, and the zero-wait rows equal their sigma = 0 run,
        # with no NaN from an infinite rate times a zero wait
        base = RamseyConfig(omega0=1e200, wait=0.0, field=CoherentField(3.0), spontaneous_rate=0.4,
                            decoherence=DecoherencePartition.local_over(1e-30, "atom", "field"))
        cfgs = [dataclasses.replace(base, wait=w) for w in (0.0, 1.0, 0.0)]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            rows = list(iter_ramsey_batch(cfgs))
        undephased = run_ramsey_quantized(dataclasses.replace(base, decoherence=DecoherencePartition.none()))
        assert _same_fringe(rows[0], undephased) and _same_fringe(rows[2], undephased)
        assert undephased.visibility > 0.5
        assert not any(np.isnan(row.p_g).any() for row in rows)
        assert _same_fringe(rows[1], run_ramsey_quantized(cfgs[1]))


def _random_blocks(rng, labels):
    """Any disjoint blocks over the labels: each label joins one of
    len(labels) blocks or none."""
    ids = rng.integers(-1, len(labels), size=len(labels))
    return tuple(frozenset(lab for lab, i in zip(labels, ids) if i == b)
                 for b in sorted(set(ids.tolist()) - {-1}))


def _random_ramsey(rng, mode):
    """A seeded Ramsey draw and its strength D: whole rad/s detunings keep
    omega0 - detuning exact, and an even phase scan samples antipodal
    phases, so the sampled visibility is exactly proportional to |B|."""
    labels = ("atom",) if mode == "semiclassical" else ("atom", "field")
    blocks = _random_blocks(rng, labels)
    detuning = float(rng.integers(1, 10**12))
    if rng.random() < 0.5:
        field = FockField(int(rng.integers(1, 40)))
    else:
        field = CoherentField(complex(rng.uniform(0.2, 6.0) * cmath.exp(1j * rng.uniform(0, 6.3))))
    cfg = RamseyConfig(
        omega0=W0, wait=float(rng.uniform(0.1, 2.0)), field=field, detuning=detuning,
        decoherence=DecoherencePartition(0.0, blocks), spontaneous_rate=float(rng.uniform(0.0, 1.0)),
        phase_points=2 * int(rng.integers(2, 33)),
    )
    # gaps across |e,k-1><g,k| (the semiclassical blocks name the atom only)
    return cfg, cfg.decoherence.strength({"atom": W0, "field": -(W0 - detuning)})


class TestDecayLaw:
    """Seeded property checks of the one decay law: every interference
    observable carries exp(-sigma*D*t), with D = strength(gaps) of the
    partition (test_readme checks it against the README table)."""

    @pytest.mark.parametrize("mode", ["quantized", "semiclassical"])
    def test_ramsey_visibility_ratio(self, mode):
        rng = np.random.default_rng(314 if mode == "quantized" else 315)
        runner = run_ramsey_quantized if mode == "quantized" else run_ramsey_semiclassical
        for _ in range(40):
            cfg, d = _random_ramsey(rng, mode)
            x = float(rng.uniform(0.05, 3.0)) if d > 0.0 else 0.0
            sigma = x / (d * cfg.wait) if d > 0.0 else 1e-31
            v0 = runner(cfg).visibility
            blocks = cfg.decoherence.blocks
            v = runner(dataclasses.replace(cfg, decoherence=DecoherencePartition(sigma, blocks))).visibility
            assert v0 > 1e-3  # a fringe to take the ratio of
            assert abs(v / v0 - math.exp(-x)) <= 1e-9

    def test_michelson_matches_table_and_sector_oracle(self):
        rng = np.random.default_rng(316)
        for _ in range(25):
            blocks = _random_blocks(rng, ("arm_c", "arm_d"))
            omega = W0 * float(rng.uniform(0.5, 2.0))
            cfg = MichelsonConfig(
                alpha=complex(rng.uniform(0.1, 5.0) * cmath.exp(1j * rng.uniform(0, 6.3))),
                arm_time=float(rng.uniform(0.1, 2.0)), mode_frequency=omega,
                decoherence=DecoherencePartition(float(rng.uniform(0.0, 2.0)) / omega**2, blocks),
            )
            res = run_michelson(cfg)
            got = (res.mean_photons_out_a, res.mean_photons_out_b)
            for g, want in zip(got, _michelson_sectors(cfg)):
                assert abs(g - want) <= 1e-13 * max(1.0, abs(want))
            d = cfg.decoherence.strength({"arm_c": omega, "arm_d": -omega})
            x = cfg.decoherence.sigma * d * cfg.arm_time
            assert abs((got[0] - got[1]) / (got[0] + got[1]) - math.exp(-x)) <= 1e-12

    def test_visibility_monotone_in_sigma(self):
        rng = np.random.default_rng(317)
        for mode, runner in (("quantized", run_ramsey_quantized),
                             ("semiclassical", run_ramsey_semiclassical)):
            for _ in range(10):
                cfg, d = _random_ramsey(rng, mode)
                scale = 3.0 / (d * cfg.wait) if d > 0.0 else 1e-31
                sigmas = np.sort(rng.uniform(0.0, scale, 6))
                vis = [runner(dataclasses.replace(
                    cfg, decoherence=DecoherencePartition(float(s), cfg.decoherence.blocks))).visibility
                    for s in sigmas]
                assert all(b <= a for a, b in zip(vis, vis[1:]))
                assert (vis[-1] < vis[0]) == (d > 0.0)
