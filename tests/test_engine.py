"""Tests for the dephasing generator and the two propagators."""

import math

import numpy as np
import pytest

from edsim.constants import PLANCK_TIME
from edsim.core import (
    DensityMatrix,
    Operator,
    PureState,
    coherence_weight,
    embed,
    hspace,
    identity,
    validate_density,
)
from edsim.engine import (
    EvolutionSpec,
    LossChannel,
    decoherence_rate,
    evolve_analytic,
    evolve_stepped,
    generator,
)
from edsim.sensitivity import single_atom_reach

SPACE2 = hspace(atom=2)
ZERO2 = Operator(SPACE2, np.zeros((2, 2)))
LOWER2 = Operator(SPACE2, np.array([[0.0, 1.0], [0.0, 0.0]]))


def _rand_hermitian(rng, dim, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2.0
    return scale * h / np.linalg.norm(h, 2)


def _rand_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _superposition():
    return DensityMatrix(SPACE2, np.full((2, 2), 0.5, dtype=complex))


class TestGenerator:
    def test_eigenprojector_is_stationary(self):
        h = Operator(SPACE2, np.diag([0.0, 3.0]))
        rho = DensityMatrix(SPACE2, np.diag([1.0, 0.0]).astype(complex))
        g = generator(rho, EvolutionSpec(h, 1.0, 0.5, (h,)))
        assert np.linalg.norm(g) == 0.0

    def test_two_level_off_diagonal_rate(self):
        # oracle: expand -i[H, rho] - sigma [H, [H, rho]] by hand for
        # H = diag(0, w); the |e><g| element evolves at (-i*w - sigma*w^2)
        w, sigma = 5.0, 0.02
        h = Operator(SPACE2, np.diag([0.0, w]))
        r = 0.3 + 0.1j
        rho = DensityMatrix(SPACE2, np.array([[0.6, np.conj(r)], [r, 0.4]]))
        g = generator(rho, EvolutionSpec(h, 1.0, sigma, (h,)))
        assert abs(g[1, 0] - (-1j * w - sigma * w * w) * r) <= 1e-15

    def test_traceless_and_hermitian_with_losses(self):
        rng = np.random.default_rng(11)
        space = hspace(sys=4)
        h = Operator(space, _rand_hermitian(rng, 4))
        lower = Operator(space, rng.normal(size=(4, 4)))
        rho = DensityMatrix(space, _rand_density(rng, 4))
        spec = EvolutionSpec(h, 1.0, 0.3, (h,), losses=(LossChannel(0.4, lower),))
        g = generator(rho, spec)
        assert abs(np.trace(g)) <= 1e-12
        assert np.linalg.norm(g - g.conj().T) <= 1e-12

    def test_dimension_mismatch(self):
        h = Operator(hspace(sys=3), np.eye(3))
        rho = DensityMatrix(SPACE2, np.eye(2) / 2.0)
        with pytest.raises(ValueError):
            generator(rho, EvolutionSpec(h, 1.0))


class TestEvolveAnalytic:
    def test_pure_phase_at_sigma_zero(self):
        w0, t = 2.0, 0.7
        h = Operator(SPACE2, np.diag([0.0, w0]))
        out = evolve_analytic(_superposition(), EvolutionSpec(h, t))
        assert abs(out.entries[1, 0] - 0.5 * np.exp(-1j * w0 * t)) <= 1e-12

    def test_half_life_amplitude(self):
        # closed form: |rho_ge| = 0.5*exp(-sigma*w^2*t) = 0.25 at sigma*w^2*t = ln 2
        w0 = 3.0
        sigma = math.log(2.0) / (w0 * w0)
        h = Operator(SPACE2, np.diag([0.0, w0]))
        out = evolve_analytic(_superposition(), EvolutionSpec(h, 1.0, sigma, (h,)))
        assert abs(abs(out.entries[0, 1]) - 0.25) <= 1e-12

    def test_complete_dephasing_gives_equal_mixture(self):
        w0 = 3.0
        sigma = 50.0 / (w0 * w0)
        h = Operator(SPACE2, np.diag([0.0, w0]))
        out = evolve_analytic(_superposition(), EvolutionSpec(h, 1.0, sigma, (h,)))
        assert abs(out.entries[0, 1]) <= 1e-10
        assert np.allclose(np.diag(out.entries).real, [0.5, 0.5], atol=1e-12)
        validate_density(out)

    def test_noncommuting_rejected(self):
        h = Operator(SPACE2, np.diag([0.0, 1.0]))
        block = Operator(SPACE2, np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            evolve_analytic(_superposition(), EvolutionSpec(h, 1.0, 1.0, (block,)))

    def test_losses_rejected(self):
        spec = EvolutionSpec(ZERO2, 1.0, losses=(LossChannel(0.1, LOWER2),))
        with pytest.raises(ValueError):
            evolve_analytic(_superposition(), spec)

    def test_degenerate_coherence_exactly_invariant(self):
        # states |0,1> and |1,0> share every block eigenvalue, so the
        # dephasing strength must not touch their coherence at all
        space = hspace(a=2, b=2)
        p_e = np.diag([0.0, 1.0])
        h = 1.5e15 * (
            embed(Operator(hspace(a=2), p_e), space) + embed(Operator(hspace(b=2), p_e), space)
        )
        psi = np.zeros(4, dtype=complex)
        psi[1] = psi[2] = 1.0 / math.sqrt(2.0)
        rho = PureState(space, psi).to_density()
        out_none = evolve_analytic(rho, EvolutionSpec(h, 1.0, 0.0, (h,)))
        out_huge = evolve_analytic(rho, EvolutionSpec(h, 1.0, 1e-2, (h,)))
        assert np.array_equal(out_none.entries, out_huge.entries)
        assert abs(abs(out_huge.entries[1, 2]) - 0.5) <= 1e-14

    def test_coherence_weight_monotone(self):
        rng = np.random.default_rng(3)
        space = hspace(sys=4)
        h = Operator(space, np.diag([0.0, 1.0, 2.5, 4.0]))
        rho0 = DensityMatrix(space, _rand_density(rng, 4))
        u = identity(space)  # eigenbasis of the diagonal h
        weights = [
            coherence_weight(evolve_analytic(rho0, EvolutionSpec(h, t, 0.2, (h,))), u)
            for t in np.linspace(0.0, 4.0, 9)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(weights, weights[1:]))

    def test_trace_hermiticity_positivity_preserved(self):
        rng = np.random.default_rng(4)
        space = hspace(sys=6)
        h = Operator(space, _rand_hermitian(rng, 6, scale=2.0))
        rho0 = DensityMatrix(space, _rand_density(rng, 6))
        out = evolve_analytic(rho0, EvolutionSpec(h, 3.0, 0.7, (h,)))
        validate_density(out)


class TestEvolveStepped:
    def test_zero_duration_identity(self):
        rho = _superposition()
        spec = EvolutionSpec(ZERO2, 0.0, step=1.0)
        out = evolve_stepped(rho, spec)
        assert np.array_equal(out.entries, rho.entries)

    def test_matches_analytic_two_level(self):
        w0 = 3.0
        sigma = math.log(2.0) / (w0 * w0)
        h = Operator(SPACE2, np.diag([0.0, w0]))
        exact = evolve_analytic(_superposition(), EvolutionSpec(h, 1.0, sigma, (h,)))
        stepped = evolve_stepped(_superposition(), EvolutionSpec(h, 1.0, sigma, (h,), step=1e-3))
        assert np.linalg.norm(exact.entries - stepped.entries) <= 1e-8

    def test_amplitude_damping_closed_form(self):
        # oracle: excited population decays exactly as exp(-rate*t)
        rate, t = 0.7, 2.0
        rho = DensityMatrix(SPACE2, np.diag([0.0, 1.0]).astype(complex))
        spec = EvolutionSpec(ZERO2, t, losses=(LossChannel(rate, LOWER2),), step=t / 2000.0)
        out = evolve_stepped(rho, spec)
        assert abs(out.entries[1, 1].real - math.exp(-rate * t)) <= 1e-8
        validate_density(out)

    def test_step_larger_than_duration(self):
        spec = EvolutionSpec(ZERO2, 1.0, step=2.0)
        with pytest.raises(ValueError):
            evolve_stepped(_superposition(), spec)

    def test_step_size_generator_bound(self):
        h = Operator(SPACE2, np.diag([0.0, 100.0]))
        spec = EvolutionSpec(h, 1.0, step=0.1)
        with pytest.raises(ValueError):
            evolve_stepped(_superposition(), spec)


class TestDecoherenceRate:
    def test_zero_gap(self):
        assert decoherence_rate(0.0, PLANCK_TIME) == 0.0

    def test_one_ev_millihertz(self):
        # sigma tuned so a 1 eV gap decoheres at roughly 1e-3 per second
        rate = decoherence_rate(1.0, 4.33e-34)
        assert abs(rate / 1e-3 - 1.0) <= 1e-3

    def test_twenty_gev_at_planck_time(self):
        rate = decoherence_rate(20e9, PLANCK_TIME)
        assert 3e7 <= rate <= 1e8
        assert abs(rate / 4.9776e7 - 1.0) <= 1e-4

    def test_inverse_of_single_atom_reach(self):
        for sigma in (1e-40, 4.33e-34, 2.2e-20):
            back = single_atom_reach(decoherence_rate(1.0, sigma), 1.0)
            assert abs(back / sigma - 1.0) <= 1e-12


class TestEvolutionSpec:
    @pytest.mark.parametrize("sigma,duration", [
        (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (0.0, -1.0), (0.0, math.nan), (0.0, math.inf),
    ], ids=["sigma-neg", "sigma-nan", "sigma-inf", "duration-neg", "duration-nan", "duration-inf"])
    def test_bad_scalars_rejected(self, sigma, duration):
        with pytest.raises(ValueError):
            EvolutionSpec(ZERO2, duration, sigma)


class TestSteppedVsAnalyticRandom:
    def test_random_commuting_blocks(self):
        rng = np.random.default_rng(5)
        space = hspace(left=3, right=3)
        h_left = embed(Operator(hspace(left=3), _rand_hermitian(rng, 3)), space)
        h_right = embed(Operator(hspace(right=3), _rand_hermitian(rng, 3)), space)
        drive = h_left + h_right
        rho0 = DensityMatrix(space, _rand_density(rng, 9))
        blocks = (h_left, h_right)
        # a zero (diagonal) drive next to non-diagonal blocks is mixed
        # input: the eigenbasis path must refine it like any other matrix
        for h in (drive, Operator(space, np.zeros((9, 9)))):
            exact = evolve_analytic(rho0, EvolutionSpec(h, 1.0, 0.15, blocks))
            stepped = evolve_stepped(rho0, EvolutionSpec(h, 1.0, 0.15, blocks, step=1e-3))
            assert np.linalg.norm(exact.entries - stepped.entries) <= 1e-8
            validate_density(exact)
            validate_density(stepped)


class TestDiagonalPath:
    """Diagonal inputs skip the eigenbasis; the general path and RK4 are its oracles."""

    @staticmethod
    def _problem():
        rng = np.random.default_rng(6)
        space = hspace(left=3, right=3)
        h_left = embed(Operator(hspace(left=3), np.diag(rng.normal(size=3))), space)
        h_right = embed(Operator(hspace(right=3), np.diag(rng.normal(size=3))), space)
        rho0 = DensityMatrix(space, _rand_density(rng, 9))
        g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        v, _ = np.linalg.qr(g)
        return space, h_left + h_right, (h_left, h_right), rho0, v

    def test_matches_rotated_eigenbasis_path(self):
        space, drive, blocks, rho0, v = self._problem()
        exact = evolve_analytic(rho0, EvolutionSpec(drive, 1.0, 0.15, blocks))

        def rotate(m):
            return v @ m @ v.conj().T

        spec = EvolutionSpec(
            Operator(space, rotate(drive.entries)), 1.0, 0.15,
            tuple(Operator(space, rotate(b.entries)) for b in blocks),
        )
        rotated = evolve_analytic(DensityMatrix(space, rotate(rho0.entries)), spec)
        back = v.conj().T @ rotated.entries @ v
        assert np.linalg.norm(exact.entries - back) <= 1e-8
        validate_density(exact)

    def test_matches_stepped(self):
        _, drive, blocks, rho0, _ = self._problem()
        exact = evolve_analytic(rho0, EvolutionSpec(drive, 1.0, 0.15, blocks))
        stepped = evolve_stepped(rho0, EvolutionSpec(drive, 1.0, 0.15, blocks, step=1e-3))
        assert np.linalg.norm(exact.entries - stepped.entries) <= 1e-8
