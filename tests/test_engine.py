"""Tests for the dephasing generator and the two propagators."""

import math
import warnings

import numpy as np
import pytest

from edsim.core import (
    DensityMatrix,
    Operator,
    hspace,
    validate_density,
)
from edsim.engine import (
    EvolutionSpec,
    LossChannel,
    _rhs,
    evolve_analytic,
    evolve_stepped,
)

SPACE2 = hspace(atom=2)
ZERO2 = Operator(SPACE2, np.zeros((2, 2)))
LOWER2 = Operator(SPACE2, np.array([[0.0, 1.0], [0.0, 0.0]]))


def _rand_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2.0
    return h / np.linalg.norm(h, 2)


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
        g = _rhs(EvolutionSpec(h, 1.0, 0.5, (h,)))(rho.entries)
        assert np.linalg.norm(g) == 0.0

    def test_two_level_off_diagonal_rate(self):
        # oracle: expand -i[H, rho] - sigma [H, [H, rho]] by hand for
        # H = diag(0, w); the |e><g| element evolves at (-i*w - sigma*w^2)
        w, sigma = 5.0, 0.02
        h = Operator(SPACE2, np.diag([0.0, w]))
        r = 0.3 + 0.1j
        rho = DensityMatrix(SPACE2, np.array([[0.6, np.conj(r)], [r, 0.4]]))
        g = _rhs(EvolutionSpec(h, 1.0, sigma, (h,)))(rho.entries)
        assert abs(g[1, 0] - (-1j * w - sigma * w * w) * r) <= 1e-15

    def test_traceless_and_hermitian_with_losses(self):
        rng = np.random.default_rng(11)
        space = hspace(sys=4)
        h = Operator(space, _rand_hermitian(rng, 4))
        lower = Operator(space, rng.normal(size=(4, 4)))
        rho = DensityMatrix(space, _rand_density(rng, 4))
        spec = EvolutionSpec(h, 1.0, 0.3, (h,), losses=(LossChannel(0.4, lower),))
        g = _rhs(spec)(rho.entries)
        assert abs(np.trace(g)) <= 1e-12
        assert np.linalg.norm(g - g.conj().T) <= 1e-12


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

    def test_gap_squared_beyond_double_range(self):
        # the squared gap 1e400 overflows: full decay, no warning, and a
        # zero duration still returns the initial state (not inf*0 = NaN)
        h = Operator(SPACE2, np.diag([0.0, 1e200]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = evolve_analytic(_superposition(), EvolutionSpec(h, 1.0, 1e-31, (h,)))
            same = evolve_analytic(_superposition(), EvolutionSpec(h, 0.0, 1e-31, (h,)))
        assert out.entries[0, 1] == 0.0
        assert np.array_equal(np.diag(out.entries), [0.5, 0.5])
        assert np.array_equal(same.entries, _superposition().entries)

    @pytest.mark.parametrize("drive_diagonal", [False, True], ids=["drive", "block"])
    def test_non_diagonal_rejected(self, drive_diagonal):
        diag = Operator(SPACE2, np.diag([0.0, 1.0]))
        flip = Operator(SPACE2, np.array([[0.0, 1.0], [1.0, 0.0]]))
        drive, block = (diag, flip) if drive_diagonal else (flip, diag)
        with pytest.raises(ValueError, match="diagonal"):
            evolve_analytic(_superposition(), EvolutionSpec(drive, 1.0, 1.0, (block,)))

    def test_losses_rejected(self):
        spec = EvolutionSpec(ZERO2, 1.0, losses=(LossChannel(0.1, LOWER2),))
        with pytest.raises(ValueError):
            evolve_analytic(_superposition(), spec)

    def test_degenerate_coherence_exactly_invariant(self):
        # states |0,1> and |1,0> share every block eigenvalue, so the
        # dephasing strength must not touch their coherence at all
        space = hspace(a=2, b=2)
        p_e = np.diag([0.0, 1.0])
        h = Operator(space, 1.5e15 * (np.kron(p_e, np.eye(2)) + np.kron(np.eye(2), p_e)))
        psi = np.zeros(4, dtype=complex)
        psi[1] = psi[2] = 1.0 / math.sqrt(2.0)
        rho = DensityMatrix(space, np.outer(psi, psi.conj()))
        out_none = evolve_analytic(rho, EvolutionSpec(h, 1.0, 0.0, (h,)))
        out_huge = evolve_analytic(rho, EvolutionSpec(h, 1.0, 1e-2, (h,)))
        assert np.array_equal(out_none.entries, out_huge.entries)
        assert abs(abs(out_huge.entries[1, 2]) - 0.5) <= 1e-14

    def test_coherence_weight_monotone(self):
        rng = np.random.default_rng(3)
        space = hspace(sys=4)
        h = Operator(space, np.diag([0.0, 1.0, 2.5, 4.0]))
        rho0 = DensityMatrix(space, _rand_density(rng, 4))
        weights = []
        for t in np.linspace(0.0, 4.0, 9):
            # the diagonal h's eigenbasis is the given one: sum the off-diagonal magnitudes
            x = evolve_analytic(rho0, EvolutionSpec(h, t, 0.2, (h,))).entries
            weights.append(float(np.sum(np.abs(x)) - np.sum(np.abs(np.diag(x)))))
        assert all(b <= a + 1e-12 for a, b in zip(weights, weights[1:]))

    def test_trace_hermiticity_positivity_preserved(self):
        rng = np.random.default_rng(4)
        space = hspace(sys=6)
        h = Operator(space, np.diag(rng.normal(scale=2.0, size=6)))
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


class TestLossChannel:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0], ids=["nan", "inf", "neg"])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            LossChannel(rate, LOWER2)


class TestEvolutionSpec:
    @pytest.mark.parametrize("sigma,duration", [
        (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (0.0, -1.0), (0.0, math.nan), (0.0, math.inf),
    ], ids=["sigma-neg", "sigma-nan", "sigma-inf", "duration-neg", "duration-nan", "duration-inf"])
    def test_bad_scalars_rejected(self, sigma, duration):
        with pytest.raises(ValueError):
            EvolutionSpec(ZERO2, duration, sigma)


class TestDiagonalPath:
    """Diagonal inputs are propagated in closed form; RK4 is their oracle."""

    def test_matches_stepped(self):
        rng = np.random.default_rng(6)
        space = hspace(left=3, right=3)
        h_left = Operator(space, np.kron(np.diag(rng.normal(size=3)), np.eye(3)))
        h_right = Operator(space, np.kron(np.eye(3), np.diag(rng.normal(size=3))))
        drive, blocks = h_left + h_right, (h_left, h_right)
        rho0 = DensityMatrix(space, _rand_density(rng, 9))
        exact = evolve_analytic(rho0, EvolutionSpec(drive, 1.0, 0.15, blocks))
        stepped = evolve_stepped(rho0, EvolutionSpec(drive, 1.0, 0.15, blocks, step=1e-3))
        assert np.linalg.norm(exact.entries - stepped.entries) <= 1e-8
        validate_density(exact)
