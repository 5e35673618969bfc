"""Tests for the dephasing generator and the two propagators."""

import math
import warnings

import numpy as np
import pytest

from edsim.constants import RK4_MAX_STEPS
from edsim.core import DensityMatrix, InvariantError, validate_density
from edsim.engine import _rhs, evolve_analytic, evolve_stepped

ZERO2 = np.zeros((2, 2))
LOWER2 = np.array([[0.0, 1.0], [0.0, 0.0]])


def _rand_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2.0
    return h / np.linalg.norm(h, 2)


def _rand_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


SPECTRUM_MESSAGE = "^drive and block spectra must be real, finite 1-D arrays of length 2$"
BAD_SPECTRA = {
    "nan": [0.0, math.nan], "inf": [0.0, math.inf], "complex": [0.0, 1.0 + 0.0j], "2-D": np.diag([0.0, 1.0]),
    "short": [0.0], "long": [0.0, 1.0, 2.0], "bool": [True, False], "str": ["0", "1"],
}


def _superposition():
    return DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


class TestGenerator:
    def test_eigenprojector_is_stationary(self):
        h = np.diag([0.0, 3.0])
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        g = _rhs(h, 0.5, (h,))(rho.entries)
        assert np.linalg.norm(g) == 0.0

    def test_two_level_off_diagonal_rate(self):
        # oracle: expand -i[H, rho] - sigma [H, [H, rho]] by hand for
        # H = diag(0, w); the |e><g| element evolves at (-i*w - sigma*w^2)
        w, sigma = 5.0, 0.02
        h = np.diag([0.0, w])
        r = 0.3 + 0.1j
        rho = DensityMatrix(np.array([[0.6, np.conj(r)], [r, 0.4]]))
        g = _rhs(h, sigma, (h,))(rho.entries)
        assert abs(g[1, 0] - (-1j * w - sigma * w * w) * r) <= 1e-15

    def test_traceless_and_hermitian_with_losses(self):
        rng = np.random.default_rng(11)
        h = _rand_hermitian(rng, 4)
        lower = rng.normal(size=(4, 4))
        rho = DensityMatrix(_rand_density(rng, 4))
        g = _rhs(h, 0.3, (h,), ((0.4, lower),))(rho.entries)
        assert abs(np.trace(g)) <= 1e-12
        assert np.linalg.norm(g - g.conj().T) <= 1e-12


class TestEvolveAnalytic:
    def test_pure_phase_at_sigma_zero(self):
        w0, t = 2.0, 0.7
        out = evolve_analytic(_superposition(), (0.0, w0), t)
        assert abs(out.entries[1, 0] - 0.5 * np.exp(-1j * w0 * t)) <= 1e-12

    def test_half_life_amplitude(self):
        # closed form: |rho_ge| = 0.5*exp(-sigma*w^2*t) = 0.25 at sigma*w^2*t = ln 2
        w0 = 3.0
        sigma = math.log(2.0) / (w0 * w0)
        w = (0.0, w0)
        out = evolve_analytic(_superposition(), w, 1.0, sigma, (w,))
        assert abs(abs(out.entries[0, 1]) - 0.25) <= 1e-12

    def test_complete_dephasing_gives_equal_mixture(self):
        w0 = 3.0
        sigma = 50.0 / (w0 * w0)
        w = (0.0, w0)
        out = evolve_analytic(_superposition(), w, 1.0, sigma, (w,))
        assert abs(out.entries[0, 1]) <= 1e-10
        assert np.allclose(np.diag(out.entries).real, [0.5, 0.5], atol=1e-12)
        validate_density(out)

    def test_gap_squared_beyond_double_range(self):
        # the squared gap 1e400 overflows: full decay, no warning, and a
        # zero duration still returns the initial state (not inf*0 = NaN)
        w = (0.0, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = evolve_analytic(_superposition(), w, 1.0, 1e-31, (w,))
            same = evolve_analytic(_superposition(), w, 0.0, 1e-31, (w,))
        assert out.entries[0, 1] == 0.0
        assert np.array_equal(np.diag(out.entries), [0.5, 0.5])
        assert np.array_equal(same.entries, _superposition().entries)

    @pytest.mark.parametrize("drive,blocks,message", [
        *(pytest.param(s, (), SPECTRUM_MESSAGE, id=f"drive-{name}") for name, s in BAD_SPECTRA.items()),
        *(pytest.param((0.0, 1.0), ((0.0, 1.0), s), SPECTRUM_MESSAGE, id=f"block-{name}")
          for name, s in BAD_SPECTRA.items()),
        pytest.param((0.0, 1e300), (), r"^\|drive\|\*duration overflows double range$", id="drive-phase-overflow"),
    ])
    def test_bad_spectrum_rejected(self, drive, blocks, message):
        # a non-finite spectrum used to give a NaN state, a complex one to
        # lose its imaginary part, and a finite drive whose phase w*t
        # overflows NaN entries with only a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                evolve_analytic(_superposition(), drive, 1e10, 1.0, blocks)

    def test_non_hermitian_state_is_not_repaired(self):
        # the output is the plain product, here rho0 itself: the output
        # used to be Hermitized, so a state validate_density refuses
        # came back as one it accepts
        rho0 = DensityMatrix([[0.5, 0.4], [0.1, 0.5]])
        out = evolve_analytic(rho0, (0.0, 1.0), 0.0)
        assert np.array_equal(out.entries, rho0.entries)
        with pytest.raises(InvariantError, match="^Hermiticity defect"):
            validate_density(out)

    @pytest.mark.parametrize("sigma", [0.0, 1e-32])
    def test_hermitian_state_stays_exactly_hermitian(self, sigma):
        # phases w*t at 1 eV ~ 1.5e15 rad/s are far beyond double
        # resolution, yet the multiplier is Hermitian by construction:
        # no output entry may differ from its mirror's conjugate
        rng = np.random.default_rng(63)
        for dim in range(2, 301, 11):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho0 = (g + g.conj().T) / 2.0  # exactly Hermitian
            w = 1.5e15 * rng.normal(size=dim)
            out = evolve_analytic(DensityMatrix(rho0), w, 1.0, sigma, (w,)).entries
            assert np.array_equal(out, out.conj().T), dim

    def test_pure_drive_keeps_populations_exactly(self):
        # c*c + s*s misses 1 by an ulp for many phases near 1.5e15 rad;
        # the multiplier's diagonal is exactly 1, so no population moves
        rng = np.random.default_rng(66)
        rho0 = _rand_density(rng, 1000)
        w = 1.5e15 * (1.0 + rng.random(1000))
        out = evolve_analytic(DensityMatrix(rho0), w, 1.0).entries
        assert np.diagonal(out).tobytes() == np.diagonal(rho0).tobytes()

    def test_integer_spectra_match_float_spectra(self):
        ints, floats = [0, 3], np.array([0.0, 3.0])
        out = evolve_analytic(_superposition(), ints, 0.7, 0.1, (ints,))
        same = evolve_analytic(_superposition(), floats, 0.7, 0.1, (floats,))
        assert np.array_equal(out.entries, same.entries)

    def test_degenerate_coherence_exactly_invariant(self):
        # states |0,1> and |1,0> share every block eigenvalue, so the
        # dephasing strength must not touch their coherence at all
        w = 1.5e15 * np.array([0.0, 1.0, 1.0, 2.0])  # excitations of |00>, |01>, |10>, |11>
        psi = np.zeros(4, dtype=complex)
        psi[1] = psi[2] = 1.0 / math.sqrt(2.0)
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        out_none = evolve_analytic(rho, w, 1.0, 0.0, (w,))
        out_huge = evolve_analytic(rho, w, 1.0, 1e-2, (w,))
        assert np.array_equal(out_none.entries, out_huge.entries)
        assert abs(abs(out_huge.entries[1, 2]) - 0.5) <= 1e-14

    def test_coherence_weight_monotone(self):
        rng = np.random.default_rng(3)
        w = [0.0, 1.0, 2.5, 4.0]
        rho0 = DensityMatrix(_rand_density(rng, 4))
        weights = []
        for t in np.linspace(0.0, 4.0, 9):
            # the eigenbasis is the given one: sum the off-diagonal magnitudes
            x = evolve_analytic(rho0, w, t, 0.2, (w,)).entries
            weights.append(float(np.sum(np.abs(x)) - np.sum(np.abs(np.diag(x)))))
        assert all(b <= a + 1e-12 for a, b in zip(weights, weights[1:]))

    def test_trace_hermiticity_positivity_preserved(self):
        rng = np.random.default_rng(4)
        w = rng.normal(scale=2.0, size=6)
        rho0 = DensityMatrix(_rand_density(rng, 6))
        out = evolve_analytic(rho0, w, 3.0, 0.7, (w,))
        validate_density(out)


class TestEvolveStepped:
    def test_zero_duration_identity(self):
        rho = _superposition()
        out = evolve_stepped(rho, ZERO2, 0.0, step=1.0)
        assert np.array_equal(out.entries, rho.entries)

    def test_matches_analytic_two_level(self):
        w0 = 3.0
        sigma = math.log(2.0) / (w0 * w0)
        h = np.diag([0.0, w0])
        exact = evolve_analytic(_superposition(), (0.0, w0), 1.0, sigma, ((0.0, w0),))
        stepped = evolve_stepped(_superposition(), h, 1.0, sigma, (h,), step=1e-3)
        assert np.linalg.norm(exact.entries - stepped.entries) <= 1e-8

    def test_amplitude_damping_closed_form(self):
        # oracle: excited population decays exactly as exp(-rate*t)
        rate, t = 0.7, 2.0
        rho = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        out = evolve_stepped(rho, ZERO2, t, losses=((rate, LOWER2),), step=t / 2000.0)
        assert abs(out.entries[1, 1].real - math.exp(-rate * t)) <= 1e-8
        validate_density(out)

    @pytest.mark.parametrize("step", [None, 0.0, -1e-3])
    def test_step_must_be_positive(self, step):
        with pytest.raises(ValueError, match="^stepped method needs a positive step$"):
            evolve_stepped(_superposition(), ZERO2, 1.0, step=step)

    def test_step_larger_than_duration(self):
        with pytest.raises(ValueError, match="^step must not exceed the duration$"):
            evolve_stepped(_superposition(), ZERO2, 1.0, step=2.0)

    def test_step_size_generator_bound(self):
        h = np.diag([0.0, 100.0])
        with pytest.raises(ValueError, match="^step too large"):
            evolve_stepped(_superposition(), h, 1.0, step=0.1)

    @pytest.mark.parametrize("duration,step", [
        (1.0, 1e-300), (1e10, 1e-300), (1.0, 1.0 / (RK4_MAX_STEPS + 1)),
    ], ids=["tiny", "count-overflows", "one-over"])
    def test_step_count_bounded(self, duration, step, monkeypatch):
        # a tiny step passed every other check and then looped ~duration/step
        # times; the count is refused before the generator is even built
        def no_work(*args):
            raise AssertionError("the generator was built")

        monkeypatch.setattr("edsim.engine._rhs", no_work)
        with pytest.raises(ValueError, match=f"exceeds the limit of {RK4_MAX_STEPS} RK4 steps$"):
            evolve_stepped(_superposition(), ZERO2, duration, step=step)

    def test_step_count_at_limit_passes_the_count_check(self):
        # ceil(duration/step) == RK4_MAX_STEPS is allowed; the generator
        # bound then refuses this step, so no loop runs
        with pytest.raises(ValueError, match="^step too large"):
            evolve_stepped(_superposition(), np.diag([0.0, 1e6]), 1.0, step=1.0 / RK4_MAX_STEPS)


class TestLossRates:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0], ids=["nan", "inf", "neg"])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="^loss rate must be finite and non-negative$"):
            evolve_stepped(_superposition(), ZERO2, 1.0, losses=((rate, LOWER2),), step=1e-3)


class TestScalarArguments:
    @pytest.mark.parametrize("sigma,duration", [
        (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (0.0, -1.0), (0.0, math.nan), (0.0, math.inf),
    ], ids=["sigma-neg", "sigma-nan", "sigma-inf", "duration-neg", "duration-nan", "duration-inf"])
    def test_bad_scalars_rejected(self, sigma, duration):
        # the stepped integrator and the closed form refuse them alike
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            evolve_stepped(_superposition(), ZERO2, duration, sigma, step=1e-3)
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            evolve_analytic(_superposition(), (0.0, 1.0), duration, sigma)


class TestShapes:
    ONE = np.zeros((1, 1))
    CASES = {
        "drive-1x1": (ONE, (), ()),
        "block-1x1": (ZERO2, (ONE,), ()),
        "lowering-3x3": (ZERO2, (), ((0.1, np.eye(3, k=1)),)),
        "drive-non-square": (np.zeros((2, 3)), (), ()),
        "block-non-square": (ZERO2, (np.zeros((2, 3)),), ()),
        "lowering-vector": (ZERO2, (), ((0.1, np.zeros(2)),)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_shape_mismatch_rejected(self, case):
        # a 1x1 operator used to broadcast against the 2x2 state and
        # leave it silently unevolved
        drive, blocks, losses = self.CASES[case]
        with pytest.raises(ValueError, match="must have the state's shape"):
            evolve_stepped(_superposition(), drive, 1.0, 1.0, blocks, losses, step=1e-3)

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (4,), (2, 2, 2)],
                             ids=["non-square", "empty", "vector", "stack"])
    def test_non_square_rejected(self, shape):
        # a caller error, not a bad state
        with pytest.raises(ValueError, match="square") as info:
            DensityMatrix(np.zeros(shape))
        assert not isinstance(info.value, InvariantError)


class TestDiagonalPath:
    """Diagonal inputs are propagated in closed form; RK4 is their oracle."""

    def test_matches_stepped(self):
        rng = np.random.default_rng(6)
        h_left = np.kron(np.diag(rng.normal(size=3)), np.eye(3))
        h_right = np.kron(np.eye(3), np.diag(rng.normal(size=3)))
        drive, blocks = h_left + h_right, (h_left, h_right)
        rho0 = DensityMatrix(_rand_density(rng, 9))
        spectra = [np.diagonal(b).copy() for b in blocks]
        exact = evolve_analytic(rho0, spectra[0] + spectra[1], 1.0, 0.15, spectra)
        stepped = evolve_stepped(rho0, drive, 1.0, 0.15, blocks, step=1e-3)
        assert np.linalg.norm(exact.entries - stepped.entries) <= 1e-8
        validate_density(exact)
