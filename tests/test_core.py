"""Tests for spaces, operators, density matrices and mode constructors."""

import math

import numpy as np
import pytest

from edsim.constants import PSD_TOL
from edsim.core import (
    DensityMatrix,
    HilbertSpace,
    InvariantError,
    coherent_state,
    fock_cutoff,
    hspace,
    validate_density,
)

from dense_oracles import beamsplitter_5050, mode_ops, split_pulse_ramsey_state


class TestHilbertSpace:
    def test_total_dim_is_product(self):
        space = hspace(atom=2, field=31)
        assert space.total_dim == 62
        assert space.factors == (("atom", 2), ("field", 31))
        assert space.dims == (2, 31)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            HilbertSpace((("a", 2), ("a", 3)))

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            HilbertSpace((("", 2),))

class TestPartialTrace:
    def test_split_pulse_reduction_matches_hand_built_matrix(self):
        # oracle: assemble the reduced state of the split-pulse sequence at
        # n=4 by summing the per-sector outer products by hand
        n = 4
        d = n + 1
        # trace out pulse 1, the leading factor of the (pulse1, pulse2, atom) vector
        state = split_pulse_ramsey_state(n).reshape(d, d * 2)
        reduced = np.einsum("pi,pj->ij", state, state.conj())

        split = np.array([math.sqrt(math.comb(n, k) / 2.0**n) for k in range(d)])
        dim = d * 2
        expected = np.zeros((dim, dim), dtype=complex)
        norm2 = 1.0 - split[n] ** 2 / 2.0
        for level in range(d):  # photons left in pulse 1
            vec = np.zeros(dim, dtype=complex)
            k_g = n - level
            if 0 <= k_g <= n:
                vec[k_g * 2 + 0] = split[k_g] / math.sqrt(2.0)
            k_e = n - level - 1
            if 0 <= k_e <= n - 1:
                vec[k_e * 2 + 1] = split[k_e] / math.sqrt(2.0)
            expected += np.outer(vec, vec.conj())
        expected /= norm2
        assert np.linalg.norm(reduced - expected) <= 1e-12

        # only the same-total-energy pairs |k, g> and |k-1, e> stay coherent
        for i in range(dim):
            for j in range(dim):
                ki, ai = divmod(i, 2)
                kj, aj = divmod(j, 2)
                if ki + ai != kj + aj:
                    assert abs(reduced[i, j]) <= 1e-14


class TestCoherentState:
    def test_vacuum(self):
        psi = coherent_state(0.0, 5)
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.array_equal(psi, expected)
        with pytest.raises(ValueError):
            psi[0] = 0.0

    def test_mean_photon_number(self):
        psi = coherent_state(2.0, 40)
        ns = np.arange(41)
        mean = float(np.sum(np.abs(psi) ** 2 * ns))
        assert abs(mean - 4.0) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0])
    def test_statistics_match_poisson(self, alpha):
        n_max = fock_cutoff(alpha)
        psi = coherent_state(alpha, n_max)
        probs = np.abs(psi) ** 2
        mean = alpha * alpha
        logs = [-mean + n * math.log(mean) - math.lgamma(n + 1.0) for n in range(n_max + 1)]
        pois = np.exp(logs)
        tail = 1.0 - float(np.sum(pois))
        tv = 0.5 * float(np.sum(np.abs(probs - pois))) + 0.5 * tail
        assert tv <= 1e-8

    def test_cutoff_too_small(self):
        with pytest.raises(ValueError):
            coherent_state(5.0, 10)

    def test_norm_invariant(self):
        assert abs(np.linalg.norm(coherent_state(3.0, fock_cutoff(3.0))) - 1.0) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5 - 1.5j, -4.0 + 3.0j, 5.0])
    def test_matches_product_recursion(self, alpha):
        n_max = fock_cutoff(alpha)
        ref = np.zeros(n_max + 1, dtype=complex)
        ref[0] = math.exp(-abs(alpha) ** 2 / 2.0)
        for n in range(n_max):
            ref[n + 1] = ref[n] * alpha / math.sqrt(n + 1)
        ref /= np.linalg.norm(ref)
        psi = coherent_state(alpha, n_max)
        assert np.all(np.abs(psi - ref) <= 1e-13 * np.abs(ref))

    def test_large_amplitude(self):
        # exp(-|alpha|^2/2) underflows for |alpha| above ~38.6
        psi = coherent_state(40.0, fock_cutoff(40.0))
        probs = np.abs(psi) ** 2
        assert abs(float(np.sum(probs)) - 1.0) <= 1e-12
        assert abs(float(np.sum(probs * np.arange(probs.size))) / 1600.0 - 1.0) <= 1e-9

    @pytest.mark.parametrize("alpha", [130.0, 300.0, *np.random.default_rng(11).uniform(40.0, 996.0, 6)])
    def test_default_cutoff_is_accurate_at_every_amplitude(self, alpha):
        # log weights summed along n drifted by 1e-10 at alpha=130 and
        # failed the norm check on rounding alone; each weight now stands
        # on its own, so the Poisson mean comes out at double precision
        probs = np.abs(coherent_state(alpha, fock_cutoff(alpha))) ** 2
        assert abs(float(np.sum(probs)) - 1.0) <= 1e-12
        assert abs(float(probs @ np.arange(probs.size)) / (alpha * alpha) - 1.0) <= 1e-12


class TestModeOps:
    def test_ladder_actions(self):
        a, num = mode_ops(4)
        one = np.eye(5)[1]
        zero = np.eye(5)[0]
        assert np.allclose(a.entries @ one, zero)
        assert np.allclose(a.entries @ zero, 0.0)
        for n in range(5):
            vec = np.eye(5)[n]
            assert np.allclose(num.entries @ vec, n * vec)

    def test_commutator_with_number(self):
        # [N, a] = -a holds on the whole truncated block with no boundary
        # artifact (unlike [a, a+]); only matmul roundoff remains
        a, num = mode_ops(7)
        comm = num.entries @ a.entries - a.entries @ num.entries
        assert np.allclose(comm, -a.entries, rtol=0.0, atol=5e-15)
        assert np.array_equal(comm != 0.0, a.entries != 0.0)


class TestBeamsplitter:
    def test_unitary(self):
        w = beamsplitter_5050(12).entries
        d = w.shape[0]
        assert np.linalg.norm(w.conj().T @ w - np.eye(d)) <= 1e-10 * math.sqrt(d)

    def test_coherent_input_splits_evenly(self):
        n_max = fock_cutoff(2.0)
        w = beamsplitter_5050(n_max)
        vac = np.zeros(n_max + 1, dtype=complex)
        vac[0] = 1.0
        v_in = np.kron(coherent_state(2.0, n_max), vac)
        half = coherent_state(2.0 / math.sqrt(2.0), n_max)
        overlap = abs(np.vdot(np.kron(half, half), w.entries @ v_in))
        assert overlap >= 1.0 - 1e-8


class TestValidation:
    def test_good_density_passes(self):
        validate_density(DensityMatrix(hspace(a=2), np.eye(2) / 2.0))

    def test_bad_trace(self):
        with pytest.raises(InvariantError):
            validate_density(DensityMatrix(hspace(a=2), np.eye(2)))

    def test_negative_eigenvalue(self):
        with pytest.raises(InvariantError):
            validate_density(DensityMatrix(hspace(a=2), np.diag([1.5, -0.5])))

    def test_non_hermitian(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(InvariantError):
            validate_density(DensityMatrix(hspace(a=2), bad))

    def test_entries_are_frozen(self):
        rho = DensityMatrix(hspace(a=2), np.eye(2) / 2.0)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 9.0

    @pytest.mark.parametrize("dim", [2, 4, 26])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)],
                             ids=["nan", "inf", "imag-nan"])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    def test_non_finite_entry_rejected(self, dim, bad, where):
        m = np.eye(dim, dtype=complex) / dim
        i, j = (0, 0) if where == "diagonal" else (0, dim - 1)
        m[i, j] = bad
        m[j, i] = np.conj(bad)
        with pytest.raises(InvariantError, match="non-finite"):
            validate_density(DensityMatrix(hspace(a=dim), m))


def _density_with_spectrum(rng, lowest, dim):
    """Seeded rho = U diag(lowest, ...) U^dag with unit trace."""
    rest = rng.uniform(0.5, 1.5, size=dim - 1)
    rest *= (1.0 - lowest) / rest.sum()
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(g)
    rho = (u * np.concatenate(([lowest], rest))) @ u.conj().T
    return DensityMatrix(hspace(a=dim), (rho + rho.conj().T) / 2.0)


class TestPositivityDecision:
    # the factorization passes exactly the states whose smallest
    # eigenvalue is at least -PSD_TOL; failures keep the eigenvalue message
    DIMS = [2, 26, 122]

    @pytest.mark.parametrize("dim", DIMS)
    def test_below_tolerance_raises(self, dim):
        rho = _density_with_spectrum(np.random.default_rng(dim), -2.0 * PSD_TOL, dim)
        with pytest.raises(InvariantError, match="smallest eigenvalue -2.000e-09"):
            validate_density(rho)

    @pytest.mark.parametrize("dim", DIMS)
    def test_within_tolerance_passes(self, dim):
        validate_density(_density_with_spectrum(np.random.default_rng(dim), -0.5 * PSD_TOL, dim))

    @pytest.mark.parametrize("dim", DIMS)
    def test_rank_deficient_state_passes(self, dim):
        validate_density(_density_with_spectrum(np.random.default_rng(dim), 0.0, dim))

    @pytest.mark.parametrize("dim", DIMS)
    def test_hermiticity_failure_unchanged(self, dim):
        rho = _density_with_spectrum(np.random.default_rng(dim), 0.0, dim).entries.copy()
        rho[0, 1] += 1e-6
        with pytest.raises(InvariantError, match=r"Hermiticity defect 1\.000e-06 exceeds"):
            validate_density(DensityMatrix(hspace(a=dim), rho))

    @pytest.mark.parametrize("dim", DIMS)
    def test_trace_failure_unchanged(self, dim):
        rho = _density_with_spectrum(np.random.default_rng(dim), 0.0, dim).entries * 1.001
        with pytest.raises(InvariantError, match="trace .* deviates from 1 beyond"):
            validate_density(DensityMatrix(hspace(a=dim), rho))
