"""Tests for states, operators, tensor structure and mode constructors."""

import math

import numpy as np
import pytest

from edsim.core import (
    DensityMatrix,
    HilbertSpace,
    InvariantError,
    Operator,
    PureState,
    basis_state,
    beamsplitter_5050,
    coherence_weight,
    coherent_state,
    embed,
    fock_cutoff,
    fock_state,
    hspace,
    identity,
    mode_ops,
    partial_trace,
    tensor,
    validate_density,
    validate_state,
)


def _rand_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestHilbertSpace:
    def test_total_dim_is_product(self):
        space = hspace(atom=2, field=31)
        assert space.total_dim == 62
        assert space.labels == ("atom", "field")
        assert space.dims == (2, 31)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            HilbertSpace((("a", 2), ("a", 3)))

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            HilbertSpace((("", 2),))

    def test_subspace_keeps_original_order(self):
        space = hspace(a=2, b=3, c=4)
        assert space.subspace({"c", "a"}).labels == ("a", "c")
        with pytest.raises(KeyError):
            space.subspace({"a", "nope"})
        with pytest.raises(ValueError):
            space.subspace(set())


class TestTensor:
    def test_identity_times_identity(self):
        result = tensor(identity(hspace(a=2)), identity(hspace(b=3)))
        assert np.array_equal(result.entries, np.eye(6))

    def test_ground_vacuum_is_first_basis_vector(self):
        g = basis_state(hspace(atom=2), 0)
        vac = fock_state(0, 5, label="field")
        combined = tensor(g, vac)
        expected = np.zeros(12)
        expected[0] = 1.0
        assert np.array_equal(combined.amplitudes, expected)

    def test_projector_product_trace_and_rank(self):
        e = basis_state(hspace(atom=2), 1).to_density()
        one = fock_state(1, 3, label="field").to_density()
        rho = tensor(e, one)
        assert abs(rho.trace() - 1.0) < 1e-15
        evals = np.linalg.eigvalsh(rho.entries)
        assert np.sum(evals > 1e-12) == 1

    def test_kind_mismatch(self):
        with pytest.raises(TypeError):
            tensor(identity(hspace(a=2)), basis_state(hspace(b=2), 0))

    def test_label_collision(self):
        with pytest.raises(ValueError):
            tensor(identity(hspace(a=2)), identity(hspace(a=2)))


class TestPartialTrace:
    def test_product_state_recovers_factor(self):
        rng = np.random.default_rng(1)
        rho_a = DensityMatrix(hspace(A=3), _rand_density(rng, 3))
        rho_b = DensityMatrix(hspace(B=4), _rand_density(rng, 4))
        joint = tensor(rho_a, rho_b)
        back = partial_trace(joint, {"A"})
        assert np.linalg.norm(back.entries - rho_a.entries) <= 1e-12
        back_b = partial_trace(joint, {"B"})
        assert np.linalg.norm(back_b.entries - rho_b.entries) <= 1e-12

    def test_bell_state_reduces_to_maximally_mixed(self):
        space = hspace(q0=2, q1=2)
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
        rho = PureState(space, psi).to_density()
        reduced = partial_trace(rho, {"q0"})
        assert np.linalg.norm(reduced.entries - np.eye(2) / 2.0) <= 1e-15

    def test_unknown_label_and_empty_keep(self):
        rho = basis_state(hspace(a=2, b=2), 0).to_density()
        with pytest.raises(KeyError):
            partial_trace(rho, {"zz"})
        with pytest.raises(ValueError):
            partial_trace(rho, set())

    def test_split_pulse_reduction_matches_hand_built_matrix(self):
        # oracle: assemble the reduced state of the split-pulse sequence at
        # n=4 by summing the per-sector outer products by hand
        from edsim.interferometry import split_pulse_ramsey_state

        n = 4
        state = split_pulse_ramsey_state(n)
        reduced = partial_trace(state.to_density(), {"pulse2", "atom"})

        d = n + 1
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
        assert np.linalg.norm(reduced.entries - expected) <= 1e-12

        # only the same-total-energy pairs |k, g> and |k-1, e> stay coherent
        for i in range(dim):
            for j in range(dim):
                ki, ai = divmod(i, 2)
                kj, aj = divmod(j, 2)
                if ki + ai != kj + aj:
                    assert abs(reduced.entries[i, j]) <= 1e-14


class TestCoherentState:
    def test_vacuum(self):
        psi = coherent_state(0.0, 5)
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.array_equal(psi.amplitudes, expected)

    def test_mean_photon_number(self):
        psi = coherent_state(2.0, 40)
        ns = np.arange(41)
        mean = float(np.sum(np.abs(psi.amplitudes) ** 2 * ns))
        assert abs(mean - 4.0) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0])
    def test_statistics_match_poisson(self, alpha):
        n_max = fock_cutoff(alpha)
        psi = coherent_state(alpha, n_max)
        probs = np.abs(psi.amplitudes) ** 2
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
        validate_state(coherent_state(3.0, fock_cutoff(3.0)))


class TestModeOps:
    def test_ladder_actions(self):
        a, num = mode_ops(4)
        one = fock_state(1, 4).amplitudes
        zero = fock_state(0, 4).amplitudes
        assert np.allclose(a.entries @ one, zero)
        assert np.allclose(a.entries @ zero, 0.0)
        for n in range(5):
            vec = fock_state(n, 4).amplitudes
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
        assert beamsplitter_5050(12).is_unitary()

    def test_coherent_input_splits_evenly(self):
        n_max = fock_cutoff(2.0)
        w = beamsplitter_5050(n_max)
        vac = np.zeros(n_max + 1, dtype=complex)
        vac[0] = 1.0
        v_in = np.kron(coherent_state(2.0, n_max).amplitudes, vac)
        half = coherent_state(2.0 / math.sqrt(2.0), n_max).amplitudes
        overlap = abs(np.vdot(np.kron(half, half), w.entries @ v_in))
        assert overlap >= 1.0 - 1e-8


class TestCoherenceWeight:
    def test_eigenstate_has_none(self):
        u = identity(hspace(a=2))
        rho = basis_state(hspace(a=2), 1).to_density()
        assert coherence_weight(rho, u) <= 1e-15

    def test_balanced_superposition(self):
        u = identity(hspace(a=2))
        psi = PureState(hspace(a=2), np.array([1.0, 1.0]) / math.sqrt(2.0))
        assert abs(coherence_weight(psi.to_density(), u) - 1.0) <= 1e-14

    def test_equal_mixture(self):
        u = identity(hspace(a=2))
        rho = DensityMatrix(hspace(a=2), np.eye(2) / 2.0)
        assert coherence_weight(rho, u) == 0.0

    def test_dimension_mismatch(self):
        u = identity(hspace(a=2))
        rho = DensityMatrix(hspace(b=3), np.eye(3) / 3.0)
        with pytest.raises(ValueError):
            coherence_weight(rho, u)

    def test_non_unitary_basis(self):
        rho = DensityMatrix(hspace(a=2), np.eye(2) / 2.0)
        with pytest.raises(ValueError):
            coherence_weight(rho, Operator(hspace(a=2), np.array([[1.0, 1.0], [0.0, 1.0]])))


class TestEmbed:
    def test_first_factor(self):
        op = Operator(hspace(a=2), np.array([[1.0, 2.0], [3.0, 4.0]]))
        big = embed(op, hspace(a=2, b=3))
        assert np.allclose(big.entries, np.kron(op.entries, np.eye(3)))

    def test_second_factor_permuted(self):
        op = Operator(hspace(b=3), np.diag([1.0, 2.0, 3.0]))
        big = embed(op, hspace(a=2, b=3))
        assert np.allclose(big.entries, np.kron(np.eye(2), op.entries))

    def test_missing_label(self):
        op = Operator(hspace(z=2), np.eye(2))
        with pytest.raises(KeyError):
            embed(op, hspace(a=2, b=3))


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
