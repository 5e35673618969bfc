"""Tests for density matrices, their validation and the mode constructors."""

import math

import numpy as np
import pytest

from edsim.constants import PSD_TOL
from edsim.core import (
    DensityMatrix,
    InvariantError,
    fock_cutoff,
    poisson_weights,
    validate_density,
    validate_pairs,
)

from dense_oracles import beamsplitter_5050, coherent_amplitudes, mode_ops


class TestCoherentState:
    def test_vacuum(self):
        w = poisson_weights(0.0, 5)
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.array_equal(w, expected)
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_mean_photon_number(self):
        w = poisson_weights(2.0, 40)
        ns = np.arange(41)
        mean = float(np.sum(w * ns))
        assert abs(mean - 4.0) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0])
    def test_statistics_match_poisson(self, alpha):
        n_max = fock_cutoff(alpha)
        probs = poisson_weights(alpha, n_max)
        mean = alpha * alpha
        logs = [-mean + n * math.log(mean) - math.lgamma(n + 1.0) for n in range(n_max + 1)]
        pois = np.exp(logs)
        tail = 1.0 - float(np.sum(pois))
        tv = 0.5 * float(np.sum(np.abs(probs - pois))) + 0.5 * tail
        assert tv <= 1e-8

    def test_cutoff_too_small(self):
        with pytest.raises(ValueError):
            poisson_weights(5.0, 10)

    def test_norm_invariant(self):
        w = poisson_weights(3.0, fock_cutoff(3.0))
        assert w.dtype == np.float64
        assert abs(float(np.sum(w)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5 - 1.5j, -4.0 + 3.0j, 5.0])
    def test_matches_product_recursion(self, alpha):
        n_max = fock_cutoff(alpha)
        ref = np.zeros(n_max + 1, dtype=complex)
        ref[0] = math.exp(-abs(alpha) ** 2 / 2.0)
        for n in range(n_max):
            ref[n + 1] = ref[n] * alpha / math.sqrt(n + 1)
        ref /= np.linalg.norm(ref)
        root = np.sqrt(poisson_weights(alpha, n_max))
        assert np.all(np.abs(root - np.abs(ref)) <= 1e-13 * np.abs(ref))

    def test_large_amplitude(self):
        # exp(-|alpha|^2/2) underflows for |alpha| above ~38.6
        probs = poisson_weights(40.0, fock_cutoff(40.0))
        assert abs(float(np.sum(probs)) - 1.0) <= 1e-12
        assert abs(float(np.sum(probs * np.arange(probs.size))) / 1600.0 - 1.0) <= 1e-9

    @pytest.mark.parametrize("alpha", [130.0, 300.0, *np.random.default_rng(11).uniform(40.0, 996.0, 6)])
    def test_default_cutoff_is_accurate_at_every_amplitude(self, alpha):
        # log weights summed along n drifted by 1e-10 at alpha=130 and
        # failed the norm check on rounding alone; each weight now stands
        # on its own, so the Poisson mean comes out at double precision
        probs = poisson_weights(alpha, fock_cutoff(alpha))
        assert abs(float(np.sum(probs)) - 1.0) <= 1e-12
        assert abs(float(probs @ np.arange(probs.size)) / (alpha * alpha) - 1.0) <= 1e-12


class TestModeOps:
    def test_ladder_actions(self):
        a, num = mode_ops(4)
        one = np.eye(5)[1]
        zero = np.eye(5)[0]
        assert np.allclose(a @ one, zero)
        assert np.allclose(a @ zero, 0.0)
        for n in range(5):
            vec = np.eye(5)[n]
            assert np.allclose(num @ vec, n * vec)

    def test_commutator_with_number(self):
        # [N, a] = -a holds on the whole truncated block with no boundary
        # artifact (unlike [a, a+]); only matmul roundoff remains
        a, num = mode_ops(7)
        comm = num @ a - a @ num
        assert np.allclose(comm, -a, rtol=0.0, atol=5e-15)
        assert np.array_equal(comm != 0.0, a != 0.0)


class TestBeamsplitter:
    def test_unitary(self):
        w = beamsplitter_5050(12)
        d = w.shape[0]
        assert np.linalg.norm(w.conj().T @ w - np.eye(d)) <= 1e-10 * math.sqrt(d)

    def test_coherent_input_splits_evenly(self):
        n_max = fock_cutoff(2.0)
        w = beamsplitter_5050(n_max)
        vac = np.zeros(n_max + 1, dtype=complex)
        vac[0] = 1.0
        v_in = np.kron(coherent_amplitudes(2.0, n_max), vac)
        half = coherent_amplitudes(2.0 / math.sqrt(2.0), n_max)
        overlap = abs(np.vdot(np.kron(half, half), w @ v_in))
        assert overlap >= 1.0 - 1e-8


class TestValidation:
    def test_good_density_passes(self):
        validate_density(DensityMatrix(np.eye(2) / 2.0))

    def test_bad_trace(self):
        with pytest.raises(InvariantError):
            validate_density(DensityMatrix(np.eye(2)))

    def test_negative_eigenvalue(self):
        with pytest.raises(InvariantError):
            validate_density(DensityMatrix(np.diag([1.5, -0.5])))

    def test_non_hermitian(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(InvariantError):
            validate_density(DensityMatrix(bad))

    def test_entries_are_frozen(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
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
            validate_density(DensityMatrix(m))


def _density_with_spectrum(rng, lowest, dim):
    """Seeded rho = U diag(lowest, ...) U^dag with unit trace."""
    rest = rng.uniform(0.5, 1.5, size=dim - 1)
    rest *= (1.0 - lowest) / rest.sum()
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(g)
    rho = (u * np.concatenate(([lowest], rest))) @ u.conj().T
    return DensityMatrix((rho + rho.conj().T) / 2.0)


def _pair_stack(rng, lowest):
    """Seeded stack of 2x2 blocks with unit total trace: rank-1 Fock pulse
    pairs w*(c, -i*s)(c, -i*s)^dag, random mixed pairs, and one pair with
    smallest eigenvalue `lowest`, shuffled, plus an anti-Hermitian part of
    1e-13 that only the Hermitian part may ignore."""
    theta = rng.uniform(0.0, math.pi, 24)
    v = np.stack([np.cos(theta), -1j * np.sin(theta)], -1)
    pure = rng.uniform(0.1, 1.0, 24)[:, None, None] * (v[:, :, None] * v[:, None, :].conj())
    u, _ = np.linalg.qr(rng.normal(size=(7, 2, 2)) + 1j * rng.normal(size=(7, 2, 2)))
    spectra = rng.uniform(0.0, 1.0, (7, 2))
    mixed = (u * spectra[:, None, :]) @ u.conj().swapaxes(-1, -2)
    rest = np.concatenate([pure, mixed])
    rest *= 0.5 / np.trace(rest, axis1=-2, axis2=-1).real.sum()
    special = (u[0] * [lowest, 0.5 - lowest]) @ u[0].conj().T
    stack = np.concatenate([rest, special[None]])
    g = rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape)
    stack = stack + 1e-13 * (g - g.conj().swapaxes(-1, -2)) / 2.0
    return stack[rng.permutation(len(stack))]


def _pairs(stack):
    """(gg, ee, eg) of 2x2 blocks, eg from their Hermitian part."""
    return stack[:, 0, 0], stack[:, 1, 1], (stack[:, 1, 0] + stack[:, 0, 1].conj()) / 2.0


class TestPositivityDecision:
    # validate_density passes exactly the states whose smallest
    # eigenvalue is at least -PSD_TOL, and names that eigenvalue otherwise
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
            validate_density(DensityMatrix(rho))

    @pytest.mark.parametrize("lowest", [-3e-9, -2e-9, -1.1e-9, -9e-10, -5e-10, 0.0, 1e-3])
    def test_pair_stacks_match_eigvalsh(self, lowest):
        # validate_pairs decides each 2x2 block by its closed-form smallest
        # eigenvalue: the same decision, and the same message, as eigvalsh
        # of the Hermitian parts
        for seed in range(10):
            stack = _pair_stack(np.random.default_rng(seed), lowest)
            lo = float(np.min(np.linalg.eigvalsh((stack + stack.conj().swapaxes(-1, -2)) / 2.0)))
            assert abs(lo - min(lowest, 0.0)) <= 1e-12
            if lo < -PSD_TOL:
                with pytest.raises(InvariantError, match=f"smallest eigenvalue {lo:.3e} below"):
                    validate_pairs(*_pairs(stack))
            else:
                validate_pairs(*_pairs(stack))

    @pytest.mark.parametrize("lowest, ok", [(-2e-9, False), (-5e-10, True)])
    def test_pair_threshold(self, lowest, ok):
        # one 2x2 block with the other eigenvalue 1 - lowest: unit trace
        u, _ = np.linalg.qr(np.array([[1.0, 2.0j], [0.5, -1.0]]))
        block = (u * [lowest, 1.0 - lowest]) @ u.conj().T
        if ok:
            validate_pairs(*_pairs(block[None]))
        else:
            with pytest.raises(InvariantError, match="smallest eigenvalue -2.000e-09 below"):
                validate_pairs(*_pairs(block[None]))

    @pytest.mark.parametrize("dim", DIMS)
    def test_trace_failure_unchanged(self, dim):
        rho = _density_with_spectrum(np.random.default_rng(dim), 0.0, dim).entries * 1.001
        with pytest.raises(InvariantError, match="trace .* deviates from 1 beyond"):
            validate_density(DensityMatrix(rho))


class TestBlockShapes:
    def test_pair_arrays_must_match(self):
        with pytest.raises(ValueError, match="differ in shape") as info:
            validate_pairs(np.full(3, 1 / 6), np.full(3, 1 / 6), np.zeros(2, dtype=complex))
        assert not isinstance(info.value, InvariantError)


def _both_messages(block):
    """The InvariantError text of validate_density and validate_pairs on one 2x2 block."""
    texts = []
    for check in (lambda: validate_density(DensityMatrix(block)),
                  lambda: validate_pairs(block[:1, 0], block[1:, 1], block[1:, 0])):
        with pytest.raises(InvariantError) as info:
            check()
        texts.append(str(info.value))
    return texts


FAILING_BLOCKS = [
    ([[math.nan, 0.0], [0.0, 0.5 + 1j]], "non-finite"),
    ([[0.5, 0.0], [complex(0.0, math.inf), 0.5]], "non-finite"),
    ([[0.5 + 3e-12j, 0.1j], [-0.1j, 0.5]], "Hermiticity defect 6.000e-12 exceeds 1e-12"),
    ([[0.5 + 1e-9j, 0.0], [0.0, 0.6]], "Hermiticity"),
    ([[0.5, 0.2], [0.2, 0.6]], "trace"),
    ([[0.5, 0.6j], [-0.6j, 0.5]], "smallest eigenvalue -1.000e-01"),
]


FAILING_IDS = ["nan", "inf-coherence", "imag-gg", "hermiticity-before-trace",
               "trace-before-positivity", "positivity"]


class TestPairsMatchBlocks:
    """validate_pairs is validate_density on [[gg, conj(eg)], [eg, ee]]: same order, same text."""

    @pytest.mark.parametrize("block, text", FAILING_BLOCKS, ids=FAILING_IDS)
    def test_first_failure_and_message_agree(self, block, text):
        first, second = _both_messages(np.array(block, dtype=complex))
        assert first == second
        assert text in first


def _block_diag(blocks):
    dim = sum(len(m) for m in blocks)
    out = np.zeros((dim, dim), dtype=complex)
    at = 0
    for m in blocks:
        out[at:at + len(m), at:at + len(m)] = m
        at += len(m)
    return out


def _density_message(*blocks):
    """The InvariantError text of validate_density on these blocks, or None if it passes."""
    try:
        validate_density(*(DensityMatrix(m) for m in blocks))
    except InvariantError as exc:
        return str(exc)
    return None


class TestDiagonalBlocks:
    """validate_density(a, b, ...) checks the block-diagonal state diag(a, b, ...)
    one block at a time: the decision and text of a call on that whole state."""

    @pytest.mark.parametrize("block, text", FAILING_BLOCKS, ids=FAILING_IDS)
    def test_failing_block_among_empty_ones(self, block, text):
        # zero blocks add no trace, no defect and only zero eigenvalues
        blocks = [np.zeros((3, 3)), np.array(block, dtype=complex), np.zeros((1, 1))]
        got = _density_message(*blocks)
        assert got == _density_message(_block_diag(blocks))
        assert text in got

    def test_earlier_check_wins_across_blocks(self):
        # each check runs on every block before the next check runs
        negative, skew = FAILING_BLOCKS[5][0], FAILING_BLOCKS[3][0]
        got = _density_message(np.array(negative, dtype=complex), np.array(skew, dtype=complex))
        assert got.startswith("Hermiticity defect")
        assert got == _density_message(_block_diag([np.array(negative), np.array(skew)]))

    @pytest.mark.parametrize("lowest", [-2e-9, -5e-10, 0.0])
    def test_seeded_blocks_match_the_whole_state(self, lowest):
        # weighted random blocks summing to unit trace; the first holds the
        # smallest eigenvalue `lowest`, the others are rank-deficient
        for seed in range(10):
            rng = np.random.default_rng(seed)
            weights = rng.dirichlet(np.ones(4))
            blocks = [w * _density_with_spectrum(rng, lowest / w if i == 0 else 0.0,
                                                 int(rng.integers(2, 9))).entries
                      for i, w in enumerate(weights)]
            blocks = [blocks[i] for i in rng.permutation(4)]
            got = _density_message(*blocks)
            assert got == _density_message(_block_diag(blocks))
            assert (got is None) == (lowest >= -PSD_TOL)


def _row_message(gg, ee, eg):
    """The InvariantError text of validate_pairs on one state, or None if it passes."""
    try:
        validate_pairs(gg, ee, eg)
    except InvariantError as exc:
        return str(exc)
    return None


def _check_stacked(gg, ee, eg):
    """A 2-D validate_pairs call raises the text of a one-row call on the
    first row that fails the first failing check, and passes otherwise.
    Returns that text."""
    checks = ("density matrix has non-finite", "Hermiticity", "trace", "smallest eigenvalue")
    texts = [_row_message(*row) for row in zip(gg, ee, eg)]
    failing = [(next(i for i, c in enumerate(checks) if t.startswith(c)), row)
               for row, t in enumerate(texts) if t is not None]
    if not failing:
        validate_pairs(gg, ee, eg)
        return None
    want = texts[min(failing)[1]]
    with pytest.raises(InvariantError) as info:
        validate_pairs(gg, ee, eg)
    assert str(info.value) == want
    return want


class TestStackedPairs:
    """Rows of 2-D pair arrays are states of their own, checked in one call."""

    def test_blocks_stacked(self):
        # the one-pair cases above, stacked with passing states in seeded
        # orders: every failing check and every row position is reached
        good = [[[0.5, 0.1j], [-0.1j, 0.5]], [[1.0, 0.0], [0.0, 0.0]], [[0.3, 0.2], [0.2, 0.7]]]
        blocks = np.array([b for b, _ in FAILING_BLOCKS] + good, dtype=complex)
        rng = np.random.default_rng(21)
        seen = set()
        for _ in range(200):
            rows = blocks[rng.choice(len(blocks), int(rng.integers(1, 7)))]
            seen.add(_check_stacked(rows[:, :1, 0], rows[:, 1:, 1], rows[:, 1:, 0]))
        assert seen >= {None} | {_row_message(b[:1, 0], b[1:, 1], b[1:, 0]) for b in blocks[:6]}

    @pytest.mark.parametrize("lowest", [-3e-9, -2e-9, -1.1e-9, -9e-10, -5e-10, 0.0, 1e-3])
    def test_pair_stacks_stacked(self, lowest):
        # the seeded 32-pair states of test_pair_stacks_match_eigvalsh, as
        # rows next to passing rows, a later row that always fails
        # positivity with another eigenvalue, and then a row that fails the trace
        lows = [1e-3, lowest, 0.0, min(lowest, 0.0) - 2e-9]
        rows = [_pairs(_pair_stack(np.random.default_rng(seed), low)) for seed, low in enumerate(lows)]
        gg, ee, eg = (np.stack(part) for part in zip(*rows))
        want = _check_stacked(gg, ee, eg)
        assert want.startswith("smallest eigenvalue")
        gg[2] *= 1.001
        assert _check_stacked(gg, ee, eg).startswith("trace")
