"""Dense linear algebra for small composite quantum systems.

States, operators, labeled tensor-product spaces, partial traces and
the standard bosonic-mode constructors
(Fock states, coherent states, ladder operators, a balanced two-mode
beamsplitter). Everything is immutable after construction; invariant
checks are explicit ``validate_*`` calls so that intermediate states of
an integrator may transiently violate positivity without aborting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .constants import HERM_TOL, OP_TOL, PSD_TOL, TRACE_TOL

__all__ = [
    "InvariantError",
    "HilbertSpace",
    "hspace",
    "Operator",
    "PureState",
    "DensityMatrix",
    "identity",
    "basis_state",
    "tensor",
    "partial_trace",
    "embed",
    "fock_cutoff",
    "fock_state",
    "coherent_state",
    "mode_ops",
    "beamsplitter_5050",
    "coherence_weight",
    "validate_state",
    "validate_density",
]


class InvariantError(ValueError):
    """A state or operator failed one of its structural invariants."""


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered tensor-product structure: a tuple of (label, dim) factors."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [lab for lab, _ in self.factors]
        if not self.factors:
            raise ValueError("a HilbertSpace needs at least one factor")
        if len(set(labels)) != len(labels) or any(not lab for lab in labels):
            raise ValueError("factor labels must be unique and non-empty")
        if any(int(d) < 1 for _, d in self.factors):
            raise ValueError("factor dimensions must be positive")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(int(d) for _, d in self.factors)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown factor label {label!r}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.axis(label)]

    def subspace(self, keep: Iterable[str]) -> "HilbertSpace":
        """Sub-space of the kept factors, in the original factor order."""
        kept = set(keep)
        unknown = kept - set(self.labels)
        if unknown:
            raise KeyError(f"unknown factor labels {sorted(unknown)}")
        if not kept:
            raise ValueError("keep-set must be non-empty")
        return HilbertSpace(tuple(f for f in self.factors if f[0] in kept))


def hspace(**factors: int) -> HilbertSpace:
    """Build a HilbertSpace from keyword factors, e.g. hspace(atom=2, field=31)."""
    return HilbertSpace(tuple((lab, int(d)) for lab, d in factors.items()))


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Operator:
    """A square complex matrix living on a HilbertSpace."""

    space: HilbertSpace
    entries: np.ndarray

    def __post_init__(self):
        d = self.space.total_dim
        object.__setattr__(self, "entries", _frozen_array(self.entries, (d, d)))

    def dagger(self) -> "Operator":
        return Operator(self.space, self.entries.conj().T)

    def is_hermitian(self, tol: float = OP_TOL) -> bool:
        scale = max(1.0, float(np.linalg.norm(self.entries)))
        return float(np.linalg.norm(self.entries - self.entries.conj().T)) <= tol * scale

    def is_unitary(self, tol: float = OP_TOL) -> bool:
        d = self.space.total_dim
        gram = self.entries.conj().T @ self.entries
        return float(np.linalg.norm(gram - np.eye(d))) <= tol * math.sqrt(d)

    def __add__(self, other: "Operator") -> "Operator":
        _check_same_space(self, other)
        return Operator(self.space, self.entries + other.entries)

    def __sub__(self, other: "Operator") -> "Operator":
        _check_same_space(self, other)
        return Operator(self.space, self.entries - other.entries)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.space, self.entries * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        _check_same_space(self, other)
        return Operator(self.space, self.entries @ other.entries)


@dataclass(frozen=True)
class PureState:
    """A normalized state vector on a HilbertSpace."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        d = self.space.total_dim
        arr = np.array(self.amplitudes, dtype=complex)
        if arr.shape != (d,):
            raise ValueError(f"expected amplitude vector of length {d}, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "PureState") -> complex:
        _check_same_space(self, other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix on a HilbertSpace. Use validate_density for checks."""

    space: HilbertSpace
    entries: np.ndarray

    def __post_init__(self):
        d = self.space.total_dim
        object.__setattr__(self, "entries", _frozen_array(self.entries, (d, d)))

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    @staticmethod
    def from_pure(psi: PureState) -> "DensityMatrix":
        return psi.to_density()


def _check_same_space(a, b):
    if a.space != b.space:
        raise ValueError("operands live on different spaces")


def validate_state(psi: PureState, tol: float = 1e-12) -> None:
    """Raise InvariantError unless the vector is normalized within tol."""
    if abs(psi.norm() - 1.0) > tol:
        raise InvariantError(f"state norm {psi.norm()!r} deviates from 1 beyond {tol}")


def validate_density(
    rho: DensityMatrix,
    herm_tol: float = HERM_TOL,
    trace_tol: float = TRACE_TOL,
    psd_tol: float = PSD_TOL,
) -> None:
    """Raise InvariantError on Hermiticity, trace or positivity failure."""
    m = rho.entries
    herm = float(np.max(np.abs(m - m.conj().T)))
    if herm > herm_tol:
        raise InvariantError(f"Hermiticity defect {herm:.3e} exceeds {herm_tol}")
    tr = np.trace(m)
    if abs(tr - 1.0) > trace_tol:
        raise InvariantError(f"trace {tr!r} deviates from 1 beyond {trace_tol}")
    lo = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
    if lo < -psd_tol:
        raise InvariantError(f"smallest eigenvalue {lo:.3e} below -{psd_tol}")


def identity(space: HilbertSpace) -> Operator:
    return Operator(space, np.eye(space.total_dim))


def basis_state(space: HilbertSpace, index: int) -> PureState:
    v = np.zeros(space.total_dim, dtype=complex)
    v[index] = 1.0
    return PureState(space, v)


def tensor(a, b):
    """Kronecker product of two objects of the same kind.

    Works on HilbertSpace, Operator, PureState and DensityMatrix; the
    result lives on the concatenated space (labels must stay unique).
    """
    if isinstance(a, HilbertSpace) and isinstance(b, HilbertSpace):
        return HilbertSpace(a.factors + b.factors)
    if type(a) is not type(b):
        raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")
    space = tensor(a.space, b.space)
    if isinstance(a, PureState):
        return PureState(space, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, Operator):
        return Operator(space, np.kron(a.entries, b.entries))
    if isinstance(a, DensityMatrix):
        return DensityMatrix(space, np.kron(a.entries, b.entries))
    raise TypeError(f"unsupported operand type {type(a).__name__}")


def _ptrace_matrix(mat: np.ndarray, dims: Sequence[int], keep_axes: Sequence[int]) -> np.ndarray:
    """Trace out all row/column axis pairs not listed in keep_axes."""
    k = len(dims)
    t = mat.reshape(tuple(dims) + tuple(dims))
    cur = k
    for ax in sorted(set(range(k)) - set(keep_axes), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + cur)
        cur -= 1
    d = int(np.prod([dims[i] for i in keep_axes])) if keep_axes else 1
    return t.reshape(d, d)


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix on the kept factors (original factor order)."""
    sub = rho.space.subspace(keep)
    keep_axes = [rho.space.axis(lab) for lab in sub.labels]
    return DensityMatrix(sub, _ptrace_matrix(rho.entries, rho.space.dims, keep_axes))


def embed(op: Operator, space: HilbertSpace) -> Operator:
    """Extend an operator to a larger space, acting as identity elsewhere."""
    sub = op.space
    for lab, d in sub.factors:
        if lab not in space.labels:
            raise KeyError(f"factor {lab!r} not present in target space")
        if space.dim_of(lab) != d:
            raise ValueError(f"dimension mismatch for factor {lab!r}")
    rest = tuple(f for f in space.factors if f[0] not in sub.labels)
    rest_dim = int(np.prod([d for _, d in rest])) if rest else 1
    big = np.kron(op.entries, np.eye(rest_dim))
    cur_labels = sub.labels + tuple(lab for lab, _ in rest)
    cur_dims = sub.dims + tuple(d for _, d in rest)
    perm = [cur_labels.index(lab) for lab in space.labels]
    k = len(cur_dims)
    t = big.reshape(cur_dims + cur_dims)
    t = t.transpose(perm + [k + p for p in perm])
    d = space.total_dim
    return Operator(space, np.ascontiguousarray(t.reshape(d, d)))


def fock_cutoff(alpha: complex) -> int:
    """Fock truncation that keeps the norm deficit of |alpha> below 1e-10."""
    a = abs(alpha)
    return int(math.ceil(a * a + 8.0 * a + 10.0))


def fock_state(n: int, n_max: int, label: str = "mode") -> PureState:
    if not 0 <= n <= n_max:
        raise ValueError(f"Fock level {n} outside truncation 0..{n_max}")
    return basis_state(hspace(**{label: n_max + 1}), n)


def coherent_state(alpha: complex, n_max: int, label: str = "mode") -> PureState:
    """Truncated coherent state, renormalized after the cutoff.

    The truncation must retain all but 1e-10 of the norm (the cutoff
    rule fock_cutoff guarantees this for |alpha|^2 <= 25); otherwise a
    ValueError is raised.
    """
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(n_max):
        amps[n + 1] = amps[n] * alpha / math.sqrt(n + 1)
    kept = float(np.sum(np.abs(amps) ** 2))
    if 1.0 - kept > 1e-10:
        raise ValueError(
            f"cutoff n_max={n_max} keeps only {kept!r} of the norm for alpha={alpha!r}; "
            f"need n_max >= {fock_cutoff(alpha)}"
        )
    return PureState(hspace(**{label: n_max + 1}), amps / math.sqrt(kept))


def mode_ops(n_max: int, label: str = "mode") -> tuple[Operator, Operator]:
    """Truncated annihilation and number operators on levels 0..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    d = n_max + 1
    lower = np.zeros((d, d))
    for n in range(1, d):
        lower[n - 1, n] = math.sqrt(n)
    space = hspace(**{label: d})
    return Operator(space, lower), Operator(space, np.diag(np.arange(d, dtype=float)))


def beamsplitter_5050(n_max: int, labels: tuple[str, str] = ("arm_c", "arm_d")) -> Operator:
    """Balanced beamsplitter between two modes truncated at n_max.

    Maps amplitudes written in the input-mode basis (a, b) to the arm
    basis (c, d) for the mode relations a = (c + d)/sqrt(2) and
    b = (c - d)/sqrt(2). The matrix is exactly unitary; it implements
    the ideal splitter on every total-photon-number sector that fits
    entirely below the cutoff (total <= n_max), which covers all inputs
    respecting the fock_cutoff rule. Applying the dagger recombines.
    """
    d = n_max + 1
    space = hspace(**{labels[0]: d, labels[1]: d})
    w = np.zeros((d * d, d * d), dtype=complex)
    theta = math.pi / 4.0
    for total in range(2 * n_max + 1):
        ncs = range(max(0, total - n_max), min(n_max, total) + 1)
        idx = [nc * d + (total - nc) for nc in ncs]
        m = len(idx)
        gen = np.zeros((m, m))
        for j, nc in enumerate(ncs):
            nd = total - nc
            if nc + 1 <= n_max and nd - 1 >= 0:
                gen[j + 1, j] = math.sqrt((nc + 1) * nd)  # c^dag d amplitude
        gen = gen - gen.T
        lam, vec = np.linalg.eigh(1j * gen)  # exp(theta*gen) = exp(-i*theta*(i*gen))
        u = (vec * np.exp(-1j * theta * lam)) @ vec.conj().T
        sign = np.array([(-1.0) ** (total - nc) for nc in ncs])  # pi phase on mode d
        w[np.ix_(idx, idx)] = sign[:, None] * u
    return Operator(space, w)


def coherence_weight(rho: DensityMatrix, basis: Operator) -> float:
    """Sum of off-diagonal magnitudes of rho expressed in the given eigenbasis."""
    if not basis.is_unitary():
        raise ValueError("basis operator is not unitary within tolerance")
    if basis.space.total_dim != rho.space.total_dim:
        raise ValueError("dimension mismatch between state and basis")
    u = basis.entries
    x = u.conj().T @ rho.entries @ u
    return float(np.sum(np.abs(x)) - np.sum(np.abs(np.diag(x))))
