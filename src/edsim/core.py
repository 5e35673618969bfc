"""Dense linear algebra for small composite quantum systems.

Labeled tensor-product spaces, operators and density matrices on them,
the embedding of a factor's operator into a larger space, and the
standard bosonic-mode constructors (coherent-state amplitudes, ladder
operators, a balanced two-mode beamsplitter and its number-conserving
blocks). Everything is immutable after construction; invariant checks
are explicit ``validate_*`` calls so that intermediate states of an
integrator may transiently violate positivity without aborting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .constants import HERM_TOL, PSD_TOL, TRACE_TOL

__all__ = [
    "InvariantError",
    "HilbertSpace",
    "hspace",
    "Operator",
    "DensityMatrix",
    "embed",
    "fock_cutoff",
    "coherent_state",
    "mode_ops",
    "beamsplitter_sector",
    "beamsplitter_5050",
    "validate_density",
    "validate_blocks",
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

    def __add__(self, other: "Operator") -> "Operator":
        if other.space != self.space:
            raise ValueError("operands live on different spaces")
        return Operator(self.space, self.entries + other.entries)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.space, self.entries * complex(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix on a HilbertSpace. Use validate_density for checks."""

    space: HilbertSpace
    entries: np.ndarray

    def __post_init__(self):
        d = self.space.total_dim
        object.__setattr__(self, "entries", _frozen_array(self.entries, (d, d)))


def validate_density(
    rho: DensityMatrix,
    herm_tol: float = HERM_TOL,
    trace_tol: float = TRACE_TOL,
    psd_tol: float = PSD_TOL,
) -> None:
    """Raise InvariantError on non-finite entries, Hermiticity, trace or positivity failure."""
    validate_blocks((rho.entries,), herm_tol, trace_tol, psd_tol)


def validate_blocks(
    blocks: Iterable[np.ndarray],
    herm_tol: float = HERM_TOL,
    trace_tol: float = TRACE_TOL,
    psd_tol: float = PSD_TOL,
) -> None:
    """validate_density for a block-diagonal state given by its diagonal blocks.

    Each item is one square block or a stack of equal-size blocks, shape
    (..., d, d). Non-finite entries, Hermiticity and positivity are
    tested block by block, the unit trace on the sum of all blocks, in
    that order. Positivity means a smallest eigenvalue of at least
    -psd_tol, which holds exactly when h + psd_tol*I is positive
    definite (h the Hermitian part). A Cholesky factorization of that
    shifted matrix, much cheaper than eigvalsh, accepts such blocks; only
    when it fails is the smallest eigenvalue computed, and the decision
    and message are the eigenvalue's. The two can differ only within
    rounding of the threshold, O(d*eps*||rho||).
    """
    blocks = [np.asarray(m) for m in blocks]
    tr = 0.0
    for m in blocks:
        if not np.all(np.isfinite(m)):
            raise InvariantError("density matrix has non-finite entries")
        herm = float(np.max(np.abs(m - np.swapaxes(m, -1, -2).conj())))
        if herm > herm_tol:
            raise InvariantError(f"Hermiticity defect {herm:.3e} exceeds {herm_tol}")
        tr = tr + np.trace(m, axis1=-2, axis2=-1).sum()
    if abs(tr - 1.0) > trace_tol:
        raise InvariantError(f"trace {tr!r} deviates from 1 beyond {trace_tol}")
    for m in blocks:
        h = (m + np.swapaxes(m, -1, -2).conj()) / 2.0
        try:
            np.linalg.cholesky(h + psd_tol * np.eye(m.shape[-1]))
        except np.linalg.LinAlgError:
            lo = float(np.min(np.linalg.eigvalsh(h)[..., 0]))
            if lo < -psd_tol:
                raise InvariantError(f"smallest eigenvalue {lo:.3e} below -{psd_tol}") from None


def embed(op: Operator, space: HilbertSpace) -> Operator:
    """Extend an operator to a larger space, acting as identity elsewhere."""
    sub = op.space
    dims = dict(space.factors)
    for lab, d in sub.factors:
        if lab not in dims:
            raise KeyError(f"factor {lab!r} not present in target space")
        if dims[lab] != d:
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
    cutoff = a * a + 8.0 * a + 10.0
    if not math.isfinite(cutoff):
        raise ValueError(f"|alpha|**2 overflows for alpha={alpha!r}: no Fock cutoff")
    return int(math.ceil(cutoff))


def coherent_state(alpha: complex, n_max: int) -> np.ndarray:
    """Fock amplitudes of |alpha> on levels 0..n_max, renormalized after
    the cutoff, as a read-only array.

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
    amps /= math.sqrt(kept)
    amps.setflags(write=False)
    return amps


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


def beamsplitter_sector(n_max: int, total: int) -> np.ndarray:
    """Block of beamsplitter_5050(n_max) on the sector n_c + n_d = total.

    Rows (arm basis) and columns (input basis) both run over the first
    mode's photon number max(0, total - n_max) .. min(n_max, total); for
    total <= n_max that is 0..total, and the block does not depend on
    n_max.
    """
    ncs = range(max(0, total - n_max), min(n_max, total) + 1)
    m = len(ncs)
    gen = np.zeros((m, m))
    for j, nc in enumerate(ncs):
        nd = total - nc
        if nc + 1 <= n_max and nd - 1 >= 0:
            gen[j + 1, j] = math.sqrt((nc + 1) * nd)  # c^dag d amplitude
    gen = gen - gen.T
    theta = math.pi / 4.0
    lam, vec = np.linalg.eigh(1j * gen)  # exp(theta*gen) = exp(-i*theta*(i*gen))
    u = (vec * np.exp(-1j * theta * lam)) @ vec.conj().T
    sign = np.array([(-1.0) ** (total - nc) for nc in ncs])  # pi phase on mode d
    return sign[:, None] * u


def beamsplitter_5050(n_max: int, labels: tuple[str, str] = ("arm_c", "arm_d")) -> Operator:
    """Balanced beamsplitter between two modes truncated at n_max.

    Maps amplitudes written in the input-mode basis (a, b) to the arm
    basis (c, d) for the mode relations a = (c + d)/sqrt(2) and
    b = (c - d)/sqrt(2). The matrix is exactly unitary; it implements
    the ideal splitter on every total-photon-number sector that fits
    entirely below the cutoff (total <= n_max), which covers all inputs
    respecting the fock_cutoff rule. Applying the dagger recombines.
    The total photon number is conserved, so the matrix is assembled
    from its beamsplitter_sector blocks.
    """
    d = n_max + 1
    space = hspace(**{labels[0]: d, labels[1]: d})
    w = np.zeros((d * d, d * d), dtype=complex)
    for total in range(2 * n_max + 1):
        idx = [nc * d + (total - nc) for nc in range(max(0, total - n_max), min(n_max, total) + 1)]
        w[np.ix_(idx, idx)] = beamsplitter_sector(n_max, total)
    return Operator(space, w)
