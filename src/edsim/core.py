"""Dense linear algebra for small composite quantum systems.

Labeled tensor-product spaces, operators and density matrices on them,
the embedding of a factor's operator into a larger space, and the
bosonic-mode constructors (coherent-state amplitudes and the
number-conserving blocks of a balanced two-mode beamsplitter).
Everything is immutable after construction; invariant checks are
explicit ``validate_*`` calls so that intermediate states of an
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
    "beamsplitter_sector",
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


def validate_density(rho: DensityMatrix) -> None:
    """Raise InvariantError on non-finite entries, Hermiticity, trace or positivity failure."""
    validate_blocks((rho.entries,))


def validate_blocks(blocks: Iterable[np.ndarray]) -> None:
    """validate_density for a block-diagonal state given by its diagonal blocks.

    Each item is one square block or a stack of equal-size blocks, shape
    (..., d, d). Non-finite entries, Hermiticity and positivity are
    tested block by block, the unit trace on the sum of all blocks, in
    that order, against HERM_TOL, TRACE_TOL and PSD_TOL. Positivity means
    a smallest eigenvalue of at least -PSD_TOL, which holds exactly when
    h + PSD_TOL*I is positive definite (h the Hermitian part). A Cholesky
    factorization of that shifted matrix, much cheaper than eigvalsh,
    accepts such blocks; only when it fails is the smallest eigenvalue
    computed, and the decision and message are the eigenvalue's. The two
    can differ only within rounding of the threshold, O(d*eps*||rho||).
    """
    blocks = [np.asarray(m) for m in blocks]
    tr = 0.0
    for m in blocks:
        if not np.all(np.isfinite(m)):
            raise InvariantError("density matrix has non-finite entries")
        herm = float(np.max(np.abs(m - np.swapaxes(m, -1, -2).conj())))
        if herm > HERM_TOL:
            raise InvariantError(f"Hermiticity defect {herm:.3e} exceeds {HERM_TOL}")
        tr = tr + np.trace(m, axis1=-2, axis2=-1).sum()
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvariantError(f"trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
    for m in blocks:
        h = (m + np.swapaxes(m, -1, -2).conj()) / 2.0
        try:
            np.linalg.cholesky(h + PSD_TOL * np.eye(m.shape[-1]))
        except np.linalg.LinAlgError:
            lo = float(np.min(np.linalg.eigvalsh(h)[..., 0]))
            if lo < -PSD_TOL:
                raise InvariantError(f"smallest eigenvalue {lo:.3e} below -{PSD_TOL}") from None


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

    Each Poisson log weight log p_n, lam = |alpha|^2, stands on its own,
    so no rounding builds up along n and neither exp(-lam) nor the peak
    leaves double range: math.lgamma for n < 16, else Loader's
    saddle-point form -log(2*pi*n)/2 - stirlerr(n) - lam*h((n - lam)/lam),
    h(u) = (1 + u)*log1p(u) - u, with stirlerr the Stirling series of
    log(n!). alpha = 0 is the vacuum exactly. The truncation must keep
    all but 1e-10 of the norm (fock_cutoff guarantees this for
    |alpha|^2 <= 25); otherwise a ValueError is raised.
    """
    a = abs(alpha)
    lam = a * a
    if not math.isfinite(lam):
        raise ValueError(f"|alpha|**2 overflows for alpha={alpha!r}")
    log_p = np.full(n_max + 1, -math.inf)
    if lam == 0.0:
        log_p[0] = 0.0
    else:
        small = min(n_max + 1, 16)
        log_p[:small] = [k * math.log(lam) - lam - math.lgamma(k + 1.0) for k in range(small)]
        n = np.arange(small, n_max + 1, dtype=float)
        x = 1.0 / (n * n)
        stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - x / 1188) * x) * x) * x) / n
        with np.errstate(over="ignore"):  # u overflows only where the weight is 0
            u = (n - lam) / lam
            lam_h = n * np.log1p(u) - (n - lam)
        log_p[small:] = -0.5 * np.log(2.0 * math.pi * n) - stirlerr - lam_h
    amps = np.exp(0.5 * log_p) * np.exp(1j * np.angle(alpha) * np.arange(n_max + 1))
    kept = float(np.sum(np.abs(amps) ** 2))
    if 1.0 - kept > 1e-10:
        raise ValueError(
            f"cutoff n_max={n_max} keeps only {kept!r} of the norm for alpha={alpha!r}; "
            f"need n_max >= {fock_cutoff(alpha)}"
        )
    amps /= math.sqrt(kept)
    amps.setflags(write=False)
    return amps


def beamsplitter_sector(n_max: int, total: int) -> np.ndarray:
    """Block on the sector n_c + n_d = total of the balanced beamsplitter
    between two modes truncated at n_max.

    Maps amplitudes in the input-mode basis (a, b) to the arm basis
    (c, d) for a = (c + d)/sqrt(2) and b = (c - d)/sqrt(2); the block is
    exactly unitary, and its dagger recombines. Rows (arm basis) and
    columns (input basis) both run over the first mode's photon number
    max(0, total - n_max) .. min(n_max, total); for total <= n_max that
    is 0..total, and the block does not depend on n_max.
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
