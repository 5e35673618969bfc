"""Dense linear algebra for small composite quantum systems.

Density matrices as read-only square complex arrays, their invariant
checks, and the photon-number weights of a coherent state.
Everything is immutable after construction; invariant checks are
explicit ``validate_*`` calls so that intermediate states of an
integrator may transiently violate positivity without aborting.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import HERM_TOL, PSD_TOL, TRACE_TOL

__all__ = [
    "InvariantError",
    "DensityMatrix",
    "fock_cutoff",
    "poisson_weights",
    "validate_density",
    "validate_pairs",
]


class InvariantError(ValueError):
    """A state or operator failed one of its structural invariants."""


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix as a read-only complex copy of a non-empty square
    array (ValueError otherwise). Use validate_density for checks."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise ValueError(f"expected a non-empty square matrix, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


def validate_density(rho: DensityMatrix, *more: DensityMatrix) -> None:
    """Raise InvariantError on non-finite entries, Hermiticity, trace or positivity failure.

    The checks run in that order, against HERM_TOL, TRACE_TOL and
    PSD_TOL. Positivity means a smallest eigenvalue of the Hermitian
    part, from eigvalsh, of at least -PSD_TOL. Given several matrices,
    it checks the block-diagonal state with them as its diagonal blocks,
    one block at a time: the largest Hermiticity defect, the summed
    trace and the smallest eigenvalue of the union of the block spectra.
    """
    blocks = [m.entries for m in (rho, *more)]
    if not all(np.all(np.isfinite(m)) for m in blocks):
        raise InvariantError("density matrix has non-finite entries")
    herm = max(float(np.max(np.abs(m - m.conj().T))) for m in blocks)
    if herm > HERM_TOL:
        raise InvariantError(f"Hermiticity defect {herm:.3e} exceeds {HERM_TOL}")
    tr = np.sum([np.trace(m) for m in blocks])
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvariantError(f"trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
    lo = min(float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0]) for m in blocks)
    if lo < -PSD_TOL:
        raise InvariantError(f"smallest eigenvalue {lo:.3e} below -{PSD_TOL}")


def validate_pairs(gg, ee, eg) -> None:
    """validate_density for the 2x2 blocks [[gg, conj(eg)], [eg, ee]], one per
    entry of three equal-shape arrays (ValueError otherwise), with no block formed.

    A 0-d or 1-D array holds the pairs of one state; a 2-D array holds one
    state per row, with the trace taken per row. Same checks, order,
    tolerances and messages: each check runs on every state before the
    next check, and the first state that fails it raises the text a call
    on that state alone would. The off-diagonal pair is Hermitian by
    construction, so the Hermiticity defect is 2*max(|imag gg|, |imag ee|),
    and the smallest eigenvalue is exact: (a+b)/2 - hypot((a-b)/2, |eg|)
    with a, b the real parts of gg, ee.
    """
    gg, ee, eg = np.asarray(gg), np.asarray(ee), np.asarray(eg)
    if not gg.shape == ee.shape == eg.shape:
        raise ValueError(f"pair arrays differ in shape: {gg.shape}, {ee.shape}, {eg.shape}")
    if not (np.isfinite(gg).all() and np.isfinite(ee).all() and np.isfinite(eg).all()):
        raise InvariantError("density matrix has non-finite entries")
    gg, ee, eg = np.atleast_2d(gg, ee, eg)
    if gg.dtype.kind == "c" or ee.dtype.kind == "c":  # real diagonals have no defect
        herm = 2.0 * np.maximum(np.abs(gg.imag).max(axis=-1), np.abs(ee.imag).max(axis=-1))
        if herm.max() > HERM_TOL:
            raise InvariantError(f"Hermiticity defect {herm[herm > HERM_TOL][0]:.3e} exceeds {HERM_TOL}")
    tr = (gg + ee).sum(axis=-1)
    off = np.abs(tr - 1.0)
    if off.max() > TRACE_TOL:
        raise InvariantError(f"trace {tr[off > TRACE_TOL][0]!r} deviates from 1 beyond {TRACE_TOL}")
    a, b = gg.real, ee.real
    lo = ((a + b) / 2.0 - np.hypot((a - b) / 2.0, np.abs(eg))).min(axis=-1)
    if lo.min() < -PSD_TOL:
        raise InvariantError(f"smallest eigenvalue {lo[lo < -PSD_TOL][0]:.3e} below -{PSD_TOL}")


def _mean_photons(alpha: complex) -> float:
    """|alpha|**2, or ValueError where it overflows."""
    a = abs(alpha)
    if not a * a <= sys.float_info.max:
        raise ValueError(f"|alpha|**2 overflows for alpha={alpha!r}")
    return a * a


def fock_cutoff(alpha: complex) -> int:
    """Fock truncation that keeps the norm deficit of |alpha> below 1e-10."""
    return int(math.ceil(_mean_photons(alpha) + 8.0 * abs(alpha) + 10.0))


def poisson_weights(alpha: complex, n_max: int) -> np.ndarray:
    """Fock weights |<n|alpha>|**2 on levels 0..n_max, renormalized after
    the cutoff, as a read-only real array that sums to 1.

    Each Poisson log weight log p_n, lam = |alpha|^2, stands on its own,
    so no rounding builds up along n and neither exp(-lam) nor the peak
    leaves double range: math.lgamma for n < 16, else Loader's
    saddle-point form -log(2*pi*n)/2 - stirlerr(n) - lam*h((n - lam)/lam),
    h(u) = (1 + u)*log1p(u) - u, with stirlerr the Stirling series of
    log(n!). alpha = 0 is the vacuum exactly. The truncation must keep
    all but 1e-10 of the norm (fock_cutoff guarantees this for
    |alpha|^2 <= 25); otherwise a ValueError is raised.
    """
    lam = _mean_photons(alpha)
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
    weights = np.exp(log_p, out=log_p)
    kept = float(np.sum(weights))
    if 1.0 - kept > 1e-10:
        raise ValueError(
            f"cutoff n_max={n_max} keeps only {kept!r} of the norm for alpha={alpha!r}; "
            f"need n_max >= {fock_cutoff(alpha)}"
        )
    weights /= kept
    weights.setflags(write=False)
    return weights
