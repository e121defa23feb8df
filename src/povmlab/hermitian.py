"""Dense complex Hermitian linear algebra primitives.

Every operator handled by this package is a square complex matrix equal to
its conjugate transpose: density matrices, measurement elements, and
Lagrange multipliers alike. Input files are checked for that property by
``ensemble.validate`` and ``solver.povm_violations``; everywhere else
:func:`herm` removes the round-off asymmetry without a check. Square roots
and pseudoinverses all come from one eigendecomposition in :func:`psd_root`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Relative eigenvalue cutoff for the pseudoinverse.
DEFAULT_PINV_CUTOFF = 1e-12
TRACE_IMAG_ATOL = 1e-10


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only and return it."""
    a.setflags(write=False)
    return a


def herm(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M†)/2, with no check on how far M is from it; a
    stack of matrices (last two axes) is taken matrix by matrix."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


class PsdRoot(NamedTuple):
    """A^{1/2} = V diag(root) V† and its pseudoinverse V diag(inverse) V†,
    where V and ``eigenvalues`` (ascending) are the eigendecomposition of A."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    root: np.ndarray
    inverse: np.ndarray

    def root_matrix(self) -> np.ndarray:
        return herm((self.vectors * self.root) @ self.vectors.conj().T)

    def pinv_matrix(self) -> np.ndarray:
        return herm((self.vectors * self.inverse) @ self.vectors.conj().T)


def psd_root(a: np.ndarray, cutoff: float = DEFAULT_PINV_CUTOFF) -> PsdRoot:
    """PSD square root of a Hermitian ``a`` and its pseudoinverse, from one
    eigendecomposition. Eigenvalues are clipped at zero before the root is
    taken; modes whose eigenvalue is at or below ``cutoff`` times the largest
    one (all of them for the zero matrix) are not inverted."""
    w, v = np.linalg.eigh(a)
    wc = np.clip(w, 0.0, None)
    s = np.sqrt(wc)
    sinv = np.where(wc > cutoff * wc[-1], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return PsdRoot(w, v, s, sinv)


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of ``a``."""
    return float(np.linalg.eigvalsh(herm(a))[0])


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Re Tr[A B] for the Hermitian parts A, B of equal-sized ``a``, ``b``.

    The imaginary part of the trace is mathematically zero and is asserted
    to stay below round-off scale.
    """
    am = herm(a)
    bm = herm(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    t = complex(np.trace(am @ bm))
    if abs(t.imag) > TRACE_IMAG_ATOL:
        raise ValueError(f"trace of the product has imaginary part {t.imag:.3e}")
    return float(t.real)
