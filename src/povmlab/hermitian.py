"""Dense complex Hermitian linear algebra primitives.

Every operator handled by this package is a square complex matrix equal to
its conjugate transpose: density matrices, measurement elements, and
Lagrange multipliers alike. :func:`hermitian` validates that property at
the boundary; operators the package builds itself only have their round-off
asymmetry removed by :func:`herm`. Square roots and pseudoinverses all come
from one eigendecomposition in :func:`psd_root`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Asymmetry above this is a genuine error, below it is round-off.
HERMITICITY_ATOL = 1e-12
# Eigenvalues above this floor count as nonnegative; separates real
# negativity from round-off at dimensions up to a few dozen.
PSD_EIGENVALUE_FLOOR = -1e-10
# Relative eigenvalue cutoff for the pseudoinverse.
DEFAULT_PINV_CUTOFF = 1e-12
TRACE_IMAG_ATOL = 1e-10


class HermiticityError(ValueError):
    """Input matrix is further from Hermitian than the tolerance allows."""


class NotPositiveSemidefiniteError(ValueError):
    """Operator has an eigenvalue below the PSD floor."""


class EigenDecomposition(NamedTuple):
    """Spectral decomposition A = V diag(w) V† with w real ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only and return it."""
    a.setflags(write=False)
    return a


def hermitian(a, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Validate Hermiticity and return the symmetrized read-only matrix.

    The matrix must be square with max|A - A†| <= atol; the returned value
    is (A + A†)/2, which removes the round-off asymmetry.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("dimension must be at least 1")
    asym = float(np.max(np.abs(m - m.conj().T)))
    if asym > atol:
        raise HermiticityError(
            f"matrix is not Hermitian: max|A - A†| = {asym:.3e} exceeds {atol:.3e}"
        )
    return frozen(herm(m))


def herm(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M†)/2, with no check on how far M is from it."""
    return (m + m.conj().T) / 2.0


def eig_hermitian(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of the Hermitian part of ``a``, eigenvalues ascending."""
    w, v = np.linalg.eigh(herm(a))
    return EigenDecomposition(frozen(w), frozen(v))


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


def sqrt_psd(a) -> np.ndarray:
    """Unique PSD square root of a positive semidefinite matrix.

    Eigenvalues within the PSD floor of zero are clamped to zero; anything
    below the floor raises :class:`NotPositiveSemidefiniteError`.
    """
    r = psd_root(hermitian(a))
    w0 = r.eigenvalues[0]
    if w0 < PSD_EIGENVALUE_FLOOR:
        raise NotPositiveSemidefiniteError(
            f"smallest eigenvalue {w0:.3e} is below the PSD floor {PSD_EIGENVALUE_FLOOR:.0e}"
        )
    return frozen(r.root_matrix())


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
