"""Dense complex Hermitian linear algebra primitives.

Every operator handled by this package is a square complex matrix equal to
its conjugate transpose: density matrices, measurement elements, and
Lagrange multipliers alike. Input files are checked for that property by
``ensemble.validate`` and ``solver.povm_violations``; everywhere else
:func:`herm` removes the round-off asymmetry without a check. Square roots
and pseudoinverses all come from one eigendecomposition in :func:`psd_root`.
A set of operators, such as an ensemble's states or a POVM's elements, is
one read-only (n, d, d) array built by :func:`operator_stack`.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

# Relative eigenvalue cutoff for the pseudoinverse.
PINV_CUTOFF = 1e-12
TRACE_IMAG_ATOL = 1e-10
_TINY = np.finfo(np.float64).tiny


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only and return it."""
    a.setflags(write=False)
    return a


def operator_stack(matrices, owner: str) -> np.ndarray:
    """A read-only complex (n, d, d) copy of ``matrices``, a sequence of
    matrices or one stacked array; raise ValueError unless they are square,
    share one dimension and have finite entries. ``owner`` names them in
    the messages."""
    try:
        stack = np.array(matrices, dtype=np.complex128)
    except ValueError as exc:  # ragged: matrices of different shapes
        raise ValueError(f"{owner} matrices must share one shape") from exc
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(
            f"{owner} matrices must be square and of one dimension, got shape {stack.shape}")
    if not np.isfinite(stack).all():
        raise ValueError(f"{owner} entries must be finite")
    return frozen(stack)


def herm(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M†)/2, with no check on how far M is from it; a
    stack of matrices (last two axes) is taken matrix by matrix."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


class PsdRoot(namedtuple("PsdRoot", "vectors root inverse")):
    """A^{1/2} = V diag(root) V† and its pseudoinverse V diag(inverse) V†,
    where V, the ``vectors``, are the eigenvectors of A, in ascending order
    of eigenvalue; for a stack of matrices each field is stacked the same
    way. Every field is an ndarray, but for a ``root`` its maker leaves
    out, which is None."""

    __slots__ = ()

    def root_matrix(self) -> np.ndarray:
        return self._compose(self.root)

    def pinv_matrix(self) -> np.ndarray:
        return self._compose(self.inverse)

    def _compose(self, values: np.ndarray) -> np.ndarray:
        v = self.vectors
        return herm((v * values[..., None, :]) @ v.conj().swapaxes(-1, -2))


def psd_root(a: np.ndarray) -> PsdRoot:
    """PSD square root of a Hermitian ``a`` and its pseudoinverse, from one
    eigendecomposition; a stack of matrices (last two axes) is taken matrix
    by matrix. Eigenvalues are clipped at zero before the root is taken;
    modes whose eigenvalue is at or below PINV_CUTOFF times the largest one
    of the same matrix (all of them for the zero matrix) are not inverted."""
    w, v = np.linalg.eigh(a)
    wc = np.maximum(w, 0.0)
    s = np.sqrt(wc)
    # an inverted mode has wc > 0, so s > 0 there; the floor only keeps the
    # division finite on the modes the mask drops, where True / s is 0 / s
    sinv = (wc > PINV_CUTOFF * wc[..., -1:]) / np.maximum(s, _TINY)
    return PsdRoot(v, s, sinv)


def trace_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr[A B] for the Hermitian parts A, B of equal-sized ``a``, ``b``;
    stacks (last two axes) are taken pair by pair.

    The imaginary part of each trace is mathematically zero and is asserted
    to stay below round-off scale.
    """
    am = herm(a)
    bm = herm(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    t = np.trace(am @ bm, axis1=-2, axis2=-1)
    imag = t.imag.ravel()
    worst = imag[np.abs(imag).argmax()]
    if abs(worst) > TRACE_IMAG_ATOL:
        raise ValueError(f"trace of the product has imaginary part {worst:.3e}")
    return t.real

