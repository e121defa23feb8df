import numpy as np
import pytest

from povmlab.hermitian import (
    HermiticityError,
    NotPositiveSemidefiniteError,
    eig_hermitian,
    herm,
    hermitian,
    min_eigenvalue,
    psd_root,
    sqrt_psd,
    trace_product,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_hermitian_accepts_and_symmetrizes():
    a = hermitian(np.array([[1.0, 2.0 + 1e-14j], [2.0, 3.0]], dtype=complex))
    assert np.allclose(a, a.conj().T)
    assert not a.flags.writeable


def test_hermitian_rejects_asymmetry_beyond_tolerance():
    with pytest.raises(HermiticityError):
        hermitian(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_hermitian_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian(np.zeros((2, 3), dtype=complex))


def test_eig_identity():
    w, v = eig_hermitian(np.eye(2, dtype=complex))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v @ v.conj().T, np.eye(2))


def test_eig_diagonal_ascending():
    w, _ = eig_hermitian(np.diag([3.0, -1.0]).astype(complex))
    assert np.allclose(w, [-1.0, 3.0])


def test_eig_hand_checked_symmetric():
    w, v = eig_hermitian(np.array([[5.0, 4.0], [4.0, 5.0]], dtype=complex))
    assert np.allclose(w, [1.0, 9.0])
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    # columns match (|0> -+ |1>)/sqrt(2) up to phase
    for col, ref in zip(v.T, ([inv_sqrt2, -inv_sqrt2], [inv_sqrt2, inv_sqrt2])):
        assert abs(abs(np.vdot(col, ref)) - 1.0) < 1e-12


def test_eig_reconstruction_random():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5, 8):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = (g + g.conj().T) / 2
        w, v = eig_hermitian(a)
        recon = (v * w) @ v.conj().T
        assert np.linalg.norm(recon - a, "fro") <= 1e-10 * dim


def test_sqrt_identity_and_diagonal():
    assert np.allclose(sqrt_psd(np.eye(3, dtype=complex)), np.eye(3))
    assert np.allclose(sqrt_psd(np.diag([4.0, 9.0]).astype(complex)),
                       np.diag([2.0, 3.0]))


def test_sqrt_hand_checked():
    b = sqrt_psd(np.array([[5.0, 4.0], [4.0, 5.0]], dtype=complex))
    assert np.allclose(b, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)


def test_sqrt_squares_back_random():
    rng = np.random.default_rng(12)
    for dim in (2, 4, 8):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = g @ g.conj().T
        b = sqrt_psd(a)
        assert np.linalg.norm(b @ b - a, "fro") <= 1e-9 * dim
        assert min_eigenvalue(b) >= -1e-10


def test_sqrt_clamps_roundoff_negativity():
    a = np.diag([1.0, -1e-12]).astype(complex)
    b = sqrt_psd(a)
    assert min_eigenvalue(b) >= 0.0


def test_sqrt_rejects_genuine_negativity():
    with pytest.raises(NotPositiveSemidefiniteError):
        sqrt_psd(np.diag([1.0, -1e-6]).astype(complex))


def test_psd_root_identity_and_rank_deficient():
    r = psd_root(np.eye(2, dtype=complex))
    assert np.allclose(r.root_matrix(), np.eye(2))
    assert np.allclose(r.pinv_matrix(), np.eye(2))
    r = psd_root(np.diag([4.0, 0.0]).astype(complex))
    assert np.allclose(r.root_matrix(), np.diag([2.0, 0.0]))
    assert np.allclose(r.pinv_matrix(), np.diag([0.5, 0.0]))


def test_psd_root_cutoff_zeroes_negligible_mode():
    # root values 2 and 1e-15: the second lies below 1e-12 * 2
    r = psd_root(np.diag([4.0, 1e-30]).astype(complex), cutoff=1e-12)
    assert np.allclose(r.pinv_matrix(), np.diag([0.5, 0.0]))
    assert np.array_equal(r.inverse, [0.0, 0.5])


def test_psd_root_clips_roundoff_negativity():
    r = psd_root(np.diag([-1e-14, 9.0]).astype(complex))
    assert np.array_equal(r.root, [0.0, 3.0])
    assert np.array_equal(r.inverse, [0.0, 1.0 / 3.0])


def test_psd_root_zero_operator_is_zero():
    r = psd_root(np.zeros((3, 3), dtype=complex))
    assert np.allclose(r.root_matrix(), 0.0)
    assert np.allclose(r.pinv_matrix(), 0.0)


def test_psd_root_inverts_on_support():
    rng = np.random.default_rng(13)
    for dim in (2, 4, 8):
        g = rng.standard_normal((dim, dim - 1)) + 1j * rng.standard_normal((dim, dim - 1))
        a = g @ g.conj().T  # rank dim-1
        # the null eigenvalue is round-off of order 1e-16 relative, below the
        # default eigenvalue cutoff, although its root (about 1e-8 relative)
        # is not
        r = psd_root(a)
        assert r.inverse[0] == 0.0 and np.all(r.inverse[1:] > 0.0)
        root, pinv = r.root_matrix(), r.pinv_matrix()
        assert np.linalg.norm(root @ root - a, "fro") <= 1e-9 * dim
        proj = root @ pinv  # projector onto the support of a
        support = g @ np.linalg.solve(g.conj().T @ g, g.conj().T)
        assert np.linalg.norm(proj - support, "fro") <= 1e-10
        assert np.linalg.norm(proj @ proj - proj, "fro") <= 1e-8 * dim
        assert np.linalg.norm(proj @ a - a, "fro") <= 1e-8 * dim
        assert np.linalg.norm(pinv @ root @ pinv - pinv, "fro") <= 1e-8 * dim


def test_herm_takes_hermitian_part_without_check():
    m = np.array([[1.0, 2.0], [0.0, 3.0 + 4.0j]], dtype=complex)
    h = herm(m)
    assert np.array_equal(h, [[1.0, 1.0], [1.0, 3.0]])
    assert np.array_equal(herm(h), h)


def test_min_eigenvalue_examples():
    assert min_eigenvalue(np.eye(2, dtype=complex)) == pytest.approx(1.0)
    assert min_eigenvalue(np.diag([-0.3, 7.0]).astype(complex)) == pytest.approx(-0.3)
    assert min_eigenvalue(PAULI_X) == pytest.approx(-1.0)


def test_trace_product_examples():
    assert trace_product(np.eye(2, dtype=complex), np.eye(2, dtype=complex)) == pytest.approx(2.0)
    assert trace_product(PAULI_X, PAULI_Z) == pytest.approx(0.0)
    proj0 = np.diag([1.0, 0.0]).astype(complex)
    assert trace_product(proj0, proj0) == pytest.approx(1.0)


def test_trace_product_symmetric_random():
    rng = np.random.default_rng(14)
    for _ in range(20):
        g1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        g2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a, b = (g1 + g1.conj().T) / 2, (g2 + g2.conj().T) / 2
        assert abs(trace_product(a, b) - trace_product(b, a)) <= 1e-12


def test_trace_product_and_min_eigenvalue_symmetrize_round_off():
    # asymmetry above the hermitian() tolerance but far below any physics
    skew = np.array([[0.0, 5e-11], [-5e-11, 0.0]], dtype=complex)
    with pytest.raises(HermiticityError):
        hermitian(PAULI_X + skew)
    assert trace_product(PAULI_X + skew, PAULI_X) == trace_product(PAULI_X, PAULI_X)
    assert min_eigenvalue(PAULI_X + skew) == min_eigenvalue(PAULI_X)


def test_trace_product_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_product(np.eye(2, dtype=complex), np.eye(3, dtype=complex))
