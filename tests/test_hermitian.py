import numpy as np
import pytest

from povmlab.ensemble import HERMITICITY_ATOL
from povmlab.hermitian import herm, psd_root, trace_products

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_sqrt_identity_and_diagonal():
    assert np.allclose(psd_root(np.eye(3, dtype=complex)).root_matrix(), np.eye(3))
    assert np.allclose(psd_root(np.diag([4.0, 9.0]).astype(complex)).root_matrix(),
                       np.diag([2.0, 3.0]))


def test_sqrt_hand_checked():
    b = psd_root(np.array([[5.0, 4.0], [4.0, 5.0]], dtype=complex)).root_matrix()
    assert np.allclose(b, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)


def test_sqrt_squares_back_random():
    rng = np.random.default_rng(12)
    for dim in (2, 4, 8):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = g @ g.conj().T
        b = psd_root(a).root_matrix()
        assert np.linalg.norm(b @ b - a, "fro") <= 1e-9 * dim
        assert np.linalg.eigvalsh(b)[0] >= -1e-10


def test_sqrt_clamps_roundoff_negativity():
    a = np.diag([1.0, -1e-12]).astype(complex)
    b = psd_root(a).root_matrix()
    assert np.linalg.eigvalsh(b)[0] >= 0.0


def test_psd_root_identity_and_rank_deficient():
    r = psd_root(np.eye(2, dtype=complex))
    assert np.allclose(r.root_matrix(), np.eye(2))
    assert np.allclose(r.pinv_matrix(), np.eye(2))
    r = psd_root(np.diag([4.0, 0.0]).astype(complex))
    assert np.allclose(r.root_matrix(), np.diag([2.0, 0.0]))
    assert np.allclose(r.pinv_matrix(), np.diag([0.5, 0.0]))


def test_psd_root_cutoff_zeroes_negligible_mode():
    # eigenvalues 4 and 1e-30: the second is at or below PINV_CUTOFF times
    # the largest, 1e-12 * 4, so its mode is not inverted
    r = psd_root(np.diag([4.0, 1e-30]).astype(complex))
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


def test_psd_root_on_a_stack_matches_one_call_per_matrix():
    rng = np.random.default_rng(15)
    g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    stack = np.array([
        np.zeros((3, 3)),
        g @ g.conj().T,                 # rank 2
        h @ h.conj().T,
        np.diag([1e-30, 1e-11, 4.0]),   # 1e-11 inverted, 1e-30 cut
        np.diag([1e-30, 1e-20, 0.0]),   # both inverted: the cutoff is per matrix
    ], dtype=complex)
    whole = psd_root(stack)
    for k, m in enumerate(stack):
        one = psd_root(m)
        for name in one._fields:
            assert getattr(whole, name)[k].tobytes() == getattr(one, name).tobytes(), name
        assert whole.root_matrix()[k].tobytes() == one.root_matrix().tobytes()
        assert whole.pinv_matrix()[k].tobytes() == one.pinv_matrix().tobytes()
    assert np.count_nonzero(whole.inverse[3]) == 2
    assert np.count_nonzero(whole.inverse[4]) == 2


def test_herm_takes_hermitian_part_without_check():
    m = np.array([[1.0, 2.0], [0.0, 3.0 + 4.0j]], dtype=complex)
    h = herm(m)
    assert np.array_equal(h, [[1.0, 1.0], [1.0, 3.0]])
    assert np.array_equal(herm(h), h)


def test_herm_on_a_stack_is_matrix_by_matrix():
    rng = np.random.default_rng(86)
    stack = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    h = herm(stack)
    assert h.shape == (4, 3, 3)
    for k in range(4):
        assert np.array_equal(h[k], herm(stack[k]))
        assert np.array_equal(h[k], h[k].conj().T)


def test_trace_product_examples():
    eye2 = np.eye(2, dtype=complex)
    assert float(trace_products(eye2, eye2)) == pytest.approx(2.0)
    assert float(trace_products(PAULI_X, PAULI_Z)) == pytest.approx(0.0)
    proj0 = np.diag([1.0, 0.0]).astype(complex)
    assert float(trace_products(proj0, proj0)) == pytest.approx(1.0)


def test_trace_product_symmetric_random():
    rng = np.random.default_rng(14)
    for _ in range(20):
        g1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        g2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a, b = (g1 + g1.conj().T) / 2, (g2 + g2.conj().T) / 2
        assert abs(float(trace_products(a, b)) - float(trace_products(b, a))) <= 1e-12


def test_trace_product_and_min_eigenvalue_symmetrize_round_off():
    # asymmetry above the state-level Hermiticity tolerance but far below
    # any physics
    skew = np.array([[0.0, 5e-11], [-5e-11, 0.0]], dtype=complex)
    assert np.max(np.abs(skew - skew.conj().T)) > HERMITICITY_ATOL
    assert float(trace_products(PAULI_X + skew, PAULI_X)) == float(trace_products(PAULI_X, PAULI_X))


def test_trace_product_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_products(np.eye(2, dtype=complex), np.eye(3, dtype=complex))
