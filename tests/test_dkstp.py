import math

import numpy as np
import pytest

from crossdim.cdspace import kron_lift, projector, v_norm
from crossdim.dkstp import bridge, dk_apply, dk_product, op_vnorm

RNG = np.random.default_rng(7)


def random_matrix(max_dim=6):
    r, c = (int(d) for d in RNG.integers(1, max_dim + 1, size=2))
    return RNG.standard_normal((r, c))


# ---------------------------------------------------------------------- bridge

def test_bridge_matches_projector_small():
    np.testing.assert_array_equal(bridge(2, 4), projector(4, 2).matrix)


def test_bridge_identity():
    np.testing.assert_array_equal(bridge(5, 5), np.eye(5))


def test_bridge_2x3():
    np.testing.assert_allclose(
        bridge(2, 3), [[2 / 3, 1 / 3, 0], [0, 1 / 3, 2 / 3]], atol=1e-16
    )


def test_bridge_equals_projector_everywhere():
    for n in range(1, 13):
        for m in range(1, 13):
            np.testing.assert_array_equal(bridge(n, m), projector(m, n).matrix)


def test_bridge_is_cached_and_read_only():
    B = bridge(3, 5)
    assert bridge(3, 5) is B
    assert projector(5, 3).matrix is B
    with pytest.raises(ValueError):
        B[0, 0] = 1.0


# ------------------------------------------------------------------ dk_product

def test_dk_product_extends_ordinary_product():
    A = RNG.standard_normal((2, 3))
    B = RNG.standard_normal((3, 4))
    np.testing.assert_allclose(dk_product(A, B), A @ B, atol=1e-14)


def test_dk_product_row_times_ones():
    np.testing.assert_allclose(dk_product([[1.0, 2.0]], [[1], [1], [1]]), [[3.0]])
    np.testing.assert_allclose(dk_product([[1.0, 1.0]], [[1], [1], [1]]), [[2.0]])


def test_dk_product_factors_through_bridge():
    for _ in range(1000):
        A, B = random_matrix(), random_matrix()
        direct = dk_product(A, B)
        via_bridge = A @ bridge(A.shape[1], B.shape[0]) @ B
        np.testing.assert_allclose(direct, via_bridge, atol=1e-12)


def test_dk_product_distributivity():
    for _ in range(200):
        A = RNG.standard_normal((3, 4))
        B = RNG.standard_normal((3, 4))
        C = random_matrix()
        lhs = dk_product(A + B, C)
        rhs = dk_product(A, C) + dk_product(B, C)
        scale = max(1.0, np.abs(lhs).max())
        assert np.abs(lhs - rhs).max() / scale <= 1e-9


def test_dk_product_associativity():
    for _ in range(1000):
        A, B, C = random_matrix(5), random_matrix(5), random_matrix(5)
        lhs = dk_product(dk_product(A, B), C)
        rhs = dk_product(A, dk_product(B, C))
        scale = max(1.0, np.abs(lhs).max())
        assert np.abs(lhs - rhs).max() / scale <= 1e-9


def test_dk_product_ring_axioms_fixed_shape():
    # one shape class: 2x3 matrices under + and the product
    mats = [RNG.standard_normal((2, 3)) for _ in range(4)]
    A, B, C, _ = mats
    assert dk_product(A, B).shape == (2, 3)
    np.testing.assert_allclose(
        dk_product(A, B + C), dk_product(A, B) + dk_product(A, C), atol=1e-12
    )
    np.testing.assert_allclose(
        dk_product(dk_product(A, B), C), dk_product(A, dk_product(B, C)), atol=1e-12
    )


def test_dk_product_unweighted_variant():
    A = RNG.standard_normal((2, 2))
    B = RNG.standard_normal((3, 2))
    t = math.lcm(2, 3)
    np.testing.assert_allclose(
        dk_product(A, B, weighted=False), (t / 2) * dk_product(A, B), atol=1e-12
    )


def test_dk_apply_matches_matrix_route():
    A = RNG.standard_normal((2, 4))
    x = RNG.standard_normal(6)
    np.testing.assert_allclose(
        dk_apply(A, x), dk_product(A, x.reshape(-1, 1)).ravel(), atol=1e-15
    )


# -------------------------------------------------------------------- op_vnorm

def test_op_vnorm_identity_and_scalar():
    assert op_vnorm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert op_vnorm([[2.0]]) == pytest.approx(2.0, abs=1e-12)


def test_op_vnorm_of_block_average():
    assert op_vnorm(projector(4, 2).matrix) == pytest.approx(1.0, abs=1e-12)


def test_op_vnorm_matches_eigen_oracle():
    for _ in range(100):
        A = random_matrix()
        m, n = A.shape
        expected = math.sqrt(n / m * max(np.linalg.eigvalsh(A.T @ A).max(), 0.0))
        assert op_vnorm(A) == pytest.approx(expected, abs=1e-9)


def test_op_vnorm_never_underestimates_the_spectral_bound():
    rng = np.random.default_rng(2000)
    for _ in range(500):
        m, n = (int(d) for d in rng.integers(1, 7, size=2))
        A = rng.standard_normal((m, n))
        top = np.linalg.svd(A, compute_uv=False)[0]
        assert op_vnorm(A) >= math.sqrt(n / m) * top


def test_op_vnorm_bounds_action_on_all_dims():
    for _ in range(60):
        A = random_matrix()
        bound = op_vnorm(A)
        for p in range(1, 13):
            x = RNG.standard_normal(p)
            assert v_norm(dk_apply(A, x)) <= bound * v_norm(x) + 1e-9


def test_op_vnorm_bound_is_tight():
    for _ in range(30):
        A = random_matrix()
        bound = op_vnorm(A)
        if bound == 0.0:
            continue
        # the top right-singular direction realizes the norm
        _, _, vt = np.linalg.svd(A)
        x = vt[0]
        ratio = v_norm(A @ x) / v_norm(x)
        assert ratio >= 0.99 * bound
        # replicated copies of that direction stay extremal
        ratio3 = v_norm(dk_apply(A, kron_lift(x, 3))) / v_norm(kron_lift(x, 3))
        assert ratio3 >= 0.99 * bound - 1e-12


def test_matrix_validation():
    with pytest.raises(ValueError):
        dk_product(np.ones((2, 2)), np.array([[np.nan]]))
    with pytest.raises(ValueError):
        op_vnorm(np.zeros((0, 2)))
