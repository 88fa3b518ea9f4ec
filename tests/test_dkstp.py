import math
import tracemalloc

import numpy as np
import pytest

from crossdim.cdspace import kron_lift, project, stp_add, v_norm
from crossdim.dkstp import (
    _bridge,
    _bridge_pinv,
    _overlaps,
    bridge,
    dk_apply,
    dk_product,
    op_vnorm,
)
from crossdim.errors import NumericFailure

RNG = np.random.default_rng(7)


def random_matrix(max_dim=6):
    r, c = (int(d) for d in RNG.integers(1, max_dim + 1, size=2))
    return RNG.standard_normal((r, c))


# ---------------------------------------------------------------------- bridge

def test_bridge_identity():
    np.testing.assert_array_equal(bridge(5, 5), np.eye(5))


def test_bridge_2x3():
    np.testing.assert_allclose(
        bridge(2, 3), [[2 / 3, 1 / 3, 0], [0, 1 / 3, 2 / 3]], atol=1e-16
    )


def kronecker_bridge(n, p):
    """The definition (n/t) (I_n (x) 1_{t/n}^T)(I_p (x) 1_{t/p}), t = lcm(n, p)."""
    t = math.lcm(n, p)
    left = np.kron(np.eye(n), np.ones((1, t // n)))
    right = np.kron(np.eye(p), np.ones((t // p, 1)))
    return (n / t) * (left @ right)


def test_bridge_equals_kronecker_definition_bit_for_bit():
    for n in range(1, 25):
        for p in range(1, 25):
            B, ref = bridge(n, p), kronecker_bridge(n, p)
            assert B.dtype == ref.dtype and B.shape == ref.shape
            assert B.tobytes() == ref.tobytes(), (n, p)


def outer_bridge(n, p):
    """The bridge as built from n x p outer arrays of block overlaps."""
    t = math.lcm(n, p)
    a, b = t // n, t // p
    lo = np.maximum.outer(np.arange(n) * a, np.arange(p) * b)
    hi = np.minimum.outer(np.arange(1, n + 1) * a, np.arange(1, p + 1) * b)
    return (n / t) * np.maximum(hi - lo, 0)


def test_bridge_equals_the_outer_overlap_construction_bit_for_bit():
    for n in range(1, 41):
        for p in range(1, 41):
            B, ref = bridge(n, p), outer_bridge(n, p)
            assert B.dtype == ref.dtype and B.shape == ref.shape
            assert B.tobytes() == ref.tobytes(), (n, p)


def test_overlaps_are_the_shared_pieces_of_both_partitions():
    for n in range(1, 41):
        for p in range(1, 41):
            i, j, count, t = _overlaps(n, p)
            assert t == math.lcm(n, p)
            assert len(i) == len(j) == len(count) == n + p - math.gcd(n, p)
            assert count.sum() == t and (count > 0).all()
            # each piece lies in block i of n and block j of p, in order
            ends = np.cumsum(count)
            starts = ends - count
            assert (starts >= i * (t // n)).all() and (ends <= (i + 1) * (t // n)).all()
            assert (starts >= j * (t // p)).all() and (ends <= (j + 1) * (t // p)).all()


def test_overlaps_are_cached_and_read_only():
    pieces = _overlaps(4, 6)
    assert _overlaps(4, 6) is pieces
    for arr in pieces[:3]:
        with pytest.raises(ValueError):
            arr[0] = 1


def test_bridge_allocates_about_its_result():
    # coprime 89 x 97: the Kronecker factors hold 186 * 8633 floats (13 MB),
    # the result 8633 (69 kB)
    _bridge.cache_clear()
    tracemalloc.start()
    try:
        bridge(89, 97)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_bridge_is_cached_and_read_only():
    B = bridge(3, 5)
    assert bridge(3, 5) is B
    with pytest.raises(ValueError):
        B[0, 0] = 1.0


def test_bridge_pinv_is_the_pseudo_inverse_bit_for_bit():
    _bridge_pinv.cache_clear()
    for m in range(1, 21):
        for n in range(1, 21):
            P = _bridge_pinv(m, n)
            assert P.tobytes() == np.linalg.pinv(bridge(m, n)).tobytes(), (m, n)
            assert P.shape == (n, m) and _bridge_pinv(m, n) is P
            with pytest.raises(ValueError):
                P[0, 0] = 1.0


def test_a_failed_pinv_is_not_cached(monkeypatch):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    _bridge_pinv.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "pinv", diverge)
        with pytest.raises(np.linalg.LinAlgError):
            _bridge_pinv(3, 7)
    assert _bridge_pinv(3, 7).tobytes() == np.linalg.pinv(bridge(3, 7)).tobytes()


# ------------------------------------------------------------------ dk_product

def test_dk_product_extends_ordinary_product():
    A = RNG.standard_normal((2, 3))
    B = RNG.standard_normal((3, 4))
    np.testing.assert_allclose(dk_product(A, B), A @ B, atol=1e-14)


def test_dk_product_row_times_ones():
    np.testing.assert_allclose(dk_product([[1.0, 2.0]], [[1], [1], [1]]), [[3.0]])
    np.testing.assert_allclose(dk_product([[1.0, 1.0]], [[1], [1], [1]]), [[2.0]])


def test_dk_product_reads_a_flat_left_factor_as_one_row():
    row, N = np.array([1.0, 2.0]), np.arange(12.0).reshape(4, 3)
    np.testing.assert_array_equal(dk_product(row, N), dk_product(row[None, :], N))
    assert dk_product(row, N).shape == (1, 3)


def test_dk_product_factors_through_bridge():
    # reference: the definition (n/t)(A (x) 1_{t/n}^T)(B (x) 1_{t/p}), t = lcm(n, p)
    for _ in range(1000):
        A, B = random_matrix(), random_matrix()
        n, p = A.shape[1], B.shape[0]
        t = math.lcm(n, p)
        left = np.kron(A, np.ones((1, t // n)))
        right = np.kron(B, np.ones((t // p, 1)))
        np.testing.assert_allclose(dk_product(A, B), (n / t) * (left @ right), atol=1e-12)


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


def test_dk_apply_matches_matrix_route():
    A = RNG.standard_normal((2, 4))
    x = RNG.standard_normal(6)
    np.testing.assert_allclose(
        dk_apply(A, x), dk_product(A, x.reshape(-1, 1)).ravel(), atol=1e-15
    )


def test_dk_apply_of_a_sum_projects_the_foreign_term():
    # A (x + eta) in the lcm dimension equals A (x + project(eta, n)): the
    # formula of a disturbance of foreign dimension in the drift
    rng = np.random.default_rng(11)
    for _ in range(200):
        n, l = (int(d) for d in rng.integers(1, 7, size=2))
        A = rng.standard_normal((n, n))
        x, eta = rng.standard_normal(n), rng.standard_normal(l)
        np.testing.assert_allclose(
            dk_apply(A, stp_add(x, eta)), A @ (x + project(eta, n)), atol=1e-12
        )


# -------------------------------------------------------------------- op_vnorm

def test_op_vnorm_identity_and_scalar():
    assert op_vnorm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert op_vnorm([[2.0]]) == pytest.approx(2.0, abs=1e-12)


def test_op_vnorm_of_block_average():
    assert op_vnorm(bridge(2, 4)) == pytest.approx(1.0, abs=1e-12)


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


def test_op_vnorm_svd_failure_is_a_numeric_failure(monkeypatch):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "norm", diverge)
    with pytest.raises(NumericFailure) as exc:
        op_vnorm(np.eye(3))
    assert exc.value.operation == "op_vnorm"
    assert str(exc.value) == "singular value decomposition did not converge (operation=op_vnorm)"
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


def test_matrix_validation():
    with pytest.raises(ValueError):
        dk_product(np.ones((2, 2)), np.array([[np.nan]]))
    with pytest.raises(ValueError):
        op_vnorm(np.zeros((0, 2)))
