import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdim.cdspace import (
    MAX_LATTICE_NODES,
    CdVector,
    angle,
    build_lattice,
    canonicalize,
    equivalent,
    kron_lift,
    project,
    projector,
    stp_add,
    stp_sub,
    v_dist,
    v_inner,
    v_norm,
)

RNG = np.random.default_rng(42)


# ---------------------------------------------------------------- canonicalize

def test_canonicalize_reduces_constant_blocks():
    np.testing.assert_array_equal(canonicalize([1, 1, 2, 2]).entries, [1.0, 2.0])


def test_canonicalize_keeps_irreducible_vectors():
    np.testing.assert_array_equal(canonicalize([1, 2, 3]).entries, [1.0, 2.0, 3.0])


def test_canonicalize_constant_vector():
    out = canonicalize([7.0] * 6)
    assert out.dim == 1
    assert out.entries[0] == 7.0


def test_canonicalize_flags_and_validates():
    assert canonicalize([1, 2]).canonical
    with pytest.raises(ValueError):
        canonicalize([])
    with pytest.raises(ValueError):
        CdVector([1.0, math.inf])


def test_canonicalize_tolerance_uses_block_means():
    eps = 1e-12
    out = canonicalize([1.0, 1.0 + eps, 2.0, 2.0 - eps])
    assert out.dim == 2
    np.testing.assert_allclose(out.entries, [1.0 + eps / 2, 2.0 - eps / 2], rtol=1e-15)
    # well-separated blocks survive
    assert canonicalize([1.0, 1.0 + 1e-3, 2.0, 2.0]).dim == 4


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=4),
)
def test_canonicalize_idempotent_and_equivalent(base, k):
    v = np.repeat(np.asarray(base, dtype=float), k)
    once = canonicalize(v)
    twice = canonicalize(once)
    np.testing.assert_array_equal(once.entries, twice.entries)
    assert v.size % once.dim == 0
    assert equivalent(v, once)


# ------------------------------------------------------------------ equivalent

def test_equivalent_under_replication():
    x = np.array([1.0, -2.0, 0.5])
    assert equivalent(x, kron_lift(x, 3))


def test_equivalent_distinguishes_classes():
    assert not equivalent([1, 2], [1, 2, 3])


def test_equivalent_common_reduction():
    assert equivalent([1, 1, 2, 2], [1, 1, 1, 2, 2, 2])


def test_equivalent_zero_classes():
    assert equivalent([0.0, 0.0], [0.0, 0.0, 0.0])


# -------------------------------------------------------------------- stp_add

def test_stp_add_expands_to_lcm():
    out = stp_add([1, 2], [1, 2, 3])
    np.testing.assert_array_equal(out.entries, [2, 2, 3, 4, 5, 5])


def test_stp_add_zero_class():
    x = np.array([3.0, -1.0])
    out = stp_add(x, np.zeros(5))
    assert equivalent(out, x)


def test_stp_add_doubles():
    x = np.array([0.3, 1.7, -2.2])
    assert equivalent(stp_add(x, x), 2 * x)


# ------------------------------------------------------- inner / norm / dist

def test_v_inner_examples():
    assert v_inner([1, 1], [1, 1, 1]) == pytest.approx(1.0)
    assert v_inner([2, 1], [1, 2]) == pytest.approx(2.0)


def test_v_inner_self_is_scaled_euclid():
    x = RNG.standard_normal(5)
    assert v_inner(x, x) == pytest.approx(np.dot(x, x) / 5, rel=1e-14)


def test_v_inner_symmetric_bilinear():
    x, y, z = RNG.standard_normal(2), RNG.standard_normal(3), RNG.standard_normal(6)
    assert v_inner(x, y) == pytest.approx(v_inner(y, x), rel=1e-14)
    lhs = v_inner(stp_add(2.0 * np.asarray(x), z), y)
    rhs = 2 * v_inner(x, y) + v_inner(z, y)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_v_norm_examples():
    assert v_norm([5, 6]) == pytest.approx(math.sqrt(61 / 2), rel=1e-15)
    assert v_norm([-3.5] * 7) == pytest.approx(3.5, rel=1e-15)
    assert v_norm([0.0, 0.0, 0.0]) == 0.0


def test_v_norm_invariant_under_canonicalization():
    x = RNG.standard_normal(4)
    lifted = kron_lift(x, 3)
    assert v_norm(lifted) == pytest.approx(v_norm(x), rel=1e-13)
    assert v_norm(canonicalize(lifted)) == pytest.approx(v_norm(x), rel=1e-13)


def test_v_dist_examples():
    b = [2, 0, -1, 3]
    c = [1, 2, -1, -2, 1]
    assert v_dist(b, c) == pytest.approx(1.7607, abs=5e-5)
    x = RNG.standard_normal(3)
    assert v_dist(x, kron_lift(x, 2)) == 0.0
    assert v_dist([1, 0], [0, 1]) == pytest.approx(1.0, rel=1e-15)


def test_v_dist_scales_euclidean_on_equal_dims():
    for _ in range(50):
        n = int(RNG.integers(1, 9))
        x, y = RNG.standard_normal(n), RNG.standard_normal(n)
        assert v_dist(x, y) * math.sqrt(n) == pytest.approx(
            np.linalg.norm(x - y), abs=1e-12
        )


def test_v_dist_triangle_inequality_mixed_dims():
    for _ in range(1000):
        dims = RNG.integers(1, 7, size=3)
        x, y, z = (RNG.standard_normal(d) for d in dims)
        assert v_dist(x, z) <= v_dist(x, y) + v_dist(y, z) + 1e-12


# ----------------------------------------------------------------------- angle

def test_angle_of_parallel_and_orthogonal():
    x = RNG.standard_normal(4)
    assert angle(x, x) == pytest.approx(0.0, abs=1e-7)
    assert angle([1, 0], [0, 1]) == pytest.approx(math.pi / 2, rel=1e-15)


def test_angle_rejects_zero_vectors():
    with pytest.raises(ValueError):
        angle([0.0, 0.0], [1.0, 2.0])


def test_angle_clamps_cosine():
    x = np.array([1.0, 2.0, 3.0])
    assert angle(x, kron_lift(x, 7)) == pytest.approx(0.0, abs=1e-7)


# ------------------------------------------------------------------ projection

def test_projector_matrices():
    np.testing.assert_array_equal(
        projector(2, 4).matrix, [[1, 0], [1, 0], [0, 1], [0, 1]]
    )
    np.testing.assert_array_equal(
        projector(4, 2).matrix, [[0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5]]
    )
    np.testing.assert_array_equal(projector(3, 3).matrix, np.eye(3))


def test_projector_row_sums_are_one():
    for _ in range(30):
        n, m = (int(d) for d in RNG.integers(1, 13, size=2))
        np.testing.assert_allclose(
            projector(n, m).matrix.sum(axis=1), np.ones(m), atol=1e-12
        )


def test_project_examples():
    np.testing.assert_allclose(project([1, 2, 3, 4], 2), [1.5, 3.5], atol=1e-15)
    np.testing.assert_allclose(project([2, 1], 3), [2.0, 1.5, 1.0], atol=1e-15)
    x = RNG.standard_normal(5)
    np.testing.assert_array_equal(project(x, 5), x)


def test_projection_consistent_under_replication():
    for _ in range(40):
        m = int(RNG.integers(1, 7))
        x = RNG.standard_normal(m)
        for k in (2, 3, 4):
            for t in range(1, 9):
                np.testing.assert_allclose(
                    project(kron_lift(x, k), t), project(x, t), atol=1e-12
                )


def test_projection_well_defined_on_classes():
    for _ in range(20):
        z = RNG.standard_normal(int(RNG.integers(1, 5)))
        x, y = kron_lift(z, 2), kron_lift(z, 3)
        assert equivalent(x, y)
        for t in range(1, 9):
            np.testing.assert_allclose(project(x, t), project(y, t), atol=1e-12)


def test_projection_orthogonality_and_pythagoras():
    for _ in range(50):
        n = int(RNG.integers(1, 9))
        m = int(RNG.integers(1, 9))
        xi = RNG.standard_normal(n)
        x0 = project(xi, m)
        residual = stp_sub(xi, x0)
        assert abs(v_inner(residual, x0)) <= 1e-9
        assert v_norm(xi) ** 2 == pytest.approx(
            v_norm(residual) ** 2 + v_norm(x0) ** 2, abs=1e-9
        )


def test_projection_is_argmin():
    n, m = 6, 4
    xi = RNG.standard_normal(n)
    x0 = project(xi, m)
    best = v_dist(xi, x0)
    for _ in range(100):
        z = RNG.standard_normal(m)
        assert best <= v_dist(xi, z) + 1e-12


def test_projector_validates_dims():
    with pytest.raises(ValueError):
        projector(0, 3)
    with pytest.raises(ValueError):
        projector(2, 3)(np.ones(5))


# --------------------------------------------------------------------- lattice

def test_lattice_closure_of_coprime_generators():
    lat = build_lattice({2, 3, 5})
    # lcm closure of the generators plus the forced bottom gcd node
    assert lat.dims == frozenset({1, 2, 3, 5, 6, 10, 15, 30})
    assert frozenset({2, 3, 5, 6, 10, 15, 30}) < lat.dims


def test_lattice_sup_inf():
    lat = build_lattice({2, 3, 4, 6})
    assert lat.sup(2, 3) == 6
    assert lat.inf(4, 6) == 2
    with pytest.raises(ValueError):
        lat.sup(5, 2)


def test_lattice_singleton():
    lat = build_lattice({7})
    assert lat.dims == frozenset({7})
    assert lat.hasse_edges() == []


def test_lattice_covering_edges():
    lat = build_lattice({2, 3, 5})
    edges = set(lat.hasse_edges())
    assert (2, 6) in edges and (6, 30) in edges
    assert (2, 30) not in edges  # 6 and 10 sit between
    for a, b in edges:
        assert b % a == 0 and a != b


def test_lattice_laws():
    lat = build_lattice({2, 3, 4, 9})
    nodes = sorted(lat.dims)
    for _ in range(200):
        a, b, c = (nodes[i] for i in RNG.integers(0, len(nodes), size=3))
        assert lat.sup(a, b) == lat.sup(b, a)
        assert lat.inf(a, b) == lat.inf(b, a)
        assert lat.sup(a, lat.sup(b, c)) == lat.sup(lat.sup(a, b), c)
        assert lat.inf(a, lat.inf(b, c)) == lat.inf(lat.inf(a, b), c)
        assert lat.sup(a, lat.inf(a, b)) == a
        assert lat.inf(a, lat.sup(a, b)) == a


def test_lattice_node_count_is_capped():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    assert len(build_lattice(primes[:8]).dims) == MAX_LATTICE_NODES == 256
    with pytest.raises(ValueError, match="exceeds 256 nodes"):
        build_lattice(primes)
    with pytest.raises(ValueError, match="exceeds 256 nodes"):
        build_lattice(range(1, 300))


def test_lattice_closed_under_sup_inf():
    lat = build_lattice({4, 6, 9})
    for a in lat.dims:
        for b in lat.dims:
            assert lat.sup(a, b) in lat.dims
            assert lat.inf(a, b) in lat.dims
