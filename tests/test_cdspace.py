import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossdim.cdspace import (
    MAX_LATTICE_NODES,
    angle,
    as_entries,
    build_lattice,
    canonicalize,
    equivalent,
    kron_lift,
    project,
    stp_add,
    stp_sub,
    v_dist,
    v_inner,
    v_norm,
    v_norm_rows,
)
from crossdim.dkstp import _overlaps, bridge
from crossdim.errors import NumericFailure

RNG = np.random.default_rng(42)


# ---------------------------------------------------------------- canonicalize

def test_canonicalize_reduces_constant_blocks():
    np.testing.assert_array_equal(canonicalize([1, 1, 2, 2]), [1.0, 2.0])


def test_canonicalize_keeps_irreducible_vectors():
    np.testing.assert_array_equal(canonicalize([1, 2, 3]), [1.0, 2.0, 3.0])


def test_canonicalize_constant_vector():
    out = canonicalize([7.0] * 6)
    assert out.size == 1
    assert out[0] == 7.0


def test_canonicalize_validates():
    with pytest.raises(ValueError):
        canonicalize([])
    with pytest.raises(ValueError):
        canonicalize([1.0, math.inf])


def test_canonicalize_tolerance_uses_block_means():
    eps = 1e-12
    out = canonicalize([1.0, 1.0 + eps, 2.0, 2.0 - eps])
    assert out.size == 2
    np.testing.assert_allclose(out, [1.0 + eps / 2, 2.0 - eps / 2], rtol=1e-15)
    # well-separated blocks survive
    assert canonicalize([1.0, 1.0 + 1e-3, 2.0, 2.0]).size == 4


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=4),
)
def test_canonicalize_idempotent_and_equivalent(base, k):
    v = np.repeat(np.asarray(base, dtype=float), k)
    once = canonicalize(v)
    twice = canonicalize(once)
    np.testing.assert_array_equal(once, twice)
    assert v.size % once.size == 0
    assert equivalent(v, once)


@pytest.mark.parametrize("v", [[1.0, 2.0, 3.0], [1.0, 1.0, 2.0, 2.0], [5.0, 5.0]])
def test_canonicalize_returns_a_new_array(v):
    # an irreducible input and a block's first column would otherwise come back
    a = np.array(v)
    out = canonicalize(a)
    assert not np.shares_memory(out, a)
    out[0] = -1.0
    assert a.tolist() == v


def divisor_walk(a: np.ndarray) -> np.ndarray:
    """The exact reduction of ``a`` as a walk over the blocks of every
    proper divisor: the reference of :func:`canonicalize` on exact blocks."""
    n = a.size
    for d in range(1, n):
        if n % d == 0:
            blocks = a.reshape(d, n // d)
            if (blocks == blocks[:, :1]).all():
                return blocks[:, 0]
    return a


def test_the_exact_reduction_step_is_the_divisor_walk():
    # small integer entries make ties and repeats common; a perturbed entry
    # usually leaves the vector irreducible, and no two entries lie within
    # the tolerance unless they are equal
    rng = np.random.default_rng(3311)
    vectors = [np.array(v) for v in ([1.0], [0.0, -0.0], [1.0, 1.0, 2.0], [1.0, 2.0, 1.0, 2.0])]
    for _ in range(3000):
        base = rng.integers(-2, 3, size=int(rng.integers(1, 7))).astype(float)
        v = np.repeat(base, int(rng.integers(1, 5)))
        kind = rng.integers(3)
        if kind == 1:
            v[rng.integers(v.size)] = rng.standard_normal()
        elif kind == 2 and v.size > 1:
            v[1] = v[0]
        vectors.append(v)
    seen = set()
    for v in vectors:
        want, got = divisor_walk(v), canonicalize(v)
        assert got.tobytes() == want.tobytes(), v
        if want.size < v.size:
            seen.add("reducible")
        else:
            seen.add("tied first pair" if v.size > 1 and v[0] == v[1] else "irreducible")
    assert seen == {"reducible", "tied first pair", "irreducible"}


@pytest.mark.parametrize("kind", ["blocks within the tolerance", "random"])
def test_canonicalize_does_not_depend_on_scale(kind):
    # a power-of-two scale is exact, so the reduced dimension stays the
    # same up to the float max, where a block sum overflows
    rng = np.random.default_rng(3512)
    for _ in range(200):
        base = 1.0 + rng.random(int(rng.integers(1, 5)))
        v = np.repeat(base, int(rng.integers(2, 5)))
        if kind == "random":
            v = v * (1.0 + rng.random(v.size))
        else:
            v = v * (1.0 + 1e-12 * rng.standard_normal(v.size))
        dim = canonicalize(v).size
        assert (dim < v.size) == (kind != "random")
        top = int(np.log2(np.finfo(float).max / np.abs(v).max()))
        for k in range(0, top + 1, 64):
            assert canonicalize(2.0**k * v).size == dim, (v, k)
        assert canonicalize(2.0**top * v).size == dim, (v, top)
    assert canonicalize([1e308, 1.000000000001e308]).size == 1


def test_canonicalize_keeps_exact_blocks_bit_for_bit():
    # a repeated entry is returned as it is, not as its block's float mean,
    # which differs from it in the last bit for about a quarter of them
    rng = np.random.default_rng(3610)
    differs = 0
    for k in (3, 5, 6, 7):
        for _ in range(50):
            v = rng.standard_normal(4)
            lifted = np.repeat(v, k)
            differs += (lifted.reshape(4, k).mean(axis=1) != v).any()
            assert canonicalize(lifted).tobytes() == v.tobytes(), (v, k)
    assert canonicalize(np.repeat([0.1], 3)).tobytes() == np.array([0.1]).tobytes()
    assert np.mean([0.1, 0.1, 0.1]) != 0.1 and differs > 0


def test_an_overflowing_block_mean_is_rescaled_to_within_an_ulp():
    a, b = 1e308, 1.000000000001e308  # a + b overflows
    exact = (Fraction(a) + Fraction(b)) / 2
    (got,) = canonicalize([a, b])
    assert abs(Fraction(got) - exact) <= np.spacing(float(exact))


def test_as_entries_reads_a_scalar_as_a_one_vector():
    np.testing.assert_array_equal(as_entries(3.0), [3.0])
    assert as_entries(3.0).shape == (1,)


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
    np.testing.assert_array_equal(out, [2, 2, 3, 4, 5, 5])


def test_stp_add_zero_class():
    x = np.array([3.0, -1.0])
    out = stp_add(x, np.zeros(5))
    assert equivalent(out, x)


def test_stp_add_doubles():
    x = np.array([0.3, 1.7, -2.2])
    assert equivalent(stp_add(x, x), 2 * x)


def test_stp_add_and_stp_sub_are_the_lifts_of_the_given_vectors():
    # bit for bit the np.repeat lifts to lcm(n, m), exactly reducible
    # operands included: nothing reduces before it lifts
    rng = np.random.default_rng(3535)
    for _ in range(2000):
        x, y = (np.repeat(rng.standard_normal(int(rng.integers(1, 7))), int(rng.integers(1, 3)))
                for _ in range(2))
        t = math.lcm(x.size, y.size)
        lx, ly = np.repeat(x, t // x.size), np.repeat(y, t // y.size)
        assert stp_add(x, y).tobytes() == (lx + ly).tobytes()
        assert stp_sub(x, y).tobytes() == (lx - ly).tobytes()
    assert stp_add([1.0, 1.0], [2.0, 2.0, 2.0]).tolist() == [3.0] * 6


def test_stp_overflow_is_a_numeric_failure():
    # finite inputs whose sum or difference is not finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailure, match="operation=stp_sub"):
            stp_sub([1e308], [-1e308])
        with pytest.raises(NumericFailure, match="operation=stp_add"):
            stp_add([1e308, 1e308], [1e308])
        with pytest.raises(NumericFailure, match="operation=stp_sub"):
            v_dist([1e308], [-1e308])
    assert stp_add([1e308], [-1e308]).tolist() == [0.0]


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


def test_v_norm_neither_overflows_nor_underflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert v_norm([1e200, 1e200]) == 1e200
        assert v_norm([1e-200]) == 1e-200
        assert v_norm([5e-324, 0.0]) > 0.0
        assert v_norm([1.7e308, -1.7e308, 1.7e308]) == pytest.approx(1.7e308, rel=1e-15)
        assert angle([1e-200], [1.0]) == 0.0
        rows = v_norm_rows(np.array([[1e300, 1e300], [3.0, 4.0], [0.0, 0.0], [1e-170, 0.0]]))
    assert rows.tolist() == [1e300, v_norm([3.0, 4.0]), 0.0, 1e-170 / math.sqrt(2)]


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(finite_floats, min_size=n, max_size=n), min_size=1, max_size=6
        )
    )
)
def test_v_norm_rows_equal_one_row_calls(rows):
    S = np.array(rows, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = v_norm_rows(S)
        assert norms.tobytes() == np.array([v_norm(x) for x in S]).tobytes()
    # ||x||_2 / sqrt(n) lies between max|x| / sqrt(n) and max|x|
    top = np.abs(S).max(axis=1)
    slack = 1e-12 * top + 1e-323
    assert np.isfinite(norms).all()
    assert ((norms > 0) == S.any(axis=1)).all()
    assert (norms - top <= slack).all()
    assert (top / math.sqrt(S.shape[1]) - norms <= slack).all()


#: Entries whose squares overflow, fall below the least normal float or
#: into the subnormals, or neither.
extreme_floats = st.builds(
    lambda scale, mantissa, sign: sign * scale * mantissa,
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-200, 1e-160, 1e-154, 1.0, 1e154, 1e160, 1e200]),
    st.floats(1.0, 9.99),
    st.sampled_from([1.0, -1.0]),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.one_of(extreme_floats, finite_floats), min_size=1, max_size=20))
@example([0.0])
@example([0.0] * 20)
@example([5e-324, -5e-324, 0.0])
@example([1e200, -1e200, 1e-200])
def test_v_norm_is_the_row_kernel_bit_for_bit(x):
    a = np.array(x, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one, rows = v_norm(a), v_norm_rows(a[None])
    assert np.float64(one).tobytes() == rows[0].tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 10, 12, 16, 20])
def test_v_norm_is_the_row_kernel_on_random_rows(n):
    # rows of one magnitude from 1e-200 to 1e200, every 7th spread over
    # ten decades within the row
    rng = np.random.default_rng(n)
    S = rng.standard_normal((2000, n)) * 10.0 ** rng.integers(-200, 201, (2000, 1))
    S[::7] *= 10.0 ** rng.integers(-5, 6, (len(S[::7]), n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = np.array([v_norm(x) for x in S])
        assert one.tobytes() == v_norm_rows(S).tobytes()


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


def lift_reference(x, y):
    """v_inner(x, y) and v_dist(x, y)^2, exactly, by definition: the sums
    over the lifts of x and y to t = lcm(n, m), divided by t."""
    n, m = len(x), len(y)
    t = math.lcm(n, m)
    lx = [Fraction(x[k // (t // n)]) for k in range(t)]
    ly = [Fraction(y[k // (t // m)]) for k in range(t)]
    inner = sum(a * b for a, b in zip(lx, ly)) / t
    squared = sum((a - b) ** 2 for a, b in zip(lx, ly)) / t
    return inner, squared


def test_v_dist_and_v_inner_match_the_lcm_lift():
    # Bound: v_dist within 2 ulp of its value, v_inner within 1 ulp of
    # ||x|| ||y|| (the inner product may cancel).  The worst cases over these
    # seeds are 1.06 and 0.38 ulp; summing over the lcm lift reaches 2.4 and 0.86.
    rng = np.random.default_rng(2024)
    ulp = 2.0**-52
    for _ in range(100):
        n, m = (int(d) for d in rng.integers(1, 60, size=2))
        x, y = rng.standard_normal(n).tolist(), rng.standard_normal(m).tolist()
        inner, squared = lift_reference(x, y)
        d = Fraction(v_dist(x, y))
        # |d^2 - s| / 2s is d's relative error to first order
        assert abs(d * d - squared) / (2 * squared) <= 2 * ulp, (n, m)
        scale = v_norm(x) * v_norm(y)
        assert abs(Fraction(v_inner(x, y)) - inner) <= ulp * scale, (n, m)


def test_v_dist_does_not_build_the_lcm_lift():
    # the lifts to t = 1999000 would hold 16 MB each; the 2998 shared
    # pieces take a few tens of kB
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal(1999), rng.standard_normal(1000)
    _overlaps.cache_clear()
    tracemalloc.start()
    try:
        v_dist(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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


def test_angle_neither_overflows_nor_underflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert angle([1e200], [1e200]) == 0.0
        assert angle([1e-200], [1e-200]) == 0.0
        assert angle([1e200, 1e200], [1e200]) == 0.0
        assert angle([1e200], [-1e-200]) == math.pi


# ------------------------------------------------------------------ projection

def test_projector_matrices():
    np.testing.assert_array_equal(
        bridge(4, 2), [[1, 0], [1, 0], [0, 1], [0, 1]]
    )
    np.testing.assert_array_equal(
        bridge(2, 4), [[0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5]]
    )
    np.testing.assert_array_equal(bridge(3, 3), np.eye(3))


def test_projector_row_sums_are_one():
    for _ in range(30):
        n, m = (int(d) for d in RNG.integers(1, 13, size=2))
        np.testing.assert_allclose(
            bridge(m, n).sum(axis=1), np.ones(m), atol=1e-12
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
        bridge(3, 0)


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


def test_lattice_membership():
    lat = build_lattice([2, 3])
    assert 2 in lat and 6 in lat and 1 in lat
    assert 4 not in lat


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


# ------------------------------------------------------ library argument checks

@pytest.mark.parametrize("call, message", [
    (lambda: kron_lift([1.0, 2.0], 0), "replication factor must be >= 1"),
    (lambda: build_lattice([]), "dims must be nonempty"),
    (lambda: build_lattice([2, 0]), "dims must be positive integers"),
])
def test_argument_checks_raise_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
