import math

import numpy as np
import pytest

from crossdim.analysis import (
    aggregate_run,
    approx_error,
    controllability_report,
    ctrb_rank,
    intersection_basis,
    obs_rank,
    partial_ctrb,
    reachability_chain,
    reduce_model,
    restrict_field,
    span_membership,
)
from crossdim.cdspace import equivalent, kron_lift
from crossdim.dkstp import bridge
from crossdim.dynamics import DvSystem, Mode
from crossdim.registry import get_field, get_span_basis

RNG = np.random.default_rng(31)

CHAIN3_A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
CHAIN3_B = np.array([[0.0], [0.0], [1.0]])
STEER_A = np.array([[1.5, 0.5], [-0.5, 0.5]])
STEER_B = np.array([[0.5], [-0.5]])


def steering_system():
    return DvSystem(
        (
            Mode("planar", 2, STEER_A, inputs=STEER_B),
            Mode("chain3", 3, CHAIN3_A, inputs=CHAIN3_B),
        )
    )


# ------------------------------------------------------------------ rank tests

def test_ctrb_rank_integrator_chain():
    assert ctrb_rank(CHAIN3_A, CHAIN3_B) == 3


def test_ctrb_rank_degenerate_inputs():
    A = RNG.standard_normal((4, 4))
    assert ctrb_rank(A, np.zeros((4, 1))) == 0
    assert ctrb_rank(np.zeros((4, 4)), np.eye(4)) == 4


def test_obs_rank_basic():
    A = RNG.standard_normal((4, 4))
    assert obs_rank(A, np.eye(4)) == 4
    assert obs_rank(A, np.zeros((1, 4))) == 0


def test_obs_rank_through_bridge_output():
    # scalar output summed over a nominal dimension 2, mode dimension 3
    H = np.array([[1.0, 1.0]])
    C = H @ bridge(2, 3)
    np.testing.assert_allclose(C, [[2 / 3, 2 / 3, 2 / 3]], atol=1e-15)
    assert obs_rank(np.diag([1.0, 2.0, 3.0]), C) == 3


def test_ranks_agree_with_pbh_oracle():
    # PBH: rank [lambda I - A, B] = n at every eigenvalue iff controllable
    for _ in range(200):
        n = int(RNG.integers(1, 7))
        k = int(RNG.integers(1, 3))
        A = RNG.standard_normal((n, n))
        B = RNG.standard_normal((n, k))
        kalman_full = ctrb_rank(A, B) == n
        pbh_full = all(
            np.linalg.matrix_rank(np.hstack([lam * np.eye(n) - A, B]), tol=1e-8) == n
            for lam in np.linalg.eigvals(A)
        )
        assert kalman_full == pbh_full


# ---------------------------------------------------------- intersection basis

def test_intersection_basis_examples():
    np.testing.assert_array_equal(
        intersection_basis(4, 6), [[1, 0], [1, 0], [0, 1], [0, 1]]
    )
    np.testing.assert_array_equal(intersection_basis(2, 3), [[1], [1]])
    np.testing.assert_array_equal(intersection_basis(5, 5), np.eye(5))


def test_intersection_basis_vectors_reduce_to_gcd_dim():
    for m, n in ((4, 6), (6, 9), (8, 12)):
        basis = intersection_basis(m, n)
        g = math.gcd(m, n)
        for j in range(g):
            assert equivalent(basis[:, j], np.eye(g)[:, j])


# ---------------------------------------------------------------- partial_ctrb

def test_partial_ctrb_on_the_replicated_line():
    S = intersection_basis(2, 3)
    assert partial_ctrb(STEER_A, STEER_B, S)


def test_partial_ctrb_trivial_cases():
    # inputs spanning the complement of the subspace, no drift
    S = np.array([[1.0], [1.0]])
    B = np.array([[1.0], [-1.0]])
    assert partial_ctrb(np.zeros((2, 2)), B, S)
    assert not partial_ctrb(np.zeros((2, 2)), np.zeros((2, 1)), S)


def test_partial_ctrb_empty_subspace_is_full_test():
    for _ in range(20):
        n = int(RNG.integers(1, 6))
        A = RNG.standard_normal((n, n))
        B = RNG.standard_normal((n, 1))
        empty = np.zeros((n, 0))
        assert partial_ctrb(A, B, empty) == (ctrb_rank(A, B) == n)


def test_partial_ctrb_rejects_dependent_basis():
    S = np.array([[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        partial_ctrb(np.zeros((2, 2)), np.eye(2), S)


def test_controllability_report():
    rep = controllability_report(steering_system().modes[1])
    assert rep.kalman_rank == 3 and rep.fully_controllable
    rep2 = controllability_report(
        steering_system().modes[0], subspace_basis=intersection_basis(2, 3)
    )
    assert rep2.partially_controllable and rep2.subspace_dim == 1


# ---------------------------------------------------------- reachability chain

def test_reachability_chain_two_stage():
    assert reachability_chain(steering_system(), 0, 1) == [0, 1]


def test_reachability_chain_single_node():
    system = DvSystem((Mode("chain3", 3, CHAIN3_A, inputs=CHAIN3_B),))
    assert reachability_chain(system, 0, 0) == [0]


def test_reachability_chain_without_actuation():
    system = DvSystem(
        (Mode("a", 2, np.eye(2)), Mode("b", 3, np.eye(3)))
    )
    assert reachability_chain(system, 0, 1) is None


def test_reachability_chain_respects_explicit_pairs():
    # only 1 -> 0 declared, so 0 -> 1 is unreachable
    from crossdim.switching import nearest_map

    modes = (
        Mode("planar", 2, STEER_A, inputs=STEER_B),
        Mode("chain3", 3, CHAIN3_A, inputs=CHAIN3_B),
    )
    system = DvSystem(modes, transitions={(1, 0): nearest_map(3, 2)})
    assert reachability_chain(system, 0, 1) is None


# ---------------------------------------------------------------- reduce_model

def test_reduce_model_scalar_matrix_commutes():
    for m in (1, 2, 3, 5, 6):
        red = reduce_model(3.5 * np.eye(6), m=m)
        np.testing.assert_allclose(red.A_pi, 3.5 * np.eye(m), atol=1e-12)


def test_reduce_model_scalar_matrix_expanding_branch():
    # expanding yields 3.5 times the projector onto the replicated subspace,
    # which acts as 3.5 I on every reachable (projected) state
    red = reduce_model(3.5 * np.eye(6), m=8)
    P = bridge(8, 6)
    np.testing.assert_allclose(
        red.A_pi, 3.5 * P @ np.linalg.inv(P.T @ P) @ P.T, atol=1e-12
    )
    z = P @ RNG.standard_normal(6)
    np.testing.assert_allclose(red.A_pi @ z, 3.5 * z, atol=1e-12)


def test_reduce_model_identity_when_same_dim():
    A = RNG.standard_normal((4, 4))
    red = reduce_model(A, m=4)
    np.testing.assert_allclose(red.A_pi, A, atol=1e-12)
    # both normal-equation branches coincide at n = m
    P = bridge(4, 4)
    compress = P @ A @ P.T @ np.linalg.inv(P @ P.T)
    expand = P @ A @ np.linalg.inv(P.T @ P) @ P.T
    np.testing.assert_allclose(compress, expand, atol=1e-12)
    np.testing.assert_allclose(red.A_pi, compress, atol=1e-12)


def test_reduce_model_shift_block():
    red = reduce_model(np.array([[0.0, 1.0], [0.0, 0.0]]), m=1)
    np.testing.assert_allclose(red.A_pi, [[0.5]], atol=1e-14)


def test_reduce_model_branches_against_direct_formula():
    n = 6
    A = RNG.standard_normal((n, n))
    B = RNG.standard_normal((n, 2))
    C = RNG.standard_normal((1, n))
    for m in (3, 4, 8, 9):
        red = reduce_model(A, B, C, m)
        P = bridge(m, n)
        if n >= m:
            A_ref = P @ A @ P.T @ np.linalg.inv(P @ P.T)
            C_ref = C @ P.T @ np.linalg.inv(P @ P.T)
        else:
            A_ref = P @ A @ np.linalg.inv(P.T @ P) @ P.T
            C_ref = C @ np.linalg.inv(P.T @ P) @ P.T
        np.testing.assert_allclose(red.A_pi, A_ref, atol=1e-10)
        np.testing.assert_allclose(red.B_pi, P @ B, atol=1e-12)
        np.testing.assert_allclose(red.C_pi, C_ref, atol=1e-10)


def test_reduce_model_validates():
    with pytest.raises(ValueError):
        reduce_model(np.ones((2, 3)), m=1)
    with pytest.raises(ValueError):
        reduce_model(np.eye(2), m=0)


# ----------------------------------------------------------------- approx_error

def test_approx_error_lossless_for_replicated_flow():
    n = 10
    A = 0.001 * np.eye(n)
    x0 = 500.0 * np.ones(n)
    for m in (9, 11):
        series = approx_error(A, x0, m, range(1, 101))
        assert series.max() <= 1e-10


def eig_flows(A, x0, times):
    """Columns e^{tA} x0, one per time, as V diag(e^{lambda t}) V^-1 x0."""
    lam, V = np.linalg.eig(A)
    ts = np.asarray(times, dtype=float)
    return (V @ (np.exp(np.outer(lam, ts)) * np.linalg.solve(V, x0)[:, None])).real


def eig_reduction_error(A, x0, m, times):
    """approx_error's series, with both flows taken by eigendecomposition."""
    n = A.shape[0]
    full = eig_flows(A, x0, times)
    reduced = eig_flows(reduce_model(A, m=m).A_pi, bridge(m, n) @ x0, times)
    lifted = bridge(n, m) @ reduced
    return np.linalg.norm(lifted - full, axis=0) / np.linalg.norm(full, axis=0)


def test_approx_error_graded_decay_bounded():
    n = 10
    A = -0.001 * np.diag(np.arange(1.0, n + 1))
    x0 = 500.0 * np.ones(n)
    for m in (9, 7, 5):
        series = approx_error(A, x0, m, range(1, 101))
        assert series.max() <= 0.05
        # independent eigendecomposition oracle
        oracle = eig_reduction_error(A, x0, m, range(1, 101))
        np.testing.assert_allclose(series.values, oracle, atol=1e-9)


def test_approx_error_zero_at_same_dim():
    A = RNG.standard_normal((4, 4)) * 0.1
    x0 = RNG.standard_normal(4)
    series = approx_error(A, x0, 4, [1.0, 2.0, 3.0])
    assert series.max() <= 1e-12


def test_approx_error_invariant_under_lifting():
    # invariance of the error series needs the target dimension to divide
    # the source (the reduction projectors then replicate consistently)
    n, m = 4, 2
    A = -0.2 * np.eye(n) + 0.05 * RNG.standard_normal((n, n))
    x0 = RNG.standard_normal(n)
    base = approx_error(A, x0, m, [1.0, 2.0, 5.0])
    for k in (2, 3):
        up = bridge(k * n, n)
        down = bridge(n, k * n)
        A_lift = up @ A @ down
        lifted = approx_error(A_lift, kron_lift(x0, k), m, [1.0, 2.0, 5.0])
        np.testing.assert_allclose(base.values, lifted.values, atol=1e-9)


def test_approx_error_flags_vanishing_reference():
    A = np.zeros((2, 2))
    series = approx_error(A, np.zeros(2), 1, [1.0])
    assert math.isnan(series.values[0])


# --------------------------------------------------------------- restrict_field

def test_restrict_field_of_disturbance_to_plane_vanishes():
    dim, xi = get_field("ddp_disturbance6")
    restricted = restrict_field(xi, dim, 2)
    for _ in range(100):
        x = RNG.standard_normal(2)
        assert np.linalg.norm(restricted(x)) <= 1e-9


def test_restrict_field_of_disturbance_to_three_dims():
    dim, xi = get_field("ddp_disturbance6")
    restricted = restrict_field(xi, dim, 3)
    for _ in range(100):
        z = RNG.standard_normal(3)
        expected = 0.5 * np.array([0.0, -1.0 - z[0], 1.0 + z[0]])
        np.testing.assert_allclose(restricted(z), expected, atol=1e-9)


def test_restrict_field_same_dim_is_identity():
    dim, xi = get_field("ddp_disturbance6")
    assert restrict_field(xi, dim, dim) is xi


# -------------------------------------------------------------- span_membership

def test_span_membership_of_restricted_disturbance():
    dim, xi = get_field("ddp_disturbance6")
    restricted = restrict_field(xi, dim, 3)
    _, basis = get_span_basis("ddp3_invariant")
    for _ in range(100):
        z = RNG.standard_normal(3)
        assert span_membership(restricted, basis, z)


def test_span_membership_trivial_cases():
    zero = lambda x: np.zeros(2)
    e2 = lambda x: np.array([0.0, 1.0])
    assert span_membership(zero, [e2], np.zeros(2))
    e1 = lambda x: np.array([1.0, 0.0])
    assert not span_membership(e1, [e2], np.zeros(2))


def test_span_membership_rejects_dependent_basis():
    b = lambda x: np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        span_membership(b, [b, b], np.zeros(2))


# ---------------------------------------------------------------- aggregate_run

def test_aggregate_run_identical_systems():
    A = -0.3 * np.eye(3)
    nominal = Mode("nom", 3, A)
    member = Mode("mem", 3, A)
    result = aggregate_run(nominal, member, np.array([1.0, 2.0, 3.0]), 2.0, 0.01)
    assert result.errors.max() <= 1e-9


def test_aggregate_run_matches_reduction_error():
    n, m = 6, 4
    A = -0.1 * np.eye(n) + 0.02 * RNG.standard_normal((n, n))
    x0 = RNG.standard_normal(n)
    red = reduce_model(A, m=m)
    nominal = Mode("nom", m, red.A_pi)
    member = Mode("mem", n, A)
    result = aggregate_run(nominal, member, x0, 2.0, 0.05)
    series = approx_error(A, x0, m, result.times)
    np.testing.assert_allclose(result.errors.values, series.values, atol=1e-9)


def test_aggregate_run_handles_foreign_start():
    nominal = Mode("nom", 2, -0.5 * np.eye(2))
    member = Mode("mem", 3, -0.5 * np.eye(3))
    result = aggregate_run(nominal, member, np.array([1.0, -2.0, 0.5]), 1.0, 0.05)
    assert np.all(np.isfinite(result.errors.values))
