import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdim import analysis, dynamics
from crossdim.analysis import (
    ControllabilityReport,
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
from crossdim.cdspace import equivalent, kron_lift, project, v_norm
from crossdim.cli import main
from crossdim.config import load_scenario
from crossdim.dkstp import bridge
from crossdim.dynamics import DvSystem, Mode
from crossdim.errors import NumericFailure
from crossdim.registry import SPAN_BASES
from testkit import SCENARIO_DIR, eig_reduction_error, get_field

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


def hidden_pair(rng, n: int, r: int, m: int):
    """A random pair (A, B) whose inputs reach exactly r of its n dimensions:
    block-triangular A and B zero below row r, in a random orthogonal basis."""
    A = rng.standard_normal((n, n))
    A[r:, :r] = 0.0
    B = np.zeros((n, m))
    B[:r] = rng.standard_normal((r, m))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q @ A @ Q.T, Q @ B


def test_ctrb_rank_of_a_controllable_diagonal_pair():
    # distinct eigenvalues and every b_i != 0: controllable by PBH, while the
    # Kalman columns A^k b grow like n^k and bury the late directions
    for n in (10, 12, 16, 24):
        A = np.diag(np.arange(1.0, n + 1))
        assert ctrb_rank(A, np.ones(n)) == n
        assert obs_rank(A, np.ones(n)) == n


def test_ctrb_rank_of_a_scaled_generic_pair():
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((8, 8)), rng.standard_normal((8, 1))
    assert ctrb_rank(1e3 * A, B) == 8
    assert obs_rank(1e3 * A.T, B.T) == 8


def test_ctrb_rank_of_hidden_uncontrollable_pairs():
    rng = np.random.default_rng(5)
    for n in (6, 12):
        A, B = hidden_pair(rng, n, n // 2, 1)
        assert ctrb_rank(A, B) == n // 2
        assert obs_rank(A.T, B.T) == n // 2
        assert not partial_ctrb(A, B, np.zeros((n, 0)))


# finite entries whose 2-norm, A @ B and A^T A all overflow
HUGE = np.full((2, 2), 1e308)


def test_ranks_of_a_drift_whose_norm_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ctrb_rank(HUGE, [1.0, 0.0]) == 2  # A B is a multiple of [1, 1]
        assert obs_rank(HUGE, [[1.0, 0.0]]) == 2
        assert obs_rank(HUGE, [[1.0, 1.0]]) == 1  # [1, 1] A is a multiple of [1, 1]


@st.composite
def pairs(draw):
    n = draw(st.integers(1, 8))
    return n, draw(st.integers(0, n)), draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(pairs(), st.integers(-20, 20), st.integers(-40, 40))
def test_ranks_ignore_scale_and_orthogonal_basis(pair, k, j):
    # powers of two scale exactly, so every rank decision must come out the same
    n, r, m, seed = pair
    rng = np.random.default_rng(seed)
    A, B = hidden_pair(rng, n, r, m)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    C = B.T
    assert ctrb_rank(A, B) == r
    assert ctrb_rank(2.0**k * A, B) == r
    assert ctrb_rank(A, 2.0**j * B) == r
    assert ctrb_rank(Q @ A @ Q.T, Q @ B) == r
    assert obs_rank(A.T, C) == r
    assert obs_rank(2.0**k * A.T, C) == r
    assert obs_rank(A.T, 2.0**j * C) == r
    assert obs_rank(Q @ A.T @ Q.T, C @ Q.T) == r


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


def test_partial_ctrb_when_the_inputs_reach_only_the_subspace():
    # B = (1, 1) is an eigenvector of A: the controllable subspace is the
    # replicated line itself, so nothing transverse to it is reached.  The
    # projected Kalman matrix is rounding noise, which a rank cut relative to
    # its own largest pivot used to count as rank 1.
    A = np.array([[-1.0, 0.0], [1.0, -2.0]])
    assert not partial_ctrb(A, np.ones(2), intersection_basis(2, 5))


def test_partial_ctrb_rejects_dependent_basis():
    S = np.array([[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        partial_ctrb(np.zeros((2, 2)), np.eye(2), S)


def test_controllability_report():
    rep = controllability_report(steering_system().modes[1])
    assert rep == ControllabilityReport("chain3", 3, 3, True)
    # the planar mode is controllable only transverse to the replicated line,
    # which test_partial_ctrb_on_the_replicated_line checks with partial_ctrb
    rep2 = controllability_report(steering_system().modes[0])
    assert rep2 == ControllabilityReport("planar", 2, 1, False)


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


def test_reachability_chain_passes_through_an_intermediate_mode():
    # the only declared switches are 0 -> 1 and 1 -> 2, so the search must
    # carry mode 1 into its next frontier to reach 2
    from crossdim.switching import nearest_map

    modes = (
        Mode("chain3", 3, CHAIN3_A, inputs=CHAIN3_B),
        Mode("double2", 2, np.array([[0.0, 1.0], [0.0, 0.0]]), inputs=np.array([[0.0], [1.0]])),
        Mode("chain3b", 3, CHAIN3_A, inputs=CHAIN3_B),
    )
    table = {(0, 1): nearest_map(3, 2), (1, 2): nearest_map(2, 3)}
    assert reachability_chain(DvSystem(modes, transitions=table), 0, 2) == [0, 1, 2]
    del table[(1, 2)]
    assert reachability_chain(DvSystem(modes, transitions=table), 0, 2) is None


def test_reachability_chain_computes_each_basis_once(monkeypatch):
    # an uncontrolled 3-dimensional start fails its edge to every other
    # dimension; its basis is still computed once, not once per edge
    dims = []
    basis = analysis._controllable_basis
    monkeypatch.setattr(
        analysis, "_controllable_basis", lambda A, B: dims.append(len(A)) or basis(A, B)
    )
    modes = (
        Mode("idle3", 3, np.eye(3)),
        Mode("planar", 2, STEER_A, inputs=STEER_B),
        Mode("idle4", 4, np.eye(4)),
        Mode("idle5", 5, np.eye(5)),
    )
    assert reachability_chain(DvSystem(modes), 0, 1) is None
    assert sorted(dims) == [2, 3, 4, 5]


@pytest.mark.parametrize(
    "mode",
    [
        Mode("channels", 2, STEER_A, inputs=(lambda x: np.ones(2),)),
        Mode("channel_list", 2, STEER_A, inputs=[lambda x: np.ones(2)]),
        Mode("field", 2, lambda x: -x, inputs=STEER_B),
    ],
    ids=["tuple", "list", "drift"],
)
def test_rank_analyses_require_a_linear_mode(mode):
    with pytest.raises(ValueError, match="requires a linear mode"):
        controllability_report(mode)
    system = DvSystem((Mode("chain3", 3, CHAIN3_A, inputs=CHAIN3_B), mode))
    with pytest.raises(ValueError, match="requires a linear mode"):
        reachability_chain(system, 0, 0)


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


def test_reduce_model_overflow_is_a_numeric_failure():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailure, match="operation=reduce_model") as exc:
            reduce_model(HUGE, m=1)  # the mean of the rows overflows
        with pytest.raises(NumericFailure, match="operation=reduce_model"):
            reduce_model(np.eye(2), C=HUGE, m=1)  # C P^+ sums the columns
    assert str(exc.value) == "reduced model overflowed (operation=reduce_model)"


def test_reduce_model_solve_failure_is_a_numeric_failure(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NumericFailure) as exc:
        reduce_model(np.eye(4), m=2)
    assert exc.value.operation == "reduce_model"
    assert str(exc.value) == "bridge Gram matrix is singular (operation=reduce_model)"
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


# ----------------------------------------------------------------- approx_error

def test_approx_error_lossless_for_replicated_flow():
    n = 10
    A = 0.001 * np.eye(n)
    x0 = 500.0 * np.ones(n)
    for m in (9, 11):
        series = approx_error(A, x0, m, range(1, 101))
        assert series.max() <= 1e-10


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


@pytest.mark.parametrize("times", [[0.0, math.nan], [math.inf], [0.0, 1.0, -math.inf]])
def test_approx_error_takes_finite_times(times):
    # not "state diverged": the fault is the argument, not the flow
    with pytest.raises(ValueError) as exc:
        approx_error(-np.eye(2), [1.0, 2.0], 1, times)
    assert str(exc.value) == "times must be finite"


# ------------------------------------- approx_error against a per-point loop

SWEEP = SCENARIO_DIR / "reduction_sweep.json"


def point_errors(A, x0, m_values, times):
    """The reduction errors one time point at a time, straight from scipy:
    two exponentials, a lift and two norms per (t, m), in the order t, then
    m.  The first time at which ``v_norm`` refuses a state or a gap that
    overflowed (an exponential that overflowed gives one) raises there."""
    A = np.asarray(A, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    models = [(reduce_model(A, m=m).A_pi, project(x0, m), bridge(len(A), m)) for m in m_values]
    cols = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in times:
            x_t = scipy.linalg.expm(A * float(t)) @ x0
            col = []
            for A_pi, z0, back in models:
                z_t = scipy.linalg.expm(A_pi * float(t)) @ z0
                try:
                    denom = v_norm(x_t)
                    col.append(math.nan if denom == 0.0 else v_norm(back @ z_t - x_t) / denom)
                except ValueError:
                    raise NumericFailure(
                        "state diverged", operation="approx_error", time=t
                    ) from None
            cols.append(col)
    return np.array(cols, dtype=float).reshape(len(times), len(m_values)).T


def assert_like_the_loop(got, want, uniform: bool):
    """``got`` equals the per-point loop's ``want``: bit for bit, or on a
    uniform grid, which the block-power flow samples, to within 1e-10
    relative plus 1e-13; NaN only where ``want`` is NaN."""
    if not uniform:
        assert np.array_equal(got, want, equal_nan=True)
        return
    assert np.array_equal(np.isnan(got), np.isnan(want))
    close = np.abs(got - want) <= 1e-10 * np.abs(want) + 1e-13
    assert close[~np.isnan(want)].all(), np.abs(got - want).max()


def sweep_cases():
    """(A, x0, m_values, times, uniform) of the shipped sweeps and a few more."""
    sc = load_scenario(str(SWEEP))
    cases = [(c["A"], c["x0"], c["m_values"], c["times"], True)
             for c in sc.block("approx")["cases"]]
    red = sc.block("reduce")
    cases.append((red["A"], red["x0"], red["m_values"], red["times"], True))
    rng = np.random.default_rng(1018)
    skew = np.triu(rng.standard_normal((5, 5)), 1) * 4.0 - 0.7 * np.eye(5)
    x5 = rng.standard_normal(5)
    cases += [
        (skew, x5, [5, 1, 2, 3, 4, 7, 10], np.linspace(0.0, 6.0, 37), True),  # non-normal, m == n
        (skew, x5, [3, 5], np.linspace(-3.0, 40.0, 520), True),  # 3 blocks, from a negative t
        (skew, x5, [3, 5], np.array([4.5, 0.0, 1e-3, 2.0, 2.0, 7.25, 0.3]), False),  # a list
        (skew, x5, [3, 5], np.array([0.0, 1.0, 2.0 + 1e-9]), False),  # not quite uniform
        (skew, x5, [3, 5], np.array([0.0, 1.0]), False),  # two times
        (cases[0][0], cases[0][1], [9, 11], np.empty(0), False),  # count: 0
    ]
    return cases


@pytest.mark.parametrize(
    "entries", [None, 1, 7 * 25, pytest.param((3600, 300), id="3600-300")]
)
def test_reduction_errors_equal_the_per_point_loop(entries, monkeypatch):
    # one chunk, one time per chunk, chunks that end mid-grid, and flow
    # blocks and anchor stacks that end mid-chunk; analysis sets the chunks,
    # dynamics the flow blocks and the anchors per stack
    if entries is not None:
        chunk, stack = entries if isinstance(entries, tuple) else (entries, entries)
        monkeypatch.setattr(analysis, "_STACK_ENTRIES", chunk)
        monkeypatch.setattr(dynamics, "_STACK_ENTRIES", stack)
    for A, x0, m_values, times, uniform in sweep_cases():
        assert (analysis._uniform_step(times) is not None) == uniform
        got = analysis._reduction_errors(A, x0, m_values, times)
        assert_like_the_loop(got, point_errors(A, x0, m_values, times), uniform)
        for m, row in zip(m_values, got):
            series = approx_error(A, x0, m, list(times))
            assert np.array_equal(series.times, times)
            assert np.array_equal(series.values, row, equal_nan=True)


@pytest.mark.parametrize(
    "times", [[1.0, 1.0, 1.0], [2.0, 1.0, 0.0], [-1.7e308, 0.0, 1.7e308]]
)
def test_only_an_increasing_grid_is_uniform(times):
    # t_last - t_0 of the last grid overflows: no grid, and no warning
    assert analysis._uniform_step(np.array(times)) is None


def test_uniform_sweep_takes_one_exponential_per_flow(monkeypatch):
    # the shipped sweep: 100 times from its own step, one block, whose anchor
    # at t = 1 is the step's exponential; a list of the same times takes one
    # stacked exponential of all 100 per flow
    calls = []
    stack = dynamics._expm_stack

    def spy(A, ts):
        calls.append(len(ts))
        return stack(A, ts)

    monkeypatch.setattr(dynamics, "_expm_stack", spy)
    monkeypatch.setattr(analysis, "_expm_stack", spy)
    A, x0, m_values, times, _ = sweep_cases()[1]
    analysis._reduction_errors(A, x0, m_values, times)
    assert calls == [1] * (1 + len(m_values))  # the step's, which is the first anchor
    calls.clear()
    analysis._reduction_errors(A, x0, m_values, list(times) + [100.0])
    assert calls == [101] * (1 + len(m_values))


def test_uniform_sweep_stays_finite_where_the_exponential_overflows(tmp_path):
    # e^{36 A} overflows, but its state 1e-300 e^{720} is about 2.9e12: the
    # error is defined at every time, as in closed form
    A, x0 = np.diag([20.0, -20.0]), np.array([1e-300, 1.0])
    times = np.linspace(1.0, 36.0, 36)
    with pytest.raises(NumericFailure, match=r"t=36\)"):
        point_errors(A, x0, [1], times)
    exact = np.exp(np.outer(times, [20.0, -20.0]) + np.log(x0))
    lifted = np.full_like(exact, 0.5)  # m = 1 reduces A to 0 and x0 to its mean
    want = np.array([v_norm(y - x) / v_norm(x) for y, x in zip(lifted, exact)])
    got = analysis._reduction_errors(A, x0, [1], times)[0]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert want[-1] == pytest.approx(1.0, abs=1e-12) and want[0] > 1e8

    raw = json.loads(SWEEP.read_text())
    raw["experiment"]["approx"]["cases"] = [
        {"label": "split", "A": A.tolist(), "x0": x0.tolist(), "m_values": [1],
         "times": {"from": 1, "to": 36, "count": 36}}
    ]
    config = tmp_path / "split.json"
    config.write_text(json.dumps(raw))
    assert main(["approx", "--config", str(config), "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "error_split.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], times) and np.array_equal(rows[:, 2], got)


@pytest.mark.parametrize("edit", ["shipped", "count_0_and_a_list"])
def test_cli_error_tables_equal_the_per_point_loop(edit, tmp_path):
    raw = json.loads(SWEEP.read_text())
    if edit != "shipped":
        raw["experiment"]["approx"]["cases"][1]["times"] = {"from": 1, "to": 100, "count": 0}
        raw["experiment"]["reduce"]["times"] = [3.5, 0.0, 40.0, 1e-3, 7.25, 7.25]
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(raw))
    sc = load_scenario(str(config))
    tables = {f"error_{c['label']}.csv": c for c in sc.block("approx")["cases"]}
    tables["reduce_error.csv"] = sc.block("reduce")
    specs = {f"error_{c['label']}.csv": c["times"] for c in raw["experiment"]["approx"]["cases"]}
    specs["reduce_error.csv"] = raw["experiment"]["reduce"]["times"]
    for command in ("approx", "reduce"):
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
    for name, c in tables.items():
        lines = (tmp_path / name).read_text().splitlines()
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        ts = c["times"]
        want = np.column_stack([
            np.tile(ts, len(c["m_values"])),
            np.repeat(c["m_values"], len(ts)),
            point_errors(c["A"], c["x0"], c["m_values"], ts).ravel(),
        ])
        assert lines[0] == "t,m,E"
        got = got.reshape(want.shape)
        assert np.array_equal(got[:, :2], want[:, :2]), name
        grid = isinstance(specs[name], dict) and specs[name]["count"] >= 3
        assert_like_the_loop(got[:, 2], want[:, 2], grid)


# drift, x0 and m values of runs that overflow; each fails at the first
# time at which some m's error is undefined
NILPOTENT = np.array([[-1.0, 100.0], [0.0, -1.0]])  # m = 1 reduces it to e^{49 t}
SPLIT = np.array([[20.0, 0.0], [0.0, -20.0]])  # m = 1 reduces it to 0
SKEW4 = np.triu(np.random.default_rng(7).standard_normal((4, 4)) * 30.0, 1) - np.eye(4)
FAILURES = {
    # the reduced exponential overflows before the reduced state does
    "reduced_overflow_first": (NILPOTENT, [1e-3, 1e-3], [2, 1]),
    # the reduced state overflows while its exponential is finite
    "reduced_state_first": (NILPOTENT, [1e200, 1e200], [2, 1]),
    # e^{tA} overflows before e^{tA} x0 does
    "full_overflow_first": (SPLIT, [1e-300, 1.0], [1]),
    # e^{tA} x0 overflows while e^{tA} is finite
    "full_state_first": (SPLIT, [1e300, 1.0], [1]),
    # m = 1 diverges at an earlier t than m = 3, listed first
    "first_m_wins": (SKEW4, [1e250] * 4, [3, 1]),
}


@pytest.mark.parametrize("entries", [None, 1, 4 * 9])
@pytest.mark.parametrize("case", sorted(FAILURES))
def test_reduction_failure_is_the_per_point_loops(case, entries, monkeypatch):
    if entries is not None:
        monkeypatch.setattr(analysis, "_STACK_ENTRIES", entries)
    A, x0, m_values = FAILURES[case]
    x0 = np.array(x0)
    times = np.linspace(0.0, 200.0, 401)
    with pytest.raises(NumericFailure) as want:
        point_errors(A, x0, m_values, times)
    assert str(want.value).startswith("state diverged (operation=approx_error, t=")
    with pytest.raises(NumericFailure) as got:
        analysis._reduction_errors(A, x0, m_values, times)
    assert str(got.value) == str(want.value)
    if case == "first_m_wins":  # the time m = 1 alone fails at, not m = 3's
        with pytest.raises(NumericFailure) as alone:
            analysis._reduction_errors(A, x0, [1], times)
        with pytest.raises(NumericFailure) as first:
            analysis._reduction_errors(A, x0, [3], times)
        assert got.value.time == alone.value.time < first.value.time


def test_approx_error_memory_is_set_by_the_chunk_not_the_times():
    n, count = 10, 8_000
    A = -0.1 * np.eye(n) + 0.05 * np.random.default_rng(3).standard_normal((n, n))
    times = np.linspace(0.0, 5.0, count)
    unchunked = count * n * n * 8  # one stack of every e^{tA}: 6.4 MB
    bound = 8 * analysis._STACK_ENTRIES * 8 + 64 * count  # a few stacks of a chunk, the series
    assert bound < unchunked / 2
    tracemalloc.start()
    try:
        series = approx_error(A, np.ones(n), 4, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(series.values))
    assert peak < bound


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
    _, basis = SPAN_BASES["ddp3_invariant"]
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


def test_aggregate_run_names_the_time_a_gap_overflows():
    # the member holds 1e308; the nominal rotation, lifted back, is
    # 1e308 cos t, so the gap passes the float range once cos t < -0.797
    nominal = Mode("rotor", 2, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    member = Mode("still", 1, np.zeros((1, 1)))
    with pytest.raises(NumericFailure) as err:
        aggregate_run(nominal, member, np.array([1e308]), 3.2, 0.01)
    assert err.value.operation == "aggregate_run"
    assert err.value.time == pytest.approx(np.arccos(1 - np.finfo(float).max / 1e308), abs=0.01)


def test_aggregate_run_handles_foreign_start():
    nominal = Mode("nom", 2, -0.5 * np.eye(2))
    member = Mode("mem", 3, -0.5 * np.eye(3))
    result = aggregate_run(nominal, member, np.array([1.0, -2.0, 0.5]), 1.0, 0.05)
    assert np.all(np.isfinite(result.errors.values))


# ------------------------------------------------------ library argument checks

TWO_MODES = DvSystem((Mode("a", 2, -np.eye(2), np.eye(2)), Mode("b", 3, -np.eye(3), np.eye(3))))


@pytest.mark.parametrize("call, message", [
    (lambda: ctrb_rank(np.eye(2), np.ones((3, 1))), "inconsistent shapes for the pair (A, B)"),
    (lambda: partial_ctrb(np.eye(2), np.ones((2, 1)), np.ones((3, 1))),
     "subspace basis must be n x s"),
    (lambda: reachability_chain(TWO_MODES, 0, 2), "start/target mode index out of range"),
    (lambda: approx_error(-np.eye(2), [1.0, 2.0, 3.0], 1, [0.5]),
     "x0 must match the drift dimension"),
    (lambda: intersection_basis(0, 2), "dimensions must be positive"),
])
def test_argument_checks_raise_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_reduce_model_reads_flat_inputs_as_a_column_and_flat_outputs_as_a_row():
    A = np.arange(16.0).reshape(4, 4)
    b, c = np.arange(1.0, 5.0), np.arange(5.0, 9.0)
    flat = reduce_model(A, b, c, m=2)
    shaped = reduce_model(A, b[:, None], c[None, :], m=2)
    assert flat.B_pi.shape == (2, 1) and flat.C_pi.shape == (1, 2)
    np.testing.assert_array_equal(flat.B_pi, shaped.B_pi)
    np.testing.assert_array_equal(flat.C_pi, shaped.C_pi)
