import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
import scipy.linalg

from crossdim.cdspace import kron_lift, project, v_dist
from crossdim import dynamics
from crossdim.config import load_scenario
from crossdim.dkstp import op_vnorm
from crossdim.dynamics import (
    AffineFeedback,
    Disturbance,
    DvSystem,
    Mode,
    OutputMap,
    closed_loop_drift,
    dwell_bound,
    embed_common,
    expm,
    integrate_mode,
    lift_field,
    lift_function,
    simulate,
)
from crossdim.errors import NumericFailure
from crossdim.registry import get_field, get_output_function
from crossdim.switching import TransitionMap, fixed_signal
from rk4_reference import rk4_mode, rk4_system

RNG = np.random.default_rng(23)

CONTRACT_A1 = np.array([[3.0, 2.0], [-10.0, -6.0]])
CONTRACT_A2 = np.array(
    [
        [-5.0, 1.0, 0.0, 1.0],
        [1.0, -3.0, 0.0, 1.0],
        [-1.0, 0.0, -2.0, 0.0],
        [0.0, 1.0, 0.0, -2.0],
    ]
)


def contraction_system():
    return DvSystem(
        (Mode("planar", 2, CONTRACT_A1), Mode("quad", 4, CONTRACT_A2))
    )


def random_stable(n):
    A = RNG.standard_normal((n, n))
    shift = max(np.linalg.eigvals(A).real.max(), 0.0) + 0.5
    return A - shift * np.eye(n)


# ------------------------------------------------------------------------ expm

def test_expm_at_zero_time():
    A = RNG.standard_normal((4, 4))
    np.testing.assert_allclose(expm(A, 0.0), np.eye(4), atol=1e-15)


def test_expm_diagonal():
    np.testing.assert_allclose(
        expm(np.diag([1.0, -2.0]), 0.7),
        np.diag([math.exp(0.7), math.exp(-1.4)]),
        rtol=1e-13,
    )


def test_expm_against_scipy():
    for _ in range(50):
        n = int(RNG.integers(1, 7))
        A = RNG.standard_normal((n, n)) * RNG.uniform(0.1, 5.0)
        ours = expm(A, 1.0)
        ref = scipy.linalg.expm(A)
        assert np.abs(ours - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_expm_contraction_norm():
    assert np.linalg.norm(expm(CONTRACT_A1, 3.6), 2) == pytest.approx(
        0.3201, abs=1e-3
    )


def test_expm_overflow_raises():
    with pytest.raises(NumericFailure):
        expm(np.array([[1e6]]), 1.0)


def test_expm_validates_input():
    with pytest.raises(ValueError):
        expm(np.ones((2, 3)))


# -------------------------------------------------------------- integrate_mode

def test_integrate_constant_field():
    mode = Mode("flat", 3, lambda x: np.zeros(3))
    seg = integrate_mode(mode, [1.0, 2.0, 3.0], 0.0, 1.0, 0.01)
    np.testing.assert_array_equal(seg.states[-1], [1.0, 2.0, 3.0])


def test_integrate_scalar_growth():
    mode = Mode("grow", 1, np.array([[1.0]]))
    seg = integrate_mode(rk4_mode(mode), [3.0], 0.0, 1.0, 1e-4)
    assert seg.states[-1][0] == pytest.approx(3.0 * math.e, abs=1e-10)


def test_integrate_rk4_agrees_with_expm():
    for _ in range(10):
        n = int(RNG.integers(1, 5))
        mode = Mode("lin", n, random_stable(n))
        x0 = RNG.standard_normal(n)
        rk = integrate_mode(rk4_mode(mode), x0, 0.0, 1.0, 1e-3)
        ex = integrate_mode(mode, x0, 0.0, 1.0, 1e-3)
        np.testing.assert_array_equal(rk.times, ex.times)
        assert np.abs(rk.states - ex.states).max() <= 1e-8


def test_integrate_grid_lands_exactly():
    mode = Mode("flat", 1, np.array([[0.0]]))
    seg = integrate_mode(mode, [1.0], 0.0, 0.9995, 1e-2)
    assert seg.times[-1] == 0.9995
    assert seg.times[0] == 0.0
    diffs = np.diff(seg.times)
    assert diffs.min() > 0
    assert diffs[:-1] == pytest.approx(1e-2)


@pytest.mark.filterwarnings("ignore:overflow")
def test_integrate_divergence_raises_with_time():
    mode = Mode("explode", 1, lambda x: x**3)
    with pytest.raises(NumericFailure) as err:
        integrate_mode(mode, [10.0], 0.0, 5.0, 0.5)
    assert err.value.time is not None


def test_integrate_feedback_closes_loop():
    # u = -2 x steers dx = x + u to dx = -x
    mode = Mode(
        "closed",
        1,
        np.array([[1.0]]),
        inputs=np.array([[1.0]]),
        feedback=lambda t, x: np.array([-2.0 * x[0]]),
    )
    seg = integrate_mode(mode, [1.0], 0.0, 1.0, 1e-3)
    assert seg.states[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_integrate_affine_feedback_is_exact():
    # u = -2 x + 1 turns dx = x + u into dx = -x + 1: x(t) = 1 + (x0 - 1) e^{-t}
    mode = Mode(
        "offset",
        1,
        np.array([[1.0]]),
        inputs=np.array([[1.0]]),
        feedback=AffineFeedback([[-2.0]], [1.0]),
    )
    seg = integrate_mode(mode, [3.0], 0.0, 1.0, 1e-2)
    assert seg.states.shape == (101, 1)
    np.testing.assert_allclose(
        seg.states[:, 0], 1.0 + 2.0 * np.exp(-seg.times), rtol=1e-13
    )


def test_affine_feedback_gain_must_fit_the_mode():
    with pytest.raises(ValueError, match="1x2"):
        Mode(
            "p",
            2,
            np.eye(2),
            inputs=np.array([[1.0], [0.0]]),
            feedback=AffineFeedback([[1.0, 2.0, 3.0]], [0.0]),
        )
    with pytest.raises(ValueError, match="u0"):
        AffineFeedback([[1.0, 2.0]], [0.0, 1.0])


@pytest.mark.filterwarnings("ignore:overflow")
def test_expm_path_divergence_raises_with_time():
    mode = Mode("up", 1, np.array([[100.0]]))
    with pytest.raises(NumericFailure) as err:
        integrate_mode(mode, [1.0], 0.0, 10.0, 1.0)
    # e^{700} is finite, e^{800} is not
    assert err.value.time == 8.0


def scenario_path(name: str) -> str:
    return str(resources.files("crossdim") / "scenarios" / name)


@pytest.mark.parametrize(
    "name",
    ["two_stage_steering.json", "feedback_switch_fixed.json", "feedback_switch_random.json"],
)
def test_feedback_scenarios_exact_path_matches_rk4(name):
    scenario = load_scenario(scenario_path(name))
    args = (scenario.signal, scenario.x0, scenario.step)
    exact = simulate(scenario.system, *args)
    rk4 = simulate(rk4_system(scenario.system), *args)
    assert all(isinstance(m.feedback, AffineFeedback) for m in scenario.system.modes if m.feedback)
    for a, c in zip(exact.segments, rk4.segments):
        assert np.abs(a.states - c.states).max() <= 1e-9


def test_the_mode_chooses_the_integration_path(monkeypatch):
    calls = []
    real_expm = dynamics.expm
    monkeypatch.setattr(
        dynamics, "expm", lambda A, t=1.0: calls.append(t) or real_expm(A, t)
    )
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    B = np.array([[1.0], [0.0]])
    open_loop = Mode("open", 2, A)
    affine = Mode("affine", 2, A, inputs=B, feedback=AffineFeedback([[-1.0, 0.0]], [0.5]))
    evaluator = Mode("evaluator", 2, A, inputs=B, feedback=lambda t, x: -x[:1])
    noise = Disturbance(1, lambda t: np.array([math.sin(t)]))
    cases = [
        (open_loop, None, True),
        (affine, None, True),
        (rk4_mode(open_loop), None, False),
        (rk4_mode(affine), None, False),
        (evaluator, None, False),
        (open_loop, noise, False),
        (affine, noise, False),
    ]
    for mode, disturbance, exact in cases:
        calls.clear()
        integrate_mode(mode, [1.0, -1.0], 0.0, 1.0, 0.1, disturbance=disturbance)
        assert bool(calls) == exact, (mode.label, disturbance)


def test_integrate_validates():
    mode = Mode("lin", 2, np.eye(2))
    with pytest.raises(ValueError):
        integrate_mode(mode, [1.0], 0.0, 1.0, 1e-2)
    with pytest.raises(ValueError):
        integrate_mode(mode, [1.0, 2.0], 0.0, 1.0, -1e-2)


def test_integrate_rejects_wrong_evaluator_shape():
    bad = Mode("bad", 3, lambda x: np.zeros(1))
    with pytest.raises(ValueError):
        integrate_mode(bad, np.ones(3), 0.0, 1.0, 0.1)


# ------------------------------------------------------------------ lift_field

def test_lift_field_identity_multiplier():
    mode = Mode("base", 2, CONTRACT_A1)
    assert lift_field(mode, 1) is mode


def test_lift_field_linear_on_replicated_states():
    A = RNG.standard_normal((3, 3))
    lifted = lift_field(Mode("lin", 3, A), 2)
    assert lifted.dim == 6 and lifted.is_linear
    for _ in range(20):
        x = RNG.standard_normal(3)
        np.testing.assert_allclose(
            lifted.drift @ kron_lift(x, 2), kron_lift(A @ x, 2), atol=1e-12
        )


def test_lift_field_nonlinear_rotor():
    _, rotor = get_field("rotor2")
    lifted = lift_field(Mode("rotor", 2, rotor), 2)
    a, b = 0.7, -1.3
    np.testing.assert_allclose(
        lifted.drift(np.array([a, a, b, b])), [b, b, -a, -a], atol=1e-12
    )


def test_lift_field_flows_commute_with_replication():
    cases = [Mode("lin", 3, random_stable(3)), Mode("rotor", 2, get_field("rotor2")[1])]
    for mode in cases:
        x0 = RNG.standard_normal(mode.dim)
        base = integrate_mode(mode, x0, 0.0, 1.0, 1e-3)
        for k in (2, 3):
            lifted = integrate_mode(
                rk4_mode(lift_field(mode, k)), kron_lift(x0, k), 0.0, 1.0, 1e-3
            )
            replicated = np.repeat(base.states, k, axis=1)
            assert np.abs(replicated - lifted.states).max() <= 1e-6


def test_lift_field_carries_inputs_and_feedback():
    mode = Mode(
        "ctl",
        2,
        np.zeros((2, 2)),
        inputs=np.array([[1.0], [0.0]]),
        feedback=lambda t, x: np.array([x[0] + x[1]]),
    )
    lifted = lift_field(mode, 2)
    assert lifted.inputs.shape == (4, 1)
    x = np.array([1.0, 1.0, 2.0, 2.0])
    np.testing.assert_allclose(lifted.feedback(0.0, x), [3.0], atol=1e-14)


def test_lift_field_keeps_affine_feedback_exact():
    fb = AffineFeedback([[-2.0, 0.0]], [-1.0])
    mode = Mode(
        "steer",
        2,
        np.array([[1.5, 0.5], [-0.5, 0.5]]),
        inputs=np.array([[0.5], [-0.5]]),
        feedback=fb,
    )
    lifted = lift_field(mode, 3)
    assert isinstance(lifted.feedback, AffineFeedback)
    np.testing.assert_array_equal(lifted.feedback.u0, fb.u0)
    y = kron_lift(np.array([0.3, -1.2]), 3)
    np.testing.assert_allclose(lifted.feedback(0.0, y), fb(0.0, [0.3, -1.2]), atol=1e-15)
    x0 = np.array([1.0, 2.0])
    base = integrate_mode(mode, x0, 0.0, 1.0, 1e-2)
    up = integrate_mode(lifted, kron_lift(x0, 3), 0.0, 1.0, 1e-2)
    assert np.abs(np.repeat(base.states, 3, axis=1) - up.states).max() <= 1e-12


# --------------------------------------------------------------- lift_function

def test_lift_function_constant():
    h = lambda w: 4.5
    for dim in (1, 2, 6):
        assert lift_function(h, 3, RNG.standard_normal(dim)) == pytest.approx(4.5)


def test_lift_function_composes_with_projection():
    q, _, h = get_output_function("ddp_output6")
    x = RNG.standard_normal(2)
    # direct oracle: evaluate at the replicated representative
    w = kron_lift(x, 3)
    expected = w.sum() + w[0] * w[1]
    assert lift_function(h, q, x)[0] == pytest.approx(expected, rel=1e-14)
    assert lift_function(h, q, x)[0] == pytest.approx(
        3 * x[0] + 3 * x[1] + x[0] ** 2, rel=1e-12
    )
    z = RNG.standard_normal(3)
    assert lift_function(h, q, z)[0] == pytest.approx(
        2 * (z[0] + z[1] + z[2] + 0.5 * z[0] ** 2), rel=1e-12
    )


def test_lift_function_well_defined_on_classes():
    q, _, h = get_output_function("ddp_output6")
    z = RNG.standard_normal(3)
    assert lift_function(h, q, kron_lift(z, 2))[0] == pytest.approx(
        lift_function(h, q, kron_lift(z, 4))[0], rel=1e-12
    )


# -------------------------------------------------------------------- simulate

def test_simulate_single_mode_matches_integrate():
    mode = Mode("lin", 2, CONTRACT_A1)
    system = DvSystem((mode,))
    signal = fixed_signal(1.0, n_modes=1)
    x0 = [1.0, -1.0]
    traj = simulate(system, signal, x0, 1e-3)
    seg = integrate_mode(mode, x0, 0.0, 1.0, 1e-3)
    np.testing.assert_array_equal(traj.times, seg.times)
    np.testing.assert_array_equal(np.vstack(traj.states), seg.states)
    assert traj.events == []


def test_simulate_logs_one_event_per_switch():
    system = contraction_system()
    signal = fixed_signal(10.0, dwell_pattern=[2.0], n_modes=2)
    traj = simulate(system, signal, [1.0, 2.0], 1e-2)
    assert len(traj.events) == len(signal.switch_times)
    assert [ev.time for ev in traj.events] == list(signal.switch_times)
    # dimension constant within each dwell interval (boundary samples carry
    # the closing mode's dimension, so test the open interior)
    for ta, tb, mi in signal.intervals():
        inside = (traj.times > ta) & (traj.times < tb)
        assert set(traj.dims[inside]) == {system.modes[mi].dim}
    for k in range(len(traj.times)):
        assert traj.dims[k] == system.modes[traj.mode_indices[k]].dim
    # gap at each switch equals the logged value
    for ev in traj.events:
        assert ev.gap == v_dist(ev.pre_state, ev.post_state)


def test_simulate_projects_foreign_initial_state():
    system = contraction_system()
    signal = fixed_signal(0.5, n_modes=2)
    traj = simulate(system, signal, [1.0, 2.0, 3.0], 1e-2)
    assert traj.events[0].time == 0.0
    assert traj.dims[0] == 2
    np.testing.assert_allclose(traj.states[0], project([1.0, 2.0, 3.0], 2))


@pytest.mark.parametrize(
    "transitions",
    ["nearest", {(0, 1): TransitionMap(2, 4, np.repeat(np.eye(2), 2, axis=0))}],
)
def test_simulate_self_switch_is_no_jump(transitions):
    system = DvSystem(contraction_system().modes, transitions)
    signal = fixed_signal(3.0, switch_times=[1.0, 2.0], modes=[1, 1], n_modes=2)
    traj = simulate(system, signal, [1.0, 2.0], 1e-2)
    assert [ev.time for ev in traj.events] == [1.0]
    # the state carries over the self-switch unchanged
    first, second = traj.segments[1], traj.segments[2]
    np.testing.assert_array_equal(second.states[0], first.states[-1])
    assert first.times[-1] == second.times[0] == 2.0


def test_simulate_rejects_unknown_mode():
    system = contraction_system()
    signal = fixed_signal(2.0, switch_times=[1.0], modes=[5], n_modes=6)
    with pytest.raises(ValueError):
        simulate(system, signal, [1.0, 2.0], 1e-2)


def test_simulate_norm_continuous_on_equivalent_jump():
    # jumping 2 -> 4 by nearest map replicates the state: no gap, no kink
    system = contraction_system()
    signal = fixed_signal(2.0, switch_times=[1.0], modes=[1], n_modes=2)
    traj = simulate(system, signal, [1.0, 2.0], 1e-3)
    ev = traj.events[0]
    assert ev.gap <= 1e-12
    assert ev.direction is None
    k = int(np.searchsorted(traj.times, 1.0))
    assert abs(traj.vnorms[k + 1] - traj.vnorms[k]) <= 1e-9


def test_simulate_zero_disturbance_is_bit_identical():
    system = contraction_system()
    signal = fixed_signal(3.0, dwell_pattern=[1.0], n_modes=2)
    quiet = Disturbance(3, lambda t: np.zeros(3))
    # any disturbance sends a mode to RK4; the reference runs RK4 undisturbed
    a = simulate(rk4_system(system), signal, [1.0, 2.0], 1e-2)
    b = simulate(system, signal, [1.0, 2.0], 1e-2, disturbance=quiet)
    for sa, sb in zip(a.states, b.states):
        np.testing.assert_array_equal(sa, sb)


def test_simulate_disturbance_of_foreign_dim():
    system = contraction_system()
    signal = fixed_signal(1.0, n_modes=2)
    noisy = Disturbance(3, lambda t: np.array([math.sin(t), 0.0, 0.1]))
    traj = simulate(system, signal, [1.0, 2.0], 1e-2, disturbance=noisy)
    base = simulate(rk4_system(system), signal, [1.0, 2.0], 1e-2)
    assert v_dist(traj.final_state, base.final_state) > 0


def test_simulate_control_mapping_overrides_feedback():
    mode = Mode(
        "ctl",
        1,
        np.array([[0.0]]),
        inputs=np.array([[1.0]]),
        feedback=lambda t, x: np.array([1.0]),
    )
    signal = fixed_signal(1.0, n_modes=1)
    with_feedback = simulate(DvSystem((mode,)), signal, [0.0], 1e-2)
    assert with_feedback.final_state[0] == pytest.approx(1.0, abs=1e-12)
    other = replace(mode, feedback=lambda t, x: np.array([-1.0]))
    overridden = simulate(DvSystem((other,)), signal, [0.0], 1e-2)
    assert overridden.final_state[0] == pytest.approx(-1.0, abs=1e-12)


def test_simulate_impulse_amplitude_scales_with_mu():
    system = DvSystem(contraction_system().modes, impulse_scale=2.5)
    signal = fixed_signal(8.0, dwell_pattern=[3.6], n_modes=2)
    traj = simulate(system, signal, [1.0, 2.0], 1e-2)
    for ev in traj.events:
        assert ev.amplitude == pytest.approx(2.5 * ev.gap, rel=1e-15)


def test_simulate_output_map_linear_and_nonlinear():
    H = np.array([[1.0, 1.0]])
    system = DvSystem(contraction_system().modes, output=OutputMap.from_matrix(H))
    signal = fixed_signal(2.0, switch_times=[1.0], modes=[1], n_modes=2)
    traj = simulate(system, signal, [1.0, 2.0], 1e-2)
    assert traj.outputs is not None
    for k in (0, len(traj.states) - 1):
        x = traj.states[k]
        np.testing.assert_allclose(
            traj.outputs[k], H @ project(x, 2) if x.size != 2 else H @ x, atol=1e-12
        )
    q, p, h = get_output_function("ddp_output6")
    system2 = DvSystem(
        contraction_system().modes, output=OutputMap.from_function(h, q, p)
    )
    traj2 = simulate(system2, signal, [1.0, 2.0], 1e-1)
    assert traj2.outputs[0][0] == pytest.approx(
        lift_function(h, q, traj2.states[0])[0]
    )


# ---------------------------------------------------------------- embed_common

def test_embed_common_dimension():
    modes = (Mode("a", 2, np.zeros((2, 2))), Mode("b", 3, np.zeros((3, 3))))
    emb = embed_common(DvSystem(modes))
    assert all(m.dim == 6 for m in emb.modes)


def test_embed_common_single_mode_unchanged():
    system = DvSystem((Mode("only", 3, np.eye(3)),))
    emb = embed_common(system)
    assert emb.modes[0] is system.modes[0]


def test_embed_common_mirrors_trajectories():
    system = contraction_system()
    signal = fixed_signal(8.0, dwell_pattern=[3.6], n_modes=2)
    x0 = np.array([1.0, 2.0])
    original = simulate(system, signal, x0, 1e-2)
    emb = embed_common(system)
    mirrored = simulate(emb, signal, project(x0, 4), 1e-2)
    assert len(original.states) == len(mirrored.states)
    worst = max(
        v_dist(a, b) for a, b in zip(original.states, mirrored.states)
    )
    assert worst <= 1e-9
    # replication structure on the first dwell interval (mode of dim 2)
    k = 10
    np.testing.assert_allclose(
        mirrored.states[k], kron_lift(original.states[k], 2), atol=1e-9
    )
    # jump bookkeeping carries over
    for ea, eb in zip(original.events, mirrored.events):
        assert eb.gap == pytest.approx(ea.gap, abs=1e-9)


def test_embed_common_handles_feedback_modes():
    modes = (
        Mode(
            "p",
            2,
            np.array([[0.0, 1.0], [0.0, 0.1]]),
            inputs=np.array([[1.0], [0.0]]),
            feedback=lambda t, x: np.array([-x[0] - x[1]]),
        ),
        Mode(
            "s",
            3,
            np.array([[0.1, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0]]),
            inputs=np.array([[0.0], [0.0], [1.0]]),
            feedback=lambda t, z: np.array([-z[0] - z[1] - 3.0 * z[2]]),
        ),
    )
    system = DvSystem(modes)
    signal = fixed_signal(6.0, dwell_pattern=[1.0, 2.0], n_modes=2)
    x0 = np.array([5.0, 6.0])
    original = simulate(system, signal, x0, 1e-3)
    mirrored = simulate(embed_common(system), signal, project(x0, 6), 1e-3)
    worst = max(v_dist(a, b) for a, b in zip(original.states, mirrored.states))
    assert worst <= 1e-9


# ----------------------------------------------------------------- dwell_bound

def test_dwell_bound_contracts_by_3_6_with_conservative_constant():
    delta = dwell_bound(contraction_system(), 0.03, lipschitz=3.0)
    assert delta is not None and delta <= 3.6
    # the returned dwell really contracts
    worst = 3.0 * max(
        np.linalg.norm(expm(CONTRACT_A1, delta), 2),
        np.linalg.norm(expm(CONTRACT_A2, delta), 2),
    )
    assert worst <= 0.97


def test_dwell_bound_single_stable_mode():
    system = DvSystem((Mode("calm", 2, -np.eye(2)),))
    delta = dwell_bound(system, 0.5, lipschitz=1.0)
    assert delta is not None
    # e^{-d} <= 0.5 at d = ln 2
    assert delta == pytest.approx(math.log(2.0), abs=2e-3)
    # contraction nearly immediate for a thin margin: first grid cell
    tiny = dwell_bound(system, 0.03, lipschitz=1.0)
    assert tiny is not None and tiny <= 0.05


def test_dwell_bound_none_for_unstable_mode():
    system = DvSystem(
        (Mode("bad", 2, np.array([[0.1, 0.0], [0.0, -1.0]])), Mode("ok", 2, -np.eye(2)))
    )
    assert dwell_bound(system, 0.03) is None


def test_dwell_bound_uses_derived_lipschitz_of_explicit_maps():
    triple = TransitionMap(2, 2, 3.0 * np.eye(2))
    assert triple.lipschitz == op_vnorm(triple.matrix) == 3.0
    system = DvSystem(
        (Mode("a", 2, -np.eye(2)), Mode("b", 2, -np.eye(2))),
        transitions={(0, 1): triple, (1, 0): triple},
    )
    delta = dwell_bound(system, 0.03)
    assert delta == dwell_bound(system, 0.03, lipschitz=3.0)
    # e^{-d} * 3 <= 0.97 at d = ln(3 / 0.97)
    assert delta == pytest.approx(math.log(3.0 / 0.97), abs=2e-3)


def test_dwell_bound_uses_system_lipschitz_by_default():
    delta = dwell_bound(contraction_system(), 0.03)
    # nearest maps here have constant 1, so the bound only needs the modes
    assert delta is not None
    assert delta < 3.6


def test_dwell_bound_uses_the_closed_loop_drift():
    # dx = x + u is unstable open loop; u = -2 x closes it to dx = -x
    open_loop = Mode("up", 1, np.array([[1.0]]), inputs=np.array([[1.0]]))
    closed = Mode(
        "up", 1, np.array([[1.0]]), inputs=np.array([[1.0]]),
        feedback=AffineFeedback([[-2.0]], [0.0]),
    )
    assert dwell_bound(DvSystem((open_loop,)), 0.5) is None
    np.testing.assert_array_equal(closed_loop_drift(closed), [[-1.0]])
    delta = dwell_bound(DvSystem((closed,)), 0.5)
    assert delta == pytest.approx(math.log(2.0), abs=2e-3)


@pytest.mark.parametrize(
    "feedback",
    [lambda t, x: np.array([-2.0 * x[0]]), AffineFeedback([[-2.0]], [1.0])],
)
def test_dwell_bound_rejects_feedback_without_a_linear_closed_loop(feedback):
    mode = Mode("ctl", 1, np.array([[1.0]]), inputs=np.array([[1.0]]), feedback=feedback)
    with pytest.raises(ValueError, match="'ctl'"):
        dwell_bound(DvSystem((mode,)), 0.5)


def test_dwell_bound_validates():
    with pytest.raises(ValueError):
        dwell_bound(contraction_system(), 1.5)
    with pytest.raises(ValueError):
        dwell_bound(DvSystem((Mode("f", 1, lambda x: -x),)), 0.1)
