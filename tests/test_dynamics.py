import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from crossdim.analysis import aggregate_run, approx_error, reduce_model
from crossdim.cdspace import kron_lift, project, v_dist
from crossdim import cdspace, dynamics, registry
from crossdim.config import load_scenario
from crossdim.dkstp import bridge, op_vnorm
from crossdim.dynamics import (
    AffineFeedback,
    Disturbance,
    DvSystem,
    Mode,
    OutputMap,
    Trajectory,
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
from crossdim.registry import get_output_function
from crossdim.switching import TransitionMap, fixed_signal, make_jump_event, nearest_map
from rk4_reference import rk4_mode, rk4_system
from testkit import get_field, scenario_path

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


def paired_states(a, b):
    """The states of two runs on one signal, paired sample by sample."""
    assert [len(s.times) for s in a.segments] == [len(s.times) for s in b.segments]
    return [
        (x, y)
        for sa, sb in zip(a.segments, b.segments)
        for x, y in zip(sa.states, sb.states)
    ]


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


@pytest.mark.parametrize(
    "feedback, inputs", [(lambda t, x: -5 * x, None), (AffineFeedback([[-5.0]], [0.0]), None),
                         (lambda t, x: -5 * x, ())],
    ids=["<lambda>", "feedback1", "empty_channels"],
)
def test_feedback_without_inputs_is_rejected(feedback, inputs):
    # nothing carries such a feedback into the flow, so x' = x would run open
    # loop to x(1) = e; an empty channel sequence carries nothing either
    with pytest.raises(ValueError, match="^mode 'm': feedback requires input channels$"):
        Mode("m", 1, [[1.0]], inputs=inputs, feedback=feedback)


@pytest.mark.parametrize("K, u0", [([[math.inf]], [0.0]), ([[-1.0]], [math.nan])])
def test_affine_feedback_must_be_finite(K, u0):
    # a non-finite law is bad input, not a closed loop that overflowed
    with pytest.raises(ValueError, match="^feedback gain K and offset u0 must be finite$"):
        AffineFeedback(K, u0)


@pytest.mark.parametrize("build", [lambda: OutputMap.from_matrix([]),
                                   lambda: OutputMap.from_function(lambda x: x, 0)])
def test_output_map_needs_a_positive_dimension(build):
    with pytest.raises(ValueError, match="^output dimension q must be >= 1, got 0$"):
        build()


@pytest.mark.filterwarnings("ignore:overflow")
def test_expm_path_divergence_raises_with_time():
    mode = Mode("up", 1, np.array([[100.0]]))
    with pytest.raises(NumericFailure) as err:
        integrate_mode(mode, [1.0], 0.0, 10.0, 1.0)
    # e^{700} is finite, e^{800} is not
    assert err.value.time == 8.0


@pytest.mark.filterwarnings("ignore:overflow")
def test_expm_path_divergence_in_an_anchor_or_the_step():
    # the flow restarts each block of _FLOW_BLOCK samples from its own
    # exponential; choose the rate so that the first overflow is block 1's
    # anchor, e^{rate * B}, while E^{B-1} is still finite
    B = dynamics._FLOW_BLOCK
    rate = math.log(np.finfo(float).max) / (B - 0.5)
    for mode, first in [
        (Mode("anchor", 1, np.array([[rate]])), float(B)),
        (Mode("step", 1, np.array([[1000.0]])), 1.0),
    ]:
        with pytest.raises(NumericFailure) as err:
            integrate_mode(mode, [1.0], 0.0, 2.0 * B, 1.0)
        assert err.value.operation == "integrate_mode"
        assert err.value.time == first, mode.label


def eigen_flow(G, z0, t):
    """V diag(e^{lambda t}) V^-1 z0 for a diagonalizable G."""
    lam, V = np.linalg.eig(G)
    return (V @ (np.exp(lam * t) * np.linalg.solve(V, z0))).real


@pytest.mark.parametrize("partial", [False, True])
def test_linear_flow_matches_eigendecomposition(partial):
    B = dynamics._FLOW_BLOCK
    A = np.array([[-0.3, 1.0], [-1.0, -0.3]])
    offset = Mode(
        "bordered",
        2,
        A,
        inputs=np.array([[0.0], [1.0]]),
        feedback=AffineFeedback([[0.5, -0.2]], [0.7]),
    )
    t0, h = 0.5, 1e-3
    for mode in (Mode("open", 2, A), offset):
        G = dynamics._generator(mode)
        z0 = np.array([1.0, -2.0, 1.0])[: len(G)]
        for count in (1, 2, B - 1, B, B + 1, 3 * B + 7):
            t1 = t0 + (count - 1 + (0.4 if partial else 0.0)) * h
            seg = integrate_mode(mode, z0[:2], t0, t1, h)
            assert len(seg.times) == count + partial
            want = np.array([eigen_flow(G, z0, t - t0)[:2] for t in seg.times])
            assert np.abs(seg.states - want).max() <= 1e-13, (mode.label, count)


@pytest.fixture
def expm_spy(monkeypatch):
    """Records the times of every ``_expm_stack`` call, one list per call,
    and counts the calls of the public ``expm``, while the test runs."""
    seen = {"expm": 0, "stacks": []}
    stack, scalar = dynamics._expm_stack, dynamics.expm

    def spy_stack(A, ts):
        seen["stacks"].append(ts.tolist())
        return stack(A, ts)

    def spy_expm(A, t=1.0):
        seen["expm"] += 1
        return scalar(A, t)

    monkeypatch.setattr(dynamics, "_expm_stack", spy_stack)
    monkeypatch.setattr(dynamics, "expm", spy_expm)
    return seen


def per_anchor_flow(G, z0, times, lattice, step):
    """The exact linear flow on ``times`` from ``dynamics._grid``, whose first
    ``lattice`` times lie on the lattice, with one scalar ``expm`` per block
    anchor; the samples from an overflowed exponential on are NaN."""
    B = dynamics._FLOW_BLOCK
    Z = np.full((len(times), z0.size), np.nan)
    Z[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            rows = dynamics._powers(expm(G, step), min(lattice, B)).reshape(-1, z0.size)
            for start in range(0, lattice, B):
                anchor = z0 if start == 0 else expm(G, start * step) @ z0
                m = min(B, lattice - start)
                Z[start : start + m] = (rows[: m * z0.size] @ anchor).reshape(m, -1)
            if lattice < len(times):
                Z[-1] = expm(G, times[-1] - times[-2]) @ Z[-2]
        except NumericFailure:
            pass
    return Z


@pytest.mark.parametrize("partial", [False, True])
def test_linear_flow_stacks_its_anchors_bit_for_bit(partial, expm_spy):
    B = dynamics._FLOW_BLOCK
    A = np.array([[-0.3, 1.0], [-1.0, -0.3]])
    # u = [0.5, -0.2] x + 0.7 through the second channel: a bordered generator
    bordered = Mode("bordered", 2, A, inputs=np.array([[0.0], [1.0]]),
                    feedback=AffineFeedback([[0.5, -0.2]], [0.7]))
    # the anchor of block 1, e^{rate B h}, overflows while E^{B-1} does not
    overflows = np.array([[math.log(np.finfo(float).max) / ((B - 0.5) * 1e-3)]])
    t0, h = 0.5, 1e-3
    overflowed = 0
    for mode in (Mode("open", 2, A), bordered, Mode("stable", 5, random_stable(5)),
                 Mode("overflows", 1, overflows)):
        G = dynamics._generator(mode)
        x0 = np.linspace(1.0, -2.0, mode.dim)
        z0 = np.append(x0, 1.0)[: len(G)]
        for count in (1, B, B + 1, 3 * B + 7):
            t1 = t0 + (count - 1 + (0.4 if partial else 0.0)) * h
            times, lattice = dynamics._grid(t0, t1, h)
            assert (lattice, len(times)) == (count, count + partial)
            want = per_anchor_flow(G, z0, times, lattice, h)[:, : mode.dim]
            expm_spy["expm"], expm_spy["stacks"] = 0, []
            # the same first non-finite sample, and the samples before it bit for bit
            bad = ~np.isfinite(want).all(axis=1)
            first = int(bad.argmax()) if bad.any() else len(times)
            if first < len(times):
                with pytest.raises(NumericFailure) as err:
                    integrate_mode(mode, x0, t0, t1, h)
                assert err.value.time == times[first]
            else:
                got = integrate_mode(mode, x0, t0, t1, h).states
            overflowed += first < len(times)
            # one stack of every anchor past t0 and then the step (none for
            # one sample), one slice for the partial step
            head = [(np.arange(B, count, B) * h).tolist() + [h]] if count > 1 else []
            last = [[times[-1] - times[-2]]] if partial else []
            assert expm_spy["stacks"] == head + last
            assert expm_spy["expm"] == 0
            if first < len(times):  # the samples integrate_mode computed before it raised
                blocks = dynamics._block_flow(G, z0, h, lattice)
                with np.errstate(over="ignore", invalid="ignore"):
                    got = np.concatenate(list(blocks))[:, : mode.dim]
            np.testing.assert_array_equal(got[:first], want[:first])
    assert overflowed


def flow_bits(*args):
    """The samples of ``dynamics._block_flow(*args)``, all blocks, as bytes."""
    return np.concatenate(list(dynamics._block_flow(*args))).tobytes()


@pytest.mark.parametrize("count", [2, dynamics._FLOW_BLOCK + 1, 3 * dynamics._FLOW_BLOCK + 7])
def test_a_flow_kept_at_a_nonzero_offset_gives_the_same_bits(count, expm_spy):
    G, step = np.array([[-0.3, 1.0], [-1.0, -0.3]]), 1e-3
    z0, z1 = np.array([1.0, -2.0]), np.array([-0.5, 3.0])
    cache = dynamics._FlowCache()
    for offset, z in [(0.37, z0), (0.37, z1), (0.5, z0), (0.37, z1)]:
        alone = flow_bits(G, z, step, count, offset)
        expm_spy["stacks"] = []
        assert flow_bits(G, z, step, count, offset, cache) == alone
        # the powers and anchors kept for (G, step, offset) serve every
        # state; another offset has its own
        assert (expm_spy["stacks"] == []) == (offset == 0.37 and z is z1), offset
    assert expm_spy["expm"] == 0


@pytest.mark.parametrize("x0", [[1.0, 0.0], [0.0, 1.0]])
def test_a_step_exponential_that_overflows_fails_at_the_first_step(x0):
    # e^{800 t} overflows for t >= 1 while x0 itself is finite: the grid
    # has whole steps without and with a partial step, one step, and only
    # a partial step
    mode = Mode("fast", 2, np.array([[800.0, 0.0], [0.0, -1.0]]))
    for t1, step in [(3.0, 1.0), (3.5, 1.0), (1.0, 1.0), (1.5, 2.0)]:
        with pytest.raises(NumericFailure) as err:
            integrate_mode(mode, x0, 0.0, t1, step)
        assert err.value.time == min(t1, step)
        assert err.value.operation == "integrate_mode"


def per_block_flow(G, z0, step, count, offset):
    """The samples of ``dynamics._block_flow``, a block at a time: each
    block's anchor is its own exponential (I at t = 0) applied to z0, and
    the block is one product of the step powers with that start."""
    d = len(G)
    B = min(dynamics._FLOW_BLOCK, max(1, dynamics._STACK_ENTRIES // d**2))
    E = dynamics._expm_stack(G, np.array([step]))[0] if min(count, B) > 1 else G
    rows = dynamics._powers(E, min(count, B)).reshape(-1, d)
    blocks = []
    for start in range(0, count, B):
        t = offset + start * step
        anchor = np.eye(d) if t == 0.0 else dynamics._expm_stack(G, np.array([t]))[0]
        m = min(B, count - start)
        blocks.append((rows[: m * d] @ (anchor @ z0)).reshape(m, d))
    return np.concatenate(blocks)


@pytest.mark.parametrize("small", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 11, 12, 13, 20])
def test_block_flow_is_the_per_block_flow_bit_for_bit(d, small, monkeypatch):
    if small:  # stacks of 5 anchors and blocks of 5 samples
        monkeypatch.setattr(dynamics, "_STACK_ENTRIES", 5 * d * d)
    per_stack = max(1, dynamics._STACK_ENTRIES // d**2)
    B = min(dynamics._FLOW_BLOCK, per_stack)
    rng = np.random.default_rng(d)
    G = -0.5 * np.eye(d) + rng.standard_normal((d, d)) / math.sqrt(d)
    z0 = rng.standard_normal(d)
    # whole blocks filling one stack, or three stacks when they are small,
    # then a partial tail
    whole = 3 * B * (per_stack if small else 1)
    for count in (1, 2, B, whole, whole + B // 2 + 1):
        for offset in (0.0, 0.37):
            want = per_block_flow(G, z0, 1e-2, count, offset).tobytes()
            cache = dynamics._FlowCache()
            for kept in (None, cache, cache):  # no cache, one it fills, one it serves
                arrays = list(dynamics._block_flow(G, z0, 1e-2, count, offset, kept))
                assert max(a.size for a in arrays) <= dynamics._STACK_ENTRIES
                assert np.concatenate(arrays).tobytes() == want, (count, offset)


@pytest.mark.parametrize("d", [1, 2, 5, 10, 13])
def test_a_grid_from_its_own_step_takes_the_step_as_an_anchor(d, expm_spy):
    # offset = step: the first anchor is E = e^{G step}; offset = (1 - B) step:
    # the second is, once there are two.  Either way the flow equals the
    # reference that takes E and every anchor from calls of their own, and
    # one stacked call computes each distinct time once.
    step = 2.0**-6  # so that (1 - B) step + B step is step exactly
    B = min(dynamics._FLOW_BLOCK, max(1, dynamics._STACK_ENTRIES // d**2))
    rng = np.random.default_rng(33 + d)
    G = -0.5 * np.eye(d) + rng.standard_normal((d, d)) / math.sqrt(d)
    z0 = rng.standard_normal(d)
    for count in (2, B, B + 1, 3 * B + 7):
        for offset in (step, (1 - B) * step):
            want = per_block_flow(G, z0, step, count, offset).tobytes()
            ts = offset + np.arange(0, count, B) * step
            cache = dynamics._FlowCache()
            for kept, slices in ((None, [len(set(ts) | {step})]), (cache, [len(set(ts) | {step})]),
                                 (cache, [])):  # no cache, one it fills, one it serves
                expm_spy["stacks"] = []
                assert flow_bits(G, z0, step, count, offset, kept) == want, (count, offset)
                assert [len(ts) for ts in expm_spy["stacks"]] == slices, (count, offset)


def test_simulate_flow_memory_is_set_by_the_stack_budget():
    # n = 64: blocks of 8 samples and stacks of 8 anchors, where a block of
    # _FLOW_BLOCK powers alone would be 8.4 MB
    n, step = 64, 1e-3
    A = -0.1 * np.eye(n) + 0.006 * np.random.default_rng(3).standard_normal((n, n))
    system = DvSystem((Mode("big", n, A),))
    signal = fixed_signal(1.0, switch_times=[], n_modes=1)
    count = 1001
    powers = dynamics._FLOW_BLOCK * n * n * 8
    bound = 8 * dynamics._STACK_ENTRIES * 8 + 2 * count * n * 8  # a few stacks, the samples
    assert bound < powers / 2
    tracemalloc.start()
    try:
        traj = simulate(system, signal, np.ones(n), step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) == count
    want = scipy.linalg.expm(A) @ np.ones(n)
    np.testing.assert_allclose(traj.final_state, want, rtol=1e-12)
    assert peak < bound


def revisiting_system(n, n_modes):
    """``n_modes`` stable modes of dimension n, every pair joined by the
    identity, and a signal that visits mode 0 three times with unequal dwells."""
    rng = np.random.default_rng(n)
    modes = tuple(
        Mode(f"m{k}", n, -0.5 * np.eye(n) + 0.05 * rng.standard_normal((n, n)))
        for k in range(n_modes)
    )
    identity = TransitionMap(n, n, np.eye(n))
    rule = {(i, j): identity for i in range(n_modes) for j in range(n_modes) if i != j}
    visits = [0, 1, 0, n_modes - 1, 0]
    switch_times = [0.05, 0.08, 0.3, 0.33]
    return DvSystem(modes, rule), fixed_signal(0.34, switch_times, modes=visits[1:])


@pytest.mark.parametrize("n, n_modes", [(64, 2), (64, 3), (3, 2)])
def test_revisits_reuse_the_flow_bit_for_bit(n, n_modes):
    # n = 64: blocks and anchor stacks of 8, so the 220-step visit needs
    # more anchors than the first stack holds; the arrays of three such
    # modes do not all fit the cache, and what does not fit is recomputed
    system, signal = revisiting_system(n, n_modes)
    step = 1e-3
    traj = simulate(system, signal, np.linspace(1.0, -1.0, n), step)
    assert traj.segment_modes == (0, 1, 0, n_modes - 1, 0)
    assert [len(seg.times) for seg in traj.segments] == [51, 31, 221, 31, 11]
    for seg, mi in zip(traj.segments, traj.segment_modes):
        alone = integrate_mode(system.modes[mi], seg.states[0], seg.times[0], seg.times[-1], step)
        np.testing.assert_array_equal(seg.times, alone.times)
        np.testing.assert_array_equal(seg.states, alone.states)


def test_a_revisit_within_the_cache_takes_no_exponential(monkeypatch):
    # mode 0 runs 0.3, then 0.2: its second visit needs fewer powers and
    # anchors than the first kept
    log = []
    real_stack, real_integrate = dynamics._expm_stack, dynamics.integrate_mode

    def stack(A, ts):
        log.append("stack")
        return real_stack(A, ts)

    def integrate(mode, *args):
        log.append(mode.label)
        return real_integrate(mode, *args)

    monkeypatch.setattr(dynamics, "_expm_stack", stack)
    monkeypatch.setattr(dynamics, "integrate_mode", integrate)
    system = contraction_system()
    signal = fixed_signal(0.9, switch_times=[0.3, 0.7], modes=[1, 0])
    simulate(system, signal, [1.0, 2.0], 1e-3)
    assert log[0] == "planar" and log.count("planar") == 2
    second = log.index("planar", 1)
    assert "stack" in log[:second] and "stack" not in log[second:]


def test_simulate_keeps_nothing_between_calls(monkeypatch):
    counts = []
    real_stack = dynamics._expm_stack
    monkeypatch.setattr(
        dynamics, "_expm_stack", lambda A, ts: counts.append(len(ts)) or real_stack(A, ts)
    )
    system, signal = revisiting_system(64, 3)
    per_call = []
    for _ in range(2):
        counts.clear()
        simulate(system, signal, np.ones(64), 1e-3)
        per_call.append(list(counts))
    assert per_call[0] and per_call[0] == per_call[1]


def test_exact_flow_does_not_compound_rounding():
    # c03 at step 1e-4: the closed loop reaches (1.5e, 1.5e) at the handoff
    scenario = load_scenario(scenario_path("two_stage_steering.json"), step=1e-4)
    traj = simulate(scenario.system, scenario.signal, scenario.x0, scenario.step)
    assert np.abs(traj.events[0].pre_state - 1.5 * math.e).max() <= 1e-13


def scalar_grid(t0, t1, step):
    """The sample times of [t0, t1] by the scalar formula: t0 + i step up to
    t1, the last snapped to t1 within 1e-12 max(1, |t1|), else t1 appended."""
    n_full = int(math.floor((t1 - t0) / step + 1e-12))
    want = [t0 + i * step for i in range(n_full + 1)]
    if t1 - want[-1] > 1e-12 * max(1.0, abs(t1)):
        want.append(t1)
    else:
        want[-1] = t1
    return want


def test_grid_matches_the_scalar_formula():
    # a seeded sweep over |t0| up to 1e7, with t1 on, near and between
    # lattice times, at every step of at least 3 _TIME_EPS max(1, |t1|)
    rng = np.random.default_rng(30)
    cases = [(0.0, 1.0, 1e-3), (0.3, 4.0, 1e-4), (1.7, 2.2, 0.03), (2.0, 2.0, 0.1),
             (28.800000000000004, 29.0, 1e-3), (1e6, 1e6 + 1.0, 1e-3)]
    while len(cases) < 3000:
        t0 = float(rng.choice([0.0, 1.0, -1.0]) * 10.0 ** rng.uniform(-3.0, 7.0))
        step = float(10.0 ** rng.uniform(-6.0, 0.0))
        frac = rng.choice([0.0, 0.4, 0.5, 1.0 - 1e-9, 1e-9, 1e-12])
        t1 = t0 + (int(rng.integers(0, 1000)) + frac) * step
        t1 += float(rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.0, 2e-12) * max(1.0, abs(t1)))
        if t0 <= t1 and step >= 3 * dynamics._TIME_EPS * max(1.0, abs(t1)):
            cases.append((t0, t1, step))
    tails = 0
    for t0, t1, step in cases:
        want = scalar_grid(t0, t1, step)
        times, lattice = dynamics._grid(t0, t1, step)
        assert times.tolist() == want, (t0, t1, step)
        # every sample before t1 is a lattice time, and the flow takes a
        # tail exponential only where the scalar rule did
        assert len(times) - 1 <= lattice <= len(times)
        tail = lattice < len(times)
        on = lattice if tail else lattice - 1
        np.testing.assert_array_equal(times[:on], t0 + np.arange(on) * step)
        assert not tail or abs(want[-1] - want[-2] - step) > 1e-12, (t0, t1, step)
        tails += tail
    assert 0 < tails < len(cases)


def test_a_segment_far_from_zero_takes_no_tail_exponential(expm_spy):
    # [1e6, 1e6 + 1] at step 1e-3 ends on its lattice as at t0 = 0: one
    # stack of the three anchors past t0 and the step
    A = np.array([[-0.3, 1.0], [-1.0, -0.3]])
    for t0 in (0.0, 1e4, 1e6):
        expm_spy["stacks"] = []
        seg = integrate_mode(Mode("m", 2, A), [1.0, 0.0], t0, t0 + 1.0, 1e-3)
        assert len(seg.times) == 1001 and seg.times[-1] == t0 + 1.0
        assert [len(ts) for ts in expm_spy["stacks"]] == [4], t0


def test_the_last_dwell_of_two_mode_contraction_ends_on_its_lattice(expm_spy):
    # its last sample, 29.0, lies 4e-15 below the lattice time 200 steps from
    # 28.800000000000004: a lattice sample, so the dwell takes the step's
    # exponential and no tail slice
    scenario = load_scenario(scenario_path("two_mode_contraction.json"))
    traj = simulate(scenario.system, scenario.signal, scenario.x0, scenario.step)
    seg, mode = traj.segments[-1], scenario.system.modes[traj.segment_modes[-1]]
    assert (seg.times[0], seg.times[-1], len(seg.times)) == (28.800000000000004, 29.0, 201)
    times, lattice = dynamics._grid(seg.times[0], seg.times[-1], scenario.step)
    assert lattice == len(times) == 201
    np.testing.assert_array_equal(times, seg.times)
    expm_spy["stacks"] = []
    alone = integrate_mode(mode, seg.states[0], seg.times[0], seg.times[-1], scenario.step)
    assert expm_spy["stacks"] == [[scenario.step]]
    np.testing.assert_array_equal(alone.states, seg.states)


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
    real_stack = dynamics._expm_stack
    monkeypatch.setattr(
        dynamics, "_expm_stack", lambda A, ts: calls.append(ts) or real_stack(A, ts)
    )
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    B = np.array([[1.0], [0.0]])
    open_loop = Mode("open", 2, A)
    affine = Mode("affine", 2, A, inputs=B, feedback=AffineFeedback([[-1.0, 0.0]], [0.5]))
    linear = Mode("linear", 2, A, inputs=B, feedback=AffineFeedback([[-1.0, 0.0]], [0.0]))
    evaluator = Mode("evaluator", 2, A, inputs=B, feedback=lambda t, x: -x[:1])
    channels = replace(affine, label="channels", inputs=(lambda x: np.array([1.0, 0.0]),))
    noise = Disturbance(1, lambda t: np.array([math.sin(t)]))
    cases = [
        (open_loop, None, True),
        (affine, None, True),
        (linear, None, True),
        (rk4_mode(open_loop), None, False),
        (rk4_mode(affine), None, False),
        (evaluator, None, False),
        (channels, None, False),
        (open_loop, noise, False),
        (affine, noise, False),
    ]
    for mode, disturbance, exact in cases:
        calls.clear()
        integrate_mode(mode, [1.0, -1.0], 0.0, 1.0, 0.1, disturbance=disturbance)
        assert bool(calls) == exact, (mode.label, disturbance)
        # dwell analysis takes the mode iff its own path is exact and unbordered
        G = dynamics._generator(mode)
        if disturbance is None:
            assert (G is not None) == exact, mode.label
        try:
            closed_loop_drift(mode)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (G is not None and len(G) == mode.dim), mode.label


@pytest.mark.parametrize(
    "name",
    [
        "two_mode_contraction.json",
        "two_stage_steering.json",
        "feedback_switch_fixed.json",
        "feedback_switch_random.json",
        "ddp_two_mode.json",
        "reduction_sweep.json",
    ],
)
def test_shipped_scenarios_take_the_exact_path(monkeypatch, name):
    # no visit builds an RK4 right-hand side, and every generator a visit
    # moves by has its step's exponential taken (the visits of one mode
    # share it, so there can be fewer than one per segment)
    calls = set()
    real_stack = dynamics._expm_stack

    def stack(A, ts):
        calls.update((A.tobytes(), t) for t in ts.tolist())
        return real_stack(A, ts)

    monkeypatch.setattr(dynamics, "_expm_stack", stack)

    def no_rk4(mode, disturbance):
        raise AssertionError(f"mode {mode.label!r} runs RK4")

    monkeypatch.setattr(dynamics, "_mode_rhs", no_rk4)
    scenario = load_scenario(scenario_path(name))
    traj = simulate(scenario.system, scenario.signal, scenario.x0, scenario.step)
    moved = {
        dynamics._generator(scenario.system.modes[mi]).tobytes()
        for seg, mi in zip(traj.segments, traj.segment_modes)
        if len(seg.times) > 1
    }
    assert moved and {(G, scenario.step) for G in moved} <= calls


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


def test_flat_input_and_output_matrices_read_as_a_column_and_a_row():
    mode = Mode("m", 3, -np.eye(3), [1.0, 2.0, 3.0])
    assert mode.inputs.shape == (3, 1) and mode.n_inputs == 1
    np.testing.assert_array_equal(mode.inputs[:, 0], [1.0, 2.0, 3.0])
    assert Mode("m", 3, -np.eye(3)).n_inputs == 0
    flat = OutputMap.from_matrix([1.0, 2.0])
    assert flat.q == 2 and flat.matrix.shape == (1, 2)
    np.testing.assert_array_equal(flat([1.0, 1.0]), [3.0])


def test_a_trajectory_without_segments_has_no_sample_times():
    assert Trajectory((), (), []).times.shape == (0,)


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
    (only,) = traj.segments
    np.testing.assert_array_equal(traj.times, seg.times)
    np.testing.assert_array_equal(only.states, seg.states)
    assert traj.events == []


def test_simulate_logs_one_event_per_switch():
    system = contraction_system()
    signal = fixed_signal(10.0, dwell_pattern=[2.0], n_modes=2)
    traj = simulate(system, signal, [1.0, 2.0], 1e-2)
    assert len(traj.events) == len(signal.switch_times)
    assert [ev.time for ev in traj.events] == list(signal.switch_times)
    # one segment per dwell interval, spanning it in that interval's mode
    # and dimension
    intervals = signal.intervals()
    assert len(traj.segments) == len(intervals)
    for seg, mode, (ta, tb, mi) in zip(traj.segments, traj.segment_modes, intervals):
        assert mode == mi
        assert seg.states.shape[1] == system.modes[mi].dim
        assert seg.times[0] == ta and seg.times[-1] == tb
    # the logged gap is the metric distance across the switch, bit for bit
    for ev in traj.events:
        assert ev.gap == v_dist(ev.pre_state, ev.post_state)


def test_simulate_projects_foreign_initial_state():
    system = contraction_system()
    signal = fixed_signal(0.5, n_modes=2)
    traj = simulate(system, signal, [1.0, 2.0, 3.0], 1e-2)
    assert traj.events[0].time == 0.0
    first = traj.segments[0].states[0]
    assert first.size == 2
    np.testing.assert_allclose(first, project([1.0, 2.0, 3.0], 2))


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
    before, after = traj.segment_vnorms
    assert abs(after[0] - before[-1]) <= 1e-9


def test_simulate_zero_disturbance_is_bit_identical():
    system = contraction_system()
    signal = fixed_signal(3.0, dwell_pattern=[1.0], n_modes=2)
    quiet = Disturbance(3, lambda t: np.zeros(3))
    # any disturbance sends a mode to RK4; the reference runs RK4 undisturbed
    a = simulate(rk4_system(system), signal, [1.0, 2.0], 1e-2)
    b = simulate(replace(system, disturbance=quiet), signal, [1.0, 2.0], 1e-2)
    assert len(a.segments) == len(b.segments)
    for sa, sb in zip(a.segments, b.segments):
        np.testing.assert_array_equal(sa.states, sb.states)


def test_simulate_disturbance_of_foreign_dim():
    system = contraction_system()
    signal = fixed_signal(1.0, n_modes=2)
    noisy = Disturbance(3, lambda t: np.array([math.sin(t), 0.0, 0.1]))
    traj = simulate(replace(system, disturbance=noisy), signal, [1.0, 2.0], 1e-2)
    base = simulate(rk4_system(system), signal, [1.0, 2.0], 1e-2)
    assert v_dist(traj.final_state, base.final_state) > 0


def _rk4_projecting_each_stage(A, eta, x0, times):
    """RK4 of dx/dt = A (x + project(eta(t), n)) on ``times``, projecting
    eta afresh at every stage, with the arithmetic of ``integrate_mode``."""
    rhs = lambda t, x: A @ (x + project(eta(t), len(x))) if eta(t).any() else A @ x
    x, grid, states = np.asarray(x0, dtype=float), times.tolist(), [x0]
    for k in range(1, len(grid)):
        t, h = grid[k - 1], grid[k] - grid[k - 1]
        k1 = rhs(t, x)
        k2 = rhs(t + h / 2, x + (h / 2) * k1)
        k3 = rhs(t + h / 2, x + (h / 2) * k2)
        k4 = rhs(t + h, x + h * k3)
        x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(x)
    return np.array(states)


@pytest.mark.parametrize("dim", [2, 3])
def test_a_segment_builds_at_most_one_bridge_for_its_disturbance(monkeypatch, dim):
    built = []
    real = dynamics.bridge
    spy = lambda n, p: built.append((n, p)) or real(n, p)
    monkeypatch.setattr(dynamics, "bridge", spy)
    monkeypatch.setattr(cdspace, "bridge", spy)
    eta = Disturbance(dim, lambda t: np.array([math.sin(t), 0.5, -0.25][:dim]))
    seg = integrate_mode(Mode("m", 2, CONTRACT_A1), [1.0, 2.0], 0.0, 1.05, 0.1, eta)
    assert built == ([(2, 3)] if dim == 3 else [])
    np.testing.assert_array_equal(
        seg.states, _rk4_projecting_each_stage(CONTRACT_A1, eta, [1.0, 2.0], seg.times))


@pytest.mark.parametrize("dim", [2, 3])
def test_a_non_finite_disturbance_raises_value_error(dim):
    eta = Disturbance(dim, lambda t: np.full(dim, math.nan if t > 0.25 else 0.0))
    with pytest.raises(ValueError, match="^vector entries must be finite$"):
        integrate_mode(Mode("m", 2, CONTRACT_A1), [1.0, 2.0], 0.0, 1.0, 0.1, eta)


def test_simulate_checks_the_rule_before_integrating(monkeypatch):
    calls = []
    real = dynamics.integrate_mode
    monkeypatch.setattr(
        dynamics, "integrate_mode", lambda *args: calls.append(args) or real(*args)
    )
    rule = {(0, 1): explicit_rule()[(0, 1)]}
    system = DvSystem(contraction_system().modes, rule)
    signal = fixed_signal(3.0, switch_times=[1.0, 2.0], modes=[1, 0])
    with pytest.raises(ValueError, match=r"no transition map for mode pair \(1, 0\)"):
        simulate(system, signal, [1.0, 2.0], 1e-2)
    assert calls == []
    simulate(system, fixed_signal(3.0, switch_times=[1.0], modes=[1]), [1.0, 2.0], 1e-2)
    assert len(calls) == 2


def test_divergence_names_the_visit_that_diverged():
    # mode 0 runs on [0, 1) and again on [2, 3]; the disturbance overflows
    # RK4 only from t = 2.5, so the second visit, segment 2, diverges
    mode = Mode("grow", 1, np.array([[1.0]]))
    flip = {(0, 1): TransitionMap(1, 1, [[-1.0]]), (1, 0): TransitionMap(1, 1, [[-1.0]])}
    kick = Disturbance(1, lambda t: np.array([1e308 if t >= 2.5 else 0.0]))
    system = DvSystem((mode, replace(mode, label="flipped")), flip, disturbance=kick)
    signal = fixed_signal(3.0, switch_times=[1.0, 2.0], modes=[1, 0])
    with pytest.raises(NumericFailure) as err:
        simulate(system, signal, [1.0], 0.1)
    assert (err.value.operation, err.value.segment) == ("integrate_mode", 2)
    assert str(err.value) == (
        "state diverged in mode 'grow' (operation=integrate_mode, segment=2, t=2.6)"
    )


def _array_holders():
    """(class name, builder) of every frozen dataclass that holds arrays."""
    mode = Mode("a", 2, -np.eye(2))
    scenario = scenario_path("two_mode_contraction.json")
    builders = {
        "TransitionMap": lambda: nearest_map(2, 3),
        "JumpEvent": lambda: make_jump_event(0.5, [1.0, 2.0], [1.0, 2.0, 3.0]),
        "Mode": lambda: Mode("a", 2, -np.eye(2)),
        "OutputMap": lambda: OutputMap.from_matrix([[1.0, 2.0]]),
        "DvSystem": contraction_system,
        "Segment": lambda: integrate_mode(mode, [1.0, 2.0], 0.0, 0.1, 0.01),
        "Trajectory": lambda: simulate(contraction_system(), fixed_signal(1.0, n_modes=2),
                                       [1.0, 2.0], 0.1),
        "Scenario": lambda: load_scenario(scenario),
        "ReducedModel": lambda: reduce_model(-np.eye(4), m=2),
        "ErrorSeries": lambda: approx_error(-np.eye(4), [1.0, 2.0, 3.0, 4.0], 2, [1.0]),
        "AggregateResult": lambda: aggregate_run(mode, Mode("b", 4, -np.eye(4)),
                                                 [1.0, 2.0, 3.0, 4.0], 0.1, 0.01),
    }
    return [pytest.param(name, build, id=name) for name, build in builders.items()]


@pytest.mark.parametrize("name, build", _array_holders())
def test_array_holders_compare_by_identity(name, build):
    a, b = build(), build()
    assert type(a).__name__ == name
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert hash(a) == hash(a) and a in {a} and b not in {a}
    assert len({a, b, a}) == 2


def test_jump_overflow_names_the_switch_time():
    mode = Mode("still", 1, np.array([[0.0]]))
    flip = {(0, 1): TransitionMap(1, 1, [[-1.0]])}
    system = DvSystem((mode, replace(mode, label="flipped")), flip)
    signal = fixed_signal(1.0, switch_times=[0.5], modes=[1])
    with pytest.raises(NumericFailure) as err:
        simulate(system, signal, [1e308], 0.1)
    assert (err.value.operation, err.value.time) == ("jump", 0.5)
    assert str(err.value) == "jump gap overflowed (operation=jump, t=0.5)"


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


@pytest.mark.parametrize("mu", [-1.0, math.inf, math.nan])
def test_impulse_scale_must_be_finite_and_nonnegative(mu):
    with pytest.raises(ValueError, match="impulse_scale must be finite and >= 0"):
        DvSystem(contraction_system().modes, impulse_scale=mu)


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
    assert traj.segment_outputs is not None
    for seg, Y, k in zip(traj.segments, traj.segment_outputs, (0, -1)):
        x = seg.states[k]
        np.testing.assert_allclose(
            Y[k], H @ project(x, 2) if x.size != 2 else H @ x, atol=1e-12
        )
    q, _, h = get_output_function("ddp_output6")
    system2 = DvSystem(
        contraction_system().modes, output=OutputMap.from_function(h, q)
    )
    traj2 = simulate(system2, signal, [1.0, 2.0], 1e-1)
    assert traj2.segment_outputs[0][0][0] == pytest.approx(
        lift_function(h, q, traj2.segments[0].states[0])[0]
    )


def test_registry_output_maps_take_each_segment_in_one_call(monkeypatch):
    # config evaluates a registry output function once per segment, on all
    # its states at once, bit for bit as the per-state map of from_function
    q, p, h = get_output_function("ddp_output6")
    calls = []

    def counted(w):
        calls.append(np.shape(w))
        return h(w)

    monkeypatch.setitem(registry.OUTPUT_FUNCTIONS, "ddp_output6", (q, p, counted))
    scenario = load_scenario(scenario_path("ddp_two_mode.json"))
    traj = simulate(scenario.system, scenario.signal, scenario.x0, scenario.step)
    per_state = OutputMap.from_function(h, q)
    for seg, Y in zip(traj.segments, traj.segment_outputs):
        assert Y.shape == (len(seg.times), p)
        assert np.array_equal(Y, per_state.of_rows(seg.states))
    assert calls == [(q, len(seg.times)) for seg in traj.segments]
    # several outputs come back one row per state; a library callable keeps
    # the one-state contract
    S = RNG.standard_normal((5, q))
    h2 = lambda w: np.array([w[0] * w[1], w[2] - w[3]])  # noqa: E731
    assert np.array_equal(OutputMap._from_columns(h2, q).of_rows(S),
                          OutputMap.from_function(h2, q).of_rows(S))
    assert np.array_equal(OutputMap.from_function(lambda x: [max(x)], q).of_rows(S),
                          S.max(axis=1, keepdims=True))


def test_simulate_overflowing_transition_is_a_numeric_failure():
    rule = {
        (0, 1): TransitionMap(2, 4, [[1e300, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        (1, 0): TransitionMap(4, 2, bridge(2, 4)),
    }
    system = DvSystem(contraction_system().modes, rule)
    signal = fixed_signal(2.0, switch_times=[1.0], modes=[1], n_modes=2)
    with pytest.raises(NumericFailure, match="transition 0->1") as info:
        simulate(system, signal, [1e10, 1e10], 1e-2)
    assert (info.value.operation, info.value.time) == ("transition", 1.0)


def test_a_flow_overflowing_in_a_later_visit_names_its_sample_and_segment():
    # mode 0 runs on [0, 0.05] and again from 0.1, after mode 1 has damped
    # the state to about 1e-7; x_0 = 1e-7 e^{1183 (t - 0.1)} first overflows
    # at t = 0.714, sample 614 of the visit, inside its third block
    ident = TransitionMap(2, 2, np.eye(2))
    grow = Mode("grow", 2, np.diag([1183.0, -1.0]))
    damp = Mode("damp", 2, np.diag([-1500.0, -1.0]))
    system = DvSystem((grow, damp), {(0, 1): ident, (1, 0): ident})
    signal = fixed_signal(1.0, switch_times=[0.05, 0.1], modes=[1, 0])
    with pytest.raises(NumericFailure) as err:
        simulate(system, signal, [1.0, 1.0], 1e-3)
    assert 2 * dynamics._FLOW_BLOCK <= 614 < 3 * dynamics._FLOW_BLOCK
    assert (err.value.operation, err.value.segment, err.value.time) == ("integrate_mode", 2, 0.714)


def test_an_output_overflowing_mid_segment_names_its_sample():
    # y = 1e308 e^t overflows first at the sample t = 0.587, the 288th of
    # the second segment [0.3, 1]; the output names no segment
    one = TransitionMap(1, 1, [[1.0]])
    modes = (Mode("grow", 1, [[1.0]]), Mode("again", 1, [[1.0]]))
    system = DvSystem(modes, {(0, 1): one, (1, 0): one}, output=OutputMap.from_matrix([[1e308]]))
    traj = simulate(system, fixed_signal(1.0, switch_times=[0.3], modes=[1]), [1.0], 1e-3)
    with pytest.raises(NumericFailure, match="output map overflowed") as err:
        traj.segment_outputs
    assert (err.value.operation, err.value.segment, err.value.time) == ("output", None, 0.587)


def test_overflowing_output_is_a_numeric_failure_at_its_first_sample():
    # y = 1e308 e^t overflows once e^t > 1.797..., first at the sample t = 0.6
    system = DvSystem((Mode("grow", 1, [[1.0]]),), output=OutputMap.from_matrix([[1e308]]))
    traj = simulate(system, fixed_signal(1.0, n_modes=1), [1.0], 0.1)
    with pytest.raises(NumericFailure, match="output map overflowed") as info:
        traj.segment_outputs
    assert info.value.operation == "output"
    assert info.value.time == pytest.approx(0.6, abs=1e-12)


# ---------------------------------------------------------------- embed_common

def test_embed_common_dimension():
    modes = (Mode("a", 2, np.zeros((2, 2))), Mode("b", 3, np.zeros((3, 3))))
    emb = embed_common(DvSystem(modes))
    assert all(m.dim == 6 for m in emb.modes)


def test_embed_common_single_mode_unchanged():
    system = DvSystem((Mode("only", 3, np.eye(3)),))
    emb = embed_common(system)
    assert emb.modes[0] is system.modes[0]


def test_embed_common_carries_the_disturbance():
    noise = Disturbance(3, lambda t: np.array([math.sin(t), 0.0, 0.1]))
    system = replace(contraction_system(), disturbance=noise)
    assert embed_common(system).disturbance is system.disturbance
    assert embed_common(contraction_system()).disturbance is None


def test_embed_common_mirrors_trajectories():
    system = contraction_system()
    signal = fixed_signal(8.0, dwell_pattern=[3.6], n_modes=2)
    x0 = np.array([1.0, 2.0])
    original = simulate(system, signal, x0, 1e-2)
    emb = embed_common(system)
    mirrored = simulate(emb, signal, project(x0, 4), 1e-2)
    worst = max(v_dist(a, b) for a, b in paired_states(original, mirrored))
    assert worst <= 1e-9
    # replication structure on the first dwell interval (mode of dim 2)
    k = 10
    np.testing.assert_allclose(
        mirrored.segments[0].states[k],
        kron_lift(original.segments[0].states[k], 2),
        atol=1e-9,
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
    worst = max(v_dist(a, b) for a, b in paired_states(original, mirrored))
    assert worst <= 1e-9


# ------------------------------------------------------------------ rule table

def explicit_rule():
    return {
        (0, 1): TransitionMap(2, 4, 1.5 * np.repeat(np.eye(2), 2, axis=0)),
        (1, 0): TransitionMap(4, 2, bridge(2, 4)),
    }


def test_nearest_table_maps_every_pair_to_its_nearest_map():
    modes = tuple(Mode(f"m{n}", n, -np.eye(n)) for n in (2, 3, 4))
    system = DvSystem(modes)
    assert set(system.table) == {(i, j) for i in range(3) for j in range(3) if i != j}
    for (i, j), tm in system.table.items():
        want = nearest_map(modes[i].dim, modes[j].dim)
        assert (tm.source_dim, tm.target_dim) == (want.source_dim, want.target_dim)
        assert tm.matrix.tobytes() == want.matrix.tobytes()
    assert system.table is system.table  # built once; every switch reads it
    assert DvSystem(modes[:1]).table == {}


def test_explicit_table_is_the_rule_as_given():
    rule = explicit_rule()
    assert DvSystem(contraction_system().modes, rule).table is rule


@pytest.mark.parametrize("rule", ["nearest", explicit_rule()])
def test_the_table_gives_dwell_its_lipschitz_and_embed_its_maps(rule):
    system = DvSystem(contraction_system().modes, rule)
    largest = max(tm.lipschitz for tm in system.table.values())
    delta = dwell_bound(system, 0.03)
    assert delta is not None
    assert delta == dwell_bound(system, 0.03, lipschitz=largest)
    embedded = embed_common(system).table
    assert embedded.keys() == system.table.keys()
    # an embedded reset map's constant equals its original's exactly
    for key, tm in system.table.items():
        assert embedded[key].lipschitz == tm.lipschitz
        assert embedded[key].lipschitz == pytest.approx(op_vnorm(embedded[key].matrix), rel=1e-14)
    if rule == "nearest":
        assert largest == 1.0


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


def scalar_dwell_bound(mats, gamma, lipschitz):
    """The point-by-point dwell scan and bisection the stacked scan replaced."""

    def contracts(delta):
        worst = max(np.linalg.norm(expm(A, delta), 2) for A in mats)
        return lipschitz * worst <= 1.0 - gamma

    lo, hi = 0.0, None
    d = 0.05
    while d <= 50.0 + 1e-12:
        if contracts(d):
            hi = d
            break
        lo = d
        d += 0.05
    if hi is None:
        return None
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if contracts(mid):
            hi = mid
        else:
            lo = mid
    return hi


def nonmonotone_pair():
    # eigenvalues -0.3 +- 2i: ||e^{tA}||_2 oscillates on its way down
    A = np.array([[-0.3, 4.0], [-1.0, -0.3]])
    return (A, A.copy())


@pytest.mark.parametrize(
    "mats, gamma, lipschitz, want",
    [
        ((CONTRACT_A1, CONTRACT_A2), 0.03, 3.0, 3.5898437499999947),
        (nonmonotone_pair(), 0.03, 1.0, 1.3125000000000004),
        (nonmonotone_pair(), 0.3, 1.0, 1.5070312500000005),
    ],
)
def test_dwell_scan_matches_the_scalar_scan(mats, gamma, lipschitz, want):
    system = DvSystem(tuple(Mode(f"m{i}", len(A), A) for i, A in enumerate(mats)))
    got = dwell_bound(system, gamma, lipschitz=lipschitz)
    assert got == scalar_dwell_bound(mats, gamma, lipschitz) == want
    assert type(got) is float


def test_dwell_scan_matches_the_scalar_scan_on_random_hurwitz_systems(monkeypatch):
    rng = np.random.default_rng(1999)
    hits = 0
    for case in range(200):
        # chunks of one point put every hit on a chunk's first point
        monkeypatch.setattr(dynamics, "_DWELL_CHUNK", (32, 5, 1)[case % 3])
        mats = []
        for _ in range(rng.integers(1, 4)):
            n = int(rng.integers(1, 6))
            A = rng.standard_normal((n, n)) * rng.uniform(0.2, 3.0)
            decay = rng.uniform(0.1, 2.0)
            mats.append(A - (np.linalg.eigvals(A).real.max() + decay) * np.eye(n))
        gamma, lipschitz = rng.uniform(0.01, 0.9), rng.uniform(0.3, 4.0)
        system = DvSystem(tuple(Mode(f"m{i}", len(A), A) for i, A in enumerate(mats)))
        want = scalar_dwell_bound(mats, gamma, lipschitz)
        assert dwell_bound(system, gamma, lipschitz=lipschitz) == want
        hits += want is not None and want > 0.05 * 32
    assert hits >= 20  # the cases reach past the first chunk of 32 points


@pytest.fixture
def expm_slices(monkeypatch):
    """Counts the matrices ``scipy.linalg.expm`` exponentiates: a stacked
    call costs one slice per matrix of the stack."""
    seen = {"slices": 0}
    scipy_expm = scipy.linalg.expm

    def spy(X):
        X = np.asarray(X)
        seen["slices"] += 1 if X.ndim == 2 else len(X)
        return scipy_expm(X)

    monkeypatch.setattr(scipy.linalg, "expm", spy)
    return seen


def test_dwell_scan_takes_few_exponential_slices(expm_slices, expm_spy):
    scenario = load_scenario(scenario_path("two_mode_contraction.json"))
    block = scenario.experiment["dwell"]
    delta = dwell_bound(scenario.system, block["gamma"], lipschitz=block["lipschitz"])
    assert delta == 3.5898437499999947
    # one step exponential and one anchor per chunk and mode, and the 2 x 6
    # halvings of the bisection; one exponential per grid point took 130
    assert expm_slices["slices"] <= 24
    assert expm_spy["expm"] == 0


def dwell_grid():
    """The grid points dwell_bound scans, as it builds them."""
    count = round(dynamics._MAX_DWELL / dynamics._DWELL_GRID)
    return np.cumsum(np.r_[0.0, np.full(count, dynamics._DWELL_GRID)])


def grid_crossings(A, lipschitz, count):
    """Up to ``count`` grid indices j whose L ||e^{t_j A}||_2, as the exact
    test computes it, lies in [0.5, 1) below every earlier point's: with
    1 - gamma equal to it, the scan's first contracting point is j."""
    grid, found, lowest = dwell_grid(), [], math.inf
    for j in range(1, len(grid)):
        value = lipschitz * np.linalg.norm(expm(A, grid[j]), 2)
        if 0.5 <= value < min(lowest, 1.0):
            found.append(j)
        lowest = min(lowest, value)
        if len(found) == count or lowest < 0.5:
            break
    return found


@pytest.mark.parametrize("chunk", [1, 5, 32])
def test_dwell_screen_sends_a_point_on_the_bound_to_the_exact_test(monkeypatch, chunk):
    monkeypatch.setattr(dynamics, "_DWELL_CHUNK", chunk)
    rotation = np.array([[-0.3, 4.0], [-1.0, -0.3]])
    dense = np.random.default_rng(6).standard_normal((6, 6))
    dense -= (np.linalg.eigvals(dense).real.max() + 0.3) * np.eye(6)
    cases = 0
    for A, lipschitz in [(CONTRACT_A1, 1.0), (CONTRACT_A2, 2.0), (rotation, 1.0), (dense, 1.0)]:
        for j in grid_crossings(A, lipschitz, 12):
            # 1 - gamma is L ||e^{t_j A}||_2 exactly, so the screened norm at
            # t_j lies inside the band and only the exact test decides it
            bound = lipschitz * np.linalg.norm(expm(A, dwell_grid()[j]), 2)
            gamma = 1.0 - bound
            assert 1.0 - gamma == bound
            got = dwell_bound(DvSystem((Mode("m", len(A), A),)), gamma, lipschitz=lipschitz)
            want = scalar_dwell_bound([A], gamma, lipschitz)
            assert got == want and dwell_grid()[j - 1] < want <= dwell_grid()[j]
            cases += 1
    assert cases >= 30


@pytest.mark.parametrize("chunk", [1, 5, 32])
def test_dwell_screen_falls_back_for_a_strongly_non_normal_mode(monkeypatch, chunk):
    monkeypatch.setattr(dynamics, "_DWELL_CHUNK", chunk)
    exact = dynamics._contracting
    runs = []

    def spy(A, ds, lipschitz, bound):
        runs.append(len(ds))
        return exact(A, ds, lipschitz, bound)

    monkeypatch.setattr(dynamics, "_contracting", spy)
    steep = np.array([[-1.0, 1e8], [0.0, -1.0]])
    # ||e^{tA}||_2 is about 1e8 t e^{-t}: it contracts from t of about 21.6 on
    for gamma, lipschitz in [(0.03, 1.0), (0.2, 3.0)]:
        runs.clear()
        system = DvSystem((Mode("steep", 2, steep), Mode("calm", 2, -np.eye(2))))
        got = dwell_bound(system, gamma, lipschitz=lipschitz)
        assert got == scalar_dwell_bound([steep, -np.eye(2)], gamma, lipschitz)
        assert got is not None and got > 20.0
        # the band is not small, so whole runs of grid points take the exact test
        assert max(runs) == chunk


@pytest.mark.parametrize("n, scale, case", [(7, 1000.0, 23), (7, 3000.0, 14)])
def test_dwell_screen_leaves_a_large_hump_to_the_exact_test(n, scale, case):
    # triangular, with couplings in the thousands: sup_t ||e^{tA}||_2 is huge,
    # and near the crossing the exact test's own exponential errs by more
    # than the screen's factor norms show, so only the hump term of the band
    # sends these points to it
    rng = np.random.default_rng([n, case])
    A = np.triu(rng.standard_normal((n, n)), 1) * scale
    A[np.diag_indices(n)] = -rng.uniform(0.3, 3.0, n)
    got = dwell_bound(DvSystem((Mode("m", n, A),)), 0.1, lipschitz=1.0)
    assert got == scalar_dwell_bound([A], 0.1, 1.0)
    assert got is not None and got > 30.0


def test_dwell_scan_counts_an_overflow_as_no_contraction():
    up, flat, grid = np.array([[800.0]]), np.array([[0.0]]), np.arange(1, 33) * 0.05
    # e^{800 d} overflows from d = 0.9 on; neither mode contracts anywhere
    assert dynamics._first_contracting([flat, up], grid, 1.0, 0.5) is None
    assert dynamics._first_contracting([up, flat], grid, 1.0, 0.5) is None
    # 1e-3 e^{800 d} <= 0.97 at d = 0.001 only, wherever e^{800} stands
    ds = np.array([0.001, 1.0])
    assert dynamics._first_contracting([up], ds, 1e-3, 0.97) == 0
    assert dynamics._first_contracting([up], ds[::-1], 1e-3, 0.97) == 1
    # Hurwitz, but ||e^{dA}||_2 is about 1e300 d e^{-d} on the whole scan
    steep = Mode("steep", 2, np.array([[-1.0, 1e300], [0.0, -1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dwell_bound(DvSystem((steep,)), 0.5) is None


@pytest.mark.parametrize("k", [0, 1, 7, 31])
def test_dwell_screen_sends_a_run_whose_products_are_not_finite_to_the_exact_test(
        monkeypatch, k):
    scenario = load_scenario(scenario_path("two_mode_contraction.json"))
    block = scenario.experiment["dwell"]
    lipschitz, bound = block["lipschitz"], 1.0 - block["gamma"]
    A = closed_loop_drift(scenario.system.modes[0])
    powers, norm, hump4 = dynamics._dwell_screen(A)
    powers = powers.copy()
    powers[k, 0, 1, 1] = np.nan  # one entry of E^k
    exact, handed, answers = dynamics._contracting, [], set()

    def spy(A, ds, lipschitz, bound):
        handed.append(len(ds))
        return exact(A, ds, lipschitz, bound)

    monkeypatch.setattr(dynamics, "_contracting", spy)
    grid = dwell_grid()
    for c in range(1, 7 * dynamics._DWELL_CHUNK, 3):
        ts = grid[c : c + dynamics._DWELL_CHUNK]
        handed.clear()
        got = dynamics._screened(A, (powers, norm, hump4), ts, np.arange(len(ts)),
                                 lipschitz, bound)
        # every point of the run, in one exact test
        assert handed == [len(ts)]
        want = exact(A, ts, lipschitz, bound)
        np.testing.assert_array_equal(got, want)
        answers.update(want.tolist())
    assert answers == {False, True}


@pytest.mark.parametrize("lipschitz", [math.nan, math.inf, -math.inf, -1.0, 0.0])
def test_dwell_bound_rejects_a_lipschitz_override_that_is_not_positive(lipschitz):
    with pytest.raises(ValueError, match="lipschitz"):
        dwell_bound(contraction_system(), 0.03, lipschitz=lipschitz)


def test_dwell_bound_validates():
    with pytest.raises(ValueError):
        dwell_bound(contraction_system(), 1.5)
    with pytest.raises(ValueError):
        dwell_bound(DvSystem((Mode("f", 1, lambda x: -x),)), 0.1)


# ------------------------------------------------------ library argument checks

PLANAR = Mode("planar", 2, CONTRACT_A1)
QUAD = Mode("quad", 4, CONTRACT_A2)


@pytest.mark.parametrize("call, message", [
    (lambda: expm([[1.0, math.nan], [0.0, 1.0]]), "expm expects finite entries"),
    (lambda: AffineFeedback([1.0, 2.0], [0.0]),
     "feedback gain K must be a matrix, got shape (2,)"),
    (lambda: Mode("m", 0, [[0.0]]), "mode dimension must be positive"),
    (lambda: Mode("m", 2, np.eye(3)), "mode 'm': drift matrix must be 2x2, got (3, 3)"),
    (lambda: Mode("m", 2, np.eye(2), np.ones((3, 1))), "mode 'm': input matrix needs 2 rows"),
    (lambda: Mode("m", 1, [[0.0]], np.zeros((0, 1))), "mode 'm': input matrix needs 1 rows"),
    (lambda: Disturbance(2, lambda t: [t, t, t])(0.5),
     "disturbance evaluator returned dimension 3, expected 2"),
    (lambda: DvSystem(()), "system needs at least one mode"),
    (lambda: DvSystem((PLANAR, QUAD), {(0, 1): nearest_map(2, 3)}),
     "transition 0->1 must map dimension 2 to 4"),
    (lambda: integrate_mode(PLANAR, [1.0, 0.0], 1.0, 0.5, 0.1), "t1 must be >= t0"),
    (lambda: lift_field(PLANAR, 0), "lift multiplier must be >= 1"),
])
def test_argument_checks_raise_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


DECAY = Mode("decay", 1, [[-1.0]])


@pytest.mark.parametrize("t0, t1, step", [
    (0.0, 1.0, math.inf), (0.0, 1.0, math.nan), (0.0, 1.0, 0.0), (0.0, 1.0, -0.1),
    (math.nan, 1.0, 0.1), (0.0, math.nan, 0.1), (0.0, math.inf, 0.1), (-math.inf, 1.0, 0.1),
])
@pytest.mark.parametrize("mode", [DECAY, Mode("decay_rk4", 1, lambda x: -x)],
                         ids=["exact", "rk4"])
def test_integrate_mode_takes_finite_times_and_a_positive_finite_step(mode, t0, t1, step):
    # an infinite step once gave one sample stamped t1 that held x0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            integrate_mode(mode, [1.0], t0, t1, step)
    assert str(exc.value) == "step must be positive and finite, and t0 and t1 finite"


@pytest.mark.parametrize("run", [
    lambda: simulate(DvSystem((DECAY,)), fixed_signal(1.0, n_modes=1), [1.0], step=math.inf),
    lambda: simulate(DvSystem((DECAY,)), fixed_signal(1.0, n_modes=1), [1.0], step=math.nan),
    lambda: aggregate_run(DECAY, Mode("b", 2, -np.eye(2)), [1.0, 1.0], math.nan, 0.1),
    lambda: aggregate_run(DECAY, Mode("b", 2, -np.eye(2)), [1.0, 1.0], 1.0, math.inf),
])
def test_runs_take_a_finite_horizon_and_a_positive_finite_step(run):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^step must be positive"):
            run()


@pytest.mark.parametrize("pair, tm, message", [
    ((0, 0), nearest_map(2, 2), "transition 0->0: a switch into the same mode "
                                "is no jump, so its map is never applied"),
    ((2, 0), nearest_map(2, 2), "transition 2->0: mode index out of range"),
    ((-1, 0), nearest_map(4, 2), "transition -1->0: mode index out of range"),
])
def test_explicit_transitions_name_jumps_between_modes(pair, tm, message):
    # a self map is never applied but would raise dwell_bound's default L,
    # and -1 would silently name the last mode
    with pytest.raises(ValueError) as exc:
        DvSystem((PLANAR, QUAD), {(0, 1): nearest_map(2, 4), pair: tm})
    assert str(exc.value) == message
