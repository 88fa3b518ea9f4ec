import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import crossdim
from crossdim.cdspace import kron_lift, project, v_dist, v_norm
from crossdim.dkstp import _overlaps, bridge, op_vnorm
from crossdim.errors import NumericFailure
from crossdim.switching import (
    SwitchingSignal,
    TransitionMap,
    add_map,
    compose_maps,
    drop_map,
    fixed_signal,
    make_jump_event,
    nearest_map,
    random_signal,
)

RNG = np.random.default_rng(11)


# ------------------------------------------------------------- transition maps

def test_nearest_map_matrices():
    np.testing.assert_array_equal(
        nearest_map(2, 3).matrix, [[1, 0], [0.5, 0.5], [0, 1]]
    )
    np.testing.assert_array_equal(nearest_map(4, 4).matrix, np.eye(4))
    x = RNG.standard_normal(2)
    np.testing.assert_array_equal(nearest_map(2, 4)(x), kron_lift(x, 2))


def test_nearest_map_equals_projector():
    for n in range(1, 8):
        for m in range(1, 8):
            np.testing.assert_array_equal(
                nearest_map(n, m).matrix, bridge(m, n)
            )


def test_drop_map_default_and_indexed():
    np.testing.assert_array_equal(drop_map(3, 2).matrix, [[1, 0, 0], [0, 1, 0]])
    np.testing.assert_array_equal(
        drop_map(3, 2, dropped_indices=[1]).matrix, [[1, 0, 0], [0, 0, 1]]
    )


def test_drop_map_rejects_bad_dims():
    with pytest.raises(ValueError):
        drop_map(3, 3)
    with pytest.raises(ValueError):
        drop_map(3, 2, dropped_indices=[0, 1])
    with pytest.raises(ValueError):
        drop_map(3, 2, dropped_indices=[5])


def test_add_map_matrices():
    np.testing.assert_array_equal(
        add_map(2, 4).matrix, [[1, 0], [0, 1], [1, 0], [0, 1]]
    )
    np.testing.assert_array_equal(
        add_map(2, 3).matrix, [[1, 0], [0, 1], [0.5, 0.5]]
    )
    with pytest.raises(ValueError):
        add_map(3, 3)


def test_add_map_full_column_rank():
    for n in range(1, 6):
        for m in range(n + 1, 9):
            assert np.linalg.matrix_rank(add_map(n, m).matrix) == n


def test_compose_maps():
    combined = compose_maps(drop_map(3, 2), add_map(2, 4))
    np.testing.assert_array_equal(
        combined.matrix, [[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0]]
    )
    assert (combined.source_dim, combined.target_dim) == (3, 4)
    same = compose_maps(nearest_map(3, 3), drop_map(3, 2))
    np.testing.assert_array_equal(same.matrix, drop_map(3, 2).matrix)
    with pytest.raises(ValueError):
        compose_maps(drop_map(3, 2), drop_map(3, 2))


def test_compose_lipschitz_submultiplicative():
    for _ in range(50):
        a = drop_map(4, int(RNG.integers(1, 4)))
        b = add_map(a.target_dim, a.target_dim + int(RNG.integers(1, 4)))
        combined = compose_maps(a, b)
        assert combined.lipschitz <= a.lipschitz * b.lipschitz + 1e-9


def test_lipschitz_values():
    assert drop_map(3, 2).lipschitz == pytest.approx(math.sqrt(1.5), abs=1e-12)
    assert nearest_map(6, 6).lipschitz == pytest.approx(1.0, abs=1e-12)
    assert add_map(2, 4).lipschitz == pytest.approx(1.0, abs=1e-12)


def test_lipschitz_recomputable_and_bounding():
    for tm in (nearest_map(5, 3), drop_map(6, 2), add_map(3, 7)):
        assert tm.lipschitz == pytest.approx(op_vnorm(tm.matrix), abs=1e-12)
        for _ in range(50):
            x = RNG.standard_normal(tm.source_dim)
            assert v_norm(tm(x)) <= tm.lipschitz * v_norm(x) + 1e-9


def test_nearest_maps_report_lipschitz_exactly_1():
    # the SVD value lands an ulp below 1 for about a third of these pairs
    eps = np.finfo(float).eps
    for p in range(1, 41):
        for q in range(1, 41):
            tm = nearest_map(p, q)
            assert tm.lipschitz == 1.0, (p, q)
            assert abs(op_vnorm(tm.matrix) - 1.0) <= 4 * eps, (p, q)
            assert v_norm(tm(np.full(p, 3.0))) == pytest.approx(3.0, rel=4 * eps)  # attained


@pytest.mark.parametrize("lipschitz", [math.nan, -1.0])
def test_a_stated_lipschitz_must_be_nonnegative(lipschitz):
    with pytest.raises(ValueError, match="lipschitz"):
        TransitionMap(2, 2, np.eye(2), lipschitz=lipschitz)


# ------------------------------------------------------------------- jump gaps

def test_jump_gap_examples():
    assert v_dist([1, 1], [1, 1, 1]) == 0.0
    assert v_dist([2, 1], [2, 1.5, 1]) == pytest.approx(
        math.sqrt(1 / 12), abs=1e-12
    )
    x = RNG.standard_normal(4)
    assert v_dist(x, -x) == pytest.approx(2 * v_norm(x), rel=1e-12)


def test_nearest_jump_gap_is_orthogonal_residual():
    # compare squares: the subtraction-based oracle cancels badly near zero
    for _ in range(100):
        n = int(RNG.integers(1, 9))
        m = int(RNG.integers(1, 9))
        x = RNG.standard_normal(n)
        post = project(x, m)
        gap = v_dist(x, post)
        assert gap**2 == pytest.approx(
            v_norm(x) ** 2 - v_norm(post) ** 2, abs=1e-9
        )


def test_jump_event_with_gap():
    ev = make_jump_event(1.5, [2.0, 1.0], [2.0, 1.5, 1.0], mu=2.0)
    assert ev.pre_dim == 2 and ev.post_dim == 3
    assert ev.gap == pytest.approx(math.sqrt(1 / 12), abs=1e-12)
    assert ev.amplitude == pytest.approx(2.0 * ev.gap, rel=1e-15)
    assert ev.direction.size == 6
    assert v_norm(ev.direction) == pytest.approx(1.0, rel=1e-12)


def test_jump_event_continuous_switch_has_no_direction():
    x = RNG.standard_normal(2)
    ev = make_jump_event(0.5, x, kron_lift(x, 2), mu=3.0)
    assert ev.gap <= 1e-12
    assert ev.direction is None
    assert ev.amplitude == pytest.approx(0.0, abs=1e-12)


def test_jump_gap_is_v_dist_bit_for_bit():
    rng = np.random.default_rng(33843)
    for _ in range(20000):
        pre = rng.standard_normal(int(rng.integers(1, 9)))
        post = rng.standard_normal(int(rng.integers(1, 9)))
        gap = make_jump_event(0.0, pre, post).gap
        assert gap == v_dist(pre, post) == v_dist(post, pre), (pre, post)


def test_a_jump_event_does_not_build_the_lcm_lift():
    # the direction between dims 997 and 1000 would hold 997000 floats, 8 MB
    rng = np.random.default_rng(997)
    pre, post = rng.standard_normal(997), rng.standard_normal(1000)
    _overlaps.cache_clear()
    tracemalloc.start()
    try:
        ev = make_jump_event(1.0, pre, post, mu=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert ev.direction.size == 997000  # computed when read


def test_an_infinite_impulse_amplitude_names_the_switch_time():
    with pytest.raises(NumericFailure) as err:
        make_jump_event(7.2, [1e10, -1e10], [1e10, 1e10], mu=1e308)
    assert str(err.value) == "jump impulse amplitude overflowed (operation=jump, t=7.2)"


# --------------------------------------------------------------------- signals

def test_fixed_signal_from_dwell_pattern():
    sig = fixed_signal(10.0, dwell_pattern=[1.0, 2.0], n_modes=2)
    assert sig.switch_times == (1.0, 3.0, 4.0, 6.0, 7.0, 9.0)
    assert sig.modes_after == (1, 0, 1, 0, 1, 0)
    assert sig.mode_at(0.0) == 0
    assert sig.mode_at(1.0) == 1  # right continuous
    assert sig.mode_at(3.5) == 0


def test_fixed_signal_explicit_times_and_modes():
    sig = fixed_signal(5.0, switch_times=[1.0, 2.5], modes=[1, 0], n_modes=2)
    assert sig.intervals() == [(0.0, 1.0, 0), (1.0, 2.5, 1), (2.5, 5.0, 0)]


def test_fixed_signal_empty_schedule():
    sig = fixed_signal(3.0, n_modes=2)
    assert sig.switch_times == ()
    assert sig.intervals() == [(0.0, 3.0, 0)]


def test_fixed_signal_drops_switches_at_horizon():
    sig = fixed_signal(6.0, switch_times=[1.0, 3.0, 4.0, 6.0], n_modes=2)
    assert sig.switch_times == (1.0, 3.0, 4.0)


def test_random_signal_reproducible_and_bounded():
    a = random_signal(20.0, (0.5, 2.0), seed=9, n_modes=2)
    b = random_signal(20.0, (0.5, 2.0), seed=9, n_modes=2)
    assert a == b
    pts = (0.0,) + a.switch_times
    dwells = [t2 - t1 for t1, t2 in zip(pts, pts[1:])]
    assert all(0.5 <= d <= 2.0 for d in dwells)
    assert a.min_dwell > 0
    c = random_signal(20.0, (0.5, 2.0), seed=10, n_modes=2)
    assert c != a


def test_signal_validation():
    with pytest.raises(ValueError):
        fixed_signal(5.0, switch_times=[2.0, 1.0], n_modes=2)
    with pytest.raises(ValueError):
        random_signal(5.0, (0.0, 1.0), seed=1, n_modes=2)
    with pytest.raises(ValueError):
        random_signal(5.0, (2.0, 1.0), seed=1, n_modes=2)
    with pytest.raises(ValueError):
        fixed_signal(5.0, dwell_pattern=[1.0, -1.0], n_modes=2)


def test_a_signal_is_its_schedule():
    sig = fixed_signal(5.0, switch_times=[1.0, 2.5], modes=[1, 0], n_modes=2)
    assert sig == SwitchingSignal(0, (1.0, 2.5), (1, 0), 5.0)
    assert hash(sig) == hash(SwitchingSignal(0, (1.0, 2.5), (1, 0), 5.0))
    drawn = random_signal(20.0, (0.5, 2.0), seed=9, n_modes=2)
    assert drawn == fixed_signal(20.0, switch_times=drawn.switch_times, n_modes=2)
    assert not hasattr(sig, "mode_indices")


def _mode_at_by_loop(sig, t):
    """The mode at ``t`` by a walk over the switches, as mode_at once was."""
    mode = sig.initial_mode
    for ts, m in zip(sig.switch_times, sig.modes_after):
        if t >= ts:
            mode = m
        else:
            break
    return mode


def test_mode_at_agrees_with_a_walk_over_the_switches():
    rng = np.random.default_rng(29)
    for _ in range(200):
        count = int(rng.integers(0, 8))
        horizon = float(rng.uniform(1.0, 10.0))
        times = tuple(sorted(set(rng.uniform(0.0, horizon, count).tolist()) - {0.0}))
        modes = tuple(int(m) for m in rng.integers(0, 4, len(times)))
        sig = SwitchingSignal(int(rng.integers(0, 4)), times, modes, horizon)
        probes = [-math.inf, math.inf, -1.0, 0.0, horizon, 2 * horizon, *times,
                  *(np.nextafter(t, -math.inf) for t in times),
                  *rng.uniform(-1.0, horizon + 1.0, 20).tolist()]
        for t in probes:
            assert sig.mode_at(t) == _mode_at_by_loop(sig, t), (sig, t)


@pytest.mark.parametrize("call, message", [
    (lambda: fixed_signal(5.0, switch_times=[1.0, math.nan, 2.0], n_modes=2),
     "switch times must be finite"),
    (lambda: fixed_signal(5.0, switch_times=[math.nan], n_modes=2),
     "switch times must be finite"),
    (lambda: fixed_signal(5.0, dwell_pattern=[math.nan], n_modes=2),
     "dwell_pattern entries must be positive"),
    (lambda: fixed_signal(5.0, dwell_pattern=[1.0, math.nan], n_modes=2),
     "dwell_pattern entries must be positive"),
    (lambda: SwitchingSignal(0, (math.nan,), (1,), 5.0), "switch times must be finite"),
    (lambda: SwitchingSignal(0, (1.0, math.nan, 2.0), (1, 0, 1), 5.0),
     "switch times must be finite"),
    (lambda: SwitchingSignal(0, (1.0, math.inf), (1, 0), 5.0), "switch times must be finite"),
    (lambda: random_signal(10.0, (1.0, math.inf), 1, 2),
     "dwell bounds must satisfy 0 < dmin <= dmax < inf"),
    (lambda: random_signal(10.0, (math.nan, 2.0), 1, 2),
     "dwell bounds must satisfy 0 < dmin <= dmax < inf"),
    (lambda: fixed_signal(5.0, switch_times=[1.0], n_modes=2).mode_at(math.nan),
     "time must not be NaN"),
])
def test_a_nan_in_a_schedule_is_rejected(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_a_horizon_that_is_not_positive_and_finite_raises_before_any_dwell():
    # a fresh process with a timeout: a builder that sums dwells towards an
    # infinite horizon fails the test instead of hanging it
    code = (
        "import math\n"
        "from crossdim.switching import fixed_signal, random_signal\n"
        "for h in (math.inf, math.nan, -math.inf, 0.0):\n"
        "    for make in (lambda: fixed_signal(h, dwell_pattern=[1.0], n_modes=2),\n"
        "                 lambda: random_signal(h, (0.5, 1.0), seed=3, n_modes=2)):\n"
        "        try:\n"
        "            make()\n"
        "        except ValueError as exc:\n"
        "            print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(crossdim.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    finite, positive = "horizon must be finite", "horizon must be positive"
    assert done.stdout.splitlines() == 2 * [finite] + 6 * [positive]
    for h, message in [(math.inf, finite), (math.nan, positive)]:
        with pytest.raises(ValueError, match=message):
            SwitchingSignal(0, (), (), h)
        with pytest.raises(ValueError, match=message):
            fixed_signal(h, switch_times=[1.0], n_modes=2)


# ------------------------------------------------------ library argument checks

@pytest.mark.parametrize("call, message", [
    (lambda: TransitionMap(2, 3, np.ones((2, 2))), "transition matrix must be 3x2, got (2, 2)"),
    (lambda: TransitionMap(2, 2, [[1.0, math.inf], [0.0, 1.0]]),
     "transition matrix must be finite"),
    (lambda: nearest_map(2, 3)([1.0, 2.0, 3.0]), "transition expects dimension 2, got 3"),
    (lambda: drop_map(3, 0), "target dimension must be positive"),
    (lambda: SwitchingSignal(0, (), (), 0.0), "horizon must be positive"),
    (lambda: SwitchingSignal(0, (0.5,), (), 1.0),
     "switch_times and modes_after lengths differ"),
    (lambda: fixed_signal(2.0, [1.0], [1.0], n_modes=2),
     "give switch_times or dwell_pattern, not both"),
    (lambda: fixed_signal(2.0, [0.5, 1.0], modes=[1]), "modes list shorter than switch times"),
    (lambda: fixed_signal(2.0, [1.0]), "need modes or n_modes to schedule switches"),
])
def test_argument_checks_raise_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
