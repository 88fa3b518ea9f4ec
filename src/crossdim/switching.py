"""Transition maps between mode dimensions, switching signals, and jump records.

A transition map is a constant matrix sending the pre-switch state into the
next mode's dimension; its Lipschitz constant in the normalized norm is
cached on construction.  Switching signals are piecewise-constant
right-continuous mode schedules, either fixed or drawn with seeded random
dwell times.  A jump record holds its two states, its gap in the metric
of the cross-dimensional space and its impulse amplitude, O(n + m) floats
for states of dimensions n and m; the direction of the jump, a vector of
dimension lcm(n, m), is computed only when read.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, cycle, takewhile

import numpy as np

from .cdspace import as_entries, stp_sub, v_dist, v_norm
from .dkstp import bridge, op_vnorm
from .errors import NumericFailure

__all__ = [
    "JumpEvent",
    "SwitchingSignal",
    "TransitionMap",
    "add_map",
    "compose_maps",
    "drop_map",
    "fixed_signal",
    "make_jump_event",
    "nearest_map",
    "random_signal",
]

#: Gaps at or below this scale-relative threshold count as continuous switches.
GAP_ZERO_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TransitionMap:
    """Linear jump from ``source_dim`` into ``target_dim``.

    ``lipschitz`` is its Lipschitz constant in the normalized norm.  Left
    out, it is ``op_vnorm(matrix)``, an SVD value that may lie an ulp or so
    on either side of the exact constant.  A builder that knows the exact
    constant passes it: :func:`nearest_map` and ``embed_common``.
    """

    source_dim: int
    target_dim: int
    matrix: np.ndarray = field(repr=False)
    lipschitz: float | None = None

    def __post_init__(self):
        W = np.asarray(self.matrix, dtype=float)
        if W.shape != (self.target_dim, self.source_dim):
            raise ValueError(
                f"transition matrix must be {self.target_dim}x{self.source_dim}, "
                f"got {W.shape}"
            )
        if not np.all(np.isfinite(W)):
            raise ValueError("transition matrix must be finite")
        W = W.copy()
        W.setflags(write=False)
        object.__setattr__(self, "matrix", W)
        if self.lipschitz is None:
            object.__setattr__(self, "lipschitz", op_vnorm(W))
        elif not self.lipschitz >= 0.0:  # inf bounds anything, as op_vnorm may give
            raise ValueError(f"lipschitz must be nonnegative, got {self.lipschitz}")

    def __call__(self, x) -> np.ndarray:
        a = as_entries(x)
        if a.size != self.source_dim:
            raise ValueError(
                f"transition expects dimension {self.source_dim}, got {a.size}"
            )
        return self.matrix @ a


def nearest_map(n_p: int, n_q: int) -> TransitionMap:
    """Minimal-distance jump: project the state onto the destination dimension.

    Its Lipschitz constant is exactly 1: the lift to the lcm dimension is
    a ``v_norm`` isometry, the block average onto n_q an orthogonal
    projection for ``v_inner``, and a constant state attains 1.
    """
    return TransitionMap(n_p, n_q, bridge(n_q, n_p), lipschitz=1.0)


def drop_map(n: int, m: int, dropped_indices=None) -> TransitionMap:
    """Jump that removes n - m coordinates (trailing ones by default).

    ``dropped_indices`` are 0-based positions in the source vector; the kept
    coordinates appear in their original order.
    """
    if m >= n:
        raise ValueError(f"drop_map requires m < n, got n={n}, m={m}")
    if m < 1:
        raise ValueError("target dimension must be positive")
    if dropped_indices is None:
        kept = range(m)
    else:
        dropped = sorted(int(i) for i in dropped_indices)
        if len(dropped) != n - m or len(set(dropped)) != len(dropped):
            raise ValueError(f"need {n - m} distinct indices to drop")
        if dropped[0] < 0 or dropped[-1] >= n:
            raise ValueError("dropped indices out of range")
        kept = [i for i in range(n) if i not in set(dropped)]
    return TransitionMap(n, m, np.eye(n)[list(kept), :])


def add_map(n: int, m: int) -> TransitionMap:
    """Jump that appends m - n coordinates, filled by nearest projection.

    The identity block on top makes the matrix full column rank.
    """
    if m <= n:
        raise ValueError(f"add_map requires m > n, got n={n}, m={m}")
    W = np.vstack([np.eye(n), bridge(m - n, n)])
    return TransitionMap(n, m, W)


def compose_maps(first: TransitionMap, second: TransitionMap) -> TransitionMap:
    """Apply ``first`` then ``second``; dimensions must chain."""
    if first.target_dim != second.source_dim:
        raise ValueError(
            f"cannot compose: first targets {first.target_dim}, "
            f"second expects {second.source_dim}"
        )
    return TransitionMap(
        first.source_dim, second.target_dim, second.matrix @ first.matrix
    )


@dataclass(frozen=True, eq=False)
class JumpEvent:
    """Record of one switch: states on both sides, gap, impulse size.

    ``gap`` is ``v_dist(post_state, pre_state)`` and ``amplitude`` is mu
    times the gap for the configured impulse scale mu.
    """

    time: float
    pre_state: np.ndarray
    post_state: np.ndarray
    gap: float
    amplitude: float

    @property
    def pre_dim(self) -> int:
        return self.pre_state.size

    @property
    def post_dim(self) -> int:
        return self.post_state.size

    @property
    def direction(self) -> np.ndarray | None:
        """The unit vector along post - pre in the lcm dimension of the two
        states, computed when read; None when the switch is continuous."""
        if self.gap > GAP_ZERO_TOL * max(1.0, v_norm(self.pre_state)):
            return stp_sub(self.post_state, self.pre_state) / self.gap
        return None


def make_jump_event(time: float, pre, post, mu: float = 0.0) -> JumpEvent:
    """The record of a switch at ``time``.  A gap or an impulse amplitude
    that overflows raises :class:`NumericFailure` naming the switch time."""
    pre = as_entries(pre).copy()
    post = as_entries(post).copy()
    try:
        gap = v_dist(post, pre)
    except NumericFailure:
        raise NumericFailure("jump gap overflowed", operation="jump", time=time) from None
    amplitude = mu * gap
    if not math.isfinite(amplitude):
        raise NumericFailure("jump impulse amplitude overflowed", operation="jump", time=time)
    return JumpEvent(float(time), pre, post, gap, amplitude)


@dataclass(frozen=True)
class SwitchingSignal:
    """Piecewise-constant right-continuous mode schedule on [0, horizon].

    The signal is its schedule and nothing else: ``initial_mode`` is
    active from 0, ``switch_times`` are finite, strictly increasing and
    inside (0, horizon), and ``modes_after[k]`` is the mode active from
    ``switch_times[k]`` on.  Two signals with equal schedules compare
    equal, however they were built; how a builder drew one (kind, dwell
    bounds, seed) is kept by the config that asked for it.
    """

    initial_mode: int
    switch_times: tuple
    modes_after: tuple
    horizon: float

    def __post_init__(self):
        _check_horizon(self.horizon)
        if len(self.switch_times) != len(self.modes_after):
            raise ValueError("switch_times and modes_after lengths differ")
        ts = self.switch_times
        if not all(map(math.isfinite, ts)):
            raise ValueError("switch times must be finite")
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("switch times must be strictly increasing")
        if ts and (ts[0] <= 0.0 or ts[-1] >= self.horizon):
            raise ValueError("switch times must lie strictly inside (0, horizon)")

    @property
    def min_dwell(self) -> float:
        pts = (0.0,) + self.switch_times + (self.horizon,)
        return min(b - a for a, b in zip(pts, pts[1:]))

    def mode_at(self, t: float) -> int:
        """The mode active at time ``t``; ``ValueError`` for a NaN ``t``."""
        if math.isnan(t):
            raise ValueError("time must not be NaN")
        return ((self.initial_mode,) + self.modes_after)[bisect_right(self.switch_times, t)]

    def intervals(self):
        """Dwell intervals as (t_start, t_end, mode) triples covering [0, horizon]."""
        starts = (0.0,) + self.switch_times
        ends = self.switch_times + (self.horizon,)
        modes = (self.initial_mode,) + self.modes_after
        return list(zip(starts, ends, modes))


def _round_robin(initial_mode: int, n_modes: int, count: int):
    if not 0 <= initial_mode < n_modes:
        raise ValueError(f"initial_mode must be a mode index in [0, {n_modes})")
    return tuple((initial_mode + 1 + k) % n_modes for k in range(count))


def _check_horizon(horizon: float) -> None:
    """``ValueError`` unless ``horizon`` is positive and finite: a sum of
    dwells never reaches inf, and every comparison with NaN is false."""
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    if horizon == math.inf:
        raise ValueError("horizon must be finite")


def _switch_times(dwells, horizon: float) -> tuple:
    """The running sums of the iterable ``dwells``, kept while they stay
    below ``horizon``; the first dwell whose sum reaches it is the last one
    taken.  A horizon that is not positive and finite raises ``ValueError``
    before any dwell is drawn."""
    _check_horizon(horizon)
    return tuple(takewhile(lambda t: t < horizon, accumulate(dwells)))


def fixed_signal(
    horizon: float,
    switch_times=None,
    dwell_pattern=None,
    modes=None,
    n_modes: int | None = None,
    initial_mode: int = 0,
) -> SwitchingSignal:
    """Fixed schedule from explicit switch times or a cyclic dwell pattern.

    Switch times generated by ``dwell_pattern`` (or given explicitly) that
    fall at or beyond the horizon are discarded.  Without an explicit
    ``modes`` list the signal cycles round-robin through ``n_modes``.
    """
    if switch_times is not None and dwell_pattern is not None:
        raise ValueError("give switch_times or dwell_pattern, not both")
    if dwell_pattern is not None:
        pattern = [float(d) for d in dwell_pattern]
        if not pattern or not all(d > 0 for d in pattern):  # NaN is not positive
            raise ValueError("dwell_pattern entries must be positive")
        times = _switch_times(cycle(pattern), horizon)
    else:
        # a NaN time is kept, so that SwitchingSignal rejects it
        times = tuple(t for t in map(float, switch_times or []) if not t >= horizon)
    if modes is not None:
        modes = tuple(int(m) for m in modes)[: len(times)]
        if len(modes) != len(times):
            raise ValueError("modes list shorter than switch times")
    else:
        if n_modes is None:
            raise ValueError("need modes or n_modes to schedule switches")
        modes = _round_robin(initial_mode, n_modes, len(times))
    return SwitchingSignal(initial_mode, times, modes, float(horizon))


def random_signal(
    horizon: float,
    dwell_bounds,
    seed: int,
    n_modes: int,
    initial_mode: int = 0,
) -> SwitchingSignal:
    """Round-robin schedule with dwells drawn uniformly from [dmin, dmax].

    Bit-reproducible for equal (seed, bounds, horizon).
    """
    dmin, dmax = (float(b) for b in dwell_bounds)
    if not 0.0 < dmin <= dmax < math.inf:
        raise ValueError("dwell bounds must satisfy 0 < dmin <= dmax < inf")
    rng = np.random.default_rng(int(seed))
    times = _switch_times(iter(lambda: float(rng.uniform(dmin, dmax)), None), horizon)
    return SwitchingSignal(initial_mode, times, _round_robin(initial_mode, n_modes, len(times)),
                           float(horizon))
