"""Transition maps between mode dimensions, switching signals, and jump records.

A transition map is a constant matrix sending the pre-switch state into the
next mode's dimension; its Lipschitz constant in the normalized norm is
cached on construction.  Switching signals are piecewise-constant
right-continuous mode schedules, either fixed or drawn with seeded random
dwell times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "identity_map",
    "jump_gap",
    "lipschitz_of",
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


def lipschitz_of(W) -> float:
    """Norm bound L with ||W x||_V <= L ||x||_V: the ``lipschitz`` of a
    :class:`TransitionMap`, the operator norm of a matrix."""
    return W.lipschitz if isinstance(W, TransitionMap) else op_vnorm(W)


def identity_map(n: int) -> TransitionMap:
    return TransitionMap(n, n, np.eye(n))


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


def jump_gap(pre, post) -> float:
    """Distance between pre- and post-switch states; zero iff the switch is continuous."""
    return v_dist(pre, post)


@dataclass(frozen=True, eq=False)
class JumpEvent:
    """Record of one switch: states on both sides, gap, direction, impulse size.

    ``direction`` is the unit vector (in the lcm dimension of the two
    states) along post - pre, absent when the switch is continuous.
    ``amplitude`` is mu times the gap for the configured impulse scale mu.
    """

    time: float
    pre_state: np.ndarray
    post_state: np.ndarray
    gap: float
    direction: np.ndarray | None
    amplitude: float

    @property
    def pre_dim(self) -> int:
        return self.pre_state.size

    @property
    def post_dim(self) -> int:
        return self.post_state.size


def make_jump_event(time: float, pre, post, mu: float = 0.0) -> JumpEvent:
    """The record of a switch at ``time``; its gap and direction come from
    the one difference post - pre, whose overflow raises
    :class:`NumericFailure` naming the switch time."""
    pre = as_entries(pre).copy()
    post = as_entries(post).copy()
    try:
        d = stp_sub(post, pre).entries
    except NumericFailure:
        raise NumericFailure("jump gap overflowed", operation="jump", time=time) from None
    gap = v_norm(d)  # jump_gap(pre, post) bit for bit: -(a - b) == b - a
    direction = None
    if gap > GAP_ZERO_TOL * max(1.0, v_norm(pre)):
        direction = d / gap
    return JumpEvent(float(time), pre, post, gap, direction, mu * gap)


@dataclass(frozen=True)
class SwitchingSignal:
    """Piecewise-constant right-continuous mode schedule on [0, horizon].

    ``switch_times`` are strictly increasing and inside (0, horizon);
    ``modes_after[k]`` is the mode active from ``switch_times[k]`` on.
    Random-dwell signals are materialized eagerly, so the schedule is a
    pure function of (seed, bounds, horizon).
    """

    kind: str
    initial_mode: int
    switch_times: tuple
    modes_after: tuple
    horizon: float
    dwell_bounds: tuple | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("fixed", "random-dwell"):
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if len(self.switch_times) != len(self.modes_after):
            raise ValueError("switch_times and modes_after lengths differ")
        ts = self.switch_times
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("switch times must be strictly increasing")
        if ts and (ts[0] <= 0.0 or ts[-1] >= self.horizon):
            raise ValueError("switch times must lie strictly inside (0, horizon)")

    @property
    def min_dwell(self) -> float:
        pts = (0.0,) + self.switch_times + (self.horizon,)
        return min(b - a for a, b in zip(pts, pts[1:]))

    def mode_at(self, t: float) -> int:
        mode = self.initial_mode
        for ts, m in zip(self.switch_times, self.modes_after):
            if t >= ts:
                mode = m
            else:
                break
        return mode

    def intervals(self):
        """Dwell intervals as (t_start, t_end, mode) triples covering [0, horizon]."""
        starts = (0.0,) + self.switch_times
        ends = self.switch_times + (self.horizon,)
        modes = (self.initial_mode,) + self.modes_after
        return list(zip(starts, ends, modes))

    @property
    def mode_indices(self):
        return {self.initial_mode, *self.modes_after}


def _round_robin(initial_mode: int, n_modes: int, count: int):
    return tuple((initial_mode + 1 + k) % n_modes for k in range(count))


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
        if not pattern or any(d <= 0 for d in pattern):
            raise ValueError("dwell_pattern entries must be positive")
        times = []
        t, k = 0.0, 0
        while True:
            t += pattern[k % len(pattern)]
            if t >= horizon:
                break
            times.append(t)
            k += 1
    else:
        times = [float(t) for t in (switch_times or [])]
        times = [t for t in times if t < horizon]
    if modes is not None:
        modes = tuple(int(m) for m in modes)[: len(times)]
        if len(modes) != len(times):
            raise ValueError("modes list shorter than switch times")
    else:
        if n_modes is None:
            raise ValueError("need modes or n_modes to schedule switches")
        modes = _round_robin(initial_mode, n_modes, len(times))
    return SwitchingSignal(
        "fixed", initial_mode, tuple(times), modes, float(horizon)
    )


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
    if not 0.0 < dmin <= dmax:
        raise ValueError("dwell bounds must satisfy 0 < dmin <= dmax")
    rng = np.random.default_rng(int(seed))
    times = []
    t = 0.0
    while True:
        t += float(rng.uniform(dmin, dmax))
        if t >= horizon:
            break
        times.append(t)
    modes = _round_robin(initial_mode, n_modes, len(times))
    return SwitchingSignal(
        "random-dwell",
        initial_mode,
        tuple(times),
        modes,
        float(horizon),
        dwell_bounds=(dmin, dmax),
        seed=int(seed),
    )

