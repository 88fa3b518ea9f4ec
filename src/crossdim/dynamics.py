"""Dimension-varying system simulation.

A system is a finite set of fixed-dimension modes plus a rule for jumping
between their dimensions.  Each mode carries its own dynamics and feedback
law, and they alone decide how it moves: simulation integrates the active
mode on each dwell interval with classical fixed-step RK4 (linear modes
that are autonomous or closed by affine feedback take an exact
matrix-exponential path), applies the transition map at every switch into
another mode, and logs a jump event with gap, direction and impulse
amplitude.  Impulses are discrete reset records, never numerically
integrated spikes.

Vector fields of dimension n lift to any multiple k*n so that integral
curves commute with entry replication; embedding every mode into the lcm
dimension turns a dimension-varying system into an ordinary switched
system with resets.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .cdspace import as_entries, project, projector, v_norm, v_norm_rows
from .dkstp import bridge
from .errors import NumericFailure
from .switching import (
    JumpEvent,
    SwitchingSignal,
    TransitionMap,
    make_jump_event,
    nearest_map,
)

__all__ = [
    "AffineFeedback",
    "Disturbance",
    "DvSystem",
    "Mode",
    "OutputMap",
    "Segment",
    "Trajectory",
    "closed_loop_drift",
    "dwell_bound",
    "embed_common",
    "expm",
    "integrate_mode",
    "lift_field",
    "lift_function",
    "simulate",
]

log = logging.getLogger(__name__)

DEFAULT_STEP = 1e-3
_TIME_EPS = 1e-12
#: dwell_bound's search: the longest dwell tried, the scan grid, and the
#: bisection tolerance (the returned dwell overshoots the least one by less).
_MAX_DWELL = 50.0
_DWELL_GRID = 0.05
_DWELL_TOL = 1e-3
#: Samples per block of the exact linear flow: each block starts from its
#: own matrix exponential, so rounding compounds over at most this many steps.
_FLOW_BLOCK = 256


def expm(A, t: float = 1.0) -> np.ndarray:
    """e^{tA} by ``scipy.linalg.expm``, a scaling-and-squaring Pade method.

    Al-Mohy & Higham (SIAM J. Matrix Anal. Appl., 2009): the backward error
    is at the level of unit roundoff.  A non-finite result raises
    :class:`NumericFailure`.
    """
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expm expects a square matrix")
    if not np.all(np.isfinite(M)):
        raise ValueError("expm expects finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        E = scipy.linalg.expm(M * float(t))
    if not np.all(np.isfinite(E)):
        raise NumericFailure("matrix exponential overflowed", operation="expm")
    return E


@dataclass(frozen=True, eq=False)
class AffineFeedback:
    """Time-invariant affine state feedback u(t, x) = K x + u0.

    ``K`` is a (k, n) gain and ``u0`` a constant offset of length k.  As
    data rather than an evaluator it closes a linear mode exactly:
    dx/dt = (A + B K) x + B u0 is again linear (affine), so
    :func:`integrate_mode` propagates it by a matrix exponential.  It is
    also callable, so it works anywhere a feedback evaluator does.
    """

    K: np.ndarray
    u0: np.ndarray

    def __post_init__(self):
        K = np.array(self.K, dtype=float)
        if K.ndim != 2:
            raise ValueError(f"feedback gain K must be a matrix, got shape {K.shape}")
        u0 = np.array(self.u0, dtype=float).reshape(-1)
        if u0.shape != (K.shape[0],):
            raise ValueError(
                f"feedback offset u0 needs {K.shape[0]} entries, got {u0.size}"
            )
        K.setflags(write=False)
        u0.setflags(write=False)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "u0", u0)

    def __call__(self, t: float, x) -> np.ndarray:
        return self.K @ np.asarray(x, dtype=float) + self.u0


@dataclass(frozen=True)
class Mode:
    """One fixed-dimension mode: drift plus optional input channels.

    ``drift`` is either an (n, n) matrix or an evaluator x -> R^n.
    ``inputs`` is an (n, k) matrix whose columns are the input directions,
    or a sequence of k evaluators x -> R^n for state-dependent channels.
    ``feedback`` closes the loop whenever the mode is integrated: an
    :class:`AffineFeedback` (its gain K must be k x n; with a drift and an
    input matrix the closed loop is propagated exactly) or any evaluator
    (t, x) -> R^k (integrated with RK4).
    """

    label: str
    dim: int
    drift: object
    inputs: object = None
    feedback: object = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("mode dimension must be positive")
        if not callable(self.drift):
            A = np.asarray(self.drift, dtype=float).copy()
            if A.shape != (self.dim, self.dim):
                raise ValueError(
                    f"mode {self.label!r}: drift matrix must be "
                    f"{self.dim}x{self.dim}, got {A.shape}"
                )
            A.setflags(write=False)
            object.__setattr__(self, "drift", A)
        if self.inputs is not None and not self._inputs_callable():
            B = np.asarray(self.inputs, dtype=float).copy()
            if B.ndim == 1:
                B = B.reshape(-1, 1)
            if B.shape[0] != self.dim:
                raise ValueError(
                    f"mode {self.label!r}: input matrix needs {self.dim} rows"
                )
            B.setflags(write=False)
            object.__setattr__(self, "inputs", B)
        if isinstance(self.feedback, AffineFeedback):
            shape = (self.n_inputs, self.dim)
            if self.feedback.K.shape != shape:
                raise ValueError(
                    f"mode {self.label!r}: feedback gain K must be "
                    f"{shape[0]}x{shape[1]}, got {self.feedback.K.shape}"
                )

    def _inputs_callable(self) -> bool:
        return self.inputs is not None and not isinstance(
            self.inputs, np.ndarray
        ) and all(callable(g) for g in self.inputs)

    @property
    def is_linear(self) -> bool:
        return isinstance(self.drift, np.ndarray)

    @property
    def n_inputs(self) -> int:
        if self.inputs is None:
            return 0
        if isinstance(self.inputs, np.ndarray):
            return self.inputs.shape[1]
        return len(self.inputs)

    def input_matrix_at(self, x) -> np.ndarray:
        """The (n, k) input matrix, evaluating state-dependent channels at x."""
        if isinstance(self.inputs, np.ndarray):
            return self.inputs
        return np.column_stack([np.asarray(g(x), dtype=float) for g in self.inputs])


@dataclass(frozen=True)
class Disturbance:
    """Measurable disturbance of fixed dimension entering through the drift."""

    dim: int
    evaluator: object

    def __call__(self, t: float) -> np.ndarray:
        v = np.asarray(self.evaluator(t), dtype=float).reshape(-1)
        if v.size != self.dim:
            raise ValueError(
                f"disturbance evaluator returned dimension {v.size}, "
                f"expected {self.dim}"
            )
        return v


@dataclass(frozen=True)
class OutputMap:
    """Constant-dimension output, evaluated through the nominal dimension q.

    Linear maps apply H through the bridge matrix (so states of any active
    dimension are accepted); function maps apply h to the projection of the
    state onto dimension q.
    """

    q: int
    matrix: np.ndarray | None = None
    func: object = None
    p: int | None = None

    @classmethod
    def from_matrix(cls, H) -> "OutputMap":
        H = np.asarray(H, dtype=float)
        if H.ndim == 1:
            H = H.reshape(1, -1)
        return cls(q=H.shape[1], matrix=H, p=H.shape[0])

    @classmethod
    def from_function(cls, h, q: int, p: int) -> "OutputMap":
        return cls(q=q, func=h, p=p)

    def __call__(self, x) -> np.ndarray:
        a = as_entries(x)
        if self.matrix is not None:
            return self.matrix @ bridge(self.q, a.size) @ a
        return lift_function(self.func, self.q, a)

    def of_rows(self, S) -> np.ndarray:
        """Outputs of every row of a (k, n) state array, as a (k, p) array.

        Equal bit for bit to calling the map on each row: the stacked
        matrix-vector products do the same dot products.
        """
        n = S.shape[1]
        if self.matrix is not None:
            return ((self.matrix @ bridge(self.q, n)) @ S[:, :, None])[:, :, 0]
        if n != self.q:
            S = (bridge(self.q, n) @ S[:, :, None])[:, :, 0]
        return np.array([self.func(x) for x in S], dtype=float).reshape(len(S), -1)


@dataclass(frozen=True)
class DvSystem:
    """A dimension-varying system: modes, a transition rule, optional output.

    ``transitions`` is the string ``"nearest"`` or a mapping from ordered
    mode-index pairs (i, j) to explicit transition maps.  ``impulse_scale``
    scales the logged impulse amplitude of every jump event.
    """

    modes: tuple
    transitions: object = "nearest"
    output: OutputMap | None = None
    impulse_scale: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise ValueError("system needs at least one mode")
        if isinstance(self.transitions, dict):
            for (i, j), tm in self.transitions.items():
                src, dst = self.modes[i].dim, self.modes[j].dim
                if (tm.source_dim, tm.target_dim) != (src, dst):
                    raise ValueError(
                        f"transition {i}->{j} must map dimension {src} to {dst}"
                    )

    def transition(self, i: int, j: int) -> TransitionMap:
        if self.transitions == "nearest":
            return nearest_map(self.modes[i].dim, self.modes[j].dim)
        try:
            return self.transitions[(i, j)]
        except KeyError:
            raise ValueError(f"no transition map for mode pair ({i}, {j})") from None

    def transition_maps_in_use(self):
        """All maps the rule can produce (ordered mode pairs)."""
        if self.transitions == "nearest":
            n = len(self.modes)
            return [
                self.transition(i, j) for i in range(n) for j in range(n) if i != j
            ]
        return list(self.transitions.values())


@dataclass(frozen=True)
class Segment:
    """Samples of one dwell interval: constant dimension throughout."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim)


@dataclass(frozen=True)
class Trajectory:
    """Simulation output: the integrated segments plus the jump events.

    ``segments[i]`` was integrated in mode ``segment_modes[i]``.  The
    per-sample views (``times``, ``mode_indices``, ``dims``, ``states``,
    ``vnorms``, ``outputs``) are derived on first use.  At each switch both
    the pre- and post-switch states appear as samples with the same
    timestamp, so sample times are nondecreasing.
    """

    segments: tuple
    segment_modes: tuple
    events: list
    output_map: OutputMap | None = None

    def _per_sample(self, values, dtype) -> np.ndarray:
        """One value per segment, repeated over that segment's samples."""
        counts = [len(seg.times) for seg in self.segments]
        return np.repeat(np.asarray(values, dtype=dtype), counts)

    @functools.cached_property
    def times(self) -> np.ndarray:
        if not self.segments:
            return np.empty(0)
        return np.concatenate([seg.times for seg in self.segments])

    @functools.cached_property
    def mode_indices(self) -> np.ndarray:
        return self._per_sample(self.segment_modes, int)

    @functools.cached_property
    def dims(self) -> np.ndarray:
        return self._per_sample([seg.states.shape[1] for seg in self.segments], int)

    @functools.cached_property
    def states(self) -> list:
        return [x for seg in self.segments for x in seg.states]

    @functools.cached_property
    def segment_vnorms(self) -> list:
        return [v_norm_rows(seg.states) for seg in self.segments]

    @functools.cached_property
    def vnorms(self) -> np.ndarray:
        if not self.segments:
            return np.empty(0)
        return np.concatenate(self.segment_vnorms)

    @functools.cached_property
    def segment_outputs(self) -> list | None:
        if self.output_map is None:
            return None
        return [self.output_map.of_rows(seg.states) for seg in self.segments]

    @functools.cached_property
    def outputs(self) -> list | None:
        if self.segment_outputs is None:
            return None
        return [y for Y in self.segment_outputs for y in Y]

    @property
    def max_dim(self) -> int:
        return int(self.dims.max())

    @property
    def final_state(self) -> np.ndarray:
        return self.segments[-1].states[-1]

    def switch_entry_norms(self):
        """(time, pre-switch v-norm) for every proper switch (t > 0)."""
        return [(ev.time, v_norm(ev.pre_state)) for ev in self.events if ev.time > 0.0]


def _mode_rhs(mode: Mode, disturbance):
    """Assemble dx/dt = f(x + eta) + inputs * feedback for one mode.

    A disturbance eta of foreign dimension enters the drift f through its
    projection onto the mode dimension; for a matrix drift this is the
    dimension-keeping product A (x + eta) in the lcm dimension.  The zero
    fast path keeps eta == 0 bit-identical to no disturbance at all.
    """
    n = mode.dim
    if mode.is_linear:
        f = lambda x, A=mode.drift: A @ x
    else:
        f = lambda x, g=mode.drift: np.asarray(g(x), dtype=float)
    if disturbance is None:
        drift = lambda t, x: f(x)
    else:

        def drift(t, x):
            eta = disturbance(t)
            if not eta.any():
                return f(x)
            return f(x + project(eta, n))

    control = mode.feedback
    if control is None or mode.inputs is None:
        return drift

    def rhs(t, x):
        u = np.atleast_1d(np.asarray(control(t, x), dtype=float))
        return drift(t, x) + mode.input_matrix_at(x) @ u

    return rhs


def _grid(t0: float, t1: float, step: float) -> np.ndarray:
    """Uniform grid t0 + i*step, final partial step shortened to land exactly on t1."""
    span = t1 - t0
    n_full = int(math.floor(span / step + _TIME_EPS))
    times = t0 + np.arange(n_full + 1) * step
    if t1 - times[-1] > _TIME_EPS * max(1.0, abs(t1)):
        return np.append(times, t1)
    times[-1] = t1
    return times


def _powers(G: np.ndarray, step: float, count: int) -> np.ndarray:
    """E^0 ... E^{count-1} of E = e^{G step}, stacked, by doubling.

    Block s..2s-1 is E^s times block 0..s-1, so about log2(count) stacked
    products build them and each power is a product of about 2 log2(count)
    factors.
    """
    P = np.empty((count, len(G), len(G)))
    P[0] = np.eye(len(G))
    if count > 1:
        E = expm(G, step)
        s = 1
        while s < count:
            m = min(s, count - s)
            P[s : s + m] = (P[s - 1] @ E) @ P[:m]
            s *= 2
    return P


def _linear_flow(G: np.ndarray, z0: np.ndarray, times: np.ndarray, step: float):
    """Samples of z(t) = e^{G (t - t0)} z0 on a grid from :func:`_grid`.

    Sample j*B + i of the uniform grid is E^i applied to the anchor
    e^{G j B step} z0, with E = e^{G step}, B = ``_FLOW_BLOCK`` and the
    powers from :func:`_powers`; each anchor is its own exponential, so
    rounding compounds over at most one block, never over the whole grid.
    A final partial step (shorter than ``step``) starts from the sample
    before it.  Where an exponential overflows, that sample and all later
    ones are NaN.
    """
    count = len(times)
    partial = count > 1 and abs(times[-1] - times[-2] - step) > _TIME_EPS
    uniform = count - 1 if partial else count
    Z = np.full((count, z0.size), np.nan)
    Z[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            P = _powers(G, step, min(uniform, _FLOW_BLOCK))
            rows = P.reshape(-1, z0.size)  # one matrix-vector product per block
            for start in range(0, uniform, _FLOW_BLOCK):
                anchor = z0 if start == 0 else expm(G, start * step) @ z0
                m = min(_FLOW_BLOCK, uniform - start)
                Z[start : start + m] = (rows[: m * z0.size] @ anchor).reshape(m, -1)
            if partial:
                Z[-1] = expm(G, times[-1] - times[-2]) @ Z[-2]
        except NumericFailure:
            pass  # an exponential overflowed: the samples not reached stay NaN
    return Z


def _affine(mode: Mode) -> bool:
    """Is the mode's feedback affine, acting through a constant input matrix?"""
    return isinstance(mode.feedback, AffineFeedback) and isinstance(
        mode.inputs, np.ndarray
    )


def _generator(mode: Mode) -> np.ndarray:
    """Matrix G of the linear flow of ``mode`` closed by its feedback.

    Without feedback G is the drift itself.  Affine feedback u = K x + u0
    gives A + B K, bordered by the column B u0 and a zero row when u0 != 0,
    so that [x; 1] evolves by G (Van Loan, IEEE TAC 1978).
    """
    fb = mode.feedback
    if fb is None:
        return mode.drift
    B = mode.inputs
    G = mode.drift + B @ fb.K
    if not fb.u0.any():
        return G
    n = mode.dim
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = G
    bordered[:n, n] = B @ fb.u0
    return bordered


def integrate_mode(
    mode: Mode, x0, t0: float, t1: float, step: float, disturbance=None
) -> Segment:
    """Integrate one mode, closed by its own feedback, over [t0, t1].

    The mode alone decides the path.  A linear mode without disturbance,
    whose feedback is absent or an :class:`AffineFeedback` acting through a
    constant input matrix, is propagated exactly by the matrix exponential
    on the fixed-step grid; everything else (evaluator drifts, feedback
    evaluators, disturbances) uses classical RK4.  To integrate a linear
    mode with RK4, give its drift as an evaluator ``lambda x: A @ x``.  An
    open-loop run is ``integrate_mode(replace(mode, feedback=None), ...)``.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = as_entries(x0).copy()
    if x.size != mode.dim:
        raise ValueError(
            f"initial state has dimension {x.size}, mode {mode.label!r} "
            f"expects {mode.dim}"
        )
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    times = _grid(t0, t1, step)
    if mode.is_linear and disturbance is None and (
        mode.feedback is None or _affine(mode)
    ):
        G = _generator(mode)
        # a bordered G moves [x; 1]; the extra column is dropped at the end
        z = np.append(x, 1.0) if len(G) > x.size else x
        Z = _linear_flow(G, z, times, step)
        bad = ~np.isfinite(Z).all(axis=1)
        if bad.any():
            raise NumericFailure(
                f"state diverged in mode {mode.label!r}",
                operation="integrate_mode",
                time=float(times[np.argmax(bad)]),
            )
        states = np.ascontiguousarray(Z[:, : mode.dim])
    else:
        states = np.empty((len(times), x.size))
        states[0] = x
        rhs = _mode_rhs(mode, disturbance)
        grid = times.tolist()
        probe = np.asarray(rhs(grid[0], x))
        if probe.shape != x.shape:
            raise ValueError(
                f"mode {mode.label!r}: evaluator returned shape {probe.shape}, "
                f"expected {x.shape}"
            )
        for k in range(1, len(grid)):
            t, h = grid[k - 1], grid[k] - grid[k - 1]
            k1 = rhs(t, x)
            k2 = rhs(t + h / 2, x + (h / 2) * k1)
            k3 = rhs(t + h / 2, x + (h / 2) * k2)
            k4 = rhs(t + h, x + h * k3)
            x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(np.isfinite(x)):
                raise NumericFailure(
                    f"state diverged in mode {mode.label!r}",
                    operation="integrate_mode",
                    time=grid[k],
                )
            states[k] = x
    return Segment(times, states)


def lift_field(mode: Mode, k: int) -> Mode:
    """Lift a mode of dimension n to dimension k*n.

    On replicated states the lifted field replicates the base field, so the
    two flows commute with entry replication.  Linear drift and input
    matrices and affine feedback stay data; evaluators are wrapped.
    """
    if k < 1:
        raise ValueError("lift multiplier must be >= 1")
    if k == 1:
        return mode
    n, N = mode.dim, k * mode.dim
    down = projector(N, n).matrix  # block means
    up = projector(n, N).matrix  # entry replication

    if mode.is_linear:
        drift = up @ mode.drift @ down
    else:
        f = mode.drift
        drift = lambda y: np.repeat(np.asarray(f(down @ y), dtype=float), k)

    inputs = None
    if mode.inputs is not None:
        if isinstance(mode.inputs, np.ndarray):
            inputs = up @ mode.inputs
        else:
            inputs = tuple(
                (lambda y, g=g: np.repeat(np.asarray(g(down @ y), dtype=float), k))
                for g in mode.inputs
            )

    feedback = mode.feedback
    if isinstance(feedback, AffineFeedback):
        feedback = AffineFeedback(feedback.K @ down, feedback.u0)
    elif feedback is not None:
        fb = feedback
        feedback = lambda t, y: fb(t, down @ y)

    return Mode(f"{mode.label}@{N}", N, drift, inputs, feedback)


def lift_function(h, q: int, y) -> np.ndarray:
    """Evaluate a function native to dimension q at a point of any dimension.

    The argument is projected onto dimension q first; equivalent points give
    identical values, so this is well defined on the quotient space.
    """
    return np.atleast_1d(np.asarray(h(project(y, q)), dtype=float))


def simulate(
    system: DvSystem,
    signal: SwitchingSignal,
    x0,
    step: float = DEFAULT_STEP,
    disturbance=None,
) -> Trajectory:
    """Run a dimension-varying system along a switching signal.

    The active mode, closed by its own feedback, is integrated on each
    dwell interval (switch times are grid points, never interpolated
    across); at each switch into another mode the transition map produces
    the post state and a jump event is logged.  A switch into the same mode
    is no jump: the state carries over and no event is logged.  An initial
    state of foreign dimension is projected onto the first mode's dimension
    with an event at t = 0.  To run a mode under another feedback law,
    replace it in the system with ``dataclasses.replace(mode, feedback=...)``.
    """
    n_modes = len(system.modes)
    unknown = sorted(m for m in signal.mode_indices if not 0 <= m < n_modes)
    if unknown:
        raise ValueError(f"signal references unknown mode indices {unknown}")

    x = as_entries(x0).copy()
    events: list[JumpEvent] = []
    intervals = signal.intervals()
    first_mode = system.modes[intervals[0][2]]
    if x.size != first_mode.dim:
        post = project(x, first_mode.dim)
        events.append(make_jump_event(0.0, x, post, system.impulse_scale))
        x = post

    modes = [mi for _, _, mi in intervals]
    segments = []
    for (ta, tb, mi), mj in zip(intervals, modes[1:] + [None]):
        seg = integrate_mode(system.modes[mi], x, ta, tb, step, disturbance=disturbance)
        segments.append(seg)
        x = seg.states[-1]
        if mj not in (None, mi):
            post = system.transition(mi, mj)(x)
            events.append(make_jump_event(tb, x, post, system.impulse_scale))
            x = post

    return Trajectory(tuple(segments), tuple(modes), events, system.output)


def embed_common(system: DvSystem) -> DvSystem:
    """Embed every mode into the lcm of the native dimensions.

    The result is an ordinary switched system (all modes share one
    dimension) whose trajectories from replicated initial states stay
    equivalent to the original ones; switches become explicit reset maps
    confined to the replicated subspaces, and their jump events carry the
    same gaps and directions as the original impulse log.
    """
    n = math.lcm(*(m.dim for m in system.modes))
    lifted = tuple(lift_field(m, n // m.dim) for m in system.modes)
    count = len(system.modes)
    table = {}
    for i in range(count):
        for j in range(count):
            if i == j:
                continue
            if isinstance(system.transitions, dict) and (
                i,
                j,
            ) not in system.transitions:
                continue
            base = system.transition(i, j)
            W = (
                projector(system.modes[j].dim, n).matrix
                @ base.matrix
                @ projector(n, system.modes[i].dim).matrix
            )
            table[(i, j)] = TransitionMap(n, n, W)
    return DvSystem(
        modes=lifted,
        transitions=table if count > 1 else "nearest",
        output=system.output,
        impulse_scale=system.impulse_scale,
    )


def closed_loop_drift(mode: Mode) -> np.ndarray:
    """The matrix A + B K of a linear mode under its linear feedback u = K x.

    A mode without feedback gives its drift.  Any other closed loop (a
    nonlinear drift, a feedback evaluator, or an affine feedback with an
    offset u0 != 0, whose equilibrium is not the origin) has no such matrix
    and raises ``ValueError`` naming the mode.
    """
    if not mode.is_linear:
        raise ValueError(f"mode {mode.label!r}: dwell analysis requires a linear drift")
    fb = mode.feedback
    if fb is None or (_affine(mode) and not fb.u0.any()):
        return _generator(mode)
    raise ValueError(
        f"mode {mode.label!r}: dwell analysis requires linear feedback "
        "u = K x (no offset, constant input matrix)"
    )


def dwell_bound(
    system: DvSystem, gamma: float, lipschitz: float | None = None
) -> float | None:
    """Smallest dwell time making every mode-plus-jump cycle a contraction.

    Finds the least dwell D with L * max_i ||e^{D A_i}||_2 <= 1 - gamma,
    where A_i is the closed-loop drift of mode i (:func:`closed_loop_drift`)
    and L is the largest transition Lipschitz constant (or the explicit
    override): a scan on a grid of ``_DWELL_GRID``, then bisection to within
    ``_DWELL_TOL``.  Returns None when a mode is not Hurwitz or no dwell up
    to ``_MAX_DWELL`` works.  Raises ``ValueError`` for a mode whose closed
    loop is not linear.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    mats = [closed_loop_drift(mode) for mode in system.modes]
    for mode, A in zip(system.modes, mats):
        if np.linalg.eigvals(A).real.max() >= 0.0:
            log.warning("mode %r is not Hurwitz; no dwell bound", mode.label)
            return None
    if lipschitz is None:
        lips = [tm.lipschitz for tm in system.transition_maps_in_use()]
        lipschitz = max(lips) if lips else 1.0

    def contracts(delta: float) -> bool:
        worst = max(np.linalg.norm(expm(A, delta), 2) for A in mats)
        return lipschitz * worst <= 1.0 - gamma

    lo, hi = 0.0, None
    d = _DWELL_GRID
    while d <= _MAX_DWELL + _TIME_EPS:
        if contracts(d):
            hi = d
            break
        lo = d
        d += _DWELL_GRID
    if hi is None:
        return None
    while hi - lo > _DWELL_TOL:
        mid = 0.5 * (lo + hi)
        if contracts(mid):
            hi = mid
        else:
            lo = mid
    return hi
