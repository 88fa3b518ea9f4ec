"""Dimension-varying system simulation.

A system is a finite set of fixed-dimension modes plus a rule for jumping
between their dimensions.  Each mode carries its own dynamics and feedback
law, and they alone decide how it moves: simulation integrates the active
mode on each dwell interval with classical fixed-step RK4 (linear modes
that are autonomous or closed by affine feedback take an exact
matrix-exponential path), applies the transition map at every switch into
another mode, and logs a jump event with its gap and impulse amplitude
(its direction is computed when read).  Impulses are discrete reset
records, never numerically integrated spikes.

Vector fields of dimension n lift to any multiple k*n so that integral
curves commute with entry replication; embedding every mode into the lcm
dimension turns a dimension-varying system into an ordinary switched
system with resets.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cdspace import as_entries, project, v_norm, v_norm_rows
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
#: The time tolerance: t counts as the lattice time s when
#: |t - s| <= _TIME_EPS max(1, |t|) (:func:`_on_lattice`).  By it
#: :func:`_grid` decides whether a segment's t1 is a lattice sample, and
#: ``analysis._uniform_step`` whether a list of times is a uniform grid.
_TIME_EPS = 1e-12
#: dwell_bound's search: the longest dwell tried, the scan grid, the grid
#: points per stacked exponential, and the bisection tolerance (the returned
#: dwell overshoots the least one by less).
_MAX_DWELL = 50.0
_DWELL_GRID = 0.05
_DWELL_CHUNK = 32
_DWELL_TOL = 1e-3
#: dwell_bound's screen (:func:`_screened`): the safety factor of its
#: rounding band, and the widest band, relative to a grid point's screened
#: norm, with which the point may still be decided by that norm rather than
#: by the exact per-point test.
_DWELL_SLACK = 16.0
_DWELL_BAND = 2.0**-16
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
#: Samples per block of the exact linear flow: each block starts from its
#: own matrix exponential, so rounding compounds over at most this many steps.
_FLOW_BLOCK = 256
#: Entries of one stack of (d, d) matrices: a stacked exponential, the
#: powers of a flow block, or a flow's anchors hold at most
#: max(1, _STACK_ENTRIES // d**2) slices, so memory does not grow with the
#: number of times or samples.
_STACK_ENTRIES = 1 << 15
#: Entries that one :func:`simulate` call keeps for reuse across the visits
#: of its modes (:class:`_FlowCache`): a powers block and a stack of anchor
#: exponentials each hold at most ``_STACK_ENTRIES``.
_CACHE_ENTRIES = 4 * _STACK_ENTRIES


def _expm_stack(A, ts: np.ndarray) -> np.ndarray:
    """e^{tA} for every t of ``ts``, stacked (len(ts), n, n); a slice that
    overflowed holds inf or NaN, and the caller checks what it builds.

    One ``scipy.linalg.expm`` call on the stack ``ts[:, None, None] * A``:
    scipy runs the same per-slice code as on a single matrix, so slice i is
    e^{ts[i] A} bit for bit as :func:`expm` gives it.  scipy loops over the
    slices in Python, so a stack saves calls but not time per slice: about
    14-18 us for 2 x 2, 16-20 us for 4 x 4 and 25-30 us for 10 x 10 at
    stacks of 1 to 128 (one thread, 2-core Xeon VM).  scipy loads here, at
    the first exponential, so a command that takes none never imports it.
    """
    import scipy.linalg

    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expm expects a square matrix")
    if not np.isfinite(M).all():
        raise ValueError("expm expects finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        return scipy.linalg.expm(ts[:, None, None] * M)


def expm(A, t: float = 1.0) -> np.ndarray:
    """e^{tA} by ``scipy.linalg.expm``, a scaling-and-squaring Pade method.

    Al-Mohy & Higham (SIAM J. Matrix Anal. Appl., 2009): the backward error
    is at the level of unit roundoff.  A non-finite result raises
    :class:`NumericFailure`.  Many times t take one stacked call,
    :func:`_expm_stack`, whose slices equal this result bit for bit; the
    package takes every exponential of its own from there.
    """
    E = _expm_stack(A, np.array([float(t)]))[0]
    if not np.isfinite(E).all():
        raise NumericFailure("matrix exponential overflowed", operation="expm")
    return E


@dataclass(frozen=True, eq=False)
class AffineFeedback:
    """Time-invariant affine state feedback u(t, x) = K x + u0.

    ``K`` is a finite (k, n) gain and ``u0`` a finite offset of length k.  As
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
        if not (np.isfinite(K).all() and np.isfinite(u0).all()):
            raise ValueError("feedback gain K and offset u0 must be finite")
        K.setflags(write=False)
        u0.setflags(write=False)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "u0", u0)

    def __call__(self, t: float, x) -> np.ndarray:
        return self.K @ np.asarray(x, dtype=float) + self.u0


@dataclass(frozen=True, eq=False)
class Mode:
    """One fixed-dimension mode: drift plus optional input channels.

    ``drift`` is either an (n, n) matrix or an evaluator x -> R^n.
    ``inputs`` is an (n, k) matrix whose columns are the input directions,
    or a sequence of k evaluators x -> R^n for state-dependent channels.
    ``feedback``, which needs at least one input channel, closes the loop
    whenever the mode is integrated: an :class:`AffineFeedback` (its gain K
    must be k x n; with a drift and an input matrix the closed loop is
    propagated exactly) or any evaluator (t, x) -> R^k (integrated with RK4).
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
        if isinstance(self.inputs, np.ndarray) or not all(map(callable, self.inputs or ())):
            B = np.asarray(self.inputs, dtype=float).copy()
            if B.ndim == 1:
                B = B.reshape(-1, 1)
            if B.shape[0] != self.dim:
                raise ValueError(
                    f"mode {self.label!r}: input matrix needs {self.dim} rows"
                )
            B.setflags(write=False)
            object.__setattr__(self, "inputs", B)
        if self.feedback is not None and not self.n_inputs:
            raise ValueError(f"mode {self.label!r}: feedback requires input channels")
        if isinstance(self.feedback, AffineFeedback):
            shape = (self.n_inputs, self.dim)
            if self.feedback.K.shape != shape:
                raise ValueError(
                    f"mode {self.label!r}: feedback gain K must be "
                    f"{shape[0]}x{shape[1]}, got {self.feedback.K.shape}"
                )

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


@dataclass(frozen=True, eq=False)
class OutputMap:
    """Constant-dimension output, evaluated through the nominal dimension q.

    Linear maps apply H through the bridge matrix (so states of any active
    dimension are accepted); function maps apply h to the projection of the
    state onto dimension q, which must be >= 1.
    """

    q: int
    matrix: np.ndarray | None = None
    func: object = None
    #: h takes k states at once, as a (q, k) array (see :meth:`_from_columns`)
    _columns: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"output dimension q must be >= 1, got {self.q}")

    @classmethod
    def from_matrix(cls, H) -> "OutputMap":
        H = np.asarray(H, dtype=float)
        if H.ndim == 1:
            H = H.reshape(1, -1)
        return cls(q=H.shape[1], matrix=H)

    @classmethod
    def from_function(cls, h, q: int) -> "OutputMap":
        return cls(q=q, func=h)

    @classmethod
    def _from_columns(cls, h, q: int) -> "OutputMap":
        """The map of an h that acts on a state entry by entry, such as a
        registry output function: given the (q, k) array of k states, h
        returns their (p, k) outputs ((k,) when p = 1), equal bit for bit
        to h on each state, in one call."""
        out = cls(q=q, func=h)
        object.__setattr__(out, "_columns", True)
        return out

    def __call__(self, x) -> np.ndarray:
        return self.of_rows(as_entries(x)[None, :])[0]

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
        if self._columns:
            return np.atleast_2d(np.asarray(self.func(S.T), dtype=float)).T
        return np.array([self.func(x) for x in S], dtype=float).reshape(len(S), -1)


@dataclass(frozen=True, eq=False)
class DvSystem:
    """A dimension-varying system: modes, a transition rule, optional output
    and disturbance.

    ``transitions`` is the string ``"nearest"`` or a mapping from ordered
    mode-index pairs (i, j), i != j, to explicit transition maps; :attr:`table` is
    the rule as one mapping either way.  ``impulse_scale`` scales the
    logged impulse amplitude of every jump event, and ``disturbance``
    enters the drift of every mode while the system runs.
    """

    modes: tuple
    transitions: object = "nearest"
    output: OutputMap | None = None
    impulse_scale: float = 0.0
    disturbance: Disturbance | None = None

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise ValueError("system needs at least one mode")
        if not 0.0 <= self.impulse_scale < math.inf:  # NaN fails too
            raise ValueError(f"impulse_scale must be finite and >= 0, got {self.impulse_scale}")
        if self.transitions != "nearest":
            for (i, j), tm in self.transitions.items():
                if not (0 <= i < len(self.modes) and 0 <= j < len(self.modes)):
                    raise ValueError(f"transition {i}->{j}: mode index out of range")
                if i == j:
                    raise ValueError(f"transition {i}->{j}: a switch into the same "
                                     "mode is no jump, so its map is never applied")
                src, dst = self.modes[i].dim, self.modes[j].dim
                if (tm.source_dim, tm.target_dim) != (src, dst):
                    raise ValueError(
                        f"transition {i}->{j} must map dimension {src} to {dst}"
                    )

    @functools.cached_property
    def table(self) -> dict:
        """Every ordered mode pair the rule allows, mapped to its map: the
        explicit mapping as given, or :func:`nearest_map` for every i != j."""
        if self.transitions != "nearest":
            return self.transitions
        dims = [m.dim for m in self.modes]
        pairs = itertools.permutations(range(len(dims)), 2)
        return {(i, j): nearest_map(dims[i], dims[j]) for i, j in pairs}


@dataclass(frozen=True, eq=False)
class Segment:
    """Samples of one dwell interval: constant dimension throughout."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulation output: the integrated segments plus the jump events.

    ``segments[i]`` was integrated in mode ``segment_modes[i]``; the norms
    and outputs are kept per segment too.  At each switch both the pre- and
    post-switch states appear as samples with the same timestamp, so the
    sample times are nondecreasing.
    """

    segments: tuple
    segment_modes: tuple
    events: list
    output_map: OutputMap | None = None

    @functools.cached_property
    def times(self) -> np.ndarray:
        """Every sample time, in order; its length is the sample count."""
        if not self.segments:
            return np.empty(0)
        return np.concatenate([seg.times for seg in self.segments])

    @functools.cached_property
    def segment_vnorms(self) -> list:
        return [v_norm_rows(seg.states) for seg in self.segments]

    @functools.cached_property
    def segment_outputs(self) -> list | None:
        """The output of every sample, one (k, p) array per segment.

        A non-finite output of a finite state raises :class:`NumericFailure`
        at the first such sample.
        """
        if self.output_map is None:
            return None
        outputs = []
        for seg in self.segments:
            with np.errstate(over="ignore", invalid="ignore"):
                Y = self.output_map.of_rows(seg.states)
            if not np.isfinite(Y).all():  # the row mask only to name the first
                t = float(seg.times[(~np.isfinite(Y).all(axis=1)).argmax()])
                raise NumericFailure("output map overflowed", operation="output", time=t)
            outputs.append(Y)
        return outputs

    @property
    def max_dim(self) -> int:
        return max((seg.states.shape[1] for seg in self.segments), default=0)

    @property
    def final_state(self) -> np.ndarray:
        return self.segments[-1].states[-1]

    def switch_entry_norms(self):
        """(time, pre-switch v-norm) for every proper switch (t > 0)."""
        return [(ev.time, v_norm(ev.pre_state)) for ev in self.events if ev.time > 0.0]


def _mode_rhs(mode: Mode, disturbance):
    """Assemble dx/dt = f(x + eta) + inputs * feedback for one mode.

    A disturbance eta of foreign dimension enters the drift f through its
    projection onto the mode dimension, by one bridge built here; for a
    matrix drift this is the dimension-keeping product A (x + eta) in the
    lcm dimension.  The zero fast path keeps eta == 0 bit-identical to no
    disturbance at all; a non-finite eta raises ``ValueError``.
    """
    n = mode.dim
    if mode.is_linear:
        f = lambda x, A=mode.drift: A @ x
    else:
        f = lambda x, g=mode.drift: np.asarray(g(x), dtype=float)
    if disturbance is None:
        drift = lambda t, x: f(x)
    else:
        P = None if disturbance.dim == n else bridge(n, disturbance.dim)

        def drift(t, x):
            eta = disturbance(t)
            if not eta.any():
                return f(x)
            eta = as_entries(eta)  # a non-finite eta raises ValueError
            return f(x + (eta if P is None else P @ eta))

    control = mode.feedback
    if control is None:
        return drift

    def rhs(t, x):
        u = np.atleast_1d(np.asarray(control(t, x), dtype=float))
        return drift(t, x) + mode.input_matrix_at(x) @ u

    return rhs


def _on_lattice(t, lattice_t):
    """Whether time(s) ``t`` count as the lattice time(s) ``lattice_t``: within
    ``_TIME_EPS`` max(1, |t|), elementwise."""
    return np.abs(t - lattice_t) <= _TIME_EPS * np.maximum(1.0, np.abs(t))


def _grid(t0: float, t1: float, step: float) -> tuple[np.ndarray, int]:
    """The sample times of [t0, t1] at ``step`` and how many lie on the
    lattice t0 + k step: the one place that decides where the last lands.

    t1 is the last lattice sample when the lattice time nearest it is on
    the lattice by :func:`_on_lattice` (it is then replaced by t1);
    otherwise t1 follows the lattice times below it as one shorter step.
    """
    n = round((t1 - t0) / step)
    times = t0 + np.arange(n + 1) * step
    if _on_lattice(t1, times[-1]):
        times[-1] = t1
        return times, len(times)
    times = times[:-1] if times[-1] > t1 else times
    return np.append(times, t1), len(times)


def _powers(E: np.ndarray, count: int) -> np.ndarray:
    """E^0 ... E^{count-1}, stacked, by doubling; for a stack E of (d, d)
    matrices, the powers of each, shape (count, *E.shape).

    Block s..2s-1 is E^s times block 0..s-1, so about log2(count) stacked
    products build them and each power is a product of about 2 log2(count)
    factors.  E itself is read only when count > 1.
    """
    P = np.empty((count, *E.shape))
    P[0] = np.eye(E.shape[-1])
    s = 1
    while s < count:
        m = min(s, count - s)
        P[s : s + m] = (P[s - 1] @ E) @ P[:m]
        s *= 2
    return P


class _FlowCache:
    """Exponentials that the exact flows of one :func:`simulate` call share
    across the visits of its modes.

    ``arrays`` maps ("powers", key) and ("anchors", key), key being
    (G's bytes, step, offset), to the :func:`_powers` block and to the first
    stack of anchor exponentials e^{G (offset + j B step)}, j = 0, 1, ...
    of :func:`_block_flow`.  They depend only on the key and j, never on
    the state a visit enters with, and a kept slice is the one a new
    :func:`_expm_stack` call would give, bit for bit, non-finite where that
    exponential overflowed.  What is kept holds at most ``_CACHE_ENTRIES``
    entries, whatever the number of samples, visits or modes; an array that
    does not fit is computed at each visit, as without a cache.
    ``_FlowCache(0)`` keeps nothing.
    """

    def __init__(self, budget: int = _CACHE_ENTRIES):
        self.arrays, self.room = {}, budget

    def keep(self, key, A: np.ndarray) -> np.ndarray:
        """``A``, kept under ``key`` in place of what was there if it fits."""
        old = self.arrays.get(key)
        grow = A.size - (0 if old is None else old.size)
        if grow <= self.room:
            self.arrays[key] = A
            self.room -= grow
        return A


def _block_flow(G: np.ndarray, z0: np.ndarray, step: float, count: int,
                offset: float = 0.0, cache: _FlowCache | None = None):
    """Samples z_k = e^{G (offset + k step)} z0 for k < ``count``, yielded
    in order as (m, d) arrays.

    Sample j*B + i is E^i, from :func:`_powers`, applied to the anchor
    e^{G (offset + j B step)} z0, with E = e^{G step}: each anchor is its
    own exponential, so rounding compounds over at most one block, never
    over the whole grid (Moler & Van Loan, SIAM Review 2003, "Nineteen
    dubious ways", method 19).  The block length B is ``_FLOW_BLOCK``, or
    fewer for a large G, so that the B powers hold at most
    ``_STACK_ENTRIES`` entries.  E and the anchors are :func:`_expm_stack`
    slices, the anchors in stacks within the same budget, so the matrices
    held at once are set by that budget, never by ``count``; a flow of any
    length costs E plus one slice per anchor, and the anchor at t = 0 is
    e^{0 G} = I, which takes no exponential.  E and the anchors that the
    first stack lacks are one :func:`_expm_stack` call, and a time in both
    is one slice: on a grid that starts at its own step (offset = step) the
    first anchor is E itself.  An exponential that
    overflowed is used as it is, so its samples are non-finite and the
    caller finds them; nothing raises.  With a ``cache``, the flow takes
    the powers and the first stack of anchors kept under (G, step, offset)
    and keeps what it computes of them while they fit the cache's
    ``_CACHE_ENTRIES`` (:class:`_FlowCache`); each anchor is still that
    exponential applied to this z0.

    The flow is yielded a stack at a time.  One stacked product applies
    every anchor of a stack to z0; one more applies the powers to those
    block starts and yields the stack's whole blocks as one array, split
    so that no array holds more than ``_STACK_ENTRIES`` entries.  A partial
    last block is its own product and its own array.  numpy runs a stacked
    matrix-vector product as one gemv per slice, the call a single block
    makes, so the samples are bit for bit those of a block at a time.
    Gemm batching, ``rows @ starts.T``, would change them (gemm differs
    from gemv for d = 2..11).
    """
    d = len(G)
    per_stack = max(1, _STACK_ENTRIES // d**2)
    block = min(_FLOW_BLOCK, per_stack)
    per_yield = max(1, _STACK_ENTRIES // (block * d))  # whole blocks per array
    cache = _FlowCache(0) if cache is None else cache
    key = (G.tobytes(), step, offset)
    ts = offset + np.arange(0, count, block) * step
    full = count // block  # the blocks of B samples; a last one may be shorter
    powers, need = cache.arrays.get(("powers", key), ()), min(count, block)
    # the first stack extends what is kept; at offset 0 it opens with
    # e^{0 G} = I, which takes no exponential
    anchors = cache.arrays.get(("anchors", key), np.eye(d)[None] if offset == 0.0 else ())
    lack = ts[len(anchors) : per_stack]
    want_E, E = need > max(1, len(powers)), G  # E^0 = I needs no exponential
    if want_E or lack.size:
        # E and the first stack's missing anchors are one stacked exponential,
        # E being the anchor at t = step where the grid has one
        hit = np.flatnonzero(lack == step)
        fresh = _expm_stack(G, np.append(lack, step) if want_E and not hit.size else lack)
        if want_E:
            E = fresh[hit[0] if hit.size else -1]
        if lack.size:
            fresh = fresh[: lack.size]
            anchors = cache.keep(("anchors", key),
                                 np.concatenate([anchors, fresh]) if len(anchors) else fresh)
    if len(powers) < need:
        powers = cache.keep(("powers", key), _powers(E, need))
    rows = powers.reshape(-1, d)
    for lo in range(0, len(ts), per_stack):
        hi = min(lo + per_stack, len(ts))
        if lo:
            anchors = _expm_stack(G, ts[lo:hi])
        starts = anchors[: hi - lo] @ z0  # one gemv per anchor
        for j in range(lo, min(hi, full), per_yield):
            k = min(j + per_yield, hi, full)
            yield (rows @ starts[j - lo : k - lo, :, None]).reshape(-1, d)
        if hi > full:  # the partial last block
            m = count - full * block
            yield (rows[: m * d] @ starts[-1]).reshape(m, d)


def _generator(mode: Mode) -> np.ndarray | None:
    """Matrix G of the exact flow of ``mode`` closed by its feedback, or
    None when the mode moves by RK4; the one decision of the path.

    A linear drift without feedback gives G = A.  Affine feedback
    u = K x + u0 through a constant input matrix gives A + B K, bordered by
    the column B u0 and a zero row when u0 != 0, so that [x; 1] evolves by
    G (Van Loan, IEEE TAC 1978).  An evaluator drift or feedback, or
    feedback through state-dependent channels, has no G.  A G that
    overflows from finite A, B, K and u0 raises :class:`NumericFailure`
    naming the mode.
    """
    if not mode.is_linear:
        return None
    fb, B = mode.feedback, mode.inputs
    if fb is None:
        return mode.drift
    if not (isinstance(fb, AffineFeedback) and isinstance(B, np.ndarray)):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        G = mode.drift + B @ fb.K
        if fb.u0.any():
            G = np.block([[G, (B @ fb.u0)[:, None]], [np.zeros(mode.dim + 1)]])
    if not np.isfinite(G).all():
        raise NumericFailure(f"closed loop of mode {mode.label!r} overflowed",
                             operation="closed_loop")
    return G


def integrate_mode(
    mode: Mode, x0, t0: float, t1: float, step: float, disturbance=None,
    cache: _FlowCache | None = None,
) -> Segment:
    """Integrate one mode, closed by its own feedback, over [t0, t1].

    The mode alone decides the path: without disturbance, a mode whose
    :func:`_generator` gives a matrix G is propagated exactly by e^{tG} on
    the fixed-step grid; everything else (evaluator drifts, feedback
    evaluators, disturbances) uses classical RK4.  To integrate a linear
    mode with RK4, give its drift as an evaluator ``lambda x: A @ x``.  An
    open-loop run is ``integrate_mode(replace(mode, feedback=None), ...)``.
    A non-finite sample on either path raises :class:`NumericFailure` at
    its time; on the exact path that is the one overflow rule, since an
    exponential that overflowed is used as it is (:func:`_block_flow`).
    :func:`simulate` passes one ``cache`` to every visit of a run, so that
    the exact path reuses the step powers and the first anchor stack kept
    under (G, step, 0) (:class:`_FlowCache`); the samples are the same bit
    for bit with or without it.  A step that is not positive and finite, or
    a t0 or t1 that is not finite, raises ``ValueError``.
    """
    if not (0 < step < math.inf and math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("step must be positive and finite, and t0 and t1 finite")
    x = as_entries(x0).copy()
    if x.size != mode.dim:
        raise ValueError(
            f"initial state has dimension {x.size}, mode {mode.label!r} "
            f"expects {mode.dim}"
        )
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    times, lattice = _grid(t0, t1, step)
    G = _generator(mode) if disturbance is None else None
    if G is not None:
        # a bordered G moves [x; 1]; the extra column is dropped at the end
        z = np.append(x, 1.0) if len(G) > x.size else x
        with np.errstate(over="ignore", invalid="ignore"):
            Z = list(_block_flow(G, z, step, lattice, cache=cache))
            if lattice < len(times):  # the shorter last step, from the sample before it
                Z.append((_expm_stack(G, times[-1:] - times[-2])[0] @ Z[-1][-1])[None])
        states = np.ascontiguousarray(np.concatenate(Z)[:, : mode.dim])
    else:
        states = np.full((len(times), x.size), np.nan)
        states[0] = x
        rhs = _mode_rhs(mode, disturbance)
        grid = times.tolist()
        probe = np.asarray(rhs(grid[0], x))
        if probe.shape != x.shape:
            raise ValueError(
                f"mode {mode.label!r}: evaluator returned shape {probe.shape}, "
                f"expected {x.shape}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, len(grid)):
                t, h = grid[k - 1], grid[k] - grid[k - 1]
                k1 = rhs(t, x)
                k2 = rhs(t + h / 2, x + (h / 2) * k1)
                k3 = rhs(t + h / 2, x + (h / 2) * k2)
                k4 = rhs(t + h, x + h * k3)
                x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
                states[k] = x
                if not np.all(np.isfinite(x)):
                    break  # the samples not reached stay NaN
    if not np.isfinite(states).all():  # the row mask only to name the first
        raise NumericFailure(
            f"state diverged in mode {mode.label!r}",
            operation="integrate_mode",
            time=float(times[(~np.isfinite(states).all(axis=1)).argmax()]),
        )
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
    down, up = bridge(n, N), bridge(N, n)  # block means, entry replication

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
    system: DvSystem, signal: SwitchingSignal, x0, step: float = DEFAULT_STEP
) -> Trajectory:
    """Run a dimension-varying system along a switching signal.

    The active mode, closed by its own feedback and driven by the system's
    disturbance, is integrated on each dwell interval (switch times are
    grid points, never interpolated across); at each switch into another
    mode the map of :attr:`DvSystem.table` produces the post state and a
    jump event is logged.  A switch the table lacks raises ``ValueError``
    before anything is integrated.  A switch into the same mode is no jump:
    the state carries over and no event is logged.  An initial state of
    foreign dimension is projected onto the first mode's dimension with an
    event at t = 0.  To run a mode under another feedback law or another
    disturbance, replace it in the system with ``dataclasses.replace``.
    A state that diverges raises :class:`NumericFailure` naming the index
    of its segment, as in ``Trajectory.segments``, besides mode and time.

    The visits of one call share a :class:`_FlowCache`: a mode on the exact
    path builds its step powers and its first stack of anchor exponentials
    once, kept under (G, step, 0) since every visit's flow starts from its
    own t0, and later visits reuse them.  It holds at most
    ``_CACHE_ENTRIES`` matrix entries and lives only as long as the call.
    An exponential that overflowed is kept as it is, so every visit that
    uses it fails with its first non-finite sample, as without the cache.
    """
    intervals = signal.intervals()
    modes = [mi for _, _, mi in intervals]
    unknown = sorted({m for m in modes if not 0 <= m < len(system.modes)})
    if unknown:
        raise ValueError(f"signal references unknown mode indices {unknown}")
    rule = system.table
    for mi, mj in zip(modes, modes[1:]):
        if mi != mj and (mi, mj) not in rule:
            raise ValueError(f"no transition map for mode pair ({mi}, {mj})")

    x = as_entries(x0).copy()
    events: list[JumpEvent] = []
    first_mode = system.modes[intervals[0][2]]
    if x.size != first_mode.dim:
        post = project(x, first_mode.dim)
        events.append(make_jump_event(0.0, x, post, system.impulse_scale))
        x = post

    segments, cache = [], _FlowCache()
    for (ta, tb, mi), mj in zip(intervals, modes[1:] + [None]):
        try:
            seg = integrate_mode(system.modes[mi], x, ta, tb, step, system.disturbance, cache)
        except NumericFailure as exc:  # name the visit: a run may revisit a mode
            raise NumericFailure(exc.reason, operation=exc.operation, time=exc.time,
                                 segment=len(segments)) from None
        segments.append(seg)
        x = seg.states[-1]
        if mj not in (None, mi):
            with np.errstate(over="ignore", invalid="ignore"):
                post = rule[(mi, mj)](x)
            if not np.isfinite(post).all():
                msg = f"transition {mi}->{mj} overflowed"
                raise NumericFailure(msg, operation="transition", time=tb)
            events.append(make_jump_event(tb, x, post, system.impulse_scale))
            x = post

    return Trajectory(tuple(segments), tuple(modes), events, system.output)


def embed_common(system: DvSystem) -> DvSystem:
    """Embed every mode into the lcm of the native dimensions.

    The result is an ordinary switched system (all modes share one
    dimension) whose trajectories from replicated initial states stay
    equivalent to the original ones; switches become explicit reset maps
    confined to the replicated subspaces, and their jump events carry the
    same gaps and directions as the original impulse log.  Each reset map
    keeps its original's Lipschitz constant, which it equals exactly: the
    lift into dimension n is a ``v_norm`` isometry, the block average out
    of it does not expand, and replicated states attain the original's
    bound.  The disturbance is carried over, so the result is the whole model.
    """
    dims = [m.dim for m in system.modes]
    n = math.lcm(*dims)
    table = {
        (i, j): TransitionMap(n, n, bridge(n, dims[j]) @ tm.matrix @ bridge(dims[i], n),
                              lipschitz=tm.lipschitz)
        for (i, j), tm in system.table.items()
    }
    return DvSystem(
        modes=tuple(lift_field(m, n // m.dim) for m in system.modes),
        transitions=table,
        output=system.output,
        impulse_scale=system.impulse_scale,
        disturbance=system.disturbance,
    )


def closed_loop_drift(mode: Mode) -> np.ndarray:
    """The matrix A + B K of a linear mode under its linear feedback u = K x:
    the :func:`_generator` of the mode when it is unbordered.

    A mode without feedback gives its drift.  Any other closed loop (a
    nonlinear drift, a feedback evaluator, or an affine feedback with an
    offset u0 != 0, whose equilibrium is not the origin) has no such matrix
    and raises ``ValueError`` naming the mode; an A + B K that overflows
    raises :class:`NumericFailure` naming it.
    """
    if not mode.is_linear:
        raise ValueError(f"mode {mode.label!r}: dwell analysis requires a linear drift")
    G = _generator(mode)
    if G is not None and len(G) == mode.dim:
        return G
    raise ValueError(
        f"mode {mode.label!r}: dwell analysis requires linear feedback "
        "u = K x (no offset, constant input matrix)"
    )


def _contracting(A: np.ndarray, ds: np.ndarray, lipschitz: float, bound: float) -> np.ndarray:
    """Mask of the dwells d of ``ds`` with L ||e^{d A}||_2 <= bound: the
    exact per-point test, one stacked exponential and one stacked 2-norm.

    An exponential that overflowed does not contract: its true 2-norm lies
    beyond the float range.
    """
    E = _expm_stack(A, ds)
    finite = np.isfinite(E).all(axis=(1, 2))
    ok = np.zeros(len(ds), dtype=bool)
    with np.errstate(over="ignore"):
        # the largest singular value, which LAPACK returns first: equal bit
        # for bit to np.linalg.norm(E_i, 2), without its axis handling
        ok[finite] = lipschitz * np.linalg.svd(E[finite], compute_uv=False)[:, 0] <= bound
    return ok


def _dwell_screen(A: np.ndarray):
    """One mode's screen for :func:`_screened`: (E^k and |E|^k stacked,
    ||A||_F, H^4), or None when no point's band could be small: scipy finds
    the Lyapunov equation ill-conditioned (it warns), or the least band
    _DWELL_SLACK u 2 d^2 H^3 exceeds ``_DWELL_BAND``."""
    import scipy.linalg

    d = len(A)
    with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        V = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(d))
        if caught or not np.isfinite(V).all():
            return None
        lo, hi = np.linalg.eigvalsh(V)[[0, -1]]
        least = _DWELL_SLACK * _UNIT_ROUNDOFF * 2 * d * d * (hi / lo) ** 1.5
        if not (lo > 0 and least <= _DWELL_BAND):
            return None
        E = _expm_stack(A, np.array([_DWELL_GRID]))[0]
        return _powers(np.stack([E, np.abs(E)]), _DWELL_CHUNK), np.linalg.norm(A), (hi / lo) ** 2


def _screened(A: np.ndarray, screen, ts: np.ndarray, ks: np.ndarray,
              lipschitz: float, bound: float) -> np.ndarray:
    """Mask of the points ``ts`` where L ||e^{tA}||_2 <= bound, by one
    mode's :func:`_dwell_screen` ``screen``; ``ks`` are their grid offsets
    from ts[0] (increasing, below ``_DWELL_CHUNK``).  Every point gets the
    answer of :func:`_contracting`, the exact per-point test.

    E = e^{hA}, h = ``_DWELL_GRID``, is one :func:`_expm_stack` slice, and
    the screen holds the powers E^k and |E|^k (entrywise absolute values),
    k < ``_DWELL_CHUNK``, built by :func:`_powers`.  A run t_0 < t_1 < ...
    of grid points, t_k = t_0 + k h up to the rounding of the grid's sums,
    takes one exact anchor X = e^{t_0 A}, and point k is screened by n_k =
    ||E^k X||_2: one stacked product, and the largest eigenvalue of each
    (E^k X)^T (E^k X) (Moler & Van Loan, SIAM Review 2003, method 19).

    The rounding band of point k, a bound on how far n_k lies from the norm
    the exact test computes, with K the run's last offset, d the dimension
    and u the unit roundoff, is

        err_k = _DWELL_SLACK u (K + 2) d (|| |E|^k |X| ||_F + (d + t_k ||A||_F) H^4).

    Its first term bounds the rounding of the product of K + 1 factors,
    which is at most gamma_{(K+1) d} |E|^k |X| entrywise (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., section 3.5), and of the
    2-norm.  The second bounds the error of the exponentials, the exact
    test's own included: a backward error of about u ||tA|| and the
    rounding of d x d squarings move e^{tA} by about u (d + ||tA||) H^2, and
    the powers carry that over by up to H^2 more, where H = sqrt(kappa(V))
    >= sup_t ||e^{tA}||_2 for the solution V of A^T V + V A = -I.  A point
    is decided by n_k when err_k <= ``_DWELL_BAND`` n_k and
    |L n_k - bound| > L err_k.  It takes :func:`_contracting` otherwise,
    when the mode has no screen (a strongly non-normal mode, whose H is
    large), or when the run's products are not finite.
    """
    if screen is None:
        return _contracting(A, ts, lipschitz, bound)
    powers, norm, hump4 = screen
    X = _expm_stack(A, ts[:1])[0]
    with np.errstate(all="ignore"):
        MR = powers[ks] @ np.stack([X, np.abs(X)])  # E^k X and |E|^k |X|
        if not np.isfinite(MR).all():
            return _contracting(A, ts, lipschitz, bound)
        M = MR[:, 0]
        n = np.sqrt(np.linalg.eigvalsh(np.swapaxes(M, 1, 2) @ M)[:, -1])
        scale = _DWELL_SLACK * _UNIT_ROUNDOFF * (ks[-1] + 2) * len(A)
        err = scale * (np.linalg.norm(MR[:, 1], axis=(1, 2)) + (len(A) + ts * norm) * hump4)
        ok = lipschitz * n <= bound
        exact = ~((err <= _DWELL_BAND * n) & (np.abs(lipschitz * n - bound) > lipschitz * err))
    if exact.any():
        ok[exact] = _contracting(A, ts[exact], lipschitz, bound)
    return ok


def _first_contracting(mats, ds: np.ndarray, lipschitz: float, bound: float,
                       screens=None):
    """Index into ``ds`` of the first dwell d with L ||e^{d A}||_2 <= bound
    for every A of ``mats``, or None.

    Each mode is tested on the dwells where every earlier mode contracted,
    by :func:`_screened` with its screen from ``screens`` (one
    :func:`_dwell_screen` per mode; ``ds`` then is a run of consecutive grid
    points), or without one, by :func:`_contracting`; both give the same
    answers.  With L > 0, L * max_i n_i <= bound is the same test as every
    L * n_i <= bound, since rounding is monotone.
    """
    alive = np.arange(len(ds))
    for A, screen in zip(mats, screens or [None] * len(mats)):
        alive = alive[_screened(A, screen, ds[alive], alive - alive[0], lipschitz, bound)]
        if not len(alive):
            return None
    return int(alive[0])


def dwell_bound(
    system: DvSystem, gamma: float, lipschitz: float | None = None
) -> float | None:
    """Smallest dwell time making every mode-plus-jump cycle a contraction.

    Finds the least dwell D with L * max_i ||e^{D A_i}||_2 <= 1 - gamma,
    where A_i is the closed-loop drift of mode i (:func:`closed_loop_drift`)
    and L is the largest transition Lipschitz constant (or the explicit
    override, which must be positive and finite): a scan on a grid of
    ``_DWELL_GRID``, then bisection to within ``_DWELL_TOL``.  The scan
    takes ``_DWELL_CHUNK`` grid points at a time (:func:`_first_contracting`):
    each mode screens them by powers of one step exponential from one exact
    anchor per chunk (:func:`_screened`).  A point whose mode has no
    usable screen, whose screened norm lies within its rounding band of
    1 - gamma, or whose chunk's products are not finite takes the exact
    per-point test (:func:`_contracting`), as each bisection step does.
    So the result is the point-by-point scan's bit for bit.  A dwell whose
    exponential overflows does not contract, so an overflow raises no
    :class:`NumericFailure`.  Returns None when a mode is not Hurwitz or no
    dwell up to ``_MAX_DWELL`` works.  Raises ``ValueError`` for a mode
    whose closed loop is not linear, and :class:`NumericFailure` for one
    whose A + B K overflows.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if lipschitz is not None and not (math.isfinite(lipschitz) and lipschitz > 0.0):
        raise ValueError(f"lipschitz must be positive and finite, got {lipschitz}")
    mats = [closed_loop_drift(mode) for mode in system.modes]
    for mode, A in zip(system.modes, mats):
        if np.linalg.eigvals(A).real.max() >= 0.0:
            log.warning("mode %r is not Hurwitz; no dwell bound", mode.label)
            return None
    if lipschitz is None:
        lipschitz = max((tm.lipschitz for tm in system.table.values()), default=1.0)
    bound = 1.0 - gamma

    # 0, then the dwells a loop adding _DWELL_GRID reaches, bit for bit
    grid = np.cumsum(np.r_[0.0, np.full(round(_MAX_DWELL / _DWELL_GRID), _DWELL_GRID)])
    screens = [_dwell_screen(A) for A in mats]
    for c in range(1, len(grid), _DWELL_CHUNK):
        hit = _first_contracting(mats, grid[c : c + _DWELL_CHUNK], lipschitz, bound, screens)
        if hit is not None:
            lo, hi = float(grid[c + hit - 1]), float(grid[c + hit])
            break
    else:
        return None
    while hi - lo > _DWELL_TOL:
        mid = 0.5 * (lo + hi)
        if _first_contracting(mats, np.array([mid]), lipschitz, bound) is not None:
            hi = mid
        else:
            lo = mid
    return hi
