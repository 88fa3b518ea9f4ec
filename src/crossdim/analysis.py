"""Controllability/observability tests, cross-dimension model reduction,
vector-field restriction, span-membership checks, and aggregation runs.

Every controllability and observability rank comes from one orthogonal
staircase, :func:`_controllable_basis`; the thresholds are the module
constants ``RANK_RTOL`` and ``SPAN_RTOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cdspace import project, v_norm_rows
from .dkstp import _bridge_pinv, bridge
from .dynamics import (
    _STACK_ENTRIES,
    Mode,
    Segment,
    _block_flow,
    _expm_stack,
    _on_lattice,
    integrate_mode,
)
from .errors import NumericFailure

__all__ = [
    "AggregateResult",
    "ControllabilityReport",
    "ErrorSeries",
    "ReducedModel",
    "aggregate_run",
    "approx_error",
    "ctrb_rank",
    "intersection_basis",
    "obs_rank",
    "partial_ctrb",
    "reachability_chain",
    "reduce_model",
    "restrict_field",
    "span_membership",
]

#: Rank threshold: a singular value counts above this times its matrix's scale.
RANK_RTOL = 1e-10
#: Residual threshold of :func:`span_membership`, relative to max(1, ||v(x)||).
SPAN_RTOL = 1e-9


def _rank(M: np.ndarray) -> int:
    """Numerical rank: singular values above RANK_RTOL times the largest."""
    s = np.linalg.svd(M, compute_uv=False) if M.size else ()
    return int(np.count_nonzero(s > RANK_RTOL * s[0])) if len(s) else 0


def _binary_scaled(M: np.ndarray) -> np.ndarray:
    """M times the power of two that brings its largest |entry| into [0.5, 1).

    Exact, so subspaces and rank decisions stay as they are, while norms
    and products of a finite M no longer overflow.
    """
    return np.ldexp(M, -np.frexp(np.abs(M).max(initial=0.0))[1])


def _controllable_basis(A, B) -> np.ndarray:
    """Orthonormal basis (columns) of the controllable subspace of (A, B).

    The orthogonal staircase (Paige 1981; Van Dooren 1981): block Arnoldi
    on B.  Each block, B and then A times the last block's basis, is
    orthogonalized against the basis so far by two Gram-Schmidt passes;
    its rank counts singular values above RANK_RTOL times ||B||_2 for the
    first block and ||A||_2 after, so no column grows like a power of A.
    A and B are each scaled by a power of two first (:func:`_binary_scaled`),
    which leaves the subspace unchanged.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n = A.shape[0]
    if A.shape != (n, n) or B.ndim != 2 or B.shape[0] != n:
        raise ValueError("inconsistent shapes for the pair (A, B)")
    A, B = _binary_scaled(A), _binary_scaled(B)
    V, W = np.zeros((n, 0)), B
    a_norm = np.linalg.svd(A, compute_uv=False)[0] if n else 0.0  # ||A||_2
    while W.shape[1] and V.shape[1] < n:
        U, s, _ = np.linalg.svd(W, full_matrices=False)
        scale = a_norm if V.shape[1] else s[0]
        r = min(np.count_nonzero(s > RANK_RTOL * scale), n - V.shape[1])
        if not r:
            break
        V, W = np.hstack([V, U[:, :r]]), A @ U[:, :r]
        for _ in range(2):
            W = W - V @ (V.T @ W)
    return V


def ctrb_rank(A, B) -> int:
    """Dimension of the controllable subspace of (A, B)."""
    return _controllable_basis(A, B).shape[1]


def obs_rank(A, C) -> int:
    """Dimension of the observable subspace of (A, C): the rank of (A^T, C^T)."""
    return ctrb_rank(np.transpose(A), np.transpose(C))


def intersection_basis(m: int, n: int) -> np.ndarray:
    """Basis (columns, in R^m) of the common subspace of dimensions m and n.

    The intersection is the replicated copy of the gcd dimension g: column
    j is the j-th standard basis vector of R^g with each entry repeated
    m/g times: the bridge from g to m.
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    return bridge(m, math.gcd(m, n))


def _fills(V: np.ndarray, S: np.ndarray) -> bool:
    """Do the orthonormal columns V and the independent columns S span R^n?"""
    Q = np.linalg.svd(S, full_matrices=False)[0]  # orthonormal, spans S
    return _rank(np.hstack([V, Q])) == V.shape[0]


def partial_ctrb(A, B, subspace_basis) -> bool:
    """Controllability transverse to a subspace.

    True when the controllable subspace and span(S) together fill R^n.  An
    empty basis reduces to the ordinary complete-controllability test.
    """
    V = _controllable_basis(A, B)
    n = V.shape[0]
    S = np.asarray(subspace_basis, dtype=float)
    if S.size == 0:
        S = S.reshape(n, 0)
    if S.ndim != 2 or S.shape[0] != n:
        raise ValueError("subspace basis must be n x s")
    if _rank(S) != S.shape[1]:
        raise ValueError("subspace basis columns are linearly dependent")
    return _fills(V, S)


@dataclass(frozen=True)
class ControllabilityReport:
    """Per-mode controllability summary."""

    label: str
    dim: int
    kalman_rank: int
    fully_controllable: bool


def _linear_pair(mode: Mode):
    """(A, B) of a mode with a matrix drift and matrix (or no) inputs."""
    if not mode.is_linear or not isinstance(mode.inputs, (np.ndarray, type(None))):
        raise ValueError("controllability test requires a linear mode")
    B = mode.inputs if mode.inputs is not None else np.zeros((mode.dim, 0))
    return mode.drift, B


def controllability_report(mode: Mode) -> ControllabilityReport:
    rank = ctrb_rank(*_linear_pair(mode))
    return ControllabilityReport(mode.label, mode.dim, rank, rank == mode.dim)


def reachability_chain(system, start: int, target: int):
    """Mode chain steering dimension-to-dimension, or None.

    Breadth-first search on the mode graph: an edge i -> j exists when the
    rule allows it (``system.table``) and mode i is controllable transverse
    to the intersection of the two dimensions; a successful chain also
    requires the terminal mode to be fully controllable.  Every mode must
    be linear, and its controllable basis is computed once.
    """
    modes = system.modes
    count = len(modes)
    if not (0 <= start < count and 0 <= target < count):
        raise ValueError("start/target mode index out of range")
    bases = [_controllable_basis(*_linear_pair(m)) for m in modes]
    if bases[target].shape[1] != modes[target].dim:
        return None
    if start == target:
        return [start]

    parents = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for i in frontier:
            for j in range(count):
                if j in parents or (i, j) not in system.table:
                    continue
                S = intersection_basis(modes[i].dim, modes[j].dim)
                if _fills(bases[i], S):
                    parents[j] = i
                    if j == target:
                        chain = [j]
                        while parents[chain[-1]] is not None:
                            chain.append(parents[chain[-1]])
                        return chain[::-1]
                    nxt.append(j)
        frontier = nxt
    return None


@dataclass(frozen=True, eq=False)
class ReducedModel:
    """Least-squares compression/expansion of a linear system across dimensions."""

    source_dim: int
    target_dim: int
    A_pi: np.ndarray
    B_pi: np.ndarray | None = None
    C_pi: np.ndarray | None = None


def reduce_model(A, B=None, C=None, m: int | None = None) -> ReducedModel:
    """Project an n-dimensional linear system onto dimension m.

    The reduced drift is the least-squares matching of vector fields
    through the bridge P = ``bridge(m, n)`` from dimension n onto m: ``P A P^+``
    with the pseudoinverse P^+ (every bridge has full rank, so this is
    ``P A P^T (P P^T)^{-1}`` when compressing and ``P A (P^T P)^{-1} P^T``
    when expanding).  Inputs project directly, ``P B``, and outputs
    transform like the drift's right factor, ``C P^+``.  P^+ is
    ``np.linalg.pinv(P)``, computed once per (m, n) and cached beside the
    bridge, so a sweep over many drifts or many calls with one m pays one
    SVD; an SVD that does not converge raises :class:`NumericFailure`.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("drift matrix must be square")
    if m is None or m < 1:
        raise ValueError("target dimension must be a positive integer")
    if B is not None:
        B = np.asarray(B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
    if C is not None:
        C = np.asarray(C, dtype=float)
        if C.ndim == 1:
            C = C.reshape(1, -1)
    P = bridge(m, n)
    try:
        P_plus = _bridge_pinv(m, n)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(
            "singular value decomposition did not converge", operation="reduce_model"
        ) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        A_pi = P @ A @ P_plus
        B_pi = None if B is None else P @ B
        C_pi = None if C is None else C @ P_plus
    if not all(np.isfinite(M).all() for M in (A_pi, B_pi, C_pi) if M is not None):
        raise NumericFailure("reduced model overflowed", operation="reduce_model")
    return ReducedModel(n, m, A_pi, B_pi, C_pi)


@dataclass(frozen=True, eq=False)
class ErrorSeries:
    """Relative approximation errors over time; NaN marks undefined points."""

    times: np.ndarray
    values: np.ndarray

    def max(self) -> float:
        finite = self.values[np.isfinite(self.values)]
        return float(finite.max()) if finite.size else math.nan


def _relative_errors(approx: np.ndarray, exact: np.ndarray):
    """Row-wise ``v_norm(approx - exact) / v_norm(exact)``, NaN where the
    exact row vanishes, bit for bit as :func:`v_norm` gives each quotient;
    and the rows :func:`v_norm` would refuse: a non-finite exact row, or a
    non-finite gap under a nonzero exact row."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gap = approx - exact
        denom = v_norm_rows(exact)
        # a non-finite exact row makes its gap non-finite too, so a finite
        # gap needs no row mask
        diverged = np.zeros(len(exact), dtype=bool)
        if not np.isfinite(gap).all():
            diverged = ~np.isfinite(exact).all(axis=1) | (
                (denom != 0.0) & ~np.isfinite(gap).all(axis=1)
            )
        return np.where(denom == 0.0, np.nan, v_norm_rows(gap) / denom), diverged


def _uniform_step(ts: np.ndarray) -> float | None:
    """The step of ``ts`` when it is a uniform increasing grid, else None.

    Uniform means at least 3 points and, with step = (t_last - t_0) /
    (count - 1) > 0, every t_k on the lattice t_0 + k step by
    :func:`~crossdim.dynamics._on_lattice`: ``{from, to, count}`` times
    (``np.linspace``) always are.
    """
    if ts.size < 3:
        return None
    step = (float(ts[-1]) - float(ts[0])) / (ts.size - 1)  # a float overflows to inf silently
    if not 0.0 < step < math.inf:
        return None
    return step if _on_lattice(ts, ts[0] + np.arange(ts.size) * step).all() else None


def _regroup(blocks, size: int):
    """The rows of the arrays ``blocks`` yields, regrouped ``size`` at a time."""
    held = np.empty((0, 0))
    for block in blocks:
        held = np.concatenate([held, block]) if len(held) else block
        while len(held) >= size:
            yield held[:size]
            held = held[size:]
    if len(held):
        yield held


def _sweep(backs, ts: np.ndarray, size: int, chunks) -> np.ndarray:
    """The errors of every m (one row each) from ``chunks``, which holds for
    each ``size`` times in turn the full states and the reduced states of
    every m; the first time at which some m's error is undefined
    (:func:`_relative_errors`) raises ``state diverged``."""
    vals = np.empty((len(backs), ts.size))
    with np.errstate(over="ignore", invalid="ignore"):  # the chunks compute here too
        for lo, (X, *Zs) in zip(range(0, ts.size, size), chunks):
            diverged = np.zeros(len(X), dtype=bool)
            for j, (back, Z) in enumerate(zip(backs, Zs)):
                lifted = (back @ Z[:, :, None])[..., 0]
                vals[j, lo : lo + size], bad = _relative_errors(lifted, X)
                diverged |= bad
            if diverged.any():
                t = ts[lo + diverged.argmax()]
                raise NumericFailure("state diverged", operation="approx_error", time=t)
    return vals


def _reduction_errors(A, x0, m_values, times) -> np.ndarray:
    """:func:`approx_error`'s values for every m of ``m_values``, one row each.

    The full flow e^{tA} x0 and every reduced flow are sampled a chunk of
    times at a time, ``_STACK_ENTRIES // d**2`` times per chunk for the
    largest dimension d, so memory does not grow with the number of times.
    Every reduced drift takes its P^+ from :func:`reduce_model`'s cache, so
    a bridge pays one SVD however often it recurs.  On a uniform increasing
    grid (:func:`_uniform_step`) each flow is the block-power flow of
    :func:`_block_flow`: one exponential per block of up to ``_FLOW_BLOCK``
    times, in place of one per time, plus the step's unless the grid starts
    at its own step, as ``{from: 1, to: 100, count: 100}`` does, where the
    first anchor is the step's exponential.
    Its samples lie within rounding of the exponential at each time (a
    relative drift of about 1e-12 in the errors), and its states can stay
    finite where e^{tA} alone overflows.  Any other ``times`` take one
    stacked exponential per flow and chunk, each slice e^{tA} bit for bit,
    and so does a uniform sweep in which some m's error is undefined: it
    is recomputed that way whole.  So a failure is always that path's:
    ``state diverged`` at the first time, in the order of ``times``, at
    which some m's error is undefined because a state or an exponential
    overflowed.  Each m's errors depend only on A, x0, m and ``times``,
    never on the other m values of the sweep.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError("x0 must match the drift dimension")
    flows = [(A, x0)] + [(reduce_model(A, m=m).A_pi, project(x0, m)) for m in m_values]
    backs = [bridge(n, m) for m in m_values]
    ts = np.asarray(times, dtype=float)
    if not np.isfinite(ts).all():
        raise ValueError("times must be finite")
    size = max(1, _STACK_ENTRIES // max((n, *m_values)) ** 2)
    step = _uniform_step(ts)
    if step is not None:
        samples = [_regroup(_block_flow(G, z0, step, ts.size, ts[0]), size) for G, z0 in flows]
        try:
            return _sweep(backs, ts, size, zip(*samples))
        except NumericFailure:
            pass  # recomputed below, so that a failure names the time e^{tA} gives
    stacks = ([_expm_stack(G, ts[lo : lo + size]) @ z0 for G, z0 in flows]
              for lo in range(0, ts.size, size))
    return _sweep(backs, ts, size, stacks)


def approx_error(A, x0, m: int, times) -> ErrorSeries:
    """Relative trajectory error of the dimension-m reduced flow.

    The full flow e^{At} x0 is compared against the reduced flow started
    from the projected initial state and lifted back to dimension n.  On a
    uniform increasing grid of times both flows are sampled by one block
    power flow each, to within rounding of an exponential per time; see
    :func:`_reduction_errors` for when that applies and how a failure is
    named.  A time that is not finite raises ``ValueError``.
    """
    ts = np.asarray(list(times), dtype=float)
    return ErrorSeries(ts, _reduction_errors(A, x0, (m,), ts)[0])


def restrict_field(F, n: int, m: int):
    """Restrict an evaluator native to dimension n to dimension m.

    The argument is carried into dimension n by the bridge, evaluated,
    and the value projected back onto dimension m.
    """
    if n == m:
        return F
    up, down = bridge(n, m), bridge(m, n)
    return lambda x: down @ np.asarray(F(up @ np.asarray(x, dtype=float)), dtype=float)


def span_membership(v, basis, x) -> bool:
    """Does v(x) lie in span{V_j(x)} of the basis evaluators at the point x?

    The basis vectors must be independent at x; membership is judged by the
    least-squares residual against SPAN_RTOL * max(1, ||v(x)||).
    """
    point = np.asarray(x, dtype=float)
    target = np.atleast_1d(np.asarray(v(point), dtype=float))
    cols = np.column_stack(
        [np.atleast_1d(np.asarray(b(point), dtype=float)) for b in basis]
    )
    if _rank(cols) != cols.shape[1]:
        raise ValueError("basis evaluations are linearly dependent at this point")
    residual = target - cols @ np.linalg.lstsq(cols, target, rcond=None)[0]
    return float(np.linalg.norm(residual)) <= SPAN_RTOL * max(
        1.0, float(np.linalg.norm(target))
    )


@dataclass(frozen=True, eq=False)
class AggregateResult:
    """Member trajectory, nominal trajectory, and the relative error between them."""

    times: np.ndarray
    member_states: np.ndarray
    nominal_states: np.ndarray
    errors: ErrorSeries


def aggregate_run(
    nominal: Mode, member: Mode, x0, horizon: float, step: float
) -> AggregateResult:
    """Approximate one member system by the nominal model of another dimension.

    The member runs from x0; the nominal model runs from the projection of
    x0 onto its own dimension, and its states are projected back to the
    member dimension for the pointwise relative error.
    """
    x0 = np.asarray(x0, dtype=float)
    member_seg: Segment = integrate_mode(member, x0, 0.0, horizon, step)
    z0 = project(x0, nominal.dim)
    nominal_seg: Segment = integrate_mode(nominal, z0, 0.0, horizon, step)
    back = bridge(member.dim, nominal.dim)
    vals, diverged = _relative_errors(nominal_seg.states @ back.T, member_seg.states)
    if diverged.any():
        t = member_seg.times[diverged.argmax()]
        raise NumericFailure("state diverged", operation="aggregate_run", time=t)
    return AggregateResult(
        member_seg.times,
        member_seg.states,
        nominal_seg.states,
        ErrorSeries(member_seg.times, vals),
    )
