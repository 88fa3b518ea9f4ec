"""Controllability/observability tests, cross-dimension model reduction,
vector-field restriction, span-membership checks, and aggregation runs.

Rank decisions use QR with column pivoting and a threshold relative to the
largest pivot; the tolerance is a keyword on every rank-based routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .cdspace import project, v_norm
from .dkstp import bridge
from .dynamics import Mode, Segment, expm, integrate_mode
from .errors import NumericFailure

__all__ = [
    "AggregateResult",
    "ControllabilityReport",
    "ErrorSeries",
    "ReducedModel",
    "aggregate_run",
    "approx_error",
    "ctrb_matrix",
    "ctrb_rank",
    "intersection_basis",
    "obs_matrix",
    "obs_rank",
    "partial_ctrb",
    "reachability_chain",
    "reduce_model",
    "restrict_field",
    "span_membership",
]

RANK_RTOL = 1e-10


def _rank(M: np.ndarray, tol: float) -> int:
    """Numerical rank via pivoted QR: pivots above tol * largest pivot."""
    if M.size == 0:
        return 0
    R = scipy.linalg.qr(M, mode="r", pivoting=True)[0]
    d = np.abs(np.diag(R))
    if d.size == 0 or d[0] == 0.0:
        return 0
    return int(np.count_nonzero(d > tol * d[0]))


def ctrb_matrix(A, B) -> np.ndarray:
    """Kalman controllability matrix [B, AB, ..., A^{n-1}B]."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape[0] != n:
        raise ValueError("inconsistent shapes for controllability matrix")
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def obs_matrix(A, C) -> np.ndarray:
    """Stacked observability matrix [C; CA; ...; CA^{n-1}]."""
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    if C.ndim == 1:
        C = C.reshape(1, -1)
    n = A.shape[0]
    if A.shape != (n, n) or C.shape[1] != n:
        raise ValueError("inconsistent shapes for observability matrix")
    blocks = [C]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ A)
    return np.vstack(blocks)


def ctrb_rank(A, B, tol: float = RANK_RTOL) -> int:
    return _rank(ctrb_matrix(A, B), tol)


def obs_rank(A, C, tol: float = RANK_RTOL) -> int:
    return _rank(obs_matrix(A, C), tol)


def intersection_basis(m: int, n: int) -> np.ndarray:
    """Basis (columns, in R^m) of the common subspace of dimensions m and n.

    The intersection is the replicated copy of the gcd dimension g: column
    j is the j-th standard basis vector of R^g with each entry repeated
    m/g times: the bridge from g to m.
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    return bridge(m, math.gcd(m, n))


def partial_ctrb(A, B, subspace_basis, tol: float = RANK_RTOL) -> bool:
    """Controllability transverse to a subspace.

    True when the Kalman matrix, projected onto the orthogonal complement
    of span(S), still has full rank n - dim(S).  An empty basis reduces to
    the ordinary complete-controllability test.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    S = np.asarray(subspace_basis, dtype=float)
    if S.size == 0:
        S = S.reshape(n, 0)
    if S.ndim != 2 or S.shape[0] != n:
        raise ValueError("subspace basis must be n x s")
    s = S.shape[1]
    if s:
        if _rank(S, tol) != s:
            raise ValueError("subspace basis columns are linearly dependent")
        Q = np.linalg.qr(S)[0]
        P = np.eye(n) - Q @ Q.T
    else:
        P = np.eye(n)
    return _rank(P @ ctrb_matrix(A, B), tol) == n - s


@dataclass(frozen=True)
class ControllabilityReport:
    """Per-mode controllability summary."""

    label: str
    dim: int
    kalman_rank: int
    fully_controllable: bool
    subspace_dim: int = 0
    partially_controllable: bool = False


def controllability_report(
    mode: Mode, subspace_basis=None, tol: float = RANK_RTOL
) -> ControllabilityReport:
    if not mode.is_linear or isinstance(mode.inputs, tuple):
        raise ValueError("controllability test requires a linear mode")
    B = mode.inputs if mode.inputs is not None else np.zeros((mode.dim, 0))
    rank = ctrb_rank(mode.drift, B, tol)
    s = 0
    partial = rank == mode.dim
    if subspace_basis is not None:
        S = np.asarray(subspace_basis, dtype=float)
        s = 0 if S.size == 0 else S.shape[1]
        partial = partial_ctrb(mode.drift, B, S, tol)
    return ControllabilityReport(
        label=mode.label,
        dim=mode.dim,
        kalman_rank=rank,
        fully_controllable=rank == mode.dim,
        subspace_dim=s,
        partially_controllable=partial,
    )


def reachability_chain(system, start: int, target: int, tol: float = RANK_RTOL):
    """Mode chain steering dimension-to-dimension, or None.

    Breadth-first search on the mode graph: an edge i -> j exists when mode
    i is controllable transverse to the intersection of the two dimensions;
    a successful chain additionally requires the terminal mode to be fully
    controllable.
    """
    modes = system.modes
    count = len(modes)
    if not (0 <= start < count and 0 <= target < count):
        raise ValueError("start/target mode index out of range")

    def mats(i):
        m = modes[i]
        B = m.inputs if m.inputs is not None else np.zeros((m.dim, 0))
        return m.drift, B

    A_t, B_t = mats(target)
    if ctrb_rank(A_t, B_t, tol) != modes[target].dim:
        return None
    if start == target:
        return [start]

    if system.transitions == "nearest":
        allowed = {(i, j) for i in range(count) for j in range(count) if i != j}
    else:
        allowed = set(system.transitions.keys())

    parents = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for i in frontier:
            A_i, B_i = mats(i)
            for j in range(count):
                if j in parents or (i, j) not in allowed:
                    continue
                S = intersection_basis(modes[i].dim, modes[j].dim)
                if partial_ctrb(A_i, B_i, S, tol):
                    parents[j] = i
                    if j == target:
                        chain = [j]
                        while parents[chain[-1]] is not None:
                            chain.append(parents[chain[-1]])
                        return chain[::-1]
                    nxt.append(j)
        frontier = nxt
    return None


@dataclass(frozen=True)
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
    transform like the drift's right factor, ``C P^+``.
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
        P_plus = np.linalg.pinv(P)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(
            "singular value decomposition did not converge", operation="reduce_model"
        ) from exc
    A_pi = P @ A @ P_plus
    B_pi = None if B is None else P @ B
    C_pi = None if C is None else C @ P_plus
    return ReducedModel(n, m, A_pi, B_pi, C_pi)


@dataclass(frozen=True)
class ErrorSeries:
    """Relative approximation errors over time; NaN marks undefined points."""

    times: np.ndarray
    values: np.ndarray

    def max(self) -> float:
        finite = self.values[np.isfinite(self.values)]
        return float(finite.max()) if finite.size else math.nan


def _relative_error(approx, exact) -> float:
    denom = v_norm(exact)
    if denom == 0.0:
        return math.nan
    return v_norm(np.asarray(approx) - np.asarray(exact)) / denom


def approx_error(A, x0, m: int, times) -> ErrorSeries:
    """Relative trajectory error of the dimension-m reduced flow.

    The full flow e^{At} x0 is compared against the reduced flow started
    from the projected initial state and lifted back to dimension n.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError("x0 must match the drift dimension")
    red = reduce_model(A, m=m)
    z0 = project(x0, m)
    back = bridge(n, m)
    ts = np.asarray(list(times), dtype=float)
    vals = np.empty(ts.size)
    # an overflowing flow is reported by the NumericFailure below, not by
    # numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i, t in enumerate(ts):
            x_t = expm(A, t) @ x0
            z_t = expm(red.A_pi, t) @ z0
            try:
                vals[i] = _relative_error(back @ z_t, x_t)
            except ValueError:  # v_norm refuses a state or a gap that overflowed
                raise NumericFailure("state diverged", operation="approx_error", time=t) from None
    return ErrorSeries(ts, vals)


def restrict_field(F, n: int, m: int):
    """Restrict an evaluator native to dimension n to dimension m.

    The argument is carried into dimension n by the bridge, evaluated,
    and the value projected back onto dimension m.
    """
    if n == m:
        return F
    up, down = bridge(n, m), bridge(m, n)
    return lambda x: down @ np.asarray(F(up @ np.asarray(x, dtype=float)), dtype=float)


def span_membership(v, basis, x, tol: float = 1e-9) -> bool:
    """Does v(x) lie in span{V_j(x)} of the basis evaluators at the point x?

    The basis vectors must be independent at x; membership is judged by the
    least-squares residual against tol * max(1, ||v(x)||).
    """
    point = np.asarray(x, dtype=float)
    target = np.atleast_1d(np.asarray(v(point), dtype=float))
    cols = np.column_stack(
        [np.atleast_1d(np.asarray(b(point), dtype=float)) for b in basis]
    )
    if _rank(cols, RANK_RTOL) != cols.shape[1]:
        raise ValueError("basis evaluations are linearly dependent at this point")
    residual = target - cols @ np.linalg.lstsq(cols, target, rcond=None)[0]
    return float(np.linalg.norm(residual)) <= tol * max(
        1.0, float(np.linalg.norm(target))
    )


@dataclass(frozen=True)
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
    approx = nominal_seg.states @ back.T
    vals = np.array(
        [
            _relative_error(approx[i], member_seg.states[i])
            for i in range(len(member_seg.times))
        ]
    )
    return AggregateResult(
        member_seg.times,
        member_seg.states,
        nominal_seg.states,
        ErrorSeries(member_seg.times, vals),
    )
