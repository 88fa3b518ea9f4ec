"""The cross-dimensional Euclidean space.

A vector of dimension n reads as the step function on [0, 1) that takes
its entry i on [i/n, (i+1)/n); replicating entries with all-ones Kronecker
factors leaves that function as it is.  Two vectors of dimensions n and m
are compared on the n + m - gcd(n, m) pieces that their blocks share, each
weighted by its length: the same sums as over their lifts to the
least-common-multiple dimension, at O(n + m) cost, without building the
lifts.  A sum or difference is taken on the same pieces and only then
repeated to the lcm dimension.  Identifying vectors at distance zero
yields a path-connected metric space whose slices of fixed dimension keep
the ordinary Euclidean geometry (the metric is the dimension-normalized
2-norm, so the scale factor per slice is 1/sqrt(n)).

A point is carried as any of its representatives: a nonempty finite 1-d
float array (:func:`as_entries`).  Every routine here takes array-likes
and returns plain arrays, and works on the representatives it is given:
only :func:`canonicalize` reduces one.

This module provides the canonical (minimal-dimension) representative of
an equivalence class, mixed-dimension addition, the normalized inner
product / norm / distance, least-squares projections between dimensions,
and the divisor lattice formed by the fixed-dimension subspaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dkstp import _overlaps, bridge
from .errors import NumericFailure

__all__ = [
    "SubspaceLattice",
    "angle",
    "build_lattice",
    "canonicalize",
    "equivalent",
    "kron_lift",
    "project",
    "stp_add",
    "stp_sub",
    "v_dist",
    "v_inner",
    "v_norm",
    "v_norm_rows",
]

#: Relative block-constancy tolerance used by :func:`canonicalize`.
REDUCE_RTOL = 1e-9
#: Absolute floor below which entry differences are treated as zero.
REDUCE_ATOL = 1e-12
#: Most nodes :func:`build_lattice` closes.  k distinct primes close to 2^k
#: nodes and the Hasse edges cost O(N^3), so the work is bounded here.
MAX_LATTICE_NODES = 256
#: The least normal float: a sum of squares below it has lost digits.
_TINY = float(np.finfo(float).tiny)


def as_entries(x) -> np.ndarray:
    """Coerce array-like ``x`` to a point of the space: a nonempty finite
    1-d float array (a scalar reads as a vector of dimension 1)."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("expected a nonempty 1-d vector")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector entries must be finite")
    return a


def kron_lift(x, k: int) -> np.ndarray:
    """Replicate each entry ``k`` times: the Kronecker product with ones(k)."""
    if k < 1:
        raise ValueError("replication factor must be >= 1")
    a = as_entries(x)
    return np.repeat(a, k) if k > 1 else a


def _divisors(n: int):
    """All divisors of ``n`` in ascending order."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _reduce_once(a: np.ndarray, rtol: float) -> np.ndarray:
    """One step toward the smallest-dimension representative of ``a``.

    Bitwise-equal blocks reduce and keep their entries bit-for-bit; blocks
    within ``rtol`` of their means reduce to the means.  A block whose mean
    overflows takes it from the block divided by its largest |entry|.
    """
    thr = max(REDUCE_ATOL, rtol * float(np.max(np.abs(a))))
    n = a.size
    for d in _divisors(n):
        if d == n:
            break
        blocks = a.reshape(d, n // d)
        if (blocks == blocks[:, :1]).all():
            return blocks[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            means = blocks.mean(axis=1, keepdims=True)
            bad = ~np.isfinite(means[:, 0])
            if bad.any():
                scale = np.abs(blocks[bad]).max(axis=1, keepdims=True)
                means[bad] = scale * (blocks[bad] / scale).mean(axis=1, keepdims=True)
            if np.max(np.abs(blocks - means)) <= thr:
                return means[:, 0]
    return a


def canonicalize(v, tol: float = REDUCE_RTOL) -> np.ndarray:
    """Return the least-dimension vector equivalent to ``v`` within ``tol``.

    Divisor dimensions are tried in ascending order, so the first hit is the
    unique minimal representative.  Blocks that are equal only within the
    tolerance are replaced by their means; exact blocks are kept bit-for-bit.
    The result is reduced again until stable, which makes the operation
    idempotent.  It is a new array, never ``v`` itself or a view of it.
    """
    a = as_entries(v)
    while True:
        b = _reduce_once(a, tol)
        if b.size == a.size:
            return b.copy()
        a = b


def _finite(c: np.ndarray, operation: str) -> np.ndarray:
    """A sum of two finite arrays, or NumericFailure where it overflowed."""
    if np.isfinite(c).all():
        return c
    raise NumericFailure("mixed-dimension sum overflowed", operation=operation)


def _piecewise(x, y, op, operation: str) -> np.ndarray:
    """``op`` of the given representatives on the pieces their blocks
    share, each piece repeated to its length: the lift to lcm(n, m)."""
    a, b = as_entries(x), as_entries(y)
    i, j, count, _ = _overlaps(a.size, b.size)
    with np.errstate(over="ignore"):
        return np.repeat(_finite(op(a[i], b[j]), operation), count)


def stp_add(x, y) -> np.ndarray:
    """Mixed-dimension addition in the lcm dimension of the given vectors."""
    return _piecewise(x, y, np.add, "stp_add")


def stp_sub(x, y) -> np.ndarray:
    """Mixed-dimension subtraction in the lcm dimension of the given vectors."""
    return _piecewise(x, y, np.subtract, "stp_sub")


def v_inner(x, y) -> float:
    """Dimension-normalized inner product: (1/t) <lift x, lift y> at t = lcm.

    The lifts are step functions on [0, 1) that share n + m - gcd(n, m)
    pieces, so the sum runs over the pieces, each weighted by its length.
    """
    a, b = as_entries(x), as_entries(y)
    i, j, count, t = _overlaps(a.size, b.size)
    with np.errstate(over="ignore"):
        return float((count * a[i]) @ b[j]) / t


def v_norm(x) -> float:
    """Dimension-normalized norm ||x||_2 / sqrt(dim x); constant under lifting.

    It is :func:`v_norm_rows` of the one row x, rescaling included.
    """
    return float(v_norm_rows(as_entries(x)[None])[0])


def v_norm_rows(S) -> np.ndarray:
    """:func:`v_norm` of every row of a (k, n) array.

    A nonzero row whose sum of squares overflows, or falls below the least
    normal float, is divided by its largest |entry| first.
    """
    S = np.asarray(S, dtype=float)
    return _norm_rows(S, None, S.shape[1])


def _norm_rows(S: np.ndarray, count, t: int) -> np.ndarray:
    """sqrt(sum_k count[k] S[r, k]^2 / t) for every row r of S, with every
    count 1 when ``count`` is None; the rescaling is that of :func:`v_norm_rows`."""
    root = math.sqrt(t)
    with np.errstate(over="ignore"):
        W = S if count is None else count * S
        squares = (W[:, None, :] @ S[:, :, None]).ravel()
    norms = np.sqrt(squares) / root
    bad = (squares == np.inf) | (squares < _TINY)
    if bad.any():
        bad[bad] = S[bad].any(axis=1)
        scale = np.abs(S[bad]).max(axis=1)
        R = S[bad] / scale[:, None]
        W = R if count is None else count * R
        norms[bad] = scale * (np.sqrt((W[:, None, :] @ R[:, :, None]).ravel()) / root)
    return norms


def _dist_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """:func:`v_dist` between paired rows of a (k, n) and a (k, m) array,
    summed over the pieces that the blocks of n and m share."""
    i, j, count, t = _overlaps(A.shape[1], B.shape[1])
    with np.errstate(over="ignore"):
        D = _finite(A[:, i] - B[:, j], "stp_sub")
    return _norm_rows(D, count, t)


def v_dist(x, y) -> float:
    """Metric induced by :func:`v_norm` on mixed-dimension differences."""
    return float(_dist_rows(as_entries(x)[None], as_entries(y)[None])[0])


def equivalent(x, y, tol: float = REDUCE_RTOL) -> bool:
    """True when ``x`` and ``y`` represent the same point of the space.

    Tested metrically: distance at most ``tol`` times the larger norm.  The
    same absolute floor as :func:`canonicalize` applies, so spreads the
    reduction treats as zero never separate two points; in particular two
    zero-ish vectors of any dimensions are equivalent.
    """
    nx, ny = v_norm(x), v_norm(y)
    return v_dist(x, y) <= max(REDUCE_ATOL, tol * max(nx, ny))


def angle(x, y) -> float:
    """Angle in radians between two nonzero points, any dimensions.

    The cosine is the inner product of x/||x|| and y/||y||, so it neither
    overflows nor underflows for any finite nonzero entries.  It is clamped
    to [-1, 1] before arccos so parallel vectors do not overshoot the
    domain through floating-point noise.
    """
    nx, ny = v_norm(x), v_norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("angle undefined for zero-norm vectors")
    c = v_inner(as_entries(x) / nx, as_entries(y) / ny)
    return math.acos(min(1.0, max(-1.0, c)))


def project(xi, m: int) -> np.ndarray:
    """Project ``xi`` onto dimension ``m`` (the nearest point in that slice).

    The residual is orthogonal to the image and Pythagoras holds:
    ||xi||^2 = ||xi - x0||^2 + ||x0||^2 in the normalized norm.
    """
    a = as_entries(xi)
    if a.size == m:
        return a.copy()
    return bridge(m, a.size) @ a


@dataclass(frozen=True)
class SubspaceLattice:
    """Finite sub-lattice of fixed-dimension subspaces ordered by divisibility.

    ``dims`` is closed under pairwise lcm and gcd; ``edges`` are the Hasse
    covering pairs (a, b) with a | b and nothing strictly between.
    """

    dims: frozenset
    edges: frozenset

    def __contains__(self, d: int) -> bool:
        return d in self.dims

    def _check_member(self, d: int):
        if d not in self.dims:
            raise ValueError(f"{d} is not a lattice node")

    def sup(self, a: int, b: int) -> int:
        """Least upper bound: the lcm."""
        self._check_member(a)
        self._check_member(b)
        return math.lcm(a, b)

    def inf(self, a: int, b: int) -> int:
        """Greatest lower bound: the gcd."""
        self._check_member(a)
        self._check_member(b)
        return math.gcd(a, b)

    def hasse_edges(self):
        """Covering pairs sorted for stable output."""
        return sorted(self.edges)


def build_lattice(dims) -> SubspaceLattice:
    """Smallest lcm/gcd-closed lattice containing ``dims``, with Hasse edges.

    Note the closure can add nodes below the generators: incomparable
    generators force their gcd in (e.g. {2, 3} forces 1).  A closure of
    more than ``MAX_LATTICE_NODES`` nodes raises ``ValueError``.
    """
    nodes = {int(d) for d in dims}
    if not nodes:
        raise ValueError("dims must be nonempty")
    if any(d < 1 for d in nodes):
        raise ValueError("dims must be positive integers")
    while True:
        if len(nodes) > MAX_LATTICE_NODES:
            raise ValueError(
                f"the lcm/gcd closure exceeds {MAX_LATTICE_NODES} nodes"
            )
        new = set()
        for a in nodes:
            for b in nodes:
                l, g = math.lcm(a, b), math.gcd(a, b)
                if l not in nodes:
                    new.add(l)
                if g not in nodes:
                    new.add(g)
        if not new:
            break
        nodes |= new
    edges = set()
    for a in nodes:
        for b in nodes:
            if a != b and b % a == 0:
                covered = any(
                    c != a and c != b and c % a == 0 and b % c == 0 for c in nodes
                )
                if not covered:
                    edges.add((a, b))
    return SubspaceLattice(frozenset(nodes), frozenset(edges))
