"""The cross-dimensional Euclidean space.

Vectors of different lengths are compared by replicating entries with
all-ones Kronecker factors until they share the least-common-multiple
dimension.  Identifying vectors at replication distance zero yields a
path-connected metric space whose slices of fixed dimension keep the
ordinary Euclidean geometry (the metric is the dimension-normalized
2-norm, so the scale factor per slice is 1/sqrt(n)).

This module provides the canonical (minimal-dimension) representative of
an equivalence class, mixed-dimension addition, the normalized inner
product / norm / distance, least-squares projections between dimensions,
and the divisor lattice formed by the fixed-dimension subspaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dkstp import bridge

__all__ = [
    "CdVector",
    "Projector",
    "SubspaceLattice",
    "angle",
    "build_lattice",
    "canonicalize",
    "equivalent",
    "kron_lift",
    "project",
    "projector",
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


@dataclass(frozen=True)
class CdVector:
    """A point of the cross-dimensional space, stored in one fixed dimension.

    ``canonical`` marks vectors already reduced to their minimal-dimension
    representative; every routine here accepts plain sequences/arrays as
    well, so wrapping is only needed when the flag matters.
    """

    entries: np.ndarray
    canonical: bool = False

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("CdVector entries must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(a)):
            raise ValueError("CdVector entries must be finite")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.size

    def __len__(self) -> int:
        return self.entries.size

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.entries.astype(dtype)
        return self.entries


def as_entries(x) -> np.ndarray:
    """Coerce ``x`` (CdVector or array-like) to a finite 1-d float array."""
    if isinstance(x, CdVector):
        return x.entries
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


def _reduce_exact(a: np.ndarray) -> np.ndarray:
    """Smallest-dimension representative under bitwise-equal block constancy.

    Used inside binary operations: with exact equality the reduction never
    perturbs entries, so metric identities survive to machine precision.
    """
    n = a.size
    for d in _divisors(n):
        if d == n:
            break
        blocks = a.reshape(d, n // d)
        if (blocks == blocks[:, :1]).all():
            return blocks[:, 0]
    return a


def _reduce_once(a: np.ndarray, rtol: float) -> np.ndarray:
    thr = max(REDUCE_ATOL, rtol * float(np.max(np.abs(a)))) if a.size else REDUCE_ATOL
    n = a.size
    for d in _divisors(n):
        if d == n:
            break
        blocks = a.reshape(d, n // d)
        if (blocks == blocks[:, :1]).all():
            return blocks[:, 0]  # exact structure: keep entries bit-for-bit
        means = blocks.mean(axis=1, keepdims=True)
        if np.max(np.abs(blocks - means)) <= thr:
            return means[:, 0]
    return a


def canonicalize(v, tol: float = REDUCE_RTOL) -> CdVector:
    """Return the least-dimension vector equivalent to ``v`` within ``tol``.

    Divisor dimensions are tried in ascending order, so the first hit is the
    unique minimal representative.  Blocks that are equal only within the
    tolerance are replaced by their means; exact blocks are kept bit-for-bit.
    The result is reduced again until stable, which makes the operation
    idempotent.
    """
    a = as_entries(v)
    while True:
        b = _reduce_once(a, tol)
        if b.size == a.size:
            return CdVector(b, canonical=True)
        a = b


def _common_lift(x, y):
    """Lift both vectors (exactly reduced first) to their lcm dimension."""
    a = _reduce_exact(as_entries(x))
    b = _reduce_exact(as_entries(y))
    t = math.lcm(a.size, b.size)
    return np.repeat(a, t // a.size), np.repeat(b, t // b.size), t


def stp_add(x, y) -> CdVector:
    """Mixed-dimension addition: lift both to the lcm dimension, then add."""
    a, b, _ = _common_lift(x, y)
    return CdVector(a + b)


def stp_sub(x, y) -> CdVector:
    """Mixed-dimension subtraction in the lcm dimension."""
    a, b, _ = _common_lift(x, y)
    return CdVector(a - b)


def v_inner(x, y) -> float:
    """Dimension-normalized inner product: (1/t) <lift x, lift y> at t = lcm."""
    a, b, t = _common_lift(x, y)
    return float(a @ b) / t


def v_norm(x) -> float:
    """Dimension-normalized norm ||x||_2 / sqrt(dim x); constant under lifting."""
    a = as_entries(x)
    return float(np.linalg.norm(a)) / math.sqrt(a.size)


def v_norm_rows(S) -> np.ndarray:
    """:func:`v_norm` of every row of a (k, n) array, bit for bit.

    One stacked (1 x n)(n x 1) product per row keeps the same dot product as
    the one-vector call; ``norm(S, axis=1)`` would not.
    """
    S = np.asarray(S, dtype=float)
    return np.sqrt((S[:, None, :] @ S[:, :, None]).ravel()) / math.sqrt(S.shape[1])


def v_dist(x, y) -> float:
    """Metric induced by :func:`v_norm` on mixed-dimension differences."""
    return v_norm(stp_sub(x, y))


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

    The cosine is clamped to [-1, 1] before arccos so parallel vectors do
    not overshoot the domain through floating-point noise.
    """
    nx, ny = v_norm(x), v_norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("angle undefined for zero-norm vectors")
    c = v_inner(x, y) / (nx * ny)
    return math.acos(min(1.0, max(-1.0, c)))


@dataclass(frozen=True)
class Projector:
    """Least-squares linear map from dimension ``source_dim`` onto ``target_dim``.

    The matrix is the bridge matrix ``bridge(m, n)`` for source dimension n
    and target dimension m: each row averages one block of replicated source
    coordinates, so all row sums equal 1.
    """

    source_dim: int
    target_dim: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.flags.writeable:
            m = m.copy()
            m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __call__(self, x) -> np.ndarray:
        a = as_entries(x)
        if a.size != self.source_dim:
            raise ValueError(
                f"projector expects dimension {self.source_dim}, got {a.size}"
            )
        return self.matrix @ a


def projector(n: int, m: int) -> Projector:
    """The projector from dimension ``n`` onto dimension ``m`` (shares the cached bridge)."""
    return Projector(n, m, bridge(m, n))


def project(xi, m: int) -> np.ndarray:
    """Project ``xi`` onto dimension ``m`` (the nearest point in that slice).

    The residual is orthogonal to the image and Pythagoras holds:
    ||xi||^2 = ||xi - x0||^2 + ||x0||^2 in the normalized norm.
    """
    a = as_entries(xi)
    if a.size == m:
        return a.copy()
    return projector(a.size, m).matrix @ a


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
