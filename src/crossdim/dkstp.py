"""Dimension-keeping semi-tensor product of matrices.

The product of an m x n by a p x q matrix replicates columns of the left
and rows of the right factor up to t = lcm(n, p), multiplies, and scales
by n/t; the result is always m x q.  It coincides with the ordinary
product when n = p.  It is computed as the factorization through the n x p
"bridge" matrix, which is exactly the least-squares projection from
dimension p onto n; :func:`bridge` is the one builder of that matrix.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericFailure

__all__ = ["bridge", "dk_product", "dk_apply", "op_vnorm"]

#: Number of distinct (n, p) bridge matrices kept by the cache, and of their
#: pseudo-inverses.
BRIDGE_CACHE_SIZE = 256


def _as_matrix(M) -> np.ndarray:
    a = np.asarray(M, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("expected a nonempty 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def bridge(n: int, p: int) -> np.ndarray:
    """The n x p bridge matrix (n/t)(I_n (x) ones(t/n)^T)(I_p (x) ones(t/p)).

    This is the only builder of the cross-dimensional averaging/replication
    matrix: it is also the least-squares projection from dimension p onto n
    (block averages when n < p, entry replication when p divides n).  Results
    are cached and read-only, so every caller shares one array per (n, p).
    """
    if n < 1 or p < 1:
        raise ValueError("dimensions must be positive")
    return _bridge(n, p)


@functools.lru_cache(maxsize=BRIDGE_CACHE_SIZE)
def _overlaps(n: int, p: int) -> tuple:
    """The pieces shared by the partitions of [0, 1) into n and into p blocks.

    Returns ``(i, j, count, t)`` with t = lcm(n, p): piece k lies in block
    ``i[k]`` of n and block ``j[k]`` of p and is ``count[k]`` units of 1/t
    long.  There are n + p - gcd(n, p) pieces, and their lengths sum to t.
    The arrays are cached and read-only.
    """
    t = math.lcm(n, p)
    a, b = t // n, t // p
    cuts = np.union1d(np.arange(n + 1) * a, np.arange(p + 1) * b)
    i, j, count = cuts[:-1] // a, cuts[:-1] // b, np.diff(cuts)
    for arr in (i, j, count):
        arr.setflags(write=False)
    return i, j, count, t


# The cache sits behind a plain function so that call tracing, which wraps
# only plain functions (perfbench/tracing.py), still counts bridge calls.
@functools.lru_cache(maxsize=BRIDGE_CACHE_SIZE)
def _bridge(n: int, p: int) -> np.ndarray:
    # Entry (i, j) is n/t times the overlap of block i of n and block j of p,
    # in units of 1/t, so only n x p arrays are ever allocated.
    i, j, count, t = _overlaps(n, p)
    B = np.zeros((n, p))
    B[i, j] = (n / t) * count
    B.setflags(write=False)
    return B


@functools.lru_cache(maxsize=BRIDGE_CACHE_SIZE)
def _bridge_pinv(n: int, p: int) -> np.ndarray:
    """``np.linalg.pinv(bridge(n, p))``, the p x n pseudo-inverse, cached
    beside the bridge and read-only.  A ``LinAlgError`` of the SVD
    propagates and is not cached."""
    P = np.linalg.pinv(_bridge(n, p))
    P.setflags(write=False)
    return P


def dk_product(M, N) -> np.ndarray:
    """Dimension-keeping semi-tensor product, defined for all shapes.

    For an m x n by a p x q factor this is ``M @ bridge(n, p) @ N``, the
    m x q matrix (n/t)(M (x) 1_{t/n}^T)(N (x) 1_{t/p}) with t = lcm(n, p).
    """
    A, B = _as_matrix(M), _as_matrix(N)
    return A @ bridge(A.shape[1], B.shape[0]) @ B


def dk_apply(M, x) -> np.ndarray:
    """Apply a matrix to a vector of any length via the dimension-keeping product."""
    v = np.asarray(x, dtype=float).reshape(-1, 1)
    return dk_product(M, v).ravel()


def op_vnorm(A) -> float:
    """Operator norm of a matrix acting on the cross-dimensional space.

    For an m x n matrix this is sqrt(n/m) times the largest singular value
    (the spectral norm); it bounds ``v_norm(dk_apply(A, x)) / v_norm(x)``
    over vectors of every dimension, with equality approached along the top
    right-singular direction.  The value returned is that of a rounded SVD,
    which may lie an ulp or so on either side of the exact norm: for 527 of
    the 1600 bridge matrices ``bridge(q, p)`` with p, q <= 40 it reads below
    their exact operator norm 1.
    """
    M = _as_matrix(A)
    m, n = M.shape
    try:
        return math.sqrt(n / m) * float(np.linalg.norm(M, 2))
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(
            "singular value decomposition did not converge", operation="op_vnorm"
        ) from exc
