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

#: Number of distinct (n, p) bridge matrices kept by the cache.
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


# The cache sits behind a plain function so that call tracing, which wraps
# only plain functions (perfbench/tracing.py), still counts bridge calls.
@functools.lru_cache(maxsize=BRIDGE_CACHE_SIZE)
def _bridge(n: int, p: int) -> np.ndarray:
    # Entry (i, j) of the product of the Kronecker factors counts the overlap
    # of the blocks [i a, (i + 1) a) and [j b, (j + 1) b) of {0, ..., t - 1},
    # so only n x p arrays are ever allocated.
    t = math.lcm(n, p)
    a, b = t // n, t // p
    lo = np.maximum.outer(np.arange(n) * a, np.arange(p) * b)
    hi = np.minimum.outer(np.arange(1, n + 1) * a, np.arange(1, p + 1) * b)
    counts = np.maximum(hi - lo, 0)
    B = (n / t) * counts
    B.setflags(write=False)
    return B


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
