"""Dimension-keeping semi-tensor product of matrices.

The product of an m x n by a p x q matrix replicates columns of the left
and rows of the right factor up to t = lcm(n, p), multiplies, and scales
by n/t; the result is always m x q.  It coincides with the ordinary
product when n = p, and factors through an n x p "bridge" matrix that is
exactly the cross-dimensional projector from dimension p onto n.
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
    matrix: it is also the projector from dimension p onto n.  Results are
    cached and read-only, so every caller shares one array per (n, p).
    """
    if n < 1 or p < 1:
        raise ValueError("dimensions must be positive")
    return _bridge(n, p)


# The cache sits behind a plain function so that call tracing, which wraps
# only plain functions (perfbench/tracing.py), still counts bridge calls.
@functools.lru_cache(maxsize=BRIDGE_CACHE_SIZE)
def _bridge(n: int, p: int) -> np.ndarray:
    t = math.lcm(n, p)
    left = np.kron(np.eye(n), np.ones((1, t // n)))
    right = np.kron(np.eye(p), np.ones((t // p, 1)))
    B = (n / t) * (left @ right)
    B.setflags(write=False)
    return B


def dk_product(M, N, weighted: bool = True) -> np.ndarray:
    """Dimension-keeping semi-tensor product, defined for all shapes.

    With ``weighted`` (the default and the variant used throughout this
    package) the product carries the n/t normalization and equals
    ``M @ bridge(n, p) @ N``.  The unweighted variant is exposed for
    diagnostics only; it drops the scale factor and does not satisfy the
    bridge identity.
    """
    A, B = _as_matrix(M), _as_matrix(N)
    n, p = A.shape[1], B.shape[0]
    t = math.lcm(n, p)
    left = np.kron(A, np.ones((1, t // n)))
    right = np.kron(B, np.ones((t // p, 1)))
    out = left @ right
    if weighted:
        out *= n / t
    return out


def dk_apply(M, x) -> np.ndarray:
    """Apply a matrix to a vector of any length via the dimension-keeping product."""
    v = np.asarray(x, dtype=float).reshape(-1, 1)
    return dk_product(M, v).ravel()


def op_vnorm(A) -> float:
    """Operator norm of a matrix acting on the cross-dimensional space.

    For an m x n matrix this is sqrt(n/m) times the largest singular value
    (the spectral norm, computed exactly by SVD); it bounds
    ``v_norm(dk_apply(A, x)) / v_norm(x)`` over vectors of every dimension,
    with equality approached along the top right-singular direction.
    """
    M = _as_matrix(A)
    m, n = M.shape
    try:
        return math.sqrt(n / m) * float(np.linalg.norm(M, 2))
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(
            "singular value decomposition did not converge", operation="op_vnorm"
        ) from exc
