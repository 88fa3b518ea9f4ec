"""Named built-in fields, channels and laws.

Scenario configs cannot carry arbitrary code, so drifts, input channels,
output functions, feedback laws and disturbances are looked up here by
name.  Linear drifts are kept as matrices and feedback laws, which are
affine, as gain and offset data, not evaluators, so the modes built from
them move by their exact flow.  Library users can pass their own callables
directly and never touch this module.

No config names a span basis.  ``SPAN_BASES`` stays as a table that
library callers index directly, because ``perfbench/tracing.py`` looks up
every table here by name to wrap its evaluators.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import AffineFeedback

__all__ = [
    "get_drift",
    "get_feedback",
    "get_input_channels",
    "get_output_function",
    "get_time_signal",
]


def _ddp2_input(x):
    return np.array([-1.0 - x[1], 1.0])


def _ddp3_input(z):
    return np.array([z[2] - z[1], 1.0, -1.0])


def _ddp_output6(w):
    return w[0] + w[1] + w[2] + w[3] + w[4] + w[5] + w[0] * w[1]


def _ddp_disturbance6(w):
    return np.array(
        [1.0 + w[4] ** 2, -1.0 - w[5] ** 2, 0.0, -1.0 - w[1], 1.0, w[0]]
    )


#: State fields on R^n (drifts and field arguments to restriction checks):
#: name -> (n, A) for a linear field x -> A x, or (n, evaluator x -> R^n).
FIELDS = {
    "rotor2": (2, [[0.0, 1.0], [-1.0, 0.0]]),
    "ddp2_drift": (2, [[0.0, 1.0], [2.0 / 3.0, 0.0]]),
    "ddp3_drift": (3, [[0.0, 1.0, -1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
    "ddp_disturbance6": (6, _ddp_disturbance6),
}

#: Input channel lists: name -> (dim, tuple of g_k(x) -> R^n).
INPUT_CHANNELS = {
    "ddp2_input": (2, (_ddp2_input,)),
    "ddp3_input": (3, (_ddp3_input,)),
}

#: Output functions: name -> (q, p, h) with h on R^q producing R^p.  Each h
#: acts on its argument entry by entry, so given the (q, k) array of k states
#: it returns their (p, k) outputs at once; config builds its maps that way.
OUTPUT_FUNCTIONS = {
    "ddp_output6": (6, 1, _ddp_output6),
}

#: Affine state feedback laws u = K x + u0, as (K, u0) data: get_feedback
#: builds the AffineFeedback, which linear modes propagate exactly.
FEEDBACKS = {
    # damp the actuated coordinate of the planar mode
    "damp2": ([[-1.0, -1.0]], [0.0]),
    # damp the chain coordinates of the three-dimensional mode
    "damp3": ([[-1.0, -1.0, -3.0]], [0.0]),
    # drive the off-diagonal coordinate to the replicated line by T = 1
    "steer_stage1": ([[-2.0, 0.0]], [-1.0]),
}

#: Time signals t -> R^l used as disturbances.
TIME_SIGNALS = {
    "zero1": (1, lambda t: np.zeros(1)),
    "sin1": (1, lambda t: np.array([math.sin(t)])),
}

#: Span bases for invariant-subspace membership checks: name -> (dim, evaluators).
SPAN_BASES = {
    "ddp2_invariant": (
        2,
        (lambda x: np.array([-1.0, 1.0 + 2.0 * x[0] / 3.0]),),
    ),
    "ddp3_invariant": (
        3,
        (
            lambda z: np.array([-1.0, 1.0 + z[0], 0.0]),
            lambda z: np.array([-1.0, 0.0, 1.0 + z[0]]),
        ),
    ),
}


def _lookup(table: dict, name: str, kind: str):
    if not isinstance(name, str):
        raise ValueError(f"{kind} name must be a string, got {type(name).__name__}")
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise ValueError(f"unknown {kind} {name!r}; available: {known}") from None


def get_drift(name: str):
    """(dim, drift) for a named state field, as a mode takes it.

    The drift is an (n, n) matrix for a linear field and the evaluator
    otherwise.
    """
    dim, field = _lookup(FIELDS, name, "field")
    return dim, (field if callable(field) else np.array(field, dtype=float))


def get_input_channels(name: str):
    """(dim, evaluators) for a named input channel list."""
    return _lookup(INPUT_CHANNELS, name, "input channel set")


def get_output_function(name: str):
    """(q, p, h) for a named output function."""
    return _lookup(OUTPUT_FUNCTIONS, name, "output function")


def get_feedback(name: str) -> AffineFeedback:
    """A named affine state-feedback law u(t, x) = K x + u0."""
    K, u0 = _lookup(FEEDBACKS, name, "feedback")
    return AffineFeedback(K, u0)


def get_time_signal(name: str):
    """(dim, evaluator) for a named time signal."""
    return _lookup(TIME_SIGNALS, name, "time signal")
