"""Helpers shared by the test modules: the shipped scenarios, reference
flows by eigendecomposition, registry fields as evaluators, and a
time-bounded in-process ``omega`` run."""

import signal
from importlib import resources

import numpy as np

from crossdim.analysis import reduce_model
from crossdim.cli import main
from crossdim.dkstp import bridge
from crossdim.registry import get_drift

SCENARIO_DIR = resources.files("crossdim") / "scenarios"

#: The file names of the shipped scenarios, sorted.
SHIPPED = sorted(p.name for p in SCENARIO_DIR.iterdir() if p.name.endswith(".json"))


def scenario_path(name: str) -> str:
    return str(SCENARIO_DIR / name)


def eig_flows(A, x0, times):
    """Columns e^{tA} x0, one per time, as V diag(e^{lambda t}) V^-1 x0."""
    lam, V = np.linalg.eig(A)
    ts = np.asarray(times, dtype=float)
    return (V @ (np.exp(np.outer(lam, ts)) * np.linalg.solve(V, x0)[:, None])).real


def eig_reduction_error(A, x0, m, times):
    """approx_error's series, with both flows taken by eigendecomposition."""
    n = A.shape[0]
    full = eig_flows(A, x0, times)
    reduced = eig_flows(reduce_model(A, m=m).A_pi, bridge(m, n) @ x0, times)
    lifted = bridge(n, m) @ reduced
    return np.linalg.norm(lifted - full, axis=0) / np.linalg.norm(full, axis=0)


def get_field(name: str):
    """(dim, evaluator) for a named registry field; a linear one maps x to A x."""
    dim, field = get_drift(name)
    if callable(field):
        return dim, field
    return dim, lambda x: field @ np.asarray(x, dtype=float)


def run_bounded(seconds, argv) -> int:
    """The exit code of ``omega argv`` in process, failing the test if it
    runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"omega {argv[0]} ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
