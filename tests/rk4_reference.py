"""RK4 reference runs for linear modes.

A mode picks its own integration path: a matrix drift takes the exact
matrix-exponential path, an evaluator drift takes RK4.  Tests that want
the RK4 flow of a linear mode as an independent reference give its drift
as the evaluator ``x -> A @ x``, which does the same arithmetic.
"""

from dataclasses import replace

from crossdim.dynamics import DvSystem


def rk4_mode(mode):
    """The same mode with a linear drift given as an evaluator, so it runs RK4."""
    if not mode.is_linear:
        return mode
    return replace(mode, drift=lambda x, A=mode.drift: A @ x)


def rk4_system(system: DvSystem) -> DvSystem:
    """The same system with :func:`rk4_mode` applied to every mode."""
    return replace(system, modes=tuple(rk4_mode(m) for m in system.modes))
