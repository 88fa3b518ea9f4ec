"""The names a tracer of the package's layers binds to.

``perfbench/run.py --trace 1`` wraps every name in each layer's ``__all__``,
the CLI's entry point and command table, the registry's evaluator tables
and ``OutputMap.__call__``, and its notes read the ``times`` of the results of
``simulate``, ``integrate_mode`` and ``approx_error``.  Deleting or
renaming one of them breaks the traced run, so it fails here first.
"""

import importlib
import inspect

import numpy as np
import pytest

LAYERS = ("config", "registry", "dynamics", "switching", "cdspace", "dkstp", "analysis", "export", "cli")

REGISTRY_TABLES = ("FIELDS", "INPUT_CHANNELS", "OUTPUT_FUNCTIONS", "FEEDBACKS", "TIME_SIGNALS", "SPAN_BASES")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    module = importlib.import_module(f"crossdim.{layer}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def test_entry_points_and_command_table():
    analysis = importlib.import_module("crossdim.analysis")
    cli = importlib.import_module("crossdim.cli")
    assert inspect.isfunction(analysis.controllability_report)
    assert inspect.isfunction(cli.main)
    assert cli.COMMANDS and all(inspect.isfunction(fn) for fn in cli.COMMANDS.values())


def test_registry_tables_and_output_call():
    registry = importlib.import_module("crossdim.registry")
    for name in REGISTRY_TABLES:
        assert isinstance(getattr(registry, name), dict), name
    dynamics = importlib.import_module("crossdim.dynamics")
    assert inspect.isfunction(vars(dynamics.OutputMap)["__call__"])


def test_results_keep_the_times_the_tracer_counts():
    dynamics = importlib.import_module("crossdim.dynamics")
    switching = importlib.import_module("crossdim.switching")
    analysis = importlib.import_module("crossdim.analysis")
    modes = (dynamics.Mode("a", 1, [[-1.0]]), dynamics.Mode("b", 2, -np.eye(2)))
    signal = switching.fixed_signal(1.0, switch_times=[0.5], modes=[1], n_modes=2)
    traj = dynamics.simulate(dynamics.DvSystem(modes), signal, [1.0], 0.1)
    assert len(traj.times) == sum(len(seg.states) for seg in traj.segments) == 12
    seg = dynamics.integrate_mode(modes[0], [1.0], 0.0, 1.0, 0.25)
    assert len(seg.times) - 1 == 4
    series = analysis.approx_error(-np.eye(2), [1.0, 2.0], 1, [0.0, 0.5, 1.0])
    assert len(series.times) == 3
