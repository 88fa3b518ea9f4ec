"""The names a tracer of the package's layers binds to.

``perfbench/run.py --trace 1`` wraps every name in each layer's ``__all__``,
the CLI's entry point and command table, the registry's evaluator tables
and ``OutputMap.__call__``.  Deleting or renaming one of them breaks the
traced run, so it fails here first.
"""

import importlib
import inspect

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
