"""The public API, pinned as literal sets.

README.md keeps every public name unless a change removes it on purpose and
says so; a removal or an addition therefore shows up as an edit here.  The
same holds for the fields of every public frozen dataclass, pinned in order.
"""

import dataclasses
import importlib
import inspect

import pytest

import crossdim

PACKAGE = {
    "AffineFeedback", "AggregateResult", "ConfigError",
    "ControllabilityReport", "Disturbance", "DvSystem", "ErrorSeries",
    "JumpEvent", "Mode", "NumericFailure", "OutputMap", "ReducedModel",
    "SubspaceLattice", "SwitchingSignal", "Trajectory", "TransitionMap",
    "add_map", "aggregate_run", "angle", "approx_error", "bridge",
    "build_lattice", "canonicalize", "closed_loop_drift", "compose_maps",
    "ctrb_rank", "dk_apply", "dk_product", "drop_map", "dwell_bound",
    "embed_common", "equivalent", "expm", "fixed_signal", "integrate_mode",
    "intersection_basis", "kron_lift", "lift_field",
    "lift_function", "nearest_map", "obs_rank", "op_vnorm",
    "partial_ctrb", "project", "random_signal", "reachability_chain",
    "reduce_model", "restrict_field", "simulate", "span_membership",
    "stp_add", "stp_sub", "v_dist", "v_inner", "v_norm",
}

LAYERS = {
    "analysis": {
        "AggregateResult", "ControllabilityReport", "ErrorSeries",
        "ReducedModel", "aggregate_run", "approx_error", "ctrb_rank",
        "intersection_basis", "obs_rank", "partial_ctrb", "reachability_chain",
        "reduce_model", "restrict_field", "span_membership",
    },
    "cdspace": {
        "SubspaceLattice", "angle", "build_lattice", "canonicalize",
        "equivalent", "kron_lift", "project", "stp_add", "stp_sub", "v_dist",
        "v_inner", "v_norm", "v_norm_rows",
    },
    "config": {"Scenario", "load_scenario", "normalize_config", "validate_config"},
    "dkstp": {"bridge", "dk_apply", "dk_product", "op_vnorm"},
    "dynamics": {
        "AffineFeedback", "Disturbance", "DvSystem", "Mode", "OutputMap",
        "Segment", "Trajectory", "closed_loop_drift", "dwell_bound",
        "embed_common", "expm", "integrate_mode", "lift_field", "lift_function",
        "simulate",
    },
    "export": {
        "error_table", "events_table", "json_text", "outputs_table", "publish",
        "trajectory_table",
    },
    "registry": {
        "get_drift", "get_feedback", "get_input_channels",
        "get_output_function", "get_time_signal",
    },
    "switching": {
        "JumpEvent", "SwitchingSignal", "TransitionMap", "add_map",
        "compose_maps", "drop_map", "fixed_signal", "make_jump_event",
        "nearest_map", "random_signal",
    },
}

#: The fields of every dataclass a layer exports, in declaration order.
FIELDS = {
    "AffineFeedback": ("K", "u0"),
    "AggregateResult": ("times", "member_states", "nominal_states", "errors"),
    "ControllabilityReport": ("label", "dim", "kalman_rank", "fully_controllable"),
    "Disturbance": ("dim", "evaluator"),
    "DvSystem": ("modes", "transitions", "output", "impulse_scale", "disturbance"),
    "ErrorSeries": ("times", "values"),
    "JumpEvent": ("time", "pre_state", "post_state", "gap", "amplitude"),
    "Mode": ("label", "dim", "drift", "inputs", "feedback"),
    "OutputMap": ("q", "matrix", "func", "_columns"),
    "ReducedModel": ("source_dim", "target_dim", "A_pi", "B_pi", "C_pi"),
    "Scenario": ("system", "signal", "x0", "step", "experiment", "_normalize"),
    "Segment": ("times", "states"),
    "SubspaceLattice": ("dims", "edges"),
    "SwitchingSignal": ("initial_mode", "switch_times", "modes_after", "horizon"),
    "Trajectory": ("segments", "segment_modes", "events", "output_map"),
    "TransitionMap": ("source_dim", "target_dim", "matrix", "lipschitz"),
}

#: Layers without an ``__all__``: the CLI entry point and the error types.
UNLISTED = {"cli", "errors"}


def test_package_exports():
    public = {
        name for name, value in vars(crossdim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == PACKAGE


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_all(layer):
    module = importlib.import_module(f"crossdim.{layer}")
    assert set(module.__all__) == LAYERS[layer]
    assert len(module.__all__) == len(LAYERS[layer])  # no name listed twice


@pytest.mark.parametrize("layer", sorted(UNLISTED))
def test_unlisted_layers_stay_unlisted(layer):
    assert not hasattr(importlib.import_module(f"crossdim.{layer}"), "__all__")


def test_public_dataclass_fields():
    classes = {
        name: value for layer in LAYERS
        for name, value in vars(importlib.import_module(f"crossdim.{layer}")).items()
        if name in LAYERS[layer] and dataclasses.is_dataclass(value)
    }
    assert sorted(classes) == sorted(FIELDS)
    for name, cls in classes.items():
        assert cls.__dataclass_params__.frozen, name
        assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[name], name
