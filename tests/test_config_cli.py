import argparse
import copy
import errno
import json
import math
import os
import warnings

import numpy as np
import pytest

from crossdim.cdspace import project, v_dist, v_norm
from crossdim import cli, dynamics
from crossdim.cli import main
from crossdim.config import (
    MAX_EMBED_ENTRIES, MAX_NEAREST_PAIRS, load_scenario, normalize_config, validate_config,
)
from crossdim.dynamics import embed_common, simulate
from crossdim.errors import ConfigError
from crossdim.switching import random_signal
from testkit import run_bounded, scenario_path

SCENARIOS = [
    "two_mode_contraction.json",
    "two_stage_steering.json",
    "feedback_switch_fixed.json",
    "feedback_switch_random.json",
    "ddp_two_mode.json",
    "reduction_sweep.json",
]


def minimal_config():
    return {
        "name": "minimal",
        "modes": [
            {"label": "a", "dim": 2, "A": [[0.0, 1.0], [-1.0, 0.0]]},
            {"label": "b", "dim": 3, "A": [[0.0] * 3] * 3},
        ],
        "signal": {"kind": "fixed", "initial_mode": 0, "switch_times": [0.5]},
        "transitions": "nearest",
        "x0": [1.0, 0.0],
        "step": 0.01,
        "horizon": 1.0,
    }


# ------------------------------------------------------------------ validation

@pytest.mark.parametrize("name", SCENARIOS)
def test_shipped_scenarios_validate(name):
    scenario = load_scenario(scenario_path(name))
    assert scenario.system.modes
    assert scenario.step > 0


@pytest.mark.parametrize("name", SCENARIOS)
def test_normalized_config_round_trips(name):
    with open(scenario_path(name), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    first = validate_config(raw).normalized
    second = validate_config(json.loads(json.dumps(first))).normalized
    assert first == second


def test_validate_minimal_config():
    scenario = validate_config(minimal_config())
    assert [m.dim for m in scenario.system.modes] == [2, 3]
    assert scenario.signal.switch_times == (0.5,)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda c: c.pop("modes"), "modes"),
        (lambda c: c.pop("x0"), "x0"),
        (lambda c: c.__setitem__("step", -1.0), "step"),
        (lambda c: c.__setitem__("horizon", 0.0), "horizon"),
        (lambda c: c["modes"][0].__setitem__("A", [[1.0, 2.0]]), "modes[0].A"),
        (lambda c: c["modes"][0].__setitem__("drift", "nope"), "modes[0]"),
        (lambda c: c["modes"][0].pop("A"), "modes[0]"),
        (lambda c: c["signal"].__setitem__("initial_mode", 9), "initial_mode"),
        (lambda c: c["signal"].__setitem__("kind", "chaotic"), "signal"),
        (lambda c: c.__setitem__("surprise", 1), "surprise"),
        (lambda c: c["modes"][0].__setitem__("feedback", "damp2"), "feedback"),
    ],
)
def test_validation_errors_name_the_field(mutate, fragment):
    cfg = copy.deepcopy(minimal_config())
    mutate(cfg)
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert fragment in str(err.value)


def test_signal_mode_out_of_range():
    cfg = minimal_config()
    cfg["signal"] = {
        "kind": "fixed",
        "initial_mode": 0,
        "switch_times": [0.5],
        "modes": [7],
    }
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_explicit_transitions_must_cover_signal():
    cfg = minimal_config()
    cfg["transitions"] = {"explicit": []}
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert "0->1" in str(err.value)
    cfg["transitions"] = {
        "explicit": [
            {"from": 0, "to": 1, "W": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]}
        ]
    }
    scenario = validate_config(cfg)
    assert scenario.system.table[(0, 1)].matrix.shape == (3, 2)


def test_seed_and_step_overrides():
    cfg = {
        **minimal_config(),
        "signal": {
            "kind": "random",
            "initial_mode": 0,
            "dwell_bounds": [0.1, 0.3],
            "seed": 1,
        },
    }
    base = validate_config(cfg)
    assert base.signal == random_signal(1.0, (0.1, 0.3), 1, 2, 0)
    overridden = validate_config(cfg, seed=2, step=0.02)
    assert overridden.signal == random_signal(1.0, (0.1, 0.3), 2, 2, 0)
    assert overridden.signal != base.signal
    assert overridden.step == 0.02
    assert overridden.normalized["signal"]["seed"] == 2
    assert overridden.normalized["step"] == 0.02


def test_load_scenario_normalizes_only_when_read(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return normalize_config(*args, **kwargs)

    path = scenario_path("feedback_switch_random.json")
    monkeypatch.setattr("crossdim.config.normalize_config", counted)
    scenario = load_scenario(path, seed=5, step=0.02)
    assert calls == []
    normalized = scenario.normalized
    assert scenario.normalized is normalized and len(calls) == 1
    assert (normalized["signal"]["seed"], normalized["step"]) == (5, 0.02)
    with open(path, "r", encoding="utf-8") as fh:
        assert normalized == validate_config(json.load(fh), seed=5, step=0.02).normalized


def test_normalized_config_is_fixed_at_validation():
    raw = minimal_config()
    scenario = validate_config(raw)
    want = copy.deepcopy(scenario.normalized)
    raw["name"] = "edited"
    raw["modes"][0]["A"][0][1] = 5.0
    raw["x0"].append(3.0)
    assert scenario.normalized == want


def test_random_signal_requires_seed():
    cfg = {
        **minimal_config(),
        "signal": {"kind": "random", "initial_mode": 0, "dwell_bounds": [0.1, 0.3]},
    }
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_load_scenario_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json }")
    with pytest.raises(ConfigError) as err:
        load_scenario(bad)
    assert "line" in str(err.value)


# ------------------------------------------------------------------------- CLI

def run_cli(*args) -> int:
    return main(list(args))


def _huge_step(path):
    """A scenario whose ``step`` is an integer of 5000 digits, beyond what
    Python converts from a string."""
    raw = {**minimal_config(), "step": "STEP"}
    path.write_text(json.dumps(raw).replace('"STEP"', "1" * 5000))


@pytest.mark.parametrize(
    "write, reason",
    [
        (lambda p: p.write_text("[" * 200_000 + "]" * 200_000), "nested too deeply"),
        (_huge_step, "Exceeds the limit (4300 digits)"),
        (lambda p: p.write_bytes(b'{"name": "\xff"}'), "'utf-8' codec can't decode"),
    ],
)
def test_cli_json_that_python_cannot_read_names_the_file(tmp_path, capsys, write, reason):
    bad = tmp_path / "bad.json"
    write(bad)
    assert run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"omega: {bad}: invalid JSON: ") and reason in err
    assert "Traceback" not in err


def test_two_runs_build_the_parser_once(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    try:
        path = scenario_path("two_stage_steering.json")
        with pytest.raises(SystemExit) as rejected:
            run_cli("nonsense", "--config", path, "--out", str(tmp_path / "a"))
        assert rejected.value.code == 2
        assert "invalid choice: 'nonsense'" in capsys.readouterr().err
        for out in ("b", "c"):
            assert run_cli("ctrb", "--config", path, "--out", str(tmp_path / out)) == 0
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1
    assert not (tmp_path / "a").exists()
    assert (tmp_path / "b" / "ctrb_report.json").read_bytes() == (
        tmp_path / "c" / "ctrb_report.json"
    ).read_bytes()


def test_cli_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        "simulate",
        "--config", scenario_path("feedback_switch_fixed.json"),
        "--out", str(out),
    )
    assert code == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,mode,dim,v_norm,x_0,x_1,x_2"
    events = (out / "events.csv").read_text().splitlines()
    assert events[0] == "t,pre_dim,post_dim,gap,amplitude"
    assert len(events) == 4  # three switches inside the horizon


def test_cli_trajectory_pads_short_states(tmp_path):
    out = tmp_path / "run"
    run_cli(
        "simulate",
        "--config", scenario_path("two_mode_contraction.json"),
        "--out", str(out),
    )
    lines = (out / "trajectory.csv").read_text().splitlines()
    first = lines[1].split(",")
    assert first[2] == "2"
    assert first[-1] == "" and first[-2] == ""  # dim-2 state in a max-dim-4 run


def test_cli_floats_round_trip_17_digits(tmp_path):
    out = tmp_path / "run"
    run_cli(
        "simulate",
        "--config", scenario_path("feedback_switch_fixed.json"),
        "--out", str(out),
    )
    from crossdim.cdspace import v_norm

    lines = (out / "trajectory.csv").read_text().splitlines()
    v = lines[1].split(",")[3]
    # parsing the printed text recovers the stored double bit-for-bit
    assert float(v) == v_norm([5.0, 6.0])
    assert abs(float(v) - np.sqrt(61 / 2)) < 1e-14


def test_cli_outputs_written_when_configured(tmp_path):
    out = tmp_path / "run"
    run_cli(
        "simulate",
        "--config", scenario_path("ddp_two_mode.json"),
        "--out", str(out),
    )
    header = (out / "outputs.csv").read_text().splitlines()[0]
    assert header == "t,y_0"


def test_cli_deterministic_reruns(tmp_path):
    config = scenario_path("feedback_switch_random.json")
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run_cli("simulate", "--config", config, "--out", str(out)) == 0
        blobs.append(
            (
                (out / "trajectory.csv").read_bytes(),
                (out / "events.csv").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1]


def test_cli_seed_override_changes_bytes(tmp_path):
    config = scenario_path("feedback_switch_random.json")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    run_cli("simulate", "--config", config, "--out", str(out1))
    run_cli("simulate", "--config", config, "--out", str(out2), "--seed", "99")
    assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()


def test_cli_validation_failure_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    cfg = minimal_config()
    cfg["signal"]["switch_times"] = [-1.0]
    bad.write_text(json.dumps(cfg))
    assert run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o")) == 2


def test_cli_numeric_failure_exits_3(tmp_path):
    bad = tmp_path / "stiff.json"
    bad.write_text(
        json.dumps(
            {
                "modes": [{"label": "hot", "dim": 1, "A": [[1e6]]}],
                "signal": {"kind": "fixed", "initial_mode": 0},
                "x0": [1.0],
                "step": 0.5,
                "horizon": 10.0,
            }
        )
    )
    assert run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o")) == 3


def test_cli_missing_experiment_block_exits_2(tmp_path):
    assert (
        run_cli(
            "chain",
            "--config", scenario_path("feedback_switch_fixed.json"),
            "--out", str(tmp_path / "o"),
        )
        == 2
    )


@pytest.mark.parametrize(
    "command, name, mutate, field",
    [
        ("approx", "reduction_sweep.json",
         lambda e: e["approx"]["cases"][0]["times"].pop("count"),
         "experiment.approx.cases[0].times: missing required field 'count'"),
        ("approx", "reduction_sweep.json",
         lambda e: e["approx"]["cases"][1].update(m_values=["a"]),
         "experiment.approx.cases[1].m_values[0]: expected an integer"),
        ("approx", "reduction_sweep.json",
         lambda e: e["approx"]["cases"][0].update(times=[1.0, "a"]),
         "experiment.approx.cases[0].times[1]: expected a number"),
        ("reduce", "reduction_sweep.json",
         lambda e: e["reduce"]["times"].pop("from"),
         "experiment.reduce.times: missing required field 'from'"),
        ("reduce", "reduction_sweep.json",
         lambda e: e["reduce"].update(m_values=[0]),
         "experiment.reduce.m_values[0]: must be >= 1"),
        ("approx", "reduction_sweep.json",
         lambda e: e["approx"]["cases"][0].update(x0=[1.0, 2.0]),
         "experiment.approx.cases[0].x0: expected length"),
        ("approx", "reduction_sweep.json",
         lambda e: e["approx"]["cases"][0].update(A=[[1.0, "a"]]),
         "experiment.approx.cases[0].A: expected a numeric matrix"),
        ("approx", "reduction_sweep.json",
         lambda e: e["approx"]["cases"][0]["times"].update(count=1000000000),
         "experiment.approx.cases[0].times.count: 1000000000 samples exceeds the budget"),
        ("reduce", "reduction_sweep.json",
         lambda e: e["reduce"].update(A=[[1.0, 2.0]]),
         "experiment.reduce.A: expected a square matrix"),
        ("reduce", "reduction_sweep.json",
         lambda e: e["reduce"].update(B=[[1.0], [1.0, 2.0]]),
         "experiment.reduce.B: expected a numeric matrix"),
        ("reduce", "reduction_sweep.json",
         lambda e: e["reduce"].update(C=[[1.0, 2.0]]),
         "experiment.reduce.C: expected 10 columns"),
        ("reduce", "reduction_sweep.json",
         lambda e: e["reduce"].update(x0=[1.0]),
         "experiment.reduce.x0: expected length 10"),
        ("reduce-vec", "two_stage_steering.json",
         lambda e: e["vectors"]["ops"][1].pop("x"),
         "experiment.vectors.ops[1]: missing required field 'x'"),
        ("reduce-vec", "two_stage_steering.json",
         lambda e: e["vectors"]["ops"][2].pop("m"),
         "experiment.vectors.ops[2]: missing required field 'm'"),
        ("dwell", "two_mode_contraction.json",
         lambda e: e["dwell"].update(gamma="x"),
         "experiment.dwell.gamma: expected a number"),
        ("dwell", "two_mode_contraction.json",
         lambda e: e["dwell"].update(gamma=2),
         "experiment.dwell.gamma: must lie in (0, 1)"),
        ("dwell", "two_mode_contraction.json",
         lambda e: e["dwell"].update(lipschitz="x"),
         "experiment.dwell.lipschitz: expected a number"),
        ("dwell", "two_mode_contraction.json",
         lambda e: e["dwell"].update(lipschitz=-3.0),
         "experiment.dwell.lipschitz: must be positive"),
        ("dwell", "two_mode_contraction.json",
         lambda e: e.update(dwell=[0.03]),
         "experiment.dwell: expected an object"),
        ("chain", "two_stage_steering.json",
         lambda e: e["chain"].update(start=7),
         "experiment.chain.start: must be a mode index in [0, 2)"),
        ("chain", "two_stage_steering.json",
         lambda e: e["chain"].update(target="1"),
         "experiment.chain.target: expected an integer"),
        ("lattice", "two_stage_steering.json",
         lambda e: e["lattice"].update(dims=[0, 2]),
         "experiment.lattice.dims[0]: must be >= 1"),
        ("lattice", "two_stage_steering.json",
         lambda e: e["lattice"].update(dims=6),
         "experiment.lattice.dims: expected a nonempty list"),
        ("reduce-vec", "two_stage_steering.json",
         lambda e: e["vectors"]["ops"][0].update(tol="x"),
         "experiment.vectors.ops[0].tol: expected a number"),
        ("reduce-vec", "two_stage_steering.json",
         lambda e: e["vectors"]["ops"][0].update(tol=0.0),
         "experiment.vectors.ops[0].tol: must be positive"),
        ("reduce-vec", "two_stage_steering.json",
         lambda e: e["vectors"]["ops"][1].update(x=[1, "a"]),
         "experiment.vectors.ops[1].x: expected a numeric vector"),
        ("reduce-vec", "two_stage_steering.json",
         lambda e: e["vectors"]["ops"][1].update(y=[1.0, math.nan]),
         "experiment.vectors.ops[1].y: vector entries must be finite"),
    ],
)
def test_cli_experiment_errors_name_the_field(tmp_path, capsys, command, name, mutate, field):
    with open(scenario_path(name), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    mutate(raw["experiment"])
    bad = tmp_path / name
    bad.write_text(json.dumps(raw))
    assert run_cli(command, "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    message = capsys.readouterr().err
    assert message.startswith("omega: experiment.")
    assert field in message


def test_cli_feedback_gain_must_fit_the_mode(tmp_path, capsys):
    with open(scenario_path("feedback_switch_fixed.json"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["modes"][0]["feedback"] = "damp3"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("omega: modes[0].feedback: ")


def test_cli_feedback_without_inputs_exits_2(tmp_path, capsys):
    with open(scenario_path("feedback_switch_fixed.json"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    del raw["modes"][0]["B"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        "omega: modes[0].feedback: mode 'planar': feedback requires input channels\n"
    )


@pytest.mark.parametrize(
    "name, field, value",
    [
        ("feedback_switch_fixed.json", "feedback", ["damp2"]),
        ("ddp_two_mode.json", "drift", ["ddp2_drift"]),
        ("ddp_two_mode.json", "inputs", {"name": "ddp2_input"}),
    ],
)
def test_cli_registry_names_must_be_strings(tmp_path, capsys, name, field, value):
    with open(scenario_path(name), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["modes"][0][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith(f"omega: modes[0].{field}: ")


@pytest.mark.parametrize(
    "signal, field",
    [
        ({"kind": "random", "dwell_bounds": [1e-12, 1e-12], "seed": 3}, "dwell_bounds"),
        ({"kind": "fixed", "dwell_pattern": [1.0, 1e-12]}, "dwell_pattern"),
    ],
)
def test_cli_switch_budget_names_the_dwell(tmp_path, capsys, signal, field):
    raw = minimal_config()
    raw["signal"] = signal
    config = tmp_path / "many_switches.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", str(config), "--out", str(out)) == 2
    message = capsys.readouterr().err
    assert message.startswith(f"omega: signal.{field}: horizon/dwell = 1e+12 switches")
    assert not out.exists()


def test_cli_self_switch_is_no_jump(tmp_path):
    raw = minimal_config()
    raw["signal"].update(switch_times=[0.3, 0.6], modes=[1, 1])
    raw["transitions"] = {
        "explicit": [{"from": 0, "to": 1, "W": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]}]
    }
    config = tmp_path / "self_switch.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", str(config), "--out", str(out)) == 0
    header, *rows = (out / "events.csv").read_text().splitlines()
    assert [float(row.split(",")[0]) for row in rows] == [0.3]


def test_cli_sample_budget_names_the_step(tmp_path, capsys):
    config = scenario_path("feedback_switch_fixed.json")
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", config, "--out", str(out), "--step", "1e-9") == 2
    assert capsys.readouterr().err.startswith("omega: step: horizon/step = 6e+09 samples")
    assert not out.exists()


def test_cli_dwell_uses_closed_loop_drift(tmp_path, capsys):
    raw = minimal_config()
    # a double integrator: not Hurwitz open loop, damped by u = -x_0 - x_1
    raw["modes"][0].update(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]], feedback="damp2")
    raw["modes"][1]["A"] = (-np.eye(3)).tolist()
    config = tmp_path / "closed.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert run_cli("dwell", "--config", str(config), "--out", str(out)) == 0
    report = json.loads((out / "dwell_report.json").read_text())
    assert report["hurwitz"] == {"a": True, "b": True}
    assert report["dwell"] is not None and math.isfinite(report["dwell"])
    # steer_stage1 has an offset u0 != 0, so its closed loop is not linear
    config = scenario_path("two_stage_steering.json")
    assert run_cli("dwell", "--config", config, "--out", str(out)) == 2
    assert "'planar'" in capsys.readouterr().err


def test_cli_chain_and_lattice_reports(tmp_path):
    out = tmp_path / "o"
    config = scenario_path("two_stage_steering.json")
    assert run_cli("chain", "--config", config, "--out", str(out)) == 0
    chain = json.loads((out / "chain_report.json").read_text())
    assert chain["chain"] == [0, 1]
    assert run_cli("lattice", "--config", config, "--out", str(out)) == 0
    lattice = json.loads((out / "lattice.json").read_text())
    assert lattice["nodes"] == [1, 2, 3, 6]
    assert [2, 6] in lattice["edges"] and [3, 6] in lattice["edges"]


def test_cli_reduce_vec_report(tmp_path):
    out = tmp_path / "o"
    config = scenario_path("two_stage_steering.json")
    assert run_cli("reduce-vec", "--config", config, "--out", str(out)) == 0
    ops = json.loads((out / "vector_ops.json").read_text())
    assert ops[0]["result"] == [1.0, 2.0]
    assert ops[1]["result"] == pytest.approx(1.7607, abs=5e-4)
    assert ops[2]["result"] == [1.5, 3.5]


@pytest.mark.parametrize("mutate, distances", [
    # lcm 4028033 and, twice, 1999000: no distance lifts, so none has a budget
    (lambda raw: raw["experiment"]["vectors"]["ops"][1].update(x=[1.0] * 2003,
                                                               y=[0.5] * 2011), {1: 0.5}),
    (lambda raw: raw["experiment"]["vectors"].update(
        ops=[{"op": "distance", "x": [1.0] * 1999, "y": [0.5] * 1000}] * 2), {0: 0.5, 1: 0.5}),
], ids=["2003x2011", "1999x1000-twice"])
def test_cli_reduce_vec_distances_of_large_lcm(tmp_path, mutate, distances):
    config = _edited(tmp_path, "two_stage_steering.json", mutate)
    out = tmp_path / "o"
    assert run_bounded(5, ["reduce-vec", "--config", config, "--out", str(out)]) == 0
    ops = json.loads((out / "vector_ops.json").read_text())
    assert {k: op["result"] for k, op in enumerate(ops) if op["op"] == "distance"} == distances


def test_cli_dwell_report(tmp_path):
    out = tmp_path / "o"
    assert (
        run_cli(
            "dwell",
            "--config", scenario_path("two_mode_contraction.json"),
            "--out", str(out),
        )
        == 0
    )
    report = json.loads((out / "dwell_report.json").read_text())
    assert report["dwell"] is not None and report["dwell"] <= 3.6
    assert report["hurwitz"] == {"planar": True, "quad": True}


def test_cli_ctrb_obs_reports(tmp_path):
    out = tmp_path / "o"
    config = scenario_path("two_stage_steering.json")
    assert run_cli("ctrb", "--config", config, "--out", str(out)) == 0
    reports = json.loads((out / "ctrb_report.json").read_text())
    assert reports[1]["fully_controllable"] is True
    config2 = scenario_path("two_mode_contraction.json")
    assert run_cli("obs", "--config", config2, "--out", str(out)) == 0
    obs = json.loads((out / "obs_report.json").read_text())
    assert all(entry["fully_observable"] for entry in obs)


def test_cli_embed_report(tmp_path):
    out = tmp_path / "o"
    assert (
        run_cli(
            "embed",
            "--config", scenario_path("two_mode_contraction.json"),
            "--out", str(out),
        )
        == 0
    )
    report = json.loads((out / "equivalence_report.json").read_text())
    assert report["max_equivalence_gap"] <= 1e-9
    dump = json.loads((out / "embedded_system.json").read_text())
    assert dump["common_dim"] == 4
    assert all(m["dim"] == 4 for m in dump["modes"])


@pytest.mark.parametrize("name", SCENARIOS)
def test_trajectory_views_match_one_sample_calls(name):
    scenario = load_scenario(scenario_path(name))
    system = scenario.system
    traj = simulate(system, scenario.signal, scenario.x0, scenario.step)
    for seg, vnorms in zip(traj.segments, traj.segment_vnorms):
        expected = np.array([v_norm(x) for x in seg.states])
        assert vnorms.tobytes() == expected.tobytes()
    if system.output is None:
        assert traj.segment_outputs is None
        return
    for seg, Y in zip(traj.segments, traj.segment_outputs):
        assert len(Y) == len(seg.states)
        for y, x in zip(Y, seg.states):
            assert y.tobytes() == system.output(x).tobytes()


@pytest.mark.parametrize(
    "name", ["two_mode_contraction.json", "feedback_switch_random.json"]
)
def test_cli_embed_gap_matches_pairwise_distance(tmp_path, name):
    out = tmp_path / "o"
    assert run_cli("embed", "--config", scenario_path(name), "--out", str(out)) == 0
    report = json.loads((out / "equivalence_report.json").read_text())
    scenario = load_scenario(scenario_path(name))
    embedded = embed_common(scenario.system)
    original = simulate(scenario.system, scenario.signal, scenario.x0, scenario.step)
    mirrored = simulate(
        embedded, scenario.signal, project(scenario.x0, embedded.modes[0].dim), scenario.step
    )
    pairs = [
        (a, b)
        for sa, sb in zip(original.segments, mirrored.segments)
        for a, b in zip(sa.states, sb.states)
    ]
    expected = max(v_dist(a, b) for a, b in pairs)
    assert report["max_equivalence_gap"] == pytest.approx(expected, rel=1e-12, abs=0)
    assert report["samples_compared"] == len(pairs) == len(original.times)


def test_cli_approx_error_tables(tmp_path):
    out = tmp_path / "o"
    assert (
        run_cli(
            "approx",
            "--config", scenario_path("reduction_sweep.json"),
            "--out", str(out),
        )
        == 0
    )
    lines = (out / "error_graded_decay.csv").read_text().splitlines()
    assert lines[0] == "t,m,E"
    rows = [line.split(",") for line in lines[1:]]
    assert {r[1] for r in rows} == {"9", "7", "5", "11", "13", "15"}
    assert max(float(r[2]) for r in rows) <= 0.05


@pytest.mark.parametrize(
    "field, mutate",
    [
        ("horizon", lambda raw: raw.update(horizon=math.nan)),
        ("horizon", lambda raw: raw.update(horizon=math.inf)),
        ("horizon", lambda raw: raw.update(horizon=-math.inf)),
        ("step", lambda raw: raw.update(step=math.nan)),
        ("signal.dwell_pattern[0]", lambda raw: raw["signal"].update(dwell_pattern=[math.nan])),
        ("signal.dwell_pattern[0]", lambda raw: raw["signal"].update(dwell_pattern=[math.inf])),
        ("horizon", lambda raw: raw.update(horizon=10**400)),
        ("signal.switch_times[1]", lambda raw: raw.update(signal={
            "kind": "fixed", "initial_mode": 0, "switch_times": [1.0, math.nan]})),
    ],
)
def test_cli_non_finite_numbers_name_the_field(tmp_path, capsys, field, mutate):
    # NaN compares False with every budget: before these were rejected, a NaN
    # horizon or dwell made `omega simulate` run without end
    with open(scenario_path("two_mode_contraction.json"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    mutate(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert run_bounded(5, ["simulate", "--config", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"omega: {field}: must be finite")
    assert not out.exists()


def test_cli_lattice_size_is_bounded_before_the_work(tmp_path, capsys):
    # 15 distinct primes close to 2^15 lattice nodes with O(N^3) Hasse edges
    with open(scenario_path("two_stage_steering.json"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["experiment"]["lattice"]["dims"] = [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47
    ]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_bounded(1, ["lattice", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "omega: experiment.lattice.dims: the lcm/gcd closure exceeds 256 nodes"
    )


def test_signal_from_config():
    # round-robin over the mode count; the seed from the file, or from --seed
    cfg = minimal_config()
    cfg["modes"].append({"label": "c", "dim": 1, "A": [[-1.0]]})
    cfg["signal"] = {"kind": "fixed", "dwell_pattern": [0.3]}
    assert validate_config(cfg).signal.modes_after == (1, 2, 0)
    cfg["signal"] = {"kind": "fixed", "switch_times": []}
    assert validate_config(cfg).signal.switch_times == ()
    cfg["signal"] = {"kind": "random", "dwell_bounds": [0.1, 0.3], "seed": 4}
    assert validate_config(cfg).signal == random_signal(1.0, (0.1, 0.3), 4, 3, 0)
    assert validate_config(cfg, seed=5).signal == random_signal(1.0, (0.1, 0.3), 5, 3, 0)
    assert validate_config(cfg, seed=5).signal != validate_config(cfg).signal
    del cfg["signal"]["seed"]
    assert validate_config(cfg, seed=5).signal == random_signal(1.0, (0.1, 0.3), 5, 3, 0)
    with pytest.raises(ConfigError, match=r"^signal: missing required field 'seed'"):
        validate_config(cfg)
    cfg["signal"]["kind"] = "sometimes"
    with pytest.raises(ConfigError, match=r"^signal\.kind: "):
        validate_config(cfg)


def test_experiment_blocks_are_parsed_once_with_defaults():
    scenario = load_scenario(scenario_path("two_stage_steering.json"))
    assert scenario.experiment["dwell"] == {"gamma": 0.03, "lipschitz": None}
    assert scenario.experiment["lattice"]["dims"] == (2, 3)
    assert scenario.experiment["vectors"]["ops"][0]["tol"] == 1e-9
    raw = minimal_config()
    raw["experiment"] = {"chain": {}}
    assert dict(validate_config(raw).block("chain")) == {"start": 0, "target": 1}
    with pytest.raises(ConfigError, match=r"^experiment\.approx: required by this command"):
        validate_config(raw).block("approx")
    with pytest.raises(TypeError):
        validate_config(raw).experiment["chain"]["start"] = 1


def _nonlinear_first_mode(raw):
    raw["modes"][0] = {"label": "planar", "dim": 6, "drift": "ddp_disturbance6"}


def _nonlinear_second_mode(raw):
    raw["modes"][1] = {"label": "chain6", "dim": 6, "drift": "ddp_disturbance6"}


def _coprime_modes(raw):
    # lcm(37, 41) = 1517: 2 drifts and 2 maps of 1517^2 entries, over the budget
    raw["modes"] = [{"label": f"m{n}", "dim": n, "A": (-np.eye(n)).tolist()} for n in (37, 41)]
    raw["x0"] = [1.0] * 37
    del raw["output"]


def _rename(obj, old, new):
    obj[new] = obj.pop(old)


def _huge_span(block, count):
    """The ``reduce`` times, or those of the first ``approx`` case, of
    reduction_sweep as ``count`` points from -1e308 to 1e308."""
    def mutate(raw):
        e = raw["experiment"]
        spec = e["reduce"] if block == "reduce" else e["approx"]["cases"][0]
        spec["times"] = {"from": -1e308, "to": 1e308, "count": count}
    return mutate


def _approx_counts(count):
    """Every ``approx`` case of reduction_sweep sampled at ``count`` times."""
    def mutate(raw):
        for case in raw["experiment"]["approx"]["cases"]:
            case["times"]["count"] = count
    return mutate


@pytest.mark.parametrize(
    "command, name, mutate, message",
    [
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw["x0"].__setitem__(0, 10**400),
         "x0: vector entries must be finite"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw["modes"][0]["A"][0].__setitem__(0, 10**400),
         "modes[0].A: matrix entries must be finite"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw["output"].update(H=[[1.0, 10**400]]),
         "output.H: matrix entries must be finite"),
        ("reduce-vec", "two_stage_steering.json",
         lambda raw: raw["experiment"]["vectors"]["ops"][0].update(x=[1, 10**400]),
         "experiment.vectors.ops[0].x: vector entries must be finite"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw["modes"][0].update(label=["planar"]),
         "modes[0].label: expected a string"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw["modes"][1].update(label=1),
         "modes[1].label: expected a string"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw["signal"].update(dwell_pattern=3.6),
         "signal.dwell_pattern: expected a nonempty list"),
        ("simulate", "feedback_switch_random.json",
         lambda raw: raw["signal"].update(dwell_bounds=0.5),
         "signal.dwell_bounds: expected a nonempty list"),
        ("simulate", "feedback_switch_random.json",
         lambda raw: raw["signal"].update(dwell_bounds=[0.5, 1.0, 2.0]),
         "signal.dwell_bounds: expected 2 entries"),
        ("simulate", "two_stage_steering.json",
         lambda raw: raw["signal"].update(switch_times=[0.0]),
         "signal.switch_times: switch times must lie strictly inside (0, horizon)"),
        ("simulate", "two_stage_steering.json",
         lambda raw: raw["signal"].update(switch_times=1.0),
         "signal.switch_times: expected a list"),
        ("simulate", "two_stage_steering.json",
         lambda raw: raw["signal"].update(modes=[]),
         "signal.modes: needs an entry for each of the 1 switches"),
        ("simulate", "feedback_switch_random.json",
         lambda raw: raw["signal"].update(seed=7.5), "signal.seed: expected an integer"),
        ("simulate", "feedback_switch_random.json",
         lambda raw: raw["signal"].update(seed="7"), "signal.seed: expected an integer"),
        ("simulate", "feedback_switch_random.json",
         lambda raw: raw["signal"].update(seed=True), "signal.seed: expected an integer"),
        ("simulate", "feedback_switch_random.json",
         lambda raw: raw["signal"].update(seed=math.nan), "signal.seed: expected an integer"),
        ("simulate", "feedback_switch_random.json",
         lambda raw: raw["signal"].update(seed=-1), "signal.seed: must be >= 0"),
        ("approx", "reduction_sweep.json",
         lambda raw: raw["experiment"]["approx"]["cases"][0].update(label="a/b"),
         "experiment.approx.cases[0].label: expected a string of letters, digits"),
        ("approx", "reduction_sweep.json",
         lambda raw: raw["experiment"]["approx"]["cases"][2].update(label="/../../x"),
         "experiment.approx.cases[2].label: expected a string of letters, digits"),
        ("approx", "reduction_sweep.json",
         lambda raw: raw["experiment"]["approx"]["cases"][0].update(label=5),
         "experiment.approx.cases[0].label: expected a string of letters, digits"),
        ("approx", "reduction_sweep.json",
         lambda raw: raw["experiment"]["approx"]["cases"][1].update(label="uniform_growth"),
         "experiment.approx.cases[1].label: duplicate label 'uniform_growth'"),
        ("reduce-vec", "two_stage_steering.json",
         lambda raw: raw["experiment"]["vectors"]["ops"][2].update(m=10**400),
         "experiment.vectors.ops[2].m: the bridge from dimension 4 exceeds the budget"),
        ("approx", "reduction_sweep.json",
         lambda raw: raw["experiment"]["approx"]["cases"][0].update(m_values=[9, 9973]),
         "experiment.approx.cases[0].m_values[1]: the bridge from dimension 10 exceeds"),
        ("simulate", "two_stage_steering.json",
         lambda raw: raw["experiment"].update(ddp={}),
         "experiment.ddp: unknown block"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw["experiment"]["dwell"].update(gamma="x"),
         "experiment.dwell.gamma: expected a number"),
        ("lattice", "reduction_sweep.json",
         lambda raw: raw["experiment"]["reduce"].update(x0=[1.0]),
         "experiment.reduce.x0: expected length 10"),
        ("ctrb", "ddp_two_mode.json", lambda raw: None,
         "modes[0].inputs: controllability test requires a linear mode"),
        ("dwell", "two_stage_steering.json", lambda raw: None,
         "modes[0].feedback: mode 'planar': dwell analysis requires linear feedback"),
        ("obs", "two_mode_contraction.json", _nonlinear_first_mode,
         "modes[0].drift: mode 'planar': obs command needs a linear drift"),
        ("dwell", "two_mode_contraction.json", _nonlinear_first_mode,
         "modes[0].drift: mode 'planar': dwell analysis requires a linear drift"),
        ("ctrb", "two_mode_contraction.json", _nonlinear_first_mode,
         "modes[0].drift: controllability test requires a linear mode"),
        ("chain", "ddp_two_mode.json",
         lambda raw: raw.update(experiment={"chain": {}}),
         "modes[0].inputs: controllability test requires a linear mode"),
        ("chain", "two_stage_steering.json", _nonlinear_second_mode,
         "modes[1].drift: controllability test requires a linear mode"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw.update(output={"H": [[]]}),
         "output.H: expected a nonempty matrix"),
        ("obs", "two_mode_contraction.json",
         lambda raw: raw.update(output={"H": []}),
         "output.H: expected a nonempty matrix"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: _rename(raw["signal"], "dwell_pattern", "dwel_pattern"),
         "signal.dwel_pattern: unknown field"),
        ("dwell", "two_mode_contraction.json",
         lambda raw: raw["experiment"].update(dwell={"gama": 0.5}),
         "experiment.dwell.gama: unknown field"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw["modes"][1].update(feedbak="damp2"),
         "modes[1].feedbak: unknown field"),
        ("simulate", "feedback_switch_random.json",
         lambda raw: raw["signal"].update(switch_times=[1.0]),
         "signal.switch_times: unknown field"),
        ("simulate", "ddp_two_mode.json",
         lambda raw: raw["output"].update(q=2),
         "output.q: unknown field"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw.update(disturbance={"eta": "none", "sigma": 1.0}),
         "disturbance.sigma: unknown field"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw.update(transitions={"explicit": [], "default": "nearest"}),
         "transitions.default: unknown field"),
        ("approx", "reduction_sweep.json",
         lambda raw: raw["experiment"]["approx"]["cases"][0]["times"].update(step=0.1),
         "experiment.approx.cases[0].times.step: unknown field"),
        ("reduce", "reduction_sweep.json",
         lambda raw: raw["experiment"]["reduce"].update(m=3),
         "experiment.reduce.m: unknown field"),
        ("reduce-vec", "two_stage_steering.json",
         lambda raw: raw["experiment"]["vectors"]["ops"][3].update(y=[1.0]),
         "experiment.vectors.ops[3].y: unknown field"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw.update(x0=["1", 2.0]),
         "x0: expected a numeric vector"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw.update(x0=[1.0, True]),
         "x0: expected a numeric vector"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw.update(x0=[1.0, None]),
         "x0: expected a numeric vector"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw.update(x0=[]),
         "x0: expected a nonempty vector"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw["modes"][0].update(A=[[True, "2"], [-10.0, -6.0]]),
         "modes[0].A: expected a numeric matrix"),
        ("reduce", "reduction_sweep.json",
         lambda raw: raw["experiment"]["reduce"]["A"][1].__setitem__(0, None),
         "experiment.reduce.A: expected a numeric matrix"),
        ("approx", "reduction_sweep.json",
         lambda raw: raw["experiment"]["approx"]["cases"][0]["A"][3].__setitem__(2, False),
         "experiment.approx.cases[0].A: expected a numeric matrix"),
        ("embed", "two_mode_contraction.json", _coprime_modes,
         "modes: common dimension 1517: 4 matrices of 2301289 entries exceed the budget"),
        ("approx", "reduction_sweep.json",
         lambda raw: raw["experiment"]["approx"]["cases"][0]["times"].update(count=-1),
         "experiment.approx.cases[0].times.count: must be nonnegative"),
        ("approx", "reduction_sweep.json",
         lambda raw: raw["experiment"]["approx"]["cases"][0].update(times="x"),
         "experiment.approx.cases[0].times: expected a list or an object"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw["modes"][0].update(dim=0), "modes[0].dim: must be >= 1"),
        ("simulate", "ddp_two_mode.json",
         lambda raw: raw["modes"][0].update(drift="ddp3_drift"),
         "modes[0].drift: builtin has dimension 3, mode has 2"),
        ("simulate", "ddp_two_mode.json",
         lambda raw: raw["modes"][0].update(B=[[1.0], [0.0]]),
         "modes[0]: give at most one of 'B' and 'inputs'"),
        ("simulate", "ddp_two_mode.json",
         lambda raw: raw["modes"][0].update(inputs="ddp3_input"),
         "modes[0].inputs: builtin has dimension 3, mode has 2"),
        ("simulate", "feedback_switch_random.json",
         lambda raw: raw["signal"].update(dwell_bounds=[2.0, 1.0]), "signal.dwell_bounds: "),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw.update(transitions=5),
         "transitions: expected 'nearest' or {'explicit': [...]}"),
        ("simulate", "ddp_two_mode.json",
         lambda raw: raw["output"].update(H=[[1.0, 0.0]]),
         "output: give exactly one of 'H' (matrix) or 'h' (builtin name)"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw["output"].update(q=3), "output.q: must match the column count of H"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw.update(disturbance={"eta": "nope"}),
         "disturbance.eta: unknown time signal 'nope'"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw.update(disturbance={"eta": "sin1", "mu": -1.0}),
         "disturbance.mu: must be >= 0"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw.update(experiment=[1]), "experiment: expected an object"),
        ("simulate", "two_mode_contraction.json",
         lambda raw: raw["modes"][1].update(label="planar"), "modes: labels must be unique"),
        # budgets and pairing: each run below exited 0 before its check existed
        ("simulate", "feedback_switch_random.json",
         lambda raw: raw["signal"].update(kind="random-dwell"),
         "signal.kind: must be 'fixed' or 'random'"),
        ("approx", "reduction_sweep.json", _approx_counts(250_000),
         "experiment.approx.cases[2].m_values: 2500000 error-table rows exceed the budget"),
        ("simulate", "reduction_sweep.json",
         lambda raw: raw["experiment"]["reduce"]["times"].update(count=1_500_000),
         "experiment.reduce.m_values: 3000000 error-table rows exceed the budget"),
        ("reduce", "reduction_sweep.json",
         lambda raw: raw["experiment"]["reduce"].pop("times"),
         "experiment.reduce: missing required field 'times'"),
        ("reduce", "reduction_sweep.json",
         lambda raw: raw["experiment"]["reduce"].pop("x0"),
         "experiment.reduce: missing required field 'x0'"),
        # a span beyond the float range overflows np.linspace for every count
        ("approx", "reduction_sweep.json", _huge_span("approx", 3),
         "experiment.approx.cases[0].times.to: the span to - from exceeds the float range"),
        ("approx", "reduction_sweep.json", _huge_span("approx", 0),
         "experiment.approx.cases[0].times.to: the span to - from exceeds the float range"),
        ("reduce", "reduction_sweep.json", _huge_span("reduce", 3),
         "experiment.reduce.times.to: the span to - from exceeds the float range"),
        ("reduce", "reduction_sweep.json", _huge_span("reduce", 0),
         "experiment.reduce.times.to: the span to - from exceeds the float range"),
        # ragged lists, which the one type pass of 1-d and 2-d lists may not accept
        ("lattice", "two_mode_contraction.json",
         lambda raw: raw["modes"][0].update(A=[[3.0, 2.0], [-10.0]]),
         "modes[0].A: expected a numeric matrix\n"),
        ("lattice", "two_mode_contraction.json",
         lambda raw: raw["modes"][0].update(A=[[3.0, 2.0], -10.0]),
         "modes[0].A: expected a numeric matrix\n"),
        ("lattice", "two_mode_contraction.json",
         lambda raw: raw["modes"][0].update(A=[[[3.0], [2.0, 1.0]], [[-10.0], [-6.0]]]),
         "modes[0].A: expected a numeric matrix\n"),
        ("lattice", "two_mode_contraction.json",
         lambda raw: raw["modes"][0].update(A=[[], []]),
         "modes[0].A: expected 2 columns, got 0\n"),
        ("lattice", "two_mode_contraction.json",
         lambda raw: raw.update(x0=[[1.0], [2.0, 3.0]]), "x0: expected a numeric vector\n"),
        ("lattice", "two_mode_contraction.json",
         lambda raw: raw.update(x0=[1.0, [2.0]]), "x0: expected a numeric vector\n"),
    ],
)
def test_cli_errors_name_the_field(tmp_path, capsys, command, name, mutate, message):
    # a malformed block fails every command, not only the one that reads it
    with open(scenario_path(name), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    mutate(raw)
    bad = tmp_path / name
    bad.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(bad), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"omega: {message}")
    assert not any(out.glob("error_*"))


def _leaf_at_depth(value: list, leaf, depth: int) -> None:
    """Put ``leaf`` ``depth`` lists deep as the last entry of ``value``,
    wrapping a number in lists where the value is not that deep."""
    for _ in range(depth - 1):
        if not isinstance(value[-1], list):
            value[-1] = [value[-1]]
        value = value[-1]
    value[-1] = leaf


@pytest.mark.parametrize("field, path, kind", [
    (("modes", 0, "A"), "modes[0].A", "matrix"), (("x0",), "x0", "vector")], ids=["A", "x0"])
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("leaf", [True, "1.0", None, {"v": 1.0}],
                         ids=["bool", "str", "None", "dict"])
def test_cli_array_leaves_that_are_not_numbers_exit_2(
        tmp_path, capsys, field, path, kind, depth, leaf):
    # the one type pass of 1-d and 2-d lists hands every bad leaf to the
    # full walk, so the message is the walk's at every depth
    with open(scenario_path("two_mode_contraction.json"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    holder = raw
    for key in field[:-1]:
        holder = holder[key]
    _leaf_at_depth(holder[field[-1]], leaf, depth)
    config = tmp_path / "leaf.json"
    config.write_text(json.dumps(raw))
    assert run_cli("lattice", "--config", str(config), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"omega: {path}: expected a numeric {kind}\n"


def test_embed_budget_leaves_other_commands_alone(tmp_path):
    with open(scenario_path("two_mode_contraction.json"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    _coprime_modes(raw)
    raw.update(horizon=1.0, signal={"kind": "fixed", "dwell_pattern": [0.5]})
    config = tmp_path / "coprime.json"
    config.write_text(json.dumps(raw))
    for command, code in (("embed", 2), ("simulate", 0), ("lattice", 0)):
        out = tmp_path / command
        assert run_cli(command, "--config", str(config), "--out", str(out)) == code
    assert not any((tmp_path / "embed").iterdir())


def diagonal_modes(*dims):
    return [{"label": f"m{n}", "dim": n, "A": (-np.eye(n)).tolist()} for n in dims]


@pytest.mark.parametrize("dims, common", [((23, 24), 552), ((37, 38), 1406)])
def test_embed_bounds_every_matrix_it_writes(tmp_path, capsys, dims, common):
    # 2 drifts and 2 nearest maps of common^2 entries each: within the N^2
    # budget, but over MAX_EMBED_ENTRIES in all; (37, 38) used to take 24 s,
    # 1.3 GB and write 191 MB
    raw = {**minimal_config(), "modes": diagonal_modes(*dims), "x0": [1.0] * dims[0],
           "signal": {"kind": "fixed", "dwell_pattern": [0.005]}, "step": 0.001,
           "horizon": 0.002}
    assert 4 * common**2 > MAX_EMBED_ENTRIES
    out = tmp_path / "out"
    assert run_bounded(5, ["embed", "--config", write_config(tmp_path, raw),
                           "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"omega: modes: common dimension {common}: 4 matrices of {common**2} entries "
        f"exceed the budget of {MAX_EMBED_ENTRIES}\n")
    assert not any(out.iterdir())


def test_embed_budget_counts_modes_and_maps():
    # N = 493: 4 matrices of 243049 entries fit; 8 modes of dimensions 1-128
    # give N = 128 and 8 + 56 matrices, exactly the budget
    for dims, common in (((29, 17), 493), ((1, 2, 4, 8, 16, 32, 64, 128), 128)):
        raw = {**minimal_config(), "modes": diagonal_modes(*dims), "x0": [1.0] * dims[0]}
        assert validate_config(raw).common_dim() == common
    assert (8 + 8 * 7) * 128**2 == MAX_EMBED_ENTRIES
    raw["modes"].append({"label": "ninth", "dim": 1, "A": [[-1.0]]})
    with pytest.raises(ConfigError, match="^modes: common dimension 128: 81 matrices"):
        validate_config(raw).common_dim()


def test_cli_diverging_reduction_is_a_numeric_failure(tmp_path, capsys):
    # e^{7.5 t} x0 overflows before t = 100: exit 3, where a ValueError from
    # the norm of an infinite state used to exit 2 naming no field
    with open(scenario_path("reduction_sweep.json"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["experiment"]["reduce"]["A"][5][5] = 7.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("reduce", "--config", str(bad), "--out", str(tmp_path / "o")) == 3
    assert caught == []
    assert capsys.readouterr().err == (
        "omega: numeric failure: state diverged (operation=approx_error, t=94)\n"
    )
    # the reduced models were computed, but a failed run writes nothing
    assert not any((tmp_path / "o").iterdir())


def test_cli_failed_run_keeps_the_files_in_out(tmp_path):
    def edit(raw):
        raw["experiment"]["reduce"]["A"][5][5] = 7.5  # diverges as above

    config = _edited(tmp_path, "reduction_sweep.json", edit)
    out = tmp_path / "o"
    out.mkdir()
    (out / "reduced_models.json").write_bytes(b"older run\n")
    (out / "notes.txt").write_bytes(b"kept\n")
    assert run_cli("reduce", "--config", config, "--out", str(out)) == 3
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    assert files == {"reduced_models.json": b"older run\n", "notes.txt": b"kept\n"}


@pytest.mark.parametrize(
    "out, bad, code",
    [
        ("file", "file", errno.EEXIST),  # --out is a file
        ("file/o", "file/o", errno.ENOTDIR),  # --out is under a file
        ("o", "o/lattice.json", errno.EISDIR),  # the artifact's name is a directory
    ],
)
def test_cli_unusable_out_exits_2(tmp_path, capsys, out, bad, code):
    (tmp_path / "file").write_text("x")
    (tmp_path / "o" / "lattice.json").mkdir(parents=True)
    config = scenario_path("two_mode_contraction.json")
    assert run_cli("lattice", "--config", config, "--out", str(tmp_path / out)) == 2
    reason = f"[Errno {code}] {os.strerror(code)}: {str(tmp_path / bad)!r}"
    assert capsys.readouterr().err == f"omega: --out: {reason}\n"


def _edited(tmp_path, name, edit) -> str:
    with open(scenario_path(name), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    edit(raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("command", ["simulate", "embed"])
def test_cli_overflowing_transition_is_a_numeric_failure(tmp_path, capsys, command):
    rule = {"explicit": [
        {"from": 0, "to": 1, "W": [[1e300, 0], [0, 0], [0, 0], [0, 0]]},
        {"from": 1, "to": 0, "W": [[1, 0, 0, 0], [0, 1, 0, 0]]},
    ]}
    config = _edited(tmp_path, "two_mode_contraction.json", lambda raw: raw.update(transitions=rule))
    out = tmp_path / "o"
    assert run_cli(command, "--config", config, "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        "omega: numeric failure: transition 0->1 overflowed "
        "(operation=transition, t=10.8)\n"
    )
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["simulate", "embed"])
def test_cli_overflowing_jump_gap_names_the_switch_time(tmp_path, capsys, command):
    cfg = minimal_config()
    cfg["modes"] = [
        {"label": "a", "dim": 1, "A": [[0.0]]},
        {"label": "b", "dim": 1, "A": [[0.0]]},
    ]
    cfg["transitions"] = {"explicit": [{"from": 0, "to": 1, "W": [[-1.0]]}]}
    cfg["x0"] = [1e308]
    config = tmp_path / "flip.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(config), "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        "omega: numeric failure: jump gap overflowed (operation=jump, t=0.5)\n"
    )
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["simulate", "embed"])
def test_cli_infinite_impulse_amplitude_names_the_switch_time(tmp_path, capsys, command):
    def edit(raw):
        raw.update(disturbance={"eta": "zero1", "mu": 1e308}, x0=[1e10, -1e10])

    config = _edited(tmp_path, "two_mode_contraction.json", edit)
    out = tmp_path / "o"
    assert run_cli(command, "--config", config, "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        "omega: numeric failure: jump impulse amplitude overflowed (operation=jump, t=7.2)\n"
    )
    assert not any(out.iterdir())


def test_a_zero1_disturbance_runs_the_undisturbed_path(tmp_path, monkeypatch):
    # eta = 0 moves no mode: the run keeps its exact flows, and mu, which
    # scales the impulse amplitudes, is all the block sets
    work = []
    real = dynamics._expm_stack
    monkeypatch.setattr(dynamics, "_expm_stack",
                        lambda A, ts: work.append(len(ts)) or real(A, ts))
    block = {"eta": "zero1", "mu": 0.5}
    with open(scenario_path("two_mode_contraction.json"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    system = validate_config({**raw, "disturbance": block}).system
    assert system.disturbance is None and system.impulse_scale == 0.5
    runs = []
    for edit in (lambda raw: None, lambda raw: raw.update(disturbance=block)):
        work.clear()
        out = tmp_path / f"run{len(runs)}"
        config = _edited(tmp_path, "two_mode_contraction.json", edit)
        assert run_cli("simulate", "--config", config, "--out", str(out)) == 0
        runs.append(((out / "trajectory.csv").read_bytes(), list(work)))
    assert runs[0][1]
    assert runs[1] == runs[0]


def test_cli_diverging_rk4_run_is_a_numeric_failure(tmp_path, capsys):
    # a disturbance sends the mode to RK4; its overflow exits 3 with no warning
    def edit(raw):
        raw["modes"][0]["A"] = [[300.0, 0.0], [0.0, 300.0]]
        raw["disturbance"] = {"eta": "sin1", "mu": 0.5}

    config = _edited(tmp_path, "two_mode_contraction.json", edit)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("simulate", "--config", config, "--out", str(out)) == 3
    assert caught == []
    assert capsys.readouterr().err == (
        "omega: numeric failure: state diverged in mode 'planar' "
        "(operation=integrate_mode, segment=0, t=2.34)\n"
    )
    assert not any(out.iterdir())


HUGE = [[1e308, 1e308], [1e308, 1e308]]  # finite, but its 2-norm overflows


@pytest.mark.parametrize("good_cases_first", [False, True])
def test_cli_approx_overflow_names_the_time(tmp_path, capsys, good_cases_first):
    # e^{20 t} overflows from t = 36 on while its state 1e-300 e^{20 t} stays
    # finite: the error is undefined there, so the run fails at that time;
    # the tables of the shipped cases before it are not written either
    case = {"label": "split", "A": [[20.0, 0.0], [0.0, -20.0]], "x0": [1e-300, 1.0],
            "m_values": [1], "times": {"from": 1, "to": 100, "count": 100}}

    def edit(raw):
        cases = raw["experiment"]["approx"]["cases"] if good_cases_first else []
        raw["experiment"]["approx"]["cases"] = cases + [case]

    config = _edited(tmp_path, "reduction_sweep.json", edit)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("approx", "--config", config, "--out", str(out)) == 3
    assert caught == []
    assert capsys.readouterr().err == (
        "omega: numeric failure: state diverged (operation=approx_error, t=36)\n"
    )
    assert not any(out.iterdir())


def test_cli_dwell_overflow_does_not_contract(tmp_path):
    # Hurwitz, but ||e^{dA}||_2 is about 1e300 d e^{-d}: no dwell up to 50 works
    def edit(raw):
        raw["modes"][0]["A"] = [[-1.0, 1e300], [0.0, -1.0]]

    config = _edited(tmp_path, "two_mode_contraction.json", edit)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("dwell", "--config", config, "--out", str(out)) == 0
    assert caught == []
    report = json.loads((out / "dwell_report.json").read_text())
    assert report["dwell"] is None
    assert report["hurwitz"] == {"planar": True, "quad": True}


@pytest.mark.parametrize(
    "command, report, key, ranks",
    [("ctrb", "ctrb_report.json", "kalman_rank", [2, 0]),
     ("obs", "obs_report.json", "obs_rank", [1, 4])],
)
def test_cli_ranks_of_a_drift_whose_norm_overflows(tmp_path, command, report, key, ranks):
    # B = [1, 0] reaches A B, a multiple of [1, 1]; H = [1, 1] sees only [1, 1]
    def edit(raw):
        raw["modes"][0].update(A=HUGE, B=[[1.0], [0.0]])

    config = _edited(tmp_path, "two_mode_contraction.json", edit)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(command, "--config", config, "--out", str(out)) == 0
    assert caught == []
    assert [r[key] for r in json.loads((out / report).read_text())] == ranks


@pytest.mark.parametrize("with_errors", [False, True])
def test_cli_reduced_model_overflow_is_a_numeric_failure(tmp_path, capsys, with_errors):
    block = {"A": HUGE, "m_values": [1]}
    if with_errors:
        block.update(x0=[1.0, 1.0], times=[1.0])
    config = _edited(
        tmp_path, "reduction_sweep.json", lambda raw: raw["experiment"].update(reduce=block)
    )
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("reduce", "--config", config, "--out", str(out)) == 3
    assert caught == []
    assert capsys.readouterr().err == (
        "omega: numeric failure: reduced model overflowed (operation=reduce_model)\n"
    )
    assert not any(out.iterdir())


def test_cli_json_with_an_overflowed_number_is_a_numeric_failure(tmp_path, capsys):
    # the finite W has an operator norm above the float range
    rule = {"explicit": [
        {"from": 0, "to": 1, "W": [[1e308, 1e308]] * 4},
        {"from": 1, "to": 0, "W": [[1, 0, 0, 0], [0, 1, 0, 0]]},
    ]}

    def edit(raw):
        raw.update(transitions=rule, x0=[1e-300, 1e-300], horizon=5.0)

    config = _edited(tmp_path, "two_mode_contraction.json", edit)
    out = tmp_path / "o"
    assert run_cli("embed", "--config", config, "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        "omega: numeric failure: embedded_system.json would hold a non-finite "
        "number (operation=write_json)\n"
    )
    assert not any(out.iterdir())


def test_cli_embed_carries_the_disturbance(tmp_path):
    disturbance = {"eta": "sin1", "mu": 0.5}
    config = _edited(
        tmp_path, "two_mode_contraction.json", lambda raw: raw.update(disturbance=disturbance)
    )
    out = tmp_path / "o"
    assert run_cli("embed", "--config", config, "--out", str(out)) == 0
    report = json.loads((out / "equivalence_report.json").read_text())
    assert report["max_equivalence_gap"] <= 1e-9
    # the disturbance moves the run: the undisturbed embedding differs
    plain = tmp_path / "plain"
    assert run_cli("embed", "--config", scenario_path("two_mode_contraction.json"),
                   "--out", str(plain)) == 0
    assert (plain / "embedded_trajectory.csv").read_bytes() != (
        out / "embedded_trajectory.csv"
    ).read_bytes()
    assert [ev["amplitude"] for ev in report["events"]] == [
        0.5 * ev["gap"] for ev in report["events"]
    ]


def test_cli_overflowing_output_is_a_numeric_failure(tmp_path, capsys):
    output = {"H": [[1e308, 1e308]], "q": 2}
    config = _edited(tmp_path, "two_mode_contraction.json", lambda raw: raw.update(output=output))
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", config, "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        "omega: numeric failure: output map overflowed (operation=output, t=0)\n"
    )
    assert not any(out.iterdir())


def test_cli_huge_states_have_finite_norms(tmp_path):
    def edit(raw):
        raw["x0"] = [1e300, 1e300]
        raw["modes"][0]["A"] = [[0, 0], [0, 0]]
        del raw["output"]

    config = _edited(tmp_path, "two_mode_contraction.json", edit)
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", config, "--out", str(out)) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    col = header.index("v_norm")
    norms = [float(row[col]) for row in rows]
    assert all(math.isfinite(v) for v in norms)
    # the zero drift holds the state still on the first dwell, in mode 0
    first = [v for row, v in zip(rows, norms) if float(row[0]) < 3.6]
    assert set(first) == {1e300}


def test_cli_overflowing_distance_is_a_numeric_failure(tmp_path, capsys):
    ops = [{"op": "distance", "x": [1e308], "y": [-1e308]}]
    config = _edited(
        tmp_path, "two_stage_steering.json",
        lambda raw: raw["experiment"]["vectors"].update(ops=ops),
    )
    out = tmp_path / "o"
    assert run_cli("reduce-vec", "--config", config, "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        "omega: numeric failure: mixed-dimension sum overflowed (operation=stp_sub)\n"
    )
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, code", [
    ("simulate", 3), ("embed", 3), ("dwell", 3), ("ctrb", 0), ("obs", 0),
])
def test_cli_overflowing_closed_loop_names_the_mode(tmp_path, capsys, command, code):
    # finite A, B and K whose A + B K overflows in mode 'spatial'
    def edit(raw):
        raw["modes"][1]["B"][0][0] = -1e308
        raw["output"] = {"H": [[1.0, 1.0]], "q": 2}  # for obs

    config = _edited(tmp_path, "feedback_switch_random.json", edit)
    out = tmp_path / "o"
    assert run_cli(command, "--config", config, "--out", str(out)) == code
    err = capsys.readouterr().err
    if code == 3:
        assert err.startswith("omega: numeric failure: closed loop of mode 'spatial' "
                              "overflowed (operation=closed_loop")
        assert not any(out.iterdir())
    else:
        assert err == ""


def test_cli_reduce_solve_failure_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    out = tmp_path / "o"
    assert run_cli("reduce", "--config", scenario_path("reduction_sweep.json"),
                   "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        "omega: numeric failure: bridge Gram matrix is singular (operation=reduce_model)\n"
    )
    assert not any(out.iterdir())


# ---------------------------------------------- every config branch and budget

def write_config(tmp_path, raw) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("contents, message", [
    ("[]", "top level: expected a JSON object"),
    (None, "cannot read "),
])
def test_a_config_that_is_no_object_or_unreadable_exits_2(tmp_path, capsys, contents, message):
    config = tmp_path / "scenario.json"
    if contents is not None:
        config.write_text(contents)
    assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith(f"omega: {message}")


def test_flat_input_matrix_reads_as_one_column():
    raw = minimal_config()
    raw["modes"][0]["B"] = [0.0, 1.0]
    inputs = validate_config(raw).system.modes[0].inputs
    assert inputs.shape == (2, 1) and inputs[:, 0].tolist() == [0.0, 1.0]


def one_dim_modes(count):
    return [{"label": f"m{i}", "dim": 1, "A": [[-1.0]]} for i in range(count)]


def test_nearest_rule_pairs_are_bounded_before_the_table(tmp_path, capsys):
    # 65 modes ask for 65 * 64 = 4160 nearest maps; 64 modes (4032) are in budget
    raw = {**minimal_config(), "modes": one_dim_modes(64), "x0": [1.0]}
    assert len(validate_config(raw).system.table) == 64 * 63 <= MAX_NEAREST_PAIRS
    raw["modes"] = one_dim_modes(65)
    config = write_config(tmp_path, raw)
    for command in ("simulate", "ctrb"):
        out = tmp_path / command
        assert run_bounded(5, [command, "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "omega: modes: 4160 ordered pairs of 65 modes under the nearest rule exceed "
            f"the budget of {MAX_NEAREST_PAIRS}")
        assert not out.exists()


def _long_horizon(past, signal=None):
    """minimal_config over 1e6 time units at step 0.5, exactly the sample
    budget, or, with ``past``, half a step longer; ``signal`` replaces its
    signal."""
    def mutate(raw):
        raw.update(horizon=1_000_000.5 if past else 1e6, step=0.5)
        if signal is not None:
            raw["signal"] = signal
    return mutate


def _one_case(count):
    """The first approx case of reduction_sweep alone, reduced to m = 9 only,
    at ``count`` times."""
    def mutate(raw):
        case = raw["experiment"]["approx"]["cases"][0]
        case.update(m_values=[9], times={**case["times"], "count": count})
        raw["experiment"]["approx"]["cases"] = [case]
    return mutate


def _projection(m):
    """One vectors op projecting a vector of dimension 1000 onto dimension m."""
    op = {"op": "project", "x": [1.0] * 1000, "m": m}
    return lambda raw: raw["experiment"].update(vectors={"ops": [op]})


def _reduce_count(count):
    return lambda raw: raw["experiment"]["reduce"]["times"].update(count=count)


@pytest.mark.parametrize("name, at_bound, past, message", [
    (None, _long_horizon(False), _long_horizon(True),
     "step: horizon/step = 2e+06 samples exceeds the budget of 2000000"),
    # 2e6 dwells of 0.5 (a random signal would draw them for about 4 s)
    (None, _long_horizon(False, {"kind": "fixed", "dwell_pattern": [0.5]}),
     _long_horizon(False, {"kind": "fixed", "dwell_pattern": [0.5, 0.49999995]}),
     "signal.dwell_pattern: horizon/dwell = 2e+06 switches exceeds the budget of 2000000"),
    ("reduction_sweep.json", _one_case(2_000_000), _one_case(2_000_001),
     "experiment.approx.cases[0].times.count: 2000001 samples exceeds the budget of 2000000"),
    # (1000 + 1000) lcm(1000, 1000) is the budget; m = 1001 is far past it
    ("reduction_sweep.json", _projection(1000), _projection(1001),
     "experiment.vectors.ops[0].m: the bridge from dimension 1000 exceeds the budget of "
     "2000000"),
    # 10 reduced dimensions over the three approx cases
    ("reduction_sweep.json", _approx_counts(200_000), _approx_counts(200_001),
     "experiment.approx.cases[2].m_values: 2000010 error-table rows exceed the budget of "
     "2000000"),
    ("reduction_sweep.json", _reduce_count(1_000_000), _reduce_count(1_000_001),
     "experiment.reduce.m_values: 2000002 error-table rows exceed the budget of 2000000"),
], ids=["samples", "switches", "times.count", "bridge", "approx rows", "reduce rows"])
def test_each_budget_admits_its_bound_and_no_more(name, at_bound, past, message):
    # the embed and nearest-pair budgets are checked at their bounds above
    for mutate, admitted in ((at_bound, True), (past, False)):
        raw = minimal_config()
        if name is not None:
            with open(scenario_path(name), "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        mutate(raw)
        if admitted:
            validate_config(raw)
            continue
        with pytest.raises(ConfigError) as caught:
            validate_config(raw)
        assert str(caught.value) == message


def test_explicit_rule_maps_only_the_pairs_it_declares(tmp_path):
    raw = {**minimal_config(), "modes": one_dim_modes(65), "x0": [1.0],
           "transitions": {"explicit": [{"from": 0, "to": 1, "W": [[1.0]]}]}}
    assert list(validate_config(raw).system.table) == [(0, 1)]
    config = write_config(tmp_path, raw)
    assert run_bounded(5, ["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 0


REPLICATE_2_TO_4 = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
MEAN_4_TO_2 = [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]


def explicit_contraction(*extra):
    """two_mode_contraction without its experiment block, under explicit
    maps 0->1 (replication) and 1->0 (block mean) followed by ``extra``."""
    with open(scenario_path("two_mode_contraction.json"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    del raw["experiment"]
    raw["transitions"] = {"explicit": [
        {"from": 0, "to": 1, "W": REPLICATE_2_TO_4},
        {"from": 1, "to": 0, "W": MEAN_4_TO_2},
        *extra,
    ]}
    return raw


@pytest.mark.parametrize("extra, field, message", [
    ({"from": 0, "to": 0, "W": (3 * np.eye(2)).tolist()},
     "transitions.explicit[2].to", "a map from mode 0 to itself is never applied"),
    ({"from": 1, "to": 0, "W": MEAN_4_TO_2},
     "transitions.explicit[2]", "a second map for 1->0"),
])
def test_explicit_rule_declares_each_jump_once(tmp_path, capsys, extra, field, message):
    # an unused self map would raise dwell's default L from 1 to 3 (D 2.427 ->
    # 3.590), and a repeated pair would silently replace the earlier map
    out = tmp_path / "out"
    config = write_config(tmp_path, explicit_contraction())
    assert run_cli("dwell", "--config", config, "--out", str(out)) == 0
    capsys.readouterr()
    config = write_config(tmp_path, explicit_contraction(extra))
    for command in ("dwell", "embed"):
        fresh = tmp_path / command
        assert run_cli(command, "--config", config, "--out", str(fresh)) == 2
        assert capsys.readouterr().err == f"omega: {field}: {message}\n"
        assert not fresh.exists()


@pytest.mark.parametrize("name", [[1, 2], None, 7, {"a": 1}])
def test_scenario_name_must_be_a_string(name):
    with pytest.raises(ConfigError) as err:
        validate_config({**minimal_config(), "name": name})
    assert str(err.value) == "name: expected a string"


def test_normalized_name_defaults_to_scenario():
    raw = minimal_config()
    del raw["name"], raw["transitions"]
    normalized = validate_config(raw).normalized
    assert (normalized["name"], normalized["transitions"]) == ("scenario", "nearest")
