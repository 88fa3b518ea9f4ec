import argparse
import copy
import errno
import json
import math
import os
import signal
import warnings
from importlib import resources

import numpy as np
import pytest

from crossdim.cdspace import project, v_dist, v_norm
from crossdim import cli
from crossdim.cli import main
from crossdim.config import load_scenario, normalize_config, validate_config
from crossdim.dynamics import embed_common, simulate
from crossdim.errors import ConfigError

SCENARIOS = [
    "two_mode_contraction.json",
    "two_stage_steering.json",
    "feedback_switch_fixed.json",
    "feedback_switch_random.json",
    "ddp_two_mode.json",
    "reduction_sweep.json",
]


def scenario_path(name: str) -> str:
    return str(resources.files("crossdim") / "scenarios" / name)


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
    assert base.signal.seed == 1
    overridden = validate_config(cfg, seed=2, step=0.02)
    assert overridden.signal.seed == 2
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


def run_cli_bounded(seconds, *args) -> int:
    """``run_cli``, failing the test if it runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"omega {args[0]} ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run_cli(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
    assert run_cli_bounded(5, "simulate", "--config", str(bad), "--out", str(out)) == 2
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
    assert run_cli_bounded(1, "lattice", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
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
    assert validate_config(cfg).signal.seed == 4
    assert validate_config(cfg, seed=5).signal.seed == 5
    del cfg["signal"]["seed"]
    assert validate_config(cfg, seed=5).signal.seed == 5
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
    # lcm(37, 41) = 1517 and 1517^2 = 2301289 drift entries, over the budget
    raw["modes"] = [{"label": f"m{n}", "dim": n, "A": (-np.eye(n)).tolist()} for n in (37, 41)]
    raw["x0"] = [1.0] * 37
    del raw["output"]


def _rename(obj, old, new):
    obj[new] = obj.pop(old)


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
         lambda raw: raw["modes"][0].update(A=[[True, "2"], [-10.0, -6.0]]),
         "modes[0].A: expected a numeric matrix"),
        ("reduce", "reduction_sweep.json",
         lambda raw: raw["experiment"]["reduce"]["A"][1].__setitem__(0, None),
         "experiment.reduce.A: expected a numeric matrix"),
        ("approx", "reduction_sweep.json",
         lambda raw: raw["experiment"]["approx"]["cases"][0]["A"][3].__setitem__(2, False),
         "experiment.approx.cases[0].A: expected a numeric matrix"),
        ("embed", "two_mode_contraction.json", _coprime_modes,
         "modes: common dimension 1517: 2301289 drift entries exceed the budget"),
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
