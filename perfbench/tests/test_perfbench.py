"""Tests of the benchmark itself: a smoke pass per workload and the oracle.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, generate_inputs  # noqa: E402

CLI = run.import_program()


def _bench(workload, tmp_path, seed=0):
    inputs = generate_inputs(run.SCENARIOS, workload, seed, tmp_path / "inputs")
    return run.Bench(CLI, workload, inputs, tmp_path), inputs


def _raw(inputs, name):
    return json.loads(Path(inputs[name]["path"]).read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_pass_is_green(workload, tmp_path):
    bench, inputs = _bench(workload, tmp_path)
    bench.run_pass(0)
    bench.check_outputs({name: _raw(inputs, name) for name in inputs}, seed=0)
    assert bench.failures == []
    assert (bench.attempted, bench.failed) == (len(WORKLOADS[workload]), 0)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = generate_inputs(run.SCENARIOS, "feedback-rk4", 5, tmp_path / "a")
    b = generate_inputs(run.SCENARIOS, "feedback-rk4", 5, tmp_path / "b")
    c = generate_inputs(run.SCENARIOS, "feedback-rk4", 6, tmp_path / "c")
    assert {k: v["sha256"] for k, v in a.items()} == {k: v["sha256"] for k, v in b.items()}
    assert a["feedback_switch_random"]["sha256"] != c["feedback_switch_random"]["sha256"]


def _simulate(tmp_path, name):
    inputs = generate_inputs(run.SCENARIOS, "feedback-rk4", 0, tmp_path / "inputs")
    out = tmp_path / "out"
    assert CLI.main(["simulate", "--config", inputs[name]["path"], "--out", str(out)]) == 0
    return _raw(inputs, name), out


def test_oracle_catches_a_corrupted_state(tmp_path):
    raw, out = _simulate(tmp_path, "feedback_switch_fixed")
    assert oracle.check("simulate", raw, out, None) == []
    path = out / "trajectory.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[-1].split(",")
    cells[4] = repr(float(cells[4]) * (1.0 + 1e-6))
    path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n", encoding="utf-8")
    assert any("final state" in f for f in oracle.check("simulate", raw, out, None))


def test_oracle_catches_a_corrupted_error_table(tmp_path):
    inputs = generate_inputs(run.SCENARIOS, "analysis-sweep", 0, tmp_path / "inputs")
    raw, out = _raw(inputs, "reduction_sweep"), tmp_path / "out"
    assert CLI.main(["approx", "--config", inputs["reduction_sweep"]["path"], "--out", str(out)]) == 0
    rng = run.np.random.default_rng(0)
    assert oracle.check("approx", raw, out, rng) == []
    path = out / "error_graded_decay.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    rows = [f"{t},{m},{float(e) * 1.01!r}" for t, m, e in (r.split(",") for r in rows)]
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    assert any("error_graded_decay.csv" in f for f in oracle.check("approx", raw, out, rng))


def test_missing_artifact_fails_the_check(tmp_path):
    raw, out = _simulate(tmp_path, "feedback_switch_random")
    (out / "events.csv").unlink()
    assert oracle.check("simulate", raw, out, None)


def test_changed_rerun_counts_as_failed_op(tmp_path):
    bench, _ = _bench("analysis-sweep", tmp_path)
    bench.run_pass(0)
    index = 0
    bench.first[index] = ("0" * 64, bench.first[index][1])
    bench.run_pass(1)
    assert bench.failed == 1
    assert "differ from the first pass" in bench.failures[0]


def test_traced_pass_reports_layers_and_restores_the_package(tmp_path):
    bench, _ = _bench("analysis-sweep", tmp_path)
    main_before = CLI.main
    tracer = bench.tracer = Tracer()
    tracer.install()
    try:
        bench.run_pass(0)
    finally:
        tracer.uninstall()
        bench.tracer = None
    assert CLI.main is main_before
    rows, size = bench.csv_totals()
    metrics = layer_metrics(tracer.spans, tracer.errors, bench.pass_of_op, 1, rows, size)
    assert bench.failed == 0
    assert metrics["dynamics.expm.calls"]["value"] > 2000
    assert metrics["dynamics.expm.share"]["value"] > 0.5
    assert metrics["dynamics.output.calls"]["value"] == 0
    assert all(metrics[f"{layer}.errors"]["value"] == 0 for layer in ("cli", "dynamics", "config"))
