"""tools/bench_record.py keeps every pair it ran: one pair has no quartiles,
a failing run stops the tool with its stderr shown, and the last lines
summarize each metric and each side's correctness."""

import importlib.util
import json
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def fake_run(calls, fail_at=None, incorrect=()):
    """A stand-in for ``run`` that answers as perfbench does, and on call
    ``fail_at`` raises as a run exiting with code 3.  A run of a checkout
    in ``incorrect`` is not correct and fails 2 of its 10 ops."""
    def run(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        if len(calls) == fail_at:
            raise subprocess.CalledProcessError(
                3, ["run.py"], output="", stderr="Traceback (most recent call last):\nBoom: no scenario")
        prov = {"commit": None, "src_sha256": checkout * 8}
        metrics = {name: {"value": seed + (0.5 if checkout == "new" else 1.0)}
                   for name in bench_record.METRICS}
        return ({"provenance": prov, "cmd_ref": {}},
                {"metrics": metrics, "correct": checkout not in incorrect,
                 "failed": 2 if checkout in incorrect else 0, "attempted": 10})
    return run


def argv(tmp_path, seeds):
    return ["--parent", "old", "--change", "new", "--workload", "w", "--seeds", seeds,
            "--seconds", "1", "--record", str(tmp_path / "BENCH.json")]


def test_a_single_pair_is_recorded_with_its_median_alone(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(bench_record, "run", fake_run(calls))
    assert bench_record.main(argv(tmp_path, "7-7")) == 0
    entry = json.loads((tmp_path / "BENCH.json").read_text())["workloads"]["w"]
    assert calls == [("old", 7), ("new", 7)]
    assert entry["pairs_run"] == 1
    assert entry["summary"]["pass_ref"]["parent"] == {"median": 8.0}
    assert entry["summary"]["pass_ref"]["change"] == {"median": 7.5}
    assert entry["summary"]["pass_ref"]["change_lower_in"] == 1


def test_a_failing_run_keeps_the_pairs_before_it_and_shows_its_stderr(
        tmp_path, monkeypatch, capsys):
    calls = []
    # seed 1: parent, change; seed 2: change, then the parent run fails
    monkeypatch.setattr(bench_record, "run", fake_run(calls, fail_at=4))
    assert bench_record.main(argv(tmp_path, "1-3")) == 2
    assert calls == [("old", 1), ("new", 1), ("new", 2), ("old", 2)]
    err = capsys.readouterr().err
    assert "parent run of seed 2 exited with 3" in err
    assert "Boom: no scenario" in err
    record = json.loads((tmp_path / "BENCH.json").read_text())
    entry = record["workloads"]["w"]
    assert entry["pairs_run"] == 1 and entry["pairs"][0]["seed"] == 1
    assert set(entry["summary"]["setup_s"]["parent"]) == {"median"}
    assert record["change"]["src_sha256"] == "new" * 8


def test_the_last_lines_summarize_each_metric(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_record, "run", fake_run([]))
    assert bench_record.main(argv(tmp_path, "1-3")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-5:-2] == [
        f"w {name}: parent 3 (q 2.5-3.5) -> change 2.5 (q 2-3), change lower in 3/3"
        for name in bench_record.METRICS]
    # one pair has a median alone
    monkeypatch.setattr(bench_record, "run", fake_run([]))
    assert bench_record.main(argv(tmp_path, "7-7")) == 0
    assert capsys.readouterr().out.splitlines()[-3] == (
        "w peak_rss_mb: parent 8 -> change 7.5, change lower in 1/1")


def test_the_last_lines_count_correct_runs_and_failed_ops(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_record, "run", fake_run([], incorrect=("new",)))
    assert bench_record.main(argv(tmp_path, "1-3")) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "w parent: 3/3 runs correct, 0/30 ops failed",
        "w change: 0/3 runs correct, 6/30 ops failed"]
