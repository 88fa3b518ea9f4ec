"""Every command on every shipped scenario, in process: the exit code and the
sha256 of every artifact must match ``golden_artifacts.json``.

This makes "byte-identical" a checked property of any change that should
not alter an artifact, such as a speed-up.  A change that alters artifacts
on purpose rewrites the file and says so, and ``test_oracle.py`` must still
accept the new artifacts::

    PYTHONPATH=src python tests/test_golden_artifacts.py

``EXPM_WORK`` pins the matrix exponentials of every command that exits 0 on
a shipped scenario: the (calls, slices) of ``_expm_stack``, through which
every exponential of ``dynamics`` and ``analysis`` goes.  A change that
alters a count on purpose updates the pin and says so, as with the file.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from crossdim import analysis, cli, dynamics
from testkit import SHIPPED as SCENARIOS, scenario_path

GOLDEN = Path(__file__).with_name("golden_artifacts.json")

#: (calls, slices) of ``_expm_stack`` for each command that exits 0, by scenario.
EXPM_WORK = {
    "simulate": {"ddp_two_mode": (2, 8), "feedback_switch_fixed": (2, 12),
                 "feedback_switch_random": (8, 20), "reduction_sweep": (1, 1),
                 "two_mode_contraction": (2, 30), "two_stage_steering": (2, 80)},
    "embed": {"ddp_two_mode": (4, 16), "feedback_switch_fixed": (4, 24),
              "feedback_switch_random": (16, 40), "reduction_sweep": (2, 2),
              "two_mode_contraction": (4, 60), "two_stage_steering": (4, 160)},
    "dwell": {"ddp_two_mode": (0, 0), "feedback_switch_fixed": (0, 0),
              "feedback_switch_random": (0, 0), "reduction_sweep": (27, 27),
              "two_mode_contraction": (15, 15)},
    "approx": {"reduction_sweep": (13, 13)},
    "reduce": {"reduction_sweep": (3, 3)},
    "ctrb": {name: (0, 0) for name in ("feedback_switch_fixed", "feedback_switch_random",
                                       "reduction_sweep", "two_mode_contraction",
                                       "two_stage_steering")},
    "obs": {"two_mode_contraction": (0, 0)},
    "chain": {"two_stage_steering": (0, 0)},
    "reduce-vec": {"two_stage_steering": (0, 0)},
    "lattice": {name: (0, 0) for name in ("ddp_two_mode", "feedback_switch_fixed",
                                          "feedback_switch_random", "reduction_sweep",
                                          "two_mode_contraction", "two_stage_steering")},
}


def run(command: str, name: str, out: Path) -> dict:
    """The exit code of one ``omega`` call and the sha256 of each file it wrote."""
    code = cli.main([command, "--config", scenario_path(name), "--out", str(out)])
    files = sorted(out.iterdir()) if out.exists() else []
    return {"exit": code, "artifacts": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                        for p in files}}


def runs(tmp: Path) -> dict:
    return {f"{command} {name}": run(command, name, tmp / command / name)
            for command in sorted(cli.COMMANDS) for name in SCENARIOS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_command_and_scenario(golden):
    assert sorted(golden) == sorted(f"{c} {n}" for c in cli.COMMANDS for n in SCENARIOS)
    assert sum(r["exit"] == 0 for r in golden.values()) >= len(SCENARIOS)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@pytest.mark.parametrize("name", SCENARIOS)
def test_artifacts_match_the_golden_digests(golden, tmp_path, command, name, capsys):
    assert run(command, name, tmp_path / "out") == golden[f"{command} {name}"]


def test_expm_work_pins_every_command_that_exits_0(golden):
    pinned = {f"{c} {n}.json" for c, names in EXPM_WORK.items() for n in names}
    assert pinned == {key for key, r in golden.items() if r["exit"] == 0}


@pytest.mark.parametrize("command, name", [
    (c, n) for c, names in sorted(EXPM_WORK.items()) for n in sorted(names)])
def test_expm_work_of_each_command(monkeypatch, tmp_path, command, name):
    work, real = [0, 0], dynamics._expm_stack

    def spy(A, ts):
        work[0] += 1
        work[1] += len(ts)
        return real(A, ts)

    monkeypatch.setattr(dynamics, "_expm_stack", spy)
    monkeypatch.setattr(analysis, "_expm_stack", spy)
    assert run(command, f"{name}.json", tmp_path / "out")["exit"] == 0
    assert tuple(work) == EXPM_WORK[command][name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = runs(Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} runs to {GOLDEN}", file=sys.stderr)
