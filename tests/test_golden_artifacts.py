"""Every command on every shipped scenario, in process: the exit code and the
sha256 of every artifact must match ``golden_artifacts.json``.

This makes "byte-identical" a checked property of any change that should
not alter an artifact, such as a speed-up.  A change that alters artifacts
on purpose rewrites the file and says so::

    PYTHONPATH=src python tests/test_golden_artifacts.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from crossdim import cli
from testkit import SHIPPED as SCENARIOS, scenario_path

GOLDEN = Path(__file__).with_name("golden_artifacts.json")


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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = runs(Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} runs to {GOLDEN}", file=sys.stderr)
