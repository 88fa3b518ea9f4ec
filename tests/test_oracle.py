"""Every command that exits 0 on a shipped scenario, checked by the
benchmark's independent oracle (``perfbench/oracle.py``, numpy and scipy
only, never importing the package): the golden digests pin the artifacts,
and this test says that what they pin is right."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from crossdim import cli
from testkit import scenario_path

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden_artifacts.json").read_text())

_spec = importlib.util.spec_from_file_location("oracle", HERE.parent / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

#: Runs the oracle cannot check: its ``check_dwell`` reads every mode's
#: ``A`` and fails with KeyError on ddp_two_mode, whose modes name their drift.
ORACLE_DEFECTS = {("dwell", "ddp_two_mode.json")}


def _runs():
    for key, run in sorted(GOLDEN.items()):
        if run["exit"] == 0:
            command, name = key.split(" ")
            defect = (command, name) in ORACLE_DEFECTS
            marks = pytest.mark.xfail(strict=True, reason="oracle defect") if defect else ()
            yield pytest.param(command, name, marks=marks, id=key)


@pytest.mark.parametrize("command, name", _runs())
def test_oracle_accepts_every_golden_run(tmp_path, command, name):
    out = tmp_path / "out"
    assert cli.main([command, "--config", scenario_path(name), "--out", str(out)]) == 0
    raw = json.loads(Path(scenario_path(name)).read_text(encoding="utf-8"))
    assert oracle.check(command, raw, out, np.random.default_rng(0)) == []
