"""The CLI in fresh processes: what a command imports, and artifacts that do
not depend on the BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossdim
from testkit import scenario_path

SRC = str(Path(crossdim.__file__).resolve().parent.parent)


def run_python(args, **env) -> str:
    """The stdout of a fresh interpreter that imports this checkout's crossdim."""
    env = {**os.environ, "PYTHONPATH": SRC, **env}
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return done.stdout


def test_commands_without_an_exponential_never_import_scipy(tmp_path):
    argv = ["ctrb", "--config", scenario_path("two_mode_contraction.json"), "--out", str(tmp_path)]
    code = (
        "import sys\n"
        "import crossdim.cli\n"
        "print('scipy' in sys.modules)\n"
        f"print(crossdim.cli.main({argv!r}), 'scipy' in sys.modules)\n"
    )
    assert run_python(["-c", code]).split() == ["False", "0", "False"]
    assert (tmp_path / "ctrb_report.json").exists()


@pytest.mark.parametrize(
    "command, name",
    [("simulate", "two_mode_contraction.json"), ("approx", "reduction_sweep.json"),
     ("reduce", "reduction_sweep.json"), ("embed", "feedback_switch_fixed.json")],
)
def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, command, name):
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        argv = ["-m", "crossdim.cli", command, "--config", scenario_path(name), "--out", str(out)]
        run_python(argv, OPENBLAS_NUM_THREADS=threads)
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert trees[0] and trees[0] == trees[1]
