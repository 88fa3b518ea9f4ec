"""The benchmark's own tests (``perfbench/tests``: a smoke pass per workload
and the oracle on seeded variants), run in a subprocess from the repository
root, since they import the benchmark's modules by path.  Every one of them
passes except the known failures below."""

import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Benchmark tests that fail today, with their failure messages: the tracer
#: wraps public names only, and no package code calls the public ``expm``
#: since every exponential goes through ``_expm_stack`` (ROADMAP item 1).
BENCHMARK_DEFECTS = {
    "test_perfbench.py::test_traced_pass_reports_layers_and_restores_the_package":
        "assert 0.0 > 2000",
}


def test_benchmark_tests_pass_but_the_known_defects(tmp_path):
    report = tmp_path / "perfbench.xml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/tests", f"--junitxml={report}"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert report.exists(), done.stdout + done.stderr
    cases = list(ET.parse(report).getroot().iter("testcase"))
    assert cases, done.stdout
    outcomes = {
        f"{case.get('classname').rsplit('.', 1)[-1]}.py::{case.get('name')}": child.get("message")
        for case in cases
        for child in case
        if child.tag in ("failure", "error", "skipped")
    }
    assert outcomes == BENCHMARK_DEFECTS, done.stdout
