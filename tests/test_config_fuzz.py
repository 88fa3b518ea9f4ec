"""Single-field mutations of the shipped scenarios, run through ``omega``.

Whatever one field of a shipped scenario is replaced with, every command
ends in exit 0, 2 or 3 within a time bound, and an exit-2 message starts
with the path of the field it rejects.
"""

import contextlib
import copy
import io
import json
import math
import re
import signal
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from crossdim.cli import COMMANDS, main

SCENARIOS = {
    path.name: json.loads(path.read_text(encoding="utf-8"))
    for path in (resources.files("crossdim") / "scenarios").iterdir()
    if path.name.endswith(".json")
}

#: Replacements: wrong types, non-finite, negative, fractional and overflowing
#: numbers, empty, ragged and mixed containers, and labels that are no file name.
VALUES = (
    None, True, "x", "7", "a/b", "/../../x", math.nan, math.inf, -1, 0, 1, 1.5, 7.5,
    10**400, [], {}, [0.5], [1, "a"], [[1.0], [1.0, 2.0]], {"a": 1},
)

#: ``omega: <field path>: ...``, the path as in ``experiment.approx.cases[1].label``.
FIELD_MESSAGE = re.compile(r"omega: (top level|\w+(\.\w+|\[\d+\])*): ")

#: Seconds one command may take; the unmutated scenarios run in well under one.
TIME_BOUND = 5


def field_paths(node, prefix=()):
    """The key path of every value inside a JSON document, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


@st.composite
def mutated_runs(draw):
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    raw = copy.deepcopy(SCENARIOS[name])
    path = draw(st.sampled_from(list(field_paths(raw))))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(st.sampled_from(VALUES))
    return draw(st.sampled_from(sorted(COMMANDS))), raw


def run_bounded(argv) -> tuple:
    """Exit code and stderr of ``omega argv``, failing past ``TIME_BOUND`` seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"omega {argv[0]} ran longer than {TIME_BOUND} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return main(argv), err.getvalue()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutated_runs())
def test_mutated_scenarios_exit_cleanly(run):
    command, raw = run
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        code, err = run_bounded([command, "--config", str(config), "--out", f"{tmp}/out"])
    assert code in (0, 2, 3)
    if code == 2:
        message = err.strip().splitlines()[-1]
        assert FIELD_MESSAGE.match(message), message
