"""Single-field mutations of the shipped scenarios, run through ``omega``.

Whatever one field of a shipped scenario is replaced with, every command
ends in exit 0, 2 or 3 within a time bound, and an exit-2 message starts
with the path of the field it rejects.  A key that no parser reads, put
into any object of a scenario, fails every command with exit 2 naming it.
"""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from crossdim.cli import COMMANDS
from testkit import SCENARIO_DIR, SHIPPED, run_bounded

SCENARIOS = {name: json.loads((SCENARIO_DIR / name).read_text(encoding="utf-8"))
             for name in SHIPPED}

#: Replacements: wrong types, non-finite, negative, fractional and overflowing
#: numbers, the finite extremes of the float range, empty, ragged and mixed
#: containers, and labels that are no file name.
VALUES = (
    None, True, "x", "7", "a/b", "/../../x", math.nan, math.inf, -1, 0, 1, 1.5, 7.5,
    10**400, 1e308, -1e308, 5e-324, [], {}, [0.5], [1, "a"], [[1.0], [1.0, 2.0]],
    {"a": 1},
)

#: Keys no object of a scenario reads: misspellings and a stray field.
UNKNOWN_KEYS = ("dwel_pattern", "gama", "lable", "comment")

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


def lookup(node, path):
    for key in path:
        node = node[key]
    return node


def dotted(path) -> str:
    """A key path as the messages print it: ``('modes', 0, 'A')`` is ``modes[0].A``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


@st.composite
def mutated_runs(draw):
    """A command, a mutated scenario, and the path of an inserted key (or None)."""
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    raw = copy.deepcopy(SCENARIOS[name])
    paths = list(field_paths(raw))
    if draw(st.booleans()):  # replace one value
        path, inserted = draw(st.sampled_from(paths)), None
        value = draw(st.sampled_from(VALUES))
    else:  # insert an unknown key into one object, the root included
        objects = [()] + [p for p in paths if isinstance(lookup(raw, p), dict)]
        path = draw(st.sampled_from(objects)) + (draw(st.sampled_from(UNKNOWN_KEYS)),)
        inserted, value = dotted(path), 1
    lookup(raw, path[:-1])[path[-1]] = value
    return draw(st.sampled_from(sorted(COMMANDS))), raw, inserted


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutated_runs())
def test_mutated_scenarios_exit_cleanly(run):
    command, raw, inserted = run
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        argv = [command, "--config", str(config), "--out", f"{tmp}/out"]
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = run_bounded(TIME_BOUND, argv)
        err = stderr.getvalue()
    assert code in (0, 2, 3)
    if code == 2:
        message = err.strip().splitlines()[-1]
        assert FIELD_MESSAGE.match(message), message
    if inserted is not None:
        assert code == 2 and err.startswith(f"omega: {inserted}: "), err
