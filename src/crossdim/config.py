"""Scenario files: JSON schema validation and normalization.

A scenario declares the modes (matrices row-major, or built-in evaluator
names), the switching signal, the transition rule, initial state, step and
horizon, plus optional output map, disturbance, and experiment parameters.
Every part, each ``experiment`` block included, is parsed here once, so
every command accepts the same files.  Seeds are always explicit in the
file; ``validate`` + ``normalize`` round trips to an identical dict, which
the tests pin down.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import chain
from types import MappingProxyType

import numpy as np

from . import registry
from .dynamics import Disturbance, DvSystem, Mode, OutputMap
from .errors import ConfigError
from .export import _tolist
from .switching import SwitchingSignal, TransitionMap, fixed_signal, random_signal

__all__ = ["Scenario", "load_scenario", "validate_config", "normalize_config"]

#: Most samples one time grid may ask for: horizon/step of a scenario, or
#: the count of an experiment's time list; also the most switches a dwell
#: pattern or random dwell bounds may ask for (horizon over the shortest
#: dwell), (n + m) lcm(n, m) >= m max(n, m) for an experiment's reduction from
#: n to m, and the rows of all error tables of one command.
#: It bounds the work and memory of a run before it starts.
MAX_SAMPLES = 2_000_000

#: Most matrix entries ``embed`` may build and write to
#: ``embedded_system.json``: (modes + maps) N^2, one N x N drift per mode and
#: one N x N map per pair of ``DvSystem.table``, for the common dimension N.
#: At the bound ``embed`` takes about 1.4-2.0 s and 200 MB and writes about
#: 17 MB on a 2-core Xeon VM (two modes of dimensions 17 and 29, or eight of
#: dimensions 1-128, a few samples); its trajectory adds samples x N.
MAX_EMBED_ENTRIES = 2**20

#: Most maps, n (n - 1) for n modes, that ``DvSystem.table`` may build for a
#: nearest rule; ``simulate``, ``dwell``, ``chain`` and ``embed`` read them all.
#: At 64 modes of dimensions 1-3 (4032 maps) ``embed`` takes about 1.0 s on a
#: 2-core Xeon VM, the others less.
MAX_NEAREST_PAIRS = 4096

#: An ``approx`` case label names its table file, ``error_<label>.csv``.
_FILE_LABEL = re.compile(r"[A-Za-z0-9_-]+")

#: The top-level fields of a scenario.
_FIELDS = ("name", "modes", "signal", "transitions", "x0", "step", "horizon",
           "output", "disturbance", "experiment")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A validated scenario, ready to run.

    ``experiment`` maps each block to a read-only mapping of its parsed
    fields, keyed by JSON name, defaults filled in; ``dwell`` and
    ``lattice``, whose fields all have defaults, are always there.
    :attr:`normalized` is computed when first read: :func:`validate_config`
    reads it before it returns, so later edits to the caller's dict do not
    reach it, and :func:`load_scenario`, whose dict no one else holds,
    leaves it to the first reader.
    """

    system: DvSystem
    signal: SwitchingSignal
    x0: np.ndarray
    step: float
    experiment: MappingProxyType
    _normalize: object = field(repr=False)  # () -> the normalized config

    @cached_property
    def normalized(self) -> dict:
        """The canonical raw config, as :func:`normalize_config` gives it."""
        return self._normalize()

    def block(self, key: str) -> MappingProxyType:
        """The parsed ``experiment.<key>`` block of a command that needs it."""
        if key not in self.experiment:
            raise ConfigError(f"experiment.{key}: required by this command but missing")
        return self.experiment[key]

    def common_dim(self) -> int:
        """The lcm N of the mode dimensions, which ``embed`` lifts every mode
        to; its (modes + maps) N^2 entries above ``MAX_EMBED_ENTRIES`` fail
        at ``modes``."""
        n = math.lcm(*(m.dim for m in self.system.modes))
        count = len(self.system.modes) + len(self.system.table)
        _within(count * n * n, MAX_EMBED_ENTRIES, "modes",
                f"common dimension {n}: {count} matrices of {n * n} entries exceed")
        return n


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _within(size, budget: int, path: str, what: str) -> None:
    """Fail at ``path`` when ``size`` is over ``budget``, as "``what`` the
    budget of ``budget``": ``what`` names the size and ends in its verb."""
    if size > budget:
        _fail(path, f"{what} the budget of {budget}")


def _require(raw: dict, key: str, path: str):
    if key not in raw:
        _fail(path, f"missing required field {key!r}")
    return raw[key]


def _builtin(lookup, name, path: str, dim: int | None = None):
    """``lookup(name)`` from the registry; an unknown name, or with ``dim`` a
    builtin of another dimension (its first entry), fails at ``path``."""
    try:
        found = lookup(name)
    except ValueError as exc:
        _fail(path, str(exc))
    if dim is not None and found[0] != dim:
        _fail(path, f"builtin has dimension {found[0]}, mode has {dim}")
    return found


def _as_object(value, path: str, required=(), optional=()) -> dict:
    """A JSON object with every ``required`` key; any key in neither list
    fails as ``<path>.<key>: unknown field`` rather than being ignored."""
    if not isinstance(value, dict):
        _fail(path, "expected an object")
    for key in value:
        if key not in required and key not in optional:
            _fail(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in value:
            _fail(path, f"missing required field {key!r}")
    return value


def _as_list(value, path: str, nonempty: bool = True) -> list:
    if not isinstance(value, list) or (nonempty and not value):
        _fail(path, "expected a nonempty list" if nonempty else "expected a list")
    return value


def _as_entries(value, path: str, parse, nonempty: bool = True) -> list:
    """``parse(entry, path[k])`` for each entry of a JSON list."""
    return [parse(v, f"{path}[{k}]") for k, v in enumerate(_as_list(value, path, nonempty))]


def _as_number(value, path: str, positive: bool = False) -> float:
    """A finite JSON number.

    Python's ``json`` reads NaN and Infinity; NaN compares False with
    everything, so it would pass the sample and switch budgets unchecked.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(path, "expected a number")
    try:
        v = float(value)  # an integer beyond the float range overflows
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        _fail(path, "must be finite")
    if positive and v <= 0:
        _fail(path, "must be positive")
    return v


def _as_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, "expected an integer")
    return value


def _as_index(value, path: str, count: int) -> int:
    if not 0 <= _as_int(value, path) < count:
        _fail(path, f"must be a mode index in [0, {count})")
    return value


def _as_dim(value, path: str, n: int | None = None) -> int:
    """A dimension m >= 1; with ``n``, one the bridge from n reaches in budget."""
    if _as_int(value, path) < 1:
        _fail(path, "must be >= 1")
    if n is not None:
        _within((n + value) * math.lcm(n, value), MAX_SAMPLES, path,
                f"the bridge from dimension {n} exceeds")
    return value


def _as_dims(value, path: str, n: int | None = None) -> tuple:
    """A nonempty list of dimensions (reduced dimensions of n, lattice dims)."""
    return tuple(_as_entries(value, path, partial(_as_dim, n=n)))


def _as_array(value, path: str, kind: str) -> np.ndarray:
    """A finite, read-only float array of JSON numbers (no strings, booleans
    or nulls, as in :func:`_as_number`); ``kind`` ("matrix", "vector") names it.

    A list of numbers or a list of lists of numbers passes one C-level type
    pass; deeper nesting and every bad leaf take the walk over each entry.
    """
    kinds = set(map(type, value)) if type(value) is list else {type(value)}
    if kinds == {list}:
        kinds = set(map(type, chain.from_iterable(value)))
    nested = [] if kinds <= {int, float} else [value]
    for entry in nested:  # every entry of the nested lists, appended as reached
        if entry is None or isinstance(entry, (str, bool)):
            _fail(path, f"expected a numeric {kind}")
        if isinstance(entry, list):
            nested.extend(entry)
    try:
        a = np.array(value, dtype=float)
    except OverflowError:  # an integer beyond the float range
        a = np.array(math.inf)
    except (TypeError, ValueError):
        _fail(path, f"expected a numeric {kind}")
    if not np.all(np.isfinite(a)):
        _fail(path, f"{kind} entries must be finite")
    a.setflags(write=False)
    return a


def _as_matrix(
    value, rows: int | None, cols: int | None, path: str, flat: str | None = None
) -> np.ndarray:
    """A finite, read-only float matrix of the given shape (None: any).

    A flat list reads as one column when ``flat`` is "column", and as one
    row when ``flat`` is "row" or the matrix must have one row.
    """
    M = _as_array(value, path, "matrix")
    if M.ndim == 1:
        if flat == "column":
            M = M.reshape(-1, 1)
        elif flat == "row" or rows == 1:
            M = M.reshape(1, -1)
    if M.ndim != 2:
        _fail(path, "expected a matrix (list of rows)")
    if rows is not None and M.shape[0] != rows:
        _fail(path, f"expected {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        _fail(path, f"expected {cols} columns, got {M.shape[1]}")
    return M


def _as_square(value, path: str) -> np.ndarray:
    M = _as_matrix(value, None, None, path)
    if M.shape[0] != M.shape[1]:
        _fail(path, f"expected a square matrix, got {M.shape}")
    return M


def _as_vector(value, path: str, length: int | None = None) -> np.ndarray:
    v = _as_array(value, path, "vector")
    if v.ndim != 1 or v.size == 0:
        _fail(path, "expected a nonempty vector")
    if length is not None and v.size != length:
        _fail(path, f"expected length {length}, got {v.size}")
    return v


def _as_times(times, path: str) -> np.ndarray:
    """``times``: a list of numbers, or ``{from, to, count}`` for a uniform
    grid whose span to - from is finite."""
    if isinstance(times, dict):
        _as_object(times, path, ("count", "from", "to"))
        count = _as_int(times["count"], f"{path}.count")
        if count < 0:
            _fail(f"{path}.count", "must be nonnegative")
        _within(count, MAX_SAMPLES, f"{path}.count", f"{count} samples exceeds")
        start = _as_number(times["from"], f"{path}.from")
        stop = _as_number(times["to"], f"{path}.to")
        if not math.isfinite(stop - start):  # np.linspace would overflow
            _fail(f"{path}.to", "the span to - from exceeds the float range")
        grid = np.linspace(start, stop, count)
    elif isinstance(times, list):
        grid = np.array(_as_entries(times, path, _as_number, nonempty=False))
    else:
        _fail(path, "expected a list or an object with from, to, count")
    grid.setflags(write=False)
    return grid


def _build_mode(spec, idx: int) -> Mode:
    path = f"modes[{idx}]"
    _as_object(spec, path, ("dim",), ("label", "A", "drift", "B", "inputs", "feedback"))
    label = spec.get("label", f"mode{idx}")
    if not isinstance(label, str):
        _fail(f"{path}.label", "expected a string")
    dim = _as_dim(spec["dim"], f"{path}.dim")

    if ("A" in spec) == ("drift" in spec):
        _fail(path, "give exactly one of 'A' (matrix) or 'drift' (builtin name)")
    if "A" in spec:
        drift = _as_matrix(spec["A"], dim, dim, f"{path}.A")
    else:
        _, drift = _builtin(registry.get_drift, spec["drift"], f"{path}.drift", dim)

    inputs = None
    if "B" in spec and "inputs" in spec:
        _fail(path, "give at most one of 'B' and 'inputs'")
    if "B" in spec:
        inputs = _as_matrix(spec["B"], dim, None, f"{path}.B", flat="column")
    elif "inputs" in spec:
        _, inputs = _builtin(registry.get_input_channels, spec["inputs"], f"{path}.inputs", dim)

    feedback = None
    if "feedback" in spec:
        feedback = _builtin(registry.get_feedback, spec["feedback"], f"{path}.feedback")
    try:
        return Mode(label, dim, drift, inputs, feedback)
    except ValueError as exc:  # drift and inputs pass above: the feedback is at fault
        _fail(f"{path}.feedback", str(exc))


#: The fields a fixed and a random signal read besides ``kind``.
_FIXED_FIELDS = ("initial_mode", "dwell_pattern", "switch_times", "modes")
_RANDOM_FIELDS = ("initial_mode", "dwell_bounds", "seed")


def _build_signal(spec, n_modes: int, horizon: float, seed_override) -> SwitchingSignal:
    path = "signal"
    kind = _as_object(spec, path, ("kind",), _FIXED_FIELDS + _RANDOM_FIELDS)["kind"]
    initial = _as_index(spec.get("initial_mode", 0), f"{path}.initial_mode", n_modes)
    if kind not in ("fixed", "random"):
        _fail(f"{path}.kind", "must be 'fixed' or 'random'")
    _as_object(spec, path, ("kind",), _FIXED_FIELDS if kind == "fixed" else _RANDOM_FIELDS)
    key = "dwell_pattern" if kind == "fixed" else "dwell_bounds"
    dwells = spec.get(key) if kind == "fixed" else _require(spec, key, path)
    if dwells is not None or kind != "fixed":  # random dwells have no default
        dwells = _as_entries(dwells, f"{path}.{key}", partial(_as_number, positive=True))
        # every dwell appends one switch: bound their number before drawing any
        switches = horizon / min(dwells)
        _within(switches, MAX_SAMPLES, f"{path}.{key}",
                f"horizon/dwell = {switches:.3g} switches exceeds")
    if kind != "fixed":
        seed = _require(spec, "seed", path) if seed_override is None else seed_override
        if _as_int(seed, f"{path}.seed") < 0:
            _fail(f"{path}.seed", "must be >= 0")
        if len(dwells) != 2:
            _fail(f"{path}.dwell_bounds", "expected 2 entries [dmin, dmax]")
        try:
            return random_signal(horizon, dwells, seed, n_modes, initial)
        except ValueError as exc:
            _fail(f"{path}.dwell_bounds", str(exc))
    times, modes = spec.get("switch_times"), spec.get("modes")
    if times is not None:
        times = _as_entries(times, f"{path}.switch_times", _as_number, nonempty=False)
    if modes is not None:
        index = partial(_as_index, count=n_modes)
        modes = _as_entries(modes, f"{path}.modes", index, nonempty=False)
    try:
        signal = fixed_signal(horizon, times, dwells, n_modes=n_modes, initial_mode=initial)
    except ValueError as exc:  # the dwells are positive: the switch times are at fault
        _fail(f"{path}.switch_times", str(exc))
    count = len(signal.switch_times)
    if modes is None:
        return signal
    if len(modes) < count:
        _fail(f"{path}.modes", f"needs an entry for each of the {count} switches")
    return replace(signal, modes_after=tuple(modes[:count]))


def _build_transitions(spec, modes, signal) -> object:
    if spec == "nearest":
        return "nearest"
    path = "transitions"
    if not isinstance(spec, dict) or "explicit" not in spec:
        _fail(path, "expected 'nearest' or {'explicit': [...]}")
    _as_object(spec, path, ("explicit",))
    table = {}
    entries = _as_list(spec["explicit"], f"{path}.explicit", nonempty=False)
    for k, entry in enumerate(entries):
        epath = f"{path}.explicit[{k}]"
        _as_object(entry, epath, ("from", "to", "W"))
        i = _as_index(entry["from"], f"{epath}.from", len(modes))
        j = _as_index(entry["to"], f"{epath}.to", len(modes))
        if i == j:
            _fail(f"{epath}.to", f"a map from mode {i} to itself is never applied")
        if (i, j) in table:
            _fail(epath, f"a second map for {i}->{j}")
        W = _as_matrix(entry["W"], modes[j].dim, modes[i].dim, f"{epath}.W")
        table[(i, j)] = TransitionMap(modes[i].dim, modes[j].dim, W)
    # every ordered pair the signal actually uses must be covered
    seq = [signal.initial_mode, *signal.modes_after]
    for a, b in zip(seq, seq[1:]):
        if a != b and (a, b) not in table:
            _fail(path, f"signal switches {a}->{b} but no map is declared")
    return table


def _build_output(spec) -> OutputMap | None:
    if spec is None:
        return None
    path = "output"
    _as_object(spec, path, optional=("H", "h", "q"))
    if ("H" in spec) == ("h" in spec):
        _fail(path, "give exactly one of 'H' (matrix) or 'h' (builtin name)")
    if "H" in spec:
        H = _as_matrix(spec["H"], None, None, f"{path}.H", flat="row")
        if not H.size:
            _fail(f"{path}.H", "expected a nonempty matrix")
        if "q" in spec and _as_int(spec["q"], f"{path}.q") != H.shape[1]:
            _fail(f"{path}.q", "must match the column count of H")
        return OutputMap.from_matrix(H)
    _as_object(spec, path, ("h",))  # a builtin carries its own q
    q, _, h = _builtin(registry.get_output_function, spec["h"], f"{path}.h")
    return OutputMap._from_columns(h, q)


def _build_disturbance(spec) -> tuple:
    """The disturbance and its impulse scale ``mu`` (None and 0 without one)."""
    if spec is None:
        return None, 0.0
    path = "disturbance"
    name = _as_object(spec, path, ("eta",), ("mu",))["eta"]
    dim, fn = _builtin(registry.get_time_signal, name, f"{path}.eta")
    mu = _as_number(spec.get("mu", 0.0), f"{path}.mu")
    if mu < 0:
        _fail(f"{path}.mu", "must be >= 0")
    # zero1 is eta = 0, which moves no mode: a run keeps only its mu
    return (None if name == "zero1" else Disturbance(dim, fn)), mu


def _parse_dwell(block, path: str, modes) -> dict:
    _as_object(block, path, optional=("gamma", "lipschitz"))
    gamma = _as_number(block.get("gamma", 0.03), f"{path}.gamma")
    if not 0.0 < gamma < 1.0:
        _fail(f"{path}.gamma", "must lie in (0, 1)")
    lipschitz = block.get("lipschitz")
    if lipschitz is not None:
        lipschitz = _as_number(lipschitz, f"{path}.lipschitz", positive=True)
    return {"gamma": gamma, "lipschitz": lipschitz}


def _parse_chain(block, path: str, modes) -> dict:
    _as_object(block, path, optional=("start", "target"))
    start = _as_index(block.get("start", 0), f"{path}.start", len(modes))
    target = _as_index(block.get("target", len(modes) - 1), f"{path}.target", len(modes))
    return {"start": start, "target": target}


def _parse_lattice(block, path: str, modes) -> dict:
    _as_object(block, path, optional=("dims",))
    return {"dims": _as_dims(block.get("dims", [m.dim for m in modes]), f"{path}.dims")}


def _parse_model(spec, path: str, rows: int) -> tuple:
    """The fields an ``approx`` case and the ``reduce`` block share: a square
    ``A``, the dimensions ``m_values`` it reduces to, and ``x0`` with
    ``times`` (None without them) for an error table.  Returns the fields
    and ``rows`` plus that table's rows; a sum over MAX_SAMPLES fails."""
    A = _as_square(spec["A"], f"{path}.A")
    n = len(A)
    fields = {"A": A, "m_values": _as_dims(spec["m_values"], f"{path}.m_values", n),
              "x0": None, "times": None}
    if ("x0" in spec) != ("times" in spec):  # the error table needs both
        missing = "times" if "x0" in spec else "x0"
        _fail(path, f"missing required field {missing!r}: x0 and times come together")
    if "x0" in spec:
        fields["x0"] = _as_vector(spec["x0"], f"{path}.x0", n)
        fields["times"] = _as_times(spec["times"], f"{path}.times")
        rows += len(fields["times"]) * len(fields["m_values"])
        _within(rows, MAX_SAMPLES, f"{path}.m_values", f"{rows} error-table rows exceed")
    return fields, rows


def _parse_approx(block, path: str, modes) -> dict:
    _as_object(block, path, optional=("cases",))
    cases, labels, rows = [], set(), 0
    for k, case in enumerate(_as_list(block.get("cases"), f"{path}.cases")):
        cpath = f"{path}.cases[{k}]"
        label = _as_object(case, cpath, ("label", "A", "x0", "m_values", "times"))["label"]
        if not isinstance(label, str) or not _FILE_LABEL.fullmatch(label):
            _fail(f"{cpath}.label", "expected a string of letters, digits, '_' and '-'")
        if label in labels:
            _fail(f"{cpath}.label", f"duplicate label {label!r}")
        labels.add(label)
        fields, rows = _parse_model(case, cpath, rows)
        cases.append(MappingProxyType({"label": label, **fields}))
    return {"cases": tuple(cases)}


def _parse_reduce(block, path: str, modes) -> dict:
    _as_object(block, path, ("A", "m_values"), ("B", "C", "x0", "times"))
    out, _ = _parse_model(block, path, 0)
    n = len(out["A"])
    out["B"] = _as_matrix(block["B"], n, None, f"{path}.B", "column") if "B" in block else None
    out["C"] = _as_matrix(block["C"], None, n, f"{path}.C", "row") if "C" in block else None
    return out


#: vector op -> the fields it requires besides ``op`` and ``x``, and its optional ones.
_OP_FIELDS = {"canonicalize": ((), ("tol",)), "distance": (("y",), ()),
              "norm": ((), ()), "project": (("m",), ())}


def _parse_vectors(block, path: str, modes) -> dict:
    _as_object(block, path, optional=("ops",))
    ops = []
    for k, op in enumerate(_as_list(block.get("ops"), f"{path}.ops")):
        opath = f"{path}.ops[{k}]"
        if not isinstance(op, dict) or "op" not in op:
            _fail(opath, "expected an object with an 'op' field")
        kind = op["op"]
        if not isinstance(kind, str) or kind not in _OP_FIELDS:
            _fail(f"{opath}.op", f"unknown operation {kind!r}")
        required, optional = _OP_FIELDS[kind]
        _as_object(op, opath, ("op", "x", *required), optional)
        fields = {"op": kind, "x": _as_vector(op["x"], f"{opath}.x")}
        if kind == "canonicalize":
            fields["tol"] = _as_number(op.get("tol", 1e-9), f"{opath}.tol", positive=True)
        elif kind == "distance":
            fields["y"] = _as_vector(op["y"], f"{opath}.y")
        elif kind == "project":
            fields["m"] = _as_dim(op["m"], f"{opath}.m", len(fields["x"]))
        ops.append(MappingProxyType(fields))
    return {"ops": tuple(ops)}


#: experiment block -> its parser (block, path, modes) -> fields.
_BLOCKS = {"dwell": _parse_dwell, "chain": _parse_chain, "lattice": _parse_lattice,
           "approx": _parse_approx, "reduce": _parse_reduce, "vectors": _parse_vectors}


def _parse_experiment(spec, modes) -> MappingProxyType:
    """Every block of ``experiment``; ``dwell`` and ``lattice`` default to ``{}``."""
    if not isinstance(spec, dict):
        _fail("experiment", "expected an object")
    blocks = {}
    for key, block in {"dwell": {}, "lattice": {}, **spec}.items():
        path = f"experiment.{key}"
        if key not in _BLOCKS:
            _fail(path, "unknown block")
        blocks[key] = MappingProxyType(_BLOCKS[key](block, path, modes))
    return MappingProxyType(blocks)


def validate_config(raw: dict, seed=None, step=None) -> Scenario:
    """Validate a raw scenario dict and build the runnable objects.

    ``seed``/``step`` are command-line overrides applied before validation
    of the corresponding fields.  Every ``experiment`` block is parsed
    here, so a malformed block fails every command.  The scenario's
    :attr:`~Scenario.normalized` is fixed before this returns.
    """
    scenario = _build_scenario(raw, seed, step)
    scenario.normalized  # the caller keeps ``raw`` and may edit it later
    return scenario


def _build_scenario(raw, seed, step) -> Scenario:
    """:func:`validate_config` without reading ``normalized``, which is
    computed from ``raw`` when first read."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    for key in raw:
        if key not in _FIELDS:
            _fail(key, "unknown field")
    if not isinstance(raw.get("name", ""), str):
        _fail("name", "expected a string")

    mode_specs = _as_list(_require(raw, "modes", "top level"), "modes")
    modes = tuple(_build_mode(spec, i) for i, spec in enumerate(mode_specs))
    labels = [m.label for m in modes]
    if len(set(labels)) != len(labels):
        _fail("modes", "labels must be unique")

    horizon = _as_number(_require(raw, "horizon", "top level"), "horizon", positive=True)
    step_val = step if step is not None else _require(raw, "step", "top level")
    step_val = _as_number(step_val, "step", positive=True)
    samples = horizon / step_val
    _within(samples, MAX_SAMPLES, "step", f"horizon/step = {samples:.3g} samples exceeds")
    signal = _build_signal(_require(raw, "signal", "top level"), len(modes), horizon, seed)
    transitions = _build_transitions(raw.get("transitions", "nearest"), modes, signal)
    if transitions == "nearest":
        pairs = len(modes) * (len(modes) - 1)
        _within(pairs, MAX_NEAREST_PAIRS, "modes",
                f"{pairs} ordered pairs of {len(modes)} modes under the nearest rule exceed")
    x0 = _as_vector(_require(raw, "x0", "top level"), "x0")
    output = _build_output(raw.get("output"))
    disturbance, mu = _build_disturbance(raw.get("disturbance"))
    experiment = _parse_experiment(raw.get("experiment", {}), modes)

    system = DvSystem(modes, transitions, output, impulse_scale=mu, disturbance=disturbance)
    normalize = partial(normalize_config, raw, seed=seed, step=step_val)
    return Scenario(system, signal, x0, step_val, experiment, normalize)


def normalize_config(raw: dict, seed=None, step=None) -> dict:
    """Canonical form of a raw config (overrides applied, defaults filled)."""
    given = {key: value for key, value in raw.items() if value is not None}
    out = json.loads(json.dumps({"name": "scenario", "transitions": "nearest", **given},
                                default=_tolist))
    out["step"] = float(step if step is not None else raw["step"])
    out["horizon"] = float(raw["horizon"])
    if seed is not None and out["signal"].get("kind") == "random":
        out["signal"]["seed"] = int(seed)
    return out


def load_scenario(path, seed=None, step=None) -> Scenario:
    """Read, parse, and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:  # json reads nesting by recursion
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer of too many digits, or bytes that are not UTF-8
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return _build_scenario(raw, seed, step)  # no one else holds ``raw``
