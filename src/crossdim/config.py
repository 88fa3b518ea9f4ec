"""Scenario files: JSON schema validation and normalization.

A scenario declares the modes (matrices row-major, or built-in evaluator
names), the switching signal, the transition rule, initial state, step and
horizon, plus optional output map, disturbance, and experiment parameters.
Seeds are always explicit in the file; ``validate`` + ``normalize`` round
trips to an identical dict, which the tests pin down.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import registry
from .dynamics import Disturbance, DvSystem, Mode, OutputMap
from .errors import ConfigError
from .export import _jsonable
from .switching import SwitchingSignal, TransitionMap, make_signal

__all__ = ["Scenario", "load_scenario", "validate_config", "normalize_config"]

#: Most samples one time grid may ask for: horizon/step of a scenario, or
#: the count of an experiment's time list; also the most switches a dwell
#: pattern or random dwell bounds may ask for (horizon over the shortest
#: dwell).  It bounds the work and memory of a run before any of it starts.
MAX_SAMPLES = 2_000_000


@dataclass(frozen=True)
class Scenario:
    """A validated scenario, ready to run."""

    name: str
    system: DvSystem
    signal: SwitchingSignal
    x0: np.ndarray
    step: float
    horizon: float
    disturbance: Disturbance | None
    experiment: dict
    normalized: dict


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _require(raw: dict, key: str, path: str):
    if key not in raw:
        _fail(path, f"missing required field {key!r}")
    return raw[key]


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


def _as_matrix(
    value, rows: int | None, cols: int | None, path: str, flat: str | None = None
) -> np.ndarray:
    """A finite float matrix of the given shape (None: any).

    A flat list reads as one column when ``flat`` is "column", and as one
    row when ``flat`` is "row" or the matrix must have one row.
    """
    try:
        M = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        _fail(path, "expected a numeric matrix (list of rows)")
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
    if not np.all(np.isfinite(M)):
        _fail(path, "matrix entries must be finite")
    return M


def _as_vector(value, path: str, length: int | None = None) -> np.ndarray:
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        _fail(path, "expected a numeric vector")
    if v.ndim != 1 or v.size == 0:
        _fail(path, "expected a nonempty vector")
    if length is not None and v.size != length:
        _fail(path, f"expected length {length}, got {v.size}")
    if not np.all(np.isfinite(v)):
        _fail(path, "vector entries must be finite")
    return v


def _build_mode(spec, idx: int) -> Mode:
    path = f"modes[{idx}]"
    if not isinstance(spec, dict):
        _fail(path, "expected an object")
    label = spec.get("label", f"mode{idx}")
    dim = _as_int(_require(spec, "dim", path), f"{path}.dim")
    if dim < 1:
        _fail(f"{path}.dim", "must be >= 1")

    if ("A" in spec) == ("drift" in spec):
        _fail(path, "give exactly one of 'A' (matrix) or 'drift' (builtin name)")
    if "A" in spec:
        drift = _as_matrix(spec["A"], dim, dim, f"{path}.A")
    else:
        try:
            fdim, drift = registry.get_drift(spec["drift"])
        except ValueError as exc:
            _fail(f"{path}.drift", str(exc))
        if fdim != dim:
            _fail(f"{path}.drift", f"builtin has dimension {fdim}, mode has {dim}")

    inputs = None
    if "B" in spec and "inputs" in spec:
        _fail(path, "give at most one of 'B' and 'inputs'")
    if "B" in spec:
        inputs = _as_matrix(spec["B"], dim, None, f"{path}.B", flat="column")
    elif "inputs" in spec:
        try:
            gdim, inputs = registry.get_input_channels(spec["inputs"])
        except ValueError as exc:
            _fail(f"{path}.inputs", str(exc))
        if gdim != dim:
            _fail(f"{path}.inputs", f"builtin has dimension {gdim}, mode has {dim}")

    feedback = None
    if "feedback" in spec:
        try:
            feedback = registry.get_feedback(spec["feedback"])
        except ValueError as exc:
            _fail(f"{path}.feedback", str(exc))
        if inputs is None:
            _fail(path, "feedback requires input channels")
    try:
        return Mode(label, dim, drift, inputs, feedback)
    except ValueError as exc:  # drift and inputs are checked above; K is not
        _fail(f"{path}.feedback", str(exc))


def _build_signal(spec, n_modes: int, horizon: float, seed_override) -> SwitchingSignal:
    path = "signal"
    if not isinstance(spec, dict):
        _fail(path, "expected an object")
    kind = _require(spec, "kind", path)
    params = dict(spec)
    params.pop("kind", None)
    params.setdefault("n_modes", n_modes)
    initial = params.get("initial_mode", 0)
    if not isinstance(initial, int) or not 0 <= initial < n_modes:
        _fail(f"{path}.initial_mode", f"must be a mode index in [0, {n_modes})")
    if kind not in ("fixed", "random", "random-dwell"):
        _fail(f"{path}.kind", "must be 'fixed' or 'random'")
    if kind == "fixed":
        switch_times = params.get("switch_times")
        if isinstance(switch_times, list):
            for k, t in enumerate(switch_times):
                _as_number(t, f"{path}.switch_times[{k}]")
        mode_list = params.get("modes")
        if mode_list is not None and any(
            not isinstance(m, int) or not 0 <= m < n_modes for m in mode_list
        ):
            _fail(f"{path}.modes", f"entries must be mode indices in [0, {n_modes})")
    # every dwell appends one switch: bound their number before drawing any
    key = "dwell_pattern" if kind == "fixed" else "dwell_bounds"
    dwells = params.get(key)
    if isinstance(dwells, list) and dwells:
        shortest = min(
            _as_number(d, f"{path}.{key}[{k}]", positive=True)
            for k, d in enumerate(dwells)
        )
        if horizon / shortest > MAX_SAMPLES:
            _fail(
                f"{path}.{key}",
                f"horizon/dwell = {horizon / shortest:.3g} switches exceeds the "
                f"budget of {MAX_SAMPLES}",
            )
    try:
        return make_signal(kind, params, horizon, seed=seed_override)
    except ValueError as exc:
        _fail(path, str(exc))


def _build_transitions(spec, modes, signal) -> object:
    if spec == "nearest":
        return "nearest"
    path = "transitions"
    if not isinstance(spec, dict) or "explicit" not in spec:
        _fail(path, "expected 'nearest' or {'explicit': [...]}")
    table = {}
    for k, entry in enumerate(spec["explicit"]):
        epath = f"{path}.explicit[{k}]"
        if not isinstance(entry, dict):
            _fail(epath, "expected an object")
        i = _as_int(_require(entry, "from", epath), f"{epath}.from")
        j = _as_int(_require(entry, "to", epath), f"{epath}.to")
        if not (0 <= i < len(modes) and 0 <= j < len(modes)):
            _fail(epath, "mode index out of range")
        W = _as_matrix(
            _require(entry, "W", epath), modes[j].dim, modes[i].dim, f"{epath}.W"
        )
        table[(i, j)] = TransitionMap(modes[i].dim, modes[j].dim, W)
    # every ordered pair the signal actually uses must be covered
    seq = [signal.initial_mode, *signal.modes_after]
    for a, b in zip(seq, seq[1:]):
        if a != b and (a, b) not in table:
            _fail(path, f"signal switches {a}->{b} but no map is declared")
    return table


def _build_output(spec, modes) -> OutputMap | None:
    if spec is None:
        return None
    path = "output"
    if not isinstance(spec, dict):
        _fail(path, "expected an object")
    if ("H" in spec) == ("h" in spec):
        _fail(path, "give exactly one of 'H' (matrix) or 'h' (builtin name)")
    if "H" in spec:
        H = _as_matrix(spec["H"], None, None, f"{path}.H", flat="row")
        if "q" in spec and _as_int(spec["q"], f"{path}.q") != H.shape[1]:
            _fail(f"{path}.q", "must match the column count of H")
        return OutputMap.from_matrix(H)
    try:
        q, p, h = registry.get_output_function(spec["h"])
    except ValueError as exc:
        _fail(f"{path}.h", str(exc))
    return OutputMap.from_function(h, q, p)


def _build_disturbance(spec) -> Disturbance | None:
    if spec is None:
        return None
    path = "disturbance"
    if not isinstance(spec, dict):
        _fail(path, "expected an object")
    name = _require(spec, "eta", path)
    try:
        dim, fn = registry.get_time_signal(name)
    except ValueError as exc:
        _fail(f"{path}.eta", str(exc))
    return Disturbance(dim, fn)


def validate_config(raw: dict, seed=None, step=None) -> Scenario:
    """Validate a raw scenario dict and build the runnable objects.

    ``seed``/``step`` are command-line overrides applied before validation
    of the corresponding fields.
    """
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    known = {
        "name",
        "modes",
        "signal",
        "transitions",
        "x0",
        "step",
        "horizon",
        "output",
        "disturbance",
        "experiment",
    }
    for key in raw:
        if key not in known:
            _fail(key, "unknown field")

    name = raw.get("name", "scenario")
    mode_specs = _require(raw, "modes", "top level")
    if not isinstance(mode_specs, list) or not mode_specs:
        _fail("modes", "expected a nonempty list")
    modes = tuple(_build_mode(spec, i) for i, spec in enumerate(mode_specs))
    labels = [m.label for m in modes]
    if len(set(labels)) != len(labels):
        _fail("modes", "labels must be unique")

    horizon = _as_number(_require(raw, "horizon", "top level"), "horizon", positive=True)
    step_val = _as_number(
        step if step is not None else _require(raw, "step", "top level"),
        "step",
        positive=True,
    )
    if horizon / step_val > MAX_SAMPLES:
        _fail(
            "step",
            f"horizon/step = {horizon / step_val:.3g} samples exceeds the "
            f"budget of {MAX_SAMPLES}",
        )
    signal = _build_signal(_require(raw, "signal", "top level"), len(modes), horizon, seed)
    transitions = _build_transitions(raw.get("transitions", "nearest"), modes, signal)
    x0 = _as_vector(_require(raw, "x0", "top level"), "x0")
    output = _build_output(raw.get("output"), modes)
    disturbance = _build_disturbance(raw.get("disturbance"))
    mu = 0.0
    if raw.get("disturbance") is not None:
        mu = _as_number(raw["disturbance"].get("mu", 0.0), "disturbance.mu")
        if mu < 0:
            _fail("disturbance.mu", "must be >= 0")
    experiment = raw.get("experiment", {})
    if not isinstance(experiment, dict):
        _fail("experiment", "expected an object")

    system = DvSystem(modes, transitions, output, impulse_scale=mu)
    normalized = normalize_config(raw, seed=seed, step=step_val)
    return Scenario(
        name, system, signal, x0, step_val, horizon, disturbance, experiment, normalized
    )


def normalize_config(raw: dict, seed=None, step=None) -> dict:
    """Canonical form of a raw config (overrides applied, defaults filled)."""
    out = {
        "name": raw.get("name", "scenario"),
        "modes": _jsonable(raw["modes"]),
        "signal": _jsonable(dict(raw["signal"])),
        "transitions": _jsonable(raw.get("transitions", "nearest")),
        "x0": _jsonable(raw["x0"]),
        "step": float(step if step is not None else raw["step"]),
        "horizon": float(raw["horizon"]),
    }
    if seed is not None and out["signal"].get("kind") in ("random", "random-dwell"):
        out["signal"]["seed"] = int(seed)
    for key in ("output", "disturbance", "experiment"):
        if raw.get(key) is not None:
            out[key] = _jsonable(raw[key])
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
    return validate_config(raw, seed=seed, step=step)
