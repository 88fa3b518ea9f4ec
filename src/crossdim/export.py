"""Deterministic CSV/JSON artifact writers.

Floats print with 17 significant digits; rows use LF newlines regardless
of platform, so equal inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

__all__ = [
    "format_float",
    "write_error_csv",
    "write_events_csv",
    "write_json",
    "write_outputs_csv",
    "write_trajectory_csv",
]


def format_float(v: float) -> str:
    v = float(v)
    if math.isnan(v):
        return "nan"
    return f"{v:.17g}"


#: Lines joined per write: far fewer calls than one per line, while the
#: text of a long trajectory never sits in memory whole (joining all ~29k
#: rows of a shipped run at once raised peak RSS by about 9 MB).
_LINES_PER_WRITE = 4096


def _write_lines(path, lines):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for k in range(0, len(lines), _LINES_PER_WRITE):
            fh.write("\n".join(lines[k : k + _LINES_PER_WRITE]) + "\n")


#: printf-style format of one float cell; prints the same text as
#: :func:`format_float` (nan, inf, -inf and -0 included) and is faster.
_CELL = "%.17g"


def write_trajectory_csv(traj, path):
    """Rows: t, mode, dim, v_norm, x_0..x_{D-1}; short states padded with empties."""
    D = traj.max_dim if traj.segments else 0
    header = ["t", "mode", "dim", "v_norm"] + [f"x_{i}" for i in range(D)]
    lines = [",".join(header)]
    for seg, mode, vnorms in zip(traj.segments, traj.segment_modes, traj.segment_vnorms):
        n = seg.states.shape[1]
        row = ",".join([_CELL, str(int(mode)), str(n), _CELL] + [_CELL] * n + [""] * (D - n))
        for t, v, x in zip(seg.times.tolist(), vnorms.tolist(), seg.states.tolist()):
            lines.append(row % (t, v, *x))
    _write_lines(path, lines)


def write_events_csv(events, path):
    """Rows: t, pre_dim, post_dim, gap, amplitude."""
    lines = [",".join(["t", "pre_dim", "post_dim", "gap", "amplitude"])]
    for ev in events:
        lines.append(
            ",".join(
                [
                    format_float(ev.time),
                    str(ev.pre_dim),
                    str(ev.post_dim),
                    format_float(ev.gap),
                    format_float(ev.amplitude),
                ]
            )
        )
    _write_lines(path, lines)


def write_outputs_csv(traj, path):
    """Rows: t, y_0..y_{p-1} (only written when an output map is configured)."""
    p = max(Y.shape[1] for Y in traj.segment_outputs)
    lines = [",".join(["t"] + [f"y_{i}" for i in range(p)])]
    for seg, Y in zip(traj.segments, traj.segment_outputs):
        row = ",".join([_CELL] * (1 + Y.shape[1]))
        for t, y in zip(seg.times.tolist(), Y.tolist()):
            lines.append(row % (t, *y))
    _write_lines(path, lines)


def write_error_csv(rows, path):
    """Rows: t, m, E for reduction-error tables."""
    lines = [",".join(["t", "m", "E"])]
    for t, m, e in rows:
        lines.append(",".join([format_float(t), str(int(m)), format_float(e)]))
    _write_lines(path, lines)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(obj, path):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
