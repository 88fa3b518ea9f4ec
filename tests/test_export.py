import math
import os
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdim import cli, export
from crossdim.dynamics import Segment, Trajectory
from crossdim.export import _format_rows, format_float, write_error_csv, write_trajectory_csv


def empty_trajectory():
    return Trajectory(segments=(), segment_modes=(), events=[])


def test_empty_trajectory_writes_header_only(tmp_path):
    path = tmp_path / "t.csv"
    write_trajectory_csv(empty_trajectory(), path)
    assert path.read_text() == "t,mode,dim,v_norm\n"


def test_error_csv_rows(tmp_path):
    path = tmp_path / "e.csv"
    write_error_csv([(1.0, 9, 0.5), (2.0, 9, float("nan"))], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,m,E"
    assert lines[1] == "1,9,0.5"
    assert lines[2].endswith("nan")


def test_format_float_round_trips():
    for v in (1 / 3, 5.522680508593631, -0.0, 1e-300, 123456789.123456789):
        assert float(format_float(v)) == v


def test_trajectory_rows_print_like_format_float(tmp_path):
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1 / 3, 5e-324, 1.7976931348623157e308]
    states = np.array([special[k:] + special[:k] for k in range(len(special))])
    times = np.linspace(0.0, 1.0, len(special))
    segments = (Segment(times, states[:, :3]), Segment(times, states))
    traj = Trajectory(segments, (0, 1), [])
    path = tmp_path / "t.csv"
    with np.errstate(invalid="ignore", over="ignore"):
        write_trajectory_csv(traj, path)
        vnorms = traj.segment_vnorms
    want = ["t,mode,dim,v_norm," + ",".join(f"x_{i}" for i in range(len(special)))]
    for mode, seg, v in zip((0, 1), segments, vnorms):
        n = seg.states.shape[1]
        for t, vn, x in zip(seg.times, v, seg.states):
            cells = [format_float(t), str(mode), str(n), format_float(vn)]
            cells += [format_float(c) for c in x] + [""] * (len(special) - n)
            want.append(",".join(cells))
    assert path.read_text() == "\n".join(want) + "\n"


def test_long_files_are_written_whole(tmp_path):
    # lines are written in chunks; every chunk boundary must keep its newline
    path = tmp_path / "e.csv"
    rows = [(0.5 * k, 3, 1.0 / (k + 1)) for k in range(3 * 4096 + 5)]
    write_error_csv(rows, path)
    want = ["t,m,E"] + [f"{format_float(t)},3,{format_float(e)}" for t, _, e in rows]
    assert path.read_text() == "\n".join(want) + "\n"


# --- the block formatter prints every cell as "%.17g" % x ------------------


def format_like_percent(values, cols=1):
    """The block formatter's text for ``values`` laid out in ``cols`` columns,
    and the per-cell ``%`` reference for the same rows."""
    block = np.asarray(values, dtype=float).reshape(-1, cols)
    suffixes = [b";"] * (cols - 1) + [b"\n"]
    got = _format_rows(block, suffixes).decode()
    want = "".join(";".join("%.17g" % c for c in row) + "\n" for row in block.tolist())
    return got, want


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_block_formatter_prints_any_bit_pattern_like_percent(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    got, want = format_like_percent(values)
    assert got == want


def edge_values():
    # zeros, nan and inf go to "%"; powers of ten and their neighbours make
    # log10 land a decade off; exact ties at the 17th digit (N + 0.25 and
    # N + 0.75 near 1e15, N + 0.125 and N + 0.375 near 1e14) must round half
    # to even; values beyond 1e-260..1e290 go to "%"
    tens = np.array([float(f"1e{p}") for p in range(-323, 309)])
    ties = np.arange(10**15, 10**15 + 200, dtype=float)
    ties14 = np.arange(10**14, 10**14 + 200, dtype=float)
    values = [
        [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf],
        [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
        [1e16, 1e17, 9.999999999999999e16, 1e16 - 2, 1e17 - 16, 2.0**53, 2.0**53 + 2],
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, math.inf), -tens,
        ties + 0.25, ties + 0.75, -(ties + 0.75), ties14 + 0.125, -(ties14 + 0.375),
    ]
    return np.concatenate([np.asarray(v, dtype=float) for v in values])


def test_block_formatter_edge_values_print_like_percent():
    values = edge_values()
    rng = np.random.default_rng(20261018)
    spread = rng.standard_normal(4000) * 10.0 ** rng.integers(-30, 30, size=4000)
    for cols in (1, 3):
        for cells in (values, spread):
            got, want = format_like_percent(cells[: cells.size // cols * cols], cols)
            assert got == want


def _reference_trajectory(traj):
    D = traj.max_dim if traj.segments else 0
    lines = [",".join(["t", "mode", "dim", "v_norm"] + [f"x_{i}" for i in range(D)])]
    for seg, mode, vnorms in zip(traj.segments, traj.segment_modes, traj.segment_vnorms):
        n = seg.states.shape[1]
        for t, v, x in zip(seg.times.tolist(), vnorms.tolist(), seg.states.tolist()):
            cells = ["%.17g" % t, str(int(mode)), str(n), "%.17g" % v]
            lines.append(",".join(cells + ["%.17g" % c for c in x] + [""] * (D - n)))
    return lines


def _reference_events(events):
    lines = ["t,pre_dim,post_dim,gap,amplitude"]
    for ev in events:
        cells = ["%.17g" % ev.time, str(ev.pre_dim), str(ev.post_dim)]
        lines.append(",".join(cells + ["%.17g" % ev.gap, "%.17g" % ev.amplitude]))
    return lines


def _reference_outputs(traj):
    p = max(Y.shape[1] for Y in traj.segment_outputs)
    lines = [",".join(["t"] + [f"y_{i}" for i in range(p)])]
    for seg, Y in zip(traj.segments, traj.segment_outputs):
        for t, y in zip(seg.times.tolist(), Y.tolist()):
            lines.append(",".join(["%.17g" % t] + ["%.17g" % c for c in y]))
    return lines


def _reference_errors(rows):
    return ["t,m,E"] + ["%.17g,%d,%.17g" % (t, int(m), e) for t, m, e in rows]


SCENARIOS = sorted(p.name for p in (resources.files("crossdim") / "scenarios").iterdir())


@pytest.mark.parametrize("name", SCENARIOS)
def test_shipped_csv_artifacts_print_like_percent(name, tmp_path, monkeypatch):
    references = {
        "write_trajectory_csv": _reference_trajectory,
        "write_events_csv": _reference_events,
        "write_outputs_csv": _reference_outputs,
        "write_error_csv": _reference_errors,
    }
    checked = []

    def checking(writer, reference):
        def write(data, path):
            writer(data, path)
            with open(path, "r", encoding="utf-8", newline="") as fh:
                assert fh.read() == "\n".join(reference(data)) + "\n", path
            checked.append(os.path.basename(path))

        return write

    for writer, reference in references.items():
        monkeypatch.setattr(cli, writer, checking(getattr(export, writer), reference))
    config = str(resources.files("crossdim") / "scenarios" / name)
    for command in ("simulate", "embed", "approx", "reduce"):
        cli.main([command, "--config", config, "--out", str(tmp_path / command)])
    written = {os.path.basename(p) for p in map(str, tmp_path.glob("*/*.csv"))}
    assert written and written == set(checked)
