import math

import numpy as np

from crossdim.dynamics import Segment, Trajectory
from crossdim.export import format_float, write_error_csv, write_trajectory_csv


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
