from crossdim.dynamics import Trajectory
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
