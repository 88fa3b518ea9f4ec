import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdim import cli, export
from crossdim.config import load_scenario
from crossdim.dynamics import Segment, Trajectory
from crossdim.errors import ConfigError, NumericFailure
from crossdim.export import (
    _format_rows, _layout, _suffixes, _workspace, error_table, publish, trajectory_table,
)
from testkit import SHIPPED, scenario_path


def format_float(v) -> str:
    """A CSV cell as the export contract states it."""
    return "%.17g" % v


def empty_trajectory():
    return Trajectory(segments=(), segment_modes=(), events=[])


def published(tmp_path, name, table) -> str:
    """The text ``publish`` writes for one CSV table."""
    publish({name: table}, tmp_path)
    return (tmp_path / name).read_bytes().decode()


def test_empty_trajectory_writes_header_only(tmp_path):
    assert published(tmp_path, "t.csv", trajectory_table(empty_trajectory())) == (
        "t,mode,dim,v_norm\n"
    )


def test_error_csv_rows(tmp_path):
    table = error_table([1.0, 2.0], [9, 12], [[0.5, float("nan")], [0.25, 1.0]])
    lines = published(tmp_path, "e.csv", table).splitlines()
    assert lines == ["t,m,E", "1,9,0.5", "2,9,nan", "1,12,0.25", "2,12,1"]


def test_error_table_is_one_part_printed_like_percent(tmp_path):
    # m is a float column, which %.17g prints as the integer
    times = np.array([0.0, 0.1, 1 / 3, 2.5, 1e-7, 40.0])
    m_values = [1, 9, 10, 12, 99, 100, 4096, 1_999_999]
    rng = np.random.default_rng(3)
    errors = rng.random((len(m_values), len(times))) * 10.0 ** rng.integers(-20, 5, (8, 6))
    errors[1, 2] = errors[3] = errors[7, 5] = math.nan
    header, parts = table = error_table(times, m_values, errors)
    assert header == ["t", "m", "E"] and len(parts) == 1
    want = "".join(
        "%.17g,%d,%.17g\n" % (t, m, e)
        for m, row in zip(m_values, errors) for t, e in zip(times, row)
    )
    assert published(tmp_path, "e.csv", table) == "t,m,E\n" + want


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_json_refuses_a_non_finite_number(tmp_path, value):
    # the refusal comes before any file: the CSV and the good JSON named
    # first are not written either
    artifacts = {
        "e.csv": error_table([1.0], [3], [[0.5]]),
        "ok.json": {"ok": 1.0},
        "report.json": {"ok": 1.0, "bad": [np.float64(value)]},
    }
    with pytest.raises(NumericFailure) as exc:
        publish(artifacts, tmp_path)
    assert str(exc.value) == (
        "report.json would hold a non-finite number (operation=write_json)"
    )
    assert not any(tmp_path.iterdir())


def test_format_float_round_trips():
    for v in (1 / 3, 5.522680508593631, -0.0, 1e-300, 123456789.123456789):
        assert float(format_float(v)) == v


def test_trajectory_rows_print_like_format_float(tmp_path):
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1 / 3, 5e-324, 1.7976931348623157e308]
    states = np.array([special[k:] + special[:k] for k in range(len(special))])
    times = np.linspace(0.0, 1.0, len(special))
    segments = (Segment(times, states[:, :3]), Segment(times, states))
    traj = Trajectory(segments, (0, 1), [])
    with np.errstate(invalid="ignore", over="ignore"):
        text = published(tmp_path, "t.csv", trajectory_table(traj))
        vnorms = traj.segment_vnorms
    want = ["t,mode,dim,v_norm," + ",".join(f"x_{i}" for i in range(len(special)))]
    for mode, seg, v in zip((0, 1), segments, vnorms):
        n = seg.states.shape[1]
        for t, vn, x in zip(seg.times, v, seg.states):
            cells = [format_float(t), str(mode), str(n), format_float(vn)]
            cells += [format_float(c) for c in x] + [""] * (len(special) - n)
            want.append(",".join(cells))
    assert text == "\n".join(want) + "\n"


def test_long_files_are_written_whole(tmp_path):
    # lines are written in blocks; every block and part boundary must keep
    # its newline
    times = 0.5 * np.arange(3 * 4096 + 5)
    errors = [1.0 / (times + 1), 1.0 / (times + 2)]
    want = ["t,m,E"] + [
        f"{format_float(t)},{m},{format_float(e)}"
        for m, row in zip((3, 4), errors) for t, e in zip(times, row)
    ]
    text = published(tmp_path, "e.csv", error_table(times, [3, 4], errors))
    assert text == "\n".join(want) + "\n"


# --- the block formatter prints every cell as "%.17g" % x ------------------


def format_like_percent(values, cols=1):
    """The block formatter's text for ``values`` laid out in ``cols`` columns,
    and the per-cell ``%`` reference for the same rows."""
    block = np.asarray(values, dtype=float).reshape(-1, cols)
    suffixes = [b";"] * (cols - 1) + [b"\n"]
    got = _format_rows(block, _layout(tuple(suffixes)), _workspace(block.size)).decode()
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
    # log10 land a decade off, and a few ulps from them the scaled value
    # lands next to 1e16 or 1e17; exact ties at the 17th digit (N + 0.25 and
    # N + 0.75 near 1e15, N + 0.125 and N + 0.375 near 1e14) must round half
    # to even; values beyond 1e-260..1e290 go to "%"
    tens = np.array([float(f"1e{p}") for p in range(-323, 309)])
    ties = np.arange(10**15, 10**15 + 200, dtype=float)
    ties14 = np.arange(10**14, 10**14 + 200, dtype=float)
    # exactly one, two and three all-zero trailing limbs of four digits
    zero_limbs = np.array([1.0009765625, 1.015625, 1.5, 1.0009765625e12, 1.015625e20, 1.5e20])
    # x = m * 2**-34 in [2**18, 2**19) scales by 10**11 to m * 5**11 / 2**23,
    # whose fraction runs over the multiples of 2**-23 (5**11 is odd): it
    # lies 8 * 2**-23 from a half, just inside the tie band, or 9 * 2**-23,
    # just outside
    inv = pow(5**11, -1, 2**23)
    near_ties = np.array([math.ldexp(((2**22 + t) * inv) % 2**23 + 2**52 + i * 2**23, -34)
                          for t in (-9, -8, 8, 9) for i in range(8)])
    values = [
        [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf],
        [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
        [1e16, 1e17, 9.999999999999999e16, 1e16 - 2, 1e17 - 16, 2.0**53, 2.0**53 + 2],
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, math.inf), -tens,
        *(tens * (1 + u * 2.0**-52) for u in (-3, -2, 2, 3)),
        ties + 0.25, ties + 0.75, -(ties + 0.75), ties14 + 0.125, -(ties14 + 0.375),
        zero_limbs, -zero_limbs, near_ties, -near_ties,
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


def test_power_table_holds_each_power_of_ten_as_nearest_double_plus_remainder():
    # 10^j = hi + lo against exact rationals: hi the nearest double, lo the
    # nearest double to the remainder, and hi split exactly for Dekker
    hi, hi_hi, hi_lo, lo = export._tables()[0]
    for i, j in enumerate(range(export._J0, -export._J0 + 1)):
        p = Fraction(10) ** j
        assert hi[i] == float(p) and lo[i] == float(p - Fraction(hi[i])), j
    assert np.array_equal(hi_hi + hi_lo, hi)


def test_blocks_of_every_shape_leave_no_stale_workspace_bytes(tmp_path):
    # one file, one workspace: parts of 3, 1 and 2 columns with block + 1,
    # 1 and block - 1 rows, so every block after the first reuses bytes a
    # larger one wrote; the cells "%" prints are scattered in
    fallback = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310]
    rng = np.random.default_rng(22)
    parts, want = [], "h\n"
    for cols, rows in ((3, export._BLOCK_CELLS // 3 + 1), (1, 1), (2, export._BLOCK_CELLS // 2 - 1)):
        values = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-30, 30, (rows, cols))
        flat = values.reshape(-1)
        spots = rng.choice(flat.size, min(flat.size, len(fallback)), replace=False)
        flat[spots] = rng.choice(fallback, len(spots), replace=False)
        parts.append(((values,), _suffixes(cols)))
        want += "".join(",".join("%.17g" % c for c in row) + "\n" for row in values.tolist())
    assert published(tmp_path, "t.csv", (["h"], parts)) == want


def test_working_memory_does_not_grow_with_the_table(tmp_path):
    # the traced peak of publishing 20 blocks exceeds that of 2 blocks by
    # less than one block's workspace: no block's memory outlives it
    export._tables()
    workspace = sum(a.nbytes for a in _workspace(export._BLOCK_CELLS))

    def peak(blocks):
        times = np.arange(blocks * export._BLOCK_CELLS // 4) / 7.0
        table = (["a", "b", "c", "d"], [((times, -times, times / 3, 1.5 * times), _suffixes(4))])
        tracemalloc.start()
        try:
            publish({"t.csv": table}, tmp_path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2), peak(20)
    assert small > workspace and large - small < workspace


def test_each_distinct_suffix_list_is_laid_out_once(tmp_path, monkeypatch):
    # five parts with two suffix lists, as segments of two modes alternate
    keys = []
    monkeypatch.setattr(export, "_layout", lambda key: keys.append(key) or _layout(key))
    narrow, wide = _suffixes(2), _suffixes(3)
    parts = [((np.ones((4, 2 + k % 2)),), wide if k % 2 else narrow) for k in range(5)]
    publish({"t.csv": (["a", "b", "c"], parts)}, tmp_path)
    assert keys == [tuple(narrow), tuple(wide)]


@pytest.mark.parametrize("suffix", [b"\0", b",\0", b",7,\0,123,\n", b"\x01"])
def test_layout_rejects_a_suffix_holding_a_control_byte(suffix):
    # a NUL would be deleted with the unkept bytes, and the other control
    # bytes, but the newline, stand in for long suffixes
    with pytest.raises(ValueError, match="control byte"):
        _layout((b",", suffix))


def _reference_trajectory(traj):
    D = traj.max_dim if traj.segments else 0
    lines = [",".join(["t", "mode", "dim", "v_norm"] + [f"x_{i}" for i in range(D)])]
    for seg, mode, vnorms in zip(traj.segments, traj.segment_modes, traj.segment_vnorms):
        n = seg.states.shape[1]
        for t, v, x in zip(seg.times.tolist(), vnorms.tolist(), seg.states.tolist()):
            cells = ["%.17g" % t, str(int(mode)), str(n), "%.17g" % v]
            lines.append(",".join(cells + ["%.17g" % c for c in x] + [""] * (D - n)))
    return lines


def test_wide_padding_prints_like_percent(tmp_path):
    # rows of dimension 2 beside rows of dimension 100 carry 98 empty cells;
    # the padding goes in after formatting instead of into every cell's slot
    rng = np.random.default_rng(2026)
    segments = []
    for k, n in enumerate((2, 100, 2)):
        times = k + np.linspace(0.0, 1.0, 1500)
        segments.append(Segment(times, rng.standard_normal((1500, n)) * 10.0 ** rng.integers(-8, 8, (1500, n))))
    traj = Trajectory(tuple(segments), (0, 1, 0), [])
    want = _reference_trajectory(traj)
    assert published(tmp_path, "t.csv", trajectory_table(traj)) == "\n".join(want) + "\n"
    assert want[1].endswith("," * 98)


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


def _reference_errors(times, m_values, errors):
    return ["t,m,E"] + [
        "%.17g,%d,%.17g" % (t, m, e)
        for m, row in zip(m_values, errors) for t, e in zip(times, row)
    ]


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_csv_artifacts_print_like_percent(name, tmp_path, monkeypatch):
    # every table a command builds is published and compared with the
    # per-cell reference of the data it was built from
    references = {
        "trajectory_table": _reference_trajectory,
        "events_table": _reference_events,
        "outputs_table": _reference_outputs,
        "error_table": _reference_errors,
    }
    built = []

    def recording(builder, reference):
        def build(*data):
            table = builder(*data)
            built.append((table, reference(*data)))
            return table

        return build

    for builder, reference in references.items():
        monkeypatch.setattr(cli, builder, recording(getattr(export, builder), reference))
    scenario = load_scenario(scenario_path(name))
    checked = []
    for command in ("simulate", "embed", "approx", "reduce"):
        try:
            artifacts = cli.COMMANDS[command](scenario)
        except ConfigError:  # the scenario has no block for this command
            continue
        out = tmp_path / command
        out.mkdir()
        publish(artifacts, out)
        for file, table in artifacts.items():
            if file.endswith(".csv"):
                (lines,) = [lines for built_table, lines in built if built_table is table]
                assert (out / file).read_bytes().decode() == "\n".join(lines) + "\n", file
                checked.append(file)
    assert checked and len(checked) == len(built)


# --- the splice rule: suffixes too long for a slot stand in as one byte ----


@pytest.mark.parametrize("cols", [1, 2, 5])
def test_suffixes_of_any_length_print_like_percent(tmp_path, cols):
    # ",mode,dim," with 1- to 3-digit numbers after the first cell and
    # padding before the newline make suffixes of 1 to 16 bytes; parts of
    # 0, 1, block - 1, block and block + 1 rows, each with the cells that
    # "%" prints scattered in
    fallback = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310, 2.2250738585072014e-308]
    rng = np.random.default_rng(cols)
    block = export._BLOCK_CELLS // cols
    parts, want = [], "h\n"
    lengths = set()
    for rows, (mode, dim, pad) in zip(
        [0, 1, block - 1, block, block + 1],
        [(7, 2, 0), (12, 345, 2), (999, 100, 3), (5, 67, 15), (100, 4, 1)],
    ):
        suffixes = [b","] * (cols - 1) + [b"," * pad + b"\n"]
        if cols > 1:
            suffixes[0] = b",%d,%d," % (mode, dim)
        lengths |= {len(s) for s in suffixes}
        values = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-30, 30, (rows, cols))
        flat = values.reshape(-1)
        spots = rng.choice(flat.size, min(flat.size, len(fallback)), replace=False)
        flat[spots] = fallback[: len(spots)]
        parts.append(((values,), suffixes))
        for row in values.tolist():
            want += "".join("%.17g" % c + s.decode() for c, s in zip(row, suffixes))
    assert lengths >= {1, 3, 4, 16} | ({5, 9} if cols > 1 else set())
    got = published(tmp_path, "t.csv", (["h"], parts))
    assert got.splitlines(keepends=True) == want.splitlines(keepends=True)
