"""Deterministic CSV/JSON artifacts: table builders and their one writer.

A CSV table is ``(header, parts)``, each part ``(columns, suffixes)`` as
:func:`_write_csv` prints it; :func:`publish` writes every artifact of a
command.  Floats print with 17 significant digits; rows use LF newlines
regardless of platform, so equal inputs produce byte-identical files.
"""

from __future__ import annotations

import functools
import json
import os
from fractions import Fraction

import numpy as np

from .errors import NumericFailure

__all__ = [
    "error_table",
    "events_table",
    "json_text",
    "outputs_table",
    "publish",
    "trajectory_table",
]


#: Cells formatted and written per block.  A long trajectory's text never
#: sits in memory whole (joining all ~29k rows of a shipped run at once
#: raised peak RSS by about 9 MB), and a block's working arrays stay in a
#: core's cache (2 MB of L2 per core).  On the tables of the
#: trajectory-outputs benchmark, six-word slots, in one process with the
#: sizes interleaved (least of 30 passes, 2-core Xeon VM): 8192 cells took
#: about 180 ns per cell, 4096 and 12288 about 188, 16384 about 203; each
#: call also pays about 90 us whatever its size.
_BLOCK_CELLS = 8192

# The block formatter prints every cell as ``"%.17g" % x`` does.  A finite
# x with _LOW <= |x| <= _HIGH is scaled to y = |x| * 10^(16 - k) in
# [1e16, 1e17) as a double-double, by Dekker's exact product (Numer. Math.
# 18, 1971) with 10^j held as hi + lo.  The error is below 1e-14, so round(y)
# is the correctly rounded 17-digit integer unless y lies within _TIE of a
# half (an exact tie rounds to even).  Those cells, zeros, nan, inf and the
# cells outside the range are formatted by ``%`` itself.  The range keeps
# every table entry, product and split normal and finite.
_LOW, _HIGH = 1e-260, 1e290
_J0 = -277  # smallest power 16 - k the scaling asks for; the table is 10^±277
_TIE = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1
_EXP0 = 300  # offset of the exponent tables; every cell has |k| < 300

# Every cell owns a slot of six 8-byte words, followed by its column's
# suffix, such as "," or "\n":
#   word 0: "-0.000", then the first digit and "."
#   words 1-4: four 4-digit limbs, each digit followed by "."
#   word 5: "e", exponent sign, three exponent digits; the suffix fills its
#           last three bytes (byte 45 on), and a longer one stands in as
#           one byte there (see _layout)
# so digit i sits at byte 6 + 2i and its "." at 7 + 2i.  A keep-mask picked
# by (sign, layout, digit count) selects the cell's text; one compaction of
# the kept bytes gives the CSV rows.  Layouts 0..20 print fixed-point with
# decimal exponent X = layout - 4 (%g's -4 <= X < 17); 21 and 22 print
# d.ddde+XX and d.ddde+XXX.
_WORDS = 6
_DIGIT0, _EXP, _SUFFIX0 = 6, 40, 45
#: One-byte stand-ins for the suffixes too long for a slot: no cell's text
#: and no suffix holds a control byte other than the newline, and no table
#: has more distinct long suffixes in a row than there are stand-ins.
_STAND_INS = [bytes([c]) for c in range(1, 32) if c != ord("\n")]
_SCI2, _SCI3 = 21, 22
_LAYOUTS = 23


def _keep(sign: int, layout: int, nd: int) -> np.ndarray:
    """Which bytes of a slot print a cell of this sign, layout and count of
    significant digits."""
    keep = np.zeros(8 * _WORDS, dtype=bool)
    keep[0] = sign
    digit = _DIGIT0 + 2 * np.arange(17)
    if layout < _SCI2:
        X = layout - 4
        if X < 0:
            keep[1 : 2 - X] = True  # "0." and -X - 1 zeros
            keep[digit[:nd]] = True
        else:
            keep[digit[: max(nd, X + 1)]] = True
            keep[digit[X] + 1] = nd > X + 1
    else:
        keep[digit[:nd]] = True
        keep[_DIGIT0 + 1] = nd > 1
        keep[_EXP : _EXP + 2] = True
        keep[_EXP + (3 if layout == _SCI2 else 2) : _SUFFIX0] = True
    return keep


def _words(text: bytes) -> np.ndarray:
    return np.frombuffer(text, dtype=np.uint64)


@functools.cache
def _tables():
    """Lookup tables, built on first use: the rows (hi, hi_hi, hi_lo, lo) of
    10^j = hi + lo with hi split for Dekker's product; slot words for the
    first digit, each 4-digit limb and each exponent; trailing zeros per
    limb ("0000" has 4); the keep-mask offset of each exponent's layout; and
    the keep-masks as words, indexed by (sign, layout, digit count)."""
    hi, lo = [], []
    for j in range(_J0, -_J0 + 1):
        p = Fraction(10) ** j
        hi.append(float(p))
        lo.append(float(p - Fraction(hi[-1])))
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    powers = np.column_stack([hi, hi_hi, hi - hi_hi, lo])
    first = _words(b"".join(b"-0.000%d." % d for d in range(10)))
    fours = [b"%04d" % i for i in range(10000)]
    tz = np.array([4 - len(s.rstrip(b"0")) for s in fours])
    limbs = _words(b"".join(b"%c.%c.%c.%c." % tuple(s) for s in fours))
    exps = range(-_EXP0, _EXP0 + 1)
    layouts = [e + 4 if -4 <= e < 17 else _SCI2 if abs(e) < 100 else _SCI3 for e in exps]
    exps = _words(b"".join(b"e%+04d\0\0\0" % e for e in exps))
    keep = [_keep(s, lay, nd) for s in (0, 1) for lay in range(_LAYOUTS) for nd in range(18)]
    keep = np.array(keep).view(np.uint64)
    return powers, first, limbs, exps, tz, 18 * np.array(layouts), keep


def _scaled(x, k, powers):
    """y = x * 10^(16 - k) as the double-double (yh, yl), |error| < 1e-14."""
    hi, hi_hi, hi_lo, lo = powers.take(16 - _J0 - k, axis=0).T
    x_hi = _SPLIT * x
    x_hi -= x_hi - x
    x_lo = x - x_hi
    p = x * hi
    e = x_hi * hi_hi
    e -= p
    e += x_hi * hi_lo
    e += x_lo * hi_hi
    x_lo *= hi_lo
    e += x_lo
    e += x * lo
    yh = p + e
    p -= yh
    p += e
    return yh, p


def _below(yh, yl, bound):
    """yh + yl < bound, elementwise."""
    return (yh < bound) | ((yh == bound) & (yl < 0))


def _layout(suffixes: tuple) -> tuple:
    """How the slots of a row of cells end: ``(tail, splices)``.

    The splice rule: a suffix longer than the three bytes a slot has after
    its exponent is printed as a one-byte stand-in, and ``splices`` lists
    the ``(stand_in, suffix)`` pairs to substitute after the compaction.
    ``tail`` holds each column's last slot word as text and as keep-mask,
    shape (2, cols) of uint64.
    """
    start = _SUFFIX0 - 8 * (_WORDS - 1)  # the suffix's first byte in that word
    stand_ins = iter(_STAND_INS)
    splices, tail = {}, np.zeros((2, len(suffixes), 8), dtype=np.uint8)
    for c, s in enumerate(suffixes):
        if len(s) > 8 - start and s not in splices:
            splices[s] = next(stand_ins)
        s = splices.get(s, s)
        tail[0, c, start : start + len(s)] = np.frombuffer(s, dtype=np.uint8)
        tail[1, c, start : start + len(s)] = True
    return tail.view(np.uint64)[:, :, 0], [(stand_in, s) for s, stand_in in splices.items()]


def _format_rows(block: np.ndarray, layout: tuple) -> bytes:
    """The CSV text of a (rows, cols) float block, each cell printed as
    ``"%.17g" % x`` and followed by its column's suffix bytes.

    ``layout`` is :func:`_layout` of the column suffixes.  Every slot is
    six words wide: a suffix that does not fit prints as a stand-in byte,
    replaced once the kept bytes are compacted.
    """
    tail, splices = layout
    powers, first, limbs, exps, tz, base, keep = _tables()
    rows, cols = block.shape
    n = block.size
    v = block.reshape(-1)
    a = np.abs(v)
    direct = (a >= _LOW) & (a <= _HIGH)
    x = np.where(direct, a, 1.0)
    k = np.floor(np.log10(x)).astype(np.int64)
    yh, yl = _scaled(x, k, powers)
    # log10 may land one decade off near powers of ten: step k once, and
    # leave to ``%`` a cell that is still out of [1e16, 1e17)
    step = _below(yh, yl, 1e17).astype(np.int64) - 1 + _below(yh, yl, 1e16)
    if step.any():
        redo = np.flatnonzero(step)
        k[redo] -= step[redo]
        yh[redo], yl[redo] = _scaled(x[redo], k[redo], powers)
        direct[redo] &= ~_below(yh[redo], yl[redo], 1e16) & _below(yh[redo], yl[redo], 1e17)
    # yh >= 1e16 > 2**53 is an integer, so yl holds the fraction
    whole = np.floor(yl)
    frac = yl - whole
    direct &= np.abs(frac - 0.5) >= _TIE
    D = yh.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    D[~direct] = 10**16
    carry = D == 10**17
    D[carry] = 10**16
    k += carry

    limb = np.empty((n, 4), dtype=np.intp)
    top, rest = np.divmod(D, 10**16)
    limb[:, 0], rest = np.divmod(rest, 10**12)
    limb[:, 1], rest = np.divmod(rest, 10**8)
    limb[:, 2], limb[:, 3] = np.divmod(rest, 10**4)
    zeros = tz[limb[:, 3]]
    for i in (2, 1, 0):  # an all-zero limb: go on counting in the one before
        more = np.flatnonzero(zeros == 12 - 4 * i)
        zeros[more] += tz[limb[more, i]]
    index = np.signbit(v) * (_LAYOUTS * 18) + base[k + _EXP0] + (17 - zeros)

    buf = np.empty((n, _WORDS), dtype=np.uint64)
    buf[:, 0] = first[top]
    buf[:, 1 : _WORDS - 1] = limbs[limb]
    buf[:, _WORDS - 1] = exps[k + _EXP0]
    mask = keep.take(index, axis=0)
    buf.reshape(rows, cols, _WORDS)[:, :, _WORDS - 1] |= tail[0]
    mask.reshape(rows, cols, _WORDS)[:, :, _WORDS - 1] |= tail[1]
    text, kept = buf.view(np.uint8), mask.view(bool)
    for i in np.flatnonzero(~direct).tolist():
        cell = np.frombuffer(b"%.17g" % v[i], dtype=np.uint8)
        text[i, : cell.size] = cell
        kept[i, :_SUFFIX0] = False
        kept[i, : cell.size] = True
    out = text.reshape(-1).take(np.flatnonzero(kept)).tobytes()
    for stand_in, s in splices:
        out = out.replace(stand_in, s)
    return out


def _write_csv(fh, header: list, parts) -> None:
    """Write the header line, then each ``(columns, suffixes)`` part: arrays
    of equal length whose stacked columns :func:`_format_rows` prints, a
    block at a time.  Each distinct suffix list is laid out once."""
    fh.write(",".join(header).encode() + b"\n")
    layouts = {}
    for columns, suffixes in parts:
        columns = [np.asarray(c, dtype=float) for c in columns]
        key = tuple(suffixes)
        if key not in layouts:
            layouts[key] = _layout(key)
        step = max(1, _BLOCK_CELLS // len(suffixes))
        for k in range(0, len(columns[0]), step):
            block = np.column_stack([c[k : k + step] for c in columns])
            fh.write(_format_rows(block, layouts[key]))


def _suffixes(cols: int, last: bytes = b"\n") -> list:
    return [b","] * (cols - 1) + [last]


def trajectory_table(traj) -> tuple:
    """Rows: t, mode, dim, v_norm, x_0..x_{D-1}; short states padded with empties."""
    D = traj.max_dim
    header = ["t", "mode", "dim", "v_norm"] + [f"x_{i}" for i in range(D)]
    parts = []
    for seg, mode, vnorms in zip(traj.segments, traj.segment_modes, traj.segment_vnorms):
        n = seg.states.shape[1]
        suffixes = _suffixes(n + 2, b"," * (D - n) + b"\n")
        suffixes[0] = b",%d,%d," % (int(mode), n)
        parts.append(((seg.times, vnorms, seg.states), suffixes))
    return header, parts


def events_table(events) -> tuple:
    """Rows: t, pre_dim, post_dim, gap, amplitude."""
    # a whole number below 2**53 prints by %.17g as by str(int)
    columns = np.array(
        [(ev.time, ev.pre_dim, ev.post_dim, ev.gap, ev.amplitude) for ev in events], dtype=float
    ).reshape(-1, 5)
    return ["t", "pre_dim", "post_dim", "gap", "amplitude"], [((columns,), _suffixes(5))]


def outputs_table(traj) -> tuple:
    """Rows: t, y_0..y_{p-1}, for a trajectory with an output map."""
    outputs = traj.segment_outputs
    p = max(Y.shape[1] for Y in outputs)
    parts = [((seg.times, Y), _suffixes(1 + Y.shape[1])) for seg, Y in zip(traj.segments, outputs)]
    return ["t"] + [f"y_{i}" for i in range(p)], parts


def error_table(times, m_values, errors) -> tuple:
    """Rows: t, m, E of a reduction-error table, every time for each reduced
    dimension m in turn; ``errors[i]`` holds the errors of ``m_values[i]``."""
    times = np.asarray(times, dtype=float)
    ms = np.repeat(np.asarray(m_values, dtype=float), len(times))  # %.17g prints m as %d
    columns = (np.tile(times, len(m_values)), ms, np.asarray(errors, dtype=float).reshape(-1))
    return ["t", "m", "E"], [(columns, _suffixes(3))]


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


def json_text(obj, name: str) -> bytes:
    """``obj`` as indented JSON with sorted keys and a final newline.  A
    non-finite number, which JSON cannot hold, raises :class:`NumericFailure`
    naming the file ``name``."""
    try:
        text = json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        msg = f"{name} would hold a non-finite number"
        raise NumericFailure(msg, operation="write_json") from None
    return (text + "\n").encode()


def publish(artifacts: dict, out) -> None:
    """Write each artifact into the directory ``out``: a ``.json`` name's
    object as :func:`json_text`, any other name's ``(header, parts)`` table
    as CSV, streamed a block at a time.  Every JSON text is made first, so
    an object JSON cannot hold raises before any file is written."""
    texts = {name: json_text(obj, name)
             for name, obj in artifacts.items() if name.endswith(".json")}
    for name, artifact in artifacts.items():
        with open(os.path.join(out, name), "wb") as fh:
            if name in texts:
                fh.write(texts[name])
            else:
                _write_csv(fh, *artifact)
