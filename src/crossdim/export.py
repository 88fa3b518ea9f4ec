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
#: raised peak RSS by about 9 MB), and one block's workspace, about 1.1 MB
#: at 8192 cells, stays in a core's cache (2 MB of L2 per core).  Writing
#: the tables of the simulate and embed commands of the trajectory-outputs
#: and feedback-rk4 benchmarks, in one process with the sizes interleaved
#: (least of 10 passes, 2-core Xeon VM): 8192 and 10240 cells took about
#: 131 ns per cell, 4096 and 6144 about 137, 2048 152, 12288 141 and 16384
#: 146.  In perfbench's trajectory-outputs loop 4096 lowered peak RSS from
#: 70.3 to 68.8 MB but raised the pass time by 9% (3 pairs).
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
# by (sign, layout, digit count), 0xFF per kept byte, zeroes the rest of the
# slot, and deleting every NUL byte leaves the CSV rows.  That rests on one
# invariant: no cell's text, suffix or stand-in holds a NUL (_layout checks
# the suffixes).  Layouts 0..20 print fixed-point with decimal exponent
# X = layout - 4 (%g's -4 <= X < 17); 21 and 22 print d.ddde+XX and
# d.ddde+XXX.
_WORDS = 6
_DIGIT0, _EXP, _SUFFIX0 = 6, 40, 45
#: One-byte stand-ins for the suffixes too long for a slot: no cell's text
#: and no suffix holds a control byte other than the newline, and no table
#: has more distinct long suffixes in a row than there are stand-ins.
_STAND_INS = [bytes([c]) for c in range(1, 32) if c != ord("\n")]
_CONTROL = bytes(range(32)).replace(b"\n", b"")
_SCI2, _SCI3 = 21, 22
_LAYOUTS = 23


def _keep(sign: int, layout: int, nd: int) -> np.ndarray:
    """Which bytes of a slot print a cell of this sign, layout and count of
    significant digits; the suffix bytes are always kept."""
    keep = np.zeros(8 * _WORDS, dtype=bool)
    keep[0] = sign
    keep[_SUFFIX0:] = True
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


def _power(j: int) -> tuple:
    """10^j as hi + lo: hi the double nearest 10^j, lo the double nearest
    10^j - hi.  Each is one correctly rounded division of exact integers."""
    num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


@functools.cache
def _tables():
    """Lookup tables, built on first use: the rows (hi, hi_hi, hi_lo, lo) of
    10^j = hi + lo with hi split for Dekker's product; slot words for the
    first digit, each 4-digit limb and each exponent; trailing zeros per
    limb ("0000" has 4); the keep-mask offset of each exponent's layout; and
    the keep-masks as words, indexed by (sign, layout, digit count)."""
    hi, lo = np.array([_power(j) for j in range(_J0, -_J0 + 1)]).T
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    powers = np.array([hi, hi_hi, hi - hi_hi, lo])
    first = _words(b"".join(b"-0.000%d." % d for d in range(10)))
    fours = [b"%04d" % i for i in range(10000)]
    tz = np.array([4 - len(s.rstrip(b"0")) for s in fours])
    limbs = _words(b"".join(b"%c.%c.%c.%c." % tuple(s) for s in fours))
    exps = range(-_EXP0, _EXP0 + 1)
    layouts = [e + 4 if -4 <= e < 17 else _SCI2 if abs(e) < 100 else _SCI3 for e in exps]
    exps = _words(b"".join(b"e%+04d\0\0\0" % e for e in exps))
    keep = [_keep(s, lay, nd) for s in (0, 1) for lay in range(_LAYOUTS) for nd in range(18)]
    keep = (np.array(keep, dtype=np.uint8) * 0xFF).view(np.uint64)
    return powers, first, limbs, exps, tz, 18 * np.array(layouts), keep


def _scaled(x, k, powers):
    """y = x * 10^(16 - k) as the double-double (yh, yl), |error| < 1e-14."""
    j = 16 - _J0 - k
    hi, hi_hi, hi_lo, lo = (row.take(j) for row in powers)
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
    ``tail`` holds each column's last slot word, shape (cols,) of uint64.
    A suffix may hold no control byte but the newline: a NUL would be
    deleted with the unkept bytes, and the others stand in for suffixes.
    """
    start = _SUFFIX0 - 8 * (_WORDS - 1)  # the suffix's first byte in that word
    stand_ins = iter(_STAND_INS)
    splices, tail = {}, np.zeros((len(suffixes), 8), dtype=np.uint8)
    for c, s in enumerate(suffixes):
        if s.translate(None, _CONTROL) != s:
            raise ValueError(f"suffix {s!r} holds a control byte other than the newline")
        if len(s) > 8 - start and s not in splices:
            splices[s] = next(stand_ins)
        s = splices.get(s, s)
        tail[c, start : start + len(s)] = np.frombuffer(s, dtype=np.uint8)
    return tail.view(np.uint64)[:, 0], [(stand_in, s) for s, stand_in in splices.items()]


def _workspace(cells: int) -> tuple:
    """The flat arrays every block of up to ``cells`` cells is formatted in:
    the float cells, the slot words word-major, the slots and the 4-digit
    limbs.  A block of n cells uses the first n, 6n, 6n and 4n entries, so
    each of its arrays is contiguous."""
    return (np.empty(cells), np.empty(_WORDS * cells, dtype=np.uint64),
            np.empty(_WORDS * cells, dtype=np.uint64), np.empty(4 * cells, dtype=np.int64))


def _format_rows(block: np.ndarray, layout: tuple, work: tuple | None = None) -> bytes:
    """The CSV text of a (rows, cols) float block, each cell printed as
    ``"%.17g" % x`` and followed by its column's suffix bytes.

    ``layout`` is :func:`_layout` of the column suffixes, and ``work`` a
    :func:`_workspace` of at least ``block.size`` cells (a fresh one by
    default).  Every slot is six words wide: a suffix that does not fit
    prints as a stand-in byte, replaced once the NUL bytes are deleted.
    """
    tail, splices = layout
    powers, first, limbs, exps, tz, base, keep = _tables()
    rows, cols = block.shape
    n = block.size
    _, words, slots, limb = work if work is not None else _workspace(n)
    words = words[: _WORDS * n].reshape(_WORDS, n)
    slots = slots[: _WORDS * n].reshape(n, _WORDS)
    limb = limb[: 4 * n].reshape(4, n)
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
    k += _EXP0  # from here on, k indexes the exponent tables

    # the first digit and four 4-digit limbs of D; numpy divides by a
    # Python int through multiply-and-shift, not the divide instruction
    hi = D // 10**8
    lo = D - hi * 10**8
    top = hi // 10**8
    hi -= top * 10**8
    np.floor_divide(hi, 10**4, out=limb[0])
    np.floor_divide(lo, 10**4, out=limb[2])
    np.subtract(hi, limb[0] * 10**4, out=limb[1])
    np.subtract(lo, limb[2] * 10**4, out=limb[3])
    zeros = tz.take(limb[3])
    for i in (2, 1, 0):  # an all-zero limb: go on counting in the one before
        more = np.flatnonzero(zeros == 12 - 4 * i)
        zeros[more] += tz.take(limb[i].take(more))
    index = np.signbit(v) * (_LAYOUTS * 18) + base.take(k) + (17 - zeros)

    # every index is in range: mode="clip" lets take write straight into out
    first.take(top, out=words[0], mode="clip")
    limbs.take(limb, out=words[1 : _WORDS - 1], mode="clip")
    exps.take(k, out=words[_WORDS - 1], mode="clip")
    words[_WORDS - 1].reshape(rows, cols)[:] |= tail
    keep.take(index, axis=0, out=slots, mode="clip")
    slots &= words.T
    text = slots.view(np.uint8)
    for i in np.flatnonzero(~direct).tolist():
        cell = b"%.17g" % v[i]
        text[i, : len(cell)] = np.frombuffer(cell, dtype=np.uint8)
        text[i, len(cell) : _SUFFIX0] = 0
    out = slots.tobytes().translate(None, b"\0")
    for stand_in, s in splices:
        out = out.replace(stand_in, s)
    return out


def _write_csv(fh, header: list, parts) -> None:
    """Write the header line, then each ``(columns, suffixes)`` part: arrays
    of equal length whose stacked columns :func:`_format_rows` prints, a
    block at a time.  Each distinct suffix list is laid out once, and one
    workspace, sized to the largest block, serves every block."""
    fh.write(",".join(header).encode() + b"\n")
    blocked = []  # (2-D columns, suffixes, rows per block) of each part
    for columns, suffixes in parts:
        columns = [np.asarray(c, dtype=float) for c in columns]
        columns = [c[:, None] if c.ndim == 1 else c for c in columns]
        blocked.append((columns, tuple(suffixes), max(1, _BLOCK_CELLS // len(suffixes))))
    layouts = {key: _layout(key) for _, key, _ in blocked}
    # the tables live as long as the process: built above the workspace,
    # they would keep its freed heap pages resident
    _tables()
    work = _workspace(max([min(len(c[0]), step) * len(key) for c, key, step in blocked], default=0))
    for columns, key, step in blocked:
        rows = len(columns[0])
        for k in range(0, rows, step):
            block = work[0][: min(step, rows - k) * len(key)].reshape(-1, len(key))
            np.concatenate([c[k : k + step] for c in columns], axis=1, out=block)
            fh.write(_format_rows(block, layouts[key], work))


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
