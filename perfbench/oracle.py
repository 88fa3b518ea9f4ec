"""Independent checks of the artifacts each op writes.

Everything here is computed from the scenario file with numpy and scipy;
this module never imports the package under test.  Each ``check_<command>``
returns a list of failure messages, empty when every check holds.

References used:

* flows: ``scipy.linalg.expm`` of the augmented matrix
  ``[[A + B K, B u0], [0, 0]]`` per dwell interval, so the affine feedback
  laws of the shipped scenarios are propagated exactly;
* jumps and projections: block averages of the entry-replicated state;
* reductions: least-squares reduction through the same block-average
  projector, solved with ``numpy.linalg``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

#: Relative tolerance for states against the exact flow (RK4 at the shipped
#: steps lands within ~1e-11 of it).
STATE_RTOL = 1e-8
#: Relative tolerance for quantities computed from the written states.
ROW_RTOL = 1e-12
#: Relative and absolute tolerance for reduction errors and reduced models.
REDUCE_RTOL = 1e-7
REDUCE_ATOL = 1e-9
#: Largest equivalence gap ``embed`` may report, relative to the initial norm.
EMBED_GAP_RTOL = 1e-9
#: Rows spot-checked per reduction-error table.
SPOT_ROWS = 4

#: The shipped named drifts are linear; their matrices.
LINEAR_DRIFTS = {
    "ddp2_drift": [[0.0, 1.0], [2.0 / 3.0, 0.0]],
    "ddp3_drift": [[0.0, 1.0, -1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
}
#: The shipped feedback laws are affine, u = K x + u0.
AFFINE_FEEDBACKS = {
    "damp2": ([[-1.0, -1.0]], [0.0]),
    "damp3": ([[-1.0, -1.0, -3.0]], [0.0]),
    "steer_stage1": ([[-2.0, 0.0]], [-1.0]),
}


# ---------------------------------------------------------------- maths


def proj_matrix(n: int, m: int) -> np.ndarray:
    """The m x n map that replicates to the lcm dimension and averages blocks."""
    t = math.lcm(n, m)
    return np.repeat(np.eye(n), t // n, axis=0).reshape(m, t // m, n).mean(axis=1)


def vnorm(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x)) / math.sqrt(x.size)


def vdist(x, y) -> float:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    t = math.lcm(x.size, y.size)
    return vnorm(np.repeat(x, t // x.size) - np.repeat(y, t // y.size))


def _close(a, b, rtol, atol=0.0) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b), initial=0.0) <= atol + rtol * max(1.0, np.max(np.abs(b), initial=0.0)))


def _generator(spec: dict) -> np.ndarray:
    """Augmented matrix G with d/dt [x; 1] = G [x; 1] for one mode."""
    n = spec["dim"]
    A = np.asarray(spec["A"] if "A" in spec else LINEAR_DRIFTS[spec["drift"]], dtype=float)
    c = np.zeros(n)
    if "feedback" in spec:
        K, u0 = (np.asarray(v, dtype=float) for v in AFFINE_FEEDBACKS[spec["feedback"]])
        B = np.asarray(spec["B"], dtype=float).reshape(n, -1)
        A = A + B @ K
        c = B @ u0
    G = np.zeros((n + 1, n + 1))
    G[:n, :n] = A
    G[:n, n] = c
    return G


def schedule(raw: dict):
    """Dwell intervals (t0, t1, mode) of the scenario's switching signal."""
    sig, horizon = raw["signal"], float(raw["horizon"])
    n_modes = len(raw["modes"])
    initial = sig.get("initial_mode", 0)
    times = []
    if sig["kind"] == "fixed" and "dwell_pattern" in sig:
        t, k = 0.0, 0
        while True:
            t += float(sig["dwell_pattern"][k % len(sig["dwell_pattern"])])
            if t >= horizon:
                break
            times.append(t)
            k += 1
    elif sig["kind"] == "fixed":
        times = [float(t) for t in sig.get("switch_times", []) if float(t) < horizon]
    else:
        dmin, dmax = (float(b) for b in sig["dwell_bounds"])
        rng = np.random.default_rng(int(sig["seed"]))
        t = 0.0
        while True:
            t += float(rng.uniform(dmin, dmax))
            if t >= horizon:
                break
            times.append(t)
    if sig["kind"] == "fixed" and "modes" in sig:
        modes = [int(m) for m in sig["modes"]][: len(times)]
    else:
        modes = [(initial + 1 + k) % n_modes for k in range(len(times))]
    return list(zip([0.0] + times, times + [horizon], [initial] + modes))


def _jump(raw: dict, i: int, j: int) -> np.ndarray:
    dims = [m["dim"] for m in raw["modes"]]
    rule = raw.get("transitions", "nearest")
    if rule == "nearest":
        return proj_matrix(dims[i], dims[j])
    for entry in rule["explicit"]:
        if (entry["from"], entry["to"]) == (i, j):
            return np.asarray(entry["W"], dtype=float)
    raise KeyError(f"no transition {i}->{j}")


def exact_path(raw: dict):
    """Per dwell interval: (t0, t1, mode, state at t0, state at t1), exactly."""
    intervals = schedule(raw)
    modes = raw["modes"]
    x = np.asarray(raw["x0"], dtype=float)
    if x.size != modes[intervals[0][2]]["dim"]:
        x = proj_matrix(x.size, modes[intervals[0][2]]["dim"]) @ x
    path = []
    for k, (t0, t1, mi) in enumerate(intervals):
        n = modes[mi]["dim"]
        flow = scipy.linalg.expm(_generator(modes[mi]) * (t1 - t0))
        end = (flow @ np.append(x, 1.0))[:n]
        path.append((t0, t1, mi, x, end))
        if k + 1 < len(intervals):
            x = _jump(raw, mi, intervals[k + 1][2]) @ end
    return path


def _ctrb(A, B) -> np.ndarray:
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def _mode_AB(spec: dict):
    A = np.asarray(spec["A"], dtype=float)
    B = np.asarray(spec.get("B", np.zeros((spec["dim"], 0))), dtype=float)
    return A, B.reshape(spec["dim"], -1)


def reduced_drift(A: np.ndarray, m: int) -> np.ndarray:
    """Least-squares reduction of the drift onto dimension m."""
    n = A.shape[0]
    P = proj_matrix(n, m)
    if n >= m:
        return np.linalg.solve(P @ P.T, (P @ A @ P.T).T).T
    return P @ A @ np.linalg.solve(P.T @ P, P.T)


def reduction_error(A: np.ndarray, x0: np.ndarray, m: int, t: float) -> float:
    n = A.shape[0]
    x_t = scipy.linalg.expm(A * t) @ x0
    z_t = scipy.linalg.expm(reduced_drift(A, m) * t) @ (proj_matrix(n, m) @ x0)
    denom = vnorm(x_t)
    return math.nan if denom == 0.0 else vnorm(proj_matrix(m, n) @ z_t - x_t) / denom


def _times(spec) -> np.ndarray:
    if isinstance(spec, dict):
        return np.linspace(float(spec["from"]), float(spec["to"]), int(spec["count"]))
    return np.asarray([float(t) for t in spec])


# ---------------------------------------------------------------- files


def _read_rows(path: Path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        return header, [line.rstrip("\n").split(",") for line in fh]


def read_trajectory(path: Path):
    """(times, modes, dims, vnorms, states) with states NaN-padded to the widest."""
    header, rows = _read_rows(path)
    width = len(header) - 4
    states = np.full((len(rows), width), np.nan)
    for i, row in enumerate(rows):
        cells = [float(v) for v in row[4:] if v != ""]
        states[i, : len(cells)] = cells
    cols = list(zip(*(row[:4] for row in rows))) if rows else [(), (), (), ()]
    return (
        np.asarray(cols[0], dtype=float),
        np.asarray(cols[1], dtype=int),
        np.asarray(cols[2], dtype=int),
        np.asarray(cols[3], dtype=float),
        states,
    )


def _read_table(path: Path) -> np.ndarray:
    header, rows = _read_rows(path)
    return np.asarray(rows, dtype=float).reshape(len(rows), len(header))


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def digest(out_dir: Path) -> str:
    """sha256 over the sorted artifact names and bytes of one op's output."""
    blob = hashlib.sha256()
    for artifact in sorted(out_dir.iterdir()):
        blob.update(artifact.name.encode())
        blob.update(artifact.read_bytes())
    return blob.hexdigest()


def csv_rows(out_dir: Path) -> int:
    """Data rows (lines after the header) over every CSV artifact."""
    total = 0
    for path in out_dir.glob("*.csv"):
        with open(path, "rb") as fh:
            total += max(0, sum(1 for _ in fh) - 1)
    return total


# ---------------------------------------------------------------- checks


def _check_states(raw, times, dims, states, path, what) -> list:
    """Row states at every switch and at the end against the exact flow."""
    fails = []
    mode_dims = [m["dim"] for m in raw["modes"]]
    scale = max(1.0, float(np.max(np.abs(raw["x0"]))))

    def expect(i, want, label):
        got = states[i, : dims[i]]
        tol = STATE_RTOL * max(scale, float(np.max(np.abs(want))))
        if got.shape != want.shape or np.max(np.abs(got - want)) > tol:
            fails.append(
                f"{what}: {label} at t={float(times[i])!r} is {got.tolist()}, "
                f"exact flow gives {want.tolist()}"
            )

    if len(times) == 0:
        return [f"{what}: no rows"]
    expect(0, path[0][3], "initial state")
    for k, (t0, t1, mi, _, end) in enumerate(path):
        at = np.flatnonzero(np.abs(times - t1) <= 1e-9 * max(1.0, t1))
        if k + 1 < len(path):
            if at.size != 2:
                fails.append(f"{what}: switch at t={t1!r} appears in {at.size} rows, expected 2")
                continue
            expect(at[0], end, "pre-switch state")
            expect(at[1], path[k + 1][3], "post-switch state")
        elif at.size == 0 or at[-1] != len(times) - 1:
            fails.append(f"{what}: last row is not at the horizon t={t1!r}")
        else:
            expect(at[-1], end, "final state")
        if np.any(dims[(times > t0) & (times < t1)] != mode_dims[mi]):
            fails.append(f"{what}: rows inside [{t0}, {t1}] do not all have dimension {mode_dims[mi]}")
    return fails


def check_simulate(raw: dict, out: Path, rng=None) -> list:
    times, modes, dims, vn, states = read_trajectory(out / "trajectory.csv")
    path = exact_path(raw)
    fails = _check_states(raw, times, dims, states, path, "trajectory.csv")
    want_vn = np.sqrt(np.nansum(states**2, axis=1) / dims)
    if not _close(vn, want_vn, ROW_RTOL):
        fails.append("trajectory.csv: v_norm column differs from ||x|| / sqrt(dim)")

    if "output" in raw:
        table = _read_table(out / "outputs.csv")
        spec = raw["output"]
        q = 6 if "h" in spec else len(spec["H"][0])
        want = np.empty((len(times), table.shape[1] - 1))
        for d in np.unique(dims):
            rows = dims == d
            w = states[rows, :d] @ proj_matrix(d, q).T
            if "h" in spec:  # ddp_output6: sum of entries plus w0 * w1
                want[rows, 0] = w.sum(axis=1) + w[:, 0] * w[:, 1]
            else:
                want[rows] = w @ np.asarray(spec["H"], dtype=float).T
        if table.shape[0] != len(times) or not _close(table[:, 0], times, 0.0):
            fails.append("outputs.csv: rows do not match trajectory.csv times")
        elif not _close(table[:, 1:], want, 1e-10):
            fails.append("outputs.csv: outputs differ from H applied to the projected state")

    events = _read_table(out / "events.csv")
    switches = [(t1, end, path[k + 1][3]) for k, (_, t1, _, _, end) in enumerate(path[:-1])]
    start_jump = len(raw["x0"]) != path[0][3].size
    if events.shape[0] != len(switches) + start_jump:
        fails.append(f"events.csv: {events.shape[0]} events, expected {len(switches) + start_jump}")
    else:
        rows = events[start_jump:]
        want = np.asarray(
            [[t, pre.size, post.size, vdist(pre, post)] for t, pre, post in switches]
        ).reshape(-1, 4)
        if not _close(rows[:, :3], want[:, :3], 1e-12):
            fails.append("events.csv: event times or dimensions differ from the signal")
        elif not _close(rows[:, 3], want[:, 3], STATE_RTOL * max(1.0, float(np.max(np.abs(raw["x0"]))))):
            fails.append("events.csv: gaps differ from the exact jump distances")
    return fails


def check_embed(raw: dict, out: Path, rng=None) -> list:
    fails = []
    scale = max(1.0, float(np.max(np.abs(raw["x0"]))))
    report = _read_json(out / "equivalence_report.json")
    dump = _read_json(out / "embedded_system.json")
    times, _, dims, _, states = read_trajectory(out / "embedded_trajectory.csv")
    common = math.lcm(*(m["dim"] for m in raw["modes"]))
    if dump["common_dim"] != common:
        fails.append(f"embedded_system.json: common_dim {dump['common_dim']}, expected {common}")
    if report["samples_compared"] != len(times):
        fails.append(
            f"equivalence_report.json: samples_compared {report['samples_compared']} "
            f"!= {len(times)} rows"
        )
    if not report["max_equivalence_gap"] <= EMBED_GAP_RTOL * max(1.0, vnorm(raw["x0"])):
        fails.append(
            f"equivalence_report.json: max_equivalence_gap {report['max_equivalence_gap']!r} "
            "is not tiny"
        )
    if len(report["events"]) != len(schedule(raw)) - 1:
        fails.append("equivalence_report.json: event count differs from the signal")
    final = exact_path(raw)[-1][4]
    if len(times) and (
        set(dims.tolist()) != {common} or vdist(states[-1], final) > STATE_RTOL * scale
    ):
        fails.append("embedded_trajectory.csv: final state is not equivalent to the exact flow")
    return fails


def check_dwell(raw: dict, out: Path, rng=None) -> list:
    fails = []
    report = _read_json(out / "dwell_report.json")
    block = raw.get("experiment", {}).get("dwell", {})
    gamma = float(block.get("gamma", 0.03))
    mats = [np.asarray(m["A"], dtype=float) for m in raw["modes"]]
    hurwitz = {m["label"]: bool(np.linalg.eigvals(A).real.max() < 0) for m, A in zip(raw["modes"], mats)}
    if report["hurwitz"] != hurwitz:
        fails.append(f"dwell_report.json: hurwitz flags {report['hurwitz']}, expected {hurwitz}")
    if block.get("lipschitz") is not None:
        lip = float(block["lipschitz"])
    else:
        count = len(raw["modes"])
        lip = max(
            (np.linalg.norm(W, 2) * math.sqrt(W.shape[1] / W.shape[0])
             for W in (_jump(raw, i, j) for i in range(count) for j in range(count) if i != j)),
            default=1.0,
        )
    delta = report["dwell"]
    if delta is None:
        if all(hurwitz.values()):
            fails.append("dwell_report.json: no dwell reported for Hurwitz modes")
        return fails

    def factor(d):
        return lip * max(np.linalg.norm(scipy.linalg.expm(A * d), 2) for A in mats)

    if not factor(delta) <= 1.0 - gamma:
        fails.append(f"dwell_report.json: no contraction at the returned dwell {delta!r}")
    if factor(delta - 1e-3) <= 1.0 - gamma:
        fails.append(f"dwell_report.json: dwell {delta!r} is not minimal to 1e-3")
    return fails


def _spot_check(table: np.ndarray, A, x0, rng, label) -> list:
    fails = []
    for i in rng.choice(table.shape[0], size=min(SPOT_ROWS, table.shape[0]), replace=False):
        t, m, e = table[i]
        want = reduction_error(A, x0, int(m), t)
        both_nan = math.isnan(want) and math.isnan(e)
        if not both_nan and not abs(e - want) <= REDUCE_ATOL + REDUCE_RTOL * abs(want):
            fails.append(f"{label}: row {i} (t={t!r}, m={int(m)}) has E={e!r}, reference {want!r}")
    return fails


def check_approx(raw: dict, out: Path, rng) -> list:
    fails = []
    for case in raw["experiment"]["approx"]["cases"]:
        label = f"error_{case['label']}.csv"
        table = _read_table(out / label)
        times = _times(case["times"])
        if table.shape[0] != len(case["m_values"]) * times.size:
            fails.append(f"{label}: {table.shape[0]} rows, expected {len(case['m_values']) * times.size}")
            continue
        A, x0 = (np.asarray(case[k], dtype=float) for k in ("A", "x0"))
        fails += _spot_check(table, A, x0, rng, label)
    return fails


def check_reduce(raw: dict, out: Path, rng) -> list:
    fails = []
    block = raw["experiment"]["reduce"]
    A = np.asarray(block["A"], dtype=float)
    report = _read_json(out / "reduced_models.json")
    if report["n"] != A.shape[0] or [m["m"] for m in report["models"]] != list(block["m_values"]):
        fails.append("reduced_models.json: dimensions differ from the request")
    for model in report["models"]:
        if not _close(model["A_pi"], reduced_drift(A, model["m"]), REDUCE_RTOL, REDUCE_ATOL):
            fails.append(f"reduced_models.json: A_pi for m={model['m']} differs from the reference")
        if ("B" not in block) != (model["B_pi"] is None) or ("C" not in block) != (model["C_pi"] is None):
            fails.append(f"reduced_models.json: B_pi/C_pi presence wrong for m={model['m']}")
    if "x0" in block and "times" in block:
        table = _read_table(out / "reduce_error.csv")
        fails += _spot_check(table, A, np.asarray(block["x0"], dtype=float), rng, "reduce_error.csv")
    return fails


def check_obs(raw: dict, out: Path, rng=None) -> list:
    H = np.asarray(raw["output"]["H"], dtype=float).reshape(-1, len(raw["output"]["H"][0]))
    want = []
    for m in raw["modes"]:
        A = np.asarray(m["A"], dtype=float)
        C = H @ proj_matrix(m["dim"], H.shape[1])
        rank = int(np.linalg.matrix_rank(_ctrb(A.T, C.T)))
        want.append(
            {"label": m["label"], "dim": m["dim"], "obs_rank": rank,
             "fully_observable": rank == m["dim"]}
        )
    got = _read_json(out / "obs_report.json")
    return [] if got == want else [f"obs_report.json: {got}, expected {want}"]


def check_ctrb(raw: dict, out: Path, rng=None) -> list:
    want = []
    for m in raw["modes"]:
        rank = int(np.linalg.matrix_rank(_ctrb(*_mode_AB(m))))
        want.append(
            {"label": m["label"], "dim": m["dim"], "kalman_rank": rank,
             "fully_controllable": rank == m["dim"]}
        )
    got = _read_json(out / "ctrb_report.json")
    return [] if got == want else [f"ctrb_report.json: {got}, expected {want}"]


def _transverse(spec: dict, other_dim: int) -> bool:
    """Is the mode controllable transverse to its intersection with ``other_dim``?"""
    A, B = _mode_AB(spec)
    n, g = spec["dim"], math.gcd(spec["dim"], other_dim)
    Q = np.linalg.qr(np.repeat(np.eye(g), n // g, axis=0))[0]
    return int(np.linalg.matrix_rank((np.eye(n) - Q @ Q.T) @ _ctrb(A, B))) == n - g


def check_chain(raw: dict, out: Path, rng=None) -> list:
    modes = raw["modes"]
    block = raw["experiment"]["chain"]
    start, target = int(block.get("start", 0)), int(block.get("target", len(modes) - 1))
    chain = None
    if np.linalg.matrix_rank(_ctrb(*_mode_AB(modes[target]))) == modes[target]["dim"]:
        parents, frontier = {start: None}, [start]
        while frontier and target not in parents:
            nxt = []
            for i in frontier:
                for j in range(len(modes)):
                    if j not in parents and j != i and _transverse(modes[i], modes[j]["dim"]):
                        parents[j] = i
                        nxt.append(j)
            frontier = nxt
        if target in parents:
            chain = [target]
            while parents[chain[-1]] is not None:
                chain.append(parents[chain[-1]])
            chain.reverse()
    want = {
        "start": start,
        "target": target,
        "chain": chain,
        "labels": None if chain is None else [modes[i]["label"] for i in chain],
    }
    got = _read_json(out / "chain_report.json")
    return [] if got == want else [f"chain_report.json: {got}, expected {want}"]


def check_lattice(raw: dict, out: Path, rng=None) -> list:
    dims = raw.get("experiment", {}).get("lattice", {}).get("dims", [m["dim"] for m in raw["modes"]])
    nodes = {int(d) for d in dims}
    while True:
        grown = nodes | {f(a, b) for a in nodes for b in nodes for f in (math.gcd, math.lcm)}
        if grown == nodes:
            break
        nodes = grown
    edges = sorted(
        [a, b] for a in nodes for b in nodes
        if a != b and b % a == 0 and not any(c not in (a, b) and c % a == 0 and b % c == 0 for c in nodes)
    )
    want = {"generators": sorted(int(d) for d in dims), "nodes": sorted(nodes), "edges": edges}
    got = _read_json(out / "lattice.json")
    return [] if got == want else [f"lattice.json: {got}, expected {want}"]


def _canonical(x) -> list:
    """Minimal exactly-replicated representative (inputs here are exact)."""
    x = np.asarray(x, dtype=float)
    for d in range(1, x.size):
        if x.size % d == 0:
            blocks = x.reshape(d, x.size // d)
            if (blocks == blocks[:, :1]).all():
                return _canonical(blocks[:, 0])
    return x.tolist()


def check_reduce_vec(raw: dict, out: Path, rng=None) -> list:
    fails = []
    got = _read_json(out / "vector_ops.json")
    ops = raw["experiment"]["vectors"]["ops"]
    if len(got) != len(ops):
        return [f"vector_ops.json: {len(got)} results for {len(ops)} ops"]
    for k, (op, res) in enumerate(zip(ops, got)):
        kind = op["op"]
        if kind == "canonicalize":
            want = _canonical(op["x"])
            ok = res["dim"] == len(want) and _close(res["result"], want, ROW_RTOL)
        elif kind == "distance":
            want = vdist(op["x"], op["y"])
            ok = _close(res["result"], want, ROW_RTOL)
        elif kind == "norm":
            want = vnorm(op["x"])
            ok = _close(res["result"], want, ROW_RTOL)
        else:
            x = np.asarray(op["x"], dtype=float)
            want = (proj_matrix(x.size, int(op["m"])) @ x).tolist()
            ok = _close(res["result"], want, ROW_RTOL)
        if not ok or res["op"] != kind:
            fails.append(f"vector_ops.json: op {k} ({kind}) gave {res['result']}, expected {want}")
    return fails


CHECKS = {
    "simulate": check_simulate,
    "embed": check_embed,
    "dwell": check_dwell,
    "approx": check_approx,
    "reduce": check_reduce,
    "obs": check_obs,
    "ctrb": check_ctrb,
    "chain": check_chain,
    "lattice": check_lattice,
    "reduce-vec": check_reduce_vec,
}


def check(command: str, raw: dict, out: Path, rng) -> list:
    """Failure messages for one op's artifacts; a missing or malformed file fails."""
    try:
        return CHECKS[command](raw, out, rng)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{command}: artifacts unreadable: {type(exc).__name__}: {exc}"]
