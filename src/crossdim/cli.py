"""Scenario-driven command line front end.

    omega <command> --config <path> --out <dir> [--seed N] [--step H]

Commands: simulate, embed, dwell, ctrb, obs, chain, reduce, approx,
reduce-vec, lattice.  Exit codes: 0 success, 2 validation error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import analysis
from .cdspace import build_lattice, canonicalize, project, v_dist, v_norm, v_norm_rows
from .config import (
    MAX_SAMPLES,
    Scenario,
    _as_int,
    _as_matrix,
    _as_number,
    _as_vector,
    _require,
    load_scenario,
)
from .dkstp import bridge
from .dynamics import closed_loop_drift, dwell_bound, embed_common, simulate
from .errors import ConfigError, NumericFailure
from .export import (
    write_error_csv,
    write_events_csv,
    write_json,
    write_outputs_csv,
    write_trajectory_csv,
)


def _experiment_block(scenario: Scenario, key: str, default=None) -> dict:
    """The ``experiment.<key>`` object; a block without a default is required."""
    block = scenario.experiment.get(key, default)
    if block is None:
        raise ConfigError(f"experiment.{key}: required by this command but missing")
    if not isinstance(block, dict):
        raise ConfigError(f"experiment.{key}: expected an object")
    return block


def cmd_simulate(scenario: Scenario, out: str) -> int:
    traj = simulate(
        scenario.system,
        scenario.signal,
        scenario.x0,
        scenario.step,
        disturbance=scenario.disturbance,
    )
    write_trajectory_csv(traj, os.path.join(out, "trajectory.csv"))
    write_events_csv(traj.events, os.path.join(out, "events.csv"))
    if traj.output_map is not None:
        write_outputs_csv(traj, os.path.join(out, "outputs.csv"))
    return 0


def _segment_gap(A: np.ndarray, B: np.ndarray) -> float:
    """Largest ``v_dist`` between paired rows of two state arrays, via their lcm lift."""
    t = math.lcm(A.shape[1], B.shape[1])
    diff = np.repeat(A, t // A.shape[1], axis=1) - np.repeat(B, t // B.shape[1], axis=1)
    return float(v_norm_rows(diff).max())


def cmd_embed(scenario: Scenario, out: str) -> int:
    embedded = embed_common(scenario.system)
    common_dim = embedded.modes[0].dim
    original = simulate(
        scenario.system, scenario.signal, scenario.x0, scenario.step,
        disturbance=scenario.disturbance,
    )
    lifted_x0 = project(scenario.x0, common_dim)
    mirrored = simulate(
        embedded, scenario.signal, lifted_x0, scenario.step,
        disturbance=scenario.disturbance,
    )
    gap = max(
        _segment_gap(a.states, b.states)
        for a, b in zip(original.segments, mirrored.segments)
    )
    dump = {
        "common_dim": common_dim,
        "modes": [
            {
                "label": m.label,
                "dim": m.dim,
                "linear": m.is_linear,
                "A": m.drift if m.is_linear else None,
            }
            for m in embedded.modes
        ],
        "transitions": [
            {"from": i, "to": j, "W": tm.matrix, "lipschitz": tm.lipschitz}
            for (i, j), tm in sorted(embedded.transitions.items())
        ]
        if isinstance(embedded.transitions, dict)
        else "nearest",
    }
    report = {
        "max_equivalence_gap": gap,
        "samples_compared": len(original.times),
        "events": [
            {"t": ev.time, "gap": ev.gap, "amplitude": ev.amplitude}
            for ev in mirrored.events
        ],
    }
    write_json(dump, os.path.join(out, "embedded_system.json"))
    write_json(report, os.path.join(out, "equivalence_report.json"))
    write_trajectory_csv(mirrored, os.path.join(out, "embedded_trajectory.csv"))
    return 0


def cmd_dwell(scenario: Scenario, out: str) -> int:
    path = "experiment.dwell"
    block = _experiment_block(scenario, "dwell", {})
    gamma = _as_number(block.get("gamma", 0.03), f"{path}.gamma")
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"{path}.gamma: must lie in (0, 1)")
    lipschitz = block.get("lipschitz")
    if lipschitz is not None:
        lipschitz = _as_number(lipschitz, f"{path}.lipschitz", positive=True)
    delta = dwell_bound(scenario.system, gamma, lipschitz=lipschitz)
    hurwitz = {
        m.label: bool(np.linalg.eigvals(closed_loop_drift(m)).real.max() < 0)
        for m in scenario.system.modes
    }
    write_json(
        {
            "gamma": gamma,
            "lipschitz_override": lipschitz,
            "dwell": delta,
            "hurwitz": hurwitz,
        },
        os.path.join(out, "dwell_report.json"),
    )
    return 0


def cmd_ctrb(scenario: Scenario, out: str) -> int:
    reports = []
    for m in scenario.system.modes:
        rep = analysis.controllability_report(m)
        reports.append(
            {
                "label": rep.label,
                "dim": rep.dim,
                "kalman_rank": rep.kalman_rank,
                "fully_controllable": rep.fully_controllable,
            }
        )
    write_json(reports, os.path.join(out, "ctrb_report.json"))
    return 0


def cmd_obs(scenario: Scenario, out: str) -> int:
    output = scenario.system.output
    if output is None or output.matrix is None:
        raise ConfigError("output.H: the obs command needs a linear output map")
    reports = []
    for m in scenario.system.modes:
        if not m.is_linear:
            raise ConfigError(f"mode {m.label!r}: obs command needs linear modes")
        C = output.matrix @ bridge(output.q, m.dim)
        rank = analysis.obs_rank(m.drift, C)
        reports.append(
            {
                "label": m.label,
                "dim": m.dim,
                "obs_rank": rank,
                "fully_observable": rank == m.dim,
            }
        )
    write_json(reports, os.path.join(out, "obs_report.json"))
    return 0


def _mode_index(value, path: str, count: int) -> int:
    if not 0 <= _as_int(value, path) < count:
        raise ConfigError(f"{path}: must be a mode index in [0, {count})")
    return value


def cmd_chain(scenario: Scenario, out: str) -> int:
    path = "experiment.chain"
    block = _experiment_block(scenario, "chain")
    count = len(scenario.system.modes)
    start = _mode_index(block.get("start", 0), f"{path}.start", count)
    target = _mode_index(block.get("target", count - 1), f"{path}.target", count)
    chain = analysis.reachability_chain(scenario.system, start, target)
    write_json(
        {
            "start": start,
            "target": target,
            "chain": chain,
            "labels": None
            if chain is None
            else [scenario.system.modes[i].label for i in chain],
        },
        os.path.join(out, "chain_report.json"),
    )
    return 0


def _case_times(block: dict, path: str) -> np.ndarray:
    times = _require(block, "times", path)
    path = f"{path}.times"
    if isinstance(times, dict):
        count = _as_int(_require(times, "count", path), f"{path}.count")
        if count < 0:
            raise ConfigError(f"{path}.count: must be nonnegative")
        if count > MAX_SAMPLES:
            raise ConfigError(
                f"{path}.count: {count} samples exceeds the budget of {MAX_SAMPLES}"
            )
        return np.linspace(
            _as_number(_require(times, "from", path), f"{path}.from"),
            _as_number(_require(times, "to", path), f"{path}.to"),
            count,
        )
    if not isinstance(times, list):
        raise ConfigError(f"{path}: expected a list or an object with from, to, count")
    return np.asarray([_as_number(t, f"{path}[{k}]") for k, t in enumerate(times)])


def _dimensions(values, path: str) -> list:
    """A nonempty list of positive integers (reduced dimensions, lattice dims)."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{path}: expected a nonempty list")
    for k, d in enumerate(values):
        if _as_int(d, f"{path}[{k}]") < 1:
            raise ConfigError(f"{path}[{k}]: must be >= 1")
    return values


def _m_values(block: dict, path: str) -> list:
    return _dimensions(_require(block, "m_values", path), f"{path}.m_values")


def _square_matrix(block: dict, key: str, path: str) -> np.ndarray:
    M = _as_matrix(_require(block, key, path), None, None, f"{path}.{key}")
    if M.shape[0] != M.shape[1]:
        raise ConfigError(f"{path}.{key}: expected a square matrix, got {M.shape}")
    return M


def _error_rows(A, x0, m_values, times) -> list:
    """(t, m, E) rows of the reduction error for each reduced dimension m."""
    rows = []
    for m in m_values:
        series = analysis.approx_error(A, x0, m, times)
        rows.extend((t, m, e) for t, e in zip(series.times, series.values))
    return rows


def cmd_approx(scenario: Scenario, out: str) -> int:
    cases = _experiment_block(scenario, "approx").get("cases")
    if not isinstance(cases, list) or not cases:
        raise ConfigError("experiment.approx.cases: expected a nonempty list")
    for k, case in enumerate(cases):
        path = f"experiment.approx.cases[{k}]"
        if not isinstance(case, dict):
            raise ConfigError(f"{path}: expected an object")
        label = _require(case, "label", path)
        A = _square_matrix(case, "A", path)
        x0 = _as_vector(_require(case, "x0", path), f"{path}.x0", len(A))
        rows = _error_rows(A, x0, _m_values(case, path), _case_times(case, path))
        write_error_csv(rows, os.path.join(out, f"error_{label}.csv"))
    return 0


def cmd_reduce(scenario: Scenario, out: str) -> int:
    path = "experiment.reduce"
    block = _experiment_block(scenario, "reduce")
    A = _square_matrix(block, "A", path)
    n = len(A)
    m_values = _m_values(block, path)
    B = None if "B" not in block else _as_matrix(block["B"], n, None, f"{path}.B", "column")
    C = None if "C" not in block else _as_matrix(block["C"], None, n, f"{path}.C", "row")
    models = []
    for m in m_values:
        red = analysis.reduce_model(A, B, C, m)
        models.append(
            {
                "m": m,
                "A_pi": red.A_pi,
                "B_pi": red.B_pi,
                "C_pi": red.C_pi,
            }
        )
    write_json({"n": n, "models": models}, os.path.join(out, "reduced_models.json"))
    if "x0" in block and "times" in block:
        x0 = _as_vector(block["x0"], f"{path}.x0", n)
        rows = _error_rows(A, x0, m_values, _case_times(block, path))
        write_error_csv(rows, os.path.join(out, "reduce_error.csv"))
    return 0


def cmd_reduce_vec(scenario: Scenario, out: str) -> int:
    block = _experiment_block(scenario, "vectors")
    ops = block.get("ops")
    if not isinstance(ops, list) or not ops:
        raise ConfigError("experiment.vectors.ops: expected a nonempty list")
    results = []
    for k, op in enumerate(ops):
        path = f"experiment.vectors.ops[{k}]"
        if not isinstance(op, dict) or "op" not in op:
            raise ConfigError(f"{path}: expected an object with an 'op' field")
        kind = op["op"]
        if kind == "canonicalize":
            vec = canonicalize(_require(op, "x", path), float(op.get("tol", 1e-9)))
            results.append({"op": kind, "result": vec.entries, "dim": vec.dim})
        elif kind == "distance":
            x, y = _require(op, "x", path), _require(op, "y", path)
            results.append({"op": kind, "result": v_dist(x, y)})
        elif kind == "norm":
            results.append({"op": kind, "result": v_norm(_require(op, "x", path))})
        elif kind == "project":
            m = _as_int(_require(op, "m", path), f"{path}.m")
            results.append({"op": kind, "result": project(_require(op, "x", path), m)})
        else:
            raise ConfigError(f"{path}.op: unknown operation {kind!r}")
    write_json(results, os.path.join(out, "vector_ops.json"))
    return 0


def cmd_lattice(scenario: Scenario, out: str) -> int:
    block = _experiment_block(scenario, "lattice", {})
    dims = _dimensions(
        block.get("dims", [m.dim for m in scenario.system.modes]),
        "experiment.lattice.dims",
    )
    lattice = build_lattice(dims)
    write_json(
        {
            "generators": sorted(int(d) for d in dims),
            "nodes": sorted(lattice.dims),
            "edges": lattice.hasse_edges(),
        },
        os.path.join(out, "lattice.json"),
    )
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "embed": cmd_embed,
    "dwell": cmd_dwell,
    "ctrb": cmd_ctrb,
    "obs": cmd_obs,
    "chain": cmd_chain,
    "reduce": cmd_reduce,
    "approx": cmd_approx,
    "reduce-vec": cmd_reduce_vec,
    "lattice": cmd_lattice,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omega",
        description="Simulate and analyze dimension-varying systems from scenario files.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the signal seed")
    parser.add_argument("--step", type=float, default=None, help="override the step size")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config, seed=args.seed, step=args.step)
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command](scenario, args.out)
    except NumericFailure as exc:
        print(f"omega: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"omega: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
