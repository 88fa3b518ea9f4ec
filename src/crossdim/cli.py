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
from .config import Scenario, load_scenario
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


def _each_mode(scenario: Scenario, analyse, field: str) -> list:
    """``analyse(mode)`` for every mode; a ValueError names ``modes[i].drift``
    when the drift is not linear, and ``modes[i].<field>`` otherwise."""
    results = []
    for i, mode in enumerate(scenario.system.modes):
        try:
            results.append(analyse(mode))
        except ValueError as exc:
            at = "drift" if not mode.is_linear else field
            raise ConfigError(f"modes[{i}].{at}: {exc}") from None
    return results


def cmd_simulate(scenario: Scenario, out: str) -> int:
    traj = simulate(scenario.system, scenario.signal, scenario.x0, scenario.step)
    outputs = traj.segment_outputs  # an overflowing output fails before any write
    write_trajectory_csv(traj, os.path.join(out, "trajectory.csv"))
    write_events_csv(traj.events, os.path.join(out, "events.csv"))
    if outputs is not None:
        write_outputs_csv(traj, os.path.join(out, "outputs.csv"))
    return 0


def _segment_gap(A: np.ndarray, B: np.ndarray) -> float:
    """Largest ``v_dist`` between paired rows of two state arrays, via their lcm lift."""
    t = math.lcm(A.shape[1], B.shape[1])
    diff = np.repeat(A, t // A.shape[1], axis=1) - np.repeat(B, t // B.shape[1], axis=1)
    return float(v_norm_rows(diff).max())


def cmd_embed(scenario: Scenario, out: str) -> int:
    common_dim = scenario.common_dim()
    embedded = embed_common(scenario.system)
    original = simulate(scenario.system, scenario.signal, scenario.x0, scenario.step)
    lifted_x0 = project(scenario.x0, common_dim)
    mirrored = simulate(embedded, scenario.signal, lifted_x0, scenario.step)
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
            for (i, j), tm in sorted(embedded.table.items())
        ],
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
    block = scenario.block("dwell")
    drifts = _each_mode(scenario, closed_loop_drift, "feedback")
    delta = dwell_bound(scenario.system, block["gamma"], lipschitz=block["lipschitz"])
    hurwitz = {
        m.label: bool(np.linalg.eigvals(A).real.max() < 0)
        for m, A in zip(scenario.system.modes, drifts)
    }
    report = {"gamma": block["gamma"], "lipschitz_override": block["lipschitz"],
              "dwell": delta, "hurwitz": hurwitz}
    write_json(report, os.path.join(out, "dwell_report.json"))
    return 0


def cmd_ctrb(scenario: Scenario, out: str) -> int:
    keys = ("label", "dim", "kalman_rank", "fully_controllable")
    reports = [
        {key: getattr(rep, key) for key in keys}
        for rep in _each_mode(scenario, analysis.controllability_report, "inputs")
    ]
    write_json(reports, os.path.join(out, "ctrb_report.json"))
    return 0


def cmd_obs(scenario: Scenario, out: str) -> int:
    output = scenario.system.output
    if output is None or output.matrix is None:
        raise ConfigError("output.H: the obs command needs a linear output map")

    def report(m) -> dict:
        if not m.is_linear:
            raise ValueError(f"mode {m.label!r}: obs command needs a linear drift")
        rank = analysis.obs_rank(m.drift, output.matrix @ bridge(output.q, m.dim))
        return {"label": m.label, "dim": m.dim, "obs_rank": rank,
                "fully_observable": rank == m.dim}

    write_json(_each_mode(scenario, report, "drift"), os.path.join(out, "obs_report.json"))
    return 0


def cmd_chain(scenario: Scenario, out: str) -> int:
    block = scenario.block("chain")
    start, target = block["start"], block["target"]
    _each_mode(scenario, analysis._linear_pair, "inputs")
    chain = analysis.reachability_chain(scenario.system, start, target)
    labels = None if chain is None else [scenario.system.modes[i].label for i in chain]
    report = {"start": start, "target": target, "chain": chain, "labels": labels}
    write_json(report, os.path.join(out, "chain_report.json"))
    return 0


def _error_rows(A, x0, m_values, times) -> np.ndarray:
    """(t, m, E) rows of the reduction error, all times for each reduced
    dimension m in turn."""
    errors = analysis._reduction_errors(A, x0, m_values, times)
    t = np.tile(times, len(m_values))
    m = np.repeat(m_values, len(times))
    return np.column_stack((t, m, errors.ravel()))


def cmd_approx(scenario: Scenario, out: str) -> int:
    for case in scenario.block("approx")["cases"]:
        rows = _error_rows(case["A"], case["x0"], case["m_values"], case["times"])
        write_error_csv(rows, os.path.join(out, f"error_{case['label']}.csv"))
    return 0


def cmd_reduce(scenario: Scenario, out: str) -> int:
    block = scenario.block("reduce")
    A = block["A"]
    models = []
    for m in block["m_values"]:
        red = analysis.reduce_model(A, block["B"], block["C"], m)
        models.append({"m": m, "A_pi": red.A_pi, "B_pi": red.B_pi, "C_pi": red.C_pi})
    write_json({"n": len(A), "models": models}, os.path.join(out, "reduced_models.json"))
    if block["x0"] is not None and block["times"] is not None:
        rows = _error_rows(A, block["x0"], block["m_values"], block["times"])
        write_error_csv(rows, os.path.join(out, "reduce_error.csv"))
    return 0


def cmd_reduce_vec(scenario: Scenario, out: str) -> int:
    results = []
    for op in scenario.block("vectors")["ops"]:
        kind, x = op["op"], op["x"]
        if kind == "canonicalize":
            vec = canonicalize(x, op["tol"])
            results.append({"op": kind, "result": vec.entries, "dim": vec.dim})
        elif kind == "distance":
            results.append({"op": kind, "result": v_dist(x, op["y"])})
        elif kind == "norm":
            results.append({"op": kind, "result": v_norm(x)})
        else:
            results.append({"op": kind, "result": project(x, op["m"])})
    write_json(results, os.path.join(out, "vector_ops.json"))
    return 0


def cmd_lattice(scenario: Scenario, out: str) -> int:
    dims = scenario.block("lattice")["dims"]
    try:
        lattice = build_lattice(dims)
    except ValueError as exc:  # the node cap; the dims themselves are checked
        raise ConfigError(f"experiment.lattice.dims: {exc}") from None
    report = {"generators": sorted(dims), "nodes": sorted(lattice.dims),
              "edges": lattice.hasse_edges()}
    write_json(report, os.path.join(out, "lattice.json"))
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
