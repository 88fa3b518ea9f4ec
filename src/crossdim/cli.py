"""Scenario-driven command line front end.

    omega <command> --config <path> --out <dir> [--seed N] [--step H]

Commands: simulate, embed, dwell, ctrb, obs, chain, reduce, approx,
reduce-vec, lattice.  Exit codes: 0 success, 2 validation error,
3 numeric failure.  Each command computes and returns its artifacts;
``export.publish`` writes them only after it has returned.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import analysis
from .cdspace import _dist_rows, build_lattice, canonicalize, project, v_dist, v_norm
from .config import Scenario, load_scenario
from .dkstp import bridge
from .dynamics import closed_loop_drift, dwell_bound, embed_common, simulate
from .errors import ConfigError, NumericFailure
from .export import error_table, events_table, outputs_table, publish, trajectory_table


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


def cmd_simulate(scenario: Scenario) -> dict:
    traj = simulate(scenario.system, scenario.signal, scenario.x0, scenario.step)
    artifacts = {"trajectory.csv": trajectory_table(traj),
                 "events.csv": events_table(traj.events)}
    if traj.output_map is not None:
        artifacts["outputs.csv"] = outputs_table(traj)
    return artifacts


def cmd_embed(scenario: Scenario) -> dict:
    common_dim = scenario.common_dim()
    embedded = embed_common(scenario.system)
    original = simulate(scenario.system, scenario.signal, scenario.x0, scenario.step)
    lifted_x0 = project(scenario.x0, common_dim)
    mirrored = simulate(embedded, scenario.signal, lifted_x0, scenario.step)
    gap = max(
        float(_dist_rows(a.states, b.states).max())
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
    return {"embedded_system.json": dump, "equivalence_report.json": report,
            "embedded_trajectory.csv": trajectory_table(mirrored)}


def cmd_dwell(scenario: Scenario) -> dict:
    block = scenario.block("dwell")
    drifts = _each_mode(scenario, closed_loop_drift, "feedback")
    delta = dwell_bound(scenario.system, block["gamma"], lipschitz=block["lipschitz"])
    hurwitz = {
        m.label: bool(np.linalg.eigvals(A).real.max() < 0)
        for m, A in zip(scenario.system.modes, drifts)
    }
    report = {"gamma": block["gamma"], "lipschitz_override": block["lipschitz"],
              "dwell": delta, "hurwitz": hurwitz}
    return {"dwell_report.json": report}


def cmd_ctrb(scenario: Scenario) -> dict:
    reports = _each_mode(scenario, analysis.controllability_report, "inputs")
    return {"ctrb_report.json": [dataclasses.asdict(rep) for rep in reports]}


def cmd_obs(scenario: Scenario) -> dict:
    output = scenario.system.output
    if output is None or output.matrix is None:
        raise ConfigError("output.H: the obs command needs a linear output map")

    def report(m) -> dict:
        if not m.is_linear:
            raise ValueError(f"mode {m.label!r}: obs command needs a linear drift")
        rank = analysis.obs_rank(m.drift, output.matrix @ bridge(output.q, m.dim))
        return {"label": m.label, "dim": m.dim, "obs_rank": rank,
                "fully_observable": rank == m.dim}

    return {"obs_report.json": _each_mode(scenario, report, "drift")}


def cmd_chain(scenario: Scenario) -> dict:
    block = scenario.block("chain")
    start, target = block["start"], block["target"]
    _each_mode(scenario, analysis._linear_pair, "inputs")
    chain = analysis.reachability_chain(scenario.system, start, target)
    labels = None if chain is None else [scenario.system.modes[i].label for i in chain]
    report = {"start": start, "target": target, "chain": chain, "labels": labels}
    return {"chain_report.json": report}


def _error_table(spec: dict) -> tuple:
    """The reduction-error table of an experiment's A, x0, m_values and times."""
    m_values, times = spec["m_values"], spec["times"]
    errors = analysis._reduction_errors(spec["A"], spec["x0"], m_values, times)
    return error_table(times, m_values, errors)


def cmd_approx(scenario: Scenario) -> dict:
    cases = scenario.block("approx")["cases"]
    return {f"error_{case['label']}.csv": _error_table(case) for case in cases}


def cmd_reduce(scenario: Scenario) -> dict:
    block = scenario.block("reduce")
    A = block["A"]
    models = []
    for m in block["m_values"]:
        red = analysis.reduce_model(A, block["B"], block["C"], m)
        models.append({"m": m, "A_pi": red.A_pi, "B_pi": red.B_pi, "C_pi": red.C_pi})
    artifacts = {"reduced_models.json": {"n": len(A), "models": models}}
    if block["times"] is not None:  # given with x0
        artifacts["reduce_error.csv"] = _error_table(block)
    return artifacts


def cmd_reduce_vec(scenario: Scenario) -> dict:
    results = []
    for op in scenario.block("vectors")["ops"]:
        kind, x = op["op"], op["x"]
        if kind == "canonicalize":
            vec = canonicalize(x, op["tol"])
            results.append({"op": kind, "result": vec, "dim": vec.size})
        elif kind == "distance":
            results.append({"op": kind, "result": v_dist(x, op["y"])})
        elif kind == "norm":
            results.append({"op": kind, "result": v_norm(x)})
        else:
            results.append({"op": kind, "result": project(x, op["m"])})
    return {"vector_ops.json": results}


def cmd_lattice(scenario: Scenario) -> dict:
    dims = scenario.block("lattice")["dims"]
    try:
        lattice = build_lattice(dims)
    except ValueError as exc:  # the node cap; the dims themselves are checked
        raise ConfigError(f"experiment.lattice.dims: {exc}") from None
    report = {"generators": sorted(dims), "nodes": sorted(lattice.dims),
              "edges": lattice.hasse_edges()}
    return {"lattice.json": report}


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``omega`` argument parser, built on first use and then shared:
    parsing reads it and never changes it."""
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
        os.makedirs(args.out, exist_ok=True)  # an unusable --out fails before the run
        publish(COMMANDS[args.command](scenario), args.out)
        return 0
    except NumericFailure as exc:
        print(f"omega: numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a ConfigError is one
        print(f"omega: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # load_scenario reports its own as a ConfigError
        print(f"omega: --out: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
