"""Workload definitions and the seeded input generator.

An *op* is one ``cli.main`` call; a *pass* runs every op of a workload once,
in the order listed here.  The program only ever sees the scenario files
that :func:`generate_inputs` writes: the shipped scenarios with a seeded
perturbation of every initial state and, for random switching signals, a
seeded signal seed.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path

import numpy as np

#: workload -> ops as (command, scenario name), in pass order.
WORKLOADS = {
    # Per-sample post-processing: ~29k samples through the output map,
    # v_norm and v_dist; the integrator is a few percent of the time.
    "trajectory-outputs": (
        ("simulate", "two_mode_contraction"),
        ("embed", "two_mode_contraction"),
        ("simulate", "ddp_two_mode"),
    ),
    # The integrator: RK4 with Python feedback callables, no output map.
    "feedback-rk4": (
        ("simulate", "two_stage_steering"),
        ("simulate", "feedback_switch_fixed"),
        ("simulate", "feedback_switch_random"),
    ),
    # No simulate: scattered matrix exponentials, reductions and the
    # small analysis commands.
    "analysis-sweep": (
        ("approx", "reduction_sweep"),
        ("reduce", "reduction_sweep"),
        ("dwell", "two_mode_contraction"),
        ("obs", "two_mode_contraction"),
        ("ctrb", "two_stage_steering"),
        ("chain", "two_stage_steering"),
        ("lattice", "two_stage_steering"),
        ("reduce-vec", "two_stage_steering"),
    ),
}

#: Commands reported under their own ``cmd.<group>_s``; the rest are "small".
OWN_GROUP = ("simulate", "embed", "approx", "reduce", "dwell")
GROUPS = OWN_GROUP + ("small",)

#: Relative half-width of the uniform perturbation applied to initial states.
X0_SPREAD = 0.1


def command_group(command: str) -> str:
    return command if command in OWN_GROUP else "small"


def _perturb(values, rng) -> list:
    x = np.asarray(values, dtype=float)
    return (x * (1.0 + X0_SPREAD * rng.uniform(-1.0, 1.0, x.shape))).tolist()


def make_variant(raw: dict, seed: int, name: str) -> dict:
    """The scenario ``raw`` with its initial states and signal seed drawn from ``seed``.

    Each scenario draws from its own stream, keyed by its name, so a
    scenario's variant does not depend on which workload asked for it.
    """
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    out = json.loads(json.dumps(raw))
    out["x0"] = _perturb(out["x0"], rng)
    if out["signal"].get("kind") in ("random", "random-dwell"):
        out["signal"]["seed"] = int(rng.integers(0, 2**31 - 1))
    experiment = out.get("experiment", {})
    for case in experiment.get("approx", {}).get("cases", []):
        case["x0"] = _perturb(case["x0"], rng)
    if "x0" in experiment.get("reduce", {}):
        experiment["reduce"]["x0"] = _perturb(experiment["reduce"]["x0"], rng)
    return out


def generate_inputs(scenario_dir: Path, workload: str, seed: int, dest: Path) -> dict:
    """Write the seeded variant of every scenario the workload uses into ``dest``.

    Returns ``{name: {"path": str, "sha256": str}}``.
    """
    dest.mkdir(parents=True, exist_ok=True)
    inputs = {}
    for name in sorted({scenario for _, scenario in WORKLOADS[workload]}):
        raw = json.loads((scenario_dir / f"{name}.json").read_text(encoding="utf-8"))
        blob = json.dumps(make_variant(raw, seed, name), indent=2, sort_keys=True)
        path = dest / f"{name}.json"
        path.write_text(blob + "\n", encoding="utf-8")
        inputs[name] = {
            "path": str(path),
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        }
    return inputs
