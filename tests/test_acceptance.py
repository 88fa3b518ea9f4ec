"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
lines as they print).  Tolerances are pinned here and nowhere else.
"""

import hashlib
import math

import numpy as np

from crossdim.analysis import approx_error, restrict_field, span_membership
from crossdim.cdspace import (
    kron_lift,
    project,
    stp_sub,
    v_dist,
    v_inner,
    v_norm,
)
from crossdim.cli import main as cli_main
from crossdim.config import load_scenario
from crossdim.dkstp import bridge, dk_product, op_vnorm
from crossdim.dynamics import (
    Mode,
    dwell_bound,
    expm,
    integrate_mode,
    lift_field,
    simulate,
)
from crossdim.registry import get_field, get_span_basis
from rk4_reference import rk4_mode
from testkit import eig_reduction_error, scenario_path

RNG = np.random.default_rng(2024)


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num:02d} {name} failed {suffix}"


def test_c01_triangle_geometry():
    a_pt = np.array([1.0, 2.0, -1.0])
    b_pt = np.array([2.0, 0.0, -1.0, 3.0])
    c_pt = np.array([1.0, 2.0, -1.0, -2.0, 1.0])
    cb = stp_sub(b_pt, c_pt)
    ac = stp_sub(c_pt, a_pt)
    ba = stp_sub(a_pt, b_pt)
    a, b, c = v_norm(cb), v_norm(ac), v_norm(ba)
    cos_a = -v_inner(ba, ac) / (b * c)
    cos_b = -v_inner(cb, ba) / (a * c)
    cos_c = -v_inner(cb, ac) / (a * b)
    angles = np.degrees(np.arccos([cos_a, cos_b, cos_c]))
    ratios = [
        a / math.sin(math.radians(angles[0])),
        b / math.sin(math.radians(angles[1])),
        c / math.sin(math.radians(angles[2])),
    ]
    ok = (
        abs(a - 1.7607) <= 5e-4
        and abs(b - 1.9833) <= 5e-4
        and abs(c - 2.5499) <= 5e-3
        and abs(c - math.sqrt(6.5)) <= 1e-12
        and np.all(np.abs(angles - [43.5177, 50.8619, 85.6200]) <= 0.01)
        and all(abs(r - 2.5571) <= 5e-3 for r in ratios)
    )
    report(
        1,
        "triangle geometry",
        ok,
        f"sides=({a:.4f},{b:.4f},{c:.4f}) angles={np.round(angles, 4)}",
    )


def test_c02_contraction_by_dwell():
    scenario = load_scenario(scenario_path("two_mode_contraction.json"))
    a1 = scenario.system.modes[0].drift
    norm = np.linalg.norm(expm(a1, 3.6), 2)
    ok_norm = abs(norm - 0.3201) <= 1e-3

    x = RNG.standard_normal(2)
    ok_lift = np.array_equal(bridge(4, 2) @ x, kron_lift(x, 2))

    traj = simulate(scenario.system, scenario.signal, scenario.x0, scenario.step)
    entries = [n for _, n in traj.switch_entry_norms()]
    ok_decay = len(entries) >= 6 and all(
        b < a for a, b in zip(entries, entries[1:])
    )
    report(
        2,
        "dwell 3.6 stabilizes the two-mode system",
        ok_norm and ok_lift and ok_decay,
        f"norm={norm:.4f} switches={len(entries)}",
    )


def test_c03_two_stage_steering():
    scenario = load_scenario(scenario_path("two_stage_steering.json"), step=1e-4)
    traj = simulate(scenario.system, scenario.signal, scenario.x0, scenario.step)
    handoff = traj.events[0]
    x1 = handoff.pre_state
    y1 = x1[0] - x1[1]
    target = 1.5 * math.e
    line_dist = v_dist(x1, project(x1, 1))
    ok = (
        abs(y1) <= 1e-6
        and np.abs(x1 - target).max() <= 1e-6
        and line_dist <= 1e-6
    )
    report(
        3,
        "two-stage steering reaches the replicated line",
        ok,
        f"x(1)=({x1[0]:.8f},{x1[1]:.8f}) y1={y1:.2e} dist={line_dist:.2e}",
    )


def test_c04_feedback_switching_decays():
    finals = {}
    start = None
    ok_entries = True
    for name in ("feedback_switch_fixed.json", "feedback_switch_random.json"):
        scenario = load_scenario(scenario_path(name))
        traj = simulate(scenario.system, scenario.signal, scenario.x0, scenario.step)
        start = traj.segment_vnorms[0][0]
        finals[name] = traj.segment_vnorms[-1][-1]
        if name == "feedback_switch_fixed.json":
            entries = [n for _, n in traj.switch_entry_norms()]
            ok_entries = all(b < a for a, b in zip(entries, entries[1:]))
    ok = (
        abs(start - 5.5227) <= 1e-3
        and ok_entries
        and all(final < 1.0 and final < start for final in finals.values())
    )
    report(
        4,
        "switched feedback decays under both signals",
        ok,
        f"start={start:.4f} finals=" + ",".join(f"{v:.3f}" for v in finals.values()),
    )


def test_c05_reduction_error_tables():
    n = 10
    x0 = 500.0 * np.ones(n)
    times = range(1, 101)
    a_uniform = 0.001 * np.eye(n)
    ok_uniform = all(
        approx_error(a_uniform, x0, m, times).max() <= 1e-10 for m in (9, 11)
    )
    a_graded = -0.001 * np.diag(np.arange(1.0, n + 1))
    worst = {}
    oracle_gap = 0.0
    for m in (9, 7, 5, 11, 13, 15):
        series = approx_error(a_graded, x0, m, times)
        worst[m] = series.max()
        oracle = eig_reduction_error(a_graded, x0, m, times)
        oracle_gap = max(oracle_gap, np.abs(series.values - oracle).max())
    ok_graded = all(v <= 0.05 for v in worst.values()) and oracle_gap <= 1e-9
    report(
        5,
        "cross-dimension reduction error bounds",
        ok_uniform and ok_graded,
        f"worst={max(worst.values()):.4f} oracle_gap={oracle_gap:.1e}",
    )


def test_c06_algebra_property_suite():
    def rand_mat():
        r, c = (int(d) for d in RNG.integers(1, 6, size=2))
        return RNG.standard_normal((r, c))

    worst_assoc = worst_dist = 0.0
    for _ in range(1000):
        A, B, C = rand_mat(), rand_mat(), rand_mat()
        lhs = dk_product(dk_product(A, B), C)
        rhs = dk_product(A, dk_product(B, C))
        scale = max(1.0, np.abs(lhs).max())
        worst_assoc = max(worst_assoc, np.abs(lhs - rhs).max() / scale)
        A2 = RNG.standard_normal(A.shape)
        lhs2 = dk_product(A + A2, C)
        rhs2 = dk_product(A, C) + dk_product(A2, C)
        scale2 = max(1.0, np.abs(lhs2).max())
        worst_dist = max(worst_dist, np.abs(lhs2 - rhs2).max() / scale2)
    ok_ring = worst_assoc <= 1e-9 and worst_dist <= 1e-9

    def kronecker_bridge(n, p):
        t = math.lcm(n, p)
        left = np.kron(np.eye(n), np.ones((1, t // n)))
        right = np.kron(np.eye(p), np.ones((t // p, 1)))
        return (n / t) * (left @ right)

    ok_bridge = all(
        np.array_equal(bridge(nn, mm), kronecker_bridge(nn, mm))
        for nn in range(1, 13)
        for mm in range(1, 13)
    )

    worst_proj = 0.0
    for _ in range(500):
        m = int(RNG.integers(1, 7))
        x = RNG.standard_normal(m)
        k = int(RNG.integers(2, 5))
        t = int(RNG.integers(1, 9))
        worst_proj = max(
            worst_proj,
            np.abs(project(kron_lift(x, k), t) - project(x, t)).max(),
        )
        z = RNG.standard_normal(int(RNG.integers(1, 5)))
        worst_proj = max(
            worst_proj,
            np.abs(project(kron_lift(z, 2), t) - project(kron_lift(z, 3), t)).max(),
        )
    ok_proj = worst_proj <= 1e-12
    report(
        6,
        "product and projection algebra",
        ok_ring and ok_bridge and ok_proj,
        f"assoc={worst_assoc:.1e} dist={worst_dist:.1e} proj={worst_proj:.1e}",
    )


def test_c07_flow_lifting():
    modes = []
    for i in range(20):
        n = int(RNG.integers(1, 5))
        A = RNG.standard_normal((n, n))
        A -= (max(np.linalg.eigvals(A).real.max(), 0.0) + 0.5) * np.eye(n)
        modes.append(Mode(f"lin{i}", n, A))
    for name in ("rotor2", "ddp2_drift"):
        dim, f = get_field(name)
        modes.append(Mode(name, dim, f))

    worst = 0.0
    for mode in modes:
        x0 = RNG.standard_normal(mode.dim)
        base = integrate_mode(rk4_mode(mode), x0, 0.0, 1.0, 1e-3)
        for k in (2, 3):
            lifted = integrate_mode(
                rk4_mode(lift_field(mode, k)), kron_lift(x0, k), 0.0, 1.0, 1e-3
            )
            diff = np.abs(np.repeat(base.states, k, axis=1) - lifted.states).max()
            worst = max(worst, diff)
    report(7, "integral curves commute with lifting", worst <= 1e-6, f"sup={worst:.1e}")


def test_c08_disturbance_decoupling_checks():
    dim, xi = get_field("ddp_disturbance6")
    to_plane = restrict_field(xi, dim, 2)
    worst_plane = max(
        float(np.linalg.norm(to_plane(RNG.standard_normal(2)))) for _ in range(100)
    )
    to_three = restrict_field(xi, dim, 3)
    worst_three = 0.0
    ok_span = True
    _, basis = get_span_basis("ddp3_invariant")
    for _ in range(100):
        z = RNG.standard_normal(3)
        expected = 0.5 * np.array([0.0, -1.0 - z[0], 1.0 + z[0]])
        worst_three = max(worst_three, np.abs(to_three(z) - expected).max())
        ok_span = ok_span and span_membership(to_three, basis, z)
    ok = worst_plane <= 1e-9 and worst_three <= 1e-9 and ok_span
    report(
        8,
        "disturbance restrictions and invariant span",
        ok,
        f"plane={worst_plane:.1e} three={worst_three:.1e}",
    )


def test_c09_cli_determinism(tmp_path):
    shipped = [
        ("simulate", "two_mode_contraction.json"),
        ("simulate", "two_stage_steering.json"),
        ("simulate", "feedback_switch_fixed.json"),
        ("simulate", "feedback_switch_random.json"),
        ("simulate", "ddp_two_mode.json"),
        ("approx", "reduction_sweep.json"),
    ]
    ok = True
    for command, name in shipped:
        digests = []
        for attempt in ("a", "b"):
            out = tmp_path / name.replace(".json", "") / attempt
            code = cli_main(
                [command, "--config", scenario_path(name), "--out", str(out)]
            )
            ok = ok and code == 0
            blob = hashlib.sha256()
            for artifact in sorted(out.iterdir()):
                blob.update(artifact.name.encode())
                blob.update(artifact.read_bytes())
            digests.append(blob.hexdigest())
        ok = ok and digests[0] == digests[1]
    report(9, "byte-identical reruns for every shipped scenario", ok)


def test_c10_operator_norm_discrepancy_documented():
    value = op_vnorm(bridge(2, 4))
    ok_value = abs(value - 1.0) <= 1e-12
    # the conservative transition constant 3 still certifies dwell 3.6
    scenario = load_scenario(scenario_path("two_mode_contraction.json"))
    delta = dwell_bound(scenario.system, gamma=0.03, lipschitz=3.0)
    ok_dwell = delta is not None and delta <= 3.6
    report(
        10,
        "operator norm of the halving projector is 1; L=3 still certifies",
        ok_value and ok_dwell,
        f"norm={value:.12f} dwell={delta:.3f}",
    )
