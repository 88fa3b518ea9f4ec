"""Span tracing for the traced benchmark run.

The public functions of each layer module are wrapped and re-bound at every
place the package holds a reference to them (module globals, the CLI's
command table, the registry's evaluator tables, ``OutputMap.__call__``), so
the package source is untouched and calls between modules are seen.  Each
wrapped call records a span ``(name, start_ns, end_ns, parent, op, note)``
in memory; ``note`` carries what a metric needs from the arguments or the
result, such as the sample count of a trajectory.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("config", "registry", "dynamics", "switching", "cdspace", "dkstp", "analysis", "export", "cli")

#: Public names not in a module's ``__all__`` that the CLI calls.
EXTRA = {"analysis": ("controllability_report",), "cli": ("main",)}
#: ``format_float`` runs once per CSV cell; its spans would outnumber the
#: rows by the column count and mostly measure the tracer.
SKIP = {"export.format_float"}
#: Registry tables whose entries are evaluators called during a run.
REGISTRY_TABLES = ("FIELDS", "INPUT_CHANNELS", "OUTPUT_FUNCTIONS", "FEEDBACKS", "TIME_SIGNALS", "SPAN_BASES")


def _dims(args, kwargs, result):
    return tuple(args[:2]) if len(args) >= 2 else None


def _expm_key(args, kwargs, result):
    t = args[1] if len(args) > 1 else kwargs.get("t", 1.0)
    return hash((np.asarray(args[0], dtype=float).tobytes(), float(t)))


def _samples(args, kwargs, result):
    return len(result.times)


def _steps(args, kwargs, result):
    return len(result.times) - 1


#: span name -> note(args, kwargs, result)
NOTES = {
    "dkstp.bridge": _dims,
    "cdspace.projector": _dims,
    "dynamics.expm": _expm_key,
    "dynamics.integrate_mode": _steps,
    "dynamics.simulate": _samples,
    "analysis.approx_error": _samples,
}


class Tracer:
    """Wraps the package's layers while installed and keeps every span."""

    def __init__(self):
        self.spans = []
        self.errors = Counter()
        self.op = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, errors, clock = self.spans, self._stack, self.errors, time.perf_counter_ns
        layer, note, tracer = name.split(".", 1)[0], NOTES.get(name), self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, tracer.op, None)
                errors[layer] += 1
                raise
            else:
                end = clock()
                spans[idx] = (name, start, end, parent, tracer.op, note and note(args, kwargs, result))
                return result
            finally:
                stack.pop()

        return traced

    def _set(self, holder, key, value, as_item=False):
        if as_item:
            self._undo.append((holder, key, holder[key], True))
            holder[key] = value
        else:
            self._undo.append((holder, key, getattr(holder, key), False))
            setattr(holder, key, value)

    def _wrap_evaluators(self, name, value):
        if callable(value):
            return self._wrap(name, value)
        if isinstance(value, tuple):
            return tuple(self._wrap_evaluators(name, v) for v in value)
        return value

    def install(self):
        """Re-bind every public function of every layer to its traced wrapper."""
        mods = {n: m for n, m in sys.modules.items() if n == "crossdim" or n.startswith("crossdim.")}
        wrapped = {}
        for layer in LAYERS:
            mod = mods[f"crossdim.{layer}"]
            for attr in tuple(getattr(mod, "__all__", ())) + EXTRA.get(layer, ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and f"{layer}.{attr}" not in SKIP:
                    wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        cli = mods["crossdim.cli"]
        for command, fn in list(cli.COMMANDS.items()):
            self._set(cli.COMMANDS, command, self._wrap(f"cli.{fn.__name__}", fn), as_item=True)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        output_map = mods["crossdim.dynamics"].OutputMap
        self._set(output_map, "__call__", self._wrap("dynamics.output", output_map.__call__))
        registry = mods["crossdim.registry"]
        for table_name in REGISTRY_TABLES:
            table = getattr(registry, table_name)
            for key, value in list(table.items()):
                self._set(table, key, self._wrap_evaluators(f"registry.{key}", value), as_item=True)

    def uninstall(self):
        while self._undo:
            holder, key, value, as_item = self._undo.pop()
            if as_item:
                holder[key] = value
            else:
                setattr(holder, key, value)

    def write(self, path):
        """All spans as gzip CSV: name,start_ns,end_ns,parent,op,note."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,op,note\n")
            for name, start, end, parent, op, note in self.spans:
                note = "" if note is None else str(note).replace(",", " ")
                fh.write(f"{name},{start},{end},{parent},{op},{note}\n")


# ---------------------------------------------------------------- metrics

#: metric prefix -> span names it aggregates
GROUPS = {
    "switching.transition": ("switching.nearest_map", "switching.drop_map", "switching.add_map",
                             "switching.compose_maps", "switching.identity_map"),
    "switching.jump_event": ("switching.make_jump_event",),
    "analysis.rank_tests": ("analysis.ctrb_rank", "analysis.obs_rank", "analysis.partial_ctrb"),
    "export.csv": ("export.write_trajectory_csv", "export.write_events_csv",
                   "export.write_outputs_csv", "export.write_error_csv"),
}


def layer_metrics(spans, errors, pass_of_op, passes, csv_rows, csv_bytes):
    """Per-layer metrics from the spans of ``passes`` traced passes.

    ``pass_of_op`` maps an op id to its pass; ``csv_rows``/``csv_bytes`` are
    the CSV rows and bytes one pass writes.  Counts are per pass, times are
    inclusive per call unless named ``self``, distinct ratios are distinct
    arguments over calls within one pass, averaged over passes.
    """
    n = len(spans)
    child_ns = [0] * n
    has_expm_child = set()
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            if name == "dynamics.expm":
                has_expm_child.add(parent)

    calls, total_ns, self_ns, units = Counter(), Counter(), Counter(), Counter()
    distinct = defaultdict(lambda: defaultdict(set))
    for i, (name, start, end, parent, op, note) in enumerate(spans):
        key = name
        if name == "dynamics.integrate_mode":
            key = "dynamics.integrate.expm" if i in has_expm_child else "dynamics.integrate.rk4"
            units[key] += note or 0
        elif name.startswith("registry."):
            key = "registry"
        elif name in ("dynamics.simulate", "analysis.approx_error"):
            units[key] += note or 0
        for group, members in GROUPS.items():
            if name in members:
                key = group
        calls[key] += 1
        total_ns[key] += end - start
        self_ns[key] += end - start - child_ns[i]
        if note is not None and name in ("dkstp.bridge", "cdspace.projector", "dynamics.expm"):
            distinct[name][pass_of_op[op]].add(note)

    def per_call(key, scale=1e-3):
        return total_ns[key] * scale / calls[key] if calls[key] else 0.0

    def per_unit(key, counter=total_ns):
        return counter[key] * 1e-3 / units[key] if units[key] else 0.0

    def ratio(name):
        return (sum(len(s) for s in distinct[name].values()) / calls[name]) if calls[name] else 0.0

    pass_ns = sum(end - start for name, start, end, *_ in spans if name == "cli.main") / passes
    out = {}

    def put(metric, value, unit):
        out[metric] = {"value": value, "unit": unit}

    for key, metric in (
        ("dynamics.output", "dynamics.output"),
        ("dkstp.bridge", "dkstp.bridge"),
        ("cdspace.v_norm", "cdspace.v_norm"),
        ("cdspace.v_dist", "cdspace.v_dist"),
        ("cdspace.project", "cdspace.project"),
        ("cdspace.projector", "cdspace.projector"),
        ("registry", "registry"),
        ("dynamics.expm", "dynamics.expm"),
        ("dkstp.op_vnorm", "dkstp.op_vnorm"),
        ("switching.transition", "switching.transition"),
        ("switching.jump_event", "switching.jump_event"),
    ):
        put(f"{metric}.calls", calls[key] / passes, "count")
    put("dynamics.output.us_per_sample", per_call("dynamics.output"), "us")
    put("dkstp.bridge.us_per_call", per_call("dkstp.bridge"), "us")
    put("dkstp.bridge.distinct_ratio", ratio("dkstp.bridge"), "ratio")
    put("cdspace.v_norm.us_per_call", per_call("cdspace.v_norm"), "us")
    put("dynamics.simulate.self_us_per_sample", per_unit("dynamics.simulate", self_ns), "us")
    put("cdspace.v_dist.us_per_call", per_call("cdspace.v_dist"), "us")
    put("cdspace.project.us_per_call", per_call("cdspace.project"), "us")
    put("cdspace.projector.distinct_ratio", ratio("cdspace.projector"), "ratio")
    put("dynamics.integrate.rk4_steps", units["dynamics.integrate.rk4"] / passes, "count")
    put("dynamics.integrate.rk4_us_per_step", per_unit("dynamics.integrate.rk4"), "us")
    put("dynamics.integrate.expm_steps", units["dynamics.integrate.expm"] / passes, "count")
    put("dynamics.integrate.expm_us_per_step", per_unit("dynamics.integrate.expm"), "us")
    put("registry.us_per_call", per_call("registry"), "us")
    put("dynamics.expm.us_per_call", per_call("dynamics.expm"), "us")
    put("dynamics.expm.distinct_ratio", ratio("dynamics.expm"), "ratio")
    put("analysis.approx_error.us_per_point", per_unit("analysis.approx_error"), "us")
    put("analysis.reduce_model.us_per_call", per_call("analysis.reduce_model"), "us")
    put("dynamics.dwell_bound_ms", per_call("dynamics.dwell_bound", 1e-6), "ms")
    put("dkstp.op_vnorm.us_per_call", per_call("dkstp.op_vnorm"), "us")
    put("switching.transition.us_per_call", per_call("switching.transition"), "us")
    put("switching.jump_event.us_per_switch", per_call("switching.jump_event"), "us")
    put("dynamics.embed_common_ms", per_call("dynamics.embed_common", 1e-6), "ms")
    put("analysis.rank_tests.us_per_call", per_call("analysis.rank_tests"), "us")
    put("config.load_ms", per_call("config.load_scenario", 1e-6), "ms")
    put("export.csv.rows", csv_rows, "count")
    put("export.csv.bytes", csv_bytes, "bytes")
    put("export.csv.us_per_row", total_ns["export.csv"] * 1e-3 / passes / csv_rows if csv_rows else 0.0, "us")
    put("export.json.ms_per_file", per_call("export.write_json", 1e-6), "ms")
    cli_self = sum(self_ns[k] for k in self_ns if k.startswith("cli."))
    put("cli.self_ms", cli_self * 1e-6 / passes, "ms")
    for layer in LAYERS:
        put(f"{layer}.errors", errors[layer], "count")
    for key, metric in (
        ("dynamics.output", "dynamics.output.share"),
        ("dynamics.integrate.rk4", "dynamics.integrate.rk4_share"),
        ("dynamics.expm", "dynamics.expm.share"),
    ):
        put(metric, total_ns[key] / passes / pass_ns if pass_ns else 0.0, "ratio")
    return out


def op_breakdown(spans, op_ids):
    """Inclusive seconds per span name within the given ops, largest first."""
    wanted = set(op_ids)
    totals = Counter()
    for name, start, end, _, op, _ in spans:
        if op in wanted:
            totals[name] += (end - start) * 1e-9
    return dict(totals.most_common())
