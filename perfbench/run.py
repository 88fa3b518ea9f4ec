"""Benchmark of the ``omega`` commands, end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client drives ``crossdim.cli.main`` in-process, closed loop: each op
starts when the previous one has finished.  Inputs are the shipped
scenarios, perturbed from ``--seed`` (see ``workloads.py``) and written
under ``.perfbench/`` at the root of the checkout; the program only sees
those files.  Every op is checked: a nonzero exit code fails it, every pass
must reproduce the first pass's artifacts byte for byte, and the first
pass's artifacts are checked against the independent reference in
``oracle.py`` once the timed passes are over.

``--trace 0`` splits ``--seconds`` of passes over ``WORKERS`` fresh worker
processes, one after another, times set-up in other fresh processes before
and after them, and reports the end-to-end metrics.  ``--trace 1`` runs one
worker that times a third of ``--seconds`` untraced and the rest with every
layer wrapped (``tracing.py``), and reports the per-layer metrics; its spans
go to ``.perfbench/results/``.  The last line of standard output is the
result object; the line before it holds the details (every pass,
per-command times, input digests and provenance), also written to
``.perfbench/results/``.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
from tracing import Tracer, layer_metrics, op_breakdown  # noqa: E402
from workloads import GROUPS, WORKLOADS, command_group, generate_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "crossdim" / "scenarios"
OUT = ROOT / ".perfbench"

#: Fresh-process set-ups before and again after the passes; ``setup_s`` is
#: the median of all of them, so that it spans the run's drift in speed.
SETUP_RUNS = 3
#: Fresh worker processes, run one after another, that a ``--trace 0`` run
#: splits its passes over (each makes at least one).  Where this benchmark
#: was written one process ran 5-10% faster or slower than another for its
#: whole life (hash seed, memory layout), so a run samples several.
WORKERS = 3
#: Reference-loop iterations per speed sample (about 0.25 ms here), the
#: sampling interval, and the fewest samples a pass's speed is taken from.
REF_ITERATIONS = 50
REF_INTERVAL_S = 0.01
REF_MIN_SAMPLES = 5
_REF_MATRIX = np.full((4, 4), 0.1) + 0.4 * np.eye(4)


class SpeedSampler:
    """Times a fixed reference loop every ``REF_INTERVAL_S`` while installed.

    Where this benchmark was written the machine's speed drifted by tens of
    percent within seconds (other tenants on the host), so raw pass times
    spread by 15-25% between runs.  The loop mixes small numpy calls and float
    formatting like the program does and runs from SIGALRM between bytecodes
    of the main thread, so its samples see the speed the ops see.  A pass in
    reference units is its seconds times the mean of 1 / sample over the
    samples taken during it; the samples' own time is taken out of the ops.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        for _ in range(REF_MIN_SAMPLES):
            self._sample()

    def _sample(self, *_):
        start = time.perf_counter()
        x, acc = np.ones(4), 0.0
        for _ in range(REF_ITERATIONS):
            x = _REF_MATRIX @ x + 1.0
            acc += float(np.linalg.norm(x))
            f"{acc:.17g}"
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def units(self, seconds: float, first_sample: int) -> float:
        """``seconds`` of work done since sample ``first_sample``, in reference loops."""
        recent = self.samples[min(first_sample, len(self.samples) - REF_MIN_SAMPLES):]
        return seconds * statistics.fmean(1.0 / t for t in recent)


def require_program() -> Path:
    """The package directory under this checkout's ``src``; exits when it is missing."""
    package = SRC / "crossdim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package}")
    return package


def import_program():
    """Import ``crossdim.cli`` from this checkout's ``src``, and nowhere else."""
    package = require_program()
    sys.path.insert(0, str(SRC))
    import crossdim.cli

    if Path(crossdim.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported crossdim from {crossdim.__file__}, not {package}")
    return crossdim.cli


def measure_setup(workload: str, seed: int, workdir: Path) -> list:
    """Wall times of fresh processes that start, import crossdim and generate inputs."""
    times = []
    for k in range(SETUP_RUNS):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", "0", "--setup-probe", str(workdir / f"setup{k}")]
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


class Bench:
    """Runs passes of one workload and keeps timings, failures and first artifacts."""

    def __init__(self, cli, workload: str, inputs: dict, workdir: Path):
        self.cli = cli
        self.ops = WORKLOADS[workload]
        self.inputs = inputs
        self.workdir = workdir
        self.first = {}  # op index -> (digest, artifact dir) of its first success
        self.repeats = Counter()  # op index -> runs reproducing the first artifacts
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.pass_of_op = {}
        self.tracer = None
        self.sampler = SpeedSampler()

    def _run_op(self, op_id: int, index: int) -> float:
        command, scenario = self.ops[index]
        fresh = index not in self.first
        out = self.workdir / ("first" if fresh else "current") / f"{index}-{command}-{scenario}"
        shutil.rmtree(out, ignore_errors=True)
        argv = [command, "--config", self.inputs[scenario]["path"], "--out", str(out)]
        if self.tracer is not None:
            self.tracer.op = op_id
        spent = self.sampler.spent
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a traceback is a failed op
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start - (self.sampler.spent - spent)
        self.attempted += 1
        problem = None
        if code != 0:
            problem = f"exit code {code!r}"
        elif fresh:
            self.first[index] = (oracle.digest(out), out)
            self.repeats[index] += 1
        elif oracle.digest(out) != self.first[index][0]:
            problem = "artifacts differ from the first pass"
        else:
            self.repeats[index] += 1
        if problem:
            self.failed += 1
            self.failures.append(f"op {op_id} ({command} {scenario}): {problem}")
        return seconds

    def run_pass(self, pass_no: int) -> tuple:
        """(seconds per op, the pass in reference units) for one pass."""
        first_sample = len(self.sampler.samples)
        seconds = []
        for index in range(len(self.ops)):
            op_id = pass_no * len(self.ops) + index
            self.pass_of_op[op_id] = pass_no
            seconds.append(self._run_op(op_id, index))
        return seconds, self.sampler.units(sum(seconds), first_sample)

    def run_passes(self, budget: float, min_passes: int, first_pass_no: int = 0) -> list:
        """Passes until the next one would end after ``budget`` seconds."""
        passes = []
        start = time.perf_counter()
        with self.sampler:
            while len(passes) < min_passes or (
                time.perf_counter() - start + statistics.median(sum(p[0]) for p in passes) <= budget
            ):
                passes.append(self.run_pass(first_pass_no + len(passes)))
        return passes

    def check_outputs(self, raw_inputs: dict, seed: int):
        """Oracle checks of every op's first artifacts; a failure fails every run that matched them."""
        rng = np.random.default_rng(seed)
        for index, (_, out) in sorted(self.first.items()):
            command, scenario = self.ops[index]
            problems = oracle.check(command, raw_inputs[scenario], out, rng)
            if problems:
                self.failed += self.repeats[index]
                self.failures += [f"{command} {scenario}: {p}" for p in problems]

    def csv_totals(self):
        """(rows, bytes) of CSV artifacts one pass writes."""
        dirs = [out for _, out in self.first.values()]
        rows = sum(oracle.csv_rows(d) for d in dirs)
        size = sum(p.stat().st_size for d in dirs for p in d.glob("*.csv"))
        return rows, size


def _tail(values: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def _read(path: Path, default=None):
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return default


def provenance() -> dict:
    """Machine, library versions, commit and source digest of this run."""
    cpuinfo = _read(Path("/proc/cpuinfo"), "")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level.strip()}{'' if kind is None else kind.strip()[0].lower()}"] = size.strip()
    commit = None
    head = _read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref:"):
        commit = (_read(ROOT / ".git" / head.split(":", 1)[1].strip()) or "").strip() or None
    elif head:
        commit = head.strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "crossdim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(str(path.relative_to(SRC)).encode())
            src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else None,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def cmd_seconds(ops, passes: list, units: bool = False) -> dict:
    """Median per-pass seconds (or reference units) of each command group, 0 where absent."""
    out = {}
    scale = [p[1] / sum(p[0]) if units else 1.0 for p in passes]
    for group in GROUPS:
        idx = [i for i, (command, _) in enumerate(ops) if command_group(command) == group]
        out[group] = statistics.median(
            k * sum(p[0][i] for i in idx) for k, p in zip(scale, passes)) if idx else 0.0
    return out


def run_worker(args) -> dict:
    """The timed passes of one worker process, their checks, and (traced) its layer metrics."""
    workdir = Path(args.worker)
    cli = import_program()
    inputs = generate_inputs(SCENARIOS, args.workload, args.seed, workdir / "inputs")
    bench = Bench(cli, args.workload, inputs, workdir)
    out = {}
    if args.trace == 0:
        passes = bench.run_passes(args.seconds, 1)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        started = time.perf_counter()
        passes = bench.run_passes(args.seconds / 3.0, 1)
        tracer = bench.tracer = Tracer()
        tracer.install()
        try:
            traced = bench.run_passes(args.seconds - (time.perf_counter() - started), 1, len(passes))
        finally:
            tracer.uninstall()
            bench.tracer = None
    bench.check_outputs(
        {name: json.loads(Path(v["path"]).read_text(encoding="utf-8")) for name, v in inputs.items()},
        args.seed,
    )
    rows, csv_bytes = bench.csv_totals()
    if args.trace == 1:
        metrics = layer_metrics(
            tracer.spans, tracer.errors, bench.pass_of_op, len(traced), rows, csv_bytes)
        metrics.update(
            {f"cmd.{k}_s": _metric(v, "s") for k, v in cmd_seconds(bench.ops, passes).items()})
        metrics["trace_overhead_ratio"] = _metric(
            statistics.median(p[1] for p in traced) / statistics.median(p[1] for p in passes), "ratio")
        spans_path = OUT / "results" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        first_traced = len(passes) * len(bench.ops)
        out.update({
            "layer_metrics": metrics,
            "traced_pass_s": [sum(p[0]) for p in traced],
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "op_breakdown_s": {
                f"{command} {scenario}": dict(list(op_breakdown(
                    tracer.spans, [first_traced + i]).items())[:8])
                for i, (command, scenario) in enumerate(bench.ops)
            },
        })
    out.update({
        "passes": passes,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "digests": {str(i): digest for i, (digest, _) in bench.first.items()},
        "repeats": {str(i): n for i, n in bench.repeats.items()},
        "csv_rows": rows,
    })
    return out


def spawn_worker(args, workdir: Path, seconds: float) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--trace", str(args.trace), "--worker", str(workdir)]
    done = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def run(args) -> tuple:
    """Run one benchmark invocation; returns (details, result)."""
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results = OUT / "results"
    try:
        require_program()
        results.mkdir(parents=True, exist_ok=True)
        inputs = generate_inputs(SCENARIOS, args.workload, args.seed, workdir / "inputs")
        ops = WORKLOADS[args.workload]
        details = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds}
        count = WORKERS if args.trace == 0 else 1
        setup_times = measure_setup(args.workload, args.seed, workdir) if args.trace == 0 else []
        workers = [spawn_worker(args, workdir / f"worker{k}", args.seconds / count) for k in range(count)]
        if args.trace == 0:
            setup_times += measure_setup(args.workload, args.seed, workdir)
        attempted = sum(w["attempted"] for w in workers)
        failed = sum(w["failed"] for w in workers)
        failures = [f"worker {k}: {f}" for k, w in enumerate(workers) for f in w["failures"]]
        for k, w in enumerate(workers[1:], 1):
            for index, digest in w["digests"].items():
                if digest != workers[0]["digests"].get(index):
                    failed += w["repeats"][index]
                    failures.append(f"worker {k}: op {index} artifacts differ from worker 0's")
        passes = [p for w in workers for p in w["passes"]]
        pass_s = [sum(p[0]) for p in passes]
        pass_ref = [p[1] for p in passes]
        if args.trace == 0:
            metrics = {
                "setup_s": _metric(statistics.median(setup_times), "s"),
                "pass_ref": _metric(statistics.median(pass_ref), "ref"),
                "peak_rss_mb": _metric(max(w["peak_rss_mb"] for w in workers), "MB"),
            }
            details["setup_s_all"] = setup_times
            details["peak_rss_mb_all"] = [w["peak_rss_mb"] for w in workers]
        else:
            metrics = workers[0].pop("layer_metrics")
            details.update({k: v for k, v in workers[0].items() if k not in
                            ("passes", "attempted", "failed", "failures", "digests", "repeats", "csv_rows")})
        rows = workers[0]["csv_rows"]
        details.update({
            "passes_per_worker": [len(w["passes"]) for w in workers],
            "pass_s": statistics.median(pass_s),
            "rows_per_s": statistics.median(rows / s for s in pass_s),
            "pass_s_all": pass_s,
            "pass_s_tail": _tail(pass_s),
            "pass_ref_all": pass_ref,
            "op_s": {f"{command} {scenario}": statistics.median(p[0][i] for p in passes)
                     for i, (command, scenario) in enumerate(ops)},
            "cmd_s": cmd_seconds(ops, passes),
            "cmd_ref": cmd_seconds(ops, passes, units=True),
            "csv_rows_per_pass": rows,
            "op_fail_ratio": failed / attempted,
            "failures": failures[:20],
            "inputs": {name: v["sha256"] for name, v in inputs.items()},
            "provenance": provenance(),
        })
        (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(details, indent=1) + "\n", encoding="utf-8")
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        return details, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--worker", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        import_program()
        generate_inputs(SCENARIOS, args.workload, args.seed, Path(args.setup_probe))
        return 0
    if args.worker:
        print(json.dumps(run_worker(args)))
        return 0
    details, result = run(args)
    print(json.dumps(details, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
