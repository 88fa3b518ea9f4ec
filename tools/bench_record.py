"""Record alternated parent/change runs of perfbench in a BENCH_<n>.json.

    python3 tools/bench_record.py --parent DIR --change DIR --workload NAME \
        --seeds FIRST-LAST --seconds 30 --record BENCH_<n>.json

DIR is a checkout of each side (a git clone of the parent commit, a copy of
the change). For each seed, both sides run ``perfbench/run.py --workload
NAME --seed SEED --seconds S --trace 0`` from their own checkout, the parent
first on even pairs and the change first on odd ones. The workload's pairs
and the median and quartiles of ``setup_s``, ``pass_ref`` and
``peak_rss_mb`` on each side go into the record under the workload's name,
beside the entries of workloads recorded before; each side's commit,
source digest and provenance come from perfbench's details line.  The
record is rewritten after every pair, and a single pair has a median but
no quartiles.  After the last pair it prints one line per metric, such as

    analysis-sweep pass_ref: parent 61.9 (q 61.1-62.3) -> change 54.2 (q 53.9-54.8), change lower in 5/5

and then one line per side, such as

    analysis-sweep change: 5/5 runs correct, 0/1250 ops failed

so that a change log can quote the record as it stands.  A run that exits
non-zero stops the tool with exit code 2, after printing its side, seed,
exit code and the tail of its stderr.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "pass_ref", "peak_rss_mb")
SIDES = ("parent", "change")


def run(checkout: str, workload: str, seed: int, seconds: str) -> tuple:
    """perfbench's details and result objects, its last two output lines."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", seconds, "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    details, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(details), json.loads(result)


def spread(values: list) -> dict:
    if len(values) < 2:
        return {"median": statistics.median(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list) -> dict:
    """Each metric's median and quartiles per side, and how many pairs the
    change side reads lower in."""
    summary = {name: {side: spread([p[side][name] for p in pairs]) for side in SIDES}
               for name in METRICS}
    for name in METRICS:
        summary[name]["change_lower_in"] = sum(p["change"][name] < p["parent"][name] for p in pairs)
    return summary


def summary_lines(workload: str, pairs: list) -> list:
    """One line per metric: parent -> change median (quartiles), change-lower
    count; then one line per side: correct runs and failed ops."""
    def side(s: dict) -> str:
        q = f" (q {s['q1']:.4g}-{s['q3']:.4g})" if "q1" in s else ""
        return f"{s['median']:.4g}{q}"

    summary = summarize(pairs)
    lines = [f"{workload} {name}: parent {side(summary[name]['parent'])} -> change "
             f"{side(summary[name]['change'])}, change lower in "
             f"{summary[name]['change_lower_in']}/{len(pairs)}" for name in METRICS]
    for label in SIDES:
        runs = [p[label] for p in pairs]
        lines.append(f"{workload} {label}: {sum(r['correct'] is True for r in runs)}/{len(runs)} "
                     f"runs correct, {sum(r['failed'] for r in runs)}/"
                     f"{sum(r['attempted'] for r in runs)} ops failed")
    return lines


def write(path: Path, workload: str, seeds: list, seconds: float, pairs: list, provenance: dict):
    """Put the workload's pairs and their summary into the record at ``path``."""
    record = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    for side in SIDES:
        prov = provenance[side]
        record[side] = {"commit": prov["commit"], "src_sha256": prov["src_sha256"],
                        "provenance": prov}
    record["workloads"][workload] = {
        "seeds": seeds, "seconds": seconds, "pairs_run": len(pairs),
        "summary": summarize(pairs), "pairs": pairs}
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="FIRST-LAST, inclusive")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--record", required=True)
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    checkouts = {"parent": args.parent, "change": args.change}
    pairs, provenance = [], {}
    for i, seed in enumerate(range(first, last + 1)):
        pair = {"seed": seed, "order": list(SIDES if i % 2 == 0 else SIDES[::-1])}
        for side in pair["order"]:
            try:
                details, result = run(checkouts[side], args.workload, seed, args.seconds)
            except subprocess.CalledProcessError as failed:
                tail = "\n".join((failed.stderr or "").splitlines()[-20:])
                print(f"{side} run of seed {seed} exited with {failed.returncode}:\n{tail}",
                      file=sys.stderr)
                return 2
            provenance.setdefault(side, details["provenance"])
            pair[side] = {name: result["metrics"][name]["value"] for name in METRICS}
            pair[side].update(correct=result["correct"], failed=result["failed"],
                              attempted=result["attempted"], cmd_ref=details["cmd_ref"])
        pairs.append(pair)
        print(json.dumps(pair), flush=True)
        write(Path(args.record), args.workload, [first, last], float(args.seconds), pairs,
              provenance)
    print("\n".join(summary_lines(args.workload, pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
