"""Alternating parent/change pairs of the benchmark, written as BENCH_<n>.json.

    python tools/bench_pairs.py --parent HEAD~1 --change HEAD --number 46 \\
        --workload oracle-1e6=4600 --workload converge-k80=4610 \\
        --title "..." --description "..."

Both commits are exported with ``git archive`` into fresh directories.  For
each workload, pair i runs

    python3 perfbench/run.py --workload W --seed S+i --seconds T --trace 0

in the parent's copy and in the change's, one after the other, the parent
first in even pairs and the change first in odd ones, one process at a
time, with PYTHONDONTWRITEBYTECODE=1 and no PYTHONPATH.  The run length T
is BENCHMARK.json's ``run_seconds``.  With --trace W=S, one traced run per
side of workload W at seed S is added.

The file holds every run made (``runs``), and per workload and end-to-end
metric of BENCHMARK.json: each side's median and quartiles (numpy linear
percentiles 25 and 75), the pairs the change wins and loses (ties count
for neither), the median's relative change, how much worse that is in the
metric's direction (0 when better), the metric's bound and the parent's
quartile distance.  ``notes`` start empty: the author writes what the runs
show.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = "python3 perfbench/run.py --workload {workload} --seed {seed} --seconds {seconds:g} --trace {trace}"


def export(commit: str, into: str) -> str:
    """A ``git archive`` copy of ``commit`` of this repository, in ``into``."""
    os.makedirs(into)
    archive = subprocess.run(["git", "-C", ROOT, "archive", commit], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return into


def resolve(commit: str) -> str:
    return subprocess.run(["git", "-C", ROOT, "rev-parse", commit], check=True, capture_output=True,
                          text=True).stdout.strip()


def run_benchmark(tree: str, workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """One benchmark run in ``tree``: its return code, the machine it
    describes and the JSON object of its last line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = COMMAND.format(workload=workload, seed=seed, seconds=seconds, trace=trace).split()
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    info = next((json.loads(line[4:]) for line in lines if line.startswith("run ")), {})
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    return {"returncode": proc.returncode, "machine": info.get("machine"), "correct": result.get("correct", False),
            "attempted": result.get("attempted", 0), "failed": result.get("failed", 0),
            "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()}}


def summarize(runs: List[Dict], end_to_end: List[Dict]) -> Dict:
    """Per workload of ``runs`` (untraced), its seeds, pair count and, per
    end-to-end metric, both sides' median and quartiles, the change's wins
    and losses over the pairs, and its relative shift."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if not r["trace"]):
        pairs: Dict[int, Dict[str, Dict]] = {}
        for r in runs:
            if r["workload"] == workload and not r["trace"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = {i: sides for i, sides in sorted(pairs.items()) if len(sides) == 2}
        metrics = {}
        for spec in end_to_end:
            name, lower = spec["name"], spec["better"] == "lower"
            values = {side: [sides[side]["metrics"][name] for sides in pairs.values()]
                      for side in ("parent", "change")}
            stats = {side: {"median": float(np.median(v)), "q1": float(np.percentile(v, 25)),
                            "q3": float(np.percentile(v, 75)), "n": len(v)} for side, v in values.items()}
            better = [(c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])]
            worse = [(c > p) if lower else (c < p) for p, c in zip(values["parent"], values["change"])]
            parent, change = stats["parent"]["median"], stats["change"]["median"]
            shift = (change - parent) / parent if parent else 0.0
            metrics[name] = {
                **stats,
                "change_wins": sum(better),
                "change_losses": sum(worse),
                "median_change_relative": shift,
                "worse_by_relative": max(shift if lower else -shift, 0.0),
                "bound": spec["bound"],
                "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
            }
        seeds = [sides["parent"]["seed"] for sides in pairs.values()]
        summary[workload] = {"seeds": seeds, "pairs": len(pairs), "metrics": metrics}
    return summary


def medians(summary: Dict) -> Dict:
    return {workload: {name: {side: m[side]["median"] for side in ("parent", "change")}
                       for name, m in entry["metrics"].items()} for workload, entry in summary.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="the parent commit")
    parser.add_argument("--change", help="the commit of the change")
    parser.add_argument("--number", type=int, help="n of the BENCH_<n>.json written at the root of the repository")
    parser.add_argument("--workload", action="append", default=[], metavar="NAME=SEED",
                        help="a workload and the seed of its first pair (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", metavar="NAME=SEED", help="one traced run per side of this workload")
    parser.add_argument("--title", default="")
    parser.add_argument("--description", default="", help="what the change does")
    parser.add_argument("--workdir", help="where the copies go (default: a temporary directory)")
    args = parser.parse_args(argv)
    if not (args.parent and args.change and args.workload and args.number is not None):
        parser.error("--parent, --change, --workload and --number are required")
    return args


def _named_seed(text: str):
    name, _, seed = text.partition("=")
    return name, int(seed)


def main(argv=None) -> int:
    args = parse_args(argv)
    parent, change = resolve(args.parent), resolve(args.change)
    with tempfile.TemporaryDirectory(dir=args.workdir) as scratch:
        trees = {"parent": export(parent, os.path.join(scratch, "parent")),
                 "change": export(change, os.path.join(scratch, "change"))}
        with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            benchmark = json.load(fh)
        seconds = benchmark["run_seconds"]
        runs, seeds, machine = [], {}, None
        for workload, first_seed in map(_named_seed, args.workload):
            seeds[workload] = list(range(first_seed, first_seed + args.pairs))
            for pair, seed in enumerate(seeds[workload]):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    result = run_benchmark(trees[side], workload, seed, seconds, 0)
                    found = result.pop("machine")
                    machine = machine or found
                    runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                                 "order": position, "trace": 0, **result})
                    print(f"{workload} seed {seed} {side}: {result['metrics'].get('op_s_p50')}", file=sys.stderr)
        trace = {}
        if args.trace:
            workload, seed = _named_seed(args.trace)
            for position, side in enumerate(("parent", "change")):
                result = run_benchmark(trees[side], workload, seed, seconds, 1)
                result.pop("machine", None)
                runs.append({"workload": workload, "seed": seed, "pair": 0, "side": side, "order": position,
                             "trace": 1, **result})
                trace[side] = result["metrics"]
    summary = summarize(runs, benchmark["end_to_end"])
    record = {
        "title": args.title,
        "parent_commit": parent,
        "change_commit": change,
        "change": args.description,
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds:g} --trace 0",
        "machine": machine,
        "protocol": (
            f"Each pair runs the parent checkout and the change, one after the other, with the same workload "
            f"and seed; the side that runs first alternates from pair to pair (order 0 = first; the parent runs "
            f"first on even pair indices). Both sides are git archive copies of the committed files (parent "
            f"{parent[:7]}, change {change[:7]}) in separate directories, run with PYTHONDONTWRITEBYTECODE=1 "
            f"and no PYTHONPATH, one process at a time. Timing metrics are the benchmark's speed-corrected "
            f"values. Quartiles are numpy linear percentiles 25 and 75 over the runs of one side. "
            f"{args.pairs} pairs per workload. Every run made is listed in 'runs'."),
        "seeds": seeds,
        "summary": summary,
        "medians": medians(summary),
        "trace": trace,
        "runs": runs,
        "notes": [],
    }
    out = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
