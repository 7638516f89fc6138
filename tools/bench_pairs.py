"""Paired bench runs of two commits, written as BENCH_<pr>.json.

    python3 tools/bench_pairs.py <parent-rev> <change-rev> --pr 23

clones the repository twice into a temporary directory (`git clone
--no-checkout`), checks one revision out detached in each clone and runs
`bench/run.py` of each checkout on every workload of BENCHMARK.json
(`--trace 0`, for its `run_seconds`) in 10 alternating pairs: pair k runs
the parent first when k is even and the change first when k is odd, both
with seed <pr>01 + k.  Each run's `env` line is kept verbatim.  Every
end-to-end metric is summarised per side by its median and quartiles over
the pairs (`statistics.quantiles(n=4, method='inclusive')`), by
`change_wins`, the number of pairs in which the change is strictly better,
and by `median_change`, the change's median relative to the parent's.  The
clones go with the temporary directory.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def parse_run(stdout):
    """One bench/run.py result: its env line verbatim and its closing JSON
    line, with each metric reduced to its value."""
    lines = stdout.strip().splitlines()
    env = next(line for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "env": env}


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def aggregate(runs, end_to_end):
    """The per-metric summary of one workload's pairs of runs, in the order
    of BENCHMARK.json's end_to_end list."""
    out = {}
    for spec in end_to_end:
        name, better = spec["name"], spec["better"]
        values = {side: [run[side]["metrics"][name] for run in runs] for side in SIDES}
        parent, change = (summarise(values[side]) for side in SIDES)
        sign = 1 if better == "higher" else -1
        wins = sum(1 for p, c in zip(values["parent"], values["change"]) if sign * (c - p) > 0)
        base = parent["median"]
        out[name] = {"better": better, "bound": spec["bound"], "parent": parent,
                     "change": change, "change_wins": wins,
                     "median_change": (change["median"] - base) / base if base else 0.0}
    return out


def bench_run(checkout, workload, seed, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=True)
    return parse_run(done.stdout)


def paired_runs(checkouts, workload, seeds, seconds):
    runs = []
    for k, seed in enumerate(seeds):
        first, second = SIDES if k % 2 == 0 else SIDES[::-1]
        run = {"pair": k, "first": first, "seed": seed}
        for side in (first, second):
            run[side] = bench_run(checkouts[side], workload, seed, seconds)
            print(f"{workload} pair {k} {side}: wall_s "
                  f"{run[side]['metrics']['wall_s']:.4f}", file=sys.stderr)
        runs.append(run)
    return runs


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="revision of the parent")
    ap.add_argument("change", help="revision of the change")
    ap.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in zip(SIDES, (args.parent, args.change))}
    seeds = [args.pr * 100 + 1 + k for k in range(PAIRS)]
    seconds = f"{spec['run_seconds']:g}"

    doc = {
        "what": "bench/run.py end-to-end metrics of the parent and the change, "
                f"{PAIRS} alternating pairs per workload (pair k: parent first when "
                "k is even); each run's env line is kept verbatim",
        "command": f"python3 bench/run.py --workload <w> --seed <seed> --seconds {seconds} "
                   "--trace 0",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the pairs",
        "host": f"{os.cpu_count()}-core {platform.machine()}, "
                f"{platform.python_implementation()} {platform.python_version()}, "
                "PYTHONDONTWRITEBYTECODE=1 in the runs' environment",
        "commits": commits, "pairs": PAIRS, "seeds": seeds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            git("clone", "--quiet", "--no-checkout", str(ROOT), str(checkouts[side]))
            git("-C", str(checkouts[side]), "checkout", "--quiet", "--detach", commits[side])
        for workload in (w["name"] for w in spec["workloads"]):
            runs = paired_runs(checkouts, workload, seeds, seconds)
            doc["workloads"][workload] = {
                "metrics": aggregate(runs, spec["end_to_end"]), "runs": runs}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
