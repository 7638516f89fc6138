"""The rootheight benchmark: one command, four workloads, golden-checked.

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is taken from ``src/`` next to this
directory.  Every job runs in a fresh interpreter, one at a time (one
closed-loop client), because every real CLI call pays cold caches and
imports.  A *pass* is a workload's fixed list of jobs; passes repeat until
``--seconds`` have gone by, so at least one always runs.  The last line of
stdout is the result as JSON; the lines before it record the environment
and each metric.  ``--trace 1`` adds one traced pass after the untraced
ones and reports the per-layer metrics of ``BENCHMARK.json`` instead of the
end-to-end ones.  See ``NOTES.md`` for why each workload is there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import HostSpeed, pin_to_one_cpu
from munagi_client import REQUESTS as MUNAGI_REQUESTS
from tracer import MODULES, TRACE_MARK

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = json.loads((BENCH / "golden.json").read_text())

CLI_WORKLOADS = {
    "catalog": [["verify", "all", "--format", "json"]],
    "large_h": [["verify", "A", "16", "--format", "json"]],
    "construction": [
        ["info", "A", "60", "--format", "json"],
        ["info", "C", "48", "--format", "json"],
        ["verify", "D", "6", "--props", "eq5", "--bfs-cap", "23040",
         "--format", "json"],
    ],
}
WORKLOADS = (*CLI_WORKLOADS, "munagi")
SETUP_SPAWNS = 7
DEADLINE_S = 170  # every run ends in well under 180 s, even on a hung job
# Fixed here rather than read from the package, so metric names stay put.
CHECK_IDS = tuple(f"prop{i}" for i in range(1, 20)) + (
    "eq5", "eq12", "eq13", "eq19", "eq20", "mirimanoff", "cohen")


class Proc:
    """One finished child process: its output and its own resource use."""

    def __init__(self, code, out, err, wall, cpu, rss_mb):
        self.code, self.out, self.err = code, out, err
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"  # same iteration orders, so traced counts repeat
    env.pop("ROOTHEIGHT_BFS_CAP", None)
    return env


def spawn(argv, deadline):
    """Run ``argv`` to completion; wall, user+system CPU and peak RSS come
    from ``wait4`` on that child (its own waited-for children included)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         cwd=ROOT, env=child_env())
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0), p.kill)
    watchdog.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
    reader.start()
    out = p.stdout.read()
    reader.join()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    watchdog.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    return Proc(p.returncode, out, err[0].decode(errors="replace"), wall,
                ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024)


def judge_cli(argv, proc):
    """Why this CLI job failed, or None: exit code, every verdict a pass,
    and stdout byte-identical to the golden."""
    if proc.code != 0:
        return f"exit code {proc.code}: {proc.err.strip()[-300:]}"
    want = GOLDEN["jobs"][" ".join(argv)]
    got = hashlib.sha256(proc.out).hexdigest()
    if got != want:
        return f"stdout sha256 {got} differs from golden {want}"
    if argv[0] == "verify":
        bad = [f"{doc['system']}:{c['id']}" for doc in json.loads(proc.out)
               for c in doc["checks"] if c["verdict"] != "pass"]
        if bad:
            return "non-pass verdicts: " + ", ".join(bad[:5])
    return None


class Pass:
    """Totals of one pass over a workload's jobs."""

    def __init__(self):
        self.wall = self.cpu = self.rss_mb = self.busy = 0.0
        self.latencies = []
        self.starts = []  # perf_counter when each request started
        self.attempted = self.failed = 0
        self.traces = []
        self.why = []
        self.start = time.perf_counter()
        self.end = self.start
        self.factor = 1.0

    def add_proc(self, proc):
        self.wall += proc.wall
        self.cpu += proc.cpu
        self.rss_mb = max(self.rss_mb, proc.rss_mb)

    def scale(self, speed):
        """Turn measured times into times at the nominal host speed: the
        pass's totals by the speed over the pass, each request by the speed
        while it ran."""
        self.factor = speed.factor(self.start, self.end)
        self.wall *= self.factor
        self.cpu *= self.factor
        self.busy *= self.factor
        self.latencies = [x * speed.factor(t, t + x)
                          for x, t in zip(self.latencies, self.starts)]


def run_pass(workload, seed, index, traced, deadline):
    res = Pass()
    py = sys.executable
    if workload == "munagi":
        argv = [py, str(BENCH / "munagi_client.py"), "--seed", f"{seed}:{index}",
                "--trace", str(int(traced))]
        proc = spawn(argv, deadline)
        try:
            doc = json.loads(proc.out.decode().splitlines()[-1])
        except (IndexError, ValueError):
            res.add_proc(proc)
            res.attempted = res.failed = MUNAGI_REQUESTS
            res.why.append(f"munagi client exit {proc.code}: {proc.err.strip()[-300:]}")
            res.latencies, res.starts = [proc.wall], [res.start]
            res.busy = proc.wall
            res.end = time.perf_counter()
            return res
        # The client's own work, making requests and checking results, is
        # not the program's: take it out of the pass's wall and CPU time.
        proc.wall -= doc["own_ns"] / 1e9
        proc.cpu -= doc["own_cpu_ns"] / 1e9
        res.add_proc(proc)
        res.attempted, res.failed = doc["attempted"], doc["failed"]
        res.why.extend(doc["failures"])
        res.latencies = [ns / 1e9 for ns in doc["latencies_ns"]]
        res.starts = [ns / 1e9 for ns in doc["starts_ns"]]
        res.busy = doc["loop_ns"] / 1e9
        if doc["trace"]:
            res.traces.append(doc["trace"])
        res.end = time.perf_counter()
        return res

    runner = [py, str(BENCH / "traced_cli.py")] if traced else [py, "-m", "rootheight"]
    for job in CLI_WORKLOADS[workload]:
        proc = spawn(runner + job, deadline)
        res.add_proc(proc)
        err = proc.err
        if traced and TRACE_MARK in err:
            err, _, trace = err.rpartition(TRACE_MARK)
            res.traces.append(json.loads(trace))
            proc.err = err
        res.attempted += 1
        why = judge_cli(job, proc)
        if why:
            res.failed += 1
            res.why.append(f"{' '.join(job)}: {why}")
    # On a CLI workload the request is the whole pass, the job list one user runs.
    res.latencies, res.starts = [res.wall], [res.start]
    res.busy = res.wall
    res.end = time.perf_counter()
    return res


def setup_seconds(deadline):
    """Median time from spawning an interpreter to having imported
    ``rootheight.cli``, after one unmeasured spawn that writes bytecode;
    and the ``perf_counter`` span the measured spawns took."""
    argv = [sys.executable, "-c", "import rootheight.cli"]
    spawn(argv, deadline)
    times = []
    start = time.perf_counter()
    for _ in range(SETUP_SPAWNS):
        proc = spawn(argv, deadline)
        if proc.code != 0:
            raise RuntimeError(f"cannot import rootheight.cli: {proc.err.strip()}")
        times.append(proc.wall)
    return statistics.median(times), start, time.perf_counter()


def percentile(values, q):
    """Nearest-rank percentile; with n values, q=0.99 leaves floor(n/100)
    values above it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(passes, setup_s):
    latencies = [x for p in passes for x in p.latencies]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # A p99 needs ten samples beyond it; the few passes of a CLI run have
    # no such tail, so there it repeats the median.
    tail = (percentile(latencies, 0.99) if len(latencies) >= 1000
            else statistics.median(latencies))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        "ops_per_s": (len(latencies) / sum(p.busy for p in passes), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p99_ms": (tail * 1e3, "ms"),
    }


def per_layer(traced, untraced_wall):
    """Per-layer metrics from the trace summaries of one traced pass."""
    recs, distinct = {}, {}
    totals = {"fraction_new": 0, "context_misses": 0, "bfs_products": 0,
              "bfs_elements": 0}
    for t in traced.traces:
        for name, (calls, total, own) in t["records"].items():
            r = recs.setdefault(name, [0, 0, 0])
            r[0] += calls
            r[1] += total
            r[2] += own
        for name, n in t["distinct"].items():
            distinct[name] = distinct.get(name, 0) + n
        for key in totals:
            totals[key] += t[key]

    def calls(name):
        return recs.get(name, [0, 0, 0])[0]

    def secs(name):
        return recs.get(name, [0, 0, 0])[1] / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    count, s, r = "count", "s", "ratio"
    out = {
        "exactalg.cyc_mul.count": (calls("exactalg.cyc_mul"), count),
        "exactalg.cyc_inverse.count": (calls("exactalg.cyc_inverse"), count),
        "exactalg.cyc_inverse.distinct_ratio": (
            ratio(distinct.get("exactalg.cyc_inverse", 0), calls("exactalg.cyc_inverse")), r),
        "exactalg.fraction_new.count": (totals["fraction_new"], count),
        "exactalg.poly_mul.count": (calls("exactalg.poly_mul"), count),
        "exactalg.poly_divmod.count": (calls("exactalg.poly_divmod"), count),
        "exactalg.ratfun_add.count": (calls("exactalg.ratfun_add"), count),
        "exactalg.context.misses": (totals["context_misses"], count),
        "numth.ramanujan_sum.count": (calls("numth.ramanujan_sum"), count),
        "numth.ramanujan_sum.distinct_ratio": (
            ratio(distinct.get("numth.ramanujan_sum", 0), calls("numth.ramanujan_sum")), r),
        "linalg.det.calls": (calls("linalg.det"), count),
        "linalg.det.s": (secs("linalg.det"), s),
        "linalg.charpoly_int.s": (secs("linalg.charpoly_int"), s),
        "linalg.lu_factor.s": (secs("linalg.lu_factor"), s),
        "linalg.lu_solve.calls": (calls("linalg.lu_solve"), count),
        "linalg.lu_solve.s": (secs("linalg.lu_solve"), s),
        "rootsys.build.s": (secs("rootsys.build"), s),
        "rootsys.coxeter_element.s": (secs("rootsys.coxeter_element"), s),
        "rootsys.mat_mul.count": (calls("rootsys.mat_mul"), count),
        "rootsys.weyl_bfs.s": (secs("rootsys.weyl_bfs"), s),
        "rootsys.weyl_bfs.products_per_element": (
            ratio(totals["bfs_products"], totals["bfs_elements"]), r),
        "rootsys.weyl_product.s": (secs("rootsys.weyl_product"), s),
    }
    for cid in CHECK_IDS:
        out[f"identities.check.{cid}.s"] = (secs(f"identities.run_check[{cid}]"), s)
    for fn in ("lagrange_primitive_roots", "munagi_decompose"):
        out[f"identities.{fn}.s"] = (secs(f"identities.{fn}"), s)
        out[f"identities.{fn}.calls"] = (calls(f"identities.{fn}"), count)
    out["identities.lagrange_all_roots.s"] = (secs("identities.lagrange_all_roots"), s)
    out["cli.json_dump.s"] = (secs("cli.json_dump"), s)
    for mod in MODULES:
        own = sum(v[2] for k, v in recs.items() if k.split(".", 1)[0] == mod)
        out[f"{mod}.self_s"] = (own / 1e9, s)
    out["trace_overhead_ratio"] = (traced.wall / untraced_wall, r)
    return out


def environment(args):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
            "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "platform": platform.platform()}


def main(argv=None):
    ap = argparse.ArgumentParser(description="rootheight benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rootheight" / "cli.py").is_file():
        print(f"bench: no rootheight package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment(args)
    env["cpu"] = pin_to_one_cpu()
    deadline = time.monotonic() + DEADLINE_S
    with HostSpeed() as speed:
        setup_measured, *setup_span = setup_seconds(deadline)
        passes = []
        longest = 0.0
        start = time.monotonic()
        # Start a pass only if one as long as the longest so far still ends
        # within --seconds, so a run does not overrun by up to a whole pass.
        while not passes or time.monotonic() - start + longest <= args.seconds:
            t0 = time.monotonic()
            passes.append(run_pass(args.workload, args.seed, len(passes), False, deadline))
            longest = max(longest, time.monotonic() - t0)
        runs = list(passes)
        if args.trace:
            runs.append(run_pass(args.workload, args.seed, 0, True, deadline))
    measured_wall = [round(p.wall, 4) for p in runs]
    setup_s = setup_measured * speed.factor(*setup_span)
    for p in runs:
        p.scale(speed)
    if args.trace:
        metrics = per_layer(runs[-1], statistics.median(p.wall for p in passes))
    else:
        metrics = end_to_end(passes, setup_s)

    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    env["loadavg_end"] = os.getloadavg()
    env["passes"] = len(passes)
    env["probe_median_ns"] = speed.median_ns()
    env["setup_measured_s"] = round(setup_measured, 4)
    env["pass_wall_measured_s"] = measured_wall
    env["pass_speed_factor"] = [round(p.factor, 4) for p in runs]
    print("env " + json.dumps(env))
    for why in [w for p in runs for w in p.why][:10]:
        print(f"FAILED {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
