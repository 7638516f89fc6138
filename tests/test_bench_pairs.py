"""tools/bench_pairs.py: the parsing of bench/run.py results and their
aggregation into BENCH_<pr>.json summaries, on synthetic result lines and on
the runs stored in BENCH_20.json, and the checkouts that `main` makes.  No
process is started."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "pass_ratio", "better": "higher", "bound": 0.01},
              {"name": "ops_per_s", "better": "higher", "bound": 0.25}]


@pytest.fixture(autouse=True)
def no_subprocess(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"started a process: {args}")

    monkeypatch.setattr(bench_pairs.subprocess, "run", refuse)


def flat(summary):
    """A metric summary with its nested parent and change dicts flattened,
    so that pytest.approx can compare it."""
    return {(key, sub): v for key, value in summary.items()
            for sub, v in (value.items() if isinstance(value, dict) else [(None, value)])}


def result_lines(wall, ops, commit="abc"):
    """The stdout of one bench/run.py run, as it prints it."""
    env = 'env {"seed": 2301, "commit": "%s", "pass_wall_measured_s": [0.4, 0.5]}' % commit
    metrics = {"wall_s": (wall, "s"), "pass_ratio": (1.0, "ratio"), "ops_per_s": (ops, "1/s")}
    table = [f"{name:45s} {value:>16.6g} {unit}" for name, (value, unit) in metrics.items()]
    doc = {"correct": True, "attempted": 12, "failed": 0,
           "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    return "\n".join([env, *table, json.dumps(doc)]) + "\n"


def test_parse_run_keeps_env_line_and_values():
    run = bench_pairs.parse_run(result_lines(0.41, 2.5, commit="c0ffee"))
    assert run == {"correct": True, "attempted": 12, "failed": 0,
                   "metrics": {"wall_s": 0.41, "pass_ratio": 1.0, "ops_per_s": 2.5},
                   "env": 'env {"seed": 2301, "commit": "c0ffee", '
                          '"pass_wall_measured_s": [0.4, 0.5]}'}


def test_aggregate_on_synthetic_pairs():
    # Five pairs: the change is faster in pairs 0, 1, 3 and 4 and ties in
    # pair 2; ops_per_s is better when higher.
    walls = [(0.50, 0.40), (0.52, 0.41), (0.45, 0.45), (0.60, 0.42), (0.48, 0.44)]
    runs = [{"pair": k, "first": "parent" if k % 2 == 0 else "change", "seed": 2301 + k,
             "parent": bench_pairs.parse_run(result_lines(p, 1 / p)),
             "change": bench_pairs.parse_run(result_lines(c, 1 / c))}
            for k, (p, c) in enumerate(walls)]
    got = bench_pairs.aggregate(runs, END_TO_END)
    assert list(got) == ["wall_s", "pass_ratio", "ops_per_s"]
    wall = got["wall_s"]
    assert wall["better"] == "lower" and wall["bound"] == 0.25
    # inclusive quartiles of 0.45, 0.48, 0.50, 0.52, 0.60
    assert wall["parent"] == pytest.approx({"median": 0.50, "q1": 0.48, "q3": 0.52})
    assert wall["change"] == pytest.approx({"median": 0.42, "q1": 0.41, "q3": 0.44})
    assert wall["change_wins"] == 4
    assert wall["median_change"] == pytest.approx(0.42 / 0.50 - 1)
    assert got["ops_per_s"]["change_wins"] == 4
    assert got["ops_per_s"]["median_change"] == pytest.approx(0.50 / 0.42 - 1)
    ratio = got["pass_ratio"]
    assert (ratio["change_wins"], ratio["median_change"]) == (0, 0.0)
    assert ratio["parent"] == ratio["change"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}


def test_aggregate_reproduces_bench_20():
    # The summaries of BENCH_20.json, collected by hand, follow from its
    # stored runs under the same rules.
    doc = json.loads((ROOT / "BENCH_20.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for name, workload in doc["workloads"].items():
        assert [run["first"] for run in workload["runs"]] == ["parent", "change"] * 5
        got = bench_pairs.aggregate(workload["runs"], spec)
        assert list(got) == list(workload["metrics"]), name
        for metric, want in workload["metrics"].items():
            assert flat(got[metric]) == pytest.approx(flat(want)), (name, metric)


def test_main_clones_both_commits(monkeypatch, tmp_path):
    # git and the bench runs are replaced: main resolves both revisions,
    # clones the repository once per side into its temporary directory,
    # checks each commit out detached there and never makes a worktree.
    calls, ran = [], set()
    shas = {"p0^{commit}": "a" * 40, "c1^{commit}": "b" * 40}

    def git(*args):
        calls.append(args)
        return shas[args[-1]] if args[0] == "rev-parse" else ""

    def bench_run(checkout, workload, seed, seconds):
        ran.add(checkout)
        return bench_pairs.parse_run(result_lines(0.5, 2.0))

    spec = {"run_seconds": 30, "workloads": [{"name": "catalog"}], "end_to_end": END_TO_END}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "bench_run", bench_run)
    assert bench_pairs.main(["p0", "c1", "--pr", "27"]) == 0

    assert not any("worktree" in args for args in calls)
    assert calls[:2] == [("rev-parse", "--verify", "p0^{commit}"),
                         ("rev-parse", "--verify", "c1^{commit}")]
    clones = [Path(args[-1]) for args in calls if args[0] == "clone"]
    assert calls[2::2] == [("clone", "--quiet", "--no-checkout", str(tmp_path), str(clone))
                           for clone in clones]
    assert calls[3::2] == [("-C", str(clone), "checkout", "--quiet", "--detach", sha)
                           for clone, sha in zip(clones, ("a" * 40, "b" * 40))]
    assert [clone.name for clone in clones] == ["parent", "change"]
    assert ran == set(clones) and clones[0].parent.name.startswith("bench_pairs_")
    doc = json.loads((tmp_path / "BENCH_27.json").read_text())
    assert doc["commits"] == {"parent": "a" * 40, "change": "b" * 40}
    assert len(doc["workloads"]["catalog"]["runs"]) == bench_pairs.PAIRS
