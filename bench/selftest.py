"""Show that the benchmark's correctness gate can fail.

    python3 bench/selftest.py

Feeds the gate a golden with one flipped byte, a CLI output with one
flipped byte, and corrupted Munagi decompositions, and checks that each is
counted as a failed operation while the untouched inputs pass.  Exits 0
when the gate behaves, 1 otherwise.  Takes about ten seconds.
"""

from __future__ import annotations

import sys
import time
from types import SimpleNamespace

import munagi_client
import run

JOB = ["info", "C", "48", "--format", "json"]


def flip(text, index):
    """``text`` with the hex digit at ``index`` changed."""
    return text[:index] + ("0" if text[index] != "0" else "1") + text[index + 1:]


def cli_gate(results):
    key = " ".join(JOB)
    run.CLI_WORKLOADS["selftest"] = [JOB]
    deadline = time.monotonic() + run.DEADLINE_S
    golden = run.GOLDEN["jobs"][key]

    clean = run.run_pass("selftest", 0, 0, False, deadline)
    results.append(("CLI job matching its golden passes", clean.failed == 0))

    run.GOLDEN["jobs"][key] = flip(golden, 17)
    try:
        bad = run.run_pass("selftest", 0, 0, False, deadline)
    finally:
        run.GOLDEN["jobs"][key] = golden
    metrics = run.end_to_end([clean, bad], 0.1)
    results.append(("flipped golden byte is a failed operation",
                    bad.attempted == 1 and bad.failed == 1
                    and metrics["pass_ratio"][0] == 0.5))

    proc = run.spawn([sys.executable, "-m", "rootheight"] + JOB, deadline)
    proc.out = bytes([proc.out[0] ^ 1]) + proc.out[1:]
    results.append(("flipped stdout byte fails the golden",
                    run.judge_cli(JOB, proc) is not None))
    proc.code = 1
    results.append(("non-zero exit fails", run.judge_cli(JOB, proc) is not None))


def munagi_gate(results):
    sys.path.insert(0, str(run.ROOT / "src"))
    from rootheight.exactalg import Polynomial
    from rootheight.identities import munagi_decompose

    stream = munagi_client.requests("selftest", 24)
    decs = [munagi_decompose(Polynomial(coeffs), h) for h, coeffs in stream]

    def failures(results):
        whys = [munagi_client.judge(h, coeffs, dec)
                for (h, coeffs), dec in zip(stream, results)]
        return [why for why in whys if why]

    results.append(("true decompositions pass", failures(decs) == []))

    def corrupted(i, change):
        parts = {d: list(p.coeffs) for d, p in decs[i].parts.items()}
        change(parts, stream[i][0])
        return decs[:i] + [SimpleNamespace(parts={
            d: Polynomial(cs) for d, cs in parts.items()})] + decs[i + 1:]

    def bump_coefficient(parts, h):
        parts[h] = [parts[h][0] + 1] + parts[h][1:]

    def raise_degree(parts, h):
        # H_1 = c + q*c' has degree 1, not below phi(1) = 1, even where the
        # other parts could absorb the change
        parts[1] = parts[1] + [1] if parts[1] else [0, 1]

    def drop_divisor(parts, h):
        del parts[1]

    for label, change in (("coefficient changed", bump_coefficient),
                          ("degree too high", raise_degree),
                          ("divisor missing", drop_divisor)):
        found = failures(corrupted(5, change))
        results.append((f"corrupted decomposition ({label}) is one failure",
                        len(found) == 1))
    results.append(("a raised error is a failure",
                    len(failures(decs[:3] + [ValueError("x")] + decs[4:])) == 1))


def main():
    results = []
    cli_gate(results)
    munagi_gate(results)
    for label, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
