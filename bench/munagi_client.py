"""The ``munagi`` workload's client: a seeded closed-loop stream of
``munagi_decompose`` calls in one fresh interpreter.

    PYTHONPATH=src python3 bench/munagi_client.py --seed 1

Each block of 24 requests is a seeded shuffle of every (period, numerator
kind) pair, so every stream has the same mix and the seed changes only the
order and the numerators.  The loop sends the next request when the previous
one returns and times each call, recording when it started (``perf_counter``,
the system-wide monotonic clock on Linux, so the caller can match it with
its own readings).  Between calls, outside the timed span, each
decomposition is checked with this file's own integer arithmetic, not the
package's, and then dropped.  The wall and CPU time the client spends on its
own work (making the requests and checking the results) is reported, so the
caller can leave it out of the program's figures.  The last line of stdout
is a JSON report.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from math import gcd, lcm

PERIODS = (12, 24, 36, 48, 60, 72, 90, 120)
KINDS = ("dense", "sparse", "gcd")
REQUESTS = 1008  # 42 blocks of the 24 (period, kind) pairs


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def numerator(rng, h, kind):
    """Coefficients c_0..c_{h-1} of a numerator of degree below h."""
    if kind == "dense":
        return [rng.randint(-99, 99) for _ in range(h)]
    if kind == "sparse":
        coeffs = [0] * h
        for i in rng.sample(range(h), rng.randint(2, 4)):
            coeffs[i] = rng.choice([c for c in range(-99, 100) if c])
        return coeffs
    # a periodic sequence fixed by gcd(i, h), as in the Cohen-type numerators
    value = {d: rng.randint(-99, 99) for d in divisors(h)}
    return [value[gcd(i, h)] for i in range(h)]


def requests(seed, count=REQUESTS):
    """The stream of (h, coefficients) for one seed."""
    rng = random.Random(seed)
    pairs = [(h, kind) for h in PERIODS for kind in KINDS]
    out = []
    while len(out) < count:
        block = pairs[:]
        rng.shuffle(block)
        out.extend((h, numerator(rng, h, kind)) for h, kind in block)
    return out[:count]


def check(h, coeffs, parts):
    """None if ``parts`` ({d: [rational coeffs of H_d]}) is the
    decomposition of sum(c_i q^i)/(1-q^h), else what is wrong.  With
    deg H_d < phi(d) for every divisor d the decomposition is unique, so a
    round trip suffices.  The sums are taken over the common denominator in
    integers, so checking creates no ``Fraction``."""
    if sorted(parts) != divisors(h):
        return f"parts over {sorted(parts)}, divisors of {h} expected"
    for d, part in parts.items():
        if len(part) > totient(d):
            return f"deg H_{d} = {len(part) - 1} is not below phi({d})"
    scale = lcm(1, *(c.denominator for part in parts.values() for c in part))
    total = [0] * h
    for d, part in parts.items():
        scaled = [c.numerator * (scale // c.denominator) for c in part]
        # H_d * (1 - q^h)/(1 - q^d) = H_d * (1 + q^d + ... + q^(h-d))
        for shift in range(0, h - d + 1, d):
            for i, c in enumerate(scaled):
                total[shift + i] += c
    want = [c * scale for c in coeffs] + [0] * (h - len(coeffs))
    if total != want:
        first = next(i for i in range(h) if total[i] != want[i])
        return (f"round trip differs at q^{first}: "
                f"{total[first]}/{scale} != {coeffs[first]}")
    return None


def judge(h, coeffs, dec):
    """Why the result ``dec`` of one request is wrong, or None; a raised
    error is a wrong result."""
    if isinstance(dec, Exception):
        return f"h={h}: {type(dec).__name__}: {dec}"
    why = check(h, coeffs, {d: list(p.coeffs) for d, p in dec.parts.items()})
    return f"h={h}: {why}" if why else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from rootheight import identities
    from rootheight.exactalg import Polynomial

    clock, cpu = time.perf_counter_ns, time.process_time_ns
    t0, c0 = clock(), cpu()
    stream = requests(args.seed)
    make_ns, make_cpu_ns = clock() - t0, cpu() - c0
    decompose = identities.munagi_decompose
    latencies, starts = [], []
    failed = []
    check_ns = check_cpu_ns = 0
    start = clock()
    for h, coeffs in stream:
        numer = Polynomial(coeffs)
        t0 = clock()
        try:
            dec = decompose(numer, h)
        except Exception as exc:  # a failed request is counted, not fatal
            dec = exc
        t1, c1 = clock(), cpu()
        latencies.append(t1 - t0)
        starts.append(t0)
        why = judge(h, coeffs, dec)
        if why:
            failed.append(why)
        check_cpu_ns += cpu() - c1
        check_ns += clock() - t1
    loop_ns = clock() - start - check_ns
    summary = tracer.summary() if tracer else None

    print(json.dumps({"attempted": len(stream), "failed": len(failed),
                      "failures": failed[:5], "latencies_ns": latencies,
                      "starts_ns": starts, "loop_ns": loop_ns,
                      "own_ns": make_ns + check_ns,
                      "own_cpu_ns": make_cpu_ns + check_cpu_ns,
                      "trace": summary}))


if __name__ == "__main__":
    sys.exit(main())
