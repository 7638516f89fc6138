"""Command-line interface: inspect root systems, run the identity suite,
and emit partial-fraction decompositions, in table or canonical JSON form.

Exit codes: 0 all requested checks pass, 1 at least one identity failed,
2 usage error.  JSON output is canonical (sorted keys, compact separators,
no floats; rationals rendered as "p/q" strings) and newline-terminated.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from math import lcm

from .errors import RootHeightError
from .exactalg import Polynomial, poly_str
from .identities import (CHECK_IDS, available_checks, b_poly, dynkin_polys,
                         munagi_decompose, run_suite)
from .rootsys import (DEFAULT_BFS_CAP, RootSystemId, build, coxeter_element,
                      default_catalog, factorization_string, weyl_order)

MAX_RANK = 500
# Largest munagi period: a dense numerator decomposes within 1 s for every
# h <= 2000 (slowest measured: h = 2p with Phi_h dense, h = 1966 and 1982,
# 0.25 s; h = 1980 0.12 s, h = 2000 0.03 s; in-process main with cold caches,
# best of 3, 2-core Xeon, CPython 3.11).
MAX_PERIOD = 2000
# Largest munagi common denominator in bits: at h = 1966 a dense numerator took
# 0.35 s over 2048 bits, 0.58 s over 4096 (h = 1980: 0.16 and 0.21 s; one
# 14,000-bit numerator: 0.07 s).
MAX_DENOMINATOR_BITS = 2048
# Largest --bfs-cap: admits E7 and A9 (walks of 4-5 s, 63-108 MB; README), not D8.
MAX_BFS_CAP = 4_000_000


class UsageError(Exception):
    pass


def _dump_json(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _poly_json(p):
    return {"coeffs": [str(Fraction(c)) for c in p.coeffs],
            "pretty": poly_str(p)}


def _parse_system(family, rank):
    rsid = RootSystemId(family.upper(), rank)
    if rank > MAX_RANK:
        raise UsageError(f"rank {rank} above the configured limit {MAX_RANK}")
    try:
        return build(rsid)
    except RootHeightError as exc:
        raise UsageError(str(exc)) from None


def _parse_selector(tokens):
    if not tokens or tokens == ["all"]:
        return [_parse_system(str(i.family), i.rank) for i in default_catalog()]
    if len(tokens) == 2:
        try:
            rank = int(tokens[1])
        except ValueError:
            raise UsageError(f"rank must be an integer, got {tokens[1]!r}") from None
        return [_parse_system(tokens[0], rank)]
    raise UsageError(f"selector must be 'all' or '<family> <rank>', got {tokens!r}")


# -- info -----------------------------------------------------------------------


def _info_doc(rs):
    dyn, anti = dynkin_polys(rs)
    return {
        "system": str(rs.id),
        "family": rs.id.family,
        "rank": rs.id.rank,
        "h": rs.h,
        "num_positive_roots": sum(rs.b),
        "weyl_order": weyl_order(rs),
        "exponents": list(rs.exponents),
        "b": list(rs.b),
        "m": list(rs.m),
        "p": list(rs.p),
        "e_of_d": {str(d): e for d, e in sorted(rs.e_of_d.items())},
        "b_poly": _poly_json(b_poly(rs)),
        "dynkin_poly": _poly_json(dyn),
        "antichain_poly": _poly_json(anti),
        "coxeter_charpoly": dict(_poly_json(coxeter_element(rs).charpoly),
                                 factorization=factorization_string(rs)),
    }


def cmd_info(rs, fmt, out):
    doc = _info_doc(rs)
    if fmt == "json":
        out.write(_dump_json(doc))
        return 0
    out.write(f"system: {doc['system']} (family {doc['family']}, rank {doc['rank']})\n")
    out.write(f"h (Coxeter number): {doc['h']}\n")
    out.write(f"positive roots: {doc['num_positive_roots']}\n")
    out.write(f"Weyl group order: {doc['weyl_order']}\n")
    out.write(f"exponents: {' '.join(map(str, doc['exponents']))}\n")
    out.write(f"b (heights 1..h-1): {' '.join(map(str, doc['b']))}\n")
    out.write(f"m (0..h-1): {' '.join(map(str, doc['m']))}\n")
    out.write(f"p (0..h-1): {' '.join(map(str, doc['p']))}\n")
    out.write("e(d): " + " ".join(f"{d}:{e}" for d, e in sorted(rs.e_of_d.items())) + "\n")
    out.write(f"B(q) = {doc['b_poly']['pretty']}\n")
    out.write(f"D(q) = {doc['dynkin_poly']['pretty']}\n")
    out.write(f"M(q) = {doc['antichain_poly']['pretty']}\n")
    out.write(f"C(q) = {doc['coxeter_charpoly']['pretty']}"
              f" = {doc['coxeter_charpoly']['factorization']}\n")
    return 0


# -- verify ---------------------------------------------------------------------


def _verify_worker(task):
    rs, props, bfs_cap = task
    ids = props if props is not None else available_checks(rs)
    reports = run_suite(rs, ids, bfs_cap=bfs_cap)
    return {"system": str(rs.id),
            "checks": sorted((r.as_dict() for r in reports), key=lambda c: c["id"])}


def _verify_options(args):
    """The check ids (None for all) and the Weyl enumeration cap of a verify
    call, validated before any system is built."""
    if args.props is not None and args.all_props:
        raise UsageError("--props and --all are mutually exclusive")
    props = None
    if args.props is not None:
        props = [p.strip() for p in args.props.split(",") if p.strip()]
        if not props:
            raise UsageError(f"--props {args.props!r} names no check id")
        unknown = [p for p in props if p not in CHECK_IDS]
        if unknown:
            raise UsageError(f"unknown checks: {','.join(unknown)}")
    cap = args.bfs_cap
    if cap is None:
        raw = os.environ.get("ROOTHEIGHT_BFS_CAP", str(DEFAULT_BFS_CAP))
        try:
            cap = int(raw)
        except ValueError:
            raise UsageError(f"ROOTHEIGHT_BFS_CAP must be an integer, "
                             f"got {raw!r}") from None
    if not 0 <= cap <= MAX_BFS_CAP:
        raise UsageError(f"Weyl enumeration cap must lie in 0..{MAX_BFS_CAP}, got {cap}")
    if args.jobs < 1:
        raise UsageError("--jobs must be positive")
    return props, cap


def cmd_verify(systems, props, bfs_cap, jobs, fmt, out):
    tasks = []
    for rs in systems:
        ids = None
        if props is not None:
            ids = [p for p in props if p in available_checks(rs)]
        tasks.append((rs, ids, bfs_cap))

    # At most one worker per system: the pool forks all of its workers up front.
    workers = min(jobs, len(tasks))
    if workers > 1:
        # Imported here: the pool's modules are most of a cold start's imports.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_worker, tasks))
    else:
        results = [_verify_worker(t) for t in tasks]
    results.sort(key=lambda doc: (doc["system"][0], int(doc["system"][1:])))

    failed = sum(1 for doc in results for c in doc["checks"]
                 if c["verdict"] != "pass")
    if fmt == "json":
        out.write(_dump_json(results))
    else:
        total = 0
        for doc in results:
            for c in doc["checks"]:
                total += 1
                line = f"{doc['system']:<5} {c['id']:<12} {c['verdict']}"
                if c["witness"]:
                    line += f"  [{c['witness']}]"
                out.write(line + "\n")
        out.write(f"{total - failed}/{total} checks passed on "
                  f"{len(results)} systems\n")
    return 1 if failed else 0


# -- munagi ---------------------------------------------------------------------


def _parse_coefficient(tok):
    """A munagi coefficient as a Fraction, refused before Fraction expands
    its exponent if that moves it more digits from 1 than its mantissa has
    plus the int-to-str limit: its denominator would exceed the bit limit,
    or a part be too long to print (each coefficient sums at most 40)."""
    m = re.fullmatch(r"\s*[-+]?(\d*)(?:\.(\d*))?[eE]([-+]?\d+)\s*", tok)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if m and abs(int(m[3]) - len(m[2] or "")) > len(m[1] + (m[2] or "")) + limit:
        raise UsageError(f"coefficient exponent {m[3]} beyond the {limit}-digit limit")
    return Fraction(tok)


def cmd_munagi(coeffs, h, roundtrip, fmt, out):
    if h < 1:
        raise UsageError(f"period must be positive, got {h}")
    if h > MAX_PERIOD:
        raise UsageError(f"period {h} above the configured limit {MAX_PERIOD}")
    if len(coeffs) > h:
        raise UsageError(f"{len(coeffs)} coefficients exceed period {h}")
    bits = lcm(*(c.denominator for c in coeffs)).bit_length()
    if bits > MAX_DENOMINATOR_BITS:
        raise UsageError(f"common denominator of {bits} bits above the configured "
                         f"limit {MAX_DENOMINATOR_BITS}")
    # munagi_decompose raises ReconstructionMismatch unless the round trip holds.
    dec = munagi_decompose(Polynomial(coeffs), h)
    parts = sorted(dec.parts.items())
    # Rendered whole before writing: a part past Python's int-to-str digit
    # limit raises ValueError, which must leave stdout empty.
    try:
        if fmt == "json":
            doc = {"h": h, "parts": {str(d): _poly_json(p) for d, p in parts}}
            if roundtrip:
                doc["roundtrip"] = "ok"
            text = _dump_json(doc)
        else:
            text = "".join(f"H_{d} = {poly_str(part)}\n" for d, part in parts)
            if roundtrip:
                text += "roundtrip: ok\n"
    except ValueError:
        raise UsageError(f"a part is too long to print (over "
                         f"{sys.get_int_max_str_digits()} digits)") from None
    out.write(text)
    return 0


# -- entry point ------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rootheight",
        description="Exact root-system height distributions and their identity suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print invariants of one system")
    p.add_argument("family", help="one of A B C D E F G")
    p.add_argument("rank", type=int)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("selector", nargs="*",
                   help="'all' or a family/rank pair; default all")
    p.add_argument("--props", help="comma-separated check ids")
    p.add_argument("--all", action="store_true", dest="all_props",
                   help="run every applicable check (default)")
    p.add_argument("--bfs-cap", type=int, default=None,
                   help=f"Weyl enumeration cap (default {DEFAULT_BFS_CAP}, "
                        f"at most {MAX_BFS_CAP}; env ROOTHEIGHT_BFS_CAP)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("munagi", help="partial-fraction decomposition of a numerator")
    p.add_argument("coeffs", help="comma-separated rational coefficients c0,c1,...")
    p.add_argument("--h", type=int, required=True, dest="h")
    p.add_argument("--roundtrip", action="store_true")
    p.add_argument("--format", choices=("table", "json"), default="table")
    return parser


def _negative_lists_last(argv):
    """argparse reads a munagi coefficient list that starts with a minus sign
    ("-5,3") as an unknown option; move such lists behind "--".  A value of
    --h or --format stays where it is, and so does an argv that already
    has "--"."""
    if argv[:1] != ["munagi"] or "--" in argv:
        return argv
    keep, lists = ["munagi"], []
    for prev, tok in zip(argv, argv[1:]):
        if re.match(r"-[\d.]", tok) and prev not in ("--h", "--format"):
            lists.append(tok)
        else:
            keep.append(tok)
    return keep + ["--"] + lists if lists else argv


def main(argv=None):
    parser = _build_parser()
    argv = _negative_lists_last(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    out = sys.stdout
    try:
        if args.command == "info":
            return cmd_info(_parse_system(args.family, args.rank), args.format, out)
        if args.command == "verify":
            props, cap = _verify_options(args)
            return cmd_verify(_parse_selector(args.selector), props, cap,
                              args.jobs, args.format, out)
        if args.command == "munagi":
            try:
                coeffs = [_parse_coefficient(tok.strip()) for tok in args.coeffs.split(",")]
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"bad coefficient list: {exc}") from None
            return cmd_munagi(coeffs, args.h, args.roundtrip, args.format, out)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"rootheight: error: {exc}", file=sys.stderr)
        return 2
    except RootHeightError as exc:
        print(f"rootheight: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())
