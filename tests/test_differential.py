"""Corruption differential: every check except eq5 on eight systems, each
rebuilt through the ``RootSystem`` constructor with one stored field
corrupted.

Two sha256 goldens pin the outcome: one over the (system, corruption, check,
verdict) rows, one over the full reports with their witnesses.  A route
change that keeps both digests leaves every verdict and every witness of the
differential unchanged.  The same rows render the sensitivity table of
README.md (the corruption kinds each check fails under), and the test
asserts that README's copy matches.  Running this file as a script prints
the reports as JSON, for diffing two versions of the code.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

from rootheight.errors import RootHeightError
from rootheight.identities import _CHECKS, IdentityReport, available_checks, run_check
from rootheight.rootsys import DEFAULT_BFS_CAP, RootSystem, RootSystemId, build

SYSTEMS = (("A", 4), ("A", 7), ("B", 3), ("C", 4), ("D", 5), ("E", 6), ("F", 4),
           ("G", 2))
CORRUPTIONS = ("b", "m", "p", "e(1)", "e(h)", "exponents")

README = Path(__file__).resolve().parents[1] / "README.md"
TABLE_BEGIN = "<!-- sensitivity table: rendered by tests/test_differential.py -->"
TABLE_END = "<!-- end of sensitivity table -->"

VERDICTS_SHA256 = "1ed26f622bcb65013e2b69e2074bce3c6e6902e5448565d088bf3c3e01ac2206"
REPORTS_SHA256 = "b0ecc7d3ce5a7210aa794a82b41f44bc4a8f87c1ce66294dfeb6ce872e84a10b"


def corrupted(rs, kind):
    """A copy of rs, built by the constructor, with one field off by one:
    the middle height count, m(1), p(1), e(1), e(h) or the largest
    exponent."""
    b, m, p = list(rs.b), list(rs.m), list(rs.p)
    e_of_d, exponents = dict(rs.e_of_d), list(rs.exponents)
    if kind == "b":
        b[len(b) // 2] += 1
    elif kind == "m":
        m[1] += 1
    elif kind == "p":
        p[1] += 1
    elif kind == "e(1)":
        e_of_d[1] += 1
    elif kind == "e(h)":
        e_of_d[rs.h] += 1
    elif kind == "exponents":
        exponents[-1] -= 1
    else:
        raise ValueError(f"unknown corruption {kind!r}")
    return RootSystem(rs.id, rs.cartan, rs.h, exponents, b, rs.two_rho_pairings, m,
                      e_of_d, p)


def differential_reports():
    """[system, corruption, check, verdict, witness] for every system,
    corruption and check except eq5, in that order."""
    rows = []
    for family, rank in SYSTEMS:
        rs = build(RootSystemId(family, rank))
        for kind in CORRUPTIONS:
            bad = corrupted(rs, kind)
            for cid in available_checks(bad):
                if cid != "eq5":
                    rep = run_check(bad, cid)
                    rows.append([rep.system, kind, cid, rep.verdict, rep.witness])
    return rows


def _digest(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sensitivity_table(rows):
    """Markdown table of the corruption kinds each check fails under, in the
    order of the rows; a kind that fails on only some systems carries the
    count."""
    runs = Counter((row[2], row[1]) for row in rows)
    fails = Counter((row[2], row[1]) for row in rows if row[3] == "fail")
    lines = ["| check | fails under |", "|---|---|"]
    for cid in dict.fromkeys(row[2] for row in rows):
        kinds = [kind if fails[cid, kind] == runs[cid, kind]
                 else f"{kind} ({fails[cid, kind]} of {runs[cid, kind]} systems)"
                 for kind in CORRUPTIONS if fails[cid, kind]]
        lines.append(f"| {cid} | {', '.join(kinds) or 'none'} |")
    return "\n".join(lines)


def test_corruption_differential_goldens():
    rows = differential_reports()
    assert len(rows) == 1176
    failures = sum(row[3] == "fail" for row in rows)
    assert _digest([row[:4] for row in rows]) == VERDICTS_SHA256, f"{failures} failures"
    assert _digest(rows) == REPORTS_SHA256

    readme = README.read_text()
    block = readme[readme.index(TABLE_BEGIN) + len(TABLE_BEGIN):readme.index(TABLE_END)]
    table = sensitivity_table(rows)
    assert block.strip() == table, f"README sensitivity table is stale; expected:\n{table}"


def test_checks_return_their_witness(catalog):
    # A check maps a system to its first witness: None on every applicable
    # catalog system, None or a str under every corruption above (eq5
    # included).  run_check alone makes the report; an error the check
    # raises becomes its witness.
    cases = [(rs, cid) for rs in catalog.values() for cid in available_checks(rs)]
    for rs, cid in cases:
        args = {"bfs_cap": DEFAULT_BFS_CAP} if cid == "eq5" else {}
        assert _CHECKS[cid](rs, **args) is None, (rs.id, cid)
    for family, rank in SYSTEMS:
        for kind in CORRUPTIONS:
            bad = corrupted(build(RootSystemId(family, rank)), kind)
            cases += [(bad, cid) for cid in available_checks(bad)]
    raised = 0
    for rs, cid in cases:
        try:
            witness = _CHECKS[cid](rs)
        except RootHeightError as exc:
            witness, raised = f"{type(exc).__name__}: {exc}", raised + 1
        except Exception as exc:
            witness, raised = f"internal {type(exc).__name__}: {exc}", raised + 1
        else:
            assert witness is None or type(witness) is str, (rs.id, cid, witness)
        assert run_check(rs, cid) == IdentityReport(
            cid, str(rs.id), "fail" if witness else "pass", witness), (rs.id, cid)
    assert raised


if __name__ == "__main__":
    print(json.dumps(differential_reports(), indent=1))
