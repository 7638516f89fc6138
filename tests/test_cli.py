"""Command-line interface tests: output shapes, exit codes, JSON canonicity."""

import concurrent.futures
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootheight
import rootheight.cli as cli
import rootheight.identities as identities
from conftest import clear_identity_memos
from rootheight.cli import MAX_BFS_CAP, MAX_DENOMINATOR_BITS, MAX_PERIOD, main
from rootheight.exactalg import Polynomial, _context
from rootheight.identities import MunagiDecomposition


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


class TestInfo:
    def test_json_fields(self, capsys):
        code, out = run_cli(capsys, "info", "G", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["h"] == 6
        assert doc["exponents"] == [1, 5]
        assert doc["coxeter_charpoly"]["factorization"] == \
            "(q^6-1)(q-1)/((q^3-1)(q^2-1))"

    def test_rank_one(self, capsys):
        code, out = run_cli(capsys, "info", "A", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["b"] == [1]

    def test_largest_exceptional(self, capsys):
        code, out = run_cli(capsys, "info", "E", "8", "--format", "json")
        assert code == 0
        assert json.loads(out)["num_positive_roots"] == 120

    def test_lowercase_family_accepted(self, capsys):
        code, _ = run_cli(capsys, "info", "g", "2")
        assert code == 0

    def test_bad_rank_usage_error(self, capsys):
        assert run_cli(capsys, "info", "E", "9")[0] == 2

    def test_builds_no_field_context(self, capsys):
        # The Coxeter guard compares the traces with a class transform over
        # the divisor-formula Ramanujan sums, so info needs no cyclotomic field.
        clear_identity_memos()
        for family, rank in (("A", "60"), ("C", "48"), ("E", "8")):
            assert run_cli(capsys, "info", family, rank)[0] == 0
        assert _context.cache_info().misses == 0

    def test_rank_limit(self, capsys):
        assert run_cli(capsys, "info", "A", "501")[0] == 2
        assert run_cli(capsys, "verify", "A", "99999", "--props", "prop2")[0] == 2


# sha256 of stdout for every benchmark job, read from bench/golden.json (the
# bytes of the code before any optimisation); the file is not edited here.
with open(Path(__file__).resolve().parents[1] / "bench" / "golden.json") as f:
    BENCH_GOLDENS = json.load(f)["jobs"]


@pytest.mark.parametrize("args", sorted(BENCH_GOLDENS))
def test_construction_output_golden(capsys, args):
    code, out = run_cli(capsys, *args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BENCH_GOLDENS[args]


class TestVerify:
    def test_single_prop(self, capsys):
        code, out = run_cli(capsys, "verify", "G", "2", "--props", "prop15")
        assert code == 0
        assert "pass" in out

    def test_json_schema(self, capsys):
        code, out = run_cli(capsys, "verify", "A", "2", "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert docs[0]["system"] == "A2"
        for check in docs[0]["checks"]:
            assert set(check) == {"id", "verdict", "witness"}
            assert check["verdict"] == "pass"

    def test_json_roundtrip_is_byte_identical(self, capsys):
        _, out = run_cli(capsys, "verify", "B", "2", "--props",
                         "prop8,prop13", "--format", "json")
        redumped = json.dumps(json.loads(out), sort_keys=True,
                              separators=(",", ":")) + "\n"
        assert redumped == out
        assert out.endswith("\n")

    def test_unknown_prop_usage_error(self, capsys):
        assert run_cli(capsys, "verify", "G", "2", "--props", "prop99")[0] == 2

    def test_bad_selector_usage_error(self, capsys):
        assert run_cli(capsys, "verify", "Z", "1")[0] == 2
        assert run_cli(capsys, "verify", "A")[0] == 2

    def test_failure_exit_code(self, capsys, monkeypatch):
        def broken(rs):
            return "forced"

        monkeypatch.setitem(identities._CHECKS, "cohen", broken)
        code, out = run_cli(capsys, "verify", "A", "1", "--props", "cohen",
                            "--format", "json")
        assert code == 1
        assert json.loads(out)[0]["checks"][0]["witness"] == "forced"

    def test_failure_table_shows_witness(self, capsys, monkeypatch):
        def broken(rs):
            return "forced"

        monkeypatch.setitem(identities._CHECKS, "cohen", broken)
        code, out = run_cli(capsys, "verify", "A", "1", "--props", "cohen,prop8")
        assert code == 1
        assert out == ("A1    cohen        fail  [forced]\n"
                       "A1    prop8        pass\n"
                       "1/2 checks passed on 1 systems\n")

    def test_repeated_prop_runs_once(self, capsys):
        # Each id runs and counts once, at its first place in the list.
        code, out = run_cli(capsys, "verify", "A", "2", "--props", "prop1,prop8,prop1")
        assert code == 0
        assert out == ("A2    prop1        pass\n"
                       "A2    prop8        pass\n"
                       "2/2 checks passed on 1 systems\n")
        code, out = run_cli(capsys, "verify", "A", "2", "--props", "prop1,prop8,prop1",
                            "--format", "json")
        assert code == 0
        assert [c["id"] for c in json.loads(out)[0]["checks"]] == ["prop1", "prop8"]

    def test_jobs_flag(self, capsys):
        code, out = run_cli(capsys, "verify", "A", "2", "--props",
                            "prop8,cohen", "--jobs", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["system"] == "A2"

    def test_jobs_output_matches_serial(self, capsys):
        # The memo tables are emptied first, so the forked workers fill
        # their own rather than inherit this process's.
        for fmt in ("table", "json"):
            args = ["verify", "all", "--props", "prop1,eq12,cohen,prop6,prop9,prop15",
                    "--format", fmt]
            clear_identity_memos()
            parallel = run_cli(capsys, *args, "--jobs", "2")
            assert run_cli(capsys, *args) == parallel

    def test_jobs_pool_at_most_one_worker_per_system(self, capsys, monkeypatch):
        # The pool starts all of its workers at once; a fake one records how
        # many it was asked for and maps in-process.
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # cmd_verify imports the pool class when it needs one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        for selector, expected in ((["G", "2"], []), (["all"], [34])):
            args = ["verify", *selector, "--props", "prop8", "--format", "json"]
            serial = run_cli(capsys, *args)
            assert run_cli(capsys, *args, "--jobs", "100000") == serial
            assert sizes == expected
            sizes.clear()

    def test_props_naming_no_check_usage_error(self, capsys):
        for props in (",", " ", ""):
            assert main(["verify", "G", "2", "--props", props]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("rootheight: error:"), props
        # A known check that does not apply to G2 is a usage error too.
        assert main(["verify", "G", "2", "--props", "eq19"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_no_applicable_check_usage_error(self, capsys, fmt):
        # Checks that apply to none of the selected systems run nothing, so
        # verify refuses them by name instead of reporting 0/0 as a pass.
        for selector, props in ((["B", "3"], "eq19"), (["G", "2"], "eq19,eq19")):
            assert main(["verify", *selector, "--props", props, "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == \
                "rootheight: error: checks that apply to no selected system: eq19\n"
        # Over all systems, those without eq19 are still listed with no checks.
        code, out = run_cli(capsys, "verify", "all", "--props", "eq19", "--format", fmt)
        assert code == 0
        if fmt == "json":
            docs = json.loads(out)
            assert len(docs) == 34
            assert {doc["system"] for doc in docs if not doc["checks"]} == {
                name for name in map(str, rootheight.default_catalog()) if name[0] not in "ADE"}
        else:
            assert out.endswith("\n18/18 checks passed on 34 systems\n")

    def test_bfs_cap_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ROOTHEIGHT_BFS_CAP", "1")
        code, _ = run_cli(capsys, "verify", "A", "2", "--props", "eq5")
        assert code == 0  # cap of 1 skips enumeration; products still checked

    def test_bfs_cap_option_reaches_the_enumeration(self, capsys, monkeypatch):
        # D6's Weyl group has order 23,040: --bfs-cap 23040 enumerates it,
        # --bfs-cap 1 checks the product forms only.
        monkeypatch.delenv("ROOTHEIGHT_BFS_CAP", raising=False)
        caps = []
        real = identities.weyl_length_gf_bruteforce
        monkeypatch.setattr(identities, "weyl_length_gf_bruteforce",
                            lambda rs, cap: caps.append(cap) or real(rs, cap))
        for cap in ("1", "23040"):
            code, out = run_cli(capsys, "verify", "D", "6", "--props", "eq5",
                                "--bfs-cap", cap, "--format", "json")
            assert code == 0
            assert json.loads(out)[0]["checks"] == [
                {"id": "eq5", "verdict": "pass", "witness": None}]
        assert caps == [23040]

    def test_bfs_cap_env_not_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("ROOTHEIGHT_BFS_CAP", "abc")
        assert main(["verify", "G", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rootheight: error:") and "ROOTHEIGHT_BFS_CAP" in err

    def test_negative_bfs_cap(self, capsys):
        assert main(["verify", "G", "2", "--bfs-cap", "-5"]) == 2
        assert capsys.readouterr().err.startswith("rootheight: error:")

    def test_bfs_cap_limit(self, capsys, monkeypatch):
        # The limit admits README's E7 example (2,903,040 elements) and the
        # bench's D6 cap, and refuses D8 (5,160,960) and E8 before any system
        # is built, so no walk starts.
        monkeypatch.delenv("ROOTHEIGHT_BFS_CAP", raising=False)
        assert MAX_BFS_CAP == 4_000_000
        parse = cli._build_parser().parse_args
        for cap in (23040, 2903040, MAX_BFS_CAP):
            assert cli._verify_options(parse(["verify", "--bfs-cap", str(cap)])) == (None, cap)
        monkeypatch.setattr(cli, "build", lambda rsid: pytest.fail(f"built {rsid}"))
        for env, opts, cap in (({}, ["--bfs-cap", "696729600"], 696729600),
                               ({}, ["--bfs-cap", "5160960"], 5160960),
                               ({"ROOTHEIGHT_BFS_CAP": "4000001"}, [], 4000001)):
            for key, value in env.items():
                monkeypatch.setenv(key, value)
            assert main(["verify", "E", "8", "--props", "eq5", *opts]) == 2, cap
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("rootheight: error: Weyl enumeration cap must lie "
                                    f"in 0..{MAX_BFS_CAP}, got {cap}\n")
            for key in env:
                monkeypatch.delenv(key)

    def test_options_rejected_before_building(self, capsys, monkeypatch):
        # A usage error in the options must not pay for the construction of
        # the selected systems (D500 takes tens of seconds to build).
        def no_build(rsid):
            raise AssertionError(f"built {rsid} before validating the options")

        monkeypatch.setattr(cli, "build", no_build)
        cases = [({}, ["--jobs", "0"]), ({}, ["--bfs-cap", "-1"]),
                 ({"ROOTHEIGHT_BFS_CAP": "abc"}, []),
                 ({"ROOTHEIGHT_BFS_CAP": "-1"}, []),
                 ({}, ["--props", "prop1", "--all"]), ({}, ["--props", ","]),
                 ({}, ["--props", "prop1,prop99"])]
        for env, opts in cases:
            for key, value in env.items():
                monkeypatch.setenv(key, value)
            for selector in (["D", "500"], ["all"]):
                assert main(["verify", *selector, *opts]) == 2, (env, opts)
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("rootheight: error:"), (env, opts)
                assert "Traceback" not in captured.err
            for key in env:
                monkeypatch.delenv(key)


class TestMunagi:
    def test_cohen_constants(self, capsys):
        code, out = run_cli(capsys, "munagi", "0,1,0,0,0,1", "--h", "6",
                            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert {d: p["coeffs"] for d, p in doc["parts"].items()} == {
            "1": ["1"], "2": ["-1"], "3": ["-1"], "6": ["1"]}

    def test_trivial_period(self, capsys):
        code, out = run_cli(capsys, "munagi", "1", "--h", "1")
        assert code == 0
        assert out.strip() == "H_1 = 1"

    def test_non_cohen_has_linear_part(self, capsys):
        code, out = run_cli(capsys, "munagi", "0,1,0,0", "--h", "4",
                            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert any(len(p["coeffs"]) > 1 for p in doc["parts"].values())

    def test_roundtrip_table(self, capsys):
        code, out = run_cli(capsys, "munagi", "0,1,0,0,0,1", "--h", "6", "--roundtrip")
        assert code == 0
        assert out == "H_1 = 1\nH_2 = -1\nH_3 = -1\nH_6 = 1\nroundtrip: ok\n"
        assert run_cli(capsys, "munagi", "0,1,0,0,0,1", "--h", "6") == (
            0, "H_1 = 1\nH_2 = -1\nH_3 = -1\nH_6 = 1\n")

    def test_rational_coefficients(self, capsys):
        code, out = run_cli(capsys, "munagi", "1/2,-3/4", "--h", "2",
                            "--roundtrip", "--format", "json")
        assert code == 0
        assert json.loads(out)["roundtrip"] == "ok"

    def test_negative_leading_coefficient(self, capsys):
        # A list starting with a minus sign is a coefficient list, not an
        # option, before or after --h; the "--" form keeps working.
        for argv in (["munagi", "-5,3", "--h", "2"],
                     ["munagi", "--h", "2", "-5,3"],
                     ["munagi", "--h", "2", "--", "-5,3"]):
            code, out = run_cli(capsys, *argv)
            assert (code, out) == (0, "H_1 = 3\nH_2 = -8\n"), argv
        code, out = run_cli(capsys, "munagi", "-1/2,-.25", "--format", "json", "--h", "2")
        assert code == 0
        assert {d: p["coeffs"] for d, p in json.loads(out)["parts"].items()} == {
            "1": ["-1/4"], "2": ["-1/4"]}

    def test_length_violation(self, capsys):
        assert run_cli(capsys, "munagi", "1,2,3", "--h", "2")[0] == 2

    def test_bad_coefficient(self, capsys):
        assert run_cli(capsys, "munagi", "1,zebra", "--h", "2")[0] == 2

    def test_round_trip_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(MunagiDecomposition, "reconstruct",
                            lambda self: Polynomial((42,)))
        assert main(["munagi", "1,2,3", "--h", "6", "--roundtrip"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rootheight: error: ReconstructionMismatch")
        assert "Traceback" not in captured.err

    def test_corrupt_term_table_exits_1(self, capsys, monkeypatch, fresh_memos):
        # A wrong entry in the term list of Phi_6, set on a fresh context
        # before the plan of period 6 is built from it, reaches the
        # round-trip guard: exit 1 (a failed internal cross-check), the
        # error on stderr and nothing on stdout.
        ctx = _context(6)
        assert "munagi_plan" not in vars(ctx)
        (j, c), *others = ctx.terms
        monkeypatch.setattr(ctx, "terms", ((j, c + 1), *others))
        assert main(["munagi", "1,2,3", "--h", "6"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rootheight: error: ReconstructionMismatch")
        assert "Traceback" not in captured.err

    def test_period_limit(self, capsys):
        assert main(["munagi", "1", "--h", str(MAX_PERIOD + 1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rootheight: error:") and str(MAX_PERIOD) in err

    def test_period_must_be_positive(self, capsys):
        # Rejected before the length check, whose message would blame the
        # coefficients.
        for h in ("0", "-3"):
            assert main(["munagi", "--h", h, "--", "0"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"rootheight: error: period must be positive, got {h}\n"

    def test_part_too_long_to_print(self, capsys):
        # N of 4,300 digits (Python's default int-to-str limit) parses, but
        # H_2 = 2N has one digit more and cannot be printed.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            n = "9" * 4300
            for fmt in ("table", "json"):
                assert main(["munagi", "--h", "2", "--format", fmt, "--", f"{n},-{n}"]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("rootheight: error: a part is too long")
        finally:
            sys.set_int_max_str_digits(limit)

    def test_denominator_limit(self, capsys):
        # Coprime denominators whose product has exactly the limit's bits,
        # then one bit more.
        half = MAX_DENOMINATOR_BITS // 2
        p, q, r = 2 ** half + 1, 2 ** half - 1, 2 ** half + 3
        assert (p * q).bit_length() == MAX_DENOMINATOR_BITS
        assert (p * r).bit_length() == MAX_DENOMINATOR_BITS + 1
        assert main(["munagi", f"1/{p},1/{q}", "--h", "4"]) == 0
        capsys.readouterr()
        assert main(["munagi", f"1/{p},1/{r}", "--h", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rootheight: error:")
        assert str(MAX_DENOMINATOR_BITS) in captured.err


def test_huge_exponent_exits_fast_subprocess():
    # Fraction expands a decimal exponent into a power of ten before the
    # denominator and print limits are checked: 1e100000000 and its inverse
    # did not finish in 60 s, 1e10000000 took 9 s.  They exit 2 at once, and
    # so does a zero mantissa, which would be expanded all the same.
    for tok in ("1e100000000", "1e-100000000", "1e10000000", "0e100000000"):
        proc = subprocess.run(
            [sys.executable, "-m", "rootheight", "munagi", tok, "--h", "2"],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2, tok
        assert proc.stdout == ""
        assert proc.stderr.startswith("rootheight: error: coefficient exponent"), tok


def test_exponent_limit_in_process(capsys):
    # Beyond the limit only by the mantissa's digits plus the int-to-str
    # limit; nearer tokens still reach the denominator and print checks.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for tok, code, err in (("1e4302", 2, "coefficient exponent 4302 beyond"),
                               ("1e4301", 2, "a part is too long to print"),
                               ("12.5e-4303", 2, "coefficient exponent -4303 beyond"),
                               ("12.5e-4302", 2, "common denominator of"),
                               ("25e-3", 0, None)):
            assert main(["munagi", tok, "--h", "2"]) == code, tok
            captured = capsys.readouterr()
            if err:
                assert captured.err.startswith(f"rootheight: error: {err}"), tok
        assert main(["munagi", "25e-3", "--h", "1"]) == 0
        assert capsys.readouterr().out == "H_1 = 1/40\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "rootheight", "info", "A", "1", "--format",
         "json"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["h"] == 2


def test_usage_error_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "rootheight", "info", "A"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2


def run_fresh(script):
    """Run a Python script in a fresh interpreter with the package on its
    path; its stdout parsed as JSON."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_skips_pool_and_dataclasses():
    # Every CLI call is a fresh interpreter, so the modules imported with
    # rootheight.cli are paid on each call; the process pool (multiprocessing
    # and its dependencies) and dataclasses (inspect, ast, dis) are not needed
    # by a serial job.
    loaded = set(run_fresh("import json, sys\n"
                           "before = set(sys.modules)\n"
                           "import rootheight.cli\n"
                           "print(json.dumps(sorted(set(sys.modules) - before)))\n"))
    assert "rootheight.cli" in loaded
    heavy = {"concurrent.futures.process", "multiprocessing", "dataclasses",
             "inspect"}
    assert not loaded & heavy, sorted(loaded & heavy)


def test_cli_import_skips_identity_suite():
    # The identity suite is the largest module to compile; only verify and
    # munagi import it.
    loaded = run_fresh("import json, sys\n"
                       "import rootheight.cli\n"
                       "print(json.dumps(sorted(sys.modules)))\n")
    assert "rootheight.cli" in loaded
    assert "rootheight.identities" not in loaded


@pytest.mark.parametrize("argv,suite", [
    (["info", "A", "3", "--format", "json"], False),
    (["verify", "A", "2", "--format", "json"], True),
    (["munagi", "1,2", "--h", "4", "--format", "json"], True),
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_module_run_loads_suite_only_to_check(argv, suite):
    # The package as __main__, as `python -m rootheight` runs it: info must
    # not load rootheight.identities, and verify does, so the probe can fail.
    code, loaded, out = run_fresh(
        "import io, json, runpy, sys\n"
        f"sys.argv = ['rootheight', *{argv!r}]\n"
        "sys.stdout, real = io.StringIO(), sys.stdout\n"
        "try:\n"
        "    runpy.run_module('rootheight', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "out, sys.stdout = sys.stdout.getvalue(), real\n"
        "print(json.dumps([code, 'rootheight.identities' in sys.modules, out]))\n")
    assert code == 0
    assert json.loads(out)
    assert loaded is suite


# What the package exported when every name was imported eagerly, by the
# module it was imported from.
PACKAGE_EXPORTS = {
    "errors": ("DegreeTooHigh", "DivisionByZero", "GroupTooLarge", "InvalidRank",
               "MethodMismatch", "NoTripleFound", "NotDivisible",
               "ReconstructionMismatch", "RootHeightError", "SingularSystem",
               "UnsupportedOrder"),
    "exactalg": ("CycNum", "Polynomial", "RationalFunction", "cyc_eval", "poly_arith",
                 "poly_gcd", "poly_str", "ratfun_normalize"),
    "identities": ("IdentityReport", "MunagiDecomposition", "SingularityData",
                   "available_checks", "b_from_exponents", "b_poly", "dynkin_check",
                   "exponent_poly", "lagrange_all_roots", "lagrange_primitive_roots",
                   "mirimanoff_check", "munagi_decompose", "run_check", "run_suite",
                   "singularity_check", "singularity_data"),
    "numth": ("ArithSeq", "cyclotomic_discriminant", "cyclotomic_poly", "divisors",
              "gcd_count", "is_cohen", "mobius", "psi_poly", "ramanujan_sum",
              "ramanujan_sum_checked", "totient"),
    "rootsys": ("DEFAULT_BFS_CAP", "CoxeterElement", "RootSystem", "RootSystemId",
                "build", "cartan_matrix", "coxeter_element", "default_catalog",
                "factor_exponents", "factorization_string", "multiplicities",
                "power_sums", "weyl_length_gf_bruteforce", "weyl_length_gf_product",
                "weyl_order"),
}


def test_package_exports_resolve():
    listed = dir(rootheight)
    for module, names in PACKAGE_EXPORTS.items():
        owner = importlib.import_module(f"rootheight.{module}")
        for name in names:
            assert getattr(rootheight, name) is getattr(owner, name), name
            assert name in listed, name
    from rootheight import run_suite
    assert run_suite is identities.run_suite
    with pytest.raises(AttributeError):
        rootheight.no_such_name
