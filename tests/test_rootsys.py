"""Root-system engine tests: construction, invariants, Coxeter data, and the
Weyl-group oracle."""

import random
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from math import gcd

import pytest

from conftest import (clear_identity_memos, conjugate_partition, expand_binomials,
                      golden_charpoly, golden_exponents, string_closure)
import rootheight.rootsys as rootsys
from rootheight.errors import GroupTooLarge, InvalidRank, MethodMismatch
from rootheight.exactalg import Polynomial, _context
from rootheight.identities import run_suite
from rootheight.linalg import charpoly_int
from rootheight.numth import ArithSeq, cyclotomic_poly, divisors, is_cohen, ramanujan_sums
from rootheight.rootsys import (RootSystem, RootSystemId, _close_positive_roots,
                                build, cartan_matrix, coxeter_element,
                                factor_exponents, mat_mul, multiplicities,
                                power_sums, weyl_length_gf_bruteforce,
                                weyl_length_gf_product, weyl_order)


# -- reference routes: root coordinates, dense matrices and row updates ------


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def sparse_rows(cartan):
    """The nonzero (j, a_ij) pairs of each Cartan row."""
    return [tuple((j, c) for j, c in enumerate(row) if c) for row in cartan]


def reflect(v, i, rows):
    """s_i on the list v in place (only v[i] changes); returns <v, alpha_i^vee>."""
    c = sum(k * v[j] for j, k in rows[i])
    v[i] -= c
    return c


def pairings(cartan, root):
    """A root in simple-root coordinates as ``keyed`` holds a closure root:
    the frozenset of its nonzero (j, <root, alpha_j^vee>)."""
    p = (sum(a * x for a, x in zip(row, root)) for row in cartan)
    return frozenset((j, x) for j, x in enumerate(p) if x)


def positive_roots(cartan):
    """The positive roots in simple-root coordinates, by height and sorted
    within each height, from the root-string closure."""
    return [root for level in string_closure(cartan) for root in level]


def keyed(level):
    """A closure level as the set of its roots, each the frozenset of its
    (j, p_j) items."""
    return {frozenset(beta.items()) for beta in level}


def set_closure(cartan):
    """The closure that _close_positive_roots replaced: every s_i beta with
    p_i < 0 of a level, deduplicated in a set of frozensets of its nonzero
    pairings."""
    cols = rootsys._columns(cartan)
    levels = {1: {frozenset(col) for col in cols}}
    k = 1
    while k in levels:
        for beta in levels[k]:
            for i, c in beta:
                if c < 0:
                    p = defaultdict(int, beta)
                    rootsys._reflect(p, i, cols)
                    levels.setdefault(k - c, set()).add(
                        frozenset(item for item in p.items() if item[1]))
        yield levels.pop(k)
        k += 1


def two_rho_pairings(cartan, roots):
    """C times the sum of ``roots``: the pairings of their sum with the simple
    coroots."""
    total = [sum(col) for col in zip(*roots)]
    return tuple(sum(a * x for a, x in zip(row, total)) for row in cartan)


def dense_closure(cartan):
    """The positive roots by height in simple-root coordinates, each root of
    a live level carrying its dense pairing list: for p_i = c < 0 the root
    beta - c alpha_i has the pairings p - c (column i of C)."""
    n = len(cartan)
    levels = {1: {tuple(1 if j == i else 0 for j in range(n)): [row[i] for row in cartan]
                  for i in range(n)}}
    k = 1
    while k in levels:
        for beta, p in levels[k].items():
            for i, c in enumerate(p):
                if c < 0:
                    root = list(beta)
                    root[i] -= c
                    level = levels.setdefault(k - c, {})
                    if tuple(root) not in level:
                        level[tuple(root)] = [x - c * row[i] for x, row in zip(p, cartan)]
        yield sorted(levels.pop(k))
        k += 1


def row_coxeter(rs):
    """The matrix of c = s_0 ... s_{n-1} and the traces of c**0 .. c**(h-1),
    with the rows of c**t carried from step to step: s_i on the left
    replaces row i by -row_i - sum_{j != i} a_ij row_j, for i = n-1 .. 0."""
    n = rs.id.rank
    rows = [list(row) for row in mat_identity(n)]
    traces = []
    for t in range(rs.h):
        traces.append(sum(row[j] for j, row in enumerate(rows)))
        for i in range(n - 1, -1, -1):
            new = [-x for x in rows[i]]
            for j, a in enumerate(rs.cartan[i]):
                if a and j != i:
                    new = [x - a * y for x, y in zip(new, rows[j])]
            rows[i] = new
        if t == 0:
            matrix = tuple(map(tuple, rows))
    assert tuple(map(tuple, rows)) == mat_identity(n)
    return matrix, tuple(traces)


def column_coxeter(rs):
    """The matrix of c = s_0 ... s_{n-1} and the traces of c**0 .. c**(h-1),
    with every basis column carried through s_{n-1}, ..., s_0 at each step."""
    n, rows = rs.id.rank, sparse_rows(rs.cartan)
    cols = [list(col) for col in mat_identity(n)]
    traces = []
    for t in range(rs.h):
        traces.append(sum(col[j] for j, col in enumerate(cols)))
        for col in cols:
            for i in range(n - 1, -1, -1):
                reflect(col, i, rows)
        if t == 0:
            matrix = tuple(zip(*cols))
    assert tuple(map(tuple, cols)) == mat_identity(n)
    return matrix, tuple(traces)


def root_walk(cartan, two_rho):
    """Length counts of the orbit of the root-coordinate vector ``two_rho``
    walked in simple-root coordinates: s_i w is longer than w exactly when
    <w(2 rho), alpha_i^vee> > 0."""
    rows = sparse_rows(cartan)
    level = {tuple(two_rho)}
    counts = []
    while level:
        counts.append(len(level))
        nxt = set()
        for x in level:
            v = list(x)
            for i in range(len(rows)):
                if reflect(v, i, rows) > 0:
                    nxt.add(tuple(v))
                v[i] = x[i]
        level = nxt
    return Polynomial(counts)


def set_walk(rs):
    """The pairing-coordinate walk that weyl_length_gf_bruteforce replaced:
    every longer s_i w of a level, deduplicated in a set."""
    cols = rootsys._columns(rs.cartan)
    level = {rs.two_rho_pairings}
    counts = []
    while level:
        counts.append(len(level))
        nxt = set()
        for lam in level:
            for i, c in enumerate(lam):
                if c > 0:
                    v = list(lam)
                    rootsys._reflect(v, i, cols)
                    nxt.add(tuple(v))
        level = nxt
    return Polynomial(counts)


def scan_walk(rs):
    """The least-descent walk that weyl_length_gf_bruteforce replaced: every
    positive lambda_i of an element is tested against every negative
    lambda_j, and s_i w is kept when no j < i stays negative in it."""
    cartan, cols = rs.cartan, rootsys._columns(rs.cartan)
    level = [list(rs.two_rho_pairings)]
    counts = []
    while level:
        counts.append(len(level))
        nxt = []
        for lam in level:
            negative = [j for j, x in enumerate(lam) if x < 0]
            for i, c in enumerate(lam):
                if c > 0:
                    for j in negative:
                        if j < i and lam[j] <= c * cartan[j][i]:
                            break
                    else:
                        v = lam[:]
                        rootsys._reflect(v, i, cols)
                        nxt.append(v)
        level = nxt
    return Polynomial(counts)


def with_roots(rs, roots):
    """``rs`` rebuilt by the constructor with the 2 rho pairings summed from
    another positive-root list."""
    return RootSystem(rs.id, rs.cartan, rs.h, rs.exponents, rs.b,
                      two_rho_pairings(rs.cartan, roots), rs.m, rs.e_of_d, rs.p)


def reflection_matrix(cartan, i):
    """s_i as a dense matrix acting on simple-root coordinate columns."""
    n = len(cartan)
    rows = [tuple(1 if j == k else 0 for j in range(n)) for k in range(n)]
    rows[i] = tuple((1 if j == i else 0) - cartan[i][j] for j in range(n))
    return tuple(rows)


def coxeter_matrix(cartan):
    """c = s_0 s_1 ... s_{n-1} as a product of dense reflection matrices."""
    dense = mat_identity(len(cartan))
    for i in range(len(cartan)):
        dense = mat_mul(dense, reflection_matrix(cartan, i))
    return dense


def faddeev_leverrier(mat):
    """det(qI - M) by the trace recursion over n dense matrix products."""
    n = len(mat)
    m = mat_identity(n)
    coeffs_desc = [1]
    for k in range(1, n + 1):
        am = mat_mul(mat, m)
        q, r = divmod(-sum(am[i][i] for i in range(n)), k)
        assert r == 0
        coeffs_desc.append(q)
        m = tuple(tuple(am[i][j] + (q if i == j else 0) for j in range(n))
                  for i in range(n))
    return Polynomial(tuple(reversed(coeffs_desc)))


def product_charpoly(rs):
    """The route the trace guard of ``coxeter_element`` replaced: the product
    of Phi_d**m(h/d) over the divisors d of h, in dense powers."""
    out = Polynomial((1,))
    for d in divisors(rs.h):
        out = out * cyclotomic_poly(d) ** rs.m[(rs.h // d) % rs.h]
    return out


def with_m(rs, m):
    """A hand-built copy of rs with the multiplicities m and no cached data."""
    return RootSystem(rs.id, rs.cartan, rs.h, rs.exponents, rs.b,
                      rs.two_rho_pairings, m, rs.e_of_d, rs.p)


def coords_power_sums(rs):
    """The field route eq13's eigenvalue leg replaced: p(k) as the sum of
    z**(ek) over the exponents e, one reduction modulo Phi_h per k, failing
    at the first k whose sum is irrational or differs from the divisor sum;
    then the transform of m over the divisor-formula Ramanujan sums."""
    h = rs.h
    out = rootsys._divisor_power_sums(rs.e_of_d, h)
    ctx = _context(h)
    for k in range(h):
        acc = ctx.coords((e * k, 1) for e in rs.exponents)
        if any(acc[1:]) or acc[0] != out[k]:
            raise MethodMismatch(f"{rs.id}: p({k}) disagrees with eigenvalue sum")
    rows = [(w, d, ramanujan_sums(d)) for d in divisors(h) if (w := rs.m[(h // d) % h])]
    for k in range(h):
        if sum(w * row[k % d] for w, d, row in rows) != out[k]:
            raise MethodMismatch(f"{rs.id}: p({k}) disagrees with transform of m")
    return out


def power_sums_outcome(route, rs):
    """The power sums a route returns, or the text of its MethodMismatch."""
    try:
        return route(rs)
    except MethodMismatch as exc:
        return str(exc)


def matrix_bfs(rs):
    """Length generating function by BFS over the Cayley graph of the
    reflection matrices; BFS depth equals word length."""
    gens = [reflection_matrix(rs.cartan, i) for i in range(rs.id.rank)]
    ident = mat_identity(rs.id.rank)
    seen = {ident}
    level = [ident]
    counts = [1]
    while level:
        nxt = []
        for g in level:
            for s in gens:
                gs = mat_mul(g, s)
                if gs not in seen:
                    seen.add(gs)
                    nxt.append(gs)
        if nxt:
            counts.append(len(nxt))
        level = nxt
    return Polynomial(counts)


def large_systems():
    return [build(RootSystemId(fam, n))
            for fam, n in (("A", 60), ("C", 48), ("B", 25), ("D", 30))]


def small_ids(max_rank):
    ids = [RootSystemId(fam, n) for fam, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
           for n in range(low, max_rank + 1)]
    return ids + [RootSystemId("E", n) for n in (6, 7, 8)] + [
        RootSystemId("F", 4), RootSystemId("G", 2)]


class TestBuild:
    @pytest.mark.parametrize("family,rank", [
        ("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9),
        ("F", 3), ("G", 3), ("H", 2),
    ])
    def test_invalid_ranks(self, family, rank):
        with pytest.raises(InvalidRank):
            build(RootSystemId(family, rank))

    def test_rank2_hexagonal(self, catalog):
        rs = catalog["G2"]
        assert rs.h == 6
        assert rs.exponents == [1, 5]
        assert rs.b == [2, 1, 1, 1, 1]

    def test_rank2_simply_laced(self, catalog):
        rs = catalog["A2"]
        levels = list(_close_positive_roots(rs.cartan))
        assert [keyed(level) for level in levels] == [
            {frozenset({(0, 2), (1, -1)}), frozenset({(0, -1), (1, 2)})},
            {frozenset({(0, 1), (1, 1)})}]
        assert [len(level) for level in levels] == [2, 1]
        assert rs.two_rho_pairings == (2, 2)
        assert rs.b == [2, 1]
        assert rs.exponents == [1, 2]

    def test_largest_exceptional(self, catalog):
        rs = catalog["E8"]
        assert sum(map(len, _close_positive_roots(rs.cartan))) == 120
        assert rs.h == 30
        assert rs.exponents == [1, 7, 11, 13, 17, 19, 23, 29]

    def test_catalog_against_golden_tables(self, catalog):
        for rs in catalog.values():
            fam, n = rs.id.family, rs.id.rank
            assert rs.exponents == golden_exponents(fam, n)
            assert rs.b == conjugate_partition(rs.exponents, rs.h)
            assert len(positive_roots(rs.cartan)) == n * rs.h // 2

    def test_build_keeps_no_root_table(self):
        # build folds each closure level into b and the 2 rho pairings and
        # drops it.  The bound lies between that fold's 0.17 MiB peak and the
        # 4.3 MiB that a kept table of the 6,320 roots of 80 coordinates costs.
        tracemalloc.start()
        try:
            rs = build(RootSystemId("D", 80))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(rs.b) == 80 * 158 // 2
        assert peak < 2**20, f"build(D80) peaked at {peak / 2**20:.2f} MiB"

    def test_invariant_guard_survives_optimize(self):
        # A closure that loses the top height level must fail the build
        # even with asserts compiled out.
        script = (
            "import rootheight.rootsys as rootsys\n"
            "from rootheight.errors import RootHeightError\n"
            "assert False, 'asserts are on'\n"
            "close = rootsys._close_positive_roots\n"
            "rootsys._close_positive_roots = lambda cartan: list(close(cartan))[:-1]\n"
            "try:\n"
            "    rootsys.build(rootsys.RootSystemId('A', 3))\n"
            "except RootHeightError as exc:\n"
            "    print(type(exc).__name__)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "MethodMismatch\n"), proc.stderr

    def test_duplicating_closure_fails_at_once(self, monkeypatch):
        # A closure that keeps every child, not only the canonical parent's,
        # repeats roots, and its levels grow exponentially: build must refuse
        # the first level of more than n roots.  The mutant stops the test
        # if build asks it for a third level.
        yielded = []

        def every_child(cartan):
            cols = rootsys._columns(cartan)
            levels = {1: [dict(col) for col in cols]}
            k = 1
            while k in levels:
                if len(yielded) == 2:
                    pytest.fail(f"build consumed levels of {yielded} roots")
                level = levels.pop(k)
                for beta in level:
                    for i, c in beta.items():
                        if c < 0:
                            p = defaultdict(int, beta)
                            rootsys._reflect(p, i, cols)
                            levels.setdefault(k - c, []).append(
                                {j: x for j, x in p.items() if x})
                yielded.append(len(level))
                yield level
                k += 1

        monkeypatch.setattr(rootsys, "_close_positive_roots", every_child)
        with pytest.raises(MethodMismatch, match="E8: 14 roots of height 2 exceed the rank"):
            build(RootSystemId("E", 8))
        assert yielded == [8, 14]

    def test_closure_matches_root_strings(self):
        for rsid in small_ids(20):
            cartan = cartan_matrix(rsid)
            expected = [{pairings(cartan, root) for root in level}
                        for level in string_closure(cartan)]
            levels = list(_close_positive_roots(cartan))
            assert [keyed(level) for level in levels] == expected, rsid
            assert [len(level) for level in levels] == list(map(len, expected)), rsid

    def test_closure_matches_set_closure(self, catalog):
        # Each root comes once, from its canonical parent: every level has
        # the roots of the set closure, and no root twice.
        extra = [cartan_matrix(RootSystemId(fam, n))
                 for fam, n in (("A", 60), ("C", 48), ("B", 30), ("D", 40), ("E", 8))]
        for cartan in [rs.cartan for rs in catalog.values()] + extra:
            levels = list(_close_positive_roots(cartan))
            expected = list(set_closure(cartan))
            assert [keyed(level) for level in levels] == expected
            assert [len(level) for level in levels] == list(map(len, expected))

    def test_closure_matches_dense_oracle(self, catalog):
        # The root-coordinate closure with dense pairing lists: the same
        # height counts, and its roots sum to the stored 2 rho pairings.
        for rs in list(catalog.values()) + large_systems():
            levels = list(dense_closure(rs.cartan))
            assert [len(level) for level in levels] == rs.b, rs.id
            roots = [root for level in levels for root in level]
            assert two_rho_pairings(rs.cartan, roots) == rs.two_rho_pairings, rs.id
            assert rs.two_rho_pairings == (2,) * rs.id.rank, rs.id

    def test_catalog_invariants(self, catalog):
        for rs in catalog.values():
            n, h = rs.id.rank, rs.h
            assert rs.b[0] == n
            assert rs.b[-1] == 1
            heights = [sum(r) for r in positive_roots(rs.cartan)]
            assert heights == [k for k, bk in enumerate(rs.b, start=1) for _ in range(bk)]
            assert max(heights) == h - 1
            assert heights.count(h - 1) == 1
            assert heights.count(1) == n


class TestDerivedFunctions:
    def test_multiplicities(self, catalog):
        assert multiplicities(catalog["G2"]) == [0, 1, 0, 0, 0, 1]
        assert multiplicities(catalog["A3"]) == [0, 1, 1, 1]
        # Independent route: m(k) counts the exponents equal to k, and the
        # height counts b are their conjugate partition, so m(k) = b_k - b_(k+1).
        assert len(catalog) == 34
        for rs in catalog.values():
            b = list(rs.b) + [0]
            expected = [0] + [b[k - 1] - b[k] for k in range(1, rs.h)]
            assert multiplicities(rs) == rs.m == expected, rs.id

    def test_factor_exponents_fixtures(self, catalog):
        assert factor_exponents(catalog["G2"]) == {1: 1, 2: -1, 3: -1, 6: 1}
        assert factor_exponents(catalog["B3"]) == {1: 0, 2: 0, 3: -1, 6: 1}
        assert factor_exponents(catalog["E6"]) == {
            1: -1, 2: 1, 3: 1, 4: -1, 6: -1, 12: 1}

    def test_power_sums(self, catalog):
        g2 = catalog["G2"]
        assert power_sums(g2) == [2, 1, -1, -2, -1, 1]
        for name in ("A4", "B4", "D5", "F4"):
            rs = catalog[name]
            p = power_sums(rs)
            assert p == rs.p
            assert p[0] == rs.id.rank

    def test_power_sums_match_coords_route(self, catalog):
        # D84 has h = 166 = 2 * 83, where Phi_h is dense.
        systems = list(catalog.values()) + [build(RootSystemId("A", 60)),
                                            build(RootSystemId("D", 84))]
        for rs in systems:
            assert power_sums(rs) == coords_power_sums(rs) == rs.p, rs.id
        assert {rs.h for rs in systems} >= {61, 166}

    def test_power_sums_random_exponents(self):
        # Exponent lists whose residue counts are gcd-determined (one count
        # per gcd class) or not (any residues), with m and e(d) sometimes
        # off by one: the verdicts always agree with the coords route, and
        # the witnesses too when the counts are gcd-determined.
        rng = random.Random(221)
        seen = {"pass": 0, "gcd-determined fail": 0, "miss": 0}
        for h in range(1, 61):
            for trial in range(6):
                if trial % 2:
                    exps = [rng.randrange(2 * h) for _ in range(rng.randint(1, 8))]
                else:
                    counts = {g: rng.choice([0, 0, 1, 2]) for g in divisors(h)}
                    exps = [k for k in range(h) for _ in range(counts[gcd(k, h)])] or [0]
                m = rootsys._multiplicities(exps, h)
                e_of_d = rootsys._moebius_exponents(m, h)
                stored_m = list(m)
                if trial == 2:
                    e_of_d[rng.choice(divisors(h))] += 1
                elif trial == 4:
                    stored_m[rng.choice(divisors(h)) % h] += 1
                rs = RootSystem(RootSystemId("A", len(exps)), None, h, exps, None, None,
                                stored_m, e_of_d, None)
                got = power_sums_outcome(power_sums, rs)
                want = power_sums_outcome(coords_power_sums, rs)
                assert isinstance(got, str) == isinstance(want, str), (h, exps)
                gcd_determined, first = is_cohen(ArithSeq(h, tuple(m)))
                if gcd_determined:
                    assert got == want, (h, exps)
                else:
                    assert got == f"{rs.id}: eigenvalue sum: class transform misses m({first})"
                key = ("pass" if not isinstance(got, str)
                       else "gcd-determined fail" if gcd_determined else "miss")
                seen[key] += 1
        assert min(seen.values()) > 20, seen

    def test_power_sums_exponents_off_the_divisors(self, catalog):
        # A7's largest exponent 7 -> 6 puts two exponents in the class of
        # 6 and none at 7: the counts are no longer gcd-determined, and the
        # first node the inverse transform misses is m(6).
        rs = catalog["A7"]
        bad = RootSystem(rs.id, rs.cartan, rs.h, rs.exponents[:-1] + [6], rs.b,
                         rs.two_rho_pairings, rs.m, rs.e_of_d, rs.p)
        with pytest.raises(MethodMismatch,
                           match=r"^A7: eigenvalue sum: class transform misses m\(6\)$"):
            power_sums(bad)
        with pytest.raises(MethodMismatch, match=r"^A7: p\(1\) disagrees with eigenvalue sum$"):
            coords_power_sums(bad)


class TestCoxeterElement:
    def test_rank_one(self, catalog):
        cox = coxeter_element(catalog["A1"])
        assert cox.traces == (1, -1)
        assert cox.charpoly == Polynomial((1, 1))

    def test_rank2_hexagonal_charpoly(self, catalog):
        assert coxeter_element(catalog["G2"]).charpoly == Polynomial((1, -1, 1))

    def test_order_is_coxeter_number(self, catalog):
        for rs in catalog.values():
            matrix = coxeter_matrix(rs.cartan)
            power = mat_identity(rs.id.rank)
            for t in range(1, rs.h + 1):
                power = mat_mul(power, matrix)
                if t < rs.h:
                    assert power != mat_identity(rs.id.rank)
            assert power == mat_identity(rs.id.rank)

    def test_matrix_is_product_of_reflections(self, catalog):
        # The matrices of the row and column oracles below.
        for rs in catalog.values():
            dense = coxeter_matrix(rs.cartan)
            assert row_coxeter(rs)[0] == column_coxeter(rs)[0] == dense, rs.id

    def test_traces_match_dense_powers(self, catalog):
        for rs in catalog.values():
            matrix = coxeter_matrix(rs.cartan)
            power = mat_identity(rs.id.rank)
            traces = []
            for _ in range(rs.h):
                traces.append(sum(power[i][i] for i in range(rs.id.rank)))
                power = mat_mul(power, matrix)
            assert coxeter_element(rs).traces == tuple(traces), rs.id

    def test_rows_match_column_oracle(self, catalog):
        # The row loop and the column walk agree, and the orbit traces of
        # coxeter_element equal theirs.
        for rs in list(catalog.values()) + large_systems():
            matrix, traces = row_coxeter(rs)
            assert (matrix, traces) == column_coxeter(rs), rs.id
            assert coxeter_element(rs).traces == traces, rs.id

    def test_newton_matches_faddeev_leverrier(self, catalog):
        for rs in catalog.values():
            cox = coxeter_element(rs)
            dense = faddeev_leverrier(coxeter_matrix(rs.cartan))
            assert charpoly_int(cox.traces) == cox.charpoly == dense, rs.id

    def test_newton_remainder_raises(self):
        # traces (2, 0, 1) would need 2 c_2 = -1
        with pytest.raises(MethodMismatch):
            charpoly_int((2, 0, 1))

    def test_wrong_order_raises(self, catalog):
        a4 = catalog["A4"]
        wrong = RootSystem(a4.id, a4.cartan, 6, a4.exponents, a4.b,
                           a4.two_rho_pairings, a4.m + [0], a4.e_of_d, a4.p)
        with pytest.raises(MethodMismatch, match="order is not h"):
            coxeter_element(wrong)

    def test_charpoly_guard_raises(self, catalog):
        # c has order 5 on A4, but m moved from exponent 1 to 2 describes
        # other eigenvalues.
        a4 = catalog["A4"]
        wrong = RootSystem(a4.id, a4.cartan, a4.h, a4.exponents, a4.b,
                           a4.two_rho_pairings, [0, 0, 2, 1, 1], a4.e_of_d, a4.p)
        with pytest.raises(MethodMismatch, match="charpoly does not match"):
            coxeter_element(wrong)

    def test_trace_guard_matches_product_oracle(self, catalog):
        # The guard raises exactly when the charpoly of the traces differs
        # from the product of Phi_d**m(h/d), for randomly perturbed m >= 0.
        rng = random.Random(29)
        systems = list(catalog.values())
        systems += [build(RootSystemId(f, n)) for f, n in (("A", 30), ("D", 20), ("C", 12))]
        outcomes = []
        for rs in systems:
            charpoly = coxeter_element(rs).charpoly
            for _ in range(60):
                m = list(rs.m)
                for _ in range(rng.randint(0, 2)):
                    k = rng.randrange(rs.h)
                    m[k] = max(0, m[k] + rng.choice((-1, 1, 2)))
                copy = with_m(rs, m)
                try:
                    coxeter_element(copy)
                    raised = False
                except MethodMismatch as exc:
                    assert str(exc) == f"{rs.id}: charpoly does not match eigenvalue data"
                    raised = True
                assert raised == (charpoly != product_charpoly(copy)), (rs.id, m)
                outcomes.append(raised)
        assert 0 < sum(outcomes) < len(outcomes)

    def test_trace_guard_refuses_negative_m(self, catalog):
        # The product route could not raise Phi_d to a negative power; the
        # class transform takes it and misses the traces.
        a4 = catalog["A4"]
        with pytest.raises(MethodMismatch, match="charpoly does not match"):
            coxeter_element(with_m(a4, [0, -1, 2, 1, 2]))

    def test_built_once_per_system(self, monkeypatch):
        # Every check of the suite reads the Coxeter data, which is built
        # once and cached on the root system.
        clear_identity_memos()
        calls = []

        def counted(traces):
            calls.append(traces)
            return charpoly_int(traces)

        monkeypatch.setattr(rootsys, "charpoly_int", counted)
        reports = run_suite(build(RootSystemId("A", 30)))
        assert all(rep.verdict != "fail" for rep in reports)
        assert len(calls) == 1

    def test_charpoly_equals_golden_table(self, catalog):
        for rs in catalog.values():
            assert coxeter_element(rs).charpoly == golden_charpoly(
                rs.id.family, rs.id.rank)

    def test_binomial_reconstruction(self, catalog):
        for name in ("A5", "C4", "D6", "E7"):
            rs = catalog[name]
            e_of_d = factor_exponents(rs)
            assert set(e_of_d) == set(divisors(rs.h))


class TestWeylOracle:
    def test_tiny_groups(self, catalog):
        assert weyl_length_gf_bruteforce(catalog["A1"]) == Polynomial((1, 1))
        assert weyl_length_gf_bruteforce(catalog["A2"]) == Polynomial((1, 2, 2, 1))
        assert weyl_length_gf_bruteforce(catalog["G2"])(1) == 12

    def test_cap_enforced(self, catalog):
        with pytest.raises(GroupTooLarge):
            weyl_length_gf_bruteforce(catalog["E6"])
        assert weyl_length_gf_bruteforce(catalog["E6"], cap=60000)(1) == 51840

    def test_orbit_matches_matrix_bfs(self, catalog):
        small = [rs for rs in catalog.values() if weyl_order(rs) <= 1152]
        assert len(small) == 14
        for rs in small:
            assert weyl_length_gf_bruteforce(rs) == matrix_bfs(rs), rs.id

    def test_least_descent_walk_matches_set_walk(self, catalog):
        # Each element is reached once, from its least descent; the set walk
        # reaches it once per descent and deduplicates.
        systems = [rs for rs in catalog.values() if weyl_order(rs) <= 1152]
        assert len(systems) == 14
        for rs in systems + [catalog["D6"], catalog["E6"]]:
            assert weyl_length_gf_bruteforce(rs, cap=weyl_order(rs)) == set_walk(rs), rs.id

    def test_walk_matches_scan_walk(self, catalog):
        # The walk tests only the indices below the least descent and its
        # upper neighbours; the scan tests every positive index against
        # every negative one.  B6, C6 and E6 run long chains and the fork.
        systems = [rs for rs in catalog.values() if weyl_order(rs) <= 23040]
        assert len(systems) == 19
        for rs in systems + [catalog["E6"], catalog["B6"], catalog["C6"]]:
            assert weyl_length_gf_bruteforce(rs, cap=weyl_order(rs)) == scan_walk(rs), rs.id

    def test_each_element_produced_once(self, catalog, monkeypatch):
        # Every child the walk makes passes through _reflect: no element is
        # made twice, and every element but 1 is made.
        made = []
        real = rootsys._reflect

        def spy(p, i, cols):
            real(p, i, cols)
            made.append(tuple(p))

        monkeypatch.setattr(rootsys, "_reflect", spy)
        for name in ("B3", "D5", "E6", "F4", "G2"):
            rs = catalog[name]
            made.clear()
            weyl_length_gf_bruteforce(rs, cap=weyl_order(rs))
            assert len(made) == len(set(made)) == weyl_order(rs) - 1, name
            assert rs.two_rho_pairings not in made, name

    def test_weight_walk_matches_root_walk(self, catalog):
        small = [rs for rs in catalog.values() if weyl_order(rs) <= 23040]
        assert len(small) == 19
        for rs in small:
            two_rho = [sum(col) for col in zip(*positive_roots(rs.cartan))]
            assert weyl_length_gf_bruteforce(rs, cap=23040) == \
                root_walk(rs.cartan, two_rho), rs.id

    def test_dropped_simple_root_raises(self, catalog):
        for name in ("A4", "B3", "D5", "F4", "G2"):
            rs = catalog[name]
            full = positive_roots(rs.cartan)
            for k in range(rs.id.rank):
                roots = [r for r in full if r != full[k]]
                with pytest.raises(MethodMismatch, match="2\\*rho"):
                    weyl_length_gf_bruteforce(with_roots(rs, roots), cap=1920)

    def test_dropped_highest_root_raises(self, catalog):
        # Without the highest root the start is still regular, so the root
        # coordinate walk counts |W| all the same; only the start guard sees it.
        for name in ("A4", "B3", "D5", "F4", "G2"):
            rs = catalog[name]
            roots = positive_roots(rs.cartan)[:-1]
            broken = with_roots(rs, roots)
            two_rho = [sum(col) for col in zip(*roots)]
            assert root_walk(rs.cartan, two_rho) == \
                weyl_length_gf_bruteforce(rs, cap=1920), rs.id
            with pytest.raises(MethodMismatch, match="2\\*rho"):
                weyl_length_gf_bruteforce(broken, cap=1920)

    def test_wrong_order_count_raises(self, catalog):
        # Exponents whose product of (e + 1) is not |W| fail the count.
        a3 = catalog["A3"]
        wrong = RootSystem(a3.id, a3.cartan, a3.h, [1, 2, 4], a3.b,
                           a3.two_rho_pairings, a3.m, a3.e_of_d, a3.p)
        with pytest.raises(MethodMismatch, match="enumeration found 24 of 30"):
            weyl_length_gf_bruteforce(wrong)

    def test_products_match_enumeration(self, catalog):
        for name in ("A2", "A3", "B2", "B3", "C3", "G2", "D4"):
            rs = catalog[name]
            by_heights, by_exponents = weyl_length_gf_product(rs)
            assert by_heights == by_exponents
            gf = expand_binomials(by_exponents)
            assert gf == weyl_length_gf_bruteforce(rs)

    def test_product_value_at_one(self, catalog):
        f4 = catalog["F4"]
        _, by_exponents = weyl_length_gf_product(f4)
        assert expand_binomials(by_exponents)(1) == 1152
        assert weyl_order(f4) == 1152
