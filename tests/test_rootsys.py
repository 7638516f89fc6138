"""Root-system engine tests: construction, invariants, Coxeter data, and the
Weyl-group oracle."""

import subprocess
import sys
import tracemalloc

import pytest

from conftest import conjugate_partition, golden_charpoly, golden_exponents
from rootheight.errors import GroupTooLarge, InvalidRank, MethodMismatch
from rootheight.exactalg import Polynomial
from rootheight.linalg import charpoly_int
from rootheight.numth import divisors
from rootheight.rootsys import (RootSystem, RootSystemId, _close_positive_roots,
                                build, cartan_matrix, coxeter_element,
                                factor_exponents, mat_identity, mat_mul,
                                multiplicities, positive_roots, power_sums,
                                weyl_length_gf_bruteforce,
                                weyl_length_gf_product, weyl_order)


# -- reference routes: dense matrices and the per-vector sparse reflection ---


def sparse_rows(cartan):
    """The nonzero (j, a_ij) pairs of each Cartan row."""
    return [tuple((j, c) for j, c in enumerate(row) if c) for row in cartan]


def reflect(v, i, rows):
    """s_i on the list v in place (only v[i] changes); returns <v, alpha_i^vee>."""
    c = sum(k * v[j] for j, k in rows[i])
    v[i] -= c
    return c


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


def root_walk(rs):
    """Length counts of the orbit of 2 rho walked in simple-root coordinates:
    s_i w is longer than w exactly when <w(2 rho), alpha_i^vee> > 0."""
    rows = sparse_rows(rs.cartan)
    level = {rs.two_rho}
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


def with_roots(rs, roots):
    """``rs`` rebuilt by the constructor with 2 rho summed from another
    positive-root list."""
    two_rho = tuple(map(sum, zip(*roots)))
    return RootSystem(rs.id, rs.cartan, rs.h, rs.exponents, rs.b, two_rho,
                      rs.m, rs.e_of_d, rs.p)


def reflection_matrix(cartan, i):
    """s_i as a dense matrix acting on simple-root coordinate columns."""
    n = len(cartan)
    rows = [tuple(1 if j == k else 0 for j in range(n)) for k in range(n)]
    rows[i] = tuple((1 if j == i else 0) - cartan[i][j] for j in range(n))
    return tuple(rows)


def string_closure(cartan):
    """Height-by-height closure by root strings: alpha + alpha_i is a root
    exactly when p - <alpha, alpha_i^vee> > 0, p counting the steps
    alpha - alpha_i, alpha - 2 alpha_i, ... inside the set built so far."""
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    known = set(simple)
    levels = [sorted(simple)]
    current = simple
    while current:
        nxt = set()
        for alpha in current:
            for i in range(n):
                c = sum(cartan[i][j] * alpha[j] for j in range(n))
                p = 0
                beta = list(alpha)
                while True:
                    beta[i] -= 1
                    if beta[i] < 0 or tuple(beta) not in known:
                        break
                    p += 1
                if p - c > 0:
                    cand = list(alpha)
                    cand[i] += 1
                    nxt.add(tuple(cand))
        current = sorted(nxt)
        if current:
            known.update(current)
            levels.append(current)
    return levels


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
        assert set(positive_roots(rs)) == {(1, 0), (0, 1), (1, 1)}
        assert rs.b == [2, 1]
        assert rs.exponents == [1, 2]

    def test_largest_exceptional(self, catalog):
        rs = catalog["E8"]
        assert len(positive_roots(rs)) == 120
        assert rs.h == 30
        assert rs.exponents == [1, 7, 11, 13, 17, 19, 23, 29]

    def test_catalog_against_golden_tables(self, catalog):
        for rs in catalog.values():
            fam, n = rs.id.family, rs.id.rank
            assert rs.exponents == golden_exponents(fam, n)
            assert rs.b == conjugate_partition(rs.exponents, rs.h)
            assert len(positive_roots(rs)) == n * rs.h // 2

    def test_build_keeps_no_root_table(self):
        # build folds each closure level into b and 2 rho and drops it.  The
        # bound lies between that fold's 0.34 MiB peak and the 4.3 MiB that a
        # kept table of the 6,320 roots of 80 coordinates costs.
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

    def test_closure_matches_root_strings(self):
        for rsid in small_ids(20):
            cartan = cartan_matrix(rsid)
            levels = [sorted(level) for level in _close_positive_roots(cartan)]
            assert levels == string_closure(cartan), rsid

    def test_catalog_invariants(self, catalog):
        for rs in catalog.values():
            n, h = rs.id.rank, rs.h
            assert rs.b[0] == n
            assert rs.b[-1] == 1
            heights = [sum(r) for r in positive_roots(rs)]
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


class TestCoxeterElement:
    def test_rank_one(self, catalog):
        cox = coxeter_element(catalog["A1"])
        assert cox.matrix == ((-1,),)
        assert cox.charpoly == Polynomial((1, 1))

    def test_rank2_hexagonal_charpoly(self, catalog):
        assert coxeter_element(catalog["G2"]).charpoly == Polynomial((1, -1, 1))

    def test_order_is_coxeter_number(self, catalog):
        for rs in catalog.values():
            cox = coxeter_element(rs)
            power = mat_identity(rs.id.rank)
            for t in range(1, rs.h + 1):
                power = mat_mul(power, cox.matrix)
                if t < rs.h:
                    assert power != mat_identity(rs.id.rank)
            assert power == mat_identity(rs.id.rank)

    def test_matrix_is_product_of_reflections(self, catalog):
        for rs in catalog.values():
            dense = mat_identity(rs.id.rank)
            for i in range(rs.id.rank):
                dense = mat_mul(dense, reflection_matrix(rs.cartan, i))
            assert coxeter_element(rs).matrix == dense, rs.id

    def test_traces_match_dense_powers(self, catalog):
        for rs in catalog.values():
            cox = coxeter_element(rs)
            power = mat_identity(rs.id.rank)
            traces = []
            for _ in range(rs.h):
                traces.append(sum(power[i][i] for i in range(rs.id.rank)))
                power = mat_mul(power, cox.matrix)
            assert cox.traces == tuple(traces), rs.id

    def test_rows_match_column_oracle(self, catalog):
        large = [build(RootSystemId(fam, n))
                 for fam, n in (("A", 60), ("C", 48), ("B", 20), ("D", 20))]
        for rs in list(catalog.values()) + large:
            cox = coxeter_element(rs)
            assert (cox.matrix, cox.traces) == column_coxeter(rs), rs.id

    def test_newton_matches_faddeev_leverrier(self, catalog):
        for rs in catalog.values():
            cox = coxeter_element(rs)
            assert charpoly_int(cox.traces) == faddeev_leverrier(cox.matrix), rs.id
            assert cox.charpoly == faddeev_leverrier(cox.matrix), rs.id

    def test_newton_remainder_raises(self):
        # traces (2, 0, 1) would need 2 c_2 = -1
        with pytest.raises(MethodMismatch):
            charpoly_int((2, 0, 1))

    def test_wrong_order_raises(self, catalog):
        a4 = catalog["A4"]
        wrong = RootSystem(a4.id, a4.cartan, 6, a4.exponents, a4.b, a4.two_rho,
                           a4.m + [0], a4.e_of_d, a4.p)
        with pytest.raises(MethodMismatch, match="order is not h"):
            coxeter_element(wrong)

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

    def test_weight_walk_matches_root_walk(self, catalog):
        small = [rs for rs in catalog.values() if weyl_order(rs) <= 23040]
        assert len(small) == 19
        for rs in small:
            assert weyl_length_gf_bruteforce(rs, cap=23040) == root_walk(rs), rs.id

    def test_dropped_simple_root_raises(self, catalog):
        for name in ("A4", "B3", "D5", "F4", "G2"):
            rs = catalog[name]
            full = positive_roots(rs)
            for k in range(rs.id.rank):
                roots = [r for r in full if r != full[k]]
                with pytest.raises(MethodMismatch, match="2\\*rho"):
                    weyl_length_gf_bruteforce(with_roots(rs, roots), cap=1920)

    def test_dropped_highest_root_raises(self, catalog):
        # Without the highest root the start is still regular, so the root
        # coordinate walk counts |W| all the same; only the start guard sees it.
        for name in ("A4", "B3", "D5", "F4", "G2"):
            rs = catalog[name]
            broken = with_roots(rs, positive_roots(rs)[:-1])
            assert root_walk(broken) == weyl_length_gf_bruteforce(rs, cap=1920), rs.id
            with pytest.raises(MethodMismatch, match="2\\*rho"):
                weyl_length_gf_bruteforce(broken, cap=1920)

    def test_products_match_enumeration(self, catalog):
        for name in ("A2", "A3", "B2", "B3", "C3", "G2", "D4"):
            rs = catalog[name]
            by_heights, by_exponents = weyl_length_gf_product(rs)
            assert by_heights == by_exponents
            gf = by_exponents.normalize().as_polynomial()
            assert gf == weyl_length_gf_bruteforce(rs)

    def test_product_value_at_one(self, catalog):
        f4 = catalog["F4"]
        _, by_exponents = weyl_length_gf_product(f4)
        assert by_exponents.normalize().as_polynomial()(1) == 1152
        assert weyl_order(f4) == 1152
