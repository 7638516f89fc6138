"""Root-system engine tests: construction, invariants, Coxeter data, and the
Weyl-group oracle."""

import subprocess
import sys

import pytest

from conftest import conjugate_partition, golden_charpoly, golden_exponents
from rootheight.errors import GroupTooLarge, InvalidRank
from rootheight.exactalg import Polynomial
from rootheight.numth import divisors
from rootheight.rootsys import (RootSystemId, build, coxeter_element,
                                factor_exponents, mat_identity, mat_mul,
                                multiplicities, power_sums,
                                weyl_length_gf_bruteforce,
                                weyl_length_gf_product, weyl_order)


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
        assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}
        assert rs.b == [2, 1]
        assert rs.exponents == [1, 2]

    def test_largest_exceptional(self, catalog):
        rs = catalog["E8"]
        assert len(rs.positive_roots) == 120
        assert rs.h == 30
        assert rs.exponents == [1, 7, 11, 13, 17, 19, 23, 29]

    def test_catalog_against_golden_tables(self, catalog):
        for rs in catalog.values():
            fam, n = rs.id.family, rs.id.rank
            assert rs.exponents == golden_exponents(fam, n)
            assert rs.b == conjugate_partition(rs.exponents, rs.h)
            assert len(rs.positive_roots) == n * rs.h // 2

    def test_invariant_guard_survives_optimize(self):
        # A closure that loses the top height level must fail the build
        # even with asserts compiled out.
        script = (
            "import rootheight.rootsys as rootsys\n"
            "from rootheight.errors import RootHeightError\n"
            "assert False, 'asserts are on'\n"
            "close = rootsys._close_positive_roots\n"
            "rootsys._close_positive_roots = lambda cartan: close(cartan)[:-1]\n"
            "try:\n"
            "    rootsys.build(rootsys.RootSystemId('A', 3))\n"
            "except RootHeightError as exc:\n"
            "    print(type(exc).__name__)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "MethodMismatch\n"), proc.stderr

    def test_catalog_invariants(self, catalog):
        for rs in catalog.values():
            n, h = rs.id.rank, rs.h
            assert rs.b[0] == n
            assert rs.b[-1] == 1
            heights = [sum(r) for r in rs.positive_roots]
            assert heights == rs.heights
            assert max(heights) == h - 1
            assert heights.count(h - 1) == 1
            assert heights.count(1) == n


class TestDerivedFunctions:
    def test_multiplicities(self, catalog):
        assert multiplicities(catalog["G2"]) == [0, 1, 0, 0, 0, 1]
        assert multiplicities(catalog["A3"]) == [0, 1, 1, 1]
        for rs in catalog.values():
            m = multiplicities(rs)
            assert m == rs.m
            assert m[0] == 0 and sum(m) == rs.id.rank

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
