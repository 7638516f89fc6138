"""Arithmetic-function tests: classical identities and frozen small values."""

import random
from fractions import Fraction
from math import gcd

import pytest

from rootheight.errors import MethodMismatch, UnsupportedOrder
from rootheight.exactalg import Polynomial, _context, cyc_eval
from rootheight.linalg import det
from rootheight.numth import (ArithSeq, _ramanujan_exp_sum, class_sums,
                              class_transform, cyclotomic_discriminant,
                              cyclotomic_poly, divisors, gcd_count, is_cohen, mobius,
                              psi_poly, ramanujan_sum, ramanujan_sum_checked,
                              ramanujan_sums, totient)


def qm1(d):
    return Polynomial((-1,) + (0,) * (d - 1) + (1,))


def cyclotomic_mobius(h):
    """Test oracle: the product over d | h of (q^d - 1)^mu(h/d), split into
    an exact numerator/denominator pair before one exact division."""
    num = Polynomial((1,))
    den = Polynomial((1,))
    for d in divisors(h):
        mu = mobius(h // d)
        if mu == 1:
            num = num * qm1(d)
        elif mu == -1:
            den = den * qm1(d)
    return num.divexact(den)


class TestBasics:
    @pytest.mark.parametrize("n,expected", [
        (1, [1]), (12, [1, 2, 3, 4, 6, 12]), (30, [1, 2, 3, 5, 6, 10, 15, 30]),
    ])
    def test_divisors(self, n, expected):
        assert divisors(n) == expected

    @pytest.mark.parametrize("n,expected", [(1, 1), (6, 1), (12, 0), (30, -1)])
    def test_mobius(self, n, expected):
        assert mobius(n) == expected

    @pytest.mark.parametrize("n,expected", [(1, 1), (12, 4), (30, 8)])
    def test_totient(self, n, expected):
        assert totient(n) == expected

    def test_totient_divisor_sum(self):
        for h in range(1, 1001):
            assert sum(totient(d) for d in divisors(h)) == h

    def test_mobius_divisor_sum(self):
        for h in range(2, 1001):
            assert sum(mobius(d) for d in divisors(h)) == 0


class TestRamanujan:
    def test_special_values(self):
        for h in range(1, 40):
            assert ramanujan_sum(h, 0) == totient(h)
            assert ramanujan_sum(h, 1) == mobius(h)

    def test_frozen_values(self):
        assert ramanujan_sum_checked(6, 2) == -1
        assert ramanujan_sum_checked(4, 2) == -2

    def test_periodicity_and_parity(self):
        for h in (6, 9, 12):
            for j in range(h):
                assert ramanujan_sum(h, j) == ramanujan_sum(h, j + h)
                assert ramanujan_sum(h, j) == ramanujan_sum(h, -j)

    def test_methods_agree_small(self):
        for h in range(1, 31):
            for j in range(h + 1):
                ramanujan_sum_checked(h, j)


class TestClassTransform:
    def test_rows_agree_with_root_sums(self):
        # For gcd-determined values the transform over either Ramanujan row
        # is sum_k values[k] z**(kj) over the h-th roots, taken here by one
        # reduction modulo Phi_h per j; a value moved off its class is the
        # node the inverse transform misses.
        rng = random.Random(222)
        for h in range(1, 41):
            w = {g: rng.choice([0, rng.randint(-5, 5), Fraction(rng.randint(-5, 5), 3)])
                 for g in divisors(h)}
            values = [w[gcd(k, h)] for k in range(h)]
            sums, missed = class_sums(values, h)
            assert missed is None and sums == class_transform(values, h, ramanujan_sums), h
            ctx = _context(h)
            for j in range(h):
                acc = ctx.coords((k * j, v) for k, v in enumerate(values))
                assert acc == [sums[j]] + [0] * (ctx.phi - 1), (h, j)
            off = [k for k in range(2, h) if h % k]
            if off:
                k = rng.choice(off)
                values[k] += 1
                assert class_sums(values, h)[1] == k == is_cohen(ArithSeq(h, values))[1], h

    def test_row_is_the_callers(self):
        # The transform reads the row it is given, at the divisors with a
        # nonzero weight only.
        asked = []

        def row(d):
            asked.append(d)
            return [d] * d

        # values[6/d] at d = 1, 2, 3, 6 is 0, 2, 0, 1, so s_j = 2 * 2 + 1 * 6.
        assert class_transform([0, 1, 0, 2, 0, 1], 6, row) == [10] * 6
        assert asked == [2, 6]


class TestCyclotomic:
    @pytest.mark.parametrize("h,coeffs", [
        (1, (-1, 1)), (6, (1, -1, 1)), (12, (1, 0, -1, 0, 1)),
    ])
    def test_small_polys(self, h, coeffs):
        assert cyclotomic_poly(h) == Polynomial(coeffs)

    def test_product_identity(self):
        for h in range(1, 121):
            prod = Polynomial((1,))
            for d in divisors(h):
                prod = prod * cyclotomic_poly(d)
            assert prod == qm1(h)

    def test_agrees_with_kernel_route(self):
        # The public operation takes the kernel's modulus, derived by
        # recursive division; the Moebius product is an independent route.
        for h in range(1, 121):
            assert cyclotomic_poly(h) == cyclotomic_mobius(h)

    def test_degree_is_totient(self):
        for h in range(1, 80):
            assert cyclotomic_poly(h).degree == totient(h)


class TestPsi:
    def test_small_values(self):
        assert psi_poly(6) == Polynomial((0, 1, 0, 0, 0, 1))
        assert psi_poly(4) == Polynomial((0, 1, 0, 1))
        assert psi_poly(1) == Polynomial((0, 1))

    def test_value_at_one_is_totient(self):
        for h in range(1, 60):
            assert psi_poly(h)(1) == totient(h)

    def test_values_at_roots_are_ramanujan_sums(self):
        for h in range(1, 61):
            psi = psi_poly(h)
            for k in range(h):
                assert cyc_eval(psi, h, k) == ramanujan_sum(h, k)


class TestGcdCount:
    def test_examples(self):
        assert gcd_count(2, 6, 5) == 2
        assert gcd_count(4, 6, 100) == 0
        for h in (3, 7, 10):
            for x in (0, 1, 5, Fraction(19, 2)):
                assert gcd_count(1, h, x) == int(Fraction(x))

    def test_enumeration_oracle(self):
        rng = random.Random(31)
        for _ in range(200):
            d = rng.randint(1, 8)
            h = rng.randint(1, 20)
            x = Fraction(rng.randint(0, 400), rng.randint(1, 7))
            direct = sum(1 for j in range(1, int(x) + 1) if gcd(j, h) % d == 0)
            assert gcd_count(d, h, x) == direct


class TestCohen:
    def test_witness_example(self):
        ok, k = is_cohen(ArithSeq(4, (0, 1, 0, 0)))
        assert not ok and k == 3

    def test_gcd_determined_sequence(self):
        h = 12
        vals = {d: d * d - 7 for d in divisors(h)}
        seq = [vals[h]] + [vals[gcd(k, h)] for k in range(1, h)]
        ok, k = is_cohen(ArithSeq(h, tuple(seq)))
        assert ok and k is None


class TestDiscriminant:
    @pytest.mark.parametrize("h,expected", [(3, -3), (4, -4), (5, 125)])
    def test_frozen_values(self, h, expected):
        assert cyclotomic_discriminant(h) == expected

    def test_low_order_rejected(self):
        with pytest.raises(UnsupportedOrder):
            cyclotomic_discriminant(2)

    def test_resultant_oracle(self):
        # disc(f) = (-1)^(d(d-1)/2) * Res(f, f') for monic f, with the
        # resultant computed as a Sylvester determinant.
        def sylvester_resultant(f, g):
            m, n = f.degree, g.degree
            size = m + n
            fs = list(reversed(f.coeffs))
            gs = list(reversed(g.coeffs))
            rows = []
            for i in range(n):
                rows.append([0] * i + fs + [0] * (size - m - 1 - i))
            for i in range(m):
                rows.append([0] * i + gs + [0] * (size - n - 1 - i))
            return det(rows)

        for h in range(3, 13):
            f = cyclotomic_poly(h)
            d = f.degree
            sign = -1 if (d * (d - 1) // 2) % 2 else 1
            assert cyclotomic_discriminant(h) == sign * sylvester_resultant(
                f, f.derivative())

    def test_gram_determinant_small(self):
        for h in range(3, 17):
            phi = totient(h)
            gram = [[ramanujan_sum(h, i + j) for j in range(phi)]
                    for i in range(phi)]
            assert det(gram) == cyclotomic_discriminant(h)


def test_exp_sum_rationality_guard():
    # The exponential-sum route must reduce to a plain integer.
    for h in (7, 9, 16):
        for j in range(h + 1):
            v = _ramanujan_exp_sum(h, j)
            assert isinstance(v, int)


def test_method_mismatch_type_exists():
    assert issubclass(MethodMismatch, Exception)
