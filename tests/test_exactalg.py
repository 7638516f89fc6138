"""Kernel tests: polynomials, cyclotomic numbers, rational functions."""

import math
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from rootheight.errors import DivisionByZero, NotDivisible
from rootheight.exactalg import (CycNum, Polynomial, RationalFunction,
                                 _coeff_inv, _context, _CycContext, _cyc_remainder,
                                 _divide, _low_terms, _ratio, cyc_eval, poly_arith,
                                 poly_gcd, poly_str, ratfun_normalize)
from rootheight.identities import _periodic_members
from rootheight.linalg import FractionLU
from rootheight.numth import (cyclotomic_poly, factorize, ramanujan_sum,
                              ramanujan_sum_checked, totient)


def P(*coeffs):
    return Polynomial(coeffs)


def qm1(d):
    return Polynomial((-1,) + (0,) * (d - 1) + (1,))


# Reference field arithmetic that shares no code with the division kernel:
# the modulus by Fraction long division, the reduced powers of the root by
# a recurrence, and reduction by reading off those powers term by term.


@lru_cache(maxsize=None)
def ref_cyclotomic(h):
    """Coefficients of Phi_h: q**h - 1 divided, by Fraction long division,
    by Phi_d for every proper divisor d of h."""
    num = [Fraction(c) for c in qm1(h).coeffs]
    for d in range(1, h):
        if h % d == 0:
            num, rem = _ref_divmod(num, ref_cyclotomic(d))
            assert not rem
    return tuple(int(c) for c in num)


@lru_cache(maxsize=None)
def ref_powers(h):
    """z**0 .. z**(h-1) in the power basis: multiply by z, then replace
    z**phi by -sum mod_i z**i."""
    mod = ref_cyclotomic(h)
    rows, cur = [], [1] + [0] * (len(mod) - 2)
    for _ in range(h):
        rows.append(cur)
        carry, cur = cur[-1], [0] + cur[:-1]
        if carry:
            cur = [c - carry * m for c, m in zip(cur, mod)]
    return rows


def ref_coords(h, terms):
    """Coordinates of the sum of c * z**e, one power row per term."""
    rows = ref_powers(h)
    acc = [0] * len(rows[0])
    for e, c in terms:
        for t, r in enumerate(rows[e % h]):
            acc[t] += c * r
    return acc


def ref_product(h, a, b):
    """Coordinates of the field product of two coordinate lists: the dense
    schoolbook product, each degree read off its power row."""
    return ref_coords(h, enumerate(_schoolbook(a, b)))


class TestPolynomial:
    def test_difference_of_squares(self):
        assert P(-1, 1) * P(1, 1) == P(-1, 0, 1)

    def test_divexact_binomials(self):
        assert qm1(6).divexact(qm1(3)) == P(1, 0, 0, 1)

    def test_divexact_rejects_remainder(self):
        with pytest.raises(NotDivisible):
            P(1, 0, 1).divexact(P(-1, 1))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            divmod(P(1, 2), Polynomial(()))

    def test_poly_arith_dispatch(self):
        a, b = P(1, 1), P(-1, 1)
        assert poly_arith(a, b, "add") == P(0, 2)
        assert poly_arith(a, b, "sub") == P(2)
        assert poly_arith(a, b, "mul") == P(-1, 0, 1)
        assert poly_arith(P(-1, 0, 1), b, "divexact") == a
        assert poly_arith(P(1, 0, 1), b, "rem") == P(2)

    def test_ring_axioms_random(self):
        rng = random.Random(1234)
        for _ in range(200):
            a, b, c = (Polynomial([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                   for _ in range(rng.randint(0, 6))])
                       for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert a * (b * c) == (a * b) * c

    def test_divmod_property_random(self):
        rng = random.Random(99)
        for _ in range(200):
            a = Polynomial([rng.randint(-6, 6) for _ in range(rng.randint(0, 9))])
            b = Polynomial([rng.randint(-6, 6) for _ in range(rng.randint(1, 5))])
            if b.is_zero:
                continue
            quot, rem = divmod(a, b)
            assert quot * b + rem == a
            assert rem.degree < b.degree

    @pytest.mark.parametrize("kind", ["int", "Fraction", "CycNum"])
    def test_non_monic_divmod_matches_scaled_divisor(self, kind):
        # The route divmod replaced for a divisor with leading coefficient
        # other than 1: the divisor scaled to monic, divided, and the
        # quotient scaled back; the same quotient and remainder tuples.
        rng = random.Random(107)
        if kind == "CycNum":
            def draw():
                return CycNum(12, [rng.randint(-3, 3) for _ in range(4)])
        elif kind == "int":
            def draw():
                return rng.choice([0, rng.randint(-6, 6)])
        else:
            def draw():
                return rng.choice([0, rng.randint(-6, 6), Fraction(rng.randint(-6, 6), 5)])
        checked = 0
        for _ in range(300):
            d = Polynomial([draw() for _ in range(rng.randint(1, 6))])
            n = Polynomial([draw() for _ in range(rng.randint(0, 12))])
            if d.is_zero or d.leading == 1 or n.degree < d.degree:
                continue
            inv = _coeff_inv(d.leading)
            den = [c * inv for c in d.coeffs]
            quot, rem = _divide(n.coeffs, _low_terms(den), len(den) - 1)
            want = (Polynomial([c * inv for c in quot]), Polynomial(rem))
            got = divmod(n, d)
            assert (got[0].coeffs, got[1].coeffs) == (want[0].coeffs, want[1].coeffs), (n, d)
            if kind != "CycNum":
                assert [type(c) for c in got[0].coeffs + got[1].coeffs] == \
                    [type(c) for c in want[0].coeffs + want[1].coeffs], (n, d)
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("lead", [1, -1, 2, Fraction(-3, 4), "CycNum"])
    def test_divmod_property_leading_coefficients(self, lead):
        # n = q * d + r with deg r < deg d, for a monic divisor, one scaled
        # to monic, and dividends shorter than the divisor.
        rng = random.Random(103)
        if lead == "CycNum":
            def draw():
                return CycNum(12, [rng.randint(-3, 3) for _ in range(4)])
            lead = CycNum(12, [1, -2, 0, 1])
        else:
            def draw():
                return rng.choice([0, rng.randint(-6, 6), Fraction(rng.randint(-6, 6), 5)])
        for _ in range(60):
            d = Polynomial([draw() for _ in range(rng.randint(0, 5))] + [lead])
            n = Polynomial([draw() for _ in range(rng.randint(0, 10))])
            quot, rem = divmod(n, d)
            assert quot * d + rem == n, (n, d)
            assert rem.degree < d.degree, (n, d)
            if n.degree < d.degree:
                assert quot.is_zero and rem == n

    def test_derivative_and_substitutions(self):
        p = P(1, 2, 3)
        assert p.derivative() == P(2, 6)
        assert p.compose_power(2) == P(1, 0, 2, 0, 3)
        assert p.reversed_to(2) == P(3, 2, 1)
        assert p.shifted(2) == P(0, 0, 1, 2, 3)

    def test_pretty_printer(self):
        assert poly_str(P(2, 1, -1, Fraction(1, 2))) == "2 + q - q^2 + 1/2*q^3"
        assert poly_str(Polynomial(())) == "0"


def fraction_trace(ctx, v, e=0):
    """Tr(v * z**e) as the field context took it before its integer trace
    table: the sum of v_t c_h(t + e), one Fraction-times-int product per
    nonzero coordinate v_t of v (a CycNum of the context's order or a
    rational)."""
    row, h = ctx.ramanujan_row, ctx.order
    coeffs = v.coeffs if isinstance(v, CycNum) else (v,)
    return sum(c * row[(t + e) % h] for t, c in enumerate(coeffs) if c)


def trace_values(ctx, v, stop):
    """The trace table's entries e = 0..stop-1 as rationals."""
    sums, den = ctx.traces(v, stop)
    return [_ratio(s, den) for s in sums]


class TestCycNum:
    @pytest.mark.parametrize("h", [1, 2, 3, 4, 6, 8, 12, 30])
    def test_root_of_unity_order(self, h):
        z = CycNum.zeta_pow(h, 1)
        power = CycNum.rational(h, 1)
        for _ in range(h):
            power = power * z
        assert power == 1
        assert cyc_eval(qm1(h), h, 1) == 0

    @pytest.mark.parametrize("h", [2, 3, 4, 5, 6, 9, 12, 20])
    def test_cyclotomic_vanishes_at_primitive_root(self, h):
        assert cyc_eval(cyclotomic_poly(h), h, 1) == 0

    @pytest.mark.parametrize("h", [2, 3, 5, 7, 11, 13])
    def test_full_root_sum_vanishes_prime(self, h):
        total = CycNum.rational(h, 0)
        for k in range(h):
            total = total + CycNum.zeta_pow(h, k)
        assert total == 0

    def test_all_roots_are_powers(self, ):
        h = 12
        for k in range(h):
            assert cyc_eval(Polynomial.monomial(k), h, 1) == CycNum.zeta_pow(h, k)

    def test_eval_examples(self):
        for k in range(6):
            assert cyc_eval(qm1(6), 6, k) == 0
        # exponent polynomial of the rank-2 hexagonal system at its own root
        assert cyc_eval(P(0, 1, 0, 0, 0, 1), 6, 1) == 1
        assert cyc_eval(Polynomial.monomial(1), 1, 0) == 1

    def test_inverse_roundtrip_random(self):
        rng = random.Random(5)
        for h in (4, 5, 6, 9, 12):
            phi = totient(h)
            for _ in range(25):
                x = CycNum(h, [Fraction(rng.randint(-4, 4)) for _ in range(phi)])
                if not x:
                    continue
                assert x * x.inverse() == 1
                assert x.inverse() * x == 1

    def test_memoised_inverses(self):
        for h in range(2, 31):
            ctx = _context(h)
            one = [1] + [0] * (ctx.phi - 1)
            dphi = cyclotomic_poly(h).derivative()
            assert ref_product(h, ctx.inv_one_minus.coeffs,
                               (1 - CycNum.zeta_pow(h, 1)).coeffs) == one
            assert ctx.inv_one_minus is ctx.inv_one_minus
            assert ref_product(h, ctx.inv_dphi.coeffs, cyc_eval(dphi, h, 1).coeffs) == one
            assert ctx.inv_dphi is ctx.inv_dphi
            # The other k, inverted directly.
            for k in range(1, h):
                x = 1 - CycNum.zeta_pow(h, k)
                assert ref_product(h, x.inverse().coeffs, x.coeffs) == one, (h, k)
            for k in ctx.residues:
                x = cyc_eval(dphi, h, k)
                assert ref_product(h, x.inverse().coeffs, x.coeffs) == one, (h, k)

    def test_inv_dphi_closed_form_matches_euclid(self):
        # z R(z)/h with R = (q**h - 1)/Phi_h against the extended-Euclid
        # inverse of Phi_h'(z) it replaced, coordinate types included.
        for h in [*range(1, 61), 899, 993, 998]:
            euclid = cyc_eval(cyclotomic_poly(h).derivative(), h, 1).inverse()
            got = _context(h).inv_dphi
            assert [(type(c), c) for c in got.coeffs] == \
                [(type(c), c) for c in euclid.coeffs], h

    @staticmethod
    def _coefficient(rng):
        return rng.choice([0, rng.randint(-5, 5),
                           Fraction(rng.randint(-5, 5), rng.randint(1, 4))])

    def test_modulus_and_powers_match_reference(self):
        for h in range(1, 61):
            assert _context(h).modulus == ref_cyclotomic(h), h
            rows = ref_powers(h)
            for e in range(-2 * h, 2 * h + 1):
                assert list(CycNum.zeta_pow(h, e).coeffs) == rows[e % h], (h, e)

    def test_modulus_guard_raises_and_caches_nothing(self, monkeypatch):
        # q**2 + 2 in place of Phi_4 leaves a remainder in q**12 - 1, so the
        # order-12 context is not built; once the fault is undone, the true
        # Phi_12 is.
        _context.cache_clear()
        monkeypatch.setattr(_context(4), "terms", ((0, 2),))
        with pytest.raises(NotDivisible, match=r"order 4 cyclotomic does not divide q\*\*12 - 1"):
            _context(12)
        monkeypatch.undo()
        assert _context(12).modulus == ref_cyclotomic(12)

    @pytest.mark.parametrize("orders", [range(1, 301), (1966, 1982, 1980, 2000)],
                             ids=["1-300", "large"])
    def test_cyc_remainder_matches_divmod(self, orders):
        # The fast route (fold modulo q**h - 1, then divide over the
        # context's memoised term list) against polynomial division by
        # Phi_h, on int sequences shorter and longer than h.  Fraction
        # sequences run the same loop; they are added where the slow route
        # over Fractions stays cheap (h <= 150, and h = 2000, whose modulus
        # has five terms); at h = 1966 it took over 4 s on a 2-core Xeon.
        rng = random.Random(17)
        for h in orders:
            modulus = Polynomial(_context(h).modulus)
            lengths = (rng.randint(0, h - 1), rng.randint(h + 1, 2 * h))
            seqs = [[rng.randint(-99, 99) for _ in range(n)] for n in lengths]
            if h <= 150 or h == 2000:
                seqs += [[Fraction(rng.randint(-99, 99), rng.randint(1, 12))
                          for _ in range(n)] for n in lengths]
            for seq in seqs:
                slow = divmod(Polynomial(seq), modulus)[1]
                assert Polynomial(_cyc_remainder(seq, h)) == slow, (h, len(seq))

    def test_coords_matches_naive_sum(self):
        rng = random.Random(8)
        for h in range(1, 61):
            for _ in range(10 if h in (1, 2, 5, 6, 12, 15, 30, 42, 60) else 2):
                terms = [(rng.randint(-2 * h, 2 * h), self._coefficient(rng))
                         for _ in range(rng.randint(0, 12))]
                naive = ref_coords(h, terms)
                assert CycNum(h, _context(h).coords(terms)) == CycNum(h, naive)
                assert _context(h).coords(terms) == naive, (h, terms)
                # the same sum as a polynomial evaluated at z**k
                k = rng.randint(-2 * h, 2 * h)
                p = [0] * (4 * h + 1)
                for e, c in terms:
                    p[e + 2 * h] += c
                assert list(cyc_eval(Polynomial(p), h, k).coeffs) == ref_coords(
                    h, [(i * k, c) for i, c in enumerate(p)]), (h, k, p)
        # integer inputs stay integers, so reprs of reduced sums do not change
        assert all(type(c) is int
                   for c in _context(12).coords([(1, 3), (5, 0), (7, -2)]))

    def test_root_sum_matches_products(self):
        # root_sum against the dense route it replaces: each value times
        # the reference power row of z**e as a field product, added up.
        rng = random.Random(13)

        def value(h):
            kind = rng.random()
            if kind < 0.2:
                return CycNum.rational(h, 0)
            if kind < 0.35:
                return rng.choice([0, rng.randint(-5, 5), Fraction(rng.randint(-5, 5), 3)])
            return CycNum(h, [self._coefficient(rng) for _ in range(totient(h))])

        for h in range(1, 61):
            ctx = _context(h)
            rows = ref_powers(h)
            for _ in range(4 if h <= 30 else 2):
                terms = [(rng.randint(-2 * h, 2 * h), value(h))
                         for _ in range(rng.randint(0, 10))]
                naive = [0] * ctx.phi
                for e, v in terms:
                    coeffs = v.coeffs if isinstance(v, CycNum) else (v,)
                    naive = [a + b for a, b in zip(naive, ref_product(h, rows[e % h], coeffs))]
                got = ctx.root_sum(terms)
                assert isinstance(got, CycNum) and got.order == h
                assert list(got.coeffs) == naive, (h, terms)

    def test_trace_matches_conjugate_root_sum(self):
        # The trace table, and the per-coordinate oracle, against the
        # conjugate route they replace: the root sum of sigma_k(v) z**(ke)
        # over the primitive residues k, where sigma_k(v) is v's coordinate
        # polynomial evaluated at z**k.  The table runs to e = h + 1, past
        # one period; e = -1 reads entry h - 1.
        rng = random.Random(17)
        for h in range(1, 41):
            ctx = _context(h)
            for _ in range(2 if h <= 12 else 1):
                v = CycNum(h, [rng.choice([0, rng.randint(-5, 5),
                                           Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
                               for _ in range(ctx.phi)])
                conjugates = [(k, cyc_eval(Polynomial(v.coeffs), h, k)) for k in ctx.residues]
                table = trace_values(ctx, v, h + 2)
                for e in range(-1, h + 1):
                    direct = ctx.root_sum((k * e, c) for k, c in conjugates)
                    assert direct.is_rational, (h, e)
                    assert table[e % h if e < 0 else e] == direct.as_rational(), (h, e)
                    assert fraction_trace(ctx, v, e) == direct.as_rational(), (h, e)
                r = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                assert trace_values(ctx, r, 2)[1] == trace_values(ctx, CycNum.rational(h, r), 2)[1]

    def test_ramanujan_row_matches_numth(self):
        for h in range(1, 61):
            assert _context(h).ramanujan_row == tuple(
                ramanujan_sum_checked(h, j) for j in range(h)), h

    def test_ramanujan_row_built_on_first_use(self):
        ctx = _CycContext(35)
        assert "ramanujan_row" not in vars(ctx)
        ctx.traces(CycNum.zeta_pow(35, 1), 1)
        assert "ramanujan_row" in vars(ctx)
        assert ctx.ramanujan_row is ctx.ramanujan_row

    def test_arith_mixes_with_rationals(self):
        z = CycNum.zeta_pow(12, 1)
        assert (z + 1) - z == 1
        assert Fraction(1, 2) * z + Fraction(1, 2) * z == z
        assert (2 * z) * Fraction(1, 2) == z


def count_fractions(fn, *args):
    """fn(*args) and the number of Fraction.__new__ calls it made, counted
    as bench/tracer.py counts them."""
    made, original = [], Fraction.__new__

    def counted(cls, *a, **kw):
        made.append(None)
        return original(cls, *a, **kw)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counted))
        result = fn(*args)
    return result, len(made)


class TestTraceTable:
    """A field context's trace table, integer sums over one denominator,
    against the per-coordinate Fraction sum it replaced (``fraction_trace``)."""

    DENSE = (998, 993, 899)  # 2p, 3p and pq near 1000

    @staticmethod
    def _values(ctx, rng):
        """1/Phi'(z), 1/(1 - z) (order above 1), a rational and two random
        elements with rational coordinates."""
        h = ctx.order
        values = [ctx.inv_dphi, Fraction(rng.randint(-9, 9), rng.randint(1, 7))]
        if h > 1:
            values.append(ctx.inv_one_minus)
        for _ in range(2):
            values.append(CycNum(h, [rng.choice([0, rng.randint(-9, 9),
                                                 Fraction(rng.randint(-9, 9), rng.randint(1, 12))])
                                     for _ in range(ctx.phi)]))
        return values

    def test_matches_fraction_oracle(self):
        # Every entry up to h = 60, three past one period.
        rng = random.Random(71)
        for h in range(1, 61):
            ctx = _context(h)
            for v in self._values(ctx, rng):
                sums, den = ctx.traces(v, h + 3)
                assert len(sums) == h + 3 and all(type(s) is int for s in sums)
                assert [Fraction(s, den) for s in sums] == [
                    fraction_trace(ctx, v, e) for e in range(h + 3)], (h, v)

    def test_matches_fraction_oracle_dense_orders(self):
        # The whole period is built; the oracle (about 0.6 ms a trace at
        # these orders) reads both ends of it and a random sample.
        rng = random.Random(73)
        for h in self.DENSE:
            ctx = _context(h)
            for v in self._values(ctx, rng):
                sums, den = ctx.traces(v, h + 1)
                assert len(sums) == h + 1
                for e in sorted({0, 1, h - 1, h, *rng.sample(range(h), 8)}):
                    assert Fraction(sums[e], den) == fraction_trace(ctx, v, e), (h, e)

    def test_one_fraction_at_most_per_non_integral_trace(self):
        # Building the table of one dense order-105 element and dividing
        # each entry once makes no Fraction but the non-integral results.
        h = 105
        ctx = _context(h)
        rng = random.Random(79)
        v = CycNum(h, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(ctx.phi)])
        assert ctx.ramanujan_row
        values, made = count_fractions(trace_values, ctx, v, h)
        non_integral = sum(type(x) is Fraction for x in values)
        assert non_integral and made <= non_integral
        assert values == [fraction_trace(ctx, v, e) for e in range(h)]


class TestRationalFunction:
    def test_cancellation(self):
        f = ratfun_normalize(P(-1, 0, 1), P(-1, 1))
        assert f.num == P(1, 1) and f.den == P(1)

    def test_rank2_hexagonal_ratio(self):
        # (n - E(q))/(1 - q) for exponents 1, 5 equals the height polynomial.
        f = ratfun_normalize(2 - P(0, 1, 0, 0, 0, 1), P(1, -1))
        assert f.num == P(2, 1, 1, 1, 1) and f.den == P(1)

    def test_zero_normalizes_to_zero_over_one(self):
        f = ratfun_normalize(Polynomial(()), P(3, 1, 4))
        assert f.num.is_zero and f.den == P(1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            RationalFunction(P(1), Polynomial(()))

    def test_normalize_idempotent(self):
        rng = random.Random(17)
        for _ in range(50):
            num = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))])
            den = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
            if den.is_zero:
                continue
            f = RationalFunction(num, den).normalize()
            g = f.normalize()
            assert f.num == g.num and f.den == g.den

    def test_cross_multiplication_equality(self):
        f = RationalFunction(P(-1, 0, 1), P(-1, 1))
        g = RationalFunction(P(2, 2), P(2))
        assert f == g
        assert f != g + 1

    def test_equality_matches_cross_multiplication(self):
        # == reads numerators alone over equal or negated denominators and
        # cross-multiplies otherwise: against cross-multiplication on random
        # pairs over equal, negated and unrelated denominators, the second
        # the first scaled by 1, -1 or c + q, about half of them with its
        # numerator then changed.
        rng = random.Random(3011)
        poly = lambda n: Polynomial([rng.choice([0, rng.randint(-4, 4),
                                                 Fraction(rng.randint(-4, 4), rng.randint(1, 5))])
                                     for _ in range(n)])
        kinds = {"equal": 0, "negated": 0, "unrelated": 0}
        results = set()
        for _ in range(600):
            # q**6 keeps the denominator nonzero.
            f = RationalFunction(poly(rng.randint(0, 6)), poly(6) + Polynomial.monomial(6))
            kind = rng.choice(list(kinds))
            scale = {"equal": P(1), "negated": P(-1),
                     "unrelated": P(rng.randint(1, 3), 1)}[kind]
            g = RationalFunction(f.num * scale, f.den * scale)
            if rng.random() < 0.5:
                g = RationalFunction(g.num + P(*[0] * rng.randint(0, 4), 1), g.den)
            want = f.num * g.den == g.num * f.den
            assert (f == g) is want and (g == f) is want, (f, g)
            kinds[kind] += 1
            results.add((kind, want))
        assert len(results) == 6 and min(kinds.values()) > 150

    def test_field_operations(self):
        half = RationalFunction(P(1), P(0, 2))
        assert half + half == RationalFunction(P(1), P(0, 1))
        assert half * 2 == RationalFunction(P(1), P(0, 1))
        assert half * RationalFunction(P(0, 2)) == RationalFunction(P(1), P(1))

    def test_polynomial_defers_to_rational_function(self):
        # p = q and f = 1/(1-q), in both operand orders: a rational function
        # is never taken for a coefficient of the polynomial.
        p, f = P(0, 1), RationalFunction(P(1), P(1, -1))
        R = lambda *num: RationalFunction(P(*num), P(1, -1))
        cases = {"p + f": (p + f, R(1, 1, -1)), "f + p": (f + p, R(1, 1, -1)),
                 "p - f": (p - f, R(-1, 1, -1)), "f - p": (f - p, R(1, -1, 1)),
                 "p * f": (p * f, R(0, 1)), "f * p": (f * p, R(0, 1))}
        for name, (got, want) in cases.items():
            assert isinstance(got, RationalFunction), name
            assert got == want, name
            assert not any(isinstance(c, RationalFunction)
                           for c in got.num.coeffs + got.den.coeffs), name

    def test_rational_function_is_no_coefficient(self):
        # Neither a numerator, a denominator nor a divisor may be a rational
        # function: each would make it a constant coefficient.
        q, f = P(0, 1), RationalFunction(P(1), P(1, -1))
        with pytest.raises(TypeError, match="not a polynomial coefficient"):
            RationalFunction(f)
        with pytest.raises(TypeError, match="not a polynomial coefficient"):
            RationalFunction(q, f)
        with pytest.raises(TypeError, match="not a polynomial coefficient"):
            divmod(q, f)
        assert RationalFunction._wrap(f) is f

    def test_polynomial_equality_defers_to_rational_function(self):
        p, f = P(0, 1), RationalFunction(P(1), P(1, -1))
        same = RationalFunction(P(0, 1, -1), P(1, -1))
        assert p == same and same == p
        assert not p != same and not same != p
        assert p != f and f != p
        assert not p == f and not f == p

    def test_gcd_examples(self):
        assert poly_gcd(qm1(6), qm1(4)) == qm1(2)
        assert poly_gcd(Polynomial(()), P(0, 2)).monic() == P(0, 1)


# Plain Fraction arithmetic on coefficient lists (lowest degree first): the
# route every coefficient took before integral values stayed ints.


def _frac(p):
    return [Fraction(c) for c in p.coeffs]


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_add(a, b):
    a, b = (a, b) if len(a) >= len(b) else (b, a)
    return _trim([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_divmod(a, b):
    rem, inv = list(a), 1 / b[-1]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in reversed(range(len(quot))):
        t = quot[i] = rem[i + len(b) - 1] * inv
        for j, c in enumerate(b):
            rem[i + j] -= t * c
    return _trim(quot), _trim(rem[:len(b) - 1])


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _ref_ratfun_add(na, da, nb, db):
    g = _ref_gcd(da, db)
    if len(g) < 2:
        return _ref_add(_ref_mul(na, db), _ref_mul(nb, da)), _ref_mul(da, db)
    da_g, db_g = _ref_divmod(da, g)[0], _ref_divmod(db, g)[0]
    return _ref_add(_ref_mul(na, db_g), _ref_mul(nb, da_g)), _ref_mul(da, db_g)


def _ref_normalize(num, den):
    if not num:
        return [], [Fraction(1)]
    g = _ref_gcd(num, den)
    num, den = _ref_divmod(num, g)[0], _ref_divmod(den, g)[0]
    inv = 1 / den[-1]
    return [c * inv for c in num], [c * inv for c in den]


class TestIntegerFastPath:
    """Integer inputs take int arithmetic and give the values of plain
    Fraction arithmetic; an integral coefficient is never a Fraction, and a
    divisor with leading coefficient +-1 keeps every result an int."""

    @staticmethod
    def _poly(rng, length, lead):
        if not length:
            return Polynomial(())
        return Polynomial([rng.randint(-6, 6) for _ in range(length - 1)] + [lead])

    @staticmethod
    def _cases(seed):
        rng = random.Random(seed)
        for unit in (True, False):
            for _ in range(150):
                leads = (1, -1) if unit else (2, -2, 3, -3, 5)
                yield unit, tuple(TestIntegerFastPath._poly(
                    rng, rng.randint(lo, hi), rng.choice(leads))
                    for lo, hi in ((0, 8), (1, 5), (0, 7), (1, 5)))

    @staticmethod
    def _typed(coeffs, unit):
        if unit:
            return all(type(c) is int for c in coeffs)
        return not any(isinstance(c, Fraction) and c.denominator == 1 for c in coeffs)

    def test_divmod_monic_gcd(self):
        for unit, (a, b, _, _) in self._cases(71):
            quot, rem = divmod(a, b)
            assert (list(quot.coeffs), list(rem.coeffs)) == _ref_divmod(_frac(a), _frac(b))
            monic = b.monic()
            assert list(monic.coeffs) == [c / _frac(b)[-1] for c in _frac(b)]
            g = poly_gcd(a, b)
            assert list(g.coeffs) == _ref_gcd(_frac(a), _frac(b))
            for p in (quot, rem, monic, g):
                assert self._typed(p.coeffs, unit), (a, b, p)
        # poly_gcd on plan denominators: products of cyclotomic polynomials
        # (leading coefficient 1) with a power of q and a sign.
        rng = random.Random(83)
        cyc = [cyclotomic_poly(d) for d in range(1, 31)]
        for _ in range(300):
            a, b = (rng.choice((1, -1)) * P(1).shifted(rng.randint(0, 3))
                    * math.prod(rng.sample(cyc, rng.randint(0, 4)), start=P(1))
                    for _ in range(2))
            g = poly_gcd(a, b)
            assert list(g.coeffs) == _ref_gcd(_frac(a), _frac(b)), (a, b)
            assert all(type(c) is int for c in g.coeffs), (a, b, g)
        # A zero operand on either side, and constants.
        small = (P(), P(3), P(-2), P(Fraction(1, 2)), qm1(6), P(0, 2, 4), P(Fraction(1, 3), 1))
        for a in small:
            for b in small:
                g = poly_gcd(a, b)
                if a.is_zero and b.is_zero:
                    assert g.is_zero
                else:
                    assert list(g.coeffs) == _ref_gcd(_frac(a), _frac(b)), (a, b)
                    assert self._typed(g.coeffs, False), (a, b, g)
        # Rational operands with non-unit content and a non-integral gcd.
        for _ in range(200):
            common = P(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(1, 4))
            a, b = (common * P(*[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                 for _ in range(rng.randint(1, 4))] + [rng.randint(1, 5)])
                    * Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(2))
            g = poly_gcd(a, b)
            assert list(g.coeffs) == _ref_gcd(_frac(a), _frac(b)), (a, b)
            assert g.degree >= 1 and self._typed(g.coeffs, False), (a, b, g)

    def test_rational_function_add_and_normalize(self):
        for unit, (na, da, nb, db) in self._cases(73):
            s = RationalFunction(na, da) + RationalFunction(nb, db)
            assert (list(s.num.coeffs), list(s.den.coeffs)) == _ref_ratfun_add(
                _frac(na), _frac(da), _frac(nb), _frac(db))
            f = RationalFunction(na, da).normalize()
            assert (list(f.num.coeffs), list(f.den.coeffs)) == _ref_normalize(
                _frac(na), _frac(da))
            for p in (s.num, s.den, f.num, f.den):
                assert self._typed(p.coeffs, unit), (na, da, nb, db, p)

    def test_cyclotomic_inverse(self):
        # Reference: solve x * y = 1 for the coordinates of y over the
        # rationals, one column x * z**j per basis power.
        rng = random.Random(79)
        for h in (3, 4, 5, 6, 7, 8, 9, 10, 12, 15):
            phi = totient(h)
            for _ in range(12):
                x = CycNum(h, [rng.randint(-4, 4) for _ in range(phi)])
                if not x:
                    continue
                cols = [(x * CycNum.zeta_pow(h, j)).coeffs for j in range(phi)]
                lu = FractionLU([[cols[j][i] for j in range(phi)] for i in range(phi)])
                inv = x.inverse()
                assert list(inv.coeffs) == lu.solve([1] + [0] * (phi - 1))
                assert self._typed(inv.coeffs, False)
            # 1 - z**k is a unit of Z[z] when h is not a prime power: its
            # inverse stays in ints.
            if len(factorize(h)) > 1:
                for k in range(1, h):
                    if gcd(k, h) == 1:
                        inv = (1 - CycNum.zeta_pow(h, k)).inverse()
                        assert self._typed(inv.coeffs, True), (h, k, inv)


def _schoolbook(a, b):
    """Dense product: every pair of entries, zeros included."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


class TestSparseProduct:
    """Products skip zero entries and put the sparser operand outside; the
    values are those of the dense schoolbook product."""

    KINDS = {
        "int": lambda rng: rng.randint(-9, 9),
        "Fraction": lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
        "CycNum": lambda rng: CycNum(12, [rng.randint(-3, 3) for _ in range(4)]),
    }

    @staticmethod
    def _coeffs(rng, draw, length, density):
        out = [draw(rng) if rng.random() < density else 0 for _ in range(length)]
        out[-1] = out[-1] or 1
        return out

    @staticmethod
    def _no_integral_fraction(values):
        for v in values:
            cs = v.coeffs if isinstance(v, CycNum) else (v,)
            assert not any(isinstance(c, Fraction) and c.denominator == 1 for c in cs)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_polynomial_product_matches_schoolbook(self, kind):
        rng = random.Random(89)
        draw = self.KINDS[kind]
        for _ in range(60):
            a, b = (self._coeffs(rng, draw, rng.randint(1, 25),
                                 rng.choice((0.1, 0.3, 1.0))) for _ in range(2))
            prod = Polynomial(a) * Polynomial(b)
            assert prod == Polynomial(_schoolbook(a, b)), (a, b)
            assert Polynomial(b) * Polynomial(a) == prod
            self._no_integral_fraction(prod.coeffs)

    def test_sparse_binomial_factor(self):
        # 1 - q**d times a dense polynomial: d + 1 entries, two of them nonzero.
        rng = random.Random(97)
        dense = [rng.randint(-9, 9) for _ in range(40)] + [1]
        for d in (1, 5, 30, 90):
            factor = [1] + [0] * (d - 1) + [-1]
            assert (Polynomial(dense) * Polynomial(factor)).coeffs == \
                Polynomial(_schoolbook(dense, factor)).coeffs

    @pytest.mark.parametrize("h", [5, 7, 9, 12, 15, 16, 1, 2, 27, 30, 42, 59, 60])
    def test_cyclotomic_product_matches_schoolbook(self, h):
        # Reduced by the reference power rows, not by the kernel under test.
        rng = random.Random(101 + h)
        phi = totient(h)
        for _ in range(40):
            x, y = (CycNum(h, [rng.choice((0, 0, rng.randint(-5, 5),
                                           Fraction(rng.randint(-5, 5), 3)))
                               for _ in range(phi)]) for _ in range(2))
            ref = ref_product(h, x.coeffs, y.coeffs)
            assert list((x * y).coeffs) == ref, (x, y)
            self._no_integral_fraction((x * y, y * x))


def test_cyclotomic_coordinates_integral_as_int():
    # A root_sum numerator: prop6's eigenvalue poles at h = 12 as the field
    # route built them, coefficient j the sum of -c_12(k) z**(k(12-j)),
    # scaled by 1/12 as a failing chain's witness scaled them.  Every
    # coordinate is an integer, held as an int, not as Fraction(k, 1); the
    # member itself is that numerator negated over 1 - q**12.
    h = 12
    a = [ramanujan_sum(h, k) for k in range(h)]
    ctx = _context(h)
    num = [ctx.root_sum((k * (h - j), -c) for k, c in enumerate(a)) * Fraction(1, h)
           for j in range(h)]
    coords = [x for c in num for x in c.coeffs]
    assert coords and all(type(x) is int for x in coords)
    name, rf = _periodic_members(h, a)[0]
    assert name == "eigenvalue poles"
    assert rf * Fraction(1, h) == RationalFunction(Polynomial(num),
                                                   Polynomial((-1,) + (0,) * (h - 1) + (1,)))
    assert CycNum(5, [Fraction(4, 2), 0, Fraction(1, 2), 0]).coeffs == (2, 0, Fraction(1, 2), 0)
