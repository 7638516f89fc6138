"""Identity-catalog tests: frozen small values, decomposition oracles,
interpolation projections, and full-suite runs on small systems."""

import json
import random
from collections import Counter
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import pytest

import rootheight.identities as identities
import rootheight.rootsys as rootsys
from conftest import (MEMO_MODULES, assert_over, binomial_product, clear_identity_memos,
                      expand_binomials, lifted_to, one_minus, rf_sum, sequential_chain,
                      slow_dynkin_relations, slow_prop7_head, slow_prop12_members,
                      slow_weight_form_members, weighted_sum)
from rootheight.errors import (DegreeTooHigh, MethodMismatch, ReconstructionMismatch,
                               RootHeightError, SingularSystem)
from rootheight.exactalg import (CycNum, Polynomial, RationalFunction, _context,
                                 _sum_plan, cyc_eval, poly_gcd)
from rootheight.cli import main
from rootheight.identities import (ONE, SingularityData, ZERO, _gram_lu,
                                   _lvec_interpolated, available_checks,
                                   b_from_exponents, b_poly, dynkin_check,
                                   exponent_poly, lagrange_all_roots,
                                   lagrange_primitive_roots, mirimanoff_check,
                                   munagi_decompose, pole_sum_witness,
                                   run_suite,
                                   singularity_check, singularity_data)
from rootheight.linalg import FractionLU, det
from rootheight.numth import (ArithSeq, class_sums, cyclotomic_discriminant,
                              cyclotomic_poly, divisors, is_cohen, mobius, psi_poly,
                              ramanujan_sum, ramanujan_sums, totient)
from rootheight.rootsys import (CoxeterElement, RootSystem, RootSystemId, build,
                                coxeter_element, weyl_length_gf_product, weyl_order)
from test_differential import CORRUPTIONS, SYSTEMS, corrupted
from test_exactalg import count_fractions, fraction_trace


def P(*coeffs):
    return Polynomial(coeffs)


def dense_munagi_parts(numer, h):
    """The dense route munagi_decompose replaced: coefficient i of numer is
    the sum of coefficient j of H_d over the (d, j) with i = j mod d, an
    h x h 0/1 system solved by rational LU."""
    cols = [(d, j) for d in divisors(h) for j in range(totient(d))]
    lu = FractionLU([[1 if i % d == j else 0 for d, j in cols] for i in range(h)])
    sol = lu.solve([Fraction(numer.coeff(i)) for i in range(h)])
    parts = {d: [] for d in divisors(h)}
    for (d, _), v in zip(cols, sol):
        parts[d].append(v)
    return {d: Polynomial(cs) for d, cs in parts.items()}


def product_reconstruct(dec):
    """The product form MunagiDecomposition.reconstruct replaced: the sum of
    H_d * (1 + q**d + ... + q**(h-d)) as Fraction polynomial products."""
    total = Polynomial(())
    for d, part in dec.parts.items():
        total = total + part * Polynomial([1 if i % d == 0 else 0
                                           for i in range(dec.h - d + 1)])
    return total


def div_linear(coeffs, z):
    """Exact quotient of a coefficient list by (q - z), for a root z, by
    synthetic division (the route the closed-form root sums replaced)."""
    n = len(coeffs) - 1
    out = [0] * n
    acc = coeffs[n]
    for i in range(n - 1, -1, -1):
        out[i] = acc
        acc = coeffs[i] + z * acc
    assert not acc, f"q - {z!r} leaves remainder {acc!r}"
    return Polynomial(out)


def sum_over_roots(weights, h, shift=0):
    """The field route the class sums replaced: the sum of
    w_k z**(k * shift) / (q - z**k) over all h-th roots of unity z**k, as
    one rational function over q**h - 1; (q**h - 1)/(q - z**k) is the sum of
    z**(k(h-1-j)) q**j, so coefficient j is one root sum (h reductions
    modulo Phi_h)."""
    ctx = _context(h)
    return RationalFunction(Polynomial([ctx.root_sum((k * (h - 1 - j + shift), w)
                                                     for k, w in enumerate(weights))
                                        for j in range(h)]), P(-1, *[0] * (h - 1), 1))


def trace_pairings(rs):
    """The field route prop1's class sums replaced: the pairing at k,
    sum_t Tr(c**t) z**(-kt), as the power-basis coordinates of one
    reduction modulo Phi_h per k."""
    ctx = _context(rs.h)
    traces = coxeter_element(rs).traces
    return [ctx.coords((-k * t, tr) for t, tr in enumerate(traces)) for k in range(rs.h)]


def random_cycnums(rng, h, count):
    """Random elements of the order-h field, about a fifth of them zero."""
    return [CycNum(h, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(totient(h))]) if rng.random() < 0.8
            else CycNum.rational(h, 0) for _ in range(count)]


def conjugate_lagrange_primitive_roots(values, h):
    """The conjugate-values route lagrange_primitive_roots replaced: the
    root sums U(e) = sum_k v_k z**(ke) over the primitive residues k, one
    field element each, then the barycentric numerator from U and the
    coordinates of 1/Phi'(z), all in the order-h field."""
    ctx = _context(h)
    phi = ctx.phi
    sums = [ctx.root_sum((k * e, v) for k, v in zip(ctx.residues, values))
            for e in range(min(h, 2 * phi - 1))]
    inv = [(t, a) for t, a in enumerate(ctx.inv_dphi.coeffs) if a]
    dsums = [sum((a * sums[(t + e) % h] for t, a in inv), CycNum.rational(h, 0))
             for e in range(phi)]
    return Polynomial([sum((c * dsums[i - 1 - j] for i, c in enumerate(ctx.modulus)
                            if i > j and c), CycNum.rational(h, 0))
                       for j in range(phi)])


def conjugates(v, h):
    """The values sigma_k(v) at the primitive residues k: the coordinate
    polynomial of v evaluated at z**k."""
    coeffs = v.coeffs if isinstance(v, CycNum) else (v,)
    return [cyc_eval(Polynomial(coeffs), h, k) for k in _context(h).residues]


def bordered_det_minors(vec, mat):
    """The paper's determinant form: det [[0, (1, q, ..., q^{k-1})],
    [vec^T, mat]] expanded along the polynomial row, one k x k minor per
    power."""
    k = len(vec)
    out = Polynomial(())
    for c in range(1, k + 1):
        minor = [[vec[i]] + [mat[i][j] for j in range(k) if j != c - 1]
                 for i in range(k)]
        out = out + Polynomial.monomial(c - 1, (-1 if c % 2 else 1) * det(minor))
    return out


class TestHeightPolynomial:
    def test_rank2_hexagonal(self, catalog):
        assert b_poly(catalog["G2"]) == P(2, 1, 1, 1, 1)

    def test_rank_one(self, catalog):
        assert b_poly(catalog["A1"]) == P(1)

    def test_largest_exceptional_count(self, catalog):
        assert b_poly(catalog["E8"])(1) == 120

    def test_from_exponents(self):
        assert b_from_exponents([1, 5]) == P(2, 1, 1, 1, 1)

    def test_exponent_poly(self, catalog):
        assert exponent_poly(catalog["D4"]) == P(0, 1, 0, 2, 0, 1)


class TestMunagi:
    def test_period_two_closed_form(self):
        rng = random.Random(3)
        for _ in range(30):
            a0, a1 = rng.randint(-9, 9), rng.randint(-9, 9)
            dec = munagi_decompose(P(a0, a1), 2)
            assert dec.parts[1] == P(a1)
            assert dec.parts[2] == P(a0 - a1)

    def test_m_sequence_parts_are_constants(self, catalog):
        g2 = catalog["G2"]
        dec = munagi_decompose(Polynomial(g2.m), 6)
        assert {d: list(p.coeffs) for d, p in dec.parts.items()} == {
            1: [1], 2: [-1], 3: [-1], 6: [1]}

    def test_p_sequence_parts_are_constants(self, catalog):
        g2 = catalog["G2"]
        dec = munagi_decompose(Polynomial(g2.p), 6)
        assert {d: list(p.coeffs) for d, p in dec.parts.items()} == {
            1: [1], 2: [-2], 3: [-3], 6: [6]}

    def test_non_constant_part_for_non_cohen_input(self):
        dec = munagi_decompose(P(0, 1, 0, 0), 4)
        assert any(p.degree >= 1 for p in dec.parts.values())

    def test_degree_guard(self):
        with pytest.raises(DegreeTooHigh):
            munagi_decompose(P(1, 1, 1), 2)

    def test_period_must_be_positive(self):
        # Rejected before any work, so h = 0 cannot yield empty parts and
        # h = -3 does not blame the degree (-1) of the zero numerator.
        for numer in (Polynomial(()), P(1)):
            for h in (0, -3):
                with pytest.raises(ValueError, match=f"period must be positive, got {h}"):
                    munagi_decompose(numer, h)

    def test_guard_fails_through_term_table(self, monkeypatch):
        # One wrong entry in the memoised term list of Phi_6 gives a wrong
        # H_6; the parts are unique, so the round trip must catch it.
        ctx = _context(6)
        (j, c), *others = ctx.terms
        monkeypatch.setattr(ctx, "terms", ((j, c + 1), *others))
        with pytest.raises(ReconstructionMismatch):
            munagi_decompose(P(1, 2, 3), 6)
        monkeypatch.undo()
        assert munagi_decompose(P(1, 2, 3), 6).reconstruct() == P(1, 2, 3)

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for h in range(2, 25):
            for _ in range(20):
                numer = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                                    for _ in range(h)])
                dec = munagi_decompose(numer, h)
                assert dec.reconstruct() == numer
                for d, part in dec.parts.items():
                    assert part.degree < totient(d)

    def test_matches_dense_route(self):
        rng = random.Random(31)
        for h in list(range(1, 61)) + [72, 90, 120]:
            integer = Polynomial([rng.randint(-99, 99) for _ in range(h)])
            rational = Polynomial([Fraction(rng.randint(-99, 99), rng.randint(1, 12))
                                   for _ in range(rng.randint(1, h))])
            for numer in (integer, rational):
                dec = munagi_decompose(numer, h)
                assert dec.parts == dense_munagi_parts(numer, h)
                # Integers stay integers: no part and no round trip holds an
                # integral Fraction, and an integer numerator is rebuilt
                # from ints only.
                rebuilt = dec.reconstruct().coeffs
                for cs in (*(p.coeffs for p in dec.parts.values()), rebuilt):
                    assert not any(isinstance(c, Fraction) and c.denominator == 1
                                   for c in cs), (h, cs)
                if numer is integer:
                    assert all(type(c) is int for c in rebuilt), h

    def test_reconstruct_matches_product_form(self):
        rng = random.Random(37)
        for h in list(range(1, 61)) + [72, 90, 120]:
            integer = Polynomial([rng.randint(-99, 99) for _ in range(h)])
            rational = Polynomial([Fraction(rng.randint(-99, 99), rng.randint(1, 12))
                                   for _ in range(rng.randint(1, h))])
            for numer in (integer, rational):
                dec = munagi_decompose(numer, h)
                assert dec.reconstruct() == product_reconstruct(dec) == numer

    def test_unit_numerators(self):
        # The reduction divides by h in integers; an inexact division would
        # fail the round trip and raise.
        for h in range(1, 121):
            for i in range(h):
                munagi_decompose(Polynomial.monomial(i), h)

    def test_round_trip_guard_survives_optimize(self):
        script = (
            "from rootheight.errors import ReconstructionMismatch\n"
            "from rootheight.exactalg import Polynomial\n"
            "from rootheight.identities import MunagiDecomposition, munagi_decompose\n"
            "assert False, 'asserts are on'\n"
            "MunagiDecomposition.reconstruct = lambda self: Polynomial((42,))\n"
            "try:\n"
            "    munagi_decompose(Polynomial((1, 2, 3)), 6)\n"
            "except ReconstructionMismatch:\n"
            "    print('raised')\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "raised\n"), proc.stderr

    def test_cohen_iff_constant_parts(self):
        rng = random.Random(23)
        for h in range(3, 25):
            for _ in range(20):
                vals = {d: rng.randint(-9, 9) for d in divisors(h)}
                seq = [vals[h]] + [vals[gcd(k, h)] for k in range(1, h)]
                dec = munagi_decompose(Polynomial(seq), h)
                assert all(p.degree <= 0 for p in dec.parts.values())
                assert is_cohen(ArithSeq(h, tuple(seq)))[0]

                while True:
                    seq = [rng.randint(-9, 9) for _ in range(h)]
                    if not is_cohen(ArithSeq(h, tuple(seq)))[0]:
                        break
                dec = munagi_decompose(Polynomial(seq), h)
                assert any(p.degree >= 1 for p in dec.parts.values())


class TestInterpolation:
    def test_low_degree_projection(self):
        assert lagrange_all_roots([cyc_eval(P(0, 1), 2, i) for i in range(2)],
                                  2) == P(0, 1)

    def test_constant_on_nodes(self):
        h = 5
        vals = [cyc_eval(Polynomial.monomial(h), h, i) for i in range(h)]
        assert lagrange_all_roots(vals, h) == P(1)

    def test_exponent_poly_projection(self, catalog):
        g2 = catalog["G2"]
        e = exponent_poly(g2)
        vals = [cyc_eval(e, 6, i) for i in range(6)]
        assert lagrange_all_roots(vals, 6) == e

    def test_projection_random(self):
        rng = random.Random(41)
        for h in range(1, 31):
            for _ in range(3 if h <= 12 else 1):
                p = Polynomial([rng.randint(-5, 5) for _ in range(h)])
                vals = [cyc_eval(p, h, i) for i in range(h)]
                assert lagrange_all_roots(vals, h) == p

    def test_primitive_constant(self):
        for h in (3, 4, 6, 8):
            assert lagrange_primitive_roots(1, h) == P(1)

    def test_primitive_linear(self):
        assert lagrange_primitive_roots(cyc_eval(P(0, 1), 4, 1), 4) == P(0, 1)

    def test_primitive_square_collapses(self):
        assert lagrange_primitive_roots(cyc_eval(P(0, 0, 1), 4, 1), 4) == P(-1)

    def test_primitive_residues_tuple(self):
        for h in range(1, 40):
            res = _context(h).residues
            assert isinstance(res, tuple)
            assert res == tuple(k for k in range(1, max(h, 2)) if gcd(k, h) == 1)
        with pytest.raises(AttributeError):
            _context(12).residues.append(13)

    def test_gram_solve_matches_bordered_minors(self):
        # The Gram-system form is the paper's bordered determinant over the
        # Ramanujan-sum Gram matrix G times -1/disc, since det G = disc.
        rng = random.Random(47)
        for h in range(3, 13):
            phi = totient(h)
            gram = [[ramanujan_sum(h, i + j) for j in range(phi)] for i in range(phi)]
            for _ in range(2):
                vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(phi)]
                vec[rng.randrange(phi)] = 0
                assert Polynomial(_gram_lu(h).solve(vec)) == \
                    bordered_det_minors(vec, gram) * (-1 / cyclotomic_discriminant(h)), h

    def test_pivot_determinant_matches_closed_forms(self):
        # det reads the FractionLU pivots; the oracles are the closed-form
        # disc(Phi_h), the permutation matrix's 6 and a singular matrix's 0.
        for h in range(3, 61):
            row = _context(h).ramanujan_row
            phi = totient(h)
            gram = [[row[(i + j) % h] for j in range(phi)] for i in range(phi)]
            assert det(gram) == cyclotomic_discriminant(h), h
        assert det([[0, 1, 0], [0, 0, 2], [3, 0, 0]]) == 6
        singular = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
        assert det(singular) == 0
        with pytest.raises(SingularSystem):
            FractionLU(singular)

    def test_gram_factored_once_per_order(self, catalog):
        _gram_lu.cache_clear()
        for cid in ("prop4", "prop14", "prop18"):
            assert run_suite(catalog["E6"], [cid])[0].passed, cid
        assert _gram_lu.cache_info().misses == 1

    def test_all_roots_reevaluation_catches_bad_coefficient(self, monkeypatch):
        # Perturb the third root sum, the transform coefficient c_2: the
        # re-evaluation at the nodes must miss.
        h = 13
        vals = [cyc_eval(P(1, 2), h, i) for i in range(h)]
        assert lagrange_all_roots(vals, h) == P(1, 2)
        ctx_type = type(_context(h))
        real, calls = ctx_type.root_sum, []

        def perturbed(self, terms):
            calls.append(None)
            return real(self, terms) + (1 if len(calls) == 3 else 0)

        monkeypatch.setattr(ctx_type, "root_sum", perturbed)
        with pytest.raises(MethodMismatch, match="misses node 0"):
            lagrange_all_roots(vals, h)

    def test_lvec_interpolated_matches_lagrange(self):
        # Every entry up to h = 12, then the first two and the last: each
        # lagrange_primitive_roots call costs an O(phi**3) determinant.
        for h in range(1, 31):
            nodes = _context(h).residues
            dphi = cyclotomic_poly(h).derivative()
            one = CycNum.rational(h, 1)
            got = _lvec_interpolated(h)
            assert len(got) == len(nodes)
            for j in sorted({0, 1, len(nodes) - 1} if h > 12 else range(len(nodes))):
                value = got[j]
                at_node_one = CycNum.zeta_pow(h, j) * cyc_eval(dphi, h, 1)
                assert value == lagrange_primitive_roots(at_node_one, h)(one), (h, j)

    def test_sum_over_roots_matches_division(self):
        # Coefficient j as a root sum against the synthetic division of
        # q**h - 1 by each q - z**k, for field and for integer weights.
        rng = random.Random(53)
        for h in range(1, 25):
            base = [-1] + [0] * (h - 1) + [1]
            for weights in (random_cycnums(rng, h, h),
                            [rng.choice([0, rng.randint(-3, 3)]) for _ in range(h)]):
                num = Polynomial(())
                for k, w in enumerate(weights):
                    if w:
                        num = num + div_linear(base, CycNum.zeta_pow(h, k)) * w
                got = sum_over_roots(weights, h)
                assert (got.num, got.den) == (num, P(*base)), h
                # shift 1 weighs root k by z**k as well
                shifted = Polynomial(())
                for k, w in enumerate(weights):
                    if w:
                        z = CycNum.zeta_pow(h, k)
                        shifted = shifted + div_linear(base, z) * (z * w)
                got = sum_over_roots(weights, h, shift=1)
                assert (got.num, got.den) == (shifted, P(*base)), h

    def test_primitive_barycentric_matches_quotient_sum(self):
        # The numerator from the traces U(e) against the quotient-times-weight
        # sum it replaced: Phi_h(q)/(q - z**k) times v_k/Phi_h'(z**k), where
        # v_k runs over the conjugates of a random v.
        rng = random.Random(59)
        for h in range(1, 31):
            ctx = _context(h)
            dphi = Polynomial(ctx.modulus).derivative()
            inv_dphi = [cyc_eval(dphi, h, k).inverse() for k in ctx.residues]
            for _ in range(2 if h <= 12 else 1):
                v = random_cycnums(rng, h, 1)[0]
                total = Polynomial(())
                for k, vk, inv in zip(ctx.residues, conjugates(v, h), inv_dphi):
                    quot = div_linear(ctx.modulus, CycNum.zeta_pow(h, k))
                    total = total + quot * (vk * inv)
                assert lagrange_primitive_roots(v, h) == total, h

    def test_primitive_traces_match_conjugate_route(self):
        # Random v (a field element, a rational or zero) against the
        # conjugate-values route over the order-h field; the trace route's
        # coefficients are rationals.
        rng = random.Random(61)
        for h in range(1, 31):
            for _ in range(3 if h <= 12 else 1):
                v = rng.choice([random_cycnums(rng, h, 1)[0],
                                Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
                got = lagrange_primitive_roots(v, h)
                assert all(isinstance(c, (int, Fraction)) for c in got.coeffs)
                assert got == conjugate_lagrange_primitive_roots(conjugates(v, h), h), h

    def test_primitive_rejects_other_order(self):
        with pytest.raises(ValueError):
            lagrange_primitive_roots(CycNum.zeta_pow(5, 1), 10)

    def test_primitive_projection_random(self):
        rng = random.Random(43)
        for h in range(3, 31):
            phi = totient(h)
            for _ in range(3 if h <= 12 else 1):
                p = Polynomial([rng.randint(-5, 5) for _ in range(phi)])
                assert lagrange_primitive_roots(cyc_eval(p, h, 1), h) == p

    def test_primitive_matches_fraction_route(self):
        # The integer sums against the Fraction sums they replaced, for
        # 1/(1 - z), z/(1 - z), a random element and a rational: the same
        # coefficients, each an int exactly where the old route's was.
        rng = random.Random(67)
        for h in range(1, 61):
            ctx = _context(h)
            values = [random_cycnums(rng, h, 1)[0], Fraction(rng.randint(-9, 9), 7)]
            if h > 1:
                values += [ctx.inv_one_minus, ctx.inv_one_minus - 1]
            for v in values:
                got = lagrange_primitive_roots(v, h).coeffs
                want = fraction_lagrange_primitive_roots(v, h).coeffs
                assert got == want and list(map(type, got)) == list(map(type, want)), (h, v)


def fraction_lagrange_primitive_roots(value, h):
    """The barycentric numerator as lagrange_primitive_roots formed it before
    its integer sums: per-coordinate Fraction traces U(e), then D(e) and the
    coefficients in Fraction arithmetic."""
    ctx = _context(h)
    phi = ctx.phi
    sums = [fraction_trace(ctx, value, e) for e in range(min(h, 2 * phi - 1))]
    inv = [(t, a) for t, a in enumerate(ctx.inv_dphi.coeffs) if a]
    dsums = [sum(a * sums[(t + e) % h] for t, a in inv) for e in range(phi)]
    return Polynomial([sum(c * dsums[i - 1 - j] for i, c in enumerate(ctx.modulus)
                           if i > j and c)
                       for j in range(phi)])


@lru_cache(maxsize=None)
def pole_sum_oracle(d):
    """Tr(z**m/(1 - z)) for m = 0..d-1 over the primitive d-th roots z,
    d >= 2, without the field inverse: sum_{j<d} j z**j = d/(z - 1), so
    1/(1 - z) = -(1/d) sum_j j z**j and the pole sum is
    -(1/d) sum_j j c_d(j + m), an integer class sum over the divisor
    formula's Ramanujan sums."""
    row = ramanujan_sums(d)
    return [Fraction(-sum(j * row[(j + m) % d] for j in range(1, d)), d) for m in range(d)]


class TestPoleSumOracle:
    """prop15's pole sums against an oracle that shares neither the field
    inverse nor the Newton row with them."""

    ORDERS = (*range(2, 61), 998, 1000)

    def test_traces_of_inv_one_minus(self):
        for d in self.ORDERS:
            ctx = _context(d)
            sums, den = ctx.traces(ctx.inv_one_minus, d)
            assert [Fraction(s, den) for s in sums] == pole_sum_oracle(d), d

    def test_closed_form_and_witness(self):
        for h in (1, *self.ORDERS):
            tables = [pole_sum_oracle(d) for d in divisors(h)[1:]]
            for m in range(1, h + 1):
                assert sum(t[m % len(t)] for t in tables) == Fraction(2 * m - h - 1, 2), (h, m)
            assert pole_sum_witness.__wrapped__(h) is None, h

    def test_witness_makes_no_fraction(self):
        # The comparison runs in integers: once the inverses exist, a
        # passing order-998 witness makes no Fraction at all.
        for d in divisors(998)[1:]:
            assert _context(d).inv_one_minus
        assert count_fractions(pole_sum_witness.__wrapped__, 998) == (None, 0)


@pytest.fixture
def fresh_pole_sums():
    """pole_sum_witness is memoised per h: a fault injected into the field
    arithmetic is computed afresh, and its witness is dropped afterwards."""
    pole_sum_witness.cache_clear()
    yield
    pole_sum_witness.cache_clear()


class TestCrossChecksFail:
    """Each cross-check of the trace-route checks, broken on purpose, turns
    its check into a fail."""

    def test_primitive_determinant_route(self, catalog, monkeypatch):
        # Props 14 and 18 memoise their interpolant per order: emptied, so
        # that they interpolate again under the patch below.
        clear_identity_memos()
        h = 13
        value = cyc_eval(P(1, 2), h, 1)
        assert lagrange_primitive_roots(value, h) == P(1, 2)
        # The identity's factorisation in place of the Gram matrix's.
        monkeypatch.setattr(identities, "_gram_lu", lambda h: FractionLU(
            [[int(i == j) for j in range(totient(h))] for i in range(totient(h))]))
        with pytest.raises(MethodMismatch):
            lagrange_primitive_roots(value, h)
        for cid in ("prop4", "prop14", "prop18"):
            rep = run_suite(catalog["E6"], [cid])[0]
            assert not rep.passed and "routes disagree" in rep.witness, cid

    def test_gram_discriminant_check(self, catalog, monkeypatch):
        # A failing factorisation raises, so nothing wrong is cached.
        monkeypatch.setattr(identities, "cyclotomic_discriminant", lambda h: 1)
        _gram_lu.cache_clear()
        rep = run_suite(catalog["E6"], ["prop4"])[0]
        assert (rep.verdict, rep.witness) == (
            "fail", "Gram determinant of order 12 is not disc(Phi_12)")

    def test_prop4_node_reevaluation(self, catalog, monkeypatch):
        monkeypatch.setattr(identities, "lagrange_primitive_roots",
                            lambda value, h: P(1))
        rep = run_suite(catalog["E6"], ["prop4"])[0]
        assert (rep.verdict, rep.witness) == ("fail", "interpolant misses node 1")

    def test_prop14_pole_sum_vector(self, catalog, monkeypatch):
        # The vector is checked once per order, in prop14's memoised
        # interpolant: emptied, so that it is checked again under the patch.
        clear_identity_memos()
        real = identities._lvec_interpolated
        monkeypatch.setattr(identities, "_lvec_interpolated",
                            lambda h: [real(h)[0] + 1] + real(h)[1:])
        rep = run_suite(catalog["E6"], ["prop14"])[0]
        assert (rep.verdict, rep.witness) == ("fail", "pole-sum vector entry j=1 mismatch")

    def test_prop15_closed_form(self, catalog, monkeypatch, fresh_pole_sums):
        ctx_type = type(_context(12))
        real = ctx_type.inv_one_minus.func
        monkeypatch.setattr(ctx_type, "inv_one_minus", property(lambda self: real(self) + 1))
        rep = run_suite(catalog["E6"], ["prop15"])[0]
        assert (rep.verdict, rep.witness) == ("fail", "pole sum at m=1 is not -11/2")

    def test_prop15_clean_after_fault_injection(self, catalog):
        # Runs after the test above and clears nothing itself: the injected
        # witness must not have outlived it in pole_sum_witness's memo.
        rep = run_suite(catalog["E6"], ["prop15"])[0]
        assert (rep.verdict, rep.witness) == ("pass", None)

    def test_witness_renders_values_not_types(self, catalog, monkeypatch):
        # A witness renders each coefficient by its value, not its type: the
        # product form's 1 reads the same on even and odd ranks, and an int
        # and an equal Fraction read alike.
        monkeypatch.setattr(identities, "weyl_length_gf_bruteforce",
                            lambda rs, cap: P(7))
        for name in ("A2", "A3"):
            rep = run_suite(catalog[name], ["eq5"])[0]
            assert rep.witness == ("'enumeration' != 'product form': "
                                   "first difference at q^0 (7 vs 1)"), name
        assert identities._render(Fraction(6, 3)) == "2"
        assert identities._render(Fraction(-1, 5)) == "-1/5"
        assert identities._render(P(Fraction(4, 2), 0, Fraction(-1, 2))) == "2 - 1/2*q^2"
        assert identities._render(CycNum(5, [Fraction(5, 5), 0, -1, 0])) == "1 - z^2"


def eq5_cases(rs):
    """(kind, system) for rs under each corruption of the differential and
    with its rank raised by one."""
    yield from ((kind, corrupted(rs, kind)) for kind in CORRUPTIONS)
    yield "rank", RootSystem(RootSystemId(rs.id.family, rs.id.rank + 1), rs.cartan, rs.h,
                             rs.exponents, rs.b, rs.two_rho_pairings, rs.m, rs.e_of_d, rs.p)


class TestEq5:
    """eq5 compares the binomial exponents of its two product forms."""

    def test_exponent_dicts_decide_equality(self):
        # Random products of (1 - q^d)^x(d), d <= 12, x in -2..2, against a
        # copy, a copy with one exponent moved by one, and an independent
        # draw: the dicts agree exactly when the rational functions do.
        rng = random.Random(27)

        def draw():
            x = {d: rng.randint(-2, 2) for d in rng.sample(range(1, 13), rng.randint(0, 5))}
            return {d: e for d, e in sorted(x.items()) if e}

        outcomes = set()
        for _ in range(150):
            x = draw()
            moved = dict(x)
            d = rng.randint(1, 12)
            moved[d] = moved.get(d, 0) + rng.choice((-1, 1))
            moved = {d: e for d, e in sorted(moved.items()) if e}
            for y in (dict(x), moved, draw()):
                same = x == y
                assert (binomial_product(x) == binomial_product(y)) == same, (x, y)
                outcomes.add(same)
        assert outcomes == {True, False}

    def test_sensitivity_on_the_differential_systems(self):
        # eq5 reads b, the exponents and the rank, and no other field.
        fails = set()
        for family, rank in SYSTEMS:
            for kind, bad in eq5_cases(build(RootSystemId(family, rank))):
                rep = run_suite(bad, ["eq5"])[0]
                if not rep.passed:
                    fails.add(kind)
                    assert rep.witness.startswith(
                        "'height product' != 'exponent product': exponent of (1-q^"), rep
                assert rep.passed == (kind in ("m", "p", "e(1)", "e(h)")), (family, rank, kind)
        assert fails == {"b", "exponents", "rank"}
        bad = corrupted(build(RootSystemId("A", 4)), "b")
        assert run_suite(bad, ["eq5"])[0].witness == (
            "'height product' != 'exponent product': exponent of (1-q^3) is 0 vs 1")

    def test_agreeing_forms_are_the_exponent_polynomial(self, catalog):
        # What eq5 no longer checks, by the dense route: wherever the two
        # forms agree, on a catalog system or a corrupted one, their
        # quotient is the product of [e + 1]_q, and its value at 1 is |W|.
        agreed = 0
        for rs in catalog.values():
            for case in [rs, *(bad for _, bad in eq5_cases(rs))]:
                by_heights, by_exponents = weyl_length_gf_product(case)
                if by_heights != by_exponents:
                    continue
                agreed += 1
                gf = expand_binomials(by_exponents)
                assert gf == prod(Polynomial.geometric(e + 1) for e in case.exponents), case
                assert gf(1) == weyl_order(case), case
        assert agreed == 5 * len(catalog)

    def test_nothing_is_expanded_above_the_cap(self, catalog, monkeypatch):
        # Neither E8 (|W| = 696,729,600) nor D250 is enumerated under the
        # default cap, so eq5 forms no polynomial product or quotient.
        d250 = build(RootSystemId("D", 250))

        def refuse(*args):
            raise AssertionError("polynomial arithmetic in eq5")

        for name in ("__mul__", "__rmul__", "__divmod__"):
            monkeypatch.setattr(Polynomial, name, refuse)
        for rs in (catalog["E8"], d250):
            assert identities.eq5_check(rs) is None, rs.id
            rep = run_suite(rs, ["eq5"])[0]
            assert (rep.verdict, rep.witness) == ("pass", None), rs.id


class TestGuardMaskedWitnesses:
    """Witnesses the corruption differential never produces.  There every
    failing row of props 13, 16, 17, 19, eq20 and mirimanoff is b_poly's
    guard ("height polynomial routes disagree"), eq19 fails only by that
    guard or by finding no weight triple, and no corruption reaches eq12's
    divisor-sum witness or prop11's perturbation self-checks.  Each test
    gets past the guard by a patch, or by a field corrupted off the
    divisors of h, and pins the text that follows."""

    def test_prop13_prop17_boundary_sums(self, catalog, monkeypatch):
        # One added to the constant term of the top part H_h of B and qB;
        # the memoised parts themselves are left alone.
        real = identities._b_parts

        def top_plus_one(rs, shift):
            parts = dict(real(rs, shift))
            parts[rs.h] = parts[rs.h] + 1
            return parts

        monkeypatch.setattr(identities, "_b_parts", top_plus_one)
        reports = run_suite(catalog["E6"], ["prop13", "prop17"])
        assert [(r.verdict, r.witness) for r in reports] == [
            ("fail", "sum of constant terms: got 7, expected 6"),
            ("fail", "sum of constant terms: got 1, expected 0")]

    def test_eq20_degree(self, catalog, monkeypatch):
        # E6's largest exponent 11 -> 10, past the guard by the true B(q).
        rs = catalog["E6"]
        monkeypatch.setattr(identities, "b_poly", lambda _, b=b_poly(rs): b)
        bad = corrupted_copy(rs, exponents=rs.exponents[:-1] + [10])
        rep = run_suite(bad, ["eq20"])[0]
        assert (rep.verdict, rep.witness) == ("fail", "degree: got 20, expected 21")

    def test_mirimanoff_operator_power(self, catalog, monkeypatch):
        # G2's height counts (2, 1, 1, 1, 1) with b_3 + 1, past the guard by
        # the true B(q): the operator is off from the direct sum at m = 0.
        rs = catalog["G2"]
        monkeypatch.setattr(identities, "b_poly", lambda _, b=b_poly(rs): b)
        bad = corrupted_copy(rs, b=[2, 1, 2, 1, 1])
        rep = run_suite(bad, ["mirimanoff"])[0]
        assert (rep.verdict, rep.witness) == (
            "fail", "m=0: 'operator' != 'direct': first difference at q^3 (1 vs 2)")

    def test_eq12_multiplicity_off_the_divisors(self, catalog):
        # m(3) of A7 (h = 8) is read by neither the Coxeter polynomial nor
        # e(d), which see m at the h/d only.
        rs = catalog["A7"]
        m = list(rs.m)
        m[3] += 1
        rep = run_suite(corrupted_copy(rs, m=m), ["eq12"])[0]
        assert (rep.verdict, rep.witness) == ("fail", "m(3) != divisor sum 1")

    def test_prop11_perturbation_self_checks(self, catalog, monkeypatch):
        rs = catalog["A7"]
        monkeypatch.setattr(identities, "is_cohen", lambda seq: (True, None))
        rep = run_suite(rs, ["prop11"])[0]
        assert (rep.verdict, rep.witness) == (
            "fail", "perturbation at k=3 unexpectedly gcd-determined")
        monkeypatch.undo()

        # The perturbed sequence decomposed as m itself, all parts constant.
        real, calls = identities.munagi_decompose, []

        def constant_third(numer, h):
            calls.append(numer)
            return real(Polynomial(rs.m) if len(calls) == 3 else numer, h)

        monkeypatch.setattr(identities, "munagi_decompose", constant_third)
        rep = run_suite(rs, ["prop11"])[0]
        assert (rep.verdict, rep.witness) == (
            "fail", "perturbed sequence still has all-constant parts")
        assert len(calls) == 3

    def test_eq19_group_order_and_volume(self, catalog, monkeypatch):
        rs = catalog["D5"]
        data = singularity_data(rs)
        for change, witness in (
                ({"group_order": 13}, "2ab = 12 but group order is 13"),
                ({"cartan_det": 5}, "volume relation fails against branch lengths")):
            monkeypatch.setattr(identities, "singularity_data",
                                lambda _, d=data._replace(**change): d)
            rep = run_suite(rs, ["eq19"])[0]
            assert (rep.verdict, rep.witness) == ("fail", witness)

    def test_eq19_quadratic_witnesses(self, catalog, monkeypatch):
        # A triple (a, b, h/2) off the line a + b = h/2 + 1, with the Coxeter
        # number h and the B(q) that make its closed form hold and 2ab as
        # the group order: only the quadratic in a and b can fail.  The
        # discriminant (h + 2)**2 - 16ab is a non-square, a negative number
        # (no real root), or the square of roots other than a and b.
        for name, h, bq, a, b, witness in (
                ("E6", 5, P(6, 5, 4, 2, 1), 1, 2, "quadratic discriminant 17 is not a square"),
                ("A2", 6, P(2, 1, 1), 2, 3, "quadratic discriminant -32 is not a square"),
                ("D4", 3, P(4, 3, 1), 1, 1, "quadratic roots 1/2, 2 do not match (1, 1)")):
            rs = catalog[name]
            data = SingularityData(rs.id, Fraction(a), Fraction(b), Fraction(h, 2),
                                   2 * a * b, None, 1)
            monkeypatch.setattr(identities, "b_poly", lambda _, bq=bq: bq)
            monkeypatch.setattr(identities, "singularity_data", lambda _, d=data: d)
            rep = run_suite(corrupted_copy(rs, h=h), ["eq19"])[0]
            assert (rep.verdict, rep.witness) == ("fail", witness), name


class TestSingularity:
    def test_weights_fixtures(self, catalog):
        expected = {
            "A1": (1, 1, 1, 2), "A3": (1, 2, 2, 4),
            "D4": (2, 2, 3, 8), "D5": (2, 3, 4, 12),
            "E6": (3, 4, 6, 24), "E7": (4, 6, 9, 48), "E8": (6, 10, 15, 120),
        }
        for name, (a, b, c, g) in expected.items():
            data = singularity_data(catalog[name])
            assert (data.a, data.b, data.c, data.group_order) == (a, b, c, g)

    def test_half_integer_weights(self, catalog):
        data = singularity_data(catalog["A2"])
        assert (data.a, data.b, data.c) == (1, Fraction(3, 2), Fraction(3, 2))

    def test_cartan_determinants(self, catalog):
        for name, expected in (("A4", 5), ("D6", 4), ("E6", 3), ("E7", 2),
                               ("E8", 1)):
            assert singularity_data(catalog[name]).cartan_det == expected

    def test_reports_pass(self, catalog):
        for name in ("A1", "A2", "A5", "D4", "D7", "E6", "E7", "E8"):
            witness = singularity_check(catalog[name])
            assert witness is None, witness


class TestScalarChecks:
    def test_dynkin_rank_one(self, catalog):
        assert dynkin_check(catalog["A1"]) is None

    def test_mirimanoff_examples(self, catalog):
        g2 = catalog["G2"]
        assert mirimanoff_check(g2, 0) is None
        assert mirimanoff_check(g2, 1) is None
        # direct coefficients b_k * k
        direct = Polynomial([0, 2, 2, 3, 4, 5])
        via = b_poly(g2).shifted(1).derivative().shifted(1)
        assert via == direct
        assert mirimanoff_check(catalog["A1"], 3) is None

    def test_pole_sum_toy_value(self):
        # single primitive square root of unity: z/(1-z) = -1/2 at z = -1
        z = CycNum.zeta_pow(2, 1)
        assert z * (1 - z).inverse() == Fraction(-1, 2)

    def test_pole_sum_rational_all_orders(self):
        for h in range(2, 41):
            assert pole_sum_witness(h) is None


def pairwise_add(a, b):
    """One addition by the gcd of the two denominators: (n_a db + n_b da) /
    (d_a db) with da = d_a/g and db = d_b/g, or the plain cross products
    when g is constant."""
    g = poly_gcd(a.den, b.den)
    if g.degree < 1:
        return RationalFunction(a.num * b.den + b.num * a.den, a.den * b.den)
    da, db = a.den.divexact(g), b.den.divexact(g)
    return RationalFunction(a.num * db + b.num * da, a.den * db)


def slow_rf_sum(terms):
    """The route the plan of a sum replaced: pairwise additions left to
    right onto zero."""
    total = RationalFunction(ZERO, ONE)
    for t in terms:
        total = pairwise_add(total, t)
    return total


def coeff_tuples(f):
    return f.num.coeffs, f.den.coeffs


def assert_same_sum(terms):
    # The plan of the oracle sums, and + left to right onto zero.
    got = rf_sum(terms)
    assert coeff_tuples(got) == coeff_tuples(slow_rf_sum(terms))
    assert coeff_tuples(sum(terms, RationalFunction(ZERO, ONE))) == coeff_tuples(got)
    return got


class TestSumPlan:
    """``+`` over the memoised two-term plan, and the oracle sums over the
    plan of all their terms, against pairwise additions: the same
    coefficient tuples, not only an equal value.  A divisor expansion over
    its chain's denominator is checked against the oracle's sum."""

    def test_matches_pairwise_sum_during_verify_all(self, catalog, capsys, monkeypatch):
        # A passing verify all adds no rational functions: the sums are
        # those of the routes props 7 and 12, eq19 and eq20 replaced
        # (conftest), built here for every catalog system.
        clear_identity_memos()
        calls, expansions = [], []
        add, over = RationalFunction.__add__, identities._over

        def recording(h, pairs, **kwargs):
            # A weighted sum is compared with the plain sum of its scaled terms.
            pairs = list(pairs)
            got = over(h, pairs, **kwargs)
            expansions.append((h, [w * t for w, t in pairs], got))
            return got

        def adding(a, b):
            got = add(a, b)
            calls.append(([a, RationalFunction._wrap(b)], got))
            return got

        monkeypatch.setattr(identities, "_over", recording)
        monkeypatch.setattr(RationalFunction, "__add__", adding)
        monkeypatch.setattr(RationalFunction, "__radd__", adding)
        assert main(["verify", "all", "--format", "json"]) == 0
        assert calls == [] and _sum_plan.cache_info().currsize == 0
        for rs in catalog.values():
            h, n, bq = rs.h, rs.id.rank, b_poly(rs)
            slow_prop7_head(rs)
            slow_prop12_members(rs, bq)
            slow_dynkin_relations(h, n, *identities.dynkin_polys(rs), bq)
            if rs.id.family in "ADE":
                data = singularity_data(rs)
                slow_weight_form_members(h, n, int(2 * data.a), int(2 * data.b), bq)
        assert sum(len(terms) == 2 for terms, _ in calls) + \
            sum(len(terms) == 2 for _, terms, _ in expansions) > 500
        capsys.readouterr()
        for terms, got in calls:
            assert coeff_tuples(got) == coeff_tuples(slow_rf_sum(terms)), terms
        for h, terms, got in expansions:
            assert_over(got, slow_rf_sum(terms), h)
        assert len(calls) > _sum_plan.cache_info().currsize > 0

    def test_hand_cases(self):
        R = RationalFunction
        # No terms: zero over one.
        assert coeff_tuples(assert_same_sum([])) == ((), (1,))
        # One term keeps its own denominator.
        assert assert_same_sum([R(P(1, 2), P(1, 0, -1))]).den == P(1, 0, -1)
        # Coprime denominators: the constant-gcd branch multiplies them.
        got = assert_same_sum([R(P(1), P(1, -1)), R(P(0, 1), P(1, 1)),
                               R(P(Fraction(1, 2)), P(1, 1, 1))])
        assert got.den == P(1, -1) * P(1, 1) * P(1, 1, 1)
        # Shared factors, and zero and rational numerators.
        assert_same_sum([R(P(1), P(1, 0, -1)), R(P(), P(1, -1)),
                         R(P(Fraction(-3, 4), 1), P(1, 0, 0, -1)),
                         R(P(2), P(1, 0, 0, 0, 0, 0, -1))])
        # A constant denominator, as in prop10's d/d' terms.
        assert_same_sum([R(P(3), ONE), R(P(1), P(1, 0, -1)), R(P(-2), ONE)])


def typed(f):
    """num and den of f as (type, value) pairs, so that an int and an
    integral Fraction differ."""
    return tuple(tuple((type(c), c) for c in p.coeffs) for p in (f.num, f.den))


class TestWeightedSums:
    """A divisor expansion summed over its chain's denominator against the
    plain oracle sum of its pre-scaled terms: the same value, over
    +-q**s (q**h - 1), with the numerator lifted coefficient for
    coefficient (``conftest.assert_over``)."""

    def test_members_match_prescaled_sums_on_catalog(self, catalog, monkeypatch):
        clear_identity_memos()
        seen = []
        real = identities._over

        def checked(h, pairs, **kwargs):
            pairs = list(pairs)
            got = real(h, pairs, **kwargs)
            assert_over(got, rf_sum([w * t for w, t in pairs]), h)
            seen.append(len(pairs))
            return got

        monkeypatch.setattr(identities, "_over", checked)
        for rs in catalog.values():
            for rep in run_suite(rs, ["prop2", "prop5", "prop6", "prop7", "prop9",
                                      "prop10", "prop12"]):
                assert rep.passed, (rs.id, rep)
        # prop2 5, prop5 4, prop7 2, prop9 4, prop10 3 and prop12 1 weighted
        # sums per system, and prop6's 4 per Coxeter number (15 of them); the
        # tables add one sum per Moebius split and per Moebius tail.
        assert len(seen) == 34 * 19 + 15 * 4 + \
            identities._phi_log_forms.cache_info().currsize + \
            identities._moebius_tail.cache_info().currsize

    def test_members_match_oracle_on_catalog_and_corruptions(self, catalog, monkeypatch):
        # Every converted member, on all catalog systems and under every
        # corruption of the differential, against the route it replaced:
        # the weighted sum of the lifts over the gcd-chain plan.
        clear_identity_memos()
        seen = []
        real = identities._over

        def checked(h, pairs, **kwargs):
            pairs = list(pairs)
            got = real(h, pairs, **kwargs)
            assert_over(got, weighted_sum(pairs), h)
            seen.append(h)
            return got

        monkeypatch.setattr(identities, "_over", checked)
        systems = list(catalog.values())
        systems += [corrupted(build(RootSystemId(family, rank)), kind)
                    for family, rank in SYSTEMS for kind in CORRUPTIONS]
        cids = ["prop2", "prop5", "prop6", "prop7", "prop9", "prop10", "prop12",
                "prop16", "prop19"]
        for rs in systems:
            identities._prop6_witness.cache_clear()
            for cid in cids:
                # Called directly, so a failed assertion is not made a witness.
                try:
                    identities._CHECKS[cid](rs)
                except RootHeightError:
                    pass
        assert len(systems) == 34 + 48 and len(seen) > 20 * len(systems)

    def test_random_weights_match_prescaled_sums(self):
        rng = random.Random(181)

        def weight():
            return rng.choice([0, 0, 1, -1, rng.randint(-9, 9),
                               Fraction(rng.randint(-9, 9), rng.randint(1, 7))])

        sums = 0
        for h in range(1, 61):
            divs = divisors(h)
            families = [
                [f for d in divs for f, _ in identities._phi_log_forms(d).values()],
                [r for d in divs for _, r in identities._phi_log_forms(d).values()],
                [identities._moebius_tail(h, d, s) for d in divs for s in (True, False)],
                [identities._split_from_tail(h, d, s) for d in divs for s in (True, False)],
                [RationalFunction(Polynomial.monomial(d - 1, d), identities._qm1(d))
                 for d in divs],
                [RationalFunction(totient(d) - psi_poly(d).compose_power(h // d),
                                  one_minus(1)) for d in divs],
                [RationalFunction(ONE, one_minus(d)) for d in divs],
            ]
            for terms in families:
                terms = rng.sample(terms, rng.randint(1, len(terms)))
                weights = [weight() for _ in terms]
                got = identities._over(h, zip(weights, terms))
                assert_over(got, rf_sum([w * t for w, t in zip(weights, terms)]), h)
                sums += 1
        assert sums == 420

    def test_mismatch_over_equal_and_negated_denominators(self):
        # Numerators decide over equal or negated denominators; a witness
        # is still the cross-difference.
        R = RationalFunction
        f = R(P(1), P(1, -1))
        assert identities._rf_mismatch("f", f, "g", R(P(1), P(1, -1))) is None
        assert identities._rf_mismatch("f", f, "g", R(P(-1), P(-1, 1))) is None
        assert identities._rf_mismatch("f", f, "g", R(P(1), P(-1, 1))) == \
            "'f' != 'g': cross-difference has q^0 coefficient -2"
        assert identities._rf_mismatch("f", f, "g", R(P(2), P(1, -1))) == \
            "'f' != 'g': cross-difference has q^0 coefficient -1"
        assert identities._rf_mismatch("f", f, "g", R(P(2), P(2, -2))) is None


class TestPerSystemData:
    """B(q) and the Munagi parts of B(q) and qB(q) are derived once per
    system and kept on it, never shared between systems."""

    def test_b_built_once_per_system(self, monkeypatch):
        clear_identity_memos()
        rs = build(RootSystemId("E", 6))
        b, qb = Polynomial(rs.b), Polynomial(rs.b).shifted(1)
        routes, decomposed = [], []
        real_routes, real_decompose = rootsys.b_from_exponents, munagi_decompose
        monkeypatch.setattr(rootsys, "b_from_exponents",
                            lambda exps: routes.append(exps) or real_routes(exps))
        monkeypatch.setattr(identities, "munagi_decompose",
                            lambda numer, h: decomposed.append(numer) or
                            real_decompose(numer, h))
        for _ in range(2):
            assert all(rep.passed for rep in run_suite(rs))
        assert len(routes) == 1
        assert decomposed.count(b) == decomposed.count(qb) == 1

    def test_corrupted_copy_does_not_read_the_cache(self, catalog):
        e6 = catalog["E6"]
        assert all(rep.passed for rep in run_suite(e6))
        b = list(e6.b)
        b[len(b) // 2] += 1
        bad = RootSystem(e6.id, e6.cartan, e6.h, e6.exponents, b, e6.two_rho_pairings,
                         e6.m, e6.e_of_d, e6.p)
        for rep in run_suite(bad, ["prop9", "prop13", "prop14"]):
            assert (rep.verdict, rep.witness) == (
                "fail", "MethodMismatch: E6: height polynomial routes disagree"), rep

    def test_paired_parts_leave_no_lifts(self, catalog):
        # Props 16 and 19 sum each system's own parts, which no other system
        # shares: none of their products enters the memo of lifts.
        clear_identity_memos()
        for rs in catalog.values():
            assert all(rep.passed for rep in run_suite(rs, ["prop16", "prop19"])), rs.id
        assert identities._lifted.cache_info().currsize == 0
        filled = {f"{module.__name__}.{name}" for module in MEMO_MODULES
                  for name, value in vars(module).items()
                  if hasattr(value, "cache_info") and value.__module__ == module.__name__
                  and value.cache_info().currsize}
        # Only the field contexts of the orders decomposed may fill (none
        # when the catalog's parts are already kept on its systems).
        assert filled <= {"rootheight.exactalg._context"}


def test_clear_identity_memos_empties_every_table(catalog):
    # Every lru_cache and module-level dict of the memo modules, filled by
    # the suites, is empty afterwards; _CHECKS is the check table, no memo.
    # A passing suite adds no rational functions, so one sum fills the plans.
    for rs in catalog.values():
        run_suite(rs)
    RationalFunction(ONE, one_minus(2)) + RationalFunction(ONE, one_minus(1))
    tables = {f"{module.__name__}.{name}": value
              for module in MEMO_MODULES for name, value in vars(module).items()
              if isinstance(value, dict) and not name.startswith("__")
              or hasattr(value, "cache_clear") and value.__module__ == module.__name__}
    del tables["rootheight.identities._CHECKS"]
    size = lambda t: len(t) if isinstance(t, dict) else t.cache_info().currsize
    assert {"rootheight.identities._lifted", "rootheight.exactalg._sum_plan",
            "rootheight.exactalg._context", "rootheight.identities._pole_interpolant",
            "rootheight.identities._split_from_tail",
            "rootheight.numth.ramanujan_sums"} <= set(tables)
    assert all(size(t) for t in tables.values()), tables
    clear_identity_memos()
    assert {name: size(t) for name, t in tables.items() if size(t)} == {}


class TestHOnlyMemos:
    H12 = ("B6", "C6", "D7", "E6", "F4")

    def test_prop6_prop15_relabelled_per_system(self, catalog):
        for cid in ("prop6", "prop15"):
            reports = [run_suite(catalog[name], [cid])[0] for name in self.H12]
            assert [rep.system for rep in reports] == list(self.H12)
            assert {rep._replace(system=None) for rep in reports} == {
                identities.IdentityReport(cid, None, "pass", None)}

    def test_pole_sums_computed_once_per_order(self, catalog, capsys):
        pole_sum_witness.cache_clear()
        assert main(["verify", "all", "--format", "json"]) == 0
        capsys.readouterr()
        assert pole_sum_witness.cache_info().misses == \
            len({rs.h for rs in catalog.values()}) == 15

    def test_pole_sum_vector_evaluated_once_per_order(self, catalog, capsys, monkeypatch):
        clear_identity_memos()
        calls = []
        real = identities._lvec_interpolated
        monkeypatch.setattr(identities, "_lvec_interpolated",
                            lambda h: calls.append(h) or real(h))
        assert main(["verify", "all", "--format", "json"]) == 0
        capsys.readouterr()
        assert sorted(calls) == sorted({rs.h for rs in catalog.values()})
        assert len(calls) == 15


# The builders that prop2's per-divisor table replaced, kept as oracles: the
# Cohen tail expansions of Phi_d'/Phi_d at 1/q, prop10's Moebius split and
# prop6's inline Moebius sums.


def old_phi_recip(d):
    """Derivative-over-value of Phi_d at 1/q, divided by q."""
    phi, ph = cyclotomic_poly(d), totient(d)
    return RationalFunction(phi.derivative().reversed_to(ph - 1), phi.reversed_to(ph))


def old_ramanujan_tail(d):
    """Ramanujan sums c_d(0..d-1) as numerator coefficients over 1 - q**d."""
    return RationalFunction(Polynomial([ramanujan_sum(d, k) for k in range(d)]),
                            one_minus(d))


def old_moebius_pole_split(d):
    """Sum over d'|d of mu(d/d') * d'/(1 - q**d')."""
    return rf_sum(mu * dp * RationalFunction(ONE, one_minus(dp))
                  for dp in divisors(d) if (mu := mobius(d // dp)))


def old_totient_tail(d):
    """phi(d) * (1 - q**d + _psi_sum(d)) over 1 - q**d."""
    return totient(d) * RationalFunction(one_minus(d) + identities._psi_sum(d),
                                         one_minus(d))


def old_moebius_split(h, d, shifted):
    """Sum over d'|d of mu(d') (d/d' - (1-q^h) q^(shifted * x)/(1-q^x)),
    x = h d'/d, over 1 - q."""
    inner = rf_sum(mu * (RationalFunction(Polynomial((d // dp,)), ONE)
                         - RationalFunction(one_minus(h).shifted(h * dp // d * shifted),
                                            one_minus(h * dp // d)))
                   for dp in divisors(d) if (mu := mobius(dp)))
    return inner * RationalFunction(ONE, one_minus(1))


def old_prop6_moebius(h, shifted):
    """prop6's inline sum over d|h of mu(d) q**(shifted * d)/(1 - q**d)."""
    return rf_sum(mu * RationalFunction(Polynomial.monomial(d * shifted), one_minus(d))
                  for d in divisors(h) if (mu := mobius(d)))


class TestDivisorForms:
    """prop2's per-divisor table of Phi_d'/Phi_d, read at 1/q by the Cohen
    tails, and the Moebius tail behind props 6, 7 and 10, against the
    builders they replaced."""

    def test_reversed_table_matches_tail_builders(self):
        for d in range(1, 81):
            forms = {key: pair[1] for key, pair in identities._phi_log_forms(d).items()}
            # The same coefficient tuples, not only an equal value.
            for key, old in (("cyclotomic log-derivatives", old_phi_recip(d)),
                             ("Ramanujan numerators", old_ramanujan_tail(d)),
                             ("totient q-analogue", old_totient_tail(d))):
                assert coeff_tuples(forms[key]) == coeff_tuples(old), (d, key)
            # Reversal of a sum over its common denominator: equal in value.
            assert forms["Moebius split"] == old_moebius_pole_split(d), d

    def test_tail_forms_match_inline_sums(self):
        cases = 0
        for h in range(1, 61):
            for shifted in (True, False):
                # The tail over +-(q**h - 1), the split over 1 - q, which the
                # old split's denominator is a multiple of.
                assert_over(identities._moebius_tail(h, h, shifted),
                            old_prop6_moebius(h, shifted), h)
                for d in divisors(h):
                    split, old = (identities._split_from_tail(h, d, shifted),
                                  old_moebius_split(h, d, shifted))
                    assert split.den == one_minus(1), (h, d, shifted)
                    assert coeff_tuples(lifted_to(split, old.den)) == coeff_tuples(old), \
                        (h, d, shifted)
                    cases += 1
        assert cases == 522

    def test_shared_table_entry_reaches_prop2_and_prop5(self, catalog, monkeypatch):
        # E6 (h = 12) weights d = 12 in the chains of props 2, 5 and 9:
        # m(1) = 1, p(1) = -1 and p(0) - p(1) = 7.  The suite runs first, so
        # every memo is warm: the table keeps the entry at q and at 1/q, so
        # both readings are patched, and prop9's witness is that of its
        # 1/h-scaled members.
        assert all(rep.passed for rep in run_suite(catalog["E6"]))
        forms = identities._phi_log_forms(12)
        monkeypatch.setitem(forms, "Moebius split", tuple(f * 2 for f in forms["Moebius split"]))
        witnesses = [run_suite(catalog["E6"], [cid])[0].witness
                     for cid in ("prop2", "prop5", "prop9")]
        assert witnesses[0].startswith("'C'/C' != 'Moebius split'")
        assert witnesses[1].startswith("'E/(1-q^h)' != 'Moebius split'")
        assert witnesses[2] == ("'(1-q)B/(1-q^h)' != 'Moebius split': "
                                "cross-difference has q^0 coefficient -7/3")
        monkeypatch.undo()
        for rep in run_suite(catalog["E6"], ["prop2", "prop5", "prop9"]):
            assert (rep.verdict, rep.witness) == ("pass", None), rep.identity_id


def old_periodic_members(h, a):
    """The 1/h-scaled members of props 6 and 9 as they were built before
    the chains compared at h times their value: every member times
    Fraction(1, h), each reciprocal reversed afresh and each Ramanujan sum
    of the double numerator computed afresh."""
    def recip(f):
        top = f.den.degree
        return RationalFunction(f.num.reversed_to(top - 1), f.den.reversed_to(top))

    members = [("eigenvalue poles", sum_over_roots([-c for c in a], h, shift=1)
                * Fraction(1, h))]
    coeffs = [sum(a[(h // d) % h] * ramanujan_sum(d, k) for d in divisors(h))
              for k in range(h)]
    members.append(("double Ramanujan numerator",
                    RationalFunction(Polynomial(coeffs), identities._one_minus(h))
                    * Fraction(1, h)))
    divs = [d for d in divisors(h) if a[(h // d) % h]]
    for label, key in (("Ramanujan numerators", "Ramanujan numerators"),
                       ("reciprocal log-derivative", "cyclotomic log-derivatives"),
                       ("Moebius split", "Moebius split"),
                       ("totient q-analogue", "totient q-analogue")):
        total = weighted_sum((a[(h // d) % h], recip(identities._phi_log_forms(d)[key][0]))
                             for d in divs)
        members.append((label, total * Fraction(1, h)))
    return members


class TestHScaleChains:
    """Props 5, 6 and 9 compare h times their head members with the other
    members unscaled, in integers; the 1/h-scaled members they replaced are
    rebuilt only for a failing chain's witness."""

    @staticmethod
    def _sequences():
        rng = random.Random(2003)
        for h in range(1, 49):
            by_class = {g: rng.randint(-9, 9) for g in divisors(h)}
            yield h, [by_class[gcd(k, h)] for k in range(h)]
            yield h, [ramanujan_sum(h, k) for k in range(h)]

    def test_members_are_h_times_the_old_members(self):
        for h, a in self._sequences():
            new = identities._periodic_members(h, a)
            old = old_periodic_members(h, a)
            assert [label for label, _ in new] == [label for label, _ in old]
            for (label, f), (_, g) in zip(new, old):
                # The old member over the chain's denominator +-(q**h - 1),
                # coefficient for coefficient, so a witness renders the same;
                # the eigenvalue poles, once CycNums over q**h - 1, are now
                # their rational values negated over 1 - q**h.
                scaled = f * Fraction(1, h)
                if label == "eigenvalue poles":
                    assert all(c.is_rational for c in g.num.coeffs), h
                    g = RationalFunction(Polynomial([-c.as_rational() for c in g.num.coeffs]),
                                         -g.den)
                assert_over(scaled, g, h)
                assert all(type(c) is int for c in f.num.coeffs + f.den.coeffs), (h, label)

    def test_chains_compare_on_one_denominator(self, catalog, monkeypatch):
        # Props 5, 6, 7 and 9 build every member over +-(1 - q**h), so each
        # comparison of a passing chain reads numerators alone: no
        # polynomial product runs inside _chain_check.
        clear_identity_memos()
        inside, products = [False], []
        real_chain, real_mul = identities._chain_check, Polynomial.__mul__

        def chain(members):
            inside[0] = True
            try:
                return real_chain(members)
            finally:
                inside[0] = False

        monkeypatch.setattr(identities, "_chain_check", chain)
        monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: (
            inside[0] and products.append((a, b))) or real_mul(a, b))
        for rs in catalog.values():
            for cid in ("prop5", "prop6", "prop7", "prop9"):
                assert identities._CHECKS[cid](rs) is None, (rs.id, cid)
        assert not inside[0] and products == []

    def test_passing_chain_is_compared_once(self, catalog, monkeypatch):
        # A passing chain is decided at h scale: no member is rebuilt at 1/h.
        calls = []
        real = identities._chain_check
        monkeypatch.setattr(identities, "_chain_check",
                            lambda members: calls.append(members) or real(members))
        for rs in catalog.values():
            calls.clear()
            assert identities.prop5_check(rs) is None and identities.prop9_check(rs) is None
            assert identities._prop6_witness.__wrapped__(rs.h) is None
            assert len(calls) == 3, rs.id


class TestKnownDenominators:
    """Chains compared over shared denominators: the grouped
    ``_chain_check`` against the sequential loop it replaced
    (``conftest.sequential_chain``), and props 7 and 12, eq19 and eq20,
    decided as polynomial identities over their known denominators, against
    the rational-function routes they replaced (conftest), witness for
    witness.  The texts pinned here are those the replaced routes render."""

    CHECKS = ("prop2", "prop10", "prop12", "prop16", "prop19", "eq19", "eq20")

    def test_grouped_chain_matches_sequential_loop(self):
        # Chains of one value over shared, negated and unrelated
        # denominators, some members' numerators disturbed.
        rng = random.Random(3101)
        R = RationalFunction

        def poly(degree):
            coeffs = [rng.choice([0, 1, -1, 2, Fraction(1, 3)])
                      for _ in range(rng.randint(0, degree))]
            return Polynomial(coeffs + [rng.choice([1, -1, 2])])

        outcomes = {True: 0, False: 0}
        for _ in range(600):
            num, den = poly(4), poly(3)
            mults = [poly(2) for _ in range(rng.randint(1, 3))]
            members = []
            for k in range(rng.randint(2, 7)):
                m = rng.choice(mults) * rng.choice([1, -1])
                f = R(num * m, den * m)
                if rng.random() < 0.12:
                    bump = Polynomial.monomial(rng.randint(0, 4), rng.choice([1, -2]))
                    f = R(f.num + bump, f.den)
                members.append((f"m{k}", f))
            got = identities._chain_check(members)
            assert got == sequential_chain(members), members
            outcomes[got is None] += 1
        assert min(outcomes.values()) > 150, outcomes

    def test_products_only_between_denominator_groups(self, catalog, capsys, monkeypatch):
        # From cleared memos, the polynomial products inside _chain_check
        # over the catalog, two per cross-multiplication: prop2 compares C'/C
        # against its members over +-(q**h - 1) and over +-q (q**h - 1),
        # prop10 B against its members over +-(1 - q), props 16 and 19
        # n/(1-q) against the paired parts; prop12, eq19 and eq20 decide
        # polynomial identities and compare no chain.  A passing verify all
        # then forms no sum plan.
        clear_identity_memos()
        inside, counts = [None], Counter()
        real_chain, real_mul = identities._chain_check, Polynomial.__mul__

        def chain(members):
            inside[0] = cid
            try:
                return real_chain(members)
            finally:
                inside[0] = None

        def counted(a, b):
            if inside[0]:
                counts[inside[0]] += 1
            return real_mul(a, b)

        monkeypatch.setattr(identities, "_chain_check", chain)
        monkeypatch.setattr(Polynomial, "__mul__", counted)
        for rs in catalog.values():
            for cid in self.CHECKS:
                if cid in available_checks(rs):
                    assert identities._CHECKS[cid](rs) is None, (rs.id, cid)
        assert counts == {"prop2": 4 * 34, "prop10": 2 * 34, "prop16": 2 * 34,
                          "prop19": 2 * 34}
        monkeypatch.undo()
        clear_identity_memos()
        assert main(["verify", "all", "--format", "json"]) == 0
        capsys.readouterr()
        assert _sum_plan.cache_info()[:2] == (0, 0)

    def test_lift_multipliers_divided_once_per_order(self, catalog, monkeypatch):
        # Props 6, 16 and 19 lift over the order's shared cofactors: one
        # division per order and denominator, whichever systems share them
        # (518 divisions while every system divided afresh).
        clear_identity_memos()
        divisions = []
        real = Polynomial.divexact
        monkeypatch.setattr(Polynomial, "divexact",
                            lambda a, b: divisions.append(b.coeffs) or real(a, b))
        for rs in catalog.values():
            for rep in run_suite(rs, ["prop6", "prop16", "prop19"]):
                assert rep.passed, (rs.id, rep)
        orders = {d for rs in catalog.values() for d in divisors(rs.h)}
        tables = [_context(d)._cofactors for d in orders]
        assert len(divisions) == sum(map(len, tables)) < 34 * 8

    def test_prop2_later_member_witness(self, catalog, monkeypatch):
        # One of prop2's table entries off by q**d for d > 1.  The Moebius
        # split breaks the group over +-(q**h - 1), the totient member is a
        # group of its own: either way the first member to fail is the
        # patched one, and the witness names it as the in-order loop does.
        real = identities._phi_log_forms
        for key in ("Moebius split", "totient q-analogue"):
            def forms(d, key=key):
                got = dict(real(d))
                f, r = got[key]
                got[key] = (RationalFunction(f.num + Polynomial.monomial(d), f.den), r)
                return got if d > 1 else real(d)

            monkeypatch.setattr(identities, "_phi_log_forms", forms)
            got = [run_suite(catalog[name], ["prop2"])[0].witness for name in ("E6", "A4", "B3")]
            assert got == [f"'C'/C' != '{key}': cross-difference has q^{i} coefficient -1"
                           for i in (3, 5, 2)], key

    def test_prop10_later_member_witness(self, catalog, monkeypatch):
        # The shifted splits off by q: the last member breaks the group over
        # +-(1 - q), and the witness names it.
        real = identities._split_from_tail

        def split(h, d, shifted):
            f = real(h, d, shifted)
            return RationalFunction(f.num + Polynomial.monomial(1), f.den) if shifted else f

        monkeypatch.setattr(identities, "_split_from_tail", split)
        got = [run_suite(catalog[name], ["prop10"])[0].witness for name in ("E6", "A4", "B3")]
        assert got == [f"'B' != 'Moebius shifted split': cross-difference has q^1 coefficient {c}"
                       for c in (2, -1, 2)]

    def test_eq20_relation_witnesses(self, catalog, monkeypatch):
        # One relation's polynomial disturbed by a bump with value 0 at 1
        # and degree below 2h - 3, past eq20's degree and value checks.
        real = identities.dynkin_polys
        bump = P(0, 0, 3, -1, -2)
        for which, label in enumerate(("quotient relation", "antichain relation")):
            monkeypatch.setattr(identities, "dynkin_polys", lambda rs, which=which: tuple(
                p + bump if i == which else p for i, p in enumerate(real(rs))))
            for name in ("E6", "D5", "G2", "C4"):
                rs = catalog[name]
                rep = run_suite(rs, ["eq20"])[0]
                assert rep.witness == \
                    f"'B' != '{label}': cross-difference has q^3 coefficient -3", name
                chains = slow_dynkin_relations(rs.h, rs.id.rank, *identities.dynkin_polys(rs),
                                               b_poly(rs))
                assert rep.witness == sequential_chain(chains[which]), name

    def test_b_past_the_guard_witnesses(self, catalog, monkeypatch):
        # B(q) + 2q**2 - q**4 past b_poly's guard: prop12, eq20 and eq19's
        # weight form fail by the witnesses of their rational-function routes.
        texts = {"prop12": "'B' != 'constant-part form': cross-difference has q^2 coefficient 2",
                 "eq20": "'B' != 'quotient relation': cross-difference has q^2 coefficient -2",
                 "eq19": "'B(t^2)' != 'weight form': cross-difference has q^4 coefficient -2"}
        for name in ("E6", "D5", "A4", "G2", "E8"):
            rs = catalog[name]
            bad = b_poly(rs) + P(0, 0, 2, 0, -1)
            monkeypatch.setattr(identities, "b_poly", lambda _, bad=bad: bad)
            for cid in available_checks(rs):
                if cid in texts:
                    assert run_suite(rs, [cid])[0].witness == texts[cid], (name, cid)

    def test_paired_parts_witnesses(self, catalog, monkeypatch):
        real = identities._b_parts

        def corrupted(rs, shift):
            parts = dict(real(rs, shift))
            parts[rs.h] = parts[rs.h] + P(0, -1, 3)
            return parts

        monkeypatch.setattr(identities, "_b_parts", corrupted)
        for name in ("E6", "D5", "G2", "A7"):
            for cid in ("prop16", "prop19"):
                assert run_suite(catalog[name], [cid])[0].witness == \
                    "'n/(1-q)' != 'paired parts': cross-difference has q^1 coefficient -1"

    def test_identities_match_rational_routes(self, catalog, monkeypatch):
        # Random disturbances of B(q) and of eq20's polynomials on every
        # catalog system: each polynomial identity fails or holds with the
        # witness of the chain of its rational-function route.
        rng = random.Random(31)
        real_b, real_dynkin = b_poly, identities.dynkin_polys
        failed = 0
        for rs in catalog.values():
            h, n = rs.h, rs.id.rank
            for trial in range(4):
                # Trial 0 leaves all as built; 1 disturbs B, 2 and 3 the two
                # polynomials of eq20, keeping their degrees and values at 1.
                bumps = [ZERO] * 4
                i, j = (rng.randint(0, max(2 * h - 4, 0)) for _ in range(2))
                bumps[trial] = Polynomial.monomial(i, rng.choice([1, -2])) * \
                    (1 if trial == 1 else 0) + (Polynomial.monomial(i) - Polynomial.monomial(j))
                bq = real_b(rs) + bumps[1]
                dpoly, mpoly = (p + bump for p, bump in zip(real_dynkin(rs), bumps[2:]))
                monkeypatch.setattr(identities, "b_poly", lambda _, bq=bq: bq)
                monkeypatch.setattr(identities, "dynkin_polys", lambda _, p=(dpoly, mpoly): p)
                assert identities.prop12_check(rs) == \
                    sequential_chain(slow_prop12_members(rs, bq)), (rs.id, trial)
                quotient, antichain = slow_dynkin_relations(h, n, dpoly, mpoly, bq)
                assert dynkin_check(rs) == \
                    (sequential_chain(quotient) or sequential_chain(antichain)), (rs.id, trial)
                failed += dynkin_check(rs) is not None
                if rs.id.family in "ADE":
                    data = singularity_data(rs)
                    members = slow_weight_form_members(h, n, int(2 * data.a), int(2 * data.b), bq)
                    assert singularity_check(rs) == sequential_chain(members), (rs.id, trial)
        assert failed > 34 * 2

    def test_prop12_tail_of_either_sign(self, catalog):
        # The tail's sign s is (-1)**k for its k nonzero e(d): +1 on every
        # catalog system, -1 where e(1) or e(h) moved by one reaches or
        # leaves 0.  Either way prop12 fails or holds with the witness of
        # the rational-function route.
        signs = Counter()
        for rs in catalog.values():
            for system in (rs, corrupted(rs, "e(1)"), corrupted(rs, "e(h)")):
                signs[(-1) ** sum(1 for e in system.e_of_d.values() if e)] += 1
                assert identities.prop12_check(system) == \
                    sequential_chain(slow_prop12_members(system, b_poly(system))), system.id
        assert signs[1] > 34 and signs[-1] > 5, signs

    def test_prop7_head_matches_rational_route(self, catalog, monkeypatch):
        # prop7's head, E - a(0)(1 - q**h) over 1 - q**h, is the difference
        # E/(1-q**h) - a(0) coefficient for coefficient, on the catalog,
        # under every corruption of the differential and with a(0) = m(0),
        # 0 for every root system, raised by one.
        heads = []
        real = identities._chain_check
        monkeypatch.setattr(identities, "_chain_check",
                            lambda members: heads.append(members[0][1]) or real(members))
        systems = list(catalog.values())
        systems += [corrupted(build(RootSystemId(family, rank)), kind)
                    for family, rank in SYSTEMS for kind in CORRUPTIONS]
        systems += [corrupted_copy(rs, m=[rs.m[0] + 1] + list(rs.m[1:]))
                    for rs in catalog.values()]
        for rs in systems:
            identities.prop7_check(rs)
            assert typed(heads.pop()) == typed(slow_prop7_head(rs)), rs.id


def corrupted_copy(rs, m=None, p=None, exponents=None, b=None, h=None):
    """rs rebuilt through the constructor with the given fields replaced."""
    return RootSystem(rs.id, rs.cartan, h or rs.h, exponents or rs.exponents, b or rs.b,
                      rs.two_rho_pairings, m or rs.m, rs.e_of_d, p or rs.p)


class TestClassSums:
    """The all-roots sums over gcd classes (prop1's trace pairing, the
    eigenvalue poles of props 2, 6 and 9, prop3, and eq13's eigenvalue
    sums) against the field routes they replaced, and fault injection into
    the new routes."""

    def test_prop1_matches_trace_pairing(self, catalog):
        # D84 has h = 166 = 2 * 83, where Phi_h is dense.
        systems = list(catalog.values()) + [build(RootSystemId("A", 60)),
                                            build(RootSystemId("D", 84))]
        for rs in systems:
            sums, missed = class_sums(coxeter_element(rs).traces, rs.h)
            assert missed is None, rs.id
            for k, acc in enumerate(trace_pairings(rs)):
                assert acc[0] == sums[k] and not any(acc[1:]), (rs.id, k)
            assert sums == [rs.h * m for m in rs.m], rs.id
            assert identities.prop1_check(rs) is None, rs.id
        assert {rs.h for rs in systems} >= {61, 166}

    def test_periodic_poles_match_field_route(self):
        # The poles member of props 6 and 9, the sum of -a(k) z**k/(q - z**k),
        # against the root sums it replaced, by value.
        rng = random.Random(211)
        for h in range(1, 61):
            w = {g: rng.choice([0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 4)])
                 for g in divisors(h)}
            a = [w[gcd(k, h)] for k in range(h)]
            label, got = identities._periodic_members(h, a)[0]
            assert label == "eigenvalue poles"
            assert got == sum_over_roots([-c for c in a], h, shift=1), h

    def test_no_field_reductions_in_props_1_6_9(self, catalog, monkeypatch):
        clear_identity_memos()
        ctx_type, calls = type(_context(1)), []
        for name in ("coords", "root_sum"):
            real = getattr(ctx_type, name)
            monkeypatch.setattr(ctx_type, name, lambda self, terms, real=real, name=name:
                                calls.append(name) or real(self, terms))
        for rs in catalog.values():
            assert identities.prop1_check(rs) is None, rs.id
            assert identities._prop6_witness(rs.h) is None, rs.id
            assert identities.prop9_check(rs) is None, rs.id
            assert identities.eq13_check(rs) is None, rs.id
        assert calls == []
        # The spy sees the checks that still reduce modulo Phi_h.
        assert identities.prop5_check(catalog["E6"]) is None and calls

    def test_prop1_traces_not_gcd_determined(self, catalog, monkeypatch):
        # Tr(c**3) of A7 (h = 8) is off the divisors: only the re-evaluation
        # reads it.  Tr(c**4) is alone in its class, so the transform takes
        # it and misses m.
        rs = catalog["A7"]
        cox = coxeter_element(rs)
        for k, witness in ((3, "trace pairing: class transform misses trace(3)"),
                           (4, "trace pairing at k=0 does not give m(0)")):
            traces = list(cox.traces)
            traces[k] += 1
            monkeypatch.setattr(identities, "coxeter_element",
                                lambda rs, traces=traces: CoxeterElement(cox.charpoly,
                                                                         tuple(traces)))
            assert run_suite(rs, ["prop1"])[0][2:] == ("fail", witness), k
        monkeypatch.undo()
        assert run_suite(rs, ["prop1"])[0].passed

    def test_prop9_p_off_the_divisors(self, catalog):
        # p(3) of A7 sits in the class of p(1): a(3) = p(0) - p(3) misses
        # the class transform, which reads a at the h/d only.
        rs = catalog["A7"]
        p = list(rs.p)
        p[3] += 1
        rep = run_suite(corrupted_copy(rs, p=p), ["prop9"])[0]
        assert (rep.verdict, rep.witness) == (
            "fail", "MethodMismatch: eigenvalue poles: class transform misses a(3)")

    def test_prop3_interpolant_matches_field_route(self, catalog):
        systems = list(catalog.values()) + [build(RootSystemId("A", 90)),
                                            build(RootSystemId("D", 40))]
        for rs in systems:
            h = rs.h
            epoly = exponent_poly(rs)
            sums, missed = class_sums(rs.p, h)
            assert missed is None, rs.id
            oracle = lagrange_all_roots([cyc_eval(epoly, h, i) for i in range(h)], h)
            assert Polynomial([Fraction(s, h) for s in sums]) == oracle == epoly, rs.id
        assert {rs.h for rs in systems} >= {91, 78}

    def test_prop2_poles_match_field_route(self, catalog):
        rng = random.Random(191)
        cases = [(rs.m, rs.h) for rs in catalog.values()]
        for h in range(1, 61):
            w = {g: rng.choice([0, rng.randint(-4, 4), Fraction(rng.randint(-9, 9), 4)])
                 for g in divisors(h)}
            cases.append(([w[gcd(k, h)] for k in range(h)], h))
        for m, h in cases:
            got = RationalFunction(Polynomial(identities._pole_sums(m, h, "m")[::-1]),
                                   identities._qm1(h))
            oracle = sum_over_roots(m, h)
            assert got.den == oracle.den, h
            assert all(a == b for a, b in zip(got.num.coeffs, oracle.num.coeffs)), h
            assert len(got.num.coeffs) == len(oracle.num.coeffs), h

    def test_prop3_patched_ramanujan_row(self, catalog, monkeypatch):
        # One entry of the order-8 row, c_8(3) = 0, patched to 1.
        rs = catalog["A7"]
        ctx = _context(8)
        row = list(ctx.ramanujan_row)
        row[3] += 1
        monkeypatch.setattr(ctx, "ramanujan_row", tuple(row))
        rep = run_suite(rs, ["prop3"])[0]
        assert (rep.verdict, rep.witness) == (
            "fail", "interpolation routes disagree: interpolant misses node 3")
        monkeypatch.undo()
        assert run_suite(rs, ["prop3"])[0].passed

    def test_prop3_p_off_the_divisors(self, catalog):
        # k = 3 is no h/d for h = 8: only the re-evaluation reads p(3).
        rs = catalog["A7"]
        p = list(rs.p)
        p[3] += 1
        rep = run_suite(corrupted_copy(rs, p=p), ["prop3"])[0]
        assert (rep.verdict, rep.witness) == (
            "fail", "interpolation routes disagree: interpolant misses node 3")

    def test_prop3_largest_exponent_lowered(self, catalog):
        rs = catalog["E6"]
        exponents = list(rs.exponents)
        exponents[-1] -= 1
        rep = run_suite(corrupted_copy(rs, exponents=exponents), ["prop3"])[0]
        assert (rep.verdict, rep.witness) == (
            "fail", "'interpolant' != 'input': first difference at q^10 (0 vs 1)")

    def test_prop2_m_not_gcd_determined(self, catalog):
        # m(3) of A7 is off the divisors, so the characteristic polynomial
        # (built from m at the h/d) still matches; the poles member does not.
        rs = catalog["A7"]
        m = list(rs.m)
        m[3] += 1
        rep = run_suite(corrupted_copy(rs, m=m), ["prop2"])[0]
        assert (rep.verdict, rep.witness) == (
            "fail", "MethodMismatch: eigenvalue poles: class transform misses m(3)")


def dense_weights_identity_holds(rs, a, b, c):
    """The dense route the term-dict comparison replaced: E(t**2) against
    prod (t**(2h) - t**(2x)) / (t**(2h) prod (t**(2x) - 1)), cross-multiplied."""
    h2 = 2 * rs.h
    lhs = RationalFunction(exponent_poly(rs).compose_power(2), ONE)
    num, den = ONE, Polynomial.monomial(h2)
    for x in (a, b, c):
        e = int(2 * x)
        num = num * (Polynomial.monomial(h2) - Polynomial.monomial(e))
        den = den * (Polynomial.monomial(e) - 1)
    return lhs == RationalFunction(num, den)


def old_paired_total(parts, h, shift):
    """The route paired_parts_check replaced: per divisor, a sum of two
    rational functions times 1/(1 - q**d), added over the plan of their
    denominators."""
    return rf_sum((RationalFunction(parts[d], Polynomial.monomial(shift))
                   + RationalFunction(parts[d].reversed_to(d - 1 + shift), ONE))
                  * RationalFunction(ONE, one_minus(d)) for d in divisors(h))


class TestSparseRoutes:
    """eq19's weight identity on term dicts and the one-numerator terms of
    props 16 and 19, against the dense builders they replaced."""

    def test_weight_identity_matches_dense(self, catalog):
        systems = [rs for rs in catalog.values() if rs.id.family in "ADE"]
        systems += [build(RootSystemId("A", 30)), build(RootSystemId("D", 20))]
        held = 0
        for rs in systems:
            h = rs.h
            for t in range(2, h + 2):
                got = identities._weights_identity_holds(rs, (t, h + 2 - t, h))
                halves = (Fraction(t, 2), Fraction(h + 2 - t, 2), Fraction(h, 2))
                assert got == dense_weights_identity_holds(rs, *halves), (rs.id, t)
                held += got
        assert held >= len(systems)

    def test_search_passes_int_triples(self, catalog, monkeypatch):
        # singularity_data walks the doubled weights as ints, never Fractions:
        # every t by its values at t = 2, the t they leave on term dicts.
        seen, walked = [], []
        real, real_walk = identities._weights_identity_holds, identities._weight_candidates
        monkeypatch.setattr(identities, "_weights_identity_holds",
                            lambda rs, weights: seen.append(weights) or real(rs, weights))
        monkeypatch.setattr(identities, "_weight_candidates",
                            lambda rs: walked.append(real_walk(rs)) or walked[-1])
        systems = [rs for rs in catalog.values() if rs.id.family in "ADE"]
        systems += [build(RootSystemId("A", 30)), build(RootSystemId("D", 20))]
        for rs in systems:
            del seen[:], walked[:]
            data = singularity_data(rs)
            h = rs.h
            assert seen == [(t, h + 2 - t, h) for t in walked[0]], rs.id
            assert set(walked[0]) <= set(range(2, h // 2 + 2)), rs.id
            assert all(type(x) is int for weights in seen for x in weights), rs.id
            assert (2 * data.a, 2 * data.b, 2 * data.c) in seen, rs.id

    def test_weight_search_matches_dict_walk(self):
        # The values at t = 2 keep every t that the term dicts accept, so the
        # search finds the t list of the dict walk over every t.
        ids = [RootSystemId("A", r) for r in range(1, 40)]
        ids += [RootSystemId("D", r) for r in range(4, 40)]
        ids += [RootSystemId("E", r) for r in (6, 7, 8)] + [RootSystemId("D", 250)]
        for rsid in ids:
            rs = build(rsid)
            h = rs.h
            walk = [t for t in range(2, h // 2 + 2)
                    if identities._weights_identity_holds(rs, (t, h + 2 - t, h))]
            kept = identities._weight_candidates(rs)
            assert set(walk) <= set(kept), rsid
            assert walk == [2 * singularity_data(rs).a], rsid

    def test_weight_identity_guards(self, catalog, monkeypatch):
        # E6 has six candidates a = 1, 3/2, ..., 7/2; exactly one must hold.
        # All six are let past the values at t = 2.
        monkeypatch.setattr(identities, "_weight_candidates",
                            lambda rs: list(range(2, rs.h // 2 + 2)))
        for holds, count in ((True, 6), (False, 0)):
            monkeypatch.setattr(identities, "_weights_identity_holds",
                                lambda *args, holds=holds: holds)
            rep = run_suite(catalog["E6"], ["eq19"])[0]
            assert (rep.verdict, rep.witness) == ("fail", f"E6: {count} admissible triples")

    def test_paired_parts_match_old_builder(self, catalog, monkeypatch):
        clear_identity_memos()
        totals = []
        real = identities._over
        monkeypatch.setattr(identities, "_over", lambda *args, **kwargs:
                            totals.append(real(*args, **kwargs)) or totals[-1])
        for rs in catalog.values():
            for shift, cid in ((0, "prop16"), (1, "prop19")):
                rep = run_suite(rs, [cid])[0]
                assert (rep.verdict, rep.witness) == ("pass", None), (rs.id, cid)
                old = old_paired_total(identities._b_parts(rs, shift), rs.h, shift)
                assert typed(totals.pop()) == typed(old), (rs.id, cid)

    def test_corrupted_part_fails(self, catalog, monkeypatch):
        real = identities._b_parts

        def corrupted(rs, shift):
            parts = dict(real(rs, shift))
            parts[rs.h] = parts[rs.h] + Polynomial.monomial(1)
            return parts

        monkeypatch.setattr(identities, "_b_parts", corrupted)
        for cid in ("prop16", "prop19"):
            rep = run_suite(catalog["E6"], [cid])[0]
            assert rep.verdict == "fail" and "'paired parts'" in rep.witness, rep


class TestSuite:
    @pytest.mark.parametrize("family,rank", [
        ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4),
        ("G", 2), ("F", 4),
    ])
    def test_all_checks_pass(self, catalog, family, rank):
        rs = catalog[f"{family}{rank}"]
        for rep in run_suite(rs):
            assert rep.passed, f"{rep.identity_id}: {rep.witness}"

    def test_unknown_check_id_raises(self, catalog):
        with pytest.raises(ValueError, match="unknown check 'prop20'"):
            identities.run_check(catalog["A2"], "prop20")

    @pytest.mark.parametrize("name", ["B3", "G2"])
    def test_inapplicable_check_is_refused(self, catalog, name):
        # eq19's weight data exists for simply-laced systems only: asking
        # for it elsewhere is an error of the caller, not a failed identity.
        rs = catalog[name]
        with pytest.raises(ValueError, match=f"check 'eq19' does not apply to {name}"):
            identities.run_check(rs, "eq19")
        with pytest.raises(ValueError, match=f"check 'eq19' does not apply to {name}"):
            run_suite(rs, ["prop1", "eq19"])

    def test_eq5_takes_the_bfs_cap(self, catalog, monkeypatch):
        # A2's Weyl group has order 6: a cap of 5 skips the enumeration, a cap
        # of 6 runs it under that cap.
        caps = []
        real = identities.weyl_length_gf_bruteforce
        monkeypatch.setattr(identities, "weyl_length_gf_bruteforce",
                            lambda rs, cap: caps.append(cap) or real(rs, cap))
        for cap in (5, 6):
            assert run_suite(catalog["A2"], ["eq5"], bfs_cap=cap)[0].passed
        assert caps == [6]

    def test_weight_check_only_simply_laced(self, catalog):
        assert "eq19" in available_checks(catalog["A2"])
        assert "eq19" not in available_checks(catalog["B2"])
        assert "eq19" not in available_checks(catalog["F4"])

    def test_fresh_system_matches_catalog(self):
        rs = build(RootSystemId("D", 5))
        for rep in run_suite(rs, ["prop11", "prop14", "eq19"]):
            assert rep.passed, rep.witness

    def test_suites_survive_optimize(self, catalog):
        # With asserts compiled out, the G2 and F4 suites report exactly what
        # they report in process.
        script = (
            "import json\n"
            "from rootheight.identities import run_suite\n"
            "from rootheight.rootsys import RootSystem, RootSystemId, build\n"
            "assert False, 'asserts are on'\n"
            "print(json.dumps([[r.as_dict() for r in run_suite(build(RootSystemId(f, n)))]\n"
            "                  for f, n in (('G', 2), ('F', 4))]))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        expected = [[r.as_dict() for r in run_suite(catalog[name])] for name in ("G2", "F4")]
        assert json.loads(proc.stdout) == expected
