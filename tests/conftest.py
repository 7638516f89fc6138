"""Shared fixtures and golden fixtures for the test suite."""

from __future__ import annotations

from functools import lru_cache

import pytest

import rootheight.exactalg as exactalg
import rootheight.identities as identities
import rootheight.numth as numth
from rootheight import build, default_catalog
from rootheight.exactalg import Polynomial, RationalFunction, poly_gcd


@pytest.fixture(scope="session")
def catalog():
    """All default systems, built once and shared (instances are immutable)."""
    return {str(rsid): build(rsid) for rsid in default_catalog()}


MEMO_MODULES = (identities, exactalg, numth)


def clear_identity_memos():
    """Empty every lru_cache defined in rootheight.identities,
    rootheight.exactalg and rootheight.numth (among them the field contexts,
    the sum plans, the lifted numerators and the Ramanujan-sum rows), so the
    next run computes each memoised value afresh.  The per-system slots of
    a RootSystem are not global; a fresh build starts them empty."""
    for module in MEMO_MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                value.cache_clear()


def string_closure(cartan):
    """Positive roots in simple-root coordinates, height by height, each
    level sorted: closure by root strings, where alpha + alpha_i is a root
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


def get_system(catalog, family, rank):
    return catalog[f"{family}{rank}"]


def golden_exponents(family, rank):
    """Exponent lists from the classical tables, used as golden fixtures."""
    if family == "A":
        return list(range(1, rank + 1))
    if family in ("B", "C"):
        return list(range(1, 2 * rank, 2))
    if family == "D":
        return sorted(list(range(1, 2 * rank - 2, 2)) + [rank - 1])
    return {
        ("E", 6): [1, 4, 5, 7, 8, 11],
        ("E", 7): [1, 5, 7, 9, 11, 13, 17],
        ("E", 8): [1, 7, 11, 13, 17, 19, 23, 29],
        ("F", 4): [1, 5, 7, 11],
        ("G", 2): [1, 5],
    }[(family, rank)]


def golden_charpoly_factors(family, rank):
    """Binomial exponents (numerator list, denominator list) of the classical
    factorizations of the Coxeter characteristic polynomial."""
    if family == "A":
        return [rank + 1], [1]
    if family in ("B", "C"):
        return [2 * rank], [rank]
    if family == "D":
        return [2 * rank - 2, 2], [rank - 1, 1]
    return {
        ("E", 6): ([12, 3, 2], [6, 4, 1]),
        ("E", 7): ([18, 3, 2], [9, 6, 1]),
        ("E", 8): ([30, 5, 3, 2], [15, 10, 6, 1]),
        ("F", 4): ([12, 2], [6, 4]),
        ("G", 2): ([6, 1], [3, 2]),
    }[(family, rank)]


def golden_charpoly(family, rank):
    num_exps, den_exps = golden_charpoly_factors(family, rank)
    num = Polynomial((1,))
    for d in num_exps:
        num = num * Polynomial((-1,) + (0,) * (d - 1) + (1,))
    den = Polynomial((1,))
    for d in den_exps:
        den = den * Polynomial((-1,) + (0,) * (d - 1) + (1,))
    return num.divexact(den)


def conjugate_partition(exponents, h):
    """Height counts b_1..b_{h-1} from an exponent list."""
    return [sum(1 for e in exponents if e >= k) for k in range(1, h)]


def binomial_product(x):
    """The product of (1 - q**d)**x(d) over a dict of binomial exponents as
    a dense rational function: x(d) > 0 multiplies into the numerator,
    x(d) < 0 into the denominator."""
    num = den = Polynomial((1,))
    for d, e in x.items():
        factor = Polynomial((1,) + (0,) * (d - 1) + (-1,)) ** abs(e)
        if e > 0:
            num = num * factor
        else:
            den = den * factor
    return RationalFunction(num, den)


def expand_binomials(x):
    """The dense route to a product of binomials: its numerator divided
    exactly by its denominator (``NotDivisible`` when it is no
    polynomial)."""
    return binomial_product(x).as_polynomial()


# The route the divisor expansions took before each was built over one
# denominator per chain, kept as their oracle: the terms added over the
# gcd-chain plan of their denominators, each numerator lifted by its plan
# multiplier and added with its weight.


@lru_cache(maxsize=None)
def sum_plan(dens):
    """Common denominator L of a sum whose terms have the denominators dens
    (coefficient tuples), with one multiplier M_i per term, so that the sum
    is (sum of n_i * M_i) / L.  Terms are added left to right: from
    acc = D_0, step i cancels g = gcd(acc, D_i) into da_i = acc/g and
    db_i = D_i/g (acc and D_i when g is constant) and sets acc = acc * db_i;
    then M_i = da_i * (db_{i+1} * ... * db_k), with da_0 = 1, from suffix
    products.  No terms give 0/1."""
    one = Polynomial((1,))
    polys = [Polynomial(coeffs) for coeffs in dens] or [one]
    acc, steps = polys[0], []
    for den in polys[1:]:
        g = poly_gcd(acc, den)
        da, db = (acc, den) if g.degree < 1 else (acc.divexact(g), den.divexact(g))
        steps.append((da, db))
        acc = acc * db
    mults, suffix = [], one
    for da, db in reversed(steps):
        mults.append(da * suffix)
        suffix = db * suffix
    return acc, (suffix, *reversed(mults))


def lift(num, mult):
    """The nonzero (i, c) terms of the product of two coefficient tuples: a
    term's numerator lifted by its plan multiplier."""
    return tuple((i, c) for i, c in enumerate((Polynomial(num) * Polynomial(mult)).coeffs)
                 if c)


def rf_sum(terms, weights=None):
    """Sum of rational functions over the plan of their denominators; with
    weights, the sum of w_i * t_i as the weighted sum of their lifts."""
    terms = list(terms)
    den, mults = sum_plan(tuple(t.den.coeffs for t in terms))
    if weights is None:
        num = sum((t.num * m for t, m in zip(terms, mults)), Polynomial(()))
        return RationalFunction(num, den)
    lifts = [(w, lift(t.num.coeffs, m.coeffs)) for t, m, w in zip(terms, mults, weights)
             if w]
    out = [0] * max((row[-1][0] + 1 for _, row in lifts if row), default=0)
    for w, row in lifts:
        for i, c in row:
            out[i] += w * c
    return RationalFunction(Polynomial(out), den)


def weighted_sum(pairs):
    """The sum of w * F over the (w, F) pairs, by ``rf_sum`` with weights."""
    pairs = list(pairs)
    return rf_sum([f for _, f in pairs], [w for w, _ in pairs])


def lifted_to(f, den):
    """f over den, a multiple of f.den: its numerator times the exact
    quotient."""
    return RationalFunction(f.num * den.divexact(f.den), den)


def assert_over(got, want, h):
    """got is want over its chain's denominator D = +-q**s (q**h - 1), s the
    power of q in want.den: D is a multiple of want.den whose quotient has
    lowest coefficient +1, so a cross-difference keeps its lowest
    coefficient, and got's numerator is want's times that quotient,
    coefficient for coefficient and type for type (int or Fraction)."""
    s = next(i for i, c in enumerate(want.den.coeffs) if c)
    top = Polynomial.monomial(s) * (Polynomial.monomial(h) - 1)
    assert got.den in (top, -top), (h, got.den, want.den)
    quot = got.den.divexact(want.den)
    assert next(c for c in quot.coeffs if c) == 1, (h, got.den, want.den)
    typed = lambda p: tuple((type(c), c) for c in p.coeffs)
    assert typed(got.num) == typed(lifted_to(want, got.den).num), (h, got, want)


def sequential_chain(members):
    """The comparison the grouped ``_chain_check`` replaced, kept as its
    oracle: every member against the first, in order, the first witness
    returned."""
    la, fa = members[0]
    for lb, fb in members[1:]:
        if witness := identities._rf_mismatch(la, fa, lb, fb):
            return witness
    return None


# The routes that props 7 and 12, eq19 and eq20 took before each was decided
# as a polynomial identity over its known denominators, kept as oracles:
# their members as rational-function sums over the two-term plan.


def one_minus(k):
    """1 - q**k."""
    return Polynomial((1,) + (0,) * (k - 1) + (-1,))


def slow_prop7_head(rs):
    """prop7's head member, E/(1-q**h) - a(0)."""
    return RationalFunction(identities.exponent_poly(rs), one_minus(rs.h)) - rs.m[0]


def slow_prop12_members(rs, b):
    """prop12's chain for the height polynomial b: B against
    n/(1-q) - (1-q**h)/(1-q) * tail."""
    h, n = rs.h, rs.id.rank
    tail = identities._over(h, ((e, RationalFunction(Polynomial((1,)), one_minus(d)))
                                for d in numth.divisors(h) if (e := rs.e_of_d[h // d])))
    rhs = RationalFunction(Polynomial((n,)), one_minus(1)) - \
        RationalFunction(one_minus(h), one_minus(1)) * tail
    return [("B", RationalFunction(b)), ("constant-part form", rhs)]


def slow_weight_form_members(h, n, a, b, bq):
    """eq19's chain for the doubled weights a, b and the height polynomial
    bq: B(t**2) against (t**2 P/Q - n)/(t**2 - 1)."""
    mono = Polynomial.monomial
    inner = RationalFunction(mono(2) * (mono(2 * h - a) - 1) * (mono(2 * h - b) - 1),
                             (mono(a) - 1) * (mono(b) - 1)) - n
    return [("B(t^2)", RationalFunction(bq.compose_power(2))),
            ("weight form", inner * RationalFunction(Polynomial((1,)), mono(2) - 1))]


def slow_dynkin_relations(h, n, dpoly, mpoly, bq):
    """eq20's two chains: B against q poly/(q**p - 1) - n/(q - 1)."""
    mono = Polynomial.monomial
    return [[("B", RationalFunction(bq)),
             (label, RationalFunction(poly.shifted(1), mono(period) - 1)
              - RationalFunction(Polynomial((n,)), mono(1) - 1))]
            for label, poly, period in (("quotient relation", dpoly, h),
                                        ("antichain relation", mpoly, h - 1))]
