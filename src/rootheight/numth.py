"""Arithmetic-function toolkit: divisors, Moebius, totient, Ramanujan sums,
the gcd-class transform, cyclotomic polynomials, the totient q-analogue,
gcd-counting, Cohen-function detection, and the cyclotomic discriminant.

All functions are pure; the memo tables behind factorize, ``ramanujan_sums``
and ``cyclotomic_poly`` (the modulus of the kernel's field context) are
``lru_cache``s and are safe for concurrent use.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import MethodMismatch, UnsupportedOrder
from .exactalg import Polynomial, _context


def divisors(n):
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def factorize(n):
    """Prime factorization by trial division, as a tuple of (p, e) pairs."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def mobius(n):
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def totient(n):
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def _ramanujan_exp_sum(h, j):
    # Sum of j-th powers over the primitive h-th roots of unity, reduced in
    # the cyclotomic field; integer coordinate arithmetic throughout.
    ctx = _context(h)
    acc = ctx.coords((j * k, 1) for k in ctx.residues)
    if any(acc[1:]):
        raise MethodMismatch(f"exp-sum c_{h}({j}) is not rational: {acc}")
    return acc[0]


def _ramanujan_closed_form(h, j):
    g = gcd(j, h)
    num = totient(h) * mobius(h // g)
    den = totient(h // g)
    q, r = divmod(num, den)
    if r:
        raise MethodMismatch(f"closed form c_{h}({j}) is not an integer")
    return q


def ramanujan_sum(h, j):
    """The Ramanujan sum c_h(j), by the divisor sum over d | gcd(j, h)."""
    return sum(d * mobius(h // d) for d in divisors(gcd(j, h)))


@lru_cache(maxsize=None)
def ramanujan_sums(h):
    """c_h(0..h-1) by the divisor formula, once per order (the field
    context's ``ramanujan_row`` takes them from Newton's identities)."""
    return tuple(ramanujan_sum(h, j) for j in range(h))


def class_transform(values, h, row):
    """s_j = sum over d | h of values[h/d] * row(d)[j mod d], j < h.  With
    row(d) = c_d(0..d-1), the power sums of the primitive d-th roots, this
    is sum_k values[k] z**(kj) over the h-th roots z**k for values that
    depend only on gcd(k, h) (E. Cohen, "Representations of even functions
    (mod r), I", Duke Math. J. 25, 1958): O(h d(h)) rational operations,
    no reduction modulo Phi_h.  The caller picks the row route: the field
    context's Newton ``ramanujan_row`` or the divisor ``ramanujan_sums``."""
    weighted = [(w, d, row(d)) for d in divisors(h) if (w := values[(h // d) % h])]
    return [sum(w * r[j % d] for w, d, r in weighted) for j in range(h)]


def class_sums(values, h):
    """The class transform of values over the Newton rows, and the first
    node it misses (None if none): the sums are gcd-determined with
    s_j = s_(-j), so the inverse transform at node i is again a class
    transform, compared with h * values[i] at every node."""
    row = {d: _context(d).ramanujan_row for d in divisors(h)}.__getitem__
    sums = class_transform(values, h, row)
    back = class_transform(sums, h, row)
    return sums, next((i for i, v in enumerate(values) if back[i] != h * v), None)


def ramanujan_sum_checked(h, j):
    """c_h(j) by the divisor sum, cross-checked against the exponential sum
    and the closed form."""
    vals = {"exp_sum": _ramanujan_exp_sum(h, j),
            "divisor_sum": ramanujan_sum(h, j),
            "closed_form": _ramanujan_closed_form(h, j)}
    if len(set(vals.values())) != 1:
        raise MethodMismatch(f"c_{h}({j}) methods disagree: {vals}")
    return vals["divisor_sum"]


def cyclotomic_poly(h):
    """The order-h cyclotomic polynomial, the modulus of its field context."""
    return Polynomial(_context(h).modulus)


def psi_poly(h):
    """Totient q-analogue: the sum of q**k over 1 <= k <= h coprime to h.

    For h >= 2 the exponents are the coprime residues in 1..h-1; for h = 1
    the single admissible exponent is k = 1, giving q.  The value-1 constant
    convention would break the d = 1 terms of the divisor-sum expansions
    this polynomial enters, so it is not used.
    """
    coeffs = [0] * (h + 1)
    for k in range(1, h + 1):
        if gcd(k, h) == 1:
            coeffs[k] = 1
    return Polynomial(coeffs)


def gcd_count(d, h, x):
    """Count integers 1 <= j <= x with d dividing gcd(j, h).

    ``x`` may be any nonnegative rational; floor semantics apply.
    """
    if h % d != 0:
        return 0
    return x // d


class ArithSeq(namedtuple("ArithSeq", "h values")):
    """One period of an h-periodic integer-or-rational sequence a(0)..a(h-1)."""

    __slots__ = ()

    def __new__(cls, h, values):
        if len(values) != h:
            raise ValueError("period length mismatch")
        return super().__new__(cls, h, values)


def is_cohen(seq):
    """Whether a(k) = a(gcd(k, h)) for k = 1..h-1.

    Under h-periodicity a(0) stands for the value at the divisor h itself,
    which the condition never constrains.  Returns (True, None) or
    (False, least violating k).
    """
    a, h = seq.values, seq.h
    for k in range(1, h):
        if a[k] != a[gcd(k, h)]:
            return False, k
    return True, None


def cyclotomic_discriminant(h):
    """Discriminant of the order-h cyclotomic polynomial, closed form."""
    if h <= 2:
        raise UnsupportedOrder("discriminant form needs order >= 3")
    phi = totient(h)
    den = 1
    for p, _ in factorize(h):
        e, r = divmod(phi, p - 1)
        if r:
            raise MethodMismatch(f"p - 1 = {p - 1} does not divide phi({h})")
        den *= p ** e
    sign = -1 if (phi // 2) % 2 else 1
    return Fraction(sign * h ** phi, den)
